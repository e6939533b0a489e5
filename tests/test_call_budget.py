"""A routed call's fixed cost, counted rather than timed.

One single route and one 15-request batch on a seeded n=150 overlay make at
most the numpy calls they make today, counted from ``repro`` frames by
``scripts/profile_e2e.py::count_calls`` (numpy C functions, array and ufunc
methods and numpy Python functions; an operator, a subscript or a direct
ufunc application makes no profile event). A change that adds work before a
call's first request fails here on any host, however fast.

Before the kernel was cut down (the layout, relaxation and gathers of
``routing/batch.py`` and ``routing/hierarchical.py`` as they stood with
``tests/oracles/ragged.py``'s layout) the same counter read 184 numpy
calls (and 162 Python calls) for the single route, 299 (486) for the batch;
then 117 (144) and 175 (455). Nearly all of that numpy drop is ``take``
turned into a subscript (74 calls to 5 in the single route), which the hook
does not see; the gain in time was cheaper calls more than fewer. Since the
kernel relaxes a call as small as one route row by row on Python floats,
the single route makes 5 numpy calls (and 201 Python calls); the batch,
still laid out ragged, 175 (467). With the batch's per-request glue cut
(a ragged walk steps every row back at once, the conquer builds its rows and
hops in fewer passes) the batch makes 173 numpy and 355 Python calls, and
its Python calls are held too, so that glue cannot creep back.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core import HFCFramework

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("profile_e2e", ROOT / "scripts" / "profile_e2e.py")
profile_e2e = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_e2e)

#: numpy calls per call today: raise only with a reason, lower freely
BUDGET = {"single": 5, "batch": 173}
#: Python calls of ``repro`` functions per batch today (comprehensions count)
PYTHON_BUDGET = {"batch": 355}


@pytest.fixture(scope="module")
def warm():
    """The router with its query tables (both ways' views of them), provider
    index and destination rows built, and the 15 seeded requests it has
    routed once in a batch and the first alone."""
    framework = HFCFramework.build(proxy_count=150, seed=11)
    router = framework.hierarchical_router()
    requests = [framework.random_request(seed=seed) for seed in range(15)]
    router.route_many_detailed(requests)
    router.route(requests[0])
    return router, requests


def test_a_single_route_stays_within_its_numpy_calls(warm):
    router, requests = warm
    path, numpy, python = profile_e2e.count_calls(lambda: router.route(requests[0]))
    assert path == router.route(requests[0])
    assert python > 0
    assert numpy <= BUDGET["single"]


def test_a_batch_of_15_stays_within_its_numpy_calls(warm):
    router, requests = warm
    result, numpy, _ = profile_e2e.count_calls(lambda: router.route_many_detailed(requests))
    assert result.infeasible_count == 0
    assert numpy <= BUDGET["batch"]


def test_a_batch_of_15_stays_within_its_python_calls(warm):
    router, requests = warm
    result, _, python = profile_e2e.count_calls(lambda: router.route_many_detailed(requests))
    assert result.infeasible_count == 0
    assert python <= PYTHON_BUDGET["batch"]
