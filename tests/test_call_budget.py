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
its Python calls are held too, so that glue cannot creep back. Since a
batch keeps only its paths (no per-request result holding its CSP), 340.

A join's locate is held the same way: one seeded join's ``solve_host`` on
the same overlay, in Python calls of ``repro`` functions (nearly all of them
the objective and its pairwise sum, two per evaluation). On the two-variable
simplex kernel it makes 488 (the float-list loop before it, 1,205); a
per-iteration helper, list builder or closure in the descent adds one call
per iteration or more.

A churn read is held too: after one seeded 50-move block on the same
overlay (a router warmed by 40 routed requests), the views and the rebind
that patches the router's derived state from their change record. Deriving
each view afresh and filtering the carried destination rows cluster by
cluster made 520 Python calls; patched from the last views and the record,
206. A Python call per proxy or per carried row adds its count or more.
"""

import random

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.coords.embedding import solve_host
from repro.core import HFCFramework
from repro.membership import DynamicOverlay
from repro.routing import HierarchicalRouter

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("profile_e2e", ROOT / "scripts" / "profile_e2e.py")
profile_e2e = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_e2e)

#: numpy calls per call today: raise only with a reason, lower freely
BUDGET = {"single": 5, "batch": 173}
#: Python calls of ``repro`` functions per batch and per join's locate today
#: (comprehensions count)
PYTHON_BUDGET = {"batch": 340, "locate": 488, "read": 206}


@pytest.fixture(scope="module")
def framework():
    return HFCFramework.build(proxy_count=150, seed=11)


@pytest.fixture(scope="module")
def join(framework):
    """The landmark coordinates and one seeded joiner's measured delays to
    them: the first stub router outside the overlay, measured before any
    other draw on the substrate's noise."""
    report = framework.embedding_report
    router = min(set(framework.physical.topology.stub_nodes) - set(framework.overlay.proxies))
    measured = framework.physical.measure_many([router], report.landmark_ids, probes=3)[0]
    return np.asarray(report.landmark_coordinates), measured


@pytest.fixture(scope="module")
def warm(framework, join):
    """The router with its query tables (both ways' views of them), provider
    index and destination rows built, and the 15 seeded requests it has
    routed once in a batch and the first alone."""
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


def test_a_joins_locate_stays_within_its_python_calls(join):
    landmarks, measured = join
    solved, _, python = profile_e2e.count_calls(lambda: solve_host(landmarks, measured))
    assert np.array_equal(solved.x, solve_host(landmarks, measured).x)
    assert python <= PYTHON_BUDGET["locate"]


def test_a_churn_read_stays_within_its_python_calls(framework):
    dyn = DynamicOverlay(framework, restructure_tolerance=None, track_quality=False)
    router = HierarchicalRouter(dyn.hfc)
    router.route_many_detailed([framework.random_request(seed=seed) for seed in range(40)])
    rng, names = random.Random(11), list(framework.catalog.names)
    free = [s for s in framework.physical.topology.stub_nodes if s not in dyn]
    rng.shuffle(free)
    for _ in range(50):
        if rng.random() < 0.5 and free:
            dyn.join(free.pop(), frozenset(rng.sample(names, 5)))
        else:
            proxy = rng.choice(dyn.proxies)
            dyn.leave(proxy)
            free.insert(0, proxy)
    _, _, python = profile_e2e.count_calls(lambda: router.rebind(dyn.hfc))
    assert router.hfc is dyn.hfc and router.cluster_capabilities
    assert python <= PYTHON_BUDGET["read"]
