"""Pinned answers of the routing pipeline, the state protocol and a join.

Three fixtures hold what a seeded run answers, as sha256 digests, so a change
meant to move only host cost shows "answers equal" with a test rather than
with a sentence:

* ``route_digest.json``: the hops of 300 seeded Table-1 requests at n=400,
  through the plain, cached and ``levels=3`` routers, batched and one at a
  time (an infeasible request contributes its error's type and message);
* ``protocol_digest.json``: ``ProtocolReport.to_dict()`` (sorted keys) of a
  cold ``StateDistributionProtocol(hfc, refresh_every=2).run()`` at n=500 —
  message counts, sizes and latencies on the simulated clock;
* ``join_digest.json``: the coordinates (``float.hex``) every joiner of a
  seeded 60-event join/leave script at n=400 locates itself at, and its kept
  descent's ``iterations`` and ``converged`` — the scalar simplex on every
  interpreter CI runs.

All three are recorded at seeds 11 and 3 (the build's, the requests' and the
protocol's seed). Regenerate one only when its answers are *meant* to change
(commands in the writers' docstrings; run them with
``PYTHONPATH=<parent checkout>/src:.`` to record at a parent).
"""

import hashlib
import json
import os
import random

import pytest

from repro.core import HFCFramework
from repro.membership.churn import DynamicOverlay
from repro.experiments.environments import Environment
from repro.experiments.workload import WorkloadConfig, generate_requests
from repro.state.protocol import StateDistributionProtocol
from repro.util.errors import NoFeasiblePathError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ROUTE_DIGEST_FIXTURE = os.path.join(FIXTURES, "route_digest.json")
PROTOCOL_DIGEST_FIXTURE = os.path.join(FIXTURES, "protocol_digest.json")
JOIN_DIGEST_FIXTURE = os.path.join(FIXTURES, "join_digest.json")
DIGEST_SEEDS = [11, 3]
ROUTE_N, ROUTE_REQUESTS, PROTOCOL_N = 400, 300, 500
JOIN_N, JOIN_EVENTS = 400, 60


def _sha(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _answer(outcome):
    """A request's hops as ``[proxy, service, slot]`` triples, or its error."""
    if isinstance(outcome, NoFeasiblePathError):
        return [type(outcome).__name__, str(outcome)]
    return [[hop.proxy, hop.service, hop.slot] for hop in outcome.hops]


def _single(router, request):
    try:
        return router.route(request)
    except NoFeasiblePathError as exc:
        return exc


def _route_digest(seed):
    framework = HFCFramework.build(proxy_count=ROUTE_N, seed=seed)
    environment = Environment(spec=None, framework=framework, clients=[], client_proxies=[])
    requests = generate_requests(
        environment, WorkloadConfig(request_count=ROUTE_REQUESTS), seed=seed
    )
    routers = {
        "plain": framework.hierarchical_router(),
        "cached": framework.cached_hierarchical_router(),
        "levels=3": framework.hierarchy_router(levels=3),
    }
    digests = {}
    for name, router in routers.items():
        # the batch first: the cached router's singles then read its cache
        batch = router.route_many_detailed(requests)
        digests[f"{name}.batch"] = _sha(
            [_answer(error if path is None else path) for path, error in zip(batch.paths, batch.errors)]
        )
        digests[f"{name}.single"] = _sha([_answer(_single(router, r)) for r in requests])
    return digests


def _protocol_digest(seed):
    framework = HFCFramework.build(proxy_count=PROTOCOL_N, seed=seed)
    report = StateDistributionProtocol(framework.hfc, refresh_every=2, seed=seed).run()
    return _sha(report.to_dict())


class _KeepsDescents(DynamicOverlay):
    """A churned overlay that keeps every join's descent."""

    def __post_init__(self):
        super().__post_init__()
        self.descents = []

    def _solve(self, router, probes):
        solved = super()._solve(router, probes)
        self.descents.append(solved)
        return solved


def _join_digest(seed):
    """Joins (two in three events) of unused stub routers and leaves of random
    members, seeded; the joiners' coordinates as one digest, the descents'
    iterations and convergence in the clear."""
    framework = HFCFramework.build(proxy_count=JOIN_N, seed=seed)
    dyn = _KeepsDescents(framework, restructure_tolerance=None, track_quality=False)
    rng = random.Random(seed)
    catalog = sorted(framework.catalog.names)
    free = sorted(set(framework.physical.topology.stub_nodes) - set(dyn.proxies))
    rng.shuffle(free)
    joined = []
    for _ in range(JOIN_EVENTS):
        if rng.random() < 2 / 3:
            router = free.pop()
            dyn.join(router, frozenset(rng.sample(catalog, 4)))
            joined.append([router, [float(c).hex() for c in dyn.space.coordinate(router)]])
        else:
            dyn.leave(rng.choice(dyn.proxies))
    return {
        "coordinates": _sha(joined),
        "iterations": [run.iterations for run in dyn.descents],
        "converged": [run.converged for run in dyn.descents],
    }


def _write(path, digests):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


def write_route_digest_fixture():
    """Regenerate the route fixture — only when routed paths are *meant* to
    change: ``python -c "import tests.test_pinned_digests as t;
    t.write_route_digest_fixture()"``."""
    _write(ROUTE_DIGEST_FIXTURE, {f"seed={s}": _route_digest(s) for s in DIGEST_SEEDS})


def write_protocol_digest_fixture():
    """Regenerate the protocol fixture — only when the protocol's messages are
    *meant* to change: ``python -c "import tests.test_pinned_digests as t;
    t.write_protocol_digest_fixture()"``."""
    _write(PROTOCOL_DIGEST_FIXTURE, {f"seed={s}": _protocol_digest(s) for s in DIGEST_SEEDS})


def write_join_digest_fixture():
    """Regenerate the join fixture — only when a joiner's coordinates are
    *meant* to change: ``python -c "import tests.test_pinned_digests as t;
    t.write_join_digest_fixture()"``."""
    _write(JOIN_DIGEST_FIXTURE, {f"seed={s}": _join_digest(s) for s in DIGEST_SEEDS})


def _recorded(path, seed):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)[f"seed={seed}"]


class TestRouteDigest:
    @pytest.mark.parametrize("seed", DIGEST_SEEDS)
    def test_routed_paths_match_the_recorded_digest(self, seed):
        assert _route_digest(seed) == _recorded(ROUTE_DIGEST_FIXTURE, seed)


class TestProtocolDigest:
    @pytest.mark.parametrize("seed", DIGEST_SEEDS)
    def test_protocol_report_matches_the_recorded_digest(self, seed):
        assert _protocol_digest(seed) == _recorded(PROTOCOL_DIGEST_FIXTURE, seed)


class TestJoinDigest:
    @pytest.mark.parametrize("seed", DIGEST_SEEDS)
    def test_joiners_locate_where_recorded(self, seed):
        assert _join_digest(seed) == _recorded(JOIN_DIGEST_FIXTURE, seed)
