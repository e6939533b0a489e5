"""Batched query engine: equivalence, plumbing, and provider-memo tests.

``route_many`` must be observationally indistinguishable from a per-request
``route()`` loop — same paths bit-for-bit, same error types and messages
for infeasible requests, same cache statistics — for every CSP method,
against the scalar cluster-level relaxation kept as the test oracle. The
property tests drive fully synthetic overlays (arbitrary coordinates, placements,
clusterings) through both code paths; the framework tests cover the
production wiring (cached router, flat routers, telemetry counters,
``resolve_requests``).
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.mstcluster import Clustering
from repro.coords.space import CoordinateSpace
from repro.experiments import resolve_requests
from repro.hierarchy import RecursiveRouter, build_levels
from repro.netsim.physical import PhysicalNetwork
from repro.netsim.topology import waxman
from repro.overlay.hfc import build_hfc
from repro.overlay.network import OverlayNetwork
from repro.qos import BandwidthModel, QoSHierarchicalRouter, cluster_pair_bandwidth
from repro.routing import batch as batch_module
from repro.routing import (
    BatchRouteResult,
    CentroidAggregationRouter,
    HierarchicalRouter,
)
from repro.routing.cache import CachedHierarchicalRouter
from repro.routing.providers import CoordinateProvider, TrueDelayProvider
from repro.services import ServiceRequest, linear_graph
from repro.services.graph import branching_graph
from repro.telemetry import Telemetry
from repro.util.errors import NoFeasiblePathError
from tests.oracles.csp import ReferenceCspRouter

#: one shared physical substrate; synthetic overlays draw proxies from it
_PHYSICAL = PhysicalNetwork(waxman(40, seed=1234), noise=0.0, seed=99)

METHODS = ("backtrack", "exact", "external")


@st.composite
def batch_case(draw):
    """A synthetic overlay plus a small batch of requests.

    The batch mixes linear and branching service graphs and (sometimes)
    requests naming a service no proxy offers — the infeasible outcome
    must round-trip through the batch engine unchanged.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=4, max_value=14))
    proxies = _PHYSICAL.graph.nodes()[:n]

    coords = {
        p: (
            draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False)),
            draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False)),
        )
        for p in proxies
    }
    space = CoordinateSpace(coords)

    catalog = [f"s{i}" for i in range(draw(st.integers(2, 6)))]
    placement = {
        p: frozenset(rng.sample(catalog, rng.randint(1, len(catalog))))
        for p in proxies
    }
    overlay = OverlayNetwork(
        physical=_PHYSICAL, proxies=list(proxies), placement=placement, space=space
    )

    cluster_count = draw(st.integers(1, min(4, n)))
    labels = {}
    for i, p in enumerate(proxies):
        labels[p] = i if i < cluster_count else rng.randrange(cluster_count)
    clusters = [[] for _ in range(cluster_count)]
    for p in proxies:
        clusters[labels[p]].append(p)
    clustering = Clustering(clusters=[sorted(c) for c in clusters], labels=labels)
    hfc = build_hfc(overlay, clustering)

    requests = []
    for _ in range(draw(st.integers(1, 5))):
        length = rng.randint(1, 4)
        names = [rng.choice(catalog) for _ in range(length)]
        if rng.random() < 0.2:
            # a service nobody offers: the request must come back infeasible
            names[rng.randrange(length)] = "nowhere"
        if rng.random() < 0.25 and length >= 3:
            sg = branching_graph(chains=[[names[0]], [names[1]]], tail=names[2:])
        else:
            sg = linear_graph(names)
        src, dst = rng.sample(list(proxies), 2)
        requests.append(ServiceRequest(src, sg, dst))
    return hfc, requests


def _scalar_outcomes(router, requests):
    """(paths, errors) of a per-request route() loop."""
    paths, errors = [], []
    for request in requests:
        try:
            paths.append(router.route(request))
            errors.append(None)
        except NoFeasiblePathError as exc:
            paths.append(None)
            errors.append(exc)
    return paths, errors


def _assert_same_outcome(path, error, want_path, want_error):
    assert path == want_path
    assert (error is None) == (want_error is None)
    if error is not None:
        assert type(error) is type(want_error)
        assert str(error) == str(want_error)


def _assert_same_outcomes(result, expected_paths, expected_errors):
    assert len(result.paths) == len(result.errors) == len(expected_paths)
    for outcome in zip(result.paths, result.errors, expected_paths, expected_errors):
        _assert_same_outcome(*outcome)


# -- property: batch == scalar on arbitrary structures -------------------------


@settings(max_examples=30, deadline=None)
@given(batch_case())
def test_route_many_matches_scalar_loop(case):
    """Property: route_many == a scalar reference-relaxation loop, per method."""
    hfc, requests = case
    for method in METHODS:
        scalar = ReferenceCspRouter(hfc, method=method)
        batch = HierarchicalRouter(hfc, method=method)
        expected_paths, expected_errors = _scalar_outcomes(scalar, requests)
        result = batch.route_many_detailed(requests)
        _assert_same_outcomes(result, expected_paths, expected_errors)
        assert result.ok_count == sum(1 for p in expected_paths if p is not None)
        assert result.infeasible_count == sum(
            1 for e in expected_errors if e is not None
        )


@settings(max_examples=30, deadline=None)
@given(batch_case())
def test_vectorized_csp_matches_reference(case):
    """Property: the vectorized relaxation returns the reference's
    cluster-level paths."""
    hfc, requests = case
    vectorized = HierarchicalRouter(hfc)
    reference = ReferenceCspRouter(hfc)
    for request in requests:
        try:
            expected = reference.cluster_level_path(request)
        except NoFeasiblePathError as exc:
            with pytest.raises(NoFeasiblePathError) as caught:
                vectorized.cluster_level_path(request)
            assert str(caught.value) == str(exc)
            continue
        assert vectorized.cluster_level_path(request) == expected


# -- property: one pipeline behind every entry point, for every router ----------


def _qos_router(hfc):
    model = BandwidthModel(_PHYSICAL, seed=5)
    links = sorted(cluster_pair_bandwidth(hfc, model).values())
    # prune the thinnest ~30% of the cluster links (none on a 1-cluster overlay)
    return QoSHierarchicalRouter(hfc, model, links[len(links) * 3 // 10] if links else 0.0)


ROUTER_FACTORIES = {
    **{method: (lambda hfc, m=method: HierarchicalRouter(hfc, method=m)) for method in METHODS},
    "cached": lambda hfc: CachedHierarchicalRouter(hfc, cache_size=3),
    "recursive-3": lambda hfc: RecursiveRouter(build_levels(hfc, 3)),
    "recursive-4": lambda hfc: RecursiveRouter(build_levels(hfc, 4)),
    "centroid": CentroidAggregationRouter,
    "qos": _qos_router,
}


@pytest.mark.parametrize("make", ROUTER_FACTORIES.values(), ids=ROUTER_FACTORIES.keys())
@settings(max_examples=15, deadline=None)
@given(batch_case())
def test_single_request_is_the_batch_of_one(make, case):
    """Property: ``route(r)``, ``route_many_detailed([r])`` and r's slot in
    the mixed batch agree on the path or on the error's type and message;
    ``route_detailed(r)`` carries what the public stage methods return; a
    cache counts N single routes like the N batches of one."""
    hfc, requests = case
    single, ones, mixed, staged = make(hfc), make(hfc), make(hfc), make(hfc)
    batch = mixed.route_many_detailed(requests)
    assert len(batch) == len(requests)
    for idx, request in enumerate(requests):
        try:
            want_path, want_error = single.route(request), None
        except NoFeasiblePathError as exc:
            want_path, want_error = None, exc
        one = ones.route_many_detailed([request])
        assert len(one) == 1
        _assert_same_outcome(one.paths[0], one.errors[0], want_path, want_error)
        _assert_same_outcome(batch.paths[idx], batch.errors[idx], want_path, want_error)
        if want_error is not None:
            with pytest.raises(type(want_error)) as caught:
                staged.route_detailed(request)
            assert str(caught.value) == str(want_error)
            continue
        detailed = staged.route_detailed(request)
        assert detailed.path == want_path
        assert detailed.csp == staged.cluster_level_path(request)
        assert detailed.child_requests == staged.dissect(request, detailed.csp)
        assert detailed.child_paths == [
            staged.solve_child(request, child) for child in detailed.child_requests
        ]
        assert staged.compose(request, detailed.child_paths) == want_path
    if hasattr(single, "stats"):
        assert (single.stats.hits, single.stats.misses) == (
            ones.stats.hits,
            ones.stats.misses,
        )
        assert single.stats.hits + single.stats.misses > 0


# -- property: the staircase kernels against the scalar oracle, at their edges ---


class _ReferenceCentroid(CentroidAggregationRouter, ReferenceCspRouter):
    """The centroid view through the scalar pipeline."""


class _ReferenceQoS(QoSHierarchicalRouter, ReferenceCspRouter):
    """The bandwidth view and admission rule over the scalar pipeline."""


class _ReferenceRecursive(RecursiveRouter, ReferenceCspRouter):
    """Depth 3 through the scalar pipeline at both levels."""

    def _sub_router(self, group_id):
        if group_id not in self._sub_routers:
            sub = self.hierarchy.sub_hierarchy(group_id)
            self._sub_routers[group_id] = ReferenceCspRouter(sub.hfc, method=self.method)
        return self._sub_routers[group_id]


def _qos_pair(hfc, caps, threshold):
    model = BandwidthModel(_PHYSICAL, seed=5)
    if threshold is None:
        links = sorted(cluster_pair_bandwidth(hfc, model).values())
        threshold = links[len(links) * 3 // 10] if links else 0.0
    return tuple(
        cls(hfc, model, threshold, cluster_capabilities=caps)
        for cls in (QoSHierarchicalRouter, _ReferenceQoS)
    )


#: name -> (hfc, SCT_C) -> (production router, its scalar reference)
STAIRCASE_PAIRS = {
    "backtrack": lambda hfc, caps: (
        HierarchicalRouter(hfc, cluster_capabilities=caps),
        ReferenceCspRouter(hfc, cluster_capabilities=caps),
    ),
    "external": lambda hfc, caps: (
        HierarchicalRouter(hfc, method="external", cluster_capabilities=caps),
        ReferenceCspRouter(hfc, method="external", cluster_capabilities=caps),
    ),
    "cached": lambda hfc, caps: (
        CachedHierarchicalRouter(hfc, cache_size=3, cluster_capabilities=caps),
        ReferenceCspRouter(hfc, cluster_capabilities=caps),
    ),
    "recursive-3": lambda hfc, caps: (
        RecursiveRouter(build_levels(hfc, 3)),
        _ReferenceRecursive(build_levels(hfc, 3)),
    ),
    "centroid": lambda hfc, caps: (
        CentroidAggregationRouter(hfc, cluster_capabilities=caps),
        _ReferenceCentroid(hfc, cluster_capabilities=caps),
    ),
    "qos": lambda hfc, caps: _qos_pair(hfc, caps, None),
    # every cluster link pruned: each row that must leave its cluster ends
    # with all its last-slot lanes at inf
    "qos-all-pruned": lambda hfc, caps: _qos_pair(hfc, caps, float("inf")),
}


def _staircase_batch(hfc, rng):
    """Chains of every length 1..10, duplicate keys, a row a stale SCT_C
    sends to a cluster that cannot serve it and one no cluster offers (both
    mid-length, so they sit in the middle of the length order)."""
    proxies = list(hfc.overlay.proxies)
    catalog = sorted(set().union(*hfc.overlay.placement.values()))

    def request(names):
        src, dst = rng.sample(proxies, 2)
        return ServiceRequest(src, linear_graph(names), dst)

    requests = [
        request([rng.choice(catalog) for _ in range(length)])
        for length in range(1, 11)
        for _ in range(rng.randint(2, 5))
    ]
    for name in ("ghost", "nowhere"):
        names = [rng.choice(catalog) for _ in range(5)]
        names[rng.randrange(5)] = name
        requests.append(request(names))
    requests += rng.sample(requests, 6)
    rng.shuffle(requests)
    return requests


def _assert_same_resolution(got, want):
    assert type(got) is type(want)
    if isinstance(want, NoFeasiblePathError):
        assert str(got) == str(want)
        return
    assert got.csp == want.csp  # assignment and estimated_cost, bit for bit
    assert got.child_requests == want.child_requests
    assert got.child_paths == want.child_paths
    assert got.path == want.path


@pytest.mark.parametrize("make", STAIRCASE_PAIRS.values(), ids=STAIRCASE_PAIRS.keys())
@settings(max_examples=8, deadline=None)
@given(batch_case(), st.integers(0, 2**32 - 1))
def test_staircase_matches_scalar_oracle(make, case, seed):
    """Property: a mixed-length batch spanning several kernel blocks resolves
    slot for slot as the scalar oracle resolves it, in any order."""
    hfc, _ = case
    rng = random.Random(seed)
    requests = _staircase_batch(hfc, rng)
    # cluster 0 advertises a service none of its members hosts
    caps = HierarchicalRouter(hfc).cluster_capabilities
    caps[0] = caps[0] | {"ghost"}
    router, oracle = make(hfc, caps)
    want = oracle._resolve(requests)
    order = list(range(len(requests)))
    rng.shuffle(order)
    with mock.patch.object(batch_module, "_BLOCK_ROWS", 16):
        got = router._resolve(requests)
        permuted = router._resolve([requests[i] for i in order])
    assert len(got) == len(permuted) == len(requests)
    for idx, outcome in enumerate(got):
        _assert_same_resolution(outcome, want[idx])
    for at, idx in enumerate(order):
        _assert_same_resolution(permuted[at], want[idx])


# -- framework wiring ----------------------------------------------------------


def _workload(framework, count=25, infeasible=False):
    requests = [framework.random_request(seed=seed) for seed in range(count)]
    if infeasible:
        src, dst = framework.overlay.proxies[:2]
        requests.insert(
            3, ServiceRequest(src, linear_graph(["no-such-service"]), dst)
        )
    return requests


def test_route_many_matches_route_on_framework(framework):
    requests = _workload(framework)
    router = framework.hierarchical_router()
    expected = [framework.hierarchical_router().route(r) for r in requests]
    assert router.route_many(requests) == expected


def test_route_many_empty_batch(framework):
    router = framework.hierarchical_router()
    assert router.route_many([]) == []
    detailed = router.route_many_detailed([])
    assert len(detailed) == 0
    assert detailed.ok_count == detailed.infeasible_count == 0


def test_route_many_raises_like_route(framework):
    requests = _workload(framework, count=8, infeasible=True)
    router = framework.hierarchical_router()
    with pytest.raises(NoFeasiblePathError) as scalar_err:
        for request in requests:
            router.route(request)
    with pytest.raises(NoFeasiblePathError) as batch_err:
        router.route_many(requests)
    assert str(batch_err.value) == str(scalar_err.value)

    detailed = router.route_many_detailed(requests)
    assert detailed.infeasible_count == 1
    assert detailed.paths[3] is None  # the inserted infeasible request
    assert detailed.ok_count == len(requests) - 1
    with pytest.raises(NoFeasiblePathError):
        detailed.raise_first()


def test_cached_router_batch_reuse(framework):
    requests = _workload(framework)
    plain = framework.hierarchical_router()
    cached = framework.cached_hierarchical_router()
    first = cached.route_many(requests)
    assert first == plain.route_many(requests)
    misses = cached.stats.misses
    hits_before = cached.stats.hits
    # the second pass replays every CSP from the cache
    assert cached.route_many(requests) == first
    assert cached.stats.misses == misses
    assert cached.stats.hits > hits_before


def test_flat_route_many_matches_loop(framework):
    for router in (framework.flat_router(), framework.full_state_router()):
        requests = _workload(framework, count=15)
        expected_paths, expected_errors = _scalar_outcomes(router, requests)
        result = router.route_many_detailed(requests)
        _assert_same_outcomes(result, expected_paths, expected_errors)


def test_resolve_requests_dispatch(framework):
    requests = _workload(framework, count=10)
    batched = resolve_requests(framework.hierarchical_router(), requests)
    assert isinstance(batched, BatchRouteResult)
    assert batched.ok_count == len(requests)

    # mesh has no route_many: resolve_requests falls back to a scalar loop
    mesh = framework.mesh_router(seed=3)
    fallback = resolve_requests(mesh, requests)
    assert isinstance(fallback, BatchRouteResult)
    expected_paths, expected_errors = _scalar_outcomes(mesh, requests)
    _assert_same_outcomes(fallback, expected_paths, expected_errors)


def test_route_many_telemetry_counters(framework):
    telemetry = Telemetry()
    requests = _workload(framework, count=6, infeasible=True)
    router = HierarchicalRouter(framework.hfc, telemetry=telemetry)
    result = router.route_many_detailed(requests)
    registry = telemetry.registry
    assert registry.counter("routing.batch.batches", router="hierarchical").value == 1
    assert registry.counter(
        "routing.batch.requests", router="hierarchical"
    ).value == len(requests)
    assert registry.counter(
        "routing.requests", router="hierarchical", outcome="ok"
    ).value == result.ok_count
    assert registry.counter(
        "routing.requests", router="hierarchical", outcome="infeasible"
    ).value == result.infeasible_count == 1

    # a single route is one more pipeline run: a batch of size 1, its request
    # counted once under its outcome
    for request, outcome in ((requests[0], "ok"), (requests[3], "infeasible")):
        before = registry.counter(
            "routing.requests", router="hierarchical", outcome=outcome
        ).value
        try:
            router.route(request)
        except NoFeasiblePathError:
            assert outcome == "infeasible"
        assert registry.counter(
            "routing.requests", router="hierarchical", outcome=outcome
        ).value == before + 1
    assert registry.counter("routing.batch.batches", router="hierarchical").value == 3
    assert registry.counter(
        "routing.batch.requests", router="hierarchical"
    ).value == len(requests) + 2
    sizes = registry.get("routing.batch.size", router="hierarchical")
    assert (sizes.count, sizes.min, sizes.max) == (3, 1, len(requests))


# -- provider block memoization ------------------------------------------------


def test_coordinate_provider_memoizes_blocks(framework):
    provider = CoordinateProvider(framework.hfc.space)
    us = framework.overlay.proxies[:5]
    vs = framework.overlay.proxies[5:9]
    first = provider.block(us, vs)
    assert provider.block(us, vs) is first  # served from the memo

    plain = CoordinateProvider(framework.hfc.space, memoize=False)
    again = plain.block(us, vs)
    assert again is not plain.block(us, vs)
    assert np.array_equal(first, again)


def test_coordinate_provider_memo_drops_on_new_space(framework):
    provider = CoordinateProvider(framework.hfc.space)
    us = framework.overlay.proxies[:4]
    first = provider.block(us, us)
    # a replaced space object no longer matches the memo token
    provider.space = CoordinateSpace(
        {p: framework.hfc.space.coordinate(p) for p in framework.overlay.proxies}
    )
    second = provider.block(us, us)
    assert second is not first
    assert np.array_equal(first, second)


def test_true_delay_provider_memoizes_blocks(framework):
    provider = TrueDelayProvider(framework.overlay)
    us = framework.overlay.proxies[:6]
    vs = framework.overlay.proxies[2:7]
    first = provider.block(us, vs)
    assert provider.block(us, vs) is first
    assert np.array_equal(
        first, TrueDelayProvider(framework.overlay, memoize=False).block(us, vs)
    )


def test_true_delay_memo_no_thrash_with_cached_matrix(framework):
    """The overlay's cached matrix is one stable token: repeated block
    queries must be memo hits, never silent rebuild-and-replace."""
    provider = TrueDelayProvider(framework.overlay)
    us = framework.overlay.proxies[:6]
    vs = framework.overlay.proxies[6:10]
    blocks = [provider.block(us, vs) for _ in range(5)]
    assert all(b is blocks[0] for b in blocks)
    assert len(provider._memo) == 1  # one key, not five rebuilt entries


def test_true_delay_memo_drops_on_rebuilt_matrix(framework):
    provider = TrueDelayProvider(framework.overlay)
    us = framework.overlay.proxies[:4]
    first = provider.block(us, us)
    # force the overlay to re-materialise its delay matrix: a new array
    # object is a new token, so the memo must drop the old blocks
    framework.overlay._true_matrix = framework.overlay.true_delay_matrix().copy()
    second = provider.block(us, us)
    assert second is not first
    assert np.array_equal(first, second)
    assert provider.block(us, us) is second  # re-anchored on the new token


def test_block_memo_alternating_tokens_never_cross_serve():
    """A token flip clears the memo outright: entries stored under token A
    must never be served under token B, nor resurrected when A returns."""
    from repro.routing.providers import _BlockMemo

    memo = _BlockMemo(capacity=8)
    token_a, token_b = object(), object()
    key = (("u",), ("v",))
    block_a = np.arange(4.0).reshape(2, 2)
    block_b = block_a * 10.0

    assert memo.lookup(token_a, key) is None
    memo.store(key, block_a)
    assert memo.lookup(token_a, key) is block_a

    assert memo.lookup(token_b, key) is None  # token flip: cleared
    memo.store(key, block_b)
    assert memo.lookup(token_b, key) is block_b

    # flipping back to A must NOT serve block_b (or a stale block_a)
    assert memo.lookup(token_a, key) is None
    assert len(memo) == 0
