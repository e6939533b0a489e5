"""Batched query engine: equivalence and plumbing tests.

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
from itertools import islice
from unittest import mock

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
from repro.services import ServiceRequest, linear_graph
from repro.services.graph import branching_graph
from repro.telemetry import Telemetry
from repro.util.errors import NoFeasiblePathError
from tests.oracles.csp import ReferenceCspRouter, router_for
from tests.oracles.padded import PaddedCspRouter

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
        scalar = router_for(hfc, method, reference=True)
        batch = router_for(hfc, method)
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
    **{method: (lambda hfc, m=method: router_for(hfc, m)) for method in METHODS},
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


# -- property: the chain kernels against the scalar oracle, at their edges -------


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
    """Property: a mixed-length batch spanning several kernel chunks resolves
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
    with mock.patch.object(batch_module, "_CHUNK_TRIPLES", 48):
        got = router._resolve(requests)
        permuted = router._resolve([requests[i] for i in order])
    assert len(got) == len(permuted) == len(requests)
    for idx, outcome in enumerate(got):
        _assert_same_resolution(outcome, want[idx])
    for at, idx in enumerate(order):
        _assert_same_resolution(permuted[at], want[idx])


# -- property: the ragged layout against the padded one and the scalar oracle ---


@st.composite
def lattice_case(draw):
    """An overlay on a 4 x 4 integer lattice, where equal costs are everywhere
    and the first occurrence decides every tie. Cluster 0 is one proxy
    offering every service, so each of its borders is that proxy: a path
    through it enters and leaves by the same border. Most other proxies
    offer one service, so one-candidate slots are common."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    proxies = _PHYSICAL.graph.nodes()[: draw(st.integers(6, 16))]
    space = CoordinateSpace(
        {p: (float(rng.randrange(4)), float(rng.randrange(4))) for p in proxies}
    )
    catalog = ["s0", "s1", "s2", "s3"]
    placement = {p: frozenset(rng.sample(catalog, rng.choice((1, 1, 2)))) for p in proxies}
    placement[proxies[0]] = frozenset(catalog)
    overlay = OverlayNetwork(
        physical=_PHYSICAL, proxies=list(proxies), placement=placement, space=space
    )
    count = draw(st.integers(2, 5))
    labels = {p: i if i < count else rng.randrange(1, count) for i, p in enumerate(proxies)}
    clusters = [sorted(p for p in proxies if labels[p] == c) for c in range(count)]
    return build_hfc(overlay, Clustering(clusters=clusters, labels=labels))


def _lattice_batch(hfc, rng):
    """Many chains of length 1, some up to 6, duplicate keys, a "ghost" row
    (its conquer slot has no candidate) and a "nowhere" row; and branching
    rows: live ones, one with a dead branch and one with every branch dead."""
    proxies = list(hfc.overlay.proxies)
    catalog = sorted(set().union(*hfc.overlay.placement.values()))

    def request(names, heads=None):
        src, dst = rng.sample(proxies, 2)
        if heads is None:
            return ServiceRequest(src, linear_graph(names), dst)
        return ServiceRequest(src, branching_graph(chains=heads, tail=names), dst)

    requests = [
        request([rng.choice(catalog) for _ in range(length)])
        for length in (1, 1, 1, 2, 3, 4, 6)
        for _ in range(rng.randint(1, 4))
    ]
    for name in ("ghost", "nowhere"):
        requests.append(request([rng.choice(catalog), name, rng.choice(catalog)]))
    pick = lambda count: [rng.choice(catalog) for _ in range(count)]  # noqa: E731
    requests += [request(pick(rng.randint(1, 2)), [pick(1), pick(2)]) for _ in range(3)]
    requests.append(request(pick(2), [["nowhere"], pick(1), pick(2)]))
    requests.append(request(pick(1), [["nowhere"], [rng.choice(catalog), "nowhere"]]))
    requests += rng.sample(requests, 4)
    rng.shuffle(requests)
    return requests


@pytest.mark.parametrize("method", ["backtrack", "external"])
@settings(max_examples=20, deadline=None)
@given(lattice_case(), st.integers(0, 2**32 - 1), st.sampled_from([1, 5, 40, 32768]))
def test_ragged_matches_padded_and_scalar(method, hfc, seed, budget):
    """Property: the ragged kernel, the padded one it replaced and the
    scalar pipeline resolve a batch identically — ties, one-candidate slots,
    length-1 chains, all-inf rows, entry-equals-exit borders and branching
    rows with dead branches included — however small the chunk budget. The
    padded kernel has chains only, so branching rows skip it."""
    requests = _lattice_batch(hfc, random.Random(seed))
    caps = HierarchicalRouter(hfc).cluster_capabilities
    caps[0] = caps[0] | {"ghost"}
    telemetry = Telemetry()
    ragged = HierarchicalRouter(hfc, method=method, cluster_capabilities=caps, telemetry=telemetry)
    padded = PaddedCspRouter(hfc, method=method, cluster_capabilities=caps)
    want = ReferenceCspRouter(hfc, method=method, cluster_capabilities=caps)._resolve(requests)
    with mock.patch.object(batch_module, "_CHUNK_TRIPLES", budget):
        got = ragged._resolve(requests)
    for outcome, expected in zip(got, want):
        _assert_same_resolution(outcome, expected)
    chains = [at for at, request in enumerate(requests) if request.service_graph.is_linear]
    for at, padded_outcome in zip(chains, padded._resolve([requests[at] for at in chains])):
        _assert_same_resolution(padded_outcome, want[at])
    (root,) = telemetry.tracer.find_roots("route")
    csp = root.children[0]
    if budget == 1 and csp.attributes["relaxed"] > 1:
        assert csp.attributes["chunks"] > 1


def test_kernel_spans_count_real_triples(framework):
    """``route.csp`` / ``route.conquer`` say how many real (row, predecessor,
    candidate) triples their kernel relaxed, and in how many chunks."""
    hfc = framework.hfc
    requests = [r for r in _workload(framework, count=60) if r.service_graph.is_linear]
    telemetry = Telemetry()
    router = HierarchicalRouter(hfc, telemetry=telemetry)
    with mock.patch.object(batch_module, "_CHUNK_TRIPLES", 64):
        results = router._resolve(requests)

    def triples(widths):
        return sum(a * b for a, b in zip(widths, widths[1:]))

    rows = {}
    for request in requests:
        sg = request.service_graph
        key = (sg.signature, hfc.cluster_of(request.source_proxy), request.destination_proxy)
        candidates = router.cluster_candidates(sg)
        rows[key] = triples([len(candidates[slot]) for slot in sg.topological_order()])
    children = [child for result in results for child in result.child_requests]
    # the call's candidates, slot by slot: each child takes its slots' share
    flat = iter(batch_module.child_specs(hfc, children))
    # a child with one candidate per slot has nothing to relax
    conquered = sum(
        triples([len(slot) for slot in cands])
        for cands in (tuple(islice(flat, len(child.slots))) for child in children)
        if all(cands) and any(len(slot) > 1 for slot in cands)
    )
    (root,) = telemetry.tracer.find_roots("route")
    csp, _, conquer, _ = root.children
    assert csp.attributes["relaxed"] == sum(rows.values()) > 64
    assert conquer.attributes["relaxed"] == conquered
    assert csp.attributes["chunks"] > 1
    assert conquer.attributes["chunks"] >= 1


# -- framework wiring ----------------------------------------------------------


def _workload(framework, count=25, infeasible=False):
    requests = [framework.random_request(seed=seed) for seed in range(count)]
    if infeasible:
        src, dst = framework.overlay.proxies[:2]
        requests.insert(
            3, ServiceRequest(src, linear_graph(["no-such-service"]), dst)
        )
    return requests


def test_provider_index_rebuilds_only_what_moved(framework):
    """Cost guard, counted rather than timed: on a fixed overlay a second call
    touching the same clusters rebuilds no provider index and walks no
    members; rewriting one proxy's services as ``crash_restart_plan`` does
    rebuilds that proxy's cluster and no other, and so does restoring them."""
    hfc = framework.hfc
    requests = _workload(framework, count=40)
    router = framework.hierarchical_router()
    first = router.route_many_detailed(requests)
    cache = hfc._providers_cache

    def rebuilt():
        before = {cluster: (entry, len(entry[2])) for cluster, entry in cache.items()}
        router.rebind(hfc)
        paths = router.route_many_detailed(requests).paths
        moved = sorted(c for c, entry in cache.items() if before.get(c, (None,))[0] is not entry)
        grown = [c for c, entry in cache.items() if c not in moved and len(entry[2]) != before[c][1]]
        return paths, moved, grown

    assert rebuilt() == (first.paths, [], [])
    served = sorted({
        child.cluster
        for request in requests
        for child in router.route_detailed(request).child_requests
        if child.services
    })
    victim = hfc.members(served[0])[0]
    placement = hfc.overlay.placement
    before, services = placement[victim], sorted(placement[victim])
    try:
        placement[victim] = frozenset(services[:-1]) if len(services) > 1 else frozenset({"zzz"})
        assert rebuilt()[1:] == ([served[0]], [])
    finally:
        placement[victim] = before
    assert rebuilt() == (first.paths, [served[0]], [])


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
