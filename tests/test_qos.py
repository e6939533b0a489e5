"""Tests for the bandwidth-QoS extension."""

import pytest

from repro.qos import (
    BandwidthAwareProvider,
    BandwidthModel,
    QoSHierarchicalRouter,
    cluster_pair_bandwidth,
    intra_cluster_bandwidth_stats,
    qos_flat_router,
)
from repro.routing import CoordinateProvider, validate_path
from repro.util.errors import NoFeasiblePathError, RoutingError
from repro.util.rng import ensure_rng

import numpy as np


@pytest.fixture(scope="module")
def model(framework):
    return BandwidthModel(framework.physical, seed=4)


class TestBandwidthModel:
    def test_every_physical_link_has_capacity(self, framework, model):
        for u, v, _ in framework.physical.graph.edges():
            assert model.link_capacity(u, v) > 0

    def test_capacities_drawn_in_graph_edge_order(self, framework, model):
        """The model reads the edge columns, but draws link by link in the
        order ``Graph.edges()`` lists them — what it iterated before — so a
        seed keeps giving every link the same capacity."""
        rng = ensure_rng(4)
        kinds = framework.physical.topology.node_kind
        for u, v, _ in framework.physical.graph.edges():
            core = kinds[u] == "transit" and kinds[v] == "transit"
            expected = rng.uniform(*((155.0, 1000.0) if core else (10.0, 100.0)))
            assert model.link_capacity(u, v) == expected

    def test_capacity_symmetric_lookup(self, framework, model):
        u, v, _ = next(framework.physical.graph.edges())
        assert model.link_capacity(u, v) == model.link_capacity(v, u)

    def test_missing_link_raises(self, framework, model):
        nodes = framework.physical.graph.nodes()
        non_adjacent = None
        for a in nodes:
            for b in nodes:
                if a != b and not framework.physical.graph.has_edge(a, b):
                    non_adjacent = (a, b)
                    break
            if non_adjacent:
                break
        with pytest.raises(RoutingError):
            model.link_capacity(*non_adjacent)

    def test_transit_links_fatter_on_average(self, framework, model):
        kinds = framework.physical.topology.node_kind
        transit, stub = [], []
        for u, v, _ in framework.physical.graph.edges():
            cap = model.link_capacity(u, v)
            if kinds[u] == "transit" and kinds[v] == "transit":
                transit.append(cap)
            else:
                stub.append(cap)
        assert np.mean(transit) > np.mean(stub)

    def test_overlay_bandwidth_is_bottleneck(self, framework, model):
        u, v = framework.overlay.proxies[:2]
        route = framework.physical.route(u, v)
        expected = min(
            model.link_capacity(a, b) for a, b in zip(route, route[1:])
        )
        assert model.overlay_bandwidth(u, v) == pytest.approx(expected)

    def test_self_bandwidth_infinite(self, framework, model):
        p = framework.overlay.proxies[0]
        assert model.overlay_bandwidth(p, p) == float("inf")

    def test_path_bandwidth_min_of_hops(self, framework, model):
        p = framework.overlay.proxies[:3]
        expected = min(
            model.overlay_bandwidth(p[0], p[1]), model.overlay_bandwidth(p[1], p[2])
        )
        assert model.path_bandwidth(p) == pytest.approx(expected)

    def test_bad_ranges_rejected(self, framework):
        with pytest.raises(RoutingError):
            BandwidthModel(framework.physical, stub_range=(0.0, 5.0))


class TestBandwidthAwareProvider:
    def test_masks_thin_links(self, framework, model):
        base = CoordinateProvider(framework.space)
        provider = BandwidthAwareProvider(base, model, min_bandwidth=1e9)
        u, v = framework.overlay.proxies[:2]
        assert provider.pair(u, v) == float("inf")

    def test_zero_requirement_passthrough(self, framework, model):
        base = CoordinateProvider(framework.space)
        provider = BandwidthAwareProvider(base, model, min_bandwidth=0.0)
        u, v = framework.overlay.proxies[:2]
        assert provider.pair(u, v) == pytest.approx(base.pair(u, v))

    def test_block_matches_pair(self, framework, model):
        """The kernel's elementwise ``pairs`` over every pair of a block."""
        base = CoordinateProvider(framework.space)
        provider = BandwidthAwareProvider(base, model, min_bandwidth=30.0)
        proxies = framework.overlay.proxies[:6]
        us, vs = zip(*[(u, v) for u in proxies for v in proxies])
        got = provider.pairs(provider.points(us), provider.points(vs))
        for u, v, distance in zip(us, vs, got):
            expected = provider.pair(u, v)
            if np.isinf(expected):
                assert np.isinf(distance)
            else:
                assert distance == pytest.approx(expected)

    def test_negative_requirement_rejected(self, framework, model):
        with pytest.raises(RoutingError):
            BandwidthAwareProvider(
                CoordinateProvider(framework.space), model, min_bandwidth=-1.0
            )


class TestQoSRouting:
    def test_flat_paths_respect_floor(self, framework, model):
        router = qos_flat_router(framework.overlay, model, min_bandwidth=15.0)
        satisfied = 0
        for seed in range(10):
            request = framework.random_request(seed=seed)
            try:
                path = router.route(request)
            except NoFeasiblePathError:
                continue
            satisfied += 1
            validate_path(path, request, framework.overlay)
            assert model.path_bandwidth(path.proxies()) >= 15.0
        assert satisfied > 0

    def test_hierarchical_paths_respect_floor(self, framework, model):
        router = QoSHierarchicalRouter(framework.hfc, model, min_bandwidth=15.0)
        satisfied = 0
        for seed in range(10):
            request = framework.random_request(seed=seed)
            try:
                path = router.route(request)
            except NoFeasiblePathError:
                continue
            satisfied += 1
            validate_path(path, request, framework.overlay)
            assert model.path_bandwidth(path.proxies()) >= 15.0
        assert satisfied > 0

    def _floor(self, framework, model):
        """The 30th percentile of the border-link bandwidths: prunes some
        cluster transitions, keeps most."""
        values = sorted(cluster_pair_bandwidth(framework.hfc, model).values())
        return values[len(values) * 3 // 10]

    def test_view_is_relaxed_over_its_own_tables(self, framework, model):
        """The pruning view must never be served the wrapped topology's
        cached query tables (it was, through ``__getattr__``, on every
        columnar-attached topology: pruned links stayed finite in the
        relaxation and the request died later, in conquer)."""
        from repro.routing import HierarchicalRouter, query_tables

        HierarchicalRouter(framework.hfc).route(framework.random_request(seed=1))
        assert query_tables(framework.hfc) is not None  # cached on the topology
        router = QoSHierarchicalRouter(
            framework.hfc, model, self._floor(framework, model)
        )
        view = router.cluster_view
        tables = query_tables(view)
        k = view.cluster_count
        pruned = 0
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert tables.ext[i, j] == view.external_estimate(i, j)
                    pruned += np.isinf(tables.ext[i, j])
        assert 0 < pruned < k * (k - 1)
        # no CSP crosses a pruned link any more
        for seed in range(40):
            try:
                csp = router.cluster_level_path(framework.random_request(seed=seed))
            except NoFeasiblePathError:
                continue
            sequence = [csp.source_cluster, *csp.cluster_sequence(), csp.destination_cluster]
            for a, b in zip(sequence, sequence[1:]):
                assert a == b or np.isfinite(view.external_estimate(a, b))

    def test_rebind_keeps_view_and_masking_provider(self, framework, model):
        """rebind() used to drop both the pruning view and the
        bandwidth-aware provider."""
        floor = self._floor(framework, model)
        requests = [framework.random_request(seed=s) for s in range(30)]
        fresh = QoSHierarchicalRouter(framework.hfc, model, floor)
        rebound = QoSHierarchicalRouter(framework.hfc, model, floor)
        rebound.rebind(framework.hfc)
        got = rebound.route_many_detailed(requests)
        want = fresh.route_many_detailed(requests)
        assert 0 < want.infeasible_count < len(requests)
        assert got.paths == want.paths
        assert [str(e) for e in got.errors] == [str(e) for e in want.errors]
        assert type(rebound.cluster_view) is type(fresh.cluster_view)
        assert isinstance(rebound._provider, BandwidthAwareProvider)
        assert rebound._provider.min_bandwidth == floor

    def test_impossible_floor_raises(self, framework, model):
        router = QoSHierarchicalRouter(framework.hfc, model, min_bandwidth=1e12)
        with pytest.raises(NoFeasiblePathError):
            router.route(framework.random_request(seed=1))

    def test_tighter_floor_never_shortens_paths(self, framework, model):
        """Feasible sets shrink monotonically with the requirement."""
        loose = qos_flat_router(framework.overlay, model, min_bandwidth=0.0)
        tight = qos_flat_router(framework.overlay, model, min_bandwidth=25.0)
        overlay = framework.overlay
        for seed in range(8):
            request = framework.random_request(seed=seed)
            loose_est = loose.route(request).estimated_length(overlay)
            try:
                tight_est = tight.route(request).estimated_length(overlay)
            except NoFeasiblePathError:
                continue
            assert tight_est >= loose_est - 1e-9


class TestAggregates:
    def test_cluster_pair_bandwidth_keys(self, framework, model):
        pairs = cluster_pair_bandwidth(framework.hfc, model)
        k = framework.hfc.cluster_count
        assert len(pairs) == k * (k - 1) // 2
        for (i, j), bw in pairs.items():
            assert i < j
            assert bw > 0

    def test_cluster_pair_bandwidth_matches_border_link(self, framework, model):
        pairs = cluster_pair_bandwidth(framework.hfc, model)
        (i, j), bw = next(iter(pairs.items()))
        u = framework.hfc.border(i, j)
        v = framework.hfc.border(j, i)
        assert bw == pytest.approx(model.overlay_bandwidth(u, v))

    def test_intra_cluster_stats(self, framework, model):
        stats = intra_cluster_bandwidth_stats(framework.hfc, model, 0)
        assert stats["min"] <= stats["mean"] <= stats["max"]
