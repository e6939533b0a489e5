"""Tests for OverlayNetwork, the mesh baseline, and the HFC topology."""

import numpy as np
import pytest

from repro.graph import is_connected
from repro.overlay import OverlayNetwork, build_mesh, mesh_statistics
from repro.services import generic_catalog, install_services
from repro.util.errors import ServiceModelError, TopologyError


@pytest.fixture(scope="module")
def overlay(framework):
    return framework.overlay


class TestOverlayNetwork:
    def test_size(self, overlay):
        assert overlay.size == 80

    def test_index_roundtrip(self, overlay):
        for i, proxy in enumerate(overlay.proxies):
            assert overlay.index_of(proxy) == i

    def test_unknown_proxy_raises(self, overlay):
        with pytest.raises(TopologyError):
            overlay.index_of(-12345)

    def test_services_of(self, overlay):
        proxy = overlay.proxies[0]
        assert overlay.services_of(proxy) == overlay.placement[proxy]

    def test_providers_of_consistent(self, overlay):
        service = next(iter(overlay.placement[overlay.proxies[0]]))
        providers = overlay.providers_of(service)
        assert overlay.proxies[0] in providers
        for p in providers:
            assert service in overlay.placement[p]

    def test_true_delay_matrix_cached_and_symmetric(self, overlay):
        m1 = overlay.true_delay_matrix()
        m2 = overlay.true_delay_matrix()
        assert m1 is m2
        assert np.allclose(m1, m1.T)

    def test_missing_placement_rejected(self, small_physical):
        proxies = small_physical.pick_overlay_nodes(5, seed=1)
        with pytest.raises(ServiceModelError):
            OverlayNetwork(physical=small_physical, proxies=proxies, placement={})

    def test_duplicate_proxies_rejected(self, small_physical):
        proxies = small_physical.pick_overlay_nodes(3, seed=1)
        placement = install_services(proxies, generic_catalog(10),
                                     min_per_proxy=1, max_per_proxy=2, seed=2)
        with pytest.raises(TopologyError):
            OverlayNetwork(
                physical=small_physical,
                proxies=proxies + [proxies[0]],
                placement=placement,
            )

    def test_coordinate_distance_requires_space(self, small_physical):
        proxies = small_physical.pick_overlay_nodes(3, seed=1)
        placement = install_services(proxies, generic_catalog(10),
                                     min_per_proxy=1, max_per_proxy=2, seed=2)
        bare = OverlayNetwork(
            physical=small_physical, proxies=proxies, placement=placement
        )
        with pytest.raises(TopologyError):
            bare.coordinate_distance(proxies[0], proxies[1])


class TestMesh:
    def test_connected(self, overlay):
        mesh = build_mesh(overlay, seed=1)
        assert is_connected(mesh)

    def test_every_proxy_present(self, overlay):
        mesh = build_mesh(overlay, seed=1)
        assert set(mesh.nodes()) == set(overlay.proxies)

    def test_degrees_bounded_below(self, overlay):
        mesh = build_mesh(overlay, seed=1)
        # every proxy initiated at least near_min + far_min links
        for node in mesh.nodes():
            assert mesh.degree(node) >= 2

    def test_true_weights_match_delays(self, overlay):
        mesh = build_mesh(overlay, weight="true", seed=1)
        for u, v, w in mesh.edges():
            assert w == pytest.approx(overlay.true_delay(u, v))

    def test_coords_weights_match_space(self, overlay):
        mesh = build_mesh(overlay, weight="coords", seed=1)
        for u, v, w in mesh.edges():
            assert w == pytest.approx(overlay.coordinate_distance(u, v))

    def test_bad_weight_rejected(self, overlay):
        with pytest.raises(TopologyError):
            build_mesh(overlay, weight="guess")

    def test_bad_bounds_rejected(self, overlay):
        with pytest.raises(TopologyError):
            build_mesh(overlay, near_min=0, near_max=0)

    def test_deterministic_for_seed(self, overlay):
        a = build_mesh(overlay, seed=9)
        b = build_mesh(overlay, seed=9)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_statistics_keys(self, overlay):
        stats = mesh_statistics(build_mesh(overlay, seed=1))
        assert stats["nodes"] == overlay.size
        assert stats["degree_min"] >= 1
        assert stats["degree_mean"] > 2


class TestHFCTopology:
    def test_border_pairs_exist_for_all_cluster_pairs(self, framework):
        hfc = framework.hfc
        k = hfc.cluster_count
        for i in range(k):
            for j in range(k):
                if i != j:
                    b = hfc.border(i, j)
                    assert hfc.cluster_of(b) == i

    def test_border_symmetric_pairs(self, framework):
        hfc = framework.hfc
        k = hfc.cluster_count
        for i in range(k):
            for j in range(i + 1, k):
                assert hfc.external_estimate(i, j) == pytest.approx(
                    hfc.external_estimate(j, i)
                )

    def test_self_border_rejected(self, framework):
        with pytest.raises(TopologyError):
            framework.hfc.border(0, 0)

    def test_closest_pair_rule(self, framework):
        """The border pair must realise the minimum cross-cluster distance."""
        hfc = framework.hfc
        space = hfc.space
        for i in range(min(3, hfc.cluster_count)):
            for j in range(i + 1, min(4, hfc.cluster_count)):
                best = min(
                    space.distance(u, v)
                    for u in hfc.members(i)
                    for v in hfc.members(j)
                )
                assert hfc.external_estimate(i, j) == pytest.approx(best)

    def test_overlay_graph_two_hop_property(self, framework):
        """In HFC any two proxies are connected; intra-cluster pairs directly."""
        graph = framework.hfc.overlay_graph("coords")
        assert is_connected(graph)
        clustering = framework.clustering
        for members in clustering.clusters[:3]:
            for a_idx, u in enumerate(members):
                for v in members[a_idx + 1:]:
                    assert graph.has_edge(u, v)

    def test_overlay_graph_true_weights(self, framework):
        graph = framework.hfc.overlay_graph("true")
        u, v, w = next(graph.edges())
        assert w == pytest.approx(framework.overlay.true_delay(u, v))

    def test_overlay_graph_bad_weight(self, framework):
        with pytest.raises(TopologyError):
            framework.hfc.overlay_graph("estimated")

    def test_border_load_counts(self, framework):
        hfc = framework.hfc
        load = hfc.border_load()
        k = hfc.cluster_count
        assert sum(load.values()) == k * (k - 1)
        assert max(load.values()) <= k - 1

    def test_routing_matrices_properties(self, framework):
        route, true = framework.hfc.routing_matrices()
        n = framework.overlay.size
        assert route.shape == true.shape == (n, n)
        assert np.isfinite(route).all() and np.isfinite(true).all()
        assert np.all(np.diag(route) == 0) and np.all(np.diag(true) == 0)
        # true companion can never beat the physical shortest path
        physical = framework.overlay.true_delay_matrix()
        assert np.all(true >= physical - 1e-9)

    def test_routing_matrix_intra_cluster_is_direct(self, framework):
        route, true = framework.hfc.routing_matrices()
        overlay = framework.overlay
        members = framework.clustering.clusters[0]
        if len(members) >= 2:
            u, v = members[0], members[1]
            i, j = overlay.index_of(u), overlay.index_of(v)
            assert route[i, j] == pytest.approx(framework.space.distance(u, v))
            assert true[i, j] == pytest.approx(overlay.true_delay(u, v))

    def test_expand_hop_endpoints(self, framework):
        hfc = framework.hfc
        members0 = hfc.members(0)
        members1 = hfc.members(1)
        chain = hfc.expand_hop(members0[0], members1[0])
        assert chain[0] == members0[0]
        assert chain[-1] == members1[0]
        assert len(chain) >= 2

    def test_expand_hop_same_cluster_direct(self, framework):
        members = framework.hfc.members(0)
        if len(members) >= 2:
            assert framework.hfc.expand_hop(members[0], members[1]) == [
                members[0],
                members[1],
            ]

    def test_expand_hop_self(self, framework):
        proxy = framework.overlay.proxies[0]
        assert framework.hfc.expand_hop(proxy, proxy) == [proxy]


class TestGabrielMesh:
    def test_connected_by_construction(self, overlay):
        from repro.overlay import build_gabriel_mesh

        mesh = build_gabriel_mesh(overlay)
        assert is_connected(mesh)

    def test_contains_euclidean_mst(self, overlay):
        """The Gabriel graph is a supergraph of the EMST."""
        from repro.graph import euclidean_mst
        from repro.overlay import build_gabriel_mesh

        mesh = build_gabriel_mesh(overlay)
        points = overlay.space.array(overlay.proxies)
        for i, j, _ in euclidean_mst(points):
            assert mesh.has_edge(overlay.proxies[i], overlay.proxies[j])

    def test_gabriel_condition_holds(self, overlay):
        """No third proxy lies inside any edge's diameter circle."""

        from repro.overlay import build_gabriel_mesh

        mesh = build_gabriel_mesh(overlay)
        space = overlay.space
        edges = list(mesh.edges())[:40]
        for u, v, _ in edges:
            duv_sq = space.distance(u, v) ** 2
            for w in overlay.proxies:
                if w in (u, v):
                    continue
                inside = (
                    space.distance(u, w) ** 2 + space.distance(v, w) ** 2
                    < duv_sq - 1e-9
                )
                assert not inside

    def test_deterministic(self, overlay):
        from repro.overlay import build_gabriel_mesh

        a = build_gabriel_mesh(overlay)
        b = build_gabriel_mesh(overlay)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_routable(self, framework):
        from repro.overlay import build_gabriel_mesh
        from repro.routing import MeshRouter, validate_path

        mesh = build_gabriel_mesh(framework.overlay)
        router = MeshRouter(framework.overlay, mesh)
        for seed in range(5):
            request = framework.random_request(seed=seed)
            validate_path(router.route(request), request, framework.overlay)


class TestRoutingMatricesCorrectness:
    def test_route_matrix_equals_dijkstra_on_overlay_graph(self, framework):
        """The vectorised min-plus pipeline must agree with plain Dijkstra
        over the explicit coordinate-weighted HFC overlay graph."""
        import random

        from repro.graph.shortest_paths import dijkstra

        route, _ = framework.hfc.routing_matrices()
        graph = framework.hfc.overlay_graph("coords")
        overlay = framework.overlay
        rng = random.Random(17)
        sources = rng.sample(overlay.proxies, 6)
        for source in sources:
            dist, _ = dijkstra(graph, source)
            i = overlay.index_of(source)
            for target in rng.sample(overlay.proxies, 12):
                j = overlay.index_of(target)
                assert route[i, j] == pytest.approx(dist[target], rel=1e-9)

    def test_true_companion_matches_expanded_route(self, framework):
        """true[i, j] must equal the physical delay summed along the
        coordinate-optimal relay expansion."""
        import random

        route, true = framework.hfc.routing_matrices()
        overlay = framework.overlay
        rng = random.Random(18)
        for _ in range(15):
            u, v = rng.sample(overlay.proxies, 2)
            chain = framework.hfc.expand_hop(u, v)
            expected = sum(
                overlay.true_delay(a, b) for a, b in zip(chain, chain[1:])
            )
            i, j = overlay.index_of(u), overlay.index_of(v)
            assert true[i, j] == pytest.approx(expected, rel=1e-9)
