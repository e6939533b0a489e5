"""Tests for the transit-stub and Waxman topology generators."""

import pytest

from repro.graph import is_connected
from repro.netsim import TransitStubConfig, transit_stub, waxman
from repro.util.errors import TopologyError
from tests.oracles.shortest_paths import physical_graph


class TestTransitStub:
    def test_node_count_matches_request(self, small_topology):
        assert physical_graph(small_topology).node_count == 200

    def test_connected(self, small_topology):
        assert is_connected(physical_graph(small_topology))

    def test_transit_count_from_config(self, small_topology):
        cfg = TransitStubConfig()
        expected = cfg.transit_domains * cfg.transit_nodes_per_domain
        assert len(small_topology.transit_nodes) == expected

    def test_stub_nodes_dominate(self, small_topology):
        assert len(small_topology.stub_nodes) > len(small_topology.transit_nodes) * 5

    def test_every_node_has_position_and_kind(self, small_topology):
        for node in physical_graph(small_topology).nodes():
            assert node in small_topology.positions
            assert small_topology.node_kind[node] in ("transit", "stub")

    def test_stub_nodes_have_domains(self, small_topology):
        for node in small_topology.stub_nodes:
            assert small_topology.stub_domain[node] >= 0

    def test_positive_link_delays(self, small_topology):
        for _, _, w in physical_graph(small_topology).edges():
            assert w > 0

    def test_deterministic_for_seed(self):
        a = transit_stub(200, seed=5)
        b = transit_stub(200, seed=5)
        assert sorted(physical_graph(a).edges()) == sorted(physical_graph(b).edges())

    def test_different_seeds_differ(self):
        a = transit_stub(200, seed=5)
        b = transit_stub(200, seed=6)
        assert sorted(physical_graph(a).edges()) != sorted(physical_graph(b).edges())

    def test_too_small_budget_raises(self):
        with pytest.raises(TopologyError):
            transit_stub(20)

    @pytest.mark.parametrize("size", [150, 300, 600])
    def test_various_sizes_connected(self, size):
        topo = transit_stub(size, seed=size)
        assert physical_graph(topo).node_count == size
        assert is_connected(physical_graph(topo))

    def test_stub_domains_are_local(self, small_topology):
        """Stub domains should be geographically tight relative to the plane."""
        import math

        from collections import defaultdict

        domains = defaultdict(list)
        for node in small_topology.stub_nodes:
            domains[small_topology.stub_domain[node]].append(node)
        spreads = []
        for nodes in domains.values():
            if len(nodes) < 2:
                continue
            pts = [small_topology.positions[n] for n in nodes]
            cx = sum(p[0] for p in pts) / len(pts)
            cy = sum(p[1] for p in pts) / len(pts)
            spreads.append(
                max(math.dist(p, (cx, cy)) for p in pts)
            )
        # every domain should fit well inside the 1000-unit plane
        assert max(spreads) < 500


class TestWaxman:
    def test_connected_and_sized(self):
        topo = waxman(50, seed=3)
        assert physical_graph(topo).node_count == 50
        assert is_connected(physical_graph(topo))

    def test_all_nodes_are_stubs(self):
        topo = waxman(10, seed=3)
        assert len(topo.stub_nodes) == 10

    def test_single_node(self):
        topo = waxman(1, seed=3)
        assert physical_graph(topo).node_count == 1

    def test_zero_nodes_rejected(self):
        with pytest.raises(TopologyError):
            waxman(0)

    def test_higher_alpha_means_denser(self):
        sparse = waxman(60, alpha=0.1, seed=4)
        dense = waxman(60, alpha=0.95, seed=4)
        assert physical_graph(dense).edge_count > physical_graph(sparse).edge_count
