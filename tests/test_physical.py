"""Tests for the PhysicalNetwork delay oracle."""

import numpy as np
import pytest

from repro.netsim import PhysicalNetwork, transit_stub
from repro.util.errors import TopologyError
from tests.oracles.shortest_paths import physical_graph


class TestDelays:
    def test_self_delay_zero(self, small_physical):
        node = physical_graph(small_physical).nodes()[0]
        assert small_physical.delay(node, node) == 0.0

    def test_symmetry(self, small_physical):
        nodes = physical_graph(small_physical).nodes()
        u, v = nodes[0], nodes[50]
        assert small_physical.delay(u, v) == pytest.approx(small_physical.delay(v, u))

    def test_triangle_inequality(self, small_physical):
        """Shortest-path delays form a metric."""
        nodes = physical_graph(small_physical).nodes()
        a, b, c = nodes[0], nodes[40], nodes[90]
        ab = small_physical.delay(a, b)
        bc = small_physical.delay(b, c)
        ac = small_physical.delay(a, c)
        assert ac <= ab + bc + 1e-9

    def test_delay_positive_between_distinct(self, small_physical):
        nodes = physical_graph(small_physical).nodes()
        assert small_physical.delay(nodes[0], nodes[1]) > 0

    def test_delay_matrix_consistent(self, small_physical):
        nodes = physical_graph(small_physical).nodes()[:10]
        matrix = small_physical.delay_matrix(nodes)
        assert matrix.shape == (10, 10)
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)
        assert matrix[0, 5] == pytest.approx(small_physical.delay(nodes[0], nodes[5]))

    def test_cache_reuse(self, small_physical):
        nodes = physical_graph(small_physical).nodes()
        first = small_physical.delays_from(nodes[0])
        second = small_physical.delays_from(nodes[0])
        assert first is second


class TestMeasurement:
    def test_noise_biases_upward(self):
        topo = transit_stub(150, seed=1)
        net = PhysicalNetwork(topo, noise=0.5, seed=2)
        nodes = physical_graph(net).nodes()
        true = net.delay(nodes[0], nodes[10])
        for _ in range(20):
            assert net.measure(nodes[0], nodes[10]) >= true

    def test_more_probes_reduce_error(self):
        topo = transit_stub(150, seed=1)
        net = PhysicalNetwork(topo, noise=0.5, seed=2)
        nodes = physical_graph(net).nodes()
        true = net.delay(nodes[0], nodes[10])
        single = np.mean([net.measure(nodes[0], nodes[10], probes=1) for _ in range(50)])
        multi = np.mean([net.measure(nodes[0], nodes[10], probes=8) for _ in range(50)])
        assert multi - true < single - true

    def test_zero_noise_is_exact(self):
        topo = transit_stub(150, seed=1)
        net = PhysicalNetwork(topo, noise=0.0, seed=2)
        nodes = physical_graph(net).nodes()
        true = net.delay(nodes[0], nodes[10])
        assert net.measure(nodes[0], nodes[10]) == true

    def test_invalid_probes_rejected(self, small_physical):
        nodes = physical_graph(small_physical).nodes()
        with pytest.raises(ValueError):
            small_physical.measure(nodes[0], nodes[1], probes=0)

    def test_negative_noise_rejected(self):
        topo = transit_stub(150, seed=1)
        with pytest.raises(TopologyError):
            PhysicalNetwork(topo, noise=-0.1)


class TestHelpers:
    def test_nearest_picks_closest(self, small_physical):
        nodes = physical_graph(small_physical).nodes()
        source = nodes[0]
        candidates = nodes[10:20]
        chosen = small_physical.nearest(source, candidates)
        best = min(candidates, key=lambda c: small_physical.delay(source, c))
        assert chosen == best

    def test_nearest_empty_raises(self, small_physical):
        with pytest.raises(TopologyError):
            small_physical.nearest(physical_graph(small_physical).nodes()[0], [])

    def test_pick_overlay_nodes_are_stubs(self, small_physical):
        picks = small_physical.pick_overlay_nodes(30, seed=1)
        stub_set = set(small_physical.topology.stub_nodes)
        assert len(picks) == 30
        assert len(set(picks)) == 30
        assert all(p in stub_set for p in picks)

    def test_pick_too_many_raises(self, small_physical):
        with pytest.raises(TopologyError):
            small_physical.pick_overlay_nodes(10**6)

    def test_route_endpoints_and_delay(self, small_physical):
        graph = physical_graph(small_physical)
        nodes = graph.nodes()
        u, v = nodes[0], nodes[70]
        route = small_physical.route(u, v)
        assert route[0] == u and route[-1] == v
        total = sum(graph.weight(a, b) for a, b in zip(route, route[1:]))
        assert total == pytest.approx(small_physical.delay(u, v))

    def test_route_to_self(self, small_physical):
        node = physical_graph(small_physical).nodes()[0]
        assert small_physical.route(node, node) == [node]
