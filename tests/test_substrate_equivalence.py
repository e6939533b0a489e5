"""Equivalence suite: the columnar physical substrate == its object oracles.

The generators log links into edge columns instead of wiring a ``Graph``,
and ``PhysicalNetwork`` answers delays from a numpy relaxation kernel over
those columns instead of a heap Dijkstra over the graph. Both claim the old
results bit for bit; the old code lives on in ``tests/oracles/construction.py``
(pair-loop generators, dict greedy k-center) and ``repro.graph.shortest_paths``
(the heap Dijkstra, still the overlay graphs' workhorse). These tests pin:

* generator-level: same links, same delays, same order — so the derived
  ``Graph`` view has the adjacency order the wired graph had;
* kernel-level: a relaxation row is ``array_equal`` to Dijkstra's distances
  from every source, on generated graphs and on the awkward hand-built ones
  (two components, one router, zero-length links);
* consumer-level: ``choose_landmarks`` picks what the dict version picked.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coords.embedding import choose_landmarks
from repro.graph.shortest_paths import dijkstra
from repro.netsim import PhysicalNetwork, transit_stub, waxman
from repro.netsim.topology import PhysicalTopology, TransitStubConfig
from repro.telemetry import Telemetry
from repro.util.errors import GraphError, TopologyError
from tests.oracles.construction import (
    choose_landmarks_reference,
    transit_stub_reference,
    waxman_reference,
)


def hand_built(node_count, links):
    """A topology over routers ``0..node_count-1`` with the given links."""
    u, v, w = (list(column) for column in zip(*links)) if links else ([], [], [])
    return PhysicalTopology(
        u,
        v,
        w,
        positions={i: (float(i), 0.0) for i in range(node_count)},
        node_kind={i: "stub" for i in range(node_count)},
    )


def assert_same_links(topology, reference):
    log = reference.graph.log
    assert topology.edge_u.tolist() == [u for u, _, _ in log]
    assert topology.edge_v.tolist() == [v for _, v, _ in log]
    assert topology.edge_w.tolist() == [w for _, _, w in log]
    assert topology.positions == reference.positions
    assert topology.node_kind == reference.node_kind
    assert topology.stub_domain == reference.stub_domain
    # the derived view: same neighbours, same weights, same adjacency order
    view, wired = topology.graph, reference.graph
    assert view.nodes() == wired.nodes()
    for node in wired.nodes():
        assert list(view.neighbors(node).items()) == list(wired.neighbors(node).items())


def assert_rows_match_dijkstra(network, sources):
    graph = network.graph
    n = network.topology.node_count
    for source in sources:
        dist, _ = dijkstra(graph, source)
        expected = np.array([dist.get(v, np.inf) for v in range(n)])
        row = network.delays_from(source)
        assert np.array_equal(row.array, expected)
        assert dict(row) == dist


class TestGeneratorsLogWhatTheyWired:
    @pytest.mark.parametrize("size", [300, 600, 900, 1200, 2400])
    def test_transit_stub_table1_sizes(self, size):
        assert_same_links(transit_stub(size, seed=11), transit_stub_reference(size, seed=11))

    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(84, 300),
        domains=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    def test_transit_stub_seeded(self, size, domains, seed):
        # one or two transit domains make the inter-domain pass ask about
        # links the core already has
        config = TransitStubConfig(transit_domains=domains, transit_nodes_per_domain=2)
        assert_same_links(
            transit_stub(size, config, seed=seed),
            transit_stub_reference(size, config, seed=seed),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(1, 120),
        alpha=st.floats(0.05, 1.0),
        beta=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_flat_waxman_seeded(self, size, alpha, beta, seed):
        assert_same_links(
            waxman(size, alpha=alpha, beta=beta, seed=seed),
            waxman_reference(size, alpha=alpha, beta=beta, seed=seed),
        )


class TestKernelRowsEqualDijkstra:
    @settings(max_examples=10, deadline=None)
    @given(size=st.integers(84, 300), seed=st.integers(0, 2**32))
    def test_transit_stub_every_source(self, size, seed):
        network = PhysicalNetwork(transit_stub(size, seed=seed), telemetry=Telemetry())
        assert_rows_match_dijkstra(network, range(size))

    @settings(max_examples=10, deadline=None)
    @given(
        size=st.integers(1, 80),
        alpha=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_flat_waxman_every_source(self, size, alpha, seed):
        network = PhysicalNetwork(waxman(size, alpha=alpha, seed=seed), telemetry=Telemetry())
        assert_rows_match_dijkstra(network, range(size))

    def test_2400_routers_sampled_sources(self):
        network = PhysicalNetwork(transit_stub(2400, seed=11), telemetry=Telemetry())
        assert_rows_match_dijkstra(network, [0, 7, 12, 1000, 2399])

    def test_zero_length_links(self):
        links = [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 1.5), (0, 3, 2.0), (3, 4, 0.0)]
        network = PhysicalNetwork(hand_built(5, links), telemetry=Telemetry())
        assert_rows_match_dijkstra(network, range(5))
        assert network.delay(0, 4) == 1.5
        assert network.delay(0, 2) == 0.0

    def test_single_router(self):
        network = PhysicalNetwork(waxman(1, seed=1), telemetry=Telemetry())
        assert dict(network.delays_from(0)) == {0: 0.0}
        assert network.delay(0, 0) == 0.0
        assert network.delay_matrix([0]).tolist() == [[0.0]]
        assert choose_landmarks(network, 1, seed=3) == [0]

    def test_unknown_source_rejected(self, small_physical):
        with pytest.raises(TopologyError, match="unknown router 200"):
            small_physical.delays_from(200)
        with pytest.raises(TopologyError):
            small_physical.delay(0, 200)
        with pytest.raises(TopologyError):
            small_physical.delay(0, -1)
        with pytest.raises(TopologyError, match="unknown router"):
            small_physical.delay_matrix([0, 200])


class TestTwoComponents:
    """Routers 0-2 and 3-5 are linked among themselves only."""

    @pytest.fixture()
    def network(self):
        links = [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (4, 5, 1.0)]
        return PhysicalNetwork(hand_built(6, links), noise=0.0, telemetry=Telemetry())

    def test_unreachable_routers_absent_from_the_row(self, network):
        row = network.delays_from(0)
        assert dict(row) == {0: 0.0, 1: 1.0, 2: 3.0}
        assert len(row) == 3 and 4 not in row and row.get(4) is None
        assert_rows_match_dijkstra(network, range(6))

    def test_delay_and_route_raise(self, network):
        with pytest.raises(TopologyError, match="router 4 unreachable from 0"):
            network.delay(0, 4)
        with pytest.raises(TopologyError, match="router 4 unreachable from 0"):
            network.route(0, 4)
        assert network.route(0, 2) == [0, 1, 2]

    def test_nearest_skips_unreachable(self, network):
        assert network.nearest(0, [5, 2, 4]) == 2
        with pytest.raises(TopologyError):
            network.nearest(0, [4, 5])

    def test_measure_many_names_the_router(self, network):
        with pytest.raises(TopologyError, match="router 0 unreachable from 4"):
            network.measure_many([0, 1], [0, 4])
        with pytest.raises(TopologyError, match="unreachable"):
            network.delay_matrix([0, 5])

    def test_choose_landmarks_names_the_router(self, network):
        with pytest.raises(TopologyError, match=r"router \d unreachable from \d"):
            choose_landmarks(network, 2, seed=1)


class TestChooseLandmarks:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_dict_greedy_k_center(self, seed):
        topology = transit_stub(150 + 10 * seed, seed=seed)
        network = PhysicalNetwork(topology, telemetry=Telemetry())
        assert choose_landmarks(network, 10, seed=seed) == choose_landmarks_reference(
            topology.graph, 10, seed=seed
        )


class TestColumnWriterRejects:
    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop on 1"):
            hand_built(3, [(0, 1, 1.0), (1, 1, 1.0)])

    @pytest.mark.parametrize("weight", [-0.5, float("nan")])
    def test_negative_or_nan_weight(self, weight):
        with pytest.raises(GraphError, match=r"negative weight .* on edge \(1, 2\)"):
            hand_built(3, [(0, 1, 1.0), (1, 2, weight)])

    def test_endpoint_outside_the_routers(self):
        with pytest.raises(GraphError, match="outside the routers 0..2"):
            hand_built(3, [(0, 3, 1.0)])
        with pytest.raises(GraphError, match="outside the routers"):
            hand_built(3, [(-1, 2, 1.0)])

    def test_parallel_links(self):
        with pytest.raises(GraphError, match="parallel"):
            hand_built(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_ragged_columns(self):
        with pytest.raises(GraphError, match="one length"):
            PhysicalTopology([0], [1, 2], [1.0], positions={}, node_kind={0: "stub", 1: "stub"})
