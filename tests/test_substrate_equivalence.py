"""Equivalence suite: the relaxation kernel and the columnar physical
substrate == their object oracles.

The generators log links into edge columns instead of wiring a ``Graph``, and
one relaxation kernel (``repro.graph.shortest_paths.ArcIndex``) answers every
shortest-path question: substrate delay rows and routes, the mesh baseline's
all-pairs table and the HFC border routes. Each claims the old results bit
for bit; the old code lives on in ``tests/oracles/construction.py``
(pair-loop generators, dict greedy k-center) and
``tests/oracles/shortest_paths.py`` (the heap Dijkstra). These tests pin:

* generator-level: same links, same delays, same order — so the derived
  ``Graph`` view has the adjacency order the wired graph had;
* kernel-level: a relaxation row is ``array_equal`` to Dijkstra's distances
  from every source, and a parent row is Dijkstra's parents wherever the
  nearest tight tail is unique, on substrates, meshes and HFC border graphs;
* tie-level: on integer lattices and zero-length links, where many trees
  are shortest, every parent chain reaches the source without a cycle and
  sums, left to right, to the row bit for bit;
* consumer-level: ``choose_landmarks`` picks what the dict version picked.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coords.embedding import choose_landmarks
from repro.graph import Graph
from repro.graph.shortest_paths import ArcIndex
from repro.netsim import PhysicalNetwork, transit_stub, waxman
from repro.netsim.topology import PhysicalTopology, TransitStubConfig
from repro.overlay import build_mesh
from repro.routing import MeshRouter
from repro.telemetry import Telemetry
from repro.util.errors import GraphError, TopologyError
from tests.oracles.construction import (
    choose_landmarks_reference,
    transit_stub_reference,
    waxman_reference,
)
from tests.oracles.shortest_paths import dijkstra, reconstruct_path
from tests.test_construction_equivalence import lattice_points


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
    """Rows equal Dijkstra's distances; routes follow Dijkstra's parents
    wherever the nearest tight tail is unique."""
    graph = network.graph
    n = network.topology.node_count
    for source in sources:
        dist, parent = dijkstra(graph, source)
        expected = np.array([dist.get(v, np.inf) for v in range(n)])
        row = network.delays_from(source)
        assert np.array_equal(row.array, expected)
        assert dict(row) == dist
        for v in parent:
            got = network.route(source, v)
            want = reconstruct_path(parent, source, v)
            assert got == want or dist[got[-2]] == dist[want[-2]]


def assert_shortest_path_tree(links, dist, parent, source):
    """Every parent chain reaches *source* without a cycle, and its links
    summed left to right give the row bit for bit."""
    weight = {}
    for u, v, w in links:
        weight[u, v] = weight[v, u] = w
    assert parent[source] == -1
    for v in range(len(dist)):
        if v == source or dist[v] == np.inf:
            assert parent[v] == -1
            continue
        chain = [v]
        while chain[-1] != source:
            assert len(chain) <= len(dist), f"parent cycle through {v}"
            chain.append(int(parent[chain[-1]]))
        chain.reverse()
        total = 0.0
        for a, b in zip(chain, chain[1:]):
            total += weight[a, b]
        assert total == dist[v]


def arcs_and_graph(node_count, links):
    u, v, w = (list(column) for column in zip(*links)) if links else ([], [], [])
    graph = Graph()
    graph.add_nodes(range(node_count))
    for a, b, weight in links:
        graph.add_edge(a, b, weight)
    return ArcIndex(node_count, u, v, w), graph


def assert_kernel_matches_dijkstra(node_count, links, strict_parents=True):
    """From every source: the kernel's row is Dijkstra's distances, its
    parents Dijkstra's (*strict_parents*) or a shortest-path tree."""
    arcs, graph = arcs_and_graph(node_count, links)
    for source in range(node_count):
        dist, _ = arcs.distances(source)
        parent = arcs.parents(dist, source)
        oracle, oracle_parent = dijkstra(graph, source)
        assert np.array_equal(dist, [oracle.get(v, np.inf) for v in range(node_count)])
        if strict_parents:
            assert parent.tolist() == [oracle_parent.get(v, -1) for v in range(node_count)]
        else:
            assert_shortest_path_tree(links, dist, parent, source)


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
        assert network.route(0, 4) == [0, 1, 2, 3, 4]
        assert_kernel_matches_dijkstra(5, links, strict_parents=False)

    def test_zero_length_plateau_cannot_close_a_cycle(self):
        # 1-4-3-2 is a zero-length chain at distance 1.0: the nearest tail,
        # lowest id first, would make 2 and 3 each other's parents
        links = [(0, 1, 1.0), (1, 4, 0.0), (4, 3, 0.0), (3, 2, 0.0)]
        arcs, _ = arcs_and_graph(5, links)
        dist, _ = arcs.distances(0)
        assert arcs.parents(dist, 0).tolist() == [-1, 0, 3, 4, 1]
        assert_kernel_matches_dijkstra(5, links, strict_parents=False)
        links = [(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0), (2, 3, 0.0), (3, 4, 2.0)]
        assert_kernel_matches_dijkstra(5, links, strict_parents=False)

    def test_equal_offers_take_the_nearest_tail(self):
        # from 2, router 1 is offered 2.0 by both 0 (at 1.0) and 2 itself:
        # Dijkstra settles 2 first, and so does the nearest-tail rule
        links = [(2, 0, 1.0), (0, 1, 1.0), (2, 1, 2.0)]
        assert_kernel_matches_dijkstra(3, links)
        arcs, _ = arcs_and_graph(3, links)
        assert arcs.parents(arcs.distances(2)[0], 2).tolist() == [2, 2, -1]

    def test_unknown_source_raises_the_topology_error(self, small_physical):
        for ask in (small_physical.delay, small_physical.route):
            with pytest.raises(TopologyError, match="unknown router 1000000"):
                ask(1000000, 3)

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


class TestKernelTreesEqualDijkstra:
    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_mesh_router_every_source(self, framework, seed):
        overlay = framework.overlay
        mesh = build_mesh(overlay, seed=seed)
        router = MeshRouter(overlay, mesh)
        for source in overlay.proxies:
            dist, parent = dijkstra(mesh, source)
            assert np.array_equal(
                router.provider.matrix[overlay.index_of(source)],
                [dist[p] for p in overlay.proxies],
            )
            for target in overlay.proxies:
                assert router._expand(source, target) == reconstruct_path(
                    parent, source, target
                )

    def test_hfc_border_graph_every_source(self, framework):
        hfc = framework.hfc
        tables = hfc._border_tables()
        graph = Graph()
        graph.add_nodes(tables.proxies)
        for cid in range(hfc.cluster_count):
            borders = hfc.border_nodes(cid)
            for a_pos, b1 in enumerate(borders):
                for b2 in borders[a_pos + 1 :]:
                    graph.add_edge(b1, b2, hfc.space.distance(b1, b2))
        for (i, j), u in hfc.borders.items():
            if i < j:
                graph.add_edge(u, hfc.borders[(j, i)], hfc.space.distance(u, hfc.borders[(j, i)]))
        position = {b: i for i, b in enumerate(tables.proxies)}
        for s, source in enumerate(tables.proxies):
            dist, parent = dijkstra(graph, source)
            assert np.array_equal(tables.route[s], [dist[b] for b in tables.proxies])
            want = [position[parent[b]] if b in parent else -1 for b in tables.proxies]
            assert tables.parent[s].tolist() == want

    @pytest.mark.parametrize(
        "make",
        [
            lambda: transit_stub(300, seed=11),
            lambda: transit_stub(600, seed=3),
            lambda: waxman(120, alpha=0.3, seed=5),
        ],
        ids=["transit_stub-300", "transit_stub-600", "waxman-120"],
    )
    def test_substrate_parents_every_source(self, make):
        network = PhysicalNetwork(make(), telemetry=Telemetry())
        size = network.topology.node_count
        for source in range(size):
            _, parent = dijkstra(network.graph, source)
            want = [parent.get(v, -1) for v in range(size)]
            row = network.delays_from(source).array
            assert network._arcs.parents(row, source).tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(points=lattice_points, data=st.data())
    def test_integer_lattice_ties(self, points, data):
        """Manhattan lengths on an integer lattice: path sums tie everywhere,
        and some links have length zero."""
        n = len(points)
        links = [
            (i, j, float(abs(points[i][0] - points[j][0]) + abs(points[i][1] - points[j][1])))
            for i in range(n)
            for j in range(i + 1, n)
            if abs(points[i][0] - points[j][0]) + abs(points[i][1] - points[j][1]) <= 40
        ]
        pairs = [(i, j) for i, j, _ in links]
        zero = data.draw(st.sets(st.sampled_from(pairs), max_size=8)) if pairs else set()
        links = [(i, j, 0.0 if (i, j) in zero else w) for i, j, w in links]
        assert_kernel_matches_dijkstra(n, links, strict_parents=False)


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
