"""Tests for the heap Dijkstra oracle & friends, cross-validated against networkx."""


import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.util.errors import GraphError
from tests.oracles.shortest_paths import (
    all_pairs_distances,
    dijkstra,
    eccentricity,
    shortest_path,
    single_source_distances,
)


def line_graph(n):
    g = Graph()
    for i in range(n - 1):
        g.add_edge(i, i + 1, 1.0)
    return g


class TestDijkstraBasics:
    def test_distance_to_self_is_zero(self):
        g = line_graph(3)
        dist, _ = dijkstra(g, 0)
        assert dist[0] == 0.0

    def test_line_distances(self):
        g = line_graph(5)
        dist, _ = dijkstra(g, 0)
        assert dist == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}

    def test_parent_chain(self):
        g = line_graph(4)
        path, d = shortest_path(g, 0, 3)
        assert path == [0, 1, 2, 3]
        assert d == 3.0

    def test_prefers_lighter_detour(self):
        g = Graph()
        g.add_edge("s", "t", 10.0)
        g.add_edge("s", "m", 2.0)
        g.add_edge("m", "t", 3.0)
        path, d = shortest_path(g, "s", "t")
        assert path == ["s", "m", "t"]
        assert d == 5.0

    def test_unreachable_target_raises(self):
        g = Graph()
        g.add_node("a")
        g.add_node("b")
        with pytest.raises(GraphError):
            shortest_path(g, "a", "b")

    def test_unknown_source_raises(self):
        g = line_graph(2)
        with pytest.raises(GraphError):
            dijkstra(g, 99)

    def test_early_stop_with_targets(self):
        g = line_graph(100)
        dist, _ = dijkstra(g, 0, targets=[3])
        assert dist[3] == 3.0
        # far nodes were never settled
        assert 99 not in dist

    def test_heterogeneous_node_types_do_not_crash(self):
        g = Graph()
        g.add_edge("a", 1, 1.0)
        g.add_edge(1, (2, 3), 1.0)
        dist, _ = dijkstra(g, "a")
        assert dist[(2, 3)] == 2.0

    def test_zero_weight_edges(self):
        g = Graph()
        g.add_edge("a", "b", 0.0)
        g.add_edge("b", "c", 1.0)
        assert single_source_distances(g, "a")["c"] == 1.0


class TestHelpers:
    def test_all_pairs_against_each_single_source(self):
        g = line_graph(6)
        apsp = all_pairs_distances(g)
        for s in g.nodes():
            assert apsp[s] == single_source_distances(g, s)

    def test_all_pairs_subset_sources(self):
        g = line_graph(6)
        apsp = all_pairs_distances(g, sources=[0, 5])
        assert set(apsp) == {0, 5}

    def test_eccentricity_of_line_end(self):
        g = line_graph(5)
        assert eccentricity(g, 0) == 4.0
        assert eccentricity(g, 2) == 2.0


@st.composite
def random_weighted_graph(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.1, 10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    g = Graph()
    g.add_nodes(range(n))
    for u, v, w in edges:
        if u != v:
            g.add_edge(u, v, w)
    return g


@settings(max_examples=60, deadline=None)
@given(random_weighted_graph())
def test_dijkstra_matches_networkx(g):
    """Property: our Dijkstra agrees with networkx on random graphs."""
    nxg = nx.Graph()
    nxg.add_nodes_from(g.nodes())
    for u, v, w in g.edges():
        nxg.add_edge(u, v, weight=w)
    ours = single_source_distances(g, 0)
    theirs = nx.single_source_dijkstra_path_length(nxg, 0)
    assert set(ours) == set(theirs)
    for node, d in theirs.items():
        assert ours[node] == pytest.approx(d)


@settings(max_examples=40, deadline=None)
@given(random_weighted_graph())
def test_shortest_path_length_consistent_with_distance(g):
    """Property: a reconstructed path's edge-weight sum equals its distance."""
    dist, parent = dijkstra(g, 0)
    for target, d in dist.items():
        if target == 0:
            continue
        path, pd = shortest_path(g, 0, target)
        assert pd == pytest.approx(d)
        total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
        assert total == pytest.approx(d)
