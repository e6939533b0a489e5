"""Tests for union-find and the three MST implementations."""

import math
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, UnionFind, euclidean_mst, kruskal_mst, prim_mst
from repro.graph.components import is_connected
from repro.util.errors import GraphError


class TestUnionFind:
    def test_singletons_start_disjoint(self):
        uf = UnionFind([1, 2, 3])
        assert not uf.connected(1, 2)

    def test_union_connects(self):
        uf = UnionFind([1, 2])
        assert uf.union(1, 2) is True
        assert uf.connected(1, 2)

    def test_union_already_merged_returns_false(self):
        uf = UnionFind([1, 2])
        uf.union(1, 2)
        assert uf.union(1, 2) is False

    def test_transitivity(self):
        uf = UnionFind([1, 2, 3])
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.connected(1, 3)

    def test_find_unknown_raises(self):
        uf = UnionFind()
        with pytest.raises(GraphError):
            uf.find("nope")

    def test_groups(self):
        uf = UnionFind([1, 2, 3, 4])
        uf.union(1, 2)
        uf.union(3, 4)
        groups = {frozenset(g) for g in uf.groups()}
        assert groups == {frozenset({1, 2}), frozenset({3, 4})}

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add(1)
        uf.add(1)
        assert uf.find(1) == 1


def square_graph():
    g = Graph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 2.0)
    g.add_edge("c", "d", 3.0)
    g.add_edge("d", "a", 4.0)
    g.add_edge("a", "c", 10.0)
    return g


class TestKruskalPrim:
    def test_tree_edge_count(self):
        tree = kruskal_mst(square_graph())
        assert tree.edge_count == 3

    def test_known_mst_weight(self):
        assert kruskal_mst(square_graph()).total_weight() == pytest.approx(6.0)
        assert prim_mst(square_graph()).total_weight() == pytest.approx(6.0)

    def test_kruskal_handles_forest(self):
        g = Graph()
        g.add_edge(1, 2, 1.0)
        g.add_edge(3, 4, 1.0)
        forest = kruskal_mst(g)
        assert forest.edge_count == 2
        assert not is_connected(forest)

    def test_prim_rejects_disconnected(self):
        g = Graph()
        g.add_edge(1, 2, 1.0)
        g.add_node(3)
        with pytest.raises(GraphError):
            prim_mst(g)

    def test_empty_graph(self):
        assert kruskal_mst(Graph()).node_count == 0
        assert prim_mst(Graph()).node_count == 0


@st.composite
def random_connected_graph(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    g = Graph()
    g.add_nodes(range(n))
    # spanning chain guarantees connectivity
    for i in range(1, n):
        g.add_edge(i - 1, i, draw(st.floats(0.1, 10.0)))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.floats(0.1, 10.0)),
            max_size=20,
        )
    )
    for u, v, w in extra:
        if u != v:
            g.add_edge(u, v, w)
    return g


@settings(max_examples=50, deadline=None)
@given(random_connected_graph())
def test_mst_weight_matches_networkx(g):
    """Property: Kruskal and Prim match networkx's MST weight."""
    nxg = nx.Graph()
    for u, v, w in g.edges():
        nxg.add_edge(u, v, weight=w)
    expected = sum(d["weight"] for _, _, d in nx.minimum_spanning_edges(nxg, data=True))
    assert kruskal_mst(g).total_weight() == pytest.approx(expected)
    assert prim_mst(g).total_weight() == pytest.approx(expected)


class TestEuclideanMst:
    def test_empty_and_single(self):
        assert euclidean_mst(np.zeros((0, 2))) == []
        assert euclidean_mst(np.zeros((1, 2))) == []

    def test_two_points(self):
        edges = euclidean_mst(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert len(edges) == 1
        assert edges[0][2] == pytest.approx(5.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphError):
            euclidean_mst(np.zeros(5))

    @pytest.mark.parametrize("shape", [(5,), (3, 2, 2), (4, 0)])
    def test_rejects_what_is_not_n_by_k(self, shape):
        with pytest.raises(GraphError, match=r"2-D \(n, k\)"):
            euclidean_mst(np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rows_up_front(self, bad):
        """A NaN or infinite coordinate names its row before any distance
        is taken: no ``inf - inf`` RuntimeWarning, no tree to walk."""
        pts = np.arange(40.0).reshape(20, 2)
        pts[13, 1] = bad
        pts[17, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match="row 13 is not finite"):
                euclidean_mst(pts)

    def test_ties_follow_squared_length_then_indices(self):
        """With tied lengths the MST is not unique: the tree returned is the
        one Kruskal builds in ``(d², min(i, j), max(i, j))`` order. Here the
        two length-2 edges tie and (0, 3) precedes (1, 2); Prim from point 0
        would pick (1, 2), the lower-index point of its frontier."""
        pts = np.array([[0.0, 1.0], [0.0, 2.0], [2.0, 2.0], [2.0, 1.0]])
        edges = euclidean_mst(pts)
        assert sorted(edges) == [(0, 1, 1.0), (0, 3, 2.0), (2, 3, 1.0)]

    def test_copies_of_a_point_join_the_first_without_a_search(self):
        """m copies of one point are m² zero-length ties no box bound can
        prune: each copy joins the first point at its coordinates, and only
        that one enters the tree."""
        pts = np.repeat([[1.0, 2.0], [4.0, 6.0]], 10_000, axis=0)
        edges = euclidean_mst(pts)
        assert sorted(edges) == sorted(
            [(0, i, 0.0) for i in range(1, 10_000)]
            + [(10_000, i, 0.0) for i in range(10_001, 20_000)]
            + [(0, 10_000, 5.0)]
        )
        assert edges.rounds == 1 and edges.pairs < 10

    def test_reports_rounds_and_pairs(self):
        """Borůvka at least halves the component count every round, and the
        tree search scores far fewer than all n(n-1)/2 pairs."""
        rng = np.random.default_rng(4)
        n = 3000
        edges = euclidean_mst(rng.uniform(0.0, 100.0, (n, 2)))
        assert len(edges) == n - 1
        assert 1 <= edges.rounds <= math.ceil(math.log2(n))
        assert n <= edges.pairs < n * (n - 1) // 20

    def test_collinear_points_chain(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        edges = euclidean_mst(pts)
        assert len(edges) == 3
        assert sum(w for _, _, w in edges) == pytest.approx(3.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=2,
            max_size=25,
        )
    )
    def test_matches_explicit_complete_graph_mst(self, points):
        """Property: vectorised Prim equals Kruskal on the complete graph."""
        pts = np.array(points)
        edges = euclidean_mst(pts)
        total = sum(w for _, _, w in edges)

        g = Graph()
        g.add_nodes(range(len(points)))
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                g.add_edge(i, j, math.dist(points[i], points[j]))
        expected = kruskal_mst(g).total_weight()
        assert total == pytest.approx(expected, abs=1e-9)
