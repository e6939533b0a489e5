"""Tests for CoordinateSpace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coords import CoordinateSpace
from repro.util.errors import EmbeddingError
from tests.oracles.construction import closest_pair


@pytest.fixture
def unit_square():
    return CoordinateSpace(
        {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (1.0, 1.0), "d": (0.0, 1.0)}
    )


class TestBasics:
    def test_dimension(self, unit_square):
        assert unit_square.dimension == 2

    def test_len_and_contains(self, unit_square):
        assert len(unit_square) == 4
        assert "a" in unit_square
        assert "zzz" not in unit_square

    def test_distance(self, unit_square):
        assert unit_square.distance("a", "c") == pytest.approx(math.sqrt(2))

    def test_distance_to_self(self, unit_square):
        assert unit_square.distance("a", "a") == 0.0

    def test_unknown_node_raises(self, unit_square):
        with pytest.raises(EmbeddingError):
            unit_square.distance("a", "zzz")

    def test_empty_rejected(self):
        with pytest.raises(EmbeddingError):
            CoordinateSpace({})

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(EmbeddingError):
            CoordinateSpace({"a": (0.0,), "b": (0.0, 1.0)})

    def test_zero_dimension_rejected(self):
        with pytest.raises(EmbeddingError):
            CoordinateSpace({"a": ()})


class TestMatrices:
    def test_array_order(self, unit_square):
        arr = unit_square.array(["b", "a"])
        assert arr.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_distance_matrix(self, unit_square):
        nodes = ["a", "b", "c", "d"]
        m = unit_square.distance_matrix(nodes)
        assert m.shape == (4, 4)
        assert np.allclose(m, m.T)
        assert m[0, 2] == pytest.approx(math.sqrt(2))
        assert np.all(np.diag(m) == 0)


class TestQueries:
    """The per-pair border rule the construction oracle scans with."""

    def test_closest_pair_simple(self, unit_square):
        a, b, d = closest_pair(unit_square, ["a", "d"], ["b", "c"])
        assert (a, b) in {("a", "b"), ("d", "c")}
        assert d == pytest.approx(1.0)

    def test_closest_pair_empty_raises(self, unit_square):
        with pytest.raises(EmbeddingError):
            closest_pair(unit_square, [], ["a"])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=8),
        st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=8),
    )
    def test_closest_pair_matches_bruteforce(self, pts_a, pts_b):
        """Property: vectorised closest_pair equals the O(n*m) scan."""
        coords = {}
        group_a, group_b = [], []
        for i, p in enumerate(pts_a):
            coords[f"a{i}"] = p
            group_a.append(f"a{i}")
        for i, p in enumerate(pts_b):
            coords[f"b{i}"] = p
            group_b.append(f"b{i}")
        space = CoordinateSpace(coords)
        _, _, d = closest_pair(space, group_a, group_b)
        expected = min(
            space.distance(u, v) for u in group_a for v in group_b
        )
        assert d == pytest.approx(expected)
