"""Coordinate spaces and distance maps.

A :class:`CoordinateSpace` assigns each overlay node a point in a
k-dimensional geometric space; geometric distance approximates network
delay (Ng & Zhang's coordinates-based approach, paper Section 3.1). The
clustering, border-selection and routing layers all consume distances
through this object.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import EmbeddingError

NodeId = Hashable


def cross_distances(block_a: np.ndarray, block_b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of two coordinate blocks.

    ``(|a|, k)`` and ``(|b|, k)`` in, ``(|a|, |b|)`` out. The squared
    differences are accumulated axis by axis into the one output block —
    no ``(|a|, |b|, k)`` difference cube. Every border-selection kernel
    (``overlay.hfc.closest_cross_pair``, the membership layer's
    nearest-member scan) reduces this same block, so full scans and
    incremental patches rank candidate pairs identically.
    """
    return _distances_by_axis(block_a.T[:, :, None], block_b.T[:, None, :])


def paired_distances(block_a: np.ndarray, block_b: np.ndarray) -> np.ndarray:
    """Row-by-row distances between two ``(m, k)`` blocks, ``(m,)`` out.

    The diagonal of :func:`cross_distances` without the block, through the
    same per-axis arithmetic: a value from here compares exactly (``==``
    means equal floats) against an entry of a block from there — which is
    what lets the membership layer decide whether a joiner can have taken
    over a border pair without re-reducing it.
    """
    return _distances_by_axis(block_a.T, block_b.T)


def _distances_by_axis(cols_a: np.ndarray, cols_b: np.ndarray) -> np.ndarray:
    """sqrt of the per-axis squared differences of broadcastable columns."""
    dist = cols_a[0] - cols_b[0]
    dist *= dist
    for axis in range(1, cols_a.shape[0]):
        term = cols_a[axis] - cols_b[axis]
        term *= term
        dist += term
    return np.sqrt(dist, out=dist)


class CoordinateSpace:
    """Immutable mapping of node ids to k-dimensional coordinates."""

    def __init__(self, coordinates: Dict[NodeId, Sequence[float]]) -> None:
        if not coordinates:
            raise EmbeddingError("coordinate space must contain at least one node")
        dims = {len(c) for c in coordinates.values()}
        if len(dims) != 1:
            raise EmbeddingError(f"inconsistent coordinate dimensions: {sorted(dims)}")
        self._dim = dims.pop()
        if self._dim == 0:
            raise EmbeddingError("coordinate dimension must be >= 1")
        self._coords: Dict[NodeId, Tuple[float, ...]] = {
            node: tuple(float(x) for x in coord) for node, coord in coordinates.items()
        }
        # Lazily built once (the space is immutable): all coordinates stacked
        # plus node -> row, so array() is a fancy index instead of a Python
        # tuple-conversion loop per call. The border-selection and clustering
        # kernels call array() with thousands of node lists.
        self._stacked: Optional[np.ndarray] = None
        self._row: Dict[NodeId, int] = {}

    @classmethod
    def from_stacked(
        cls, nodes: Sequence[NodeId], stacked: np.ndarray
    ) -> "CoordinateSpace":
        """Zero-copy construction over an existing ``(n, k)`` float array.

        *stacked* becomes the space's kernel-side storage directly — no
        per-node tuple conversion and no re-stacking on the first
        :meth:`array` call. This is how the columnar overlay state shares
        one coordinate array with every space view it hands out: kernels
        (``array``, ``distance_matrix``, ``stacked``) read views of
        the caller's array. Scalar accessors (:meth:`coordinate`,
        :meth:`distance`) go through a tuple table materialised once from
        the same floats, so values are bit-identical either way. The
        caller must not mutate *stacked* afterwards.
        """
        arr = np.asarray(stacked, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != len(nodes):
            raise EmbeddingError(
                f"stacked coordinates must be ({len(nodes)}, k), got {arr.shape}"
            )
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise EmbeddingError("coordinate space must contain at least one node")
        space = cls.__new__(cls)
        space._dim = int(arr.shape[1])
        space._coords = {
            node: tuple(row) for node, row in zip(nodes, arr.tolist())
        }
        if len(space._coords) != len(nodes):
            raise EmbeddingError("duplicate node ids in stacked coordinates")
        space._stacked = arr
        space._row = {node: i for i, node in enumerate(nodes)}
        return space

    def patched(
        self, gone: Collection[NodeId], nodes: Sequence[NodeId], block: np.ndarray
    ) -> "CoordinateSpace":
        """This space less *gone*, with *nodes* appended at the rows of *block*.

        What :meth:`from_stacked` builds over the survivors in their order and
        then *nodes*, bit for bit, for a Python step per moved node: the
        survivors' tuples and rows are taken over by C-level copies and the row
        map is renumbered in C. This space is left as it is, so a view handed
        out before a membership change never changes.
        """
        row = self._index()
        keep = np.ones(len(row), dtype=bool)
        try:
            keep[[row[node] for node in gone]] = False
        except KeyError as exc:
            raise EmbeddingError(f"node {exc.args[0]!r} has no coordinates") from None
        block = np.asarray(block, dtype=float).reshape(len(nodes), self._dim)
        coords = self._coords.copy()
        for node in gone:
            del coords[node]
        kept = len(coords)
        coords.update(zip(nodes, map(tuple, block.tolist())))
        if len(coords) != kept + len(nodes):
            raise EmbeddingError("duplicate node ids in patched coordinates")
        if not coords:
            raise EmbeddingError("coordinate space must contain at least one node")
        space = CoordinateSpace.__new__(CoordinateSpace)
        space._dim, space._coords = self._dim, coords
        space._stacked = np.concatenate([self._stacked[keep], block])  # type: ignore[index]
        space._row = dict(zip(coords, range(len(coords))))
        return space

    @property
    def row_map(self) -> Dict[NodeId, int]:
        """node -> row of :attr:`stacked`: the space's own dict, never to be written."""
        return self._index()

    @property
    def dimension(self) -> int:
        """Dimensionality k of the space."""
        return self._dim

    def __contains__(self, node: NodeId) -> bool:
        return node in self._coords

    def __len__(self) -> int:
        return len(self._coords)

    def nodes(self) -> List[NodeId]:
        """All node ids, in insertion order."""
        return list(self._coords)

    def coordinate(self, node: NodeId) -> Tuple[float, ...]:
        """The coordinates of *node*."""
        try:
            return self._coords[node]
        except KeyError:
            raise EmbeddingError(f"node {node!r} has no coordinates") from None

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Euclidean distance between *u* and *v* in the space."""
        try:
            return math.dist(self._coords[u], self._coords[v])
        except KeyError as exc:
            raise EmbeddingError(f"node {exc.args[0]!r} has no coordinates") from None

    def _index(self) -> Dict[NodeId, int]:
        """node -> row of :attr:`stacked`; stacks the coordinates on first use."""
        if self._stacked is None:
            self._stacked = np.array(list(self._coords.values()), dtype=float)
            self._row = {node: i for i, node in enumerate(self._coords)}
        return self._row

    @property
    def stacked(self) -> np.ndarray:
        """Every coordinate as one ``(n, k)`` array in :meth:`nodes` order."""
        self._index()
        return self._stacked  # type: ignore[return-value]

    def rows(self, nodes: Iterable[NodeId]) -> List[int]:
        """The row of each of *nodes* in :attr:`stacked`."""
        row = self._index()
        try:
            return [row[n] for n in nodes]
        except KeyError as exc:
            raise EmbeddingError(f"node {exc.args[0]!r} has no coordinates") from None

    def array(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Coordinates of *nodes* stacked into an ``(n, k)`` array."""
        rows = self.rows(nodes)
        if not rows:
            return np.empty((0, self._dim), dtype=float)
        return self.stacked[rows]

    def distance_matrix(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Pairwise Euclidean distance matrix among *nodes*."""
        pts = self.array(nodes)
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
