"""The Euclidean minimum spanning tree: a numpy Borůvka over a kd-tree.

Zahn's clustering (Section 3.2 of the paper) removes "inconsistent" edges
from the MST of the proxy coordinate cloud. The cloud's distance graph is
complete, so :func:`euclidean_mst` never builds it: a point's tree
neighbours are its geometric neighbours, so the search never scores all n²
pairs. Kruskal and Prim over a ``Graph`` are its test oracles
(``tests/oracles/construction.py``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.util.errors import GraphError

#: points per kd-tree leaf: the tree is as deep as it takes to get every
#: leaf down to this many
LEAF_SIZE = 16


def _sq_dist(delta: np.ndarray) -> np.ndarray:
    """Squared lengths of the difference vectors along *delta*'s last axis.

    Every squared distance the kernel compares — and every box lower bound
    compared with one — goes through this one ``einsum``, which sums a short
    axis in its own lane order (not left to right): the distances are the
    floats the row-at-a-time Prim computed, and a bound built from per-axis
    gaps no wider than a pair's differences is never above that pair's
    distance."""
    return np.einsum("...k,...k->...", delta, delta)


class MstEdges(List[Tuple[int, int, float]]):
    """The ``(i, j, distance)`` triples :func:`euclidean_mst` returns, plus
    what finding them cost: Borůvka ``rounds`` and ``pairs`` (squared
    distances evaluated)."""

    rounds: int = 0
    pairs: int = 0


class _KdTree:
    """A leaf-bucket kd-tree in implicit heap layout.

    Node ``v``'s children are ``2v + 1`` and ``2v + 2``; every leaf sits at
    depth :attr:`depth`, and node ``j`` of depth ``d`` holds the points at
    positions ``[j·n // 2^d, (j+1)·n // 2^d)`` of :attr:`perm`, so each split
    is a median split (by count) along the node's widest axis.
    """

    def __init__(self, pts: np.ndarray) -> None:
        n = pts.shape[0]
        depth = 0
        while -(-n // (1 << depth)) > LEAF_SIZE:
            depth += 1
        self.depth = depth
        self.first_leaf = (1 << depth) - 1
        self.lo = np.empty(((2 << depth) - 1, pts.shape[1]))
        self.hi = np.empty_like(self.lo)
        perm = np.arange(n)
        for d in range(depth + 1):
            width = 1 << d
            starts = np.arange(width) * n // width
            ordered = np.take(pts, perm, axis=0)
            level = slice(width - 1, 2 * width - 1)
            self.lo[level] = np.minimum.reduceat(ordered, starts, axis=0)
            self.hi[level] = np.maximum.reduceat(ordered, starts, axis=0)
            if d == depth:
                break
            axis = np.argmax(self.hi[level] - self.lo[level], axis=1)
            segment = np.repeat(np.arange(width), np.diff(starts, append=n))
            key = ordered[np.arange(n), axis[segment]]
            perm = perm[np.lexsort((key, segment))]
        self.perm = perm
        self.leaf_start = starts
        sizes = np.diff(starts, append=n)
        # (leaves, widest leaf) member table; a short leaf repeats its last
        # member in the spare slot, which ``slot_ok`` masks out
        slots = np.arange(int(sizes.max()))
        self.slot_ok = slots < sizes[:, None]
        self.members = perm[starts[:, None] + np.minimum(slots, sizes[:, None] - 1)]
        # every pair inside a leaf, once: what each round's bounds start from
        inside = np.take(pts, self.members, axis=0)
        self.leaf_d2 = _sq_dist(inside[:, :, None, :] - inside[:, None, :, :])
        self.leaf_of = np.empty(n, dtype=int)
        self.leaf_of[perm] = np.repeat(np.arange(1 << depth), sizes)

    def node_components(self, comp: np.ndarray) -> np.ndarray:
        """Per node, the component all its points are in, or -1 if mixed."""
        labels = comp[self.perm]
        low = np.minimum.reduceat(labels, self.leaf_start)
        level = np.where(low == np.maximum.reduceat(labels, self.leaf_start), low, -1)
        out = np.empty(self.lo.shape[0], dtype=level.dtype)
        out[self.first_leaf :] = level
        for d in reversed(range(self.depth)):
            pair = level.reshape(-1, 2)
            level = np.where(pair[:, 0] == pair[:, 1], pair[:, 0], -1)
            out[(1 << d) - 1 : (2 << d) - 1] = level
        return out


def _component_bounds(
    pts: np.ndarray, tree: _KdTree, comp: np.ndarray, node_comp: np.ndarray, count: int
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray], int]:
    """Per component, the squared length of *some* edge leaving it — an
    upper bound on its lightest; the in-leaf candidates ``(a, b, d²)`` for
    the lightest, every pair of leaf-mates in different components with
    ``d²`` within ``a``'s bound; and the pairs the bound rows evaluated.

    A point that shares a leaf with another component offers its nearest
    such neighbour there (the in-leaf distances are the tree's, computed
    once); a component none of whose points does — every leaf it touches is
    its own — gets a row from :func:`_row_bounds`.
    """
    bound = np.full(count, np.inf)
    mixed = np.flatnonzero(node_comp[tree.first_leaf :] < 0)
    ok = tree.slot_ok[mixed]
    members = tree.members[mixed]
    labels = comp[members]
    foreign = (labels[:, :, None] != labels[:, None, :]) & ok[:, :, None] & ok[:, None, :]
    d2 = np.where(foreign, tree.leaf_d2[mixed], np.inf)
    np.minimum.at(bound, labels.ravel(), d2.min(axis=2).ravel())
    lonely = np.flatnonzero(np.isinf(bound))
    if lonely.size:
        bound[lonely] = _row_bounds(pts, comp, lonely, count)
    leaf, sa, sb = np.nonzero(d2 <= bound[labels][:, :, None])
    inside = members[leaf, sa], members[leaf, sb], d2[leaf, sa, sb]
    return bound, inside, lonely.size * pts.shape[0]


def _row_bounds(
    pts: np.ndarray, comp: np.ndarray, lonely: np.ndarray, count: int
) -> np.ndarray:
    """For each *lonely* component, the squared distance from its first
    point to the nearest point outside it: one O(n) row each, as many at a
    time as keep the block near 2^16 distances."""
    n = pts.shape[0]
    first = np.full(count, n)
    np.minimum.at(first, comp, np.arange(n))
    out = []
    for chunk in np.array_split(lonely, -(-lonely.size * n // (1 << 16))):
        row = _sq_dist(pts[None, :, :] - np.take(pts, first[chunk], axis=0)[:, None, :])
        row[comp[None, :] == chunk[:, None]] = np.inf
        out.append(row.min(axis=1))
    return np.concatenate(out)


def _leaf_pairs(
    pts: np.ndarray,
    tree: _KdTree,
    comp: np.ndarray,
    bound: np.ndarray,
    query: np.ndarray,
    leaf: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Each *query*'s pairs ``(a, b, d²)`` with the foreign members of its
    *leaf* within its component's bound, and the pairs evaluated."""
    members = np.take(tree.members, leaf, axis=0)
    mine = comp[query]
    foreign = np.take(tree.slot_ok, leaf, axis=0) & (comp[members] != mine[:, None])
    (slot,) = np.nonzero(foreign.ravel())
    rows = slot // members.shape[1]
    a, b = query[rows], members.ravel()[slot]
    d2 = _sq_dist(np.take(pts, b, axis=0) - np.take(pts, a, axis=0))
    near = d2 <= bound[mine[rows]]
    return a[near], b[near], d2[near], d2.size


def _lightest_edges(
    pts: np.ndarray, tree: _KdTree, comp: np.ndarray, count: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One Borůvka round's search: per component (in label order) its
    lightest leaving edge ``(i, j, d²)``, ``i < j``, under the order
    ``(d², i, j)``, and the pairs evaluated to find them.

    Every point descends the tree at once, as a batch of ``(query, node)``
    pairs. A node is dropped when its box is farther from the query than
    the query component's bound, or when all its points are in the query's
    own component; the leaves left, other than the query's own (whose pairs
    the bounds already scored), expand to candidate point pairs.
    """
    node_comp = tree.node_components(comp)
    bound, (a0, b0, d0), pairs = _component_bounds(pts, tree, comp, node_comp, count)
    query = np.arange(pts.shape[0])
    node = np.zeros_like(query)
    for _ in range(tree.depth):
        query = np.repeat(query, 2)
        node = (2 * node[:, None] + np.array([1, 2])).ravel()
        # (np.take: a row gather ten times cheaper than fancy indexing)
        at = np.take(pts, query, axis=0)
        gap = np.maximum(
            np.take(tree.lo, node, axis=0) - at, at - np.take(tree.hi, node, axis=0)
        )
        np.maximum(gap, 0.0, out=gap)
        mine = comp[query]
        keep = np.flatnonzero((node_comp[node] != mine) & (_sq_dist(gap) <= bound[mine]))
        query, node = query[keep], node[keep]

    leaf = node - tree.first_leaf
    away = np.flatnonzero(leaf != tree.leaf_of[query])
    query, leaf = query[away], leaf[away]
    found = [(a0, b0, d0)]
    # 1,024 (query, leaf) pairs at a time, LEAF_SIZE slots each: the
    # expansion's arrays stay ~1 MB however many leaves a round visits
    for start in range(0, query.size, 1024):
        part = slice(start, start + 1024)
        a, b, d2, evaluated = _leaf_pairs(pts, tree, comp, bound, query[part], leaf[part])
        found.append((a, b, d2))
        pairs += evaluated
    a, b, d2 = map(np.concatenate, zip(*found))
    owner = comp[a]
    i, j = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((i * pts.shape[0] + j, d2, owner))
    owner = owner[order]
    pick = order[np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])]
    assert pick.size == count, "a component found no edge within its bound"
    return i[pick], j[pick], d2[pick], pairs


def euclidean_mst(points: np.ndarray) -> MstEdges:
    """MST of the complete Euclidean graph over *points* (shape ``(n, k)``).

    Borůvka over a leaf-bucket kd-tree, numpy only, any dimension: every
    round each component takes its lightest leaving edge — found by one
    batched descent of the tree pruned by per-component bounds
    (:func:`_lightest_edges`) — and the components those edges join merge.
    A round at least halves the component count, so there are at most
    ``log2 n`` of them, and none scores all n² pairs.

    **Which tree.** Edges are ordered by ``(d², min(i, j), max(i, j))``, a
    total order, and the result is the MST under it: with distinct
    distances the unique MST, with ties (integer lattices, duplicate
    points) the tree Kruskal builds in that order.

    Squared distances are computed difference-first
    (``sum((p - q)^2)``), NOT via the ``|p|^2 + |q|^2 - 2 p.q`` norm
    expansion: the expanded form loses the entire value to cancellation for
    near-coincident points (a duplicate point would get a phantom ~1e-7
    edge weight). They are the floats a row-at-a-time Prim computes, so the
    weights are bit-identical to that oracle's
    (``tests/oracles/construction.py``); ``sqrt`` is taken once per
    emitted edge.

    Returns the n - 1 edges as ``(i, j, distance)`` index triples, ``i < j``,
    round by round, in an :class:`MstEdges` list that also carries the round
    and pair counts. Raises :class:`GraphError` for input that is not
    ``(n, k)`` with ``k >= 1`` or has a non-finite coordinate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise GraphError(f"points must be 2-D (n, k) with k >= 1, got shape {pts.shape}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise GraphError(f"euclidean_mst: row {bad} is not finite: {pts[bad].tolist()}")
    edges = MstEdges()
    n = pts.shape[0]
    if n < 2:
        return edges
    # Coincident points: under the order each joins the first point at its
    # coordinates by a zero-length edge, and the lightest edge between two
    # such groups is the one between their first points — so only those
    # (``keep``, in index order) go through the tree. Left in, m copies of
    # one point are m² zero-distance ties no box bound can prune.
    order = np.lexsort(pts.T[::-1])  # stable: equal rows stay in index order
    ordered = np.take(pts, order, axis=0)
    head = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
    leader = np.empty(n, dtype=int)
    leader[order] = order[head][np.cumsum(head) - 1]
    first = leader == np.arange(n)
    copies = np.flatnonzero(~first)
    edges.extend(zip(leader[copies].tolist(), copies.tolist(), [0.0] * copies.size))
    keep = np.flatnonzero(first)
    pts = np.take(pts, keep, axis=0)
    n = pts.shape[0]
    if n < 2:
        return edges
    tree = _KdTree(pts)
    edges.pairs = tree.leaf_d2.size
    comp = np.arange(n)
    count = n
    while count > 1:
        i, j, d2, pairs = _lightest_edges(pts, tree, comp, count)
        edges.rounds += 1
        edges.pairs += pairs
        # Each component points at the one its edge reaches. Under a total
        # order the only cycles are two components picking the same edge:
        # the lower label of such a pair is a root and emits nothing.
        labels = np.arange(count)
        parent = comp[j]
        parent = np.where(parent == labels, comp[i], parent)
        root = (parent[parent] == labels) & (labels < parent)
        parent[root] = labels[root]
        edges.extend(
            zip(
                keep[i[~root]].tolist(),
                keep[j[~root]].tolist(),
                np.sqrt(d2[~root]).tolist(),
            )
        )
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent = hop
        roots, parent = np.unique(parent, return_inverse=True)
        comp = parent[comp]
        count = roots.size
    return edges
