"""Minimum spanning trees: Kruskal (with union-find) and Prim.

Zahn's clustering (Section 3.2 of the paper) removes "inconsistent" edges
from the MST of the proxy coordinate cloud. The cloud's distance graph is
complete, so we also provide :func:`euclidean_mst`, a numpy-vectorised Prim
over implicit pairwise Euclidean distances that never materialises the
O(n^2) edge list in Python objects.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.util.errors import GraphError

Node = Hashable


class UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    def __init__(self, items: Sequence[Node] = ()) -> None:
        self._parent: Dict[Node, Node] = {}
        self._rank: Dict[Node, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: Node) -> None:
        """Register *item* as its own singleton set (no-op if known)."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: Node) -> Node:
        """Representative of *item*'s set (with path compression)."""
        if item not in self._parent:
            raise GraphError(f"{item!r} not in union-find")
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Node, b: Node) -> bool:
        """Merge the sets of *a* and *b*; returns False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True

    def connected(self, a: Node, b: Node) -> bool:
        """True if *a* and *b* are in the same set."""
        return self.find(a) == self.find(b)

    def groups(self) -> List[List[Node]]:
        """All sets as lists (deterministic order by first insertion)."""
        by_root: Dict[Node, List[Node]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        return list(by_root.values())


def kruskal_mst(graph: Graph) -> Graph:
    """Minimum spanning forest of *graph* via Kruskal's algorithm.

    Works on disconnected graphs (returns a spanning forest). Ties are broken
    deterministically by edge insertion order.
    """
    forest = Graph()
    forest.add_nodes(graph.nodes())
    uf = UnionFind(graph.nodes())
    edges = sorted(graph.edges(), key=lambda e: e[2])
    for u, v, w in edges:
        if uf.union(u, v):
            forest.add_edge(u, v, w)
    return forest


def prim_mst(graph: Graph) -> Graph:
    """Minimum spanning tree via Prim; raises if *graph* is disconnected."""
    import heapq

    nodes = graph.nodes()
    if not nodes:
        return Graph()
    tree = Graph()
    tree.add_node(nodes[0])
    visited = {nodes[0]}
    heap: List[Tuple[float, int, Node, Node]] = []
    counter = 0
    for v, w in graph.neighbors(nodes[0]).items():
        heapq.heappush(heap, (w, counter, nodes[0], v))
        counter += 1
    while heap and len(visited) < len(nodes):
        w, _, u, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        tree.add_edge(u, v, w)
        for nxt, nw in graph.neighbors(v).items():
            if nxt not in visited:
                heapq.heappush(heap, (nw, counter, v, nxt))
                counter += 1
    if len(visited) < len(nodes):
        raise GraphError("prim_mst requires a connected graph")
    return tree


def euclidean_mst(points: np.ndarray) -> List[Tuple[int, int, float]]:
    """MST of the complete Euclidean graph over *points* (shape ``(n, k)``).

    Vectorised argmin Prim over *squared* distances: maintains, for every
    unvisited point, the cheapest connection into the growing tree. Each
    round costs one O(nk) difference + reduction plus O(n) bookkeeping; the
    square root is taken once per emitted edge instead of n times per
    round. O(n^2) time, O(n) extra memory — no O(n^2) distance matrix is
    stored.

    Squared distances are computed difference-first
    (``sum((p - q)^2)``), NOT via the ``|p|^2 + |q|^2 - 2 p.q`` norm
    expansion: the expanded form loses the entire value to cancellation for
    near-coincident points (a duplicate point would get a phantom ~1e-7
    edge weight), while the difference form is exact wherever a
    per-round full-distance Prim is, so emitted weights are bit-identical
    to that oracle's (``tests/oracles/construction.py``).

    Returns MST edges as ``(i, j, distance)`` index triples.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise GraphError(f"points must be 2-D (n, k), got shape {pts.shape}")
    n = pts.shape[0]
    if n == 0:
        return []
    in_tree = np.zeros(n, dtype=bool)
    best_d2 = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=int)
    edges: List[Tuple[int, int, float]] = []
    current = 0
    in_tree[0] = True
    for _ in range(n - 1):
        delta = pts - pts[current]
        d2 = np.einsum("ij,ij->i", delta, delta)
        closer = (~in_tree) & (d2 < best_d2)
        best_d2[closer] = d2[closer]
        best_from[closer] = current
        masked = np.where(in_tree, np.inf, best_d2)
        nxt = int(np.argmin(masked))
        if not np.isfinite(masked[nxt]):
            raise GraphError("euclidean_mst: disconnected input (NaN coordinates?)")
        edges.append((int(best_from[nxt]), nxt, float(np.sqrt(best_d2[nxt]))))
        in_tree[nxt] = True
        current = nxt
    return edges
