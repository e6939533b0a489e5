"""Zahn's MST-based cluster detection (paper Section 3.2).

The paper adopts Zahn's 1971 graph-theoretic method, guided by the Gestalt
principle of grouping by proximity:

1. build the minimum spanning tree of the proxy points in coordinate space;
2. identify *inconsistent* edges — edges significantly longer than the
   average of nearby edge lengths;
3. remove them; the resulting connected components are the clusters.

The paper's inconsistency wording ("let T_l and T_r denote the left and right
sub-trees connected by l, whose average length of links is denoted by b; l is
inconsistent if a/b > k") leaves two knobs open, which we expose:

* ``depth`` — how far into each side's subtree the "nearby" average looks
  (Zahn's original uses a small neighbourhood; ``None`` means the entire
  subtree, the literal reading of the paper);
* ``combine`` — how the two side averages merge into b (``"mean"``, ``"max"``
  or ``"min"``). ``"max"`` is the conservative default: an edge must dominate
  the sparser side too before it is cut.

Degenerate micro-clusters are optionally merged into their nearest cluster
(``min_cluster_size``), since a singleton cluster carries no internal links
but would inflate the border-node count in the HFC topology.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coords.space import CoordinateSpace
from repro.graph.mst import euclidean_mst
from repro.util.errors import ClusteringError

NodeId = Hashable


@dataclass
class ClusteringConfig:
    """Tunables of the MST clusterer.

    Attributes:
        factor: the paper's k — an edge of length a is inconsistent when
            ``a / b > factor`` (paper suggests "2, 3, ...").
        depth: BFS depth for the nearby-edge average on each side;
            ``None`` averages over the whole subtree.
        combine: how the two side averages form b: "mean", "max" or "min".
        min_cluster_size: clusters smaller than this are merged into their
            nearest cluster (0 or 1 disables merging).
        max_clusters: optional hard cap; if exceeded, the weakest cuts
            (smallest a/b ratio) are undone until the cap holds.
    """

    factor: float = 2.0
    depth: Optional[int] = 2
    combine: str = "max"
    min_cluster_size: int = 2
    max_clusters: Optional[int] = None

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise ClusteringError(f"factor must be > 1, got {self.factor}")
        if self.depth is not None and self.depth < 1:
            raise ClusteringError(f"depth must be >= 1 or None, got {self.depth}")
        if self.combine not in ("mean", "max", "min"):
            raise ClusteringError(f"combine must be mean/max/min, got {self.combine!r}")
        if self.max_clusters is not None and self.max_clusters < 1:
            raise ClusteringError("max_clusters must be >= 1")


@dataclass
class Clustering:
    """A partition of overlay nodes into proximity clusters.

    Attributes:
        clusters: node lists, one per cluster, index = cluster id.
        labels: node -> cluster id.
        removed_edges: the inconsistent MST edges that were cut,
            as ``(u, v, length, ratio)``.
        stats: what :func:`cluster_nodes` spent: ``mst_rounds`` and
            ``mst_pairs`` (Borůvka rounds and squared distances evaluated
            for the tree) and ``merged`` (small clusters merged away).
    """

    clusters: List[List[NodeId]]
    labels: Dict[NodeId, int]
    removed_edges: List[Tuple[NodeId, NodeId, float, float]] = field(
        default_factory=list
    )
    stats: Dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def cluster_count(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    def cluster_of(self, node: NodeId) -> int:
        """Cluster id of *node*."""
        try:
            return self.labels[node]
        except KeyError:
            raise ClusteringError(f"node {node!r} not in clustering") from None

    def members(self, cluster_id: int) -> List[NodeId]:
        """Nodes in cluster *cluster_id*."""
        if not 0 <= cluster_id < len(self.clusters):
            raise ClusteringError(f"no cluster {cluster_id}")
        return self.clusters[cluster_id]

    def sizes(self) -> List[int]:
        """Cluster sizes, by cluster id."""
        return [len(c) for c in self.clusters]

    def same_cluster(self, u: NodeId, v: NodeId) -> bool:
        """True if *u* and *v* share a cluster."""
        return self.cluster_of(u) == self.cluster_of(v)


def _side_average(
    adjacency: Dict[int, Dict[int, float]],
    start: int,
    banned_neighbor: int,
    depth: Optional[int],
) -> Optional[float]:
    """Average edge length in the subtree hanging off *start*, away from
    *banned_neighbor*, limited to *depth* BFS levels. None if that side
    has no edges (leaf)."""
    total = 0.0
    count = 0
    visited = {start, banned_neighbor}
    queue = deque([(start, 0)])
    while queue:
        node, d = queue.popleft()
        if depth is not None and d >= depth:
            continue
        for nbr, w in adjacency[node].items():
            if nbr in visited:
                continue
            total += w
            count += 1
            visited.add(nbr)
            queue.append((nbr, d + 1))
    if count == 0:
        return None
    return total / count


def _combine_sides(left: Optional[float], right: Optional[float], mode: str) -> Optional[float]:
    sides = [s for s in (left, right) if s is not None and s > 0]
    if not sides:
        return None
    if mode == "mean":
        return sum(sides) / len(sides)
    if mode == "max":
        return max(sides)
    return min(sides)


def cluster_nodes(
    space: CoordinateSpace,
    nodes: Optional[Sequence[NodeId]] = None,
    config: Optional[ClusteringConfig] = None,
) -> Clustering:
    """Cluster *nodes* of *space* by Zahn's inconsistent-edge method.

    Returns a :class:`Clustering`. With a single node (or all points
    coincident) the result is one cluster. A node listed twice is a
    :class:`ClusteringError`.
    """
    config = config or ClusteringConfig()
    node_list: List[NodeId] = list(nodes) if nodes is not None else space.nodes()
    if not node_list:
        raise ClusteringError("cannot cluster an empty node set")
    if len(set(node_list)) < len(node_list):
        counts = Counter(node_list)
        duplicate = next(node for node in node_list if counts[node] > 1)
        raise ClusteringError(f"node {duplicate!r} is listed more than once")
    if len(node_list) == 1:
        return Clustering(clusters=[node_list], labels={node_list[0]: 0})

    points = space.array(node_list)
    mst_edges = euclidean_mst(points)

    adjacency: Dict[int, Dict[int, float]] = {i: {} for i in range(len(node_list))}
    for i, j, w in mst_edges:
        adjacency[i][j] = w
        adjacency[j][i] = w

    # Score every MST edge: ratio = a / b (b = combined nearby average).
    cuts: List[Tuple[float, int, int, float]] = []  # (ratio, i, j, length)
    for i, j, a in mst_edges:
        left = _side_average(adjacency, i, j, config.depth)
        right = _side_average(adjacency, j, i, config.depth)
        b = _combine_sides(left, right, config.combine)
        if b is None or b == 0:
            continue
        ratio = a / b
        if ratio > config.factor:
            cuts.append((ratio, i, j, a))

    # Honour max_clusters by keeping only the strongest cuts.
    cuts.sort(reverse=True)
    if config.max_clusters is not None:
        cuts = cuts[: config.max_clusters - 1]

    removed = {(i, j) for _, i, j, _ in cuts}
    removed_edges = [
        (node_list[i], node_list[j], a, ratio) for ratio, i, j, a in cuts
    ]

    # Connected components of the MST minus the removed edges.
    labels_idx = _components_after_cuts(adjacency, removed, len(node_list))

    clusters_idx: Dict[int, List[int]] = {}
    for idx, label in enumerate(labels_idx):
        clusters_idx.setdefault(label, []).append(idx)
    cluster_lists = [sorted(v) for v in clusters_idx.values()]
    cluster_lists.sort(key=lambda c: c[0])

    before = len(cluster_lists)
    if config.min_cluster_size > 1 and len(cluster_lists) > 1:
        cluster_lists = _merge_small_clusters(
            points, cluster_lists, config.min_cluster_size
        )

    clusters = [[node_list[i] for i in c] for c in cluster_lists]
    labels = {node: cid for cid, members in enumerate(clusters) for node in members}
    stats = {
        "mst_rounds": mst_edges.rounds,
        "mst_pairs": mst_edges.pairs,
        "merged": before - len(cluster_lists),
    }
    return Clustering(
        clusters=clusters, labels=labels, removed_edges=removed_edges, stats=stats
    )


def _components_after_cuts(
    adjacency: Dict[int, Dict[int, float]],
    removed: set,
    n: int,
) -> List[int]:
    """Component label per node index after removing *removed* edges."""
    labels = [-1] * n
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        queue = deque([start])
        labels[start] = current
        while queue:
            node = queue.popleft()
            for nbr in adjacency[node]:
                if labels[nbr] != -1:
                    continue
                if (node, nbr) in removed or (nbr, node) in removed:
                    continue
                labels[nbr] = current
                queue.append(nbr)
        current += 1
    return labels


def _merge_small_clusters(
    points: np.ndarray,
    clusters: List[List[int]],
    min_size: int,
) -> List[List[int]]:
    """Merge clusters below *min_size* into their nearest larger cluster.

    Nearest is measured centroid-to-centroid, mirroring how a late-joining
    proxy would pick "the cluster of its nearest neighbours" (Section 7),
    the first of equally near ones winning. Merging repeats until every
    cluster meets the minimum or one remains. Per merge, one distance
    launch over the centroid array: ``vecdot`` per row is the 1-D
    ``np.linalg.norm`` to the bit.
    """
    clusters = [list(c) for c in clusters]
    centroids = np.array([points[c].mean(axis=0) for c in clusters])
    while len(clusters) > 1:
        sizes = [len(c) for c in clusters]
        small = [i for i, s in enumerate(sizes) if s < min_size]
        if not small:
            break
        # Merge the smallest offender first for determinism.
        victim = min(small, key=lambda i: (sizes[i], clusters[i][0]))
        delta = centroids - centroids[victim]
        distance = np.sqrt(np.vecdot(delta, delta))
        distance[victim] = np.inf
        best = int(np.argmin(distance))
        clusters[best] = sorted(clusters[best] + clusters[victim])
        centroids[best] = points[clusters[best]].mean(axis=0)
        del clusters[victim]
        centroids = np.delete(centroids, victim, axis=0)
    return clusters
