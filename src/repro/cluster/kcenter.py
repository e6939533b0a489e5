"""Greedy k-center clustering — the upper-level clusterer of the recursive hierarchy.

The paper's clusters come from Zahn's MST clustering; each level above them
re-clusters the level below's centroids with greedy 2-approximate k-center
(pick the farthest point as the next center, assign everyone to the nearest
center), which yields the balanced ``round(sqrt(count))`` groups
:func:`repro.hierarchy.levels.build_levels` asks for.
"""

from __future__ import annotations

from typing import Hashable, List

import numpy as np

from repro.cluster.mstcluster import Clustering
from repro.coords.space import CoordinateSpace
from repro.util.errors import ClusteringError
from repro.util.rng import RngLike, ensure_rng

NodeId = Hashable


def kcenter_cluster(
    space: CoordinateSpace,
    k: int,
    seed: RngLike = None,
) -> Clustering:
    """Partition the nodes of *space* into *k* clusters by greedy k-center.

    The first center is random (seeded); each subsequent center is the node
    farthest from all existing centers; finally every node joins its nearest
    center. Returns the same :class:`Clustering` type as the MST clusterer so
    downstream code is clusterer-agnostic.
    """
    node_list: List[NodeId] = space.nodes()
    if not node_list:
        raise ClusteringError("cannot cluster an empty node set")
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    k = min(k, len(node_list))
    rng = ensure_rng(seed)
    points = space.array(node_list)

    first = rng.randrange(len(node_list))
    centers = [first]
    min_dist = np.linalg.norm(points - points[first], axis=1)
    while len(centers) < k:
        nxt = int(np.argmax(min_dist))
        if min_dist[nxt] == 0.0:
            break  # all remaining points coincide with a center
        centers.append(nxt)
        dist = np.linalg.norm(points - points[nxt], axis=1)
        min_dist = np.minimum(min_dist, dist)

    center_points = points[centers]
    diff = points[:, None, :] - center_points[None, :, :]
    assignments = np.argmin(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), axis=1)

    clusters: List[List[NodeId]] = [[] for _ in centers]
    for idx, label in enumerate(assignments):
        clusters[int(label)].append(node_list[idx])
    clusters = [c for c in clusters if c]
    labels = {node: cid for cid, members in enumerate(clusters) for node in members}
    return Clustering(clusters=clusters, labels=labels)
