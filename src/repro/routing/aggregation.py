"""Single-logical-node cluster aggregation — the design the paper rejects.

Section 3: "the most common way of topology aggregation is to represent a
group of nodes as a single logical node [PNNI]. Such a representation is
simplest, but also introduces too much imprecision [20]. In our framework,
we will make all border nodes of a cluster (several nodes instead of a
single one) represent a group."

:class:`CentroidAggregationRouter` implements the rejected alternative so
the claim can be measured (ablation A6): at the cluster level every cluster
collapses to its coordinate centroid — inter-cluster edge weights are
centroid-to-centroid distances and internal extents are invisible (zero).
The *data plane* is unchanged (messages still traverse the HFC border
links; dissection and intra-cluster resolution work exactly as in
:class:`~repro.routing.hierarchical.HierarchicalRouter`), so any quality
difference is attributable purely to the coarser control-plane information.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.routing.hierarchical import HierarchicalRouter


class _CentroidView:
    """The cluster-level surface of single-logical-node aggregates: external
    estimates are centroid distances, internal border-to-border segments are
    invisible. Spelled out, with no ``__getattr__`` fall-through to the
    topology, so :func:`~repro.routing.batch.query_tables` builds this
    view's own tables instead of finding the topology's cached ones.
    """

    def __init__(self, hfc: HFCTopology) -> None:
        self.cluster_count = hfc.cluster_count
        self.cluster_of = hfc.cluster_of
        self.border = hfc.border
        self.space = _ZeroInternalSpace()
        self._centroids: Dict[int, np.ndarray] = {
            cid: hfc.space.array(hfc.members(cid)).mean(axis=0)
            for cid in range(hfc.cluster_count)
        }

    def external_estimate(self, i: int, j: int) -> float:
        return float(np.linalg.norm(self._centroids[i] - self._centroids[j]))


class _ZeroInternalSpace:
    """A space in which every internal segment has zero length — the
    information a single-logical-node aggregate actually carries."""

    def distance(self, u: ProxyId, v: ProxyId) -> float:
        return 0.0


class CentroidAggregationRouter(HierarchicalRouter):
    """Hierarchical routing over single-logical-node (centroid) aggregates.

    Only the cluster-level map/shortest-path steps see the coarse view
    (:attr:`cluster_view`); dissection and intra-cluster resolution run on
    the true HFC topology, so returned paths are valid — just chosen with
    poorer information.
    """

    def _bind(self, hfc: HFCTopology) -> None:
        super()._bind(hfc)
        self.cluster_view = _CentroidView(hfc)
