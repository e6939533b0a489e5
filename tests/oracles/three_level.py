"""The hardcoded three-level prototype (proxies -> clusters -> super-clusters)
that preceded ``repro.hierarchy.levels``: the independent routing and
state-accounting reference for the recursive hierarchy at depth 3.

:class:`ThreeLevelRouter` runs the Section-5 relaxation over the
super-clusters and resolves each child with a bi-level router restricted to
one super-cluster. Construction is ``build_levels(hfc, 3)`` converted to the
prototype's dict surface — grouping and super-borders have one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.cluster.mstcluster import Clustering
from repro.hierarchy.levels import build_levels
from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.routing.hierarchical import HierarchicalRouter
from repro.routing.path import Hop, merge_consecutive_hops
from repro.services.catalog import ServiceName
from repro.services.graph import ServiceGraph
from repro.services.placement import aggregate_capability
from repro.services.request import ServiceRequest
from repro.util.errors import NoFeasiblePathError, TopologyError

ClusterId = int
SuperId = int


@dataclass
class MultiLevelHFC:
    """A three-level HFC: proxies -> clusters -> super-clusters."""

    hfc: HFCTopology
    #: level-1 cluster id -> super-cluster id
    super_of_cluster: Dict[ClusterId, SuperId]
    #: super-cluster id -> its level-1 cluster ids
    cluster_members: Dict[SuperId, List[ClusterId]]
    #: (super_i, super_j) -> super-border proxy inside super_i
    super_borders: Dict[Tuple[SuperId, SuperId], ProxyId]
    _sub_cache: Dict[SuperId, HFCTopology] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def super_count(self) -> int:
        """Number of super-clusters."""
        return len(self.cluster_members)

    def super_of(self, proxy: ProxyId) -> SuperId:
        """Super-cluster id of *proxy*."""
        return self.super_of_cluster[self.hfc.cluster_of(proxy)]

    def members(self, super_id: SuperId) -> List[ProxyId]:
        """All proxies in super-cluster *super_id*."""
        result: List[ProxyId] = []
        for cid in self.cluster_members[super_id]:
            result.extend(self.hfc.members(cid))
        return sorted(result)

    def super_border(self, from_super: SuperId, to_super: SuperId) -> ProxyId:
        """Super-border proxy inside *from_super* facing *to_super*."""
        if from_super == to_super:
            raise TopologyError("no border between a super-cluster and itself")
        return self.super_borders[(from_super, to_super)]

    def all_super_borders(self) -> List[ProxyId]:
        """Distinct super-border proxies, sorted."""
        return sorted(set(self.super_borders.values()))

    def sub_hfc(self, super_id: SuperId) -> HFCTopology:
        """The bi-level HFC restricted to *super_id*'s clusters (cached)."""
        cached = self._sub_cache.get(super_id)
        if cached is not None:
            return cached
        cluster_ids = self.cluster_members[super_id]
        remap = {cid: local for local, cid in enumerate(cluster_ids)}
        clusters = [list(self.hfc.members(cid)) for cid in cluster_ids]
        labels = {p: remap[self.hfc.cluster_of(p)] for c in clusters for p in c}
        clustering = Clustering(clusters=[sorted(c) for c in clusters], labels=labels)
        borders = {
            (remap[i], remap[j]): proxy
            for (i, j), proxy in self.hfc.borders.items()
            if i in remap and j in remap
        }
        sub = HFCTopology(
            overlay=self.hfc.overlay,
            clustering=clustering,
            space=self.hfc.space,
            borders=borders,
        )
        self._sub_cache[super_id] = sub
        return sub

    # -- aggregates -------------------------------------------------------------

    def super_capability(self, super_id: SuperId) -> FrozenSet[ServiceName]:
        """Set-union service aggregate of a whole super-cluster."""
        return aggregate_capability(
            self.hfc.overlay.placement, self.members(super_id)
        )

    # -- state accounting (the E5 overhead extension) ----------------------------------

    def coordinates_node_states(self) -> Dict[ProxyId, int]:
        """Per-proxy coordinate entries under the three-level state model."""
        result: Dict[ProxyId, int] = {}
        all_super_borders = set(self.all_super_borders())
        for sid, cluster_ids in self.cluster_members.items():
            # borders between cluster pairs inside this super-cluster
            local_borders = {
                proxy
                for (i, j), proxy in self.hfc.borders.items()
                if i in cluster_ids and j in cluster_ids
            }
            for cid in cluster_ids:
                members = set(self.hfc.members(cid))
                outside_borders = len(local_borders - members)
                outside_super = len(all_super_borders - members - local_borders)
                for proxy in members:
                    result[proxy] = len(members) + outside_borders + outside_super
        return result

    def service_node_states(self) -> Dict[ProxyId, int]:
        """Per-proxy service entries under the three-level state model."""
        result: Dict[ProxyId, int] = {}
        for sid, cluster_ids in self.cluster_members.items():
            for cid in cluster_ids:
                members = self.hfc.members(cid)
                count = len(members) + len(cluster_ids) + self.super_count
                for proxy in members:
                    result[proxy] = count
        return result


def build_multilevel(hfc: HFCTopology) -> MultiLevelHFC:
    """``build_levels(hfc, 3)`` as a :class:`MultiLevelHFC`."""
    hierarchy = build_levels(hfc, 3)
    level = hierarchy.levels[0]
    super_of_cluster: Dict[ClusterId, SuperId] = {
        cid: int(level.parent[cid]) for cid in range(hfc.cluster_count)
    }
    cluster_members: Dict[SuperId, List[ClusterId]] = {
        sid: list(level.members_of(sid)) for sid in range(level.count)
    }
    super_borders: Dict[Tuple[SuperId, SuperId], ProxyId] = {}
    k = level.count
    for i in range(k):
        for j in range(i + 1, k):
            super_borders[(i, j)] = hierarchy.row_proxies[
                int(level.border_matrix[i, j])
            ]
            super_borders[(j, i)] = hierarchy.row_proxies[
                int(level.border_matrix[j, i])
            ]
    return MultiLevelHFC(
        hfc=hfc,
        super_of_cluster=super_of_cluster,
        cluster_members=cluster_members,
        super_borders=super_borders,
    )


class _SuperView:
    """Duck-typed 'HFC' whose clusters are the super-clusters.

    Lets :class:`~repro.routing.hierarchical.HierarchicalRouter`'s
    cluster-level machinery run unchanged one level up.
    """

    def __init__(self, multilevel: MultiLevelHFC) -> None:
        self._ml = multilevel
        self.space = multilevel.hfc.space
        self.overlay = multilevel.hfc.overlay

    @property
    def cluster_count(self) -> int:
        return self._ml.super_count

    def cluster_of(self, proxy: ProxyId) -> SuperId:
        return self._ml.super_of(proxy)

    def members(self, super_id: SuperId) -> List[ProxyId]:
        return self._ml.members(super_id)

    def border(self, i: SuperId, j: SuperId) -> ProxyId:
        return self._ml.super_border(i, j)

    def external_estimate(self, i: SuperId, j: SuperId) -> float:
        return self.space.distance(
            self._ml.super_border(i, j), self._ml.super_border(j, i)
        )

    def expand_hop(self, u: ProxyId, v: ProxyId) -> List[ProxyId]:
        """Relay expansion respecting all three levels.

        Same super-cluster: expand through the bi-level sub-structure.
        Different super-clusters: out through the super-border pair, with
        each intra-super segment expanded recursively.
        """
        ml = self._ml
        if u == v:
            return [u]
        su, sv = ml.super_of(u), ml.super_of(v)
        if su == sv:
            return ml.sub_hfc(su).expand_hop(u, v)
        exit_border = ml.super_border(su, sv)
        entry_border = ml.super_border(sv, su)
        head = ml.sub_hfc(su).expand_hop(u, exit_border)
        tail = ml.sub_hfc(sv).expand_hop(entry_border, v)
        return head + tail


class ThreeLevelRouter(HierarchicalRouter):
    """Divide-and-conquer routing over a three-level hierarchy.

    The super level runs the paper's Section-5 relaxation verbatim (through
    :class:`_SuperView`); each super-cluster child is then resolved by a
    bi-level :class:`HierarchicalRouter` restricted to that super-cluster,
    and relay-only children cross the super-cluster along its internal
    border structure.
    """

    def __init__(self, multilevel: MultiLevelHFC, **kwargs) -> None:
        self.multilevel = multilevel
        capabilities = {
            sid: multilevel.super_capability(sid)
            for sid in multilevel.cluster_members
        }
        kwargs.setdefault("cluster_capabilities", capabilities)
        super().__init__(_SuperView(multilevel), **kwargs)  # type: ignore[arg-type]
        self._sub_routers: Dict[SuperId, HierarchicalRouter] = {}

    def _sub_router(self, super_id: SuperId) -> HierarchicalRouter:
        cached = self._sub_routers.get(super_id)
        if cached is None:
            cached = HierarchicalRouter(
                self.multilevel.sub_hfc(super_id),
                method=self.method,
            )
            self._sub_routers[super_id] = cached
        return cached

    def _conquer(self, children):
        """One scalar sub-route per child, in order."""
        outcomes = []
        for child in children:
            try:
                outcomes.append(self._solve_one(child))
            except NoFeasiblePathError as err:
                outcomes.append(err)
        return outcomes

    def _solve_one(self, child):
        multilevel = self.multilevel
        if not child.slots:
            # relay across the super-cluster along its level-1 structure
            hops = multilevel.sub_hfc(child.cluster).expand_hop(
                child.source_proxy, child.destination_proxy
            )
            return tuple(merge_consecutive_hops([Hop(proxy=p) for p in hops]))
        sub_sg = ServiceGraph(
            services=dict(zip(child.slots, child.services)),
            edges=frozenset(zip(child.slots, child.slots[1:])),
        )
        sub_request = ServiceRequest(
            source_proxy=child.source_proxy,
            service_graph=sub_sg,
            destination_proxy=child.destination_proxy,
        )
        return self._sub_router(child.cluster).route(sub_request).hops
