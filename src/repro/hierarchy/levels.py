"""Level-generic recursive HFC hierarchies (proxies -> clusters -> ... -> top).

The paper builds a bi-level HFC; the hardcoded three-level prototype that
preceded this module now lives in ``tests/oracles/three_level.py`` as the
independent routing reference. This module makes the recursion explicit:
**level 0 is the proxies, level 1 the paper's clusters, and level k+1
re-clusters the level-k centroids with the same machinery** — Zahn MST or
greedy k-center on the centroid cloud, border pairs by the
closest-proxy-pair rule applied across the two groups' full proxy
populations. A depth-``L`` :class:`HierarchyLevels` therefore is:

* the base :class:`~repro.overlay.hfc.HFCTopology` (levels 0 and 1), and
* ``L - 2`` :class:`~repro.state.columnar.HierarchyLevel` CSR entries,
  the same arrays :class:`~repro.state.columnar.ColumnarOverlayState`
  carries — so the per-level border tables the recursive router relaxes
  over are views of the shared columnar state, not copies.

Exactness contracts (asserted by ``tests/test_hierarchy_levels.py``):

* ``depth=2`` wraps the existing bi-level topology untouched — routing
  matrices and query tables are bit-identical to ``build_hfc``;
* ``depth=3`` reproduces the three-level prototype decision for decision
  (same centroid means, same k-center call, same closest-pair scans), and
  :class:`RecursiveRouter` routes path-identically to the prototype's
  ``ThreeLevelRouter``;
* deeper levels apply the identical rule once more per level.

Routing is the paper's divide-and-conquer applied recursively:
:class:`RecursiveRouter` runs the Section-5 relaxation over the *top*
level (through :class:`_LevelView`, the duck-typed cluster surface),
dissects into per-top-group children, and resolves each child inside the
depth-``L-1`` sub-hierarchy restricted to that group — bottoming out at
the bi-level :class:`~repro.routing.hierarchical.HierarchicalRouter`.
Batching is preserved at every level: the conquer hook groups the children
of one pipeline call per sub-hierarchy and feeds each sub-router one batched
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.mstcluster import Clustering, ClusteringConfig, cluster_nodes
from repro.coords.space import CoordinateSpace
from repro.overlay.hfc import HFCTopology, scan_borders
from repro.overlay.network import ProxyId
from repro.routing.hierarchical import ChildHops, ChildRequest, HierarchicalRouter
from repro.routing.path import Hop, merge_consecutive_hops
from repro.services.catalog import ServiceName
from repro.services.graph import ServiceGraph
from repro.services.placement import aggregate_capability
from repro.services.request import ServiceRequest
from repro.state.columnar import HierarchyLevel
from repro.util.errors import RoutingError, TopologyError

GroupId = int


@dataclass
class HierarchyLevels:
    """A depth-``2 + len(levels)`` recursive HFC hierarchy.

    ``levels`` is ordered bottom-up: ``levels[0]`` groups the base
    clusters, ``levels[k]`` groups the groups of ``levels[k - 1]``.
    Border entries are proxy *rows* into :attr:`row_proxies` (the
    overlay's canonical proxy order — the same row coding the columnar
    state uses, so the arrays can be attached there verbatim).
    """

    hfc: HFCTopology
    levels: List[HierarchyLevel]
    row_proxies: List[ProxyId]
    #: the shared columnar state these levels are attached to, when any —
    #: lets the top-level view hand out the state's cached per-level
    #: query tables instead of rebuilding them from scalar calls
    columnar: Optional[Any] = None
    _sub_cache: Dict[GroupId, "HierarchyLevels"] = field(
        default_factory=dict, init=False, repr=False
    )

    # -- shape -------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of levels, proxies included (2 = the paper's bi-level)."""
        return 2 + len(self.levels)

    @property
    def top_count(self) -> int:
        """Number of groups at the top level."""
        return self.levels[-1].count if self.levels else self.hfc.cluster_count

    def validate(self) -> None:
        """Structural invariants of the whole stack; raises on violation."""
        below = self.hfc.cluster_count
        dim = self.hfc.space.dimension
        n = len(self.row_proxies)
        for level in self.levels:
            level.validate(below, dim)
            if level.count > 1 and int(level.border_matrix.max()) >= n:
                raise TopologyError("hierarchy border row outside the proxy table")
            below = level.count

    # -- descent -----------------------------------------------------------------

    def group_of(self, proxy: ProxyId) -> GroupId:
        """Top-level group id of *proxy* (walks the parent chain up)."""
        unit = self.hfc.cluster_of(proxy)
        for level in self.levels:
            unit = int(level.parent[unit])
        return unit

    def base_clusters_of(self, group_id: GroupId) -> List[int]:
        """Base cluster ids under top-level *group_id*, in build order.

        Build order is the canonical descent — children ascending at every
        level — which is exactly the order the border-selection scans
        walked, so callers re-deriving borders see identical tie-breaks.
        """
        if not self.levels:
            return [group_id]
        units = [group_id]
        for level in reversed(self.levels):
            units = [u for g in units for u in level.members_of(g)]
        return units

    def proxies_under(self, group_id: GroupId) -> List[ProxyId]:
        """All proxies under top-level *group_id*, in build order."""
        return [
            p
            for cid in self.base_clusters_of(group_id)
            for p in self.hfc.members(cid)
        ]

    def top_members(self, group_id: GroupId) -> List[ProxyId]:
        """All proxies under *group_id*, sorted (the prototype's surface)."""
        return sorted(self.proxies_under(group_id))

    # -- borders -----------------------------------------------------------------

    def top_border(self, from_group: GroupId, to_group: GroupId) -> ProxyId:
        """Top-level border proxy inside *from_group* facing *to_group*."""
        if from_group == to_group:
            raise TopologyError("no border between a group and itself")
        if not self.levels:
            return self.hfc.border(from_group, to_group)
        row = int(self.levels[-1].border_matrix[from_group, to_group])
        return self.row_proxies[row]

    def all_top_borders(self) -> List[ProxyId]:
        """Distinct top-level border proxies, sorted."""
        if not self.levels:
            return self.hfc.all_border_nodes()
        rows = self.levels[-1].border_matrix
        return sorted({self.row_proxies[int(r)] for r in rows.ravel() if r >= 0})

    # -- relay expansion ---------------------------------------------------------

    def expand_hop(self, u: ProxyId, v: ProxyId) -> List[ProxyId]:
        """Relay expansion respecting every level of the hierarchy.

        Same top group: recurse into the sub-hierarchy. Different groups:
        out through the top border pair, each side expanded recursively —
        the prototype's three-level rule, applied at every depth.
        """
        if not self.levels:
            return self.hfc.expand_hop(u, v)
        if u == v:
            return [u]
        gu, gv = self.group_of(u), self.group_of(v)
        if gu == gv:
            return self.sub_hierarchy(gu).expand_hop(u, v)
        head = self.sub_hierarchy(gu).expand_hop(u, self.top_border(gu, gv))
        tail = self.sub_hierarchy(gv).expand_hop(self.top_border(gv, gu), v)
        return head + tail

    # -- restriction -------------------------------------------------------------

    def sub_hierarchy(self, group_id: GroupId) -> "HierarchyLevels":
        """The depth-``L-1`` hierarchy restricted to one top group (cached).

        The base restriction is exactly the prototype's ``sub_hfc``:
        member clusters remapped to local ids ascending, border pairs
        inherited (a border between two units of the same group does not
        depend on anything outside the group). Intermediate levels are
        restricted the same way, keeping their global proxy-row coding.
        """
        if not self.levels:
            raise TopologyError("a bi-level hierarchy has no sub-hierarchies")
        cached = self._sub_cache.get(group_id)
        if cached is not None:
            return cached

        last = len(self.levels) - 1
        # kept[j]: unit ids at tier j (tier 0 = base clusters) under the group
        kept: List[List[int]] = [[] for _ in range(last + 1)]
        kept[last] = sorted(self.levels[last].members_of(group_id))
        for j in range(last - 1, -1, -1):
            kept[j] = sorted(
                u for g in kept[j + 1] for u in self.levels[j].members_of(g)
            )

        cluster_ids = kept[0]
        remap = {cid: local for local, cid in enumerate(cluster_ids)}
        clusters = [list(self.hfc.members(cid)) for cid in cluster_ids]
        labels = {p: remap[self.hfc.cluster_of(p)] for c in clusters for p in c}
        clustering = Clustering(clusters=[sorted(c) for c in clusters], labels=labels)
        borders = {
            (remap[i], remap[j]): proxy
            for (i, j), proxy in self.hfc.borders.items()
            if i in remap and j in remap
        }
        sub_hfc = HFCTopology(
            overlay=self.hfc.overlay,
            clustering=clustering,
            space=self.hfc.space,
            borders=borders,
        )

        sub_levels: List[HierarchyLevel] = []
        for j in range(last):
            level = self.levels[j]
            below, above = kept[j], kept[j + 1]
            remap_below = {u: i for i, u in enumerate(below)}
            remap_above = {g: i for i, g in enumerate(above)}
            parent = np.array(
                [remap_above[int(level.parent[u])] for u in below], dtype=np.int64
            )
            ptr = np.zeros(len(above) + 1, dtype=np.int64)
            members: List[int] = []
            for local_g, g in enumerate(above):
                members.extend(remap_below[u] for u in level.members_of(g))
                ptr[local_g + 1] = len(members)
            border = np.full((len(above), len(above)), -1, dtype=np.int64)
            for a_i, g_i in enumerate(above):
                for a_j, g_j in enumerate(above):
                    if g_i != g_j:
                        border[a_i, a_j] = level.border_matrix[g_i, g_j]
            sub_levels.append(
                HierarchyLevel(
                    parent=parent,
                    ptr=ptr,
                    members=np.array(members, dtype=np.int64),
                    border_matrix=border,
                    centroids=level.centroids[above],
                )
            )

        sub = HierarchyLevels(
            hfc=sub_hfc, levels=sub_levels, row_proxies=self.row_proxies
        )
        self._sub_cache[group_id] = sub
        return sub

    # -- aggregates --------------------------------------------------------------

    def top_capability(self, group_id: GroupId) -> FrozenSet[ServiceName]:
        """Set-union service aggregate of one top-level group."""
        return aggregate_capability(
            self.hfc.overlay.placement, self.top_members(group_id)
        )

    def aggregates(self) -> Dict[Tuple[int, int], FrozenSet[ServiceName]]:
        """Every ``(level, group) -> capability aggregate`` of the stack.

        Level 1 entries are the paper's per-cluster aggregates; level
        ``k >= 2`` entries are aggregate-of-aggregates, unioned upward.
        Keyed for :func:`repro.state.delta.announce_aggregates`.
        """
        placement = self.hfc.overlay.placement
        out: Dict[Tuple[int, int], FrozenSet[ServiceName]] = {}
        below = [
            aggregate_capability(placement, self.hfc.members(cid))
            for cid in range(self.hfc.cluster_count)
        ]
        for cid, services in enumerate(below):
            out[(1, cid)] = services
        for index, level in enumerate(self.levels):
            above = [
                frozenset().union(*(below[u] for u in level.members_of(g)))
                for g in range(level.count)
            ]
            for g, services in enumerate(above):
                out[(index + 2, g)] = services
            below = above
        return out

    # -- state accounting (E5, generalized to any depth) --------------------------

    def _border_scopes(self, cid: int) -> List[set]:
        """Border-proxy sets a member of base cluster *cid* must know.

        One scope per level: level-1 borders among sibling clusters inside
        the own level-2 group, level-k borders inside the own level-(k+1)
        group, and the top level's borders system-wide — the prototype's
        three-level state model, one term per level.
        """
        ancestors: List[int] = []
        unit = cid
        for level in self.levels:
            unit = int(level.parent[unit])
            ancestors.append(unit)

        scopes: List[set] = []
        # base borders, restricted to the own level-2 group when one exists
        if self.levels:
            siblings = set(self.levels[0].members_of(ancestors[0]))
            scopes.append(
                {
                    proxy
                    for (i, j), proxy in self.hfc.borders.items()
                    if i in siblings and j in siblings
                }
            )
        else:
            scopes.append(set(self.hfc.borders.values()))
        for index, level in enumerate(self.levels):
            matrix = level.border_matrix
            if index + 1 < len(self.levels):
                upper = self.levels[index + 1]
                group_siblings = upper.members_of(ancestors[index + 1])
                pairs = [
                    (i, j)
                    for i in group_siblings
                    for j in group_siblings
                    if i != j
                ]
            else:
                k = level.count
                pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
            scopes.append(
                {
                    self.row_proxies[int(matrix[i, j])]
                    for i, j in pairs
                    if matrix[i, j] >= 0
                }
            )
        return scopes

    def coordinates_node_states(self) -> Dict[ProxyId, int]:
        """Per-proxy coordinate entries under the level-generic state model.

        Own-cluster members, plus per level the not-yet-counted border
        proxies of that level's scope. Depth 2 equals the paper's bi-level
        accounting; depth 3 equals the three-level prototype's.
        """
        result: Dict[ProxyId, int] = {}
        for cid in range(self.hfc.cluster_count):
            members = set(self.hfc.members(cid))
            seen = set(members)
            count = len(members)
            for scope in self._border_scopes(cid):
                count += len(scope - seen)
                seen |= scope
            for proxy in members:
                result[proxy] = count
        return result

    def service_node_states(self) -> Dict[ProxyId, int]:
        """Per-proxy service entries under the level-generic state model.

        Own-cluster member placements, plus one aggregate per sibling unit
        at every ancestor level, plus one per top-level group.
        """
        result: Dict[ProxyId, int] = {}
        for cid in range(self.hfc.cluster_count):
            members = self.hfc.members(cid)
            count = len(members)
            unit = cid
            for index, level in enumerate(self.levels):
                parent = int(level.parent[unit])
                if index + 1 < len(self.levels):
                    count += len(level.members_of(parent))
                else:
                    count += len(level.members_of(parent)) + level.count
                unit = parent
            if not self.levels:
                count += self.hfc.cluster_count
            for proxy in members:
                result[proxy] = count
        return result

    def mean_state_bytes(self) -> float:
        """Mean per-proxy state footprint in bytes.

        Each coordinate entry is one float64 k-vector (``8 * k`` bytes),
        each service entry one 8-byte aggregate code — the dimensionless
        model the ``hierarchy_depth`` study (``benchmarks/numbers.py``)
        sweeps across depths.
        """
        coords = self.coordinates_node_states()
        services = self.service_node_states()
        per_coord = 8 * self.hfc.space.dimension
        total = sum(coords[p] * per_coord + services[p] * 8 for p in coords)
        return total / len(coords)

    # -- routing surface ---------------------------------------------------------

    def top_view(self) -> "_LevelView":
        """The duck-typed HFC surface whose clusters are the top groups."""
        return _LevelView(self)


class _LevelView:
    """Duck-typed 'HFC' over a hierarchy's top level.

    Lets :class:`~repro.routing.hierarchical.HierarchicalRouter`'s
    cluster-level machinery run unchanged at the top of the recursion —
    the generalization of the three-level prototype's super view. When
    the hierarchy is attached to a columnar state, the view pre-seeds its
    query-table cache with the state's per-level tables, so the batched
    relaxation reads the shared arrays zero-copy.
    """

    def __init__(self, hierarchy: HierarchyLevels) -> None:
        self._h = hierarchy
        self.space = hierarchy.hfc.space
        self.overlay = hierarchy.hfc.overlay
        state = hierarchy.columnar
        if (
            state is not None
            and hierarchy.levels
            and len(state.levels) >= len(hierarchy.levels)
            and state.levels[len(hierarchy.levels) - 1]
            is hierarchy.levels[-1]
        ):
            self._query_tables_cache = state.level_query_tables(
                len(hierarchy.levels) - 1
            )

    @property
    def cluster_count(self) -> int:
        return self._h.top_count

    def cluster_of(self, proxy: ProxyId) -> GroupId:
        return self._h.group_of(proxy)

    def members(self, group_id: GroupId) -> List[ProxyId]:
        return self._h.top_members(group_id)

    def border(self, i: GroupId, j: GroupId) -> ProxyId:
        return self._h.top_border(i, j)

    #: the topology's own estimate, over this view's ``space`` and ``border``
    external_estimate = HFCTopology.external_estimate

    def expand_hop(self, u: ProxyId, v: ProxyId) -> List[ProxyId]:
        return self._h.expand_hop(u, v)


class RecursiveRouter(HierarchicalRouter):
    """Divide-and-conquer routing over a recursive hierarchy of any depth.

    The top level runs the paper's Section-5 relaxation verbatim (through
    :class:`_LevelView`); each top-group child is resolved by the router
    of the depth-``L-1`` sub-hierarchy restricted to that group — another
    :class:`RecursiveRouter` until the recursion bottoms out at the
    bi-level :class:`HierarchicalRouter`. Relay-only children cross the
    group along its internal border structure. At depth 3 this routes
    path-identically to the prototype's ``ThreeLevelRouter``.
    """

    def __init__(self, hierarchy: HierarchyLevels, **kwargs: Any) -> None:
        if hierarchy.depth < 3:
            raise TopologyError(
                "RecursiveRouter needs depth >= 3; use HierarchicalRouter "
                "directly on the bi-level topology"
            )
        self.hierarchy = hierarchy
        self._sub_routers: Dict[GroupId, HierarchicalRouter] = {}
        # the top view's members are the groups' proxies, so the default
        # ground-truth SCT_C is the per-group aggregate
        super().__init__(hierarchy.top_view(), **kwargs)  # type: ignore[arg-type]

    def rebind(self, hfc: HFCTopology) -> None:
        """Not supported: the levels above *hfc* were grouped from the old
        topology's clusters and cannot be carried over."""
        raise RoutingError(
            "a RecursiveRouter cannot be rebound to a topology: the hierarchy "
            "must be rebuilt (build_levels) and a new router constructed on it"
        )

    def _sub_router(self, group_id: GroupId) -> HierarchicalRouter:
        cached = self._sub_routers.get(group_id)
        if cached is None:
            sub = self.hierarchy.sub_hierarchy(group_id)
            if sub.levels:
                cached = RecursiveRouter(sub, method=self.method)
            else:
                cached = HierarchicalRouter(sub.hfc, method=self.method)
            self._sub_routers[group_id] = cached
        return cached

    def _relay_hops(self, child: ChildRequest) -> Tuple[Hop, ...]:
        hops = self.hierarchy.sub_hierarchy(child.cluster).expand_hop(
            child.source_proxy, child.destination_proxy
        )
        return tuple(merge_consecutive_hops([Hop(proxy=p) for p in hops]))

    def _sub_request(
        self, request: ServiceRequest, child: ChildRequest
    ) -> ServiceRequest:
        sg = request.service_graph
        sub_sg = ServiceGraph(
            services={slot: sg.service_of(slot) for slot in child.slots},
            edges=frozenset(zip(child.slots, child.slots[1:])),
        )
        return ServiceRequest(
            source_proxy=child.source_proxy,
            service_graph=sub_sg,
            destination_proxy=child.destination_proxy,
        )

    def _conquer(
        self, jobs: Sequence[Tuple[ServiceRequest, ChildRequest]]
    ) -> List[ChildHops]:
        """Descend one level: one batched call per touched sub-hierarchy.

        Relay-only children cross their group along its internal border
        structure; the others are grouped by top-level group across the
        whole call and resolved by that group's sub-router in one
        ``route_many_detailed``, whose paths' hops are the children's —
        batching is preserved at every level.
        """
        outcomes: List[Any] = [None] * len(jobs)
        buckets: Dict[GroupId, List[int]] = {}
        for at, (_, child) in enumerate(jobs):
            if child.slots:
                buckets.setdefault(child.cluster, []).append(at)
            else:
                outcomes[at] = self._relay_hops(child)
        for group_id, ats in buckets.items():
            result = self._sub_router(group_id).route_many_detailed(
                [self._sub_request(*jobs[at]) for at in ats]
            )
            for at, path, error in zip(ats, result.paths, result.errors):
                outcomes[at] = error if path is None else path.hops
        return outcomes


# -- construction ------------------------------------------------------------------


def base_centroids(hfc: HFCTopology) -> np.ndarray:
    """Per-cluster centroids: the mean of each cluster's member coordinates.

    The exact expression the three-level prototype used, so re-clustering
    these at depth 3 reproduces its grouping bit for bit.
    """
    return np.array(
        [
            hfc.space.array(hfc.members(cid)).mean(axis=0)
            for cid in range(hfc.cluster_count)
        ],
        dtype=float,
    )


def _group_units(
    centroids: np.ndarray,
    *,
    method: str,
    group_count: Optional[int],
    seed,
    config: Optional[ClusteringConfig],
) -> List[List[int]]:
    """Cluster one level's unit centroids into the next level's groups.

    ``kcenter`` (default) targets ``round(sqrt(count))`` balanced groups;
    ``mst`` applies the same Zahn machinery used at level 1. Returns the
    per-group unit-id lists, ids ascending — the prototype's convention.
    """
    space = CoordinateSpace(
        {unit: tuple(row) for unit, row in enumerate(centroids.tolist())}
    )
    if method == "mst":
        clustering = cluster_nodes(
            space, config=config or ClusteringConfig(min_cluster_size=1)
        )
    elif method == "kcenter":
        from repro.cluster.kcenter import kcenter_cluster

        if group_count is None:
            group_count = max(1, int(round(centroids.shape[0] ** 0.5)))
        clustering = kcenter_cluster(space, group_count, seed=seed)
    else:
        raise TopologyError(f"method must be 'kcenter' or 'mst', got {method!r}")
    return [sorted(members) for members in clustering.clusters]


def build_level(
    groups: List[List[int]],
    unit_proxies: List[List[ProxyId]],
    unit_centroids: np.ndarray,
    space: CoordinateSpace,
    row_of: Dict[ProxyId, int],
) -> HierarchyLevel:
    """One :class:`HierarchyLevel` from a fixed grouping of units.

    Centroids are the mean of each group's unit centroids; borders are the
    closest proxy pair across the two groups' full proxy populations (the
    paper's Section-3.3 rule, one level up), elected by the base level's
    :func:`~repro.overlay.hfc.scan_borders` over per-group coordinate
    blocks, each gathered once — so a level breaks ties exactly as the
    base level and the churn layer's per-pair patches do.
    """
    count = len(groups)
    count_below = int(unit_centroids.shape[0])
    parent = np.full(count_below, -1, dtype=np.int64)
    ptr = np.zeros(count + 1, dtype=np.int64)
    members = np.empty(count_below, dtype=np.int64)
    at = 0
    for gid, units in enumerate(groups):
        for u in units:
            parent[u] = gid
            members[at] = u
            at += 1
        ptr[gid + 1] = at
    centroids = np.array(
        [unit_centroids[units].mean(axis=0) for units in groups], dtype=float
    )
    group_proxies = [
        [p for u in units for p in unit_proxies[u]] for units in groups
    ]
    border_matrix = np.full((count, count), -1, dtype=np.int64)
    borders = scan_borders(group_proxies, [space.array(g) for g in group_proxies])
    for (i, j), proxy in borders.items():
        border_matrix[i, j] = row_of[proxy]
    return HierarchyLevel(
        parent=parent,
        ptr=ptr,
        members=members,
        border_matrix=border_matrix,
        centroids=centroids,
    )


def build_levels(
    hfc: HFCTopology,
    depth: int,
    *,
    method: str = "kcenter",
    group_counts: Optional[Sequence[Optional[int]]] = None,
    seed=0,
    config: Optional[ClusteringConfig] = None,
    assignments: Optional[Sequence[Sequence[Sequence[int]]]] = None,
) -> HierarchyLevels:
    """Build a depth-``depth`` recursive hierarchy over *hfc*.

    ``depth=2`` wraps the bi-level topology untouched. Every added level
    re-clusters the level below's centroids (*method*, per-level size
    overrides via *group_counts*) and selects borders by the closest-pair
    rule over the groups' full proxy populations. *assignments*, when
    given, fixes the per-level groupings instead of re-clustering — the
    churn layer's cold-rebuild reference, which recomputes every centroid
    and border from scratch under a known-good assignment.
    """
    if depth < 2:
        raise TopologyError(f"hierarchy depth must be >= 2, got {depth}")
    row_proxies = list(hfc.overlay.proxies)
    hierarchy = HierarchyLevels(hfc=hfc, levels=[], row_proxies=row_proxies)
    if depth == 2:
        return hierarchy
    if assignments is not None and len(assignments) != depth - 2:
        raise TopologyError(
            f"assignments must fix {depth - 2} levels, got {len(assignments)}"
        )
    row_of = {p: r for r, p in enumerate(row_proxies)}
    unit_proxies: List[List[ProxyId]] = [
        list(hfc.members(cid)) for cid in range(hfc.cluster_count)
    ]
    unit_centroids = base_centroids(hfc)
    for index in range(depth - 2):
        if assignments is not None:
            groups = [sorted(units) for units in assignments[index]]
        else:
            groups = _group_units(
                unit_centroids,
                method=method,
                group_count=(
                    group_counts[index]
                    if group_counts is not None and index < len(group_counts)
                    else None
                ),
                seed=seed,
                config=config,
            )
        level = build_level(
            groups, unit_proxies, unit_centroids, hfc.space, row_of
        )
        hierarchy.levels.append(level)
        unit_proxies = [
            [p for u in units for p in unit_proxies[u]] for units in groups
        ]
        unit_centroids = level.centroids
    hierarchy.validate()
    return hierarchy


def levels_from_columnar(state: Any, hfc: HFCTopology) -> HierarchyLevels:
    """Materialise a hierarchy from a columnar state's attached level stack.

    The warm-start path: snapshot restores carry the per-level CSR arrays,
    so no re-clustering or border re-selection runs — the returned
    hierarchy shares the state's arrays (and its cached per-level query
    tables) directly.
    """
    if not state.levels:
        raise TopologyError("columnar state carries no hierarchy levels")
    return HierarchyLevels(
        hfc=hfc,
        levels=list(state.levels),
        row_proxies=[int(p) for p in state.proxies],
        columnar=state,
    )
