"""Dynamic membership — the paper's first future-work item (Section 7).

"While we can let future proxies join clusters of their nearest neighbors,
multiple joins and leaves may deteriorate the quality of clustering. Hence
some kind of re-structuring mechanism needs to be devised."

This module implements exactly that design, *incrementally*:

* **join**: a new proxy measures its delays to the landmarks, derives its
  coordinates (the Section 3.1 machinery), and joins the cluster of its
  geometrically nearest existing proxy;
* **leave**: a proxy is removed; border pairs it served are re-selected;
* **quality tracking**: clustering quality (separation ratio) is monitored
  against the quality a fresh re-clustering would achieve;
* **restructuring**: when quality degrades beyond a configurable tolerance,
  the overlay re-clusters from scratch (the elected proxy P re-runs
  Section 3.2/3.3).

A join or leave touches exactly one cluster, so it patches the overlay in
place: the affected cluster's member list and coordinate block are rebuilt
(O(cluster)), and border selection re-runs — through the full scan's own
kernel (:func:`repro.overlay.hfc.patch_borders_for_cluster`) — only for the
pairs of that cluster the event can have moved: the ones a leaver bordered,
the ones a joiner is at least as close to as the current pair
(:meth:`DynamicOverlay._touched` says why that is exact). Full
reconstruction is reserved for :meth:`DynamicOverlay.restructure`. The
derived ``space`` / ``clustering`` / ``overlay`` / ``hfc`` objects are
materialised lazily on first access after a change, so a burst of churn
events does not pay O(n) per event for views nobody reads.
``tests/test_incremental_equivalence.py`` proves the patched topology equals
a rebuilt one (``tests/oracles/churn.py``) after every event.

Every event advances :attr:`DynamicOverlay.version` (an
:class:`~repro.core.versioning.OverlayVersion`: restructures bump the
epoch, joins/leaves the step) and fires :attr:`DynamicOverlay.notifier`,
which is how the state and routing layers learn that their capability
views are out of date.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cluster.mstcluster import Clustering, ClusteringConfig, cluster_nodes
from repro.cluster.quality import separation_ratio
from repro.coords.embedding import solve_host
from repro.coords.neldermead import MinimizeResult
from repro.coords.space import CoordinateSpace, cross_distances, paired_distances
from repro.core.framework import HFCFramework
from repro.core.versioning import ChangeNotifier, OverlayVersion
from repro.overlay.hfc import (
    HFCTopology,
    drop_cluster_from_borders,
    patch_borders_for_cluster,
    scan_borders,
)
from repro.overlay.network import OverlayNetwork, ProxyId
from repro.services.catalog import ServiceName
from repro.telemetry import Telemetry, get_telemetry
from repro.util.errors import ClusteringError, MembershipError
from repro.util.rng import RngLike, ensure_rng

import numpy as np


@dataclass
class ChurnEvent:
    """A recorded membership change."""

    kind: str  # "join" | "leave" | "restructure"
    proxy: Optional[ProxyId]
    cluster: Optional[int]
    #: quality after the event; None when quality tracking is disabled
    quality_after: Optional[float]
    #: closest-pair launches the event made, upper levels included
    pairs_reduced: int = 0


@dataclass
class DynamicOverlay:
    """A mutable view over an HFC overlay that supports joins and leaves.

    Wraps a built :class:`HFCFramework`; every mutation leaves a
    consistent (overlay, clustering, HFC) triple reachable through
    :attr:`overlay`, :attr:`clustering` and :attr:`hfc` — materialised
    lazily from the patched internal state. The wrapped framework itself
    is never mutated.
    """

    framework: HFCFramework
    #: re-cluster automatically when quality drops below
    #: ``restructure_tolerance * fresh_quality`` (None disables)
    restructure_tolerance: Optional[float] = 0.7
    history: List[ChurnEvent] = field(default_factory=list)
    #: observability scope (default: the process-wide one)
    telemetry: Optional[Telemetry] = None
    #: compute the separation ratio after every event (O(n²/k)); disable
    #: for throughput-sensitive churn driving
    track_quality: bool = True

    def __post_init__(self) -> None:
        if self.telemetry is None:
            self.telemetry = get_telemetry()
        fw = self.framework
        # Columnar coordinate storage: one growing (capacity, k) float64
        # array plus proxy -> row and a free-row list. Blocks and space
        # views gather rows from this array, so a churn session maintains
        # one coordinate buffer instead of a dict of per-proxy tuples
        # (same floats either way — fw.space hands out exact float64).
        proxies = list(fw.overlay.proxies)
        self._coord_arr: np.ndarray = np.ascontiguousarray(
            fw.space.array(proxies), dtype=float
        )
        self._coord_row: Dict[ProxyId, int] = {
            p: i for i, p in enumerate(proxies)
        }
        self._free_rows: List[int] = []
        self._placement: Dict[ProxyId, FrozenSet[ServiceName]] = dict(
            fw.overlay.placement
        )
        self._cluster_config: ClusteringConfig = fw.config.clustering
        self.version = OverlayVersion()
        self.notifier = ChangeNotifier()
        #: mutable recursive-hierarchy spec (None until attach_hierarchy):
        #: per upper level {"groups", "borders", "centroids"}, maintained
        #: incrementally along the churned spine
        self._hier_levels: Optional[List[Dict]] = None
        self._hier_meta: Optional[Dict] = None
        self._hier_base_centroids: Optional[np.ndarray] = None
        self._adopt_labels(dict(fw.clustering.labels))
        self._refresh_borders()
        self._invalidate_views()

    # -- views ---------------------------------------------------------------

    @property
    def proxies(self) -> List[ProxyId]:
        """Current proxy population."""
        return list(self._labels)

    @property
    def size(self) -> int:
        """Current overlay size."""
        return len(self._labels)

    def __contains__(self, proxy: ProxyId) -> bool:
        return proxy in self._labels

    def is_member(self, proxy: ProxyId) -> bool:
        """Whether *proxy* is currently part of the overlay (O(1))."""
        return proxy in self._labels

    @property
    def space(self) -> CoordinateSpace:
        """The current coordinate space (materialised lazily)."""
        if self._space_view is None:
            proxies = list(self._labels)
            rows = [self._coord_row[p] for p in proxies]
            self._space_view = CoordinateSpace.from_stacked(
                proxies, self._coord_arr[rows]
            )
        return self._space_view

    @property
    def clustering(self) -> Clustering:
        """The current clustering (materialised lazily)."""
        if self._clustering_view is None:
            self._clustering_view = Clustering(
                clusters=[list(c) for c in self._clusters],
                labels=dict(self._labels),
            )
        return self._clustering_view

    @property
    def overlay(self) -> OverlayNetwork:
        """The current overlay network (materialised lazily)."""
        if self._overlay_view is None:
            proxies = list(self._labels)
            self._overlay_view = OverlayNetwork(
                physical=self.framework.physical,
                proxies=proxies,
                placement={p: self._placement[p] for p in proxies},
                space=self.space,
            )
        return self._overlay_view

    @property
    def hfc(self) -> HFCTopology:
        """The current HFC topology (materialised lazily)."""
        if self._hfc_view is None:
            self._hfc_view = HFCTopology(
                overlay=self.overlay,
                clustering=self.clustering,
                space=self.space,
                borders=dict(self._borders),
            )
        return self._hfc_view

    def columnar(self):
        """The current overlay state as one struct-of-arrays snapshot.

        Builds a :class:`~repro.state.columnar.ColumnarOverlayState` from
        the live membership state (stamped with :attr:`version`), which is
        what ``repro.persistence.save_snapshot`` serialises — a consistent
        point-in-time capture, decoupled from later churn.
        """
        from repro.state.columnar import ColumnarOverlayState

        proxies = list(self._labels)
        return ColumnarOverlayState.from_parts(
            proxies=proxies,
            space=self.space,
            clustering=self.clustering,
            borders=self._borders,
            placement={p: self._placement[p] for p in proxies},
            version=self.version,
            levels=(
                list(self.hierarchy().levels)
                if self._hier_levels is not None
                else None
            ),
        )

    # -- recursive hierarchy ------------------------------------------------------

    def attach_hierarchy(
        self,
        levels: int = 3,
        *,
        method: str = "kcenter",
        seed=0,
        group_counts=None,
    ):
        """Build a depth-*levels* recursive hierarchy and keep it patched.

        After attaching, every join/leave patches the level
        stack along the affected spine only: the churned cluster's
        centroid, its ancestor groups' centroids, and those ancestors'
        border pairs the event can have moved are re-selected — the
        upper-level *assignment* stays sticky, exactly like cluster
        membership does for the base level. :meth:`restructure` re-derives
        the assignment from scratch instead. The patched stack is bit-identical to
        ``build_levels(self.hfc, depth, assignments=<current groups>)``
        (the equivalence suite asserts this).
        """
        from repro.hierarchy.levels import build_levels

        hierarchy = build_levels(
            self.hfc, levels, method=method, seed=seed, group_counts=group_counts
        )
        self._hier_meta = {
            "depth": levels,
            "method": method,
            "seed": seed,
            "group_counts": group_counts,
        }
        self._adopt_hierarchy(hierarchy)
        return self.hierarchy()

    def hierarchy(self):
        """The current recursive hierarchy (materialised lazily).

        Raises :class:`MembershipError` until :meth:`attach_hierarchy` has
        run. The returned object snapshots the patched spec — centroids
        copied, borders re-coded against the current proxy rows — so it
        stays consistent if churn continues afterwards.
        """
        if self._hier_levels is None:
            raise MembershipError("no hierarchy attached; call attach_hierarchy")
        if self._hierarchy_view is None:
            from repro.hierarchy.levels import HierarchyLevels
            from repro.state.columnar import HierarchyLevel

            row_proxies = list(self._labels)
            row_of = {p: r for r, p in enumerate(row_proxies)}
            out: List = []
            count_below = len(self._clusters)
            for spec in self._hier_levels:
                groups = spec["groups"]
                count = len(groups)
                parent = np.full(count_below, -1, dtype=np.int64)
                ptr = np.zeros(count + 1, dtype=np.int64)
                members: List[int] = []
                for gid, units in enumerate(groups):
                    for u in units:
                        parent[u] = gid
                    members.extend(units)
                    ptr[gid + 1] = len(members)
                border = np.full((count, count), -1, dtype=np.int64)
                for (i, j), proxy in spec["borders"].items():
                    border[i, j] = row_of[proxy]
                out.append(
                    HierarchyLevel(
                        parent=parent,
                        ptr=ptr,
                        members=np.array(members, dtype=np.int64),
                        border_matrix=border,
                        centroids=spec["centroids"].copy(),
                    )
                )
                count_below = count
            self._hierarchy_view = HierarchyLevels(
                hfc=self.hfc, levels=out, row_proxies=row_proxies
            )
            self._hierarchy_view.validate()
        return self._hierarchy_view

    def _adopt_hierarchy(self, hierarchy) -> None:
        """Install *hierarchy* as the mutable spec the patch paths maintain."""
        self._hier_base_centroids = np.array(
            [block.mean(axis=0) for block in self._blocks], dtype=float
        )
        spec_levels: List[Dict] = []
        for level in hierarchy.levels:
            groups = [list(level.members_of(g)) for g in range(level.count)]
            borders: Dict[Tuple[int, int], ProxyId] = {}
            for i in range(level.count):
                for j in range(level.count):
                    if i != j and level.border_matrix[i, j] >= 0:
                        borders[(i, j)] = hierarchy.row_proxies[
                            int(level.border_matrix[i, j])
                        ]
            spec_levels.append(
                {
                    "groups": groups,
                    "borders": borders,
                    "centroids": level.centroids.copy(),
                }
            )
        self._hier_levels = spec_levels
        self._hierarchy_view = None

    def _rebuild_hierarchy(self) -> None:
        """Re-derive the hierarchy assignment from scratch (restructure path)."""
        if self._hier_levels is None:
            return
        from repro.hierarchy.levels import build_levels

        self._invalidate_views()  # the base state just changed wholesale
        meta = self._hier_meta or {}
        hierarchy = build_levels(
            self.hfc,
            meta.get("depth", 2 + len(self._hier_levels)),
            method=meta.get("method", "kcenter"),
            seed=meta.get("seed", 0),
            group_counts=meta.get("group_counts"),
        )
        self._adopt_hierarchy(hierarchy)

    def _hier_patch_from(
        self, start: int, unit: int, minima: Optional[np.ndarray], leaver: ProxyId
    ) -> int:
        """Patch the spine above *unit*, a unit of upper level *start*.

        All a join/leave pays per level: the ancestor group's centroid and
        the base level's rule one level up (:meth:`_touched`; a group's
        minimum is the minimum of its units') — the same kernel over the
        same build-order populations as a cold build, gathered only for
        the groups a re-reduced pair names, so the stack stays bit-identical
        to rebuilding under the current assignment. Returns the launches.
        """
        levels = self._hier_levels
        unit_centroids = (
            levels[start - 1]["centroids"] if start else self._hier_base_centroids
        )
        launches = 0
        for idx in range(start, len(levels)):
            spec = levels[idx]
            groups = spec["groups"]
            gid = next(g for g, units in enumerate(groups) if unit in units)
            spec["centroids"][gid] = unit_centroids[groups[gid]].mean(axis=0)
            if minima is not None:
                minima = np.array([minima[units].min() for units in groups])
            others = self._touched(spec["borders"], gid, len(groups), minima, leaver)
            members, blocks = {}, {}
            for g in (gid, *others) if others else ():
                members[g], blocks[g] = self._hier_group(idx, g)
            patch_borders_for_cluster(spec["borders"], gid, members, blocks, others)
            launches += len(others)
            unit, unit_centroids = gid, spec["centroids"]
        return launches

    def _hier_group(self, idx: int, gid: int) -> Tuple[List[ProxyId], np.ndarray]:
        """Group *gid* of upper level *idx*: proxies in build order, block."""
        units = [gid]
        for spec in reversed(self._hier_levels[: idx + 1]):
            units = [u for unit in units for u in spec["groups"][unit]]
        return (
            [p for c in units for p in self._clusters[c]],
            np.concatenate([self._blocks[c] for c in units]),
        )

    def _hier_drop_cluster(self, cluster_id: int, leaver: ProxyId) -> int:
        """A base cluster vanished: unthread it from the level stack.

        Mirrors the base level's compaction: the unit is removed from its
        parent group and higher unit ids shift down; an emptied group is
        itself removed the same way one level up (cascading). The
        surviving ancestor spine is then re-centroided and loses *leaver*
        as any other leave does. Returns the launches that took.
        """
        if self._hier_levels is None:
            return 0
        self._hier_base_centroids = np.delete(
            self._hier_base_centroids, cluster_id, axis=0
        )
        removed = cluster_id
        for idx, spec in enumerate(self._hier_levels):
            groups = spec["groups"]
            gid = next(
                g for g, units in enumerate(groups) if removed in units
            )
            for g in range(len(groups)):
                groups[g] = [
                    u - (1 if u > removed else 0)
                    for u in groups[g]
                    if u != removed
                ]
            if groups[gid]:
                return self._hier_patch_from(idx, groups[gid][0], None, leaver)
            del groups[gid]
            spec["centroids"] = np.delete(spec["centroids"], gid, axis=0)
            spec["borders"] = {
                (
                    i - (1 if i > gid else 0),
                    j - (1 if j > gid else 0),
                ): proxy
                for (i, j), proxy in spec["borders"].items()
                if i != gid and j != gid
            }
            removed = gid
        # the whole spine vanished through the top: the remaining groups'
        # populations are untouched, so nothing is left to re-select
        return 0

    @classmethod
    def from_snapshot(cls, snapshot, **kwargs) -> "DynamicOverlay":
        """Warm-start a dynamic overlay from a loaded snapshot.

        *snapshot* is a ``repro.persistence.OverlaySnapshot``; the restored
        framework skips re-embedding and re-clustering (the dominant cost
        of a cold build), and the overlay resumes at the snapshot's
        :class:`~repro.core.versioning.OverlayVersion` so version-driven
        consumers (router caches, capability feeds) keep their ordering. A
        level stack the snapshot carries comes back attached, under the
        assignment it was saved with; a later :meth:`restructure`
        re-derives it with :meth:`attach_hierarchy`'s defaults.
        """
        from repro.hierarchy.levels import HierarchyLevels

        dyn = cls(snapshot.framework, **kwargs)
        dyn.version = snapshot.version
        levels = snapshot.columnar.levels
        if levels:
            dyn._hier_meta = {"depth": 2 + len(levels)}
            hfc = snapshot.framework.hfc
            dyn._adopt_hierarchy(
                HierarchyLevels(hfc=hfc, levels=list(levels), row_proxies=hfc.overlay.proxies)
            )
        return dyn

    # -- mutations --------------------------------------------------------------

    def locate(self, router: int, *, probes: int = 3) -> Tuple[float, ...]:
        """Coordinates for physical *router* from landmark measurements.

        Uses the landmark-side batched measurement path, so a join costs
        one cached Dijkstra per landmark instead of one from the joining
        router.
        """
        return tuple(float(x) for x in self._solve(router, probes).x)

    def _solve(self, router: int, probes: int) -> MinimizeResult:
        """The descent behind :meth:`locate`, iteration count and all."""
        fw = self.framework
        landmarks = fw.embedding_report.landmark_ids
        landmark_coords = np.asarray(fw.embedding_report.landmark_coordinates)
        measured = fw.physical.measure_many([router], landmarks, probes=probes)[0]
        return solve_host(landmark_coords, measured)

    def join(
        self,
        router: int,
        services: FrozenSet[ServiceName],
        *,
        probes: int = 3,
        coords: Optional[Sequence[float]] = None,
    ) -> ProxyId:
        """A proxy on physical *router* joins the overlay.

        It derives coordinates from landmark measurements (or takes
        pre-measured *coords*, e.g. replayed by the equivalence suite) and
        joins the cluster of its geometrically nearest existing proxy (the
        paper's suggested rule). Only that cluster's membership and the
        border pairs the joiner can have taken over are recomputed.
        """
        if router in self._labels:
            raise MembershipError(f"proxy {router!r} is already a member")
        detail = {}
        if coords is None:
            # a measurement no descent can use raises here, nothing touched yet
            solved = self._solve(router, probes)
            coords, detail = solved.x, {"locate_iterations": solved.iterations}
        point = np.asarray(coords, dtype=float)
        if point.shape != self._coord_arr.shape[1:] or not np.isfinite(point).all():
            raise MembershipError(
                f"proxy {router!r} cannot join at {point.tolist()}: not a finite "
                f"point of dimension {self._coord_arr.shape[1]}"
            )
        cluster_id, minima = self._nearest_cluster(point)
        row = self._free_rows.pop() if self._free_rows else self._alloc_row()
        self._coord_arr[row] = point
        self._coord_row[router] = row
        self._placement[router] = frozenset(services)
        self._labels[router] = cluster_id
        members = list(self._clusters[cluster_id])
        insort(members, router)
        self._clusters[cluster_id] = members
        self._blocks[cluster_id] = self._block(members)
        self._patch_event("join", router, cluster_id, minima, **detail)
        self._maybe_restructure()
        return router

    def leave(self, proxy: ProxyId) -> None:
        """Proxy *proxy* leaves the overlay.

        Only its cluster is patched; if it was the cluster's last member
        the cluster vanishes and the surviving cluster ids compact downward
        (exactly as a full rebuild would).
        """
        if proxy not in self._labels:
            raise MembershipError(f"proxy {proxy!r} is not a member")
        if len(self._labels) <= 2:
            raise MembershipError("cannot shrink the overlay below 2 proxies")
        cluster_id = self._labels.pop(proxy)
        self._free_rows.append(self._coord_row.pop(proxy))
        del self._placement[proxy]
        members = [p for p in self._clusters[cluster_id] if p != proxy]
        if members:
            self._clusters[cluster_id] = members
            self._blocks[cluster_id] = self._block(members)
            self._patch_event("leave", proxy, cluster_id)
        else:
            del self._clusters[cluster_id]
            del self._blocks[cluster_id]
            for p, c in self._labels.items():
                if c > cluster_id:
                    self._labels[p] = c - 1
            self._borders = drop_cluster_from_borders(
                self._borders, cluster_id
            )
            self._finish_event(
                "leave", proxy, upper=self._hier_drop_cluster(cluster_id, proxy)
            )
        self._maybe_restructure()

    def restructure(self) -> None:
        """Re-run clustering from scratch (the elected proxy P's re-run).

        The only full rebuild; it advances the version epoch because
        cluster ids are reassigned wholesale.
        """
        clustering = cluster_nodes(
            self.space, list(self._labels), self._cluster_config
        )
        self._adopt_labels(dict(clustering.labels))
        self._refresh_borders()
        self._rebuild_hierarchy()
        self._finish_event(
            "restructure",
            None,
            epoch=True,
            reelected=[pair for pair in self._borders if pair[0] < pair[1]],
            upper=sum(len(s["borders"]) for s in self._hier_levels or ()) // 2,
        )

    # -- quality ------------------------------------------------------------------

    def quality(self) -> float:
        """Current clustering quality (inter/intra separation ratio)."""
        if len(self._clusters) < 2:
            return float("inf")
        try:
            return separation_ratio(self.space, self.clustering)
        except ClusteringError:
            # degenerate layout (e.g. no cluster with >= 2 members): no
            # defined ratio, but not a programming error
            return float("nan")

    def fresh_quality(self) -> float:
        """Quality a from-scratch re-clustering would achieve right now."""
        clustering = cluster_nodes(self.space, list(self._labels), self._cluster_config)
        if clustering.cluster_count < 2:
            return float("inf")
        return separation_ratio(self.space, clustering)

    # -- internals ---------------------------------------------------------------

    def _alloc_row(self) -> int:
        """A fresh row in the coordinate array, doubling capacity when full."""
        top = len(self._coord_row) + len(self._free_rows)
        if top == self._coord_arr.shape[0]:
            grown = np.empty(
                (max(8, 2 * top), self._coord_arr.shape[1]), dtype=float
            )
            grown[:top] = self._coord_arr
            self._coord_arr = grown
        return top

    def _block(self, members: Sequence[ProxyId]) -> np.ndarray:
        """The coordinate block of *members* (same values as space.array)."""
        return self._coord_arr[[self._coord_row[p] for p in members]]

    def _adopt_labels(self, labels: Dict[ProxyId, int]) -> None:
        """Install *labels*, compacting cluster ids to 0..k-1 (sorted order)."""
        proxies = list(labels)
        ids = sorted({labels[p] for p in proxies})
        remap = {old: new for new, old in enumerate(ids)}
        clusters: List[List[ProxyId]] = [[] for _ in ids]
        for p in proxies:
            labels[p] = remap[labels[p]]
            clusters[labels[p]].append(p)
        self._labels = labels
        self._clusters = [sorted(c) for c in clusters]
        self._blocks = [self._block(c) for c in self._clusters]

    def _refresh_borders(self) -> None:
        """Full closest-pair border scan over the current blocks."""
        self._borders = scan_borders(self._clusters, self._blocks)

    def _nearest_cluster(self, point: np.ndarray) -> Tuple[int, np.ndarray]:
        """The cluster of the member closest to *point* (the first such
        cluster on a tie), and *point*'s minimum distance to every cluster:
        one kernel launch against the stacked blocks."""
        d = cross_distances(point[None, :], np.concatenate(self._blocks))[0]
        starts = np.cumsum([0] + [len(c) for c in self._clusters[:-1]])
        minima = np.minimum.reduceat(d, starts)
        return int(np.argmin(minima)), minima

    def _touched(
        self,
        borders: Dict[Tuple[int, int], ProxyId],
        unit: int,
        count: int,
        minima: Optional[np.ndarray],
        leaver: ProxyId,
    ) -> List[int]:
        """The units ``j`` whose border pair with *unit* an event can have moved.

        A leaver moves the pairs it bordered; a joiner (*minima* given: its
        minimum distance to every unit) those it is at least as close to as
        the pair's current distance. Exact, not a heuristic: an argmin with
        earliest-position ties is unchanged by removing a non-chosen entry
        or by inserting strictly larger ones, and both sides of the ``<=``
        are the kernel's own floats.
        """
        others = [j for j in range(count) if j != unit]
        if minima is None:
            return [j for j in others if borders[(unit, j)] == leaver]
        row = self._coord_row
        near = self._coord_arr[[row[borders[(unit, j)]] for j in others]]
        far = self._coord_arr[[row[borders[(j, unit)]] for j in others]]
        hit = minima[others] <= paired_distances(near, far)
        return [j for j, moved in zip(others, hit.tolist()) if moved]

    def _patch_event(
        self,
        kind: str,
        proxy: ProxyId,
        cluster_id: int,
        minima: Optional[np.ndarray] = None,
        **detail: int,
    ) -> None:
        """Re-elect what *proxy*'s join (*minima* given) or leave moved, at
        the base level and up the spine; *detail* goes on the event record."""
        others = self._touched(
            self._borders, cluster_id, len(self._clusters), minima, proxy
        )
        patch_borders_for_cluster(
            self._borders, cluster_id, self._clusters, self._blocks, others
        )
        upper = 0
        if self._hier_levels is not None:
            self._hier_base_centroids[cluster_id] = self._blocks[cluster_id].mean(
                axis=0
            )
            upper = self._hier_patch_from(0, cluster_id, minima, proxy)
        self._finish_event(
            kind,
            proxy,
            reelected=[tuple(sorted((cluster_id, j))) for j in others],
            upper=upper,
            **detail,
        )

    def _invalidate_views(self) -> None:
        self._space_view: Optional[CoordinateSpace] = None
        self._clustering_view: Optional[Clustering] = None
        self._overlay_view: Optional[OverlayNetwork] = None
        self._hfc_view: Optional[HFCTopology] = None
        self._hierarchy_view = None

    def _finish_event(
        self,
        kind: str,
        proxy: Optional[ProxyId],
        *,
        epoch: bool = False,
        reelected: Sequence[Tuple[int, int]] = (),
        upper: int = 0,
        **detail: int,
    ) -> None:
        """Version, record and announce an event that re-elected the base
        pairs *reelected* and made *upper* more launches up the spine."""
        self._invalidate_views()
        self.version = (
            self.version.bump_epoch() if epoch else self.version.bump()
        )
        self._record(kind, proxy, len(reelected) + upper, **detail)
        self.notifier.notify(
            self.version, kind=kind, proxy=proxy, reelected=list(reelected)
        )

    def _record(
        self, kind: str, proxy: Optional[ProxyId], pairs_reduced: int, **detail: int
    ) -> None:
        quality = self.quality() if self.track_quality else None
        cluster = self._labels.get(proxy) if proxy is not None else None
        self.history.append(
            ChurnEvent(kind, proxy, cluster, quality, pairs_reduced)
        )
        telemetry = self.telemetry
        if telemetry is None:
            return
        telemetry.events.record(
            f"membership.{kind}",
            proxy=proxy,
            cluster=cluster,
            overlay_size=self.size,
            clusters=len(self._clusters),
            quality=quality,
            pairs_reduced=pairs_reduced,
            **detail,
        )
        telemetry.registry.counter("membership.events", kind=kind).inc()
        telemetry.registry.counter(
            "membership.border_pairs_reduced", kind=kind
        ).inc(pairs_reduced)
        telemetry.registry.gauge("membership.overlay_size").set(self.size)
        telemetry.registry.gauge("membership.cluster_count").set(
            len(self._clusters)
        )

    def _maybe_restructure(self) -> None:
        if self.restructure_tolerance is None:
            return
        current = self.quality()
        fresh = self.fresh_quality()
        if not (current == current and fresh == fresh):  # NaN guard
            return
        if fresh > 0 and current < self.restructure_tolerance * fresh:
            self.restructure()


def run_churn_session(
    framework: HFCFramework,
    *,
    events: int = 40,
    join_probability: float = 0.5,
    seed: RngLike = None,
    restructure_tolerance: Optional[float] = 0.7,
) -> DynamicOverlay:
    """Drive a random churn session against *framework* (the E1 study).

    Joins pick random unused stub routers and random service subsets from
    the catalog; leaves pick random current members. Returns the
    :class:`DynamicOverlay` with its full event history.
    """
    rng = ensure_rng(seed)
    dyn = DynamicOverlay(framework, restructure_tolerance=restructure_tolerance)
    catalog = list(framework.catalog.names)
    used = set(dyn.proxies)
    free = [s for s in framework.physical.topology.stub_nodes if s not in used]
    rng.shuffle(free)
    for _ in range(events):
        do_join = rng.random() < join_probability and free
        if do_join:
            router = free.pop()
            count = rng.randint(4, min(10, len(catalog)))
            dyn.join(router, frozenset(rng.sample(catalog, count)))
        elif dyn.size > 3:
            dyn.leave(rng.choice(dyn.proxies))
    return dyn
