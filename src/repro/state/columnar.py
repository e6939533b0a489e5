"""Columnar overlay state: one struct-of-arrays view shared by every kernel.

The vectorized kernels grown in PRs 2/4 (construction, batched routing)
and the incremental membership layer (PR 3) each used to materialise their
own dense views from the object graph: the coordinate space re-stacked its
tuple table per materialisation, ``query_tables`` walked ``Clustering`` /
``borders`` objects, and the churn layer kept a private dict-of-tuples
coordinate store. This module replaces those private views with a single
numpy struct-of-arrays snapshot of the overlay:

* ``proxies``   — ``(n,)`` int64, the overlay proxy list in its canonical
  order (row ``r`` of every other per-proxy column describes proxy
  ``proxies[r]``);
* ``coords``    — ``(n, k)`` float64 coordinates. **This array is the
  storage** of every :class:`~repro.coords.space.CoordinateSpace` view the
  state hands out (:meth:`CoordinateSpace.from_stacked`), so routing
  providers, border selection, and the CSP relaxation all read views of
  the same buffer — zero copies between layers;
* ``labels``    — ``(n,)`` int64 cluster membership;
* ``cluster_ptr`` / ``cluster_members`` — CSR encoding of the per-cluster
  member lists, **preserving the source clustering's member order** (that
  order is load-bearing: border selection breaks argmin ties toward the
  earliest member index);
* ``border_matrix`` — ``(C, C)`` int64; entry ``(i, j)`` is the *row* of
  the border proxy inside cluster ``i`` facing cluster ``j`` (``-1`` on
  the diagonal) — the SCT/border table in dense form;
* ``service_names`` + ``placement_ptr`` / ``placement_codes`` — CSR
  service placement over a sorted service-name vocabulary (codes sorted
  within each row, so the reconstructed frozensets are exact).

``epoch`` / ``step`` record the :class:`~repro.core.versioning.
OverlayVersion` the snapshot was taken at, which is how warm starts
(``repro.persistence`` snapshots, :meth:`DynamicOverlay.from_snapshot`)
resume version-driven consumers instead of resetting them.

The state is immutable by convention: mutating layers (churn) build a new
one via :meth:`from_parts` when asked (``DynamicOverlay.columnar()``);
derived views and the query tables are cached on the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.mstcluster import Clustering
from repro.coords.space import CoordinateSpace
from repro.core.versioning import OverlayVersion
from repro.overlay.network import ProxyId
from repro.services.catalog import ServiceName
from repro.util.errors import StateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (routing imports state)
    from repro.overlay.hfc import HFCTopology
    from repro.overlay.network import OverlayNetwork
    from repro.routing.batch import QueryTables


def attach_columnar(hfc: Any, state: "ColumnarOverlayState") -> None:
    """Attach *state* to *hfc* so shared-view consumers can find it.

    ``repro.routing.batch.query_tables`` consults the attachment and
    reuses the state's cached tables instead of rebuilding dense views
    from the object graph; the attachment survives for the lifetime of
    the topology object (topology mutations materialise new objects, the
    same convention the ``_query_tables_cache`` relies on).
    """
    hfc.columnar = state


@dataclass
class HierarchyLevel:
    """One upper level of a recursive hierarchy, in columnar (CSR) form.

    A depth-``L`` hierarchy stores ``L - 2`` of these: entry ``k`` groups
    the units of level ``k + 1`` (level 1 = the base clusters) into the
    groups of level ``k + 2``. All arrays index *units of the level
    below* by their ids and *proxies* by their row in the owning state's
    ``proxies`` column, so the whole stack shares one coordinate buffer:

    * ``parent``  — ``(count_below,)`` int64, below-unit id -> group id;
    * ``ptr`` / ``members`` — CSR of per-group below-unit lists, ids
      ascending within each group (the build order, load-bearing for the
      border gather);
    * ``border_matrix`` — ``(count, count)`` int64 proxy *rows*; entry
      ``(i, j)`` is the border proxy inside group ``i`` facing group
      ``j`` (``-1`` on the diagonal);
    * ``centroids`` — ``(count, dim)`` float64, each group's centroid
      (mean of its children's centroids), the input of the next level's
      re-clustering.
    """

    parent: np.ndarray         # (count_below,) int64
    ptr: np.ndarray            # (count+1,) int64
    members: np.ndarray        # (count_below,) int64 below-unit ids
    border_matrix: np.ndarray  # (count, count) int64 proxy rows, -1 diagonal
    centroids: np.ndarray      # (count, dim) float64

    @property
    def count(self) -> int:
        """Number of groups at this level."""
        return int(self.border_matrix.shape[0])

    @property
    def count_below(self) -> int:
        """Number of units at the level below."""
        return int(self.parent.shape[0])

    def members_of(self, group_id: int) -> List[int]:
        """Below-unit ids of *group_id*, ascending."""
        if not 0 <= group_id < self.count:
            raise StateError(f"no hierarchy group {group_id}")
        lo, hi = int(self.ptr[group_id]), int(self.ptr[group_id + 1])
        return [int(u) for u in self.members[lo:hi]]

    def groups(self) -> List[List[int]]:
        """All per-group below-unit lists, in group-id order."""
        return [self.members_of(g) for g in range(self.count)]

    def validate(self, count_below: int, dimension: int) -> None:
        """Structural invariants against the level below; raises StateError."""
        c = self.count
        if self.parent.shape != (count_below,):
            raise StateError("hierarchy level: parent shape disagrees")
        if self.ptr.shape != (c + 1,) or self.members.shape != (count_below,):
            raise StateError("hierarchy level: CSR shapes disagree")
        if self.ptr[0] != 0 or self.ptr[-1] != count_below:
            raise StateError("hierarchy level: ptr does not span all units")
        if self.centroids.shape != (c, dimension):
            raise StateError("hierarchy level: centroid shape disagrees")
        if count_below and (
            int(self.parent.min()) < 0 or int(self.parent.max()) >= c
        ):
            raise StateError("hierarchy level: parent outside [0, count)")
        for g in range(c):
            for u in self.members_of(g):
                if int(self.parent[u]) != g:
                    raise StateError("hierarchy level: parent/members disagree")


@dataclass
class ColumnarOverlayState:
    """A struct-of-arrays snapshot of one consistent overlay state."""

    proxies: np.ndarray          # (n,) int64
    coords: np.ndarray           # (n, k) float64 — shared with space views
    labels: np.ndarray           # (n,) int64
    cluster_ptr: np.ndarray      # (C+1,) int64
    cluster_members: np.ndarray  # (n,) int64 row indices, cluster-major
    border_matrix: np.ndarray    # (C, C) int64 row indices, -1 diagonal
    service_names: List[str]     # service code -> name (sorted vocabulary)
    placement_ptr: np.ndarray    # (n+1,) int64
    placement_codes: np.ndarray  # (nnz,) int64, sorted within each row
    epoch: int = 0
    step: int = 0
    levels: List[HierarchyLevel] = field(default_factory=list)
    _space: Optional[CoordinateSpace] = field(default=None, init=False, repr=False)
    _clustering: Optional[Clustering] = field(default=None, init=False, repr=False)
    _tables: Optional["QueryTables"] = field(default=None, init=False, repr=False)
    _level_tables: Dict[int, "QueryTables"] = field(
        default_factory=dict, init=False, repr=False
    )

    # -- shape -------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of proxies n."""
        return int(self.proxies.shape[0])

    @property
    def dimension(self) -> int:
        """Coordinate dimension k."""
        return int(self.coords.shape[1])

    @property
    def cluster_count(self) -> int:
        """Number of clusters C."""
        return int(self.border_matrix.shape[0])

    @property
    def version(self) -> OverlayVersion:
        """The overlay version this state was captured at."""
        return OverlayVersion(self.epoch, self.step)

    def validate(self) -> None:
        """Cheap structural invariants; raises :class:`StateError`."""
        n, c = self.size, self.cluster_count
        if self.coords.shape != (n, self.dimension) or self.labels.shape != (n,):
            raise StateError("columnar state: per-proxy column shapes disagree")
        if self.cluster_ptr.shape != (c + 1,) or self.cluster_members.shape != (n,):
            raise StateError("columnar state: cluster CSR shapes disagree")
        if self.cluster_ptr[0] != 0 or self.cluster_ptr[-1] != n:
            raise StateError("columnar state: cluster_ptr does not span all rows")
        if self.placement_ptr.shape != (n + 1,):
            raise StateError("columnar state: placement_ptr shape disagrees")
        if c and (int(self.labels.min()) < 0 or int(self.labels.max()) >= c):
            raise StateError("columnar state: label outside [0, C)")
        if len(self.placement_codes) and int(self.placement_codes.max()) >= len(
            self.service_names
        ):
            raise StateError("columnar state: placement code outside vocabulary")
        below = c
        for level in self.levels:
            level.validate(below, self.dimension)
            if level.count and (
                int(level.border_matrix.max()) >= n
                or int(level.border_matrix.min()) < -1
            ):
                raise StateError("columnar state: level border row outside [0, n)")
            below = level.count

    def attach_levels(self, levels: List[HierarchyLevel]) -> None:
        """Attach (or replace) the recursive hierarchy's upper-level stack.

        The arrays become part of this state — snapshots round-trip them,
        and :meth:`level_query_tables` serves the per-level CSP tables the
        recursive router consumes zero-copy. Cached tables for any
        previous stack are dropped; the combined state is re-validated.
        """
        self.levels = list(levels)
        self._level_tables.clear()
        self.validate()

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        *,
        proxies: List[ProxyId],
        space: CoordinateSpace,
        clustering: Clustering,
        borders: Mapping[Tuple[int, int], ProxyId],
        placement: Mapping[ProxyId, FrozenSet[ServiceName]],
        version: Optional[OverlayVersion] = None,
        levels: Optional[List[HierarchyLevel]] = None,
    ) -> "ColumnarOverlayState":
        """Build the columnar snapshot of one consistent overlay state.

        Row order follows *proxies* (the overlay's canonical proxy list);
        per-cluster member order follows *clustering* exactly.
        """
        n = len(proxies)
        row = {p: r for r, p in enumerate(proxies)}
        if len(row) != n:
            raise StateError("duplicate proxy ids")
        proxy_arr = np.array(proxies, dtype=np.int64)
        coords = np.ascontiguousarray(space.array(proxies), dtype=float)
        labels = np.array([clustering.cluster_of(p) for p in proxies], dtype=np.int64)
        c = clustering.cluster_count
        ptr = np.zeros(c + 1, dtype=np.int64)
        members = np.empty(n, dtype=np.int64)
        at = 0
        for cid in range(c):
            cluster = clustering.members(cid)
            ptr[cid] = at
            for p in cluster:
                if p not in row or at >= n:
                    raise StateError(
                        "clustering does not cover the proxy list exactly"
                    )
                members[at] = row[p]
                at += 1
        ptr[c] = at
        if at != n:
            raise StateError("clustering does not cover the proxy list exactly")
        border_matrix = np.full((c, c), -1, dtype=np.int64)
        for (i, j), p in borders.items():
            border_matrix[i, j] = row[p]
        vocab = sorted({s for services in placement.values() for s in services})
        code = {s: i for i, s in enumerate(vocab)}
        placement_ptr = np.zeros(n + 1, dtype=np.int64)
        codes: List[int] = []
        for r, p in enumerate(proxies):
            codes.extend(sorted(code[s] for s in placement[p]))
            placement_ptr[r + 1] = len(codes)
        version = version or OverlayVersion()
        state = cls(
            proxies=proxy_arr,
            coords=coords,
            labels=labels,
            cluster_ptr=ptr,
            cluster_members=members,
            border_matrix=border_matrix,
            service_names=vocab,
            placement_ptr=placement_ptr,
            placement_codes=np.array(codes, dtype=np.int64),
            epoch=version.epoch,
            step=version.step,
            levels=list(levels) if levels else [],
        )
        state.validate()
        return state

    @classmethod
    def from_framework(cls, framework: Any) -> "ColumnarOverlayState":
        """The columnar snapshot of a built :class:`HFCFramework`."""
        return cls.from_parts(
            proxies=list(framework.overlay.proxies),
            space=framework.space,
            clustering=framework.clustering,
            borders=framework.hfc.borders,
            placement=framework.overlay.placement,
        )

    # -- scalar accessors ----------------------------------------------------------

    def row_of(self, proxy: ProxyId) -> int:
        """Row index of *proxy* (O(n) scan; views cache their own maps)."""
        hits = np.nonzero(self.proxies == proxy)[0]
        if not len(hits):
            raise StateError(f"unknown proxy {proxy!r}")
        return int(hits[0])

    def members(self, cluster_id: int) -> List[ProxyId]:
        """Member proxies of *cluster_id*, in the source clustering's order."""
        if not 0 <= cluster_id < self.cluster_count:
            raise StateError(f"no cluster {cluster_id}")
        rows = self.cluster_members[
            int(self.cluster_ptr[cluster_id]) : int(self.cluster_ptr[cluster_id + 1])
        ]
        return [int(p) for p in self.proxies[rows]]

    def cluster_block(self, cluster_id: int) -> np.ndarray:
        """Coordinate block of one cluster (gathered from the shared array)."""
        rows = self.cluster_members[
            int(self.cluster_ptr[cluster_id]) : int(self.cluster_ptr[cluster_id + 1])
        ]
        return self.coords[rows]

    def services_of_row(self, r: int) -> FrozenSet[ServiceName]:
        """Service set of row *r*, decoded from the placement CSR."""
        codes = self.placement_codes[
            int(self.placement_ptr[r]) : int(self.placement_ptr[r + 1])
        ]
        return frozenset(self.service_names[int(cd)] for cd in codes)

    def borders_dict(self) -> Dict[Tuple[int, int], ProxyId]:
        """The ``(i, j) -> border proxy`` dict form of ``border_matrix``."""
        out: Dict[Tuple[int, int], ProxyId] = {}
        c = self.cluster_count
        for i in range(c):
            for j in range(c):
                r = int(self.border_matrix[i, j])
                if r >= 0:
                    out[(i, j)] = int(self.proxies[r])
        return out

    def placement_dict(self) -> Dict[ProxyId, FrozenSet[ServiceName]]:
        """The per-proxy service placement, decoded."""
        return {
            int(self.proxies[r]): self.services_of_row(r) for r in range(self.size)
        }

    def shard_views(self, bounds: Sequence[int]) -> List["ColumnarShard"]:
        """Slice the state into contiguous-cluster shards, zero-copy.

        *bounds* is an increasing cluster-boundary sequence
        ``[0, b1, ..., C]``; shard ``s`` owns clusters ``[bounds[s],
        bounds[s+1])``. Because ``cluster_members`` is cluster-major, a
        contiguous cluster range maps to a contiguous member-row range, so
        every array in the returned views is a numpy view into this state's
        storage (``coords`` is the shared buffer itself) — no copies.
        """
        bounds = [int(b) for b in bounds]
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != self.cluster_count:
            raise StateError(f"shard bounds must run 0..{self.cluster_count}, got {bounds}")
        if any(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])):
            raise StateError(f"shard bounds must be strictly increasing, got {bounds}")
        views = []
        for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            r0 = int(self.cluster_ptr[lo])
            r1 = int(self.cluster_ptr[hi])
            views.append(
                ColumnarShard(
                    shard=s,
                    cluster_lo=lo,
                    cluster_hi=hi,
                    cluster_ptr=self.cluster_ptr[lo : hi + 1],
                    member_rows=self.cluster_members[r0:r1],
                    border_rows=self.border_matrix[lo:hi],
                    coords=self.coords,
                    proxies=self.proxies,
                )
            )
        return views

    # -- derived views (cached, zero-copy where the layout allows) -----------------

    def space_view(self) -> CoordinateSpace:
        """A coordinate space whose storage **is** :attr:`coords`."""
        if self._space is None:
            self._space = CoordinateSpace.from_stacked(
                [int(p) for p in self.proxies], self.coords
            )
        return self._space

    def clustering_view(self) -> Clustering:
        """The :class:`Clustering` these columns encode (member order kept)."""
        if self._clustering is None:
            clusters = [self.members(cid) for cid in range(self.cluster_count)]
            labels = {
                int(p): int(cid) for p, cid in zip(self.proxies, self.labels)
            }
            self._clustering = Clustering(clusters=clusters, labels=labels)
        return self._clustering

    def overlay_view(self, physical: Any) -> "OverlayNetwork":
        """An :class:`OverlayNetwork` over *physical* sharing the space view."""
        from repro.overlay.network import OverlayNetwork

        return OverlayNetwork(
            physical=physical,
            proxies=[int(p) for p in self.proxies],
            placement=self.placement_dict(),
            space=self.space_view(),
        )

    def hfc_view(self, physical: Any) -> "HFCTopology":
        """The full HFC topology view, with this state attached.

        The returned topology shares the columnar coordinate array through
        its space, carries ``columnar = self`` (so
        :func:`repro.routing.batch.query_tables` reuses
        :meth:`query_tables` instead of walking the object graph), and is
        exactly what a scratch ``build_hfc`` over the same inputs yields —
        the equivalence suite asserts identical routing.
        """
        from repro.overlay.hfc import HFCTopology

        hfc = HFCTopology(
            overlay=self.overlay_view(physical),
            clustering=self.clustering_view(),
            space=self.space_view(),
            borders=self.borders_dict(),
        )
        attach_columnar(hfc, self)
        return hfc

    def query_tables(self) -> "QueryTables":
        """The dense CSP relaxation tables, built from the columns.

        Shape, code assignment order, and every float are identical to
        :func:`repro.routing.batch.query_tables` over the equivalent
        object graph: entries are computed with the same scalar
        ``math.dist`` element calls on the same coordinates, discovered in
        the same ``(i, j)`` scan order — so the vectorized relaxation's
        argmin tie-breaks cannot diverge. Cached on the state, which is
        what makes the tables *shared*: every hfc/router materialised from
        this state sees one table instance.
        """
        if self._tables is None:
            self._tables = self._tables_from_matrix(self.border_matrix)
        return self._tables

    def level_query_tables(self, index: int) -> "QueryTables":
        """CSP relaxation tables over one *upper* level's border matrix.

        ``index`` selects ``levels[index]``; the resulting tables treat
        that level's groups as the "clusters" of the relaxation, reading
        border proxies and coordinates straight from the shared columns
        (same scalar ``math.dist`` calls, same ``(i, j)`` scan order as
        :meth:`query_tables`). Cached per level on the state, so every
        recursive router materialised from this state shares one table
        instance per level — the zero-copy path the batched top-level
        relaxation consumes.
        """
        if not 0 <= index < len(self.levels):
            raise StateError(f"no hierarchy level {index}")
        if index not in self._level_tables:
            self._level_tables[index] = self._tables_from_matrix(
                self.levels[index].border_matrix
            )
        return self._level_tables[index]

    def _tables_from_matrix(self, border_matrix: np.ndarray) -> "QueryTables":
        from repro.routing.batch import build_query_tables

        proxies, rows = self.proxies.tolist(), border_matrix.tolist()
        used = sorted({row for line in rows for row in line if row >= 0})
        point = {proxies[row]: tuple(self.coords[row].tolist()) for row in used}
        return build_query_tables(
            len(rows),
            lambda i, j: proxies[rows[i][j]],
            lambda u, v: math.dist(point[u], point[v]),
        )


@dataclass(frozen=True)
class ColumnarShard:
    """One shard's zero-copy window onto a :class:`ColumnarOverlayState`.

    Shards own contiguous cluster-id ranges so every field below is a view
    (``np.shares_memory`` with the parent arrays holds); ``coords`` and
    ``proxies`` are the parent's shared buffers. ``cluster_ptr`` keeps the
    parent's global row offsets — subtract ``row_lo`` for shard-local
    indexing.
    """

    shard: int
    cluster_lo: int
    cluster_hi: int
    cluster_ptr: np.ndarray   # (C_s + 1,) view into the parent cluster_ptr
    member_rows: np.ndarray   # row indices of the shard's proxies (view)
    border_rows: np.ndarray   # (C_s, C) view into the parent border_matrix
    coords: np.ndarray        # the parent's shared coordinate buffer
    proxies: np.ndarray       # the parent's shared proxy-id column

    @property
    def cluster_count(self) -> int:
        """Number of clusters owned by this shard."""
        return self.cluster_hi - self.cluster_lo

    @property
    def size(self) -> int:
        """Number of proxies owned by this shard."""
        return int(self.member_rows.shape[0])

    @property
    def row_lo(self) -> int:
        """First global member-row offset covered by this shard."""
        return int(self.cluster_ptr[0])

    def proxy_ids(self) -> List[ProxyId]:
        """The shard's proxy ids (gather — the one non-view accessor)."""
        return [int(p) for p in self.proxies[self.member_rows]]
