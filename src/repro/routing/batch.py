"""What the requests of one routing call share.

Routing resolves every request against the same slowly changing structures
— the border tables of the HFC topology, the member lists of the clusters a
resolution crosses. This module hosts the structures one pipeline call
(:meth:`HierarchicalRouter._resolve`, for one request or a thousand) shares:

* :func:`query_tables` — dense numpy tables over the cluster-level border
  structure (external link lengths, border identities, intra-cluster
  border-to-border segments). They are built from the **same scalar calls**
  the reference relaxation makes (``hfc.external_estimate``,
  ``space.distance``), so the vectorized relaxation consumes bit-identical
  floats and can promise bit-identical cluster-level paths. The tables are
  cached on the topology object itself (the convention ``_matrices`` and
  the border tables already follow): dynamic membership materialises
  a fresh topology after every churn event, so the cache can never go
  stale.
* :func:`child_specs` — the conquer candidates of a call's children, from
  each touched cluster's provider index, and :func:`offering_index`, the map
  step's; :mod:`repro.routing.rebind` carries all of them to the next view,
  patched from its changes.
* :class:`ClusterCosts` — the CSP stage's gather for the one service-DAG
  kernel (:func:`~repro.routing.kernel.relax`), and :func:`solve_specs`, the
  conquer's call of it under :class:`~repro.routing.kernel.ProxyCosts`.
* :class:`BatchRouteResult` — aligned per-request outcomes of a batch.

Only intra-cluster border pairs enter the ``d_border`` table: the
back-tracking cost model charges internal segments exclusively between two
borders of the *same* cluster (the entry border and the exit border), and
a destination proxy genuinely cannot estimate distances it holds no
coordinates for — the paper-example regression suite enforces this by
raising on any other distance query.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right, insort
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, compress, repeat
from operator import add, itemgetter
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.routing.kernel import _INDEX, Costs, ProxyCosts, Ragged, Shape, first_mins, relax
from repro.routing.path import ServicePath
from repro.routing.providers import CoordinateProvider
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.tracing import Tracer
from repro.util.errors import NoFeasiblePathError

ClusterId = int

#: histogram buckets for batch sizes (requests per route_many call)
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)


# -- per-batch outcome ---------------------------------------------------------


@dataclass
class BatchRouteResult:
    """Aligned per-request outcomes of one ``route_many`` call.

    For every request index exactly one of ``paths[i]`` / ``errors[i]`` is
    set; infeasible requests carry the same error type and message
    ``route`` raises for them.
    """

    paths: List[Optional[ServicePath]]
    errors: List[Optional[NoFeasiblePathError]]

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def ok_count(self) -> int:
        """Requests that resolved to a path."""
        return sum(1 for p in self.paths if p is not None)

    @property
    def infeasible_count(self) -> int:
        """Requests that raised :class:`NoFeasiblePathError`."""
        return sum(1 for e in self.errors if e is not None)

    def raise_first(self) -> None:
        """Re-raise the first error in request order, if any."""
        for error in self.errors:
            if error is not None:
                raise error


# -- cluster-level query tables ------------------------------------------------


@dataclass
class QueryTables:
    """Dense border-structure tables for the vectorized CSP relaxation.

    ``ext[i, j]`` is ``hfc.external_estimate(i, j)`` (0 on the diagonal);
    ``border_row[i, j]`` is the code of ``hfc.border(i, j)`` in
    ``border_list`` (-1 on the diagonal); ``d_border[a, b]`` is the
    coordinate distance between two borders *of the same cluster* and 0
    for every cross-cluster pair — the relaxation never consumes those
    entries (see the module docstring). Codes are handed out in ``(i, j)``
    scan order and a border belongs to its own cluster, so cluster *i*'s
    borders are the codes ``border_ptr[i]:border_ptr[i + 1]``.
    ``d_entry`` is ``d_border`` behind a zero row and column, read at entry
    codes shifted by one (0: none) and ``border_row + 1``.
    """

    cluster_count: int
    ext: np.ndarray
    border_row: np.ndarray
    border_list: List[ProxyId]
    d_border: np.ndarray
    border_ptr: np.ndarray
    d_entry: np.ndarray

    @cached_property
    def flat(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Raveled for gathers at ``i * k + j``: ``ext``, *i*'s exit border toward
        *j* and *j*'s entry border from *i* as ``d_entry`` row (int32 codes
        shifted by one, 0: none), and ``d_entry``."""
        exits = self.border_row + 1
        entries = (exits.T * (len(self.border_list) + 1)).ravel().astype(np.int32)
        return self.ext.ravel(), exits.ravel().astype(np.int32), entries, self.d_entry.ravel()

    @cached_property
    def lists(self) -> Tuple[Any, ...]:
        """The tables a row-by-row relaxation reads one value at a time, an entry
        held as its shifted border code (0: none): ``ext`` by row; per cluster
        pair ``(i, j)`` the shifted code of *j*'s border facing *i* and, as *i*'s
        ``n``-th border (0: none), *i*'s border facing *j*; per shifted border
        code, its ``d_border`` row over its own cluster's borders in that
        numbering; and ``border_ptr``."""
        codes, ptr = self.border_row + 1, self.border_ptr.tolist()
        local = np.where(codes > 0, codes - self.border_ptr[:-1, None], 0)
        rows = [[0.0] * (max(np.diff(ptr).tolist(), default=0) + 1), *chain.from_iterable(self.local_rows)]
        return self.ext.tolist(), codes.T.tolist(), local.tolist(), rows, ptr

    @cached_property
    def local_rows(self) -> List[List[List[float]]]:
        """Per cluster, its borders' ``d_border`` rows over its own borders, each
        behind a 0.0 (the rows :attr:`lists` numbers by shifted border code)."""
        return [self._local_rows(c) for c in range(self.cluster_count)]

    def _local_rows(self, cluster: ClusterId) -> List[List[float]]:
        lo, hi = self.border_ptr[cluster : cluster + 2].tolist()
        return [[0.0, *row] for row in self.d_border[lo:hi, lo:hi].tolist()]

    @cached_property
    def border_proxies(self) -> np.ndarray:
        """``border_row`` as proxy ids (-1 on the diagonal), what a rebind patches."""
        return np.array(self.border_list + [-1]).take(self.border_row)

    @cached_property
    def facing(self) -> List[List[Optional[ProxyId]]]:
        """``border_row`` as proxies, row by row: ``facing[i][j]`` is *i*'s border
        facing *j* (None on the diagonal), two list reads where a divide step
        crosses from one cluster to the next."""
        proxy = (self.border_list + [None]).__getitem__
        return [list(map(proxy, row)) for row in self.border_row.tolist()]

    @cached_property
    def to_destination(self) -> Dict[ProxyId, array[float]]:
        """Per destination proxy, the distances from its cluster's borders in
        code order, filled on first use by :func:`destination_row`: a row lives
        as long as these tables, and a rebind patching them carries it over while
        it holds (:func:`patch_query_tables`)."""
        return {}


def build_query_tables(
    k: int,
    border: Callable[[ClusterId, ClusterId], ProxyId],
    distance: Callable[[ProxyId, ProxyId], float],
    external: Optional[Callable[[ClusterId, ClusterId], float]] = None,
) -> QueryTables:
    """The one :class:`QueryTables` builder: *k* clusters, ``border(i, j)``
    the border of *i* facing *j*, ``distance(u, v)`` between two borders.

    ``d_border`` is always the *distance* of two borders of one cluster —
    symmetric bit for bit (``math.dist`` takes absolute differences) — so
    only its upper triangle is asked for. ``external(i, j)`` fills ``ext``
    per ordered pair (an estimate may mask one direction); None says the
    estimate *is* the distance of the border pair, and ``ext`` is mirrored
    the same way.
    """
    ext = [[0.0] * k for _ in range(k)]
    border_row = [[-1] * k for _ in range(k)]
    border_list: List[ProxyId] = []
    border_code: Dict[ProxyId, int] = {}
    border_ptr = [0]
    for i in range(k):
        codes, estimates = border_row[i], ext[i]
        for j in range(k):
            if i == j:
                continue
            proxy = border(i, j)
            code = border_code.get(proxy)
            if code is None:
                code = border_code[proxy] = len(border_list)
                border_list.append(proxy)
            codes[j] = code
            if external is not None:
                estimates[j] = external(i, j)
        border_ptr.append(len(border_list))
    if external is None:
        for i in range(k):
            for j in range(i + 1, k):
                ext[i][j] = ext[j][i] = distance(
                    border_list[border_row[i][j]], border_list[border_row[j][i]]
                )
    d_entry = np.zeros((len(border_list) + 1,) * 2, dtype=float)
    for lo, hi in zip(border_ptr, border_ptr[1:]):
        for a in range(lo + 1, hi + 1):
            for b in range(a + 1, hi + 1):
                d_entry[a, b] = d_entry[b, a] = distance(border_list[a - 1], border_list[b - 1])
    return QueryTables(
        cluster_count=k,
        ext=np.array(ext, dtype=float),
        border_row=np.array(border_row, dtype=np.int64),
        border_list=border_list,
        d_border=d_entry[1:, 1:],
        border_ptr=np.array(border_ptr, dtype=np.int64),
        d_entry=d_entry,
    )


def query_tables(hfc: Any) -> QueryTables:
    """Build (or fetch the cached) :class:`QueryTables` for *hfc*.

    Works against anything with the HFC cluster-level surface
    (``cluster_count`` / ``border`` / ``external_estimate`` / ``space``),
    including the recursive hierarchy's level view and the paper-example
    stub. The result is cached as an attribute on *hfc*; topology mutations
    always materialise a new topology object, so no explicit invalidation
    exists.
    """
    cached = getattr(hfc, "_query_tables_cache", None)
    if cached is not None:
        return cached
    columnar = getattr(hfc, "columnar", None)
    if columnar is not None:
        # Topologies carrying a columnar overlay state (framework-built
        # hfc, snapshot-restored views) share that state's cached tables
        # instead of walking the object graph again; the columnar state
        # feeds the same builder the same math.dist calls in the same
        # order, so the tables are bit-identical either way.
        tables = columnar.query_tables()
    else:
        # a surface that keeps the topology's own estimate — the coordinate
        # distance of the border pair — needs only one triangle of it
        stock = getattr(type(hfc), "external_estimate", None) is HFCTopology.external_estimate
        tables = build_query_tables(
            hfc.cluster_count,
            hfc.border,
            hfc.space.distance,
            None if stock else hfc.external_estimate,
        )
    hfc._query_tables_cache = tables
    return tables


# -- the CSP stage's gather ------------------------------------------------------


def destination_row(
    tables: QueryTables, distance: Callable[[ProxyId, ProxyId], float], pd: ProxyId, cd: ClusterId
) -> array[float]:
    """The distances to *pd* from its cluster *cd*'s borders in code order (all a
    destination proxy can know), from ``distance`` calls made once per *tables*
    (:attr:`QueryTables.to_destination`)."""
    row = tables.to_destination.get(pd)
    if row is None:
        borders = tables.border_list[tables.border_ptr.item(cd) : tables.border_ptr.item(cd + 1)]
        row = tables.to_destination[pd] = array("d", map(distance, borders, repeat(pd)))
    return row


def csp_sink(
    tables: QueryTables,
    backtrack: bool,
    distance: Callable[[ProxyId, ProxyId], float],
    labels: np.ndarray,
    entry: np.ndarray,
    clusters: np.ndarray,
    cds: Sequence[ClusterId],
    destinations: Sequence[ProxyId],
) -> np.ndarray:
    """``label + tail`` of every sink label ``(rows, lanes)``, row *b* ending at
    ``destinations[b]`` in cluster ``cds[b]`` (*entry*: the ``d_entry`` row each
    label entered its cluster by, 0 for none), in the association ``(ext +
    internal) + dist``, the distance from the border the path reaches the
    destination by (:func:`destination_row`); only ``ext`` without *backtrack*."""
    ext, exits_of, entries_of, d_entry = tables.flat
    k, stride = tables.cluster_count, len(tables.border_list) + 1
    if not backtrack or not tables.border_list:
        return labels + ext[clusters * k + np.array(cds, _INDEX)[:, None]]
    ptr = tables.border_ptr.tolist()
    # one 0.0 (no border) and each distinct destination's row; ``base[pd] +
    # shifted code`` finds one
    to_pd, base, rows = array("d", [0.0]), {}, tables.to_destination
    for pd, c in zip(destinations, cds):
        if pd not in base:
            base[pd] = len(to_pd) - 1 - ptr[c]
            to_pd += rows.get(pd) or destination_row(tables, distance, pd, c)
    cd, at = np.array([cds, list(map(base.__getitem__, destinations))], _INDEX)[:, :, None]
    out = clusters * k + cd
    home = clusters == cd
    internal = d_entry[entry + exits_of[out]]
    # the border of cd the path reaches pd from, shifted by one (0: none,
    # no charge): the entry at home, else cd's border facing it
    via = np.where(home, entry, entries_of[out]) // stride
    dist = np.frombuffer(to_pd)[np.where(via > 0, at + via, 0)]
    return labels + np.where(home, dist, (ext[out] + internal) + dist)


class ClusterCosts(Costs):
    """The CSP stage's gather over *tables*: a source slot starts at ``ext(cs,
    cluster)`` entered through the border facing *cs*; a step adds ``ext``
    and, under *backtrack*, the internal segment from the border the label
    entered by to the exit border (a candidate in its predecessor's cluster
    adds ``ext``'s zero diagonal and ``d_entry``'s zero column, and keeps the
    entry); the sink is :func:`csp_sink`. Laid out, an entry is carried as
    the offset of its ``d_entry`` row; row by row, as a label's state, its
    shifted border code (:attr:`QueryTables.lists`). *groups* are the
    clusters of each candidate group, *view* the surface whose
    ``space.distance`` measures a destination."""

    def __init__(
        self, tables: QueryTables, backtrack: bool, view: Any, groups: List[List[ClusterId]],
        sources: Sequence[ClusterId], cds: Sequence[ClusterId], destinations: Sequence[ProxyId],
    ) -> None:
        self.tables, self.backtrack, self.view, self.groups = tables, backtrack, view, groups
        self.source_clusters, self.cds, self.destinations = sources, cds, destinations
        self.internal = backtrack and len(tables.border_list) > 0

    @cached_property
    def laid(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """k as an array (a numpy operand skips a Python int's conversion), the
        flat candidates' clusters, and each row's ``ext`` row: its source cluster times k."""
        k = np.array(self.tables.cluster_count)
        return k, np.fromiter(chain.from_iterable(self.groups), _INDEX), np.array(self.source_clusters, _INDEX) * k

    def start(self, r0: int, r1: int, lay: Ragged) -> np.ndarray:
        ext, exits_of, entries_of, self.d_entry = self.tables.flat
        self.lay, self.rows = lay, slice(r0, r1)
        k, clusters, sources = self.laid
        lane_cluster = self.lane_cluster = clusters[lay.items]
        head = sources[r0:r1][lay.head_rows] + lane_cluster[: lay.heads]
        self.entry = np.zeros(len(lane_cluster), _INDEX)
        self.entry[: lay.heads] = entries_of[head]
        # few triple-length arrays stay alive: int32 border codes
        kp = lane_cluster[lay.pred]
        kp *= k
        kp += lane_cluster[lay.heads :].repeat(lay.seg_len)
        self.hop = ext[kp]
        if self.internal:
            self.exits, self.entries = exits_of[kp], entries_of[kp]
        return ext[head]

    def step(self, labels: np.ndarray, pred: np.ndarray, at: slice) -> np.ndarray:
        costs = labels[pred]
        costs += self.hop[at]
        if self.internal:  # entry border of each label to its exit border
            self.held = self.entry[pred]
            costs += self.d_entry[self.held + self.exits[at]]
        return costs

    def keep(self, lanes: slice, at: slice, first: np.ndarray) -> None:
        if self.internal:  # a candidate in its predecessor's cluster (no entry) keeps its entry
            entries = self.entries[at][first]
            self.entry[lanes] = np.where(entries, entries, self.held[first])

    def sink(self, labels: np.ndarray) -> np.ndarray:
        tail = self.lay.tail
        block = labels[tail]
        block[self.lay.beyond] = np.inf
        return csp_sink(
            self.tables, self.backtrack, self.view.space.distance, block, self.entry[tail],
            self.lane_cluster[tail], self.cds[self.rows], self.destinations[self.rows],
        )

    def open(self, first: List[int], rows: Sequence[Sequence[int]], shapes: Sequence[Optional[Shape]]) -> None:
        self.ext_rows, self.entry_codes, self.exit_codes, self.d_local, self.ptr = self.tables.lists

    def head(self, row: int, group: int) -> Tuple[List[float], Any]:
        cs, clusters = self.source_clusters[row], self.groups[group]
        return list(map(self.ext_rows[cs].__getitem__, clusters)), list(map(self.entry_codes[cs].__getitem__, clusters))

    def edge(self, labels: List[float], states: Any, gp: int, gs: int) -> Tuple[List[float], List[int], Any]:
        earlier, later = self.groups[gp], self.groups[gs]
        get = itemgetter(*later) if len(later) > 1 else lambda row: (row[later[0]],)
        # earlier candidate by earlier candidate, over the later ones: ``(label
        # + ext) + internal``, then turned later candidate by later candidate
        ext = map(get, map(self.ext_rows.__getitem__, earlier))
        if not self.internal:
            values = [tuple(map(add, repeat(label), hops)) for label, hops in zip(labels, ext)]
            return (*first_mins(list(zip(*values))), None)
        exits, d_local = map(get, map(self.exit_codes.__getitem__, earlier)), self.d_local
        values = [
            tuple(map(add, map(add, repeat(label), hops), map(d_local[entry].__getitem__, out)))
            for label, entry, hops, out in zip(labels, states, ext, exits)
        ]
        mins, args = first_mins(list(zip(*values)))
        # a candidate in its predecessor's cluster (no entry) keeps the predecessor's
        entries = self.entry_codes
        return mins, args, [entries[earlier[i]][cj] or states[i] for cj, i in zip(later, args)]

    def tail(self, row: int, group: int, labels: List[float], states: Any) -> List[float]:
        clusters, cd = self.groups[group], self.cds[row]
        hops = [self.ext_rows[ci][cd] for ci in clusters]
        if not self.internal:
            return list(map(add, labels, hops))
        to_pd = destination_row(self.tables, self.view.space.distance, self.destinations[row], cd)
        base, d_local, totals = self.ptr[cd] + 1, self.d_local, []
        for ci, label, entry, hop in zip(clusters, labels, states, hops):
            via = entry if ci == cd else self.entry_codes[ci][cd]
            dist = to_pd[via - base] if via else 0.0
            totals.append(label + dist if ci == cd else label + ((hop + d_local[entry][self.exit_codes[ci][cd]]) + dist))
        return totals


# -- batched conquer -----------------------------------------------------------

#: per slot of one child, the proxies inside its cluster offering the slot's
#: service — in overlay placement order, filtered by membership
ChildCandidates = Tuple[Tuple[ProxyId, ...], ...]


class ClusterEntry(NamedTuple):
    """Per cluster, cached on the topology: members in overlay order, their placement
    sets as one tuple (what :func:`_reader` reads), each service's providers (in member
    order) and their keys, the SCT_C aggregate, and the reader."""

    members: List[ProxyId]
    placed: Tuple[FrozenSet[str], ...]
    providers: Dict[str, Tuple[ProxyId, ...]]
    aggregate: FrozenSet[str]
    read: Callable[[Any], Tuple[FrozenSet[str], ...]]


def _reader(members: List[ProxyId]) -> Callable[[Any], Tuple[FrozenSet[str], ...]]:
    """*members*' entries of a placement as one tuple: an ``itemgetter`` reads two
    or more in one C call, where a ``map`` pays an iterator step per member."""
    return itemgetter(*members) if len(members) > 1 else partial(_read_each, members)


def _read_each(members: List[ProxyId], placement: Any) -> Tuple[FrozenSet[str], ...]:
    return tuple(map(placement.__getitem__, members))


def cluster_entry(hfc: Any, cluster: ClusterId) -> ClusterEntry:
    """*cluster*'s entry on *hfc*, its one builder. Placement is read live: an
    entry holds while its members' placement reads as the tuple it was built
    from (identity first, else equal, set by set); a read finding one rewritten
    starts afresh."""
    cached, placement = vars(hfc).setdefault("_providers_cache", {}), hfc.overlay.placement
    entry = cached.get(cluster)
    if entry is None:
        members = sorted(hfc.members(cluster), key=hfc.overlay.index_of)
        read = _reader(members)
    else:
        members, read = entry.members, entry.read
    placed = read(placement)
    if entry is None or placed != entry.placed:
        lists: Dict[str, List[ProxyId]] = {}
        for proxy, offered in zip(members, placed):
            for service in offered:
                lists.setdefault(service, []).append(proxy)
        providers = {service: tuple(proxies) for service, proxies in lists.items()}
        entry = cached[cluster] = ClusterEntry(members, placed, providers, frozenset(providers), read)
    return entry


def placement_capabilities(hfc: Any) -> Dict[ClusterId, FrozenSet[str]]:
    """Ground-truth SCT_C: each cluster's aggregate of the live placement."""
    return {cid: cluster_entry(hfc, cid).aggregate for cid in range(hfc.cluster_count)}


def child_specs(hfc: Any, children: Sequence[Any]) -> List[Tuple[ProxyId, ...]]:
    """The conquer candidates of one pipeline call: per slot of every
    dissected child, side by side in child order, the providers of its
    service in the child's cluster (the :data:`ChildCandidates` of each child,
    concatenated), from each touched cluster's :func:`cluster_entry`."""
    clusters, services = list(map(itemgetter(0), children)), list(map(itemgetter(2), children))
    providers = {cluster: cluster_entry(hfc, cluster).providers for cluster in set(compress(clusters, services))}
    return [providers[cluster].get(service, ()) for cluster, named in zip(clusters, services) for service in named]


def offering_index(capabilities: Dict[ClusterId, FrozenSet[str]], k: int, base: Any = None) -> Dict[str, List[ClusterId]]:
    """The map step's index, ``service -> cluster ids ascending``, of *capabilities*;
    with *base*, ``(index, flips)``, that index patched by each cluster's services
    ``flips[cid]`` gained or lost (into new lists: the old index stays whole)."""
    if base is None:
        index: Dict[str, List[ClusterId]] = {}
        for cid in range(k):
            for service in capabilities.get(cid, ()):
                index.setdefault(service, []).append(cid)
        return index
    index, flips = base[0].copy(), base[1]
    for cid, services in flips.items():
        for service in services:
            ids = index[service] = list(index.get(service, ()))
            if cid in ids:  # a loss
                ids.remove(cid)
            else:
                insort(ids, cid)
            if not ids:
                del index[service]
    return index


def child_infeasible_error(child: Any) -> NoFeasiblePathError:
    """The error of a child its cluster cannot serve."""
    return NoFeasiblePathError(
        f"cluster {child.cluster} cannot serve child request "
        f"{child.services} (stale aggregate state?)"
    )


def solve_specs(
    children: Sequence[Any],
    candidates: Sequence[Tuple[ProxyId, ...]],
    provider: Any,
    *,
    tracer: Tracer = NULL_TELEMETRY.tracer,
) -> Tuple[List[Optional[ProxyId]], Set[int]]:
    """Solve the children of one call, *candidates* as :func:`child_specs`
    lays them out: the proxy picked for every slot, side by side the same
    way, and the children whose cluster cannot serve them (their slots'
    picks mean nothing).

    Every child is a chain (a run of consecutive slots of the chosen
    configuration path), and the whole conquer step is one :func:`relax`
    over :class:`ProxyCosts`. A child with one candidate per slot has
    nothing to decide when *provider* is a :class:`CoordinateProvider`,
    whose distances are all finite; one that masks links (a bandwidth
    requirement) may refuse even that child, so there every child with a
    slot is solved.
    """
    # child i's slots are ``ends[i] - sizes[i]:ends[i]``; ``bisect_right(ends, at)`` owns slot *at*
    sizes = list(map(len, map(itemgetter(1), children)))
    ends = list(accumulate(sizes))
    widths = list(map(len, candidates))
    # a slot's first candidate: the pick of every child with nothing to decide
    picks: List[Optional[ProxyId]] = [slot[0] if slot else None for slot in candidates]
    refused = {bisect_right(ends, at) for at, width in enumerate(widths) if not width}
    least = 1 if isinstance(provider, CoordinateProvider) else 0
    chains = sorted({bisect_right(ends, at) for at, width in enumerate(widths) if width > least} - refused)
    if not chains:  # every child decided or refused
        return picks, refused
    lo, hi = [ends[i] - sizes[i] for i in chains], [ends[i] for i in chains]
    # a candidate group per slot of the chains, side by side: a chain's row is its run of groups
    groups = [slot for a, b in zip(lo, hi) for slot in candidates[a:b]]
    bounds = list(accumulate((sizes[i] for i in chains), initial=0))
    proxies = list(chain.from_iterable(groups))
    solved = [children[i] for i in chains]
    costs = ProxyCosts(
        provider, proxies, [child.source_proxy for child in solved], [child.destination_proxy for child in solved]
    )
    rows = list(map(range, bounds, bounds[1:]))
    for (items, _, bound), i, a, b in zip(relax(list(map(len, groups)), rows, costs, tracer=tracer), chains, lo, hi):
        if bound < np.inf:
            picks[a:b] = map(proxies.__getitem__, items)
        else:
            refused.add(i)
    return picks, refused
