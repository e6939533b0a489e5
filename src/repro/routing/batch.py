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
  the overlay-graph cache already follow): dynamic membership materialises
  a fresh topology after every churn event, so the cache can never go
  stale.
* :func:`child_specs` — the conquer candidates of a call's children, from
  each touched cluster's provider index; :func:`rebind_derived` carries all of
  the above and :func:`offering_index` to the next view, patched from its changes.
* :func:`solve_specs` / :func:`solve_child_spec` — the proxies picked for a
  call's children (one ragged kernel) or for one child (the flat solver).
* :class:`BatchRouteResult` — aligned per-request outcomes of a batch.
* :func:`ragged_chunks` / :func:`segment_argmin` — the ragged layout the two
  chain kernels (cluster-level CSP, conquer) share.

Only intra-cluster border pairs enter the ``d_border`` table: the
back-tracking cost model charges internal segments exclusively between two
borders of the *same* cluster (the entry border and the exit border), and
a destination proxy genuinely cannot estimate distances it holds no
coordinates for — the paper-example regression suite enforces this by
raising on any other distance query.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, groupby, repeat
from operator import itemgetter, not_
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.coords.space import CoordinateSpace
from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.routing.path import ServicePath
from repro.routing.servicedag import solve_vectorised
from repro.services.graph import ServiceGraph
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.tracing import Tracer
from repro.util.errors import NoFeasiblePathError

ClusterId = int

#: histogram buckets for batch sizes (requests per route_many call)
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)


def service_graph_signature(sg: ServiceGraph) -> Hashable:
    """A hashable identity of an SG's shape and service names."""
    return sg.signature


# -- the ragged layout: what the two chain kernels share -------------------------

#: real (row, predecessor lane, lane) triples per kernel chunk. A chunk keeps
#: a few triple-length arrays alive; at n=2000 doubling this to 32k raised the
#: peak RSS of ``route_2k`` by 4% (2% here, 0.5% at 8k) for 7% more requests/s
_CHUNK_TRIPLES = 16384


class Ragged(NamedTuple):
    """One chunk of chains. A slot's *lanes* are its candidates, numbered
    position-major; ``items[lane]`` indexes the flat candidates, the first
    ``heads`` are position 0 (rows ``head_rows``). Past it a lane is one
    *segment* of ``seg_len`` triples ``(its row, predecessor lane, it)``
    (``pred``), and ``positions`` slices lanes, triples and segments per
    position; ``tail`` blocks each row's last lanes, ``beyond`` the extra."""

    items: np.ndarray
    head_rows: np.ndarray
    heads: int
    pred: np.ndarray
    seg_len: np.ndarray
    positions: List[Tuple[slice, slice, np.ndarray, np.ndarray]]
    tail: np.ndarray
    beyond: np.ndarray
    lengths: List[int]

    def walk(self, parent: np.ndarray, final: np.ndarray, values: np.ndarray) -> List[List[Any]]:
        """Per row, ``values`` of the lanes it picked from its lane *final*
        back along ``parent``, first first."""
        parent, values = parent.tolist(), values.tolist()
        rows: List[List[Any]] = []
        for lane, n in zip(final.tolist(), self.lengths):
            row: List[Any] = [None] * n
            for at in range(n - 1, -1, -1):
                row[at], lane = values[lane], parent[lane]
            rows.append(row)
        return rows


def ragged_chunks(
    widths: Sequence[int], rows: Sequence[Sequence[int]]
) -> Iterator[Tuple[int, int, Ragged]]:
    """Rows ``r0:r1`` and their layout per chunk of about ``_CHUNK_TRIPLES``
    real triples. A row lists its slots' candidate groups, group *g* being
    the ``widths[g] >= 1`` flat candidates after the groups before it."""
    group = np.array(widths, dtype=np.int64)
    slots = np.fromiter(chain.from_iterable(rows), dtype=np.int64)
    start, width = (group.cumsum() - group).take(slots), group.take(slots)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    ends, bounds = lengths.cumsum(), [0, len(rows)]
    if len(rows) > 1 and len(width) * max(widths) ** 2 > _CHUNK_TRIPLES:  # else surely one chunk
        pairs = np.zeros(len(width), dtype=np.int64)
        np.multiply(width[1:], width[:-1], out=pairs[1:])
        pairs[ends[:-1]] = 0  # a row's first slot has no predecessor
        through = pairs.cumsum().take(ends - 1) // _CHUNK_TRIPLES
        bounds[1:1] = (np.diff(through).nonzero()[0] + 1).tolist()
    for r0, r1 in zip(bounds, bounds[1:]):
        s0, s1 = int(ends[r0]) - len(rows[r0]), int(ends[r1 - 1])
        yield r0, r1, _ragged(start[s0:s1], width[s0:s1], lengths[r0:r1])


def _ragged(start: np.ndarray, width: np.ndarray, lengths: np.ndarray) -> Ragged:
    # ndarray methods: at one short row ``np.*``'s dispatch costs as much as the math
    rows, ends = len(lengths), lengths.cumsum()
    position = np.arange(len(width)) - (ends - lengths).repeat(lengths)
    order = position.argsort(kind="stable")
    rank = order.argsort()
    w = width.take(order)
    lane_end = w.cumsum()
    lane_start = lane_end - w
    heads, lane_count = int(lane_end[rows - 1]), int(lane_end[-1])
    # a slot past position 0 follows the slot before it in its row
    pred_slot, w_on = rank.take(order[rows:] - 1), w[rows:]
    seg_len = w.take(pred_slot).repeat(w_on)
    seg_end = seg_len.cumsum()
    seg_start = seg_end - seg_len
    pred_start = lane_start.take(pred_slot).repeat(w_on) - seg_start
    lanes = lane_end.take(np.bincount(position).cumsum() - 1).tolist()
    triples = [0, *seg_end.take(np.array(lanes[1:], dtype=np.int64) - (heads + 1)).tolist()]
    positions = [
        (slice(la, lb), slice(ta, tb), seg_start[la - heads : lb - heads] - ta, seg_len[la - heads : lb - heads])
        for la, lb, ta, tb in zip(lanes, lanes[1:], triples, triples[1:])
    ]
    last = rank.take(ends - 1)
    tail = lane_start.take(last)[:, None] + np.arange(w.take(last).max())
    return Ragged(
        np.arange(lane_count) + (start.take(order) - lane_start).repeat(w),
        np.arange(rows).repeat(w[:rows]), heads,
        np.arange(triples[-1]) + pred_start.repeat(seg_len), seg_len, positions,
        np.minimum(tail, lane_count - 1), tail >= lane_end.take(last)[:, None], lengths.tolist(),
    )


def segment_argmin(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per segment ``values[starts[i]:][:lengths[i]]`` (non-empty, no NaN): its
    minimum and its first index holding it — ``argmin``'s tie-break."""
    mins = np.minimum.reduceat(values, starts)
    (hits,) = (values == mins.repeat(lengths)).nonzero()
    return mins, hits.take(hits.searchsorted(starts))


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


def patch_query_tables(tables: QueryTables, hfc: Any, changes: Any) -> QueryTables:
    """What :func:`build_query_tables` returns on *hfc*, bit for bit, from *tables* of
    the view before *changes*: on the ``k x k`` border-proxy matrix (-1 on the diagonal)
    only a pair or cluster whose border moved (re-elected, or back at new coordinates)
    and a ``d_entry`` pair beside a border new to its cluster are asked again."""
    distance, moves = hfc.space.distance, changes.moves
    held = np.array(tables.border_list + [-1]).take(tables.border_row)
    proxies = held.copy()
    for i, j in changes.reelected:
        proxies[i, j], proxies[j, i] = hfc.borders[i, j], hfc.borders[j, i]
    back = {p for kind, p, _ in moves if kind == "leave"} & {p for kind, p, _ in moves if kind == "join"}
    moved = (proxies != held) | np.isin(proxies, list(back))
    ext = tables.ext.copy()
    i, j = np.triu(moved | moved.T, 1).nonzero()
    ext[i, j] = ext[j, i] = list(map(distance, proxies[i, j].tolist(), proxies[j, i].tolist()))
    ptr = tables.border_ptr.tolist()
    lists = [tables.border_list[lo:hi] for lo, hi in zip(ptr, ptr[1:])]
    for c in moved.any(axis=1).nonzero()[0].tolist():
        lists[c] = [p for p in dict.fromkeys(proxies[c].tolist()) if p >= 0]
    border_list = list(chain.from_iterable(lists))
    ptr = np.cumsum([0] + list(map(len, lists)), dtype=np.int64)
    # codes by proxy id, new and old shifted by one; -1 reads the last slot
    code = np.full(max([*border_list, *tables.border_list, *back], default=0) + 2, -1)
    was = np.zeros_like(code)
    was[tables.border_list] = np.arange(1, len(tables.border_list) + 1)
    was[list(back)] = 0
    code[border_list] = np.arange(len(border_list))
    # every in-cluster pair (a border keeps its cluster) read at its old codes,
    # and asked again where one side is new to the cluster (old code 0)
    at = np.concatenate([[0], was.take(border_list)])
    size = np.diff(ptr)
    reps = size.repeat(size)
    a = np.arange(1, len(at)).repeat(reps)
    b = (ptr[:-1] + 1).repeat(size).repeat(reps)
    b += np.arange(len(a)) - (reps.cumsum() - reps).repeat(reps)
    d_entry = np.zeros((len(at), len(at)))
    d_entry[a, b] = tables.d_entry[at.take(a), at.take(b)]
    ask = (a < b) & (at.take(a) * at.take(b) == 0)
    for u, v in zip(a[ask].tolist(), b[ask].tolist()):
        d_entry[u, v] = d_entry[v, u] = distance(border_list[u - 1], border_list[v - 1])
    return QueryTables(tables.cluster_count, ext, code.take(proxies), border_list, d_entry[1:, 1:], ptr, d_entry)


# -- batched conquer -----------------------------------------------------------

#: per slot of one child, the proxies inside its cluster offering the slot's
#: service — in the order :meth:`FlatRouter.candidates_for` would produce
#: (overlay placement order filtered by membership)
ChildCandidates = Tuple[Tuple[ProxyId, ...], ...]


class ClusterEntry(NamedTuple):
    """Per cluster, cached on the topology: members in overlay order, their placement
    sets, each service's providers (in member order) and their keys, the SCT_C aggregate."""

    members: List[ProxyId]
    placed: List[FrozenSet[str]]
    providers: Dict[str, Tuple[ProxyId, ...]]
    aggregate: FrozenSet[str]


def cluster_entry(hfc: Any, cluster: ClusterId) -> ClusterEntry:
    """*cluster*'s entry on *hfc*, its one builder. Placement is read live: an
    entry holds while each member's placement is (identity first, else equal
    to) the set it was built from; a read finding one rewritten starts afresh."""
    cached, placement = vars(hfc).setdefault("_providers_cache", {}), hfc.overlay.placement
    entry = cached.get(cluster)
    if entry is None or list(map(placement.__getitem__, entry.members)) != entry.placed:
        members = entry.members if entry else sorted(hfc.members(cluster), key=hfc.overlay.index_of)
        placed = list(map(placement.__getitem__, members))
        lists: Dict[str, List[ProxyId]] = {}
        for proxy, offered in zip(members, placed):
            for service in offered:
                lists.setdefault(service, []).append(proxy)
        providers = {service: tuple(proxies) for service, proxies in lists.items()}
        entry = cached[cluster] = ClusterEntry(members, placed, providers, frozenset(providers))
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
    per_slot = chain.from_iterable(map(repeat, clusters, map(len, services)))
    return [providers[cluster].get(service, ()) for cluster, service in zip(per_slot, chain.from_iterable(services))]


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


def _move_members(cached: Dict[ClusterId, ClusterEntry], placement: Any, moves: Any) -> None:
    """Apply *moves* in order to the entries the new view took over (a joiner appended
    to its services' providers, as overlay order puts it last); a new aggregate if they changed."""
    for cluster, moved in groupby(sorted(moves, key=itemgetter(2)), itemgetter(2)):
        entry = cached.get(cluster)
        if entry is None:
            continue
        members, placed, providers, aggregate = entry
        for kind, proxy, _ in moved:
            if kind == "join":
                members.append(proxy)
                placed.append(placement.get(proxy, frozenset()))
                for service in placed[-1]:
                    providers[service] = providers.get(service, ()) + (proxy,)
            else:
                at = members.index(proxy)
                del members[at]
                for service in placed.pop(at):
                    providers[service] = tuple(p for p in providers[service] if p != proxy)
                    if not providers[service]:
                        del providers[service]
        if providers.keys() != aggregate:
            cached[cluster] = entry._replace(aggregate=frozenset(providers))


def rebind_derived(
    old: Any, new: Any, capabilities: Dict[ClusterId, FrozenSet[str]], offering: Tuple[Any, Any]
) -> Tuple[Dict[ClusterId, FrozenSet[str]], Tuple[Any, Any], Dict[str, Any]]:
    """A feed-less router's SCT_C, map index ``(capabilities, index)`` and ``routing.rebind``
    event fields on view *new*: patched from *old*'s when *new*'s ``membership_changes``
    follow from *old* (or *new* is *old*), else derived afresh, and the mode says why."""
    changes, held = getattr(new, "membership_changes", None), getattr(old, "membership_changes", None)
    mode = "patched"
    if new is not old:
        related = changes is not None and held is not None and changes.base is held.token
        if changes is not None and changes.restructured:
            mode = "restructured"
        elif not related or changes.dropped:
            mode = "renumbered" if related else "first bind"
    event: Dict[str, Any] = dict(mode=mode, members_moved=0, pairs_patched=0)
    if mode == "patched" and new is not old:  # the new view takes over what the old one derived
        cached, tables = vars(old).pop("_providers_cache", None), vars(old).pop("_query_tables_cache", None)
        if cached is not None and "_providers_cache" not in vars(new):
            new._providers_cache = cached
            _move_members(cached, new.overlay.placement, changes.moves)
            event["members_moved"] = len(changes.moves)
        if tables is not None and "_query_tables_cache" not in vars(new):
            new._query_tables_cache = patch_query_tables(tables, new, changes)
            event["pairs_patched"] = len(changes.reelected)
    after = placement_capabilities(new)
    flips = {c: after[c] ^ capabilities.get(c, frozenset()) for c in after if after[c] is not capabilities.get(c)}
    event.update(clusters_reaggregated=len(flips), services_flipped=sum(map(len, flips.values())))
    if mode != "patched" or offering[0] is not capabilities:
        return after, (None, {}), event
    return after, (after, offering_index(after, new.cluster_count, (offering[1], flips))), event


def child_infeasible_error(child: Any) -> NoFeasiblePathError:
    """The error of a child its cluster cannot serve."""
    return NoFeasiblePathError(
        f"cluster {child.cluster} cannot serve child request "
        f"{child.services} (stale aggregate state?)"
    )


def solve_child_spec(child: Any, candidates: ChildCandidates, provider: Any) -> List[ProxyId]:
    """The proxies serving one child's slots, through the flat solver and
    *provider*; a child with no slots picks nobody."""
    if not child.slots:
        return []
    sub_sg = ServiceGraph(
        services=dict(zip(child.slots, child.services)),
        edges=frozenset(zip(child.slots, child.slots[1:])),
    )
    try:
        solution = solve_vectorised(
            sub_sg,
            {slot: list(cands) for slot, cands in zip(child.slots, candidates)},
            child.source_proxy,
            child.destination_proxy,
            provider.block,
        )
    except NoFeasiblePathError:
        raise child_infeasible_error(child) from None
    return [proxy for _, proxy in solution.assignment]


def solve_specs(
    children: Sequence[Any],
    candidates: Sequence[Tuple[ProxyId, ...]],
    provider: Any,
    *,
    space: Optional[CoordinateSpace] = None,
    tracer: Tracer = NULL_TELEMETRY.tracer,
) -> Tuple[List[Optional[ProxyId]], Set[int]]:
    """Solve the children of one call, *candidates* as :func:`child_specs`
    lays them out: the proxy picked for every slot, side by side the same
    way, and the children whose cluster cannot serve them (their slots'
    picks mean nothing).

    A child with one candidate per slot has nothing to decide. Over a
    coordinate *space* every other child goes through the ragged chain
    kernel: each child a hierarchical dissection produces is a chain (a run
    of consecutive slots of the chosen configuration path), so the whole
    conquer step is one numpy relaxation per chain position and chunk of
    rows instead of one solver invocation per child — bit-identical to
    per-child :func:`solve_child_spec`, which serves any other *provider*
    (one that masks or measures links). Distances come from the same
    coordinates (gathered through row indices into the space's stacked
    matrix) and the same ``sqrt(einsum(diff, diff))`` element formula as
    :meth:`CoordinateProvider.block`, sums keep the solver's association
    order, and ties break as ``argmin`` does — so the same instance
    :func:`solve_vectorised` picks is picked. *tracer* hears the triples
    relaxed and the chunks.
    """
    sizes = list(map(len, map(itemgetter(1), children)))
    start = list(accumulate(sizes, initial=0))  # child i's slots: start[i]:start[i + 1]
    owner = list(chain.from_iterable(map(repeat, range(len(children)), sizes)))
    widths = list(map(len, candidates))
    # a slot's first candidate: the pick of every child with nothing to decide
    picks: List[Optional[ProxyId]] = [slot[0] if slot else None for slot in candidates]
    refused = {owner[at] for at in compress(range(len(widths)), map(not_, widths))}
    if space is None:
        for i in sorted(set(owner) - refused):
            try:
                picks[start[i] : start[i + 1]] = solve_child_spec(children[i], candidates[start[i] : start[i + 1]], provider)
            except NoFeasiblePathError:
                refused.add(i)
        return picks, refused
    wide = compress(range(len(widths)), map(int.__gt__, widths, repeat(1)))
    chains = sorted({owner[at] for at in wide} - refused)
    code: Dict[Tuple[ProxyId, ...], int] = {}
    rows = [[code.setdefault(slot, len(code)) for slot in candidates[start[i] : start[i + 1]]] for i in chains]
    relaxed = chunks = 0
    proxies = list(chain.from_iterable(code))
    stacked = space.stacked
    at_proxy = stacked.take(space.rows(proxies), axis=0)
    src = stacked.take(space.rows([children[i].source_proxy for i in chains]), axis=0)
    dst = stacked.take(space.rows([children[i].destination_proxy for i in chains]), axis=0)
    for r0, r1, lay in ragged_chunks(list(map(len, code)), rows) if chains else ():
        xy = at_proxy.take(lay.items, axis=0)
        diff = xy[: lay.heads] - src[r0:r1].take(lay.head_rows, axis=0)
        labels = np.empty(len(xy))
        labels[: lay.heads] = np.sqrt(np.einsum("ik,ik->i", diff, diff))
        diff = xy.take(lay.pred, axis=0) - xy[lay.heads :].repeat(lay.seg_len, axis=0)
        hop = np.sqrt(np.einsum("ik,ik->i", diff, diff))
        parent = np.arange(len(xy))
        for lanes, at, starts, lengths in lay.positions:
            pred = lay.pred[at]
            via = labels.take(pred)
            via += hop[at]
            labels[lanes], first = segment_argmin(via, starts, lengths)
            parent[lanes] = pred.take(first)
        diff = xy.take(lay.tail, axis=0) - dst[r0:r1, None, :]
        totals = labels.take(lay.tail) + np.sqrt(np.einsum("rck,rck->rc", diff, diff))
        totals[lay.beyond] = np.inf
        winner = (np.arange(r1 - r0), totals.argmin(axis=1))
        feasible = np.isfinite(totals[winner]).tolist()
        for i, ok, items in zip(chains[r0:r1], feasible, lay.walk(parent, lay.tail[winner], lay.items)):
            if ok:
                picks[start[i] : start[i + 1]] = [proxies[at] for at in items]
            else:
                refused.add(i)
        relaxed += len(lay.pred)
        chunks += 1
    tracer.add(relaxed=relaxed, chunks=chunks)
    return picks, refused
