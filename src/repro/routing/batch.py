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
  each touched cluster's provider index; :func:`rebind_derived` carries all of
  the above and :func:`offering_index` to the next view, patched from its changes.
* :func:`relax` — the one service-DAG kernel (:func:`ragged_chunks`, then a
  first-occurrence segment argmin per depth): the CSP stage, the conquer
  (:func:`solve_specs`) and the flat router differ only in their candidates
  and their :class:`Costs` gather (:class:`ProxyCosts` for the latter two).
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
from bisect import insort
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, compress, groupby, repeat
from operator import itemgetter, not_
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.routing.path import ServicePath
from repro.routing.providers import CoordinateProvider
from repro.services.graph import ServiceGraph, SlotId
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.tracing import Tracer
from repro.util.errors import NoFeasiblePathError

ClusterId = int

#: histogram buckets for batch sizes (requests per route_many call)
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)


# -- the one kernel: a ragged min-plus relaxation over service-DAG rows ----------

#: real (row, predecessor lane, lane) triples per kernel chunk. A chunk keeps
#: a few triple-length arrays alive; at n=2000 doubling this to 32k raised the
#: peak RSS of ``route_2k`` by 4% (2% here, 0.5% at 8k) for 7% more requests/s
_CHUNK_TRIPLES = 16384

#: the kernel's index type, as a dtype object: ``np.array`` / ``np.fromiter``
#: convert a scalar type on every call
_INDEX = np.dtype(np.int64)
#: a running sum; the ufunc's own method skips ``ndarray.cumsum``'s dispatch
_cumsum = np.add.accumulate


class Shape(NamedTuple):
    """A branching row's slots (the kept ones, in topological order): per slot
    its predecessors' positions in ``sg.predecessors`` order and its depth
    (0: a source), then the sink slots' positions in ``sink_slots()`` order. A
    chain needs none: a slot follows the one before it, the last is the sink."""

    preds: Tuple[Tuple[int, ...], ...]
    depth: Tuple[int, ...]
    sinks: Tuple[int, ...]


def graph_row(
    sg: ServiceGraph, order: Sequence[SlotId], widths: Sequence[int]
) -> Optional[Tuple[Optional[List[int]], Optional[Shape]]]:
    """Which of *sg*'s slots (positions in *order*, its topological order,
    ``widths`` candidates each) a kernel row keeps, and its :class:`Shape`;
    None when no sink can be reached. A chain keeps every slot (``(None,
    None)``) or none; a branching graph drops each slot without candidates
    and each one its surviving predecessors cannot reach — a dropped lane
    would only carry ``inf``, which never wins a finite segment nor a sink."""
    if sg.is_linear:
        return (None, None) if all(widths) else None
    kept: Dict[SlotId, int] = {}
    preds: List[Tuple[int, ...]] = []
    depth: List[int] = []
    for slot, width in zip(order, widths):
        before = sg.predecessors(slot)
        alive = tuple(kept[p] for p in before if p in kept)
        if width and (alive or not before):
            kept[slot] = len(preds)
            preds.append(alive)
            depth.append(1 + max(map(depth.__getitem__, alive), default=-1))
    sinks = tuple(kept[s] for s in sg.sink_slots() if s in kept)
    if not sinks:
        return None
    at = {slot: i for i, slot in enumerate(order)}
    return [at[slot] for slot in kept], Shape(tuple(preds), tuple(depth), sinks)


class Ragged(NamedTuple):
    """One chunk of rows. A slot's *lanes* are its candidates, numbered
    depth-major (a chain slot's depth is its position); ``items[lane]``
    indexes the flat candidates, the first ``heads`` are the source slots'
    (rows ``head_rows``). Past them a lane is one *segment* of ``seg_len``
    triples ``(its row, predecessor lane, it)`` (``pred``): its predecessor
    slots' lanes, joined in ``sg.predecessors`` order. ``positions`` slices
    lanes, triples and segments per depth; ``tail`` blocks each row's sink
    lanes in ``sink_slots()`` order, ``beyond`` the padding; ``position``
    is each lane's slot in its row (None when every row is a chain, whose
    path visits every slot in order)."""

    items: np.ndarray
    head_rows: np.ndarray
    heads: int
    pred: np.ndarray
    seg_len: np.ndarray
    positions: List[Tuple[slice, slice, np.ndarray, np.ndarray]]
    tail: np.ndarray
    beyond: np.ndarray
    position: Optional[np.ndarray]

    def walk(self, parent: np.ndarray, final: np.ndarray, values: np.ndarray) -> List[List[Any]]:
        """Per row, ``values`` of the lanes it picked from its lane *final*
        back along ``parent`` to a source (-1), first first."""
        parent, values = parent.tolist(), values.tolist()
        rows: List[List[Any]] = []
        for lane in final.tolist():
            row: List[Any] = []
            while lane >= 0:
                row.append(values[lane])
                lane = parent[lane]
            row.reverse()
            rows.append(row)
        return rows


def ragged_chunks(
    widths: Sequence[int], rows: Sequence[Sequence[int]], shapes: Optional[Sequence[Optional[Shape]]] = None
) -> Iterator[Tuple[int, int, Ragged]]:
    """Rows ``r0:r1`` and their layout per chunk of about ``_CHUNK_TRIPLES``
    real triples. A row lists its slots' candidate groups in topological
    order, group *g* being the ``widths[g] >= 1`` flat candidates after the
    groups before it; ``shapes[r]`` links a branching row's slots (None: a chain)."""
    # the ufuncs and plain indexing, not ndarray methods: at one short row a
    # call's dispatch costs as much as its math
    group = np.array(widths, _INDEX)
    slots = np.fromiter(chain.from_iterable(rows), _INDEX)
    width = group[slots]
    start = _cumsum(group)[slots] - width
    lengths = np.fromiter(map(len, rows), _INDEX, len(rows))
    ends, bounds = _cumsum(lengths), [0, len(rows)]
    links = _links(lengths, ends, shapes) if shapes is not None and any(shapes) else None
    edges = len(width) if links is None else len(links[1])
    if len(rows) > 1 and max(edges, len(width)) * max(widths) ** 2 > _CHUNK_TRIPLES:  # else surely one chunk
        if links is None:  # a chain slot follows the one before it
            pairs = np.zeros(len(width), dtype=np.int64)
            np.multiply(width[1:], width[:-1], out=pairs[1:])
            pairs[ends[:-1]] = 0  # a row's first slot has no predecessor
        else:
            e_slot, e_pred = links[1:3]
            pairs = np.bincount(e_slot, width[e_slot] * width[e_pred], len(width)).astype(np.int64)
        through = _cumsum(pairs)[ends - 1] // _CHUNK_TRIPLES
        bounds[1:1] = ((through[1:] != through[:-1]).nonzero()[0] + 1).tolist()
    if len(bounds) == 2:  # one chunk: the call's own columns
        yield 0, len(rows), _ragged(start, width, lengths, ends, links)
        return
    for r0, r1 in zip(bounds, bounds[1:]):
        s0, s1 = ends.item(r0) - len(rows[r0]), ends.item(r1 - 1)
        part = None
        if links is not None:
            depth, e_slot, e_pred, k_slot, k_ptr = links
            e0, e1 = e_slot.searchsorted([s0, s1]).tolist()
            k0, k1 = k_ptr.item(r0), k_ptr.item(r1)
            part = depth[s0:s1], e_slot[e0:e1] - s0, e_pred[e0:e1] - s0, k_slot[k0:k1] - s0, k_ptr[r0 : r1 + 1] - k0
        yield r0, r1, _ragged(start[s0:s1], width[s0:s1], lengths[r0:r1], ends[r0:r1] - s0, part)


def _links(
    lengths: np.ndarray, ends: np.ndarray, shapes: Sequence[Optional[Shape]]
) -> Tuple[np.ndarray, ...]:
    """Over all slots side by side: each one's depth, the edges ``(slot,
    predecessor)`` by slot and then predecessor order, the sink slots row by
    row and where each row's sinks begin."""
    depths: List[int] = []
    e_slots: List[int] = []
    e_preds: List[int] = []
    k_slots: List[int] = []
    k_ptr = [0]
    for base, n, shape in zip((ends - lengths).tolist(), lengths.tolist(), shapes):
        if shape is None:
            shape = Shape(((),) + tuple((at,) for at in range(n - 1)), tuple(range(n)), (n - 1,))
        depths += shape.depth
        for at, preds in enumerate(shape.preds, base):
            e_slots += [at] * len(preds)
            e_preds += [base + p for p in preds]
        k_slots += [base + s for s in shape.sinks]
        k_ptr.append(len(k_slots))
    return tuple(np.array(column, dtype=np.int64) for column in (depths, e_slots, e_preds, k_slots, k_ptr))


def _ragged(
    start: np.ndarray, width: np.ndarray, lengths: np.ndarray, ends: np.ndarray, links: Optional[Tuple[np.ndarray, ...]]
) -> Ragged:
    rows, slots = len(lengths), len(width)
    in_row = np.arange(slots) - (ends - lengths).repeat(lengths)
    depth = in_row if links is None else links[0]  # a chain slot's depth is its position
    order = depth.argsort(kind="stable")
    rank = order.argsort()
    w = width[order]
    lane_end = _cumsum(w)
    lane_start = lane_end - w
    per_depth = np.bincount(depth)
    sources = per_depth.item(0)
    heads, lane_count = lane_end.item(sources - 1), lane_end.item(-1)
    w_on = w[sources:]
    fan: Optional[np.ndarray] = None  # predecessor slots per later slot; None: one each
    if links is None:  # a chain slot follows the one before it, its last slot is the sink
        e_from, sink = rank[order[rows:] - 1], rank[ends - 1]
        head_rows = np.arange(rows).repeat(w[:rows])
    else:
        _, e_slot, e_pred, k_slot, k_ptr = links
        e_rank = rank[e_slot]
        e_from, sink = rank[e_pred][e_rank.argsort(kind="stable")], rank[k_slot]
        if len(e_from) > len(w_on):
            fan = np.bincount(e_rank - sources, minlength=len(w_on))
        head_rows = np.arange(rows).repeat(lengths)[order[:sources]].repeat(w[:sources])
    # a later lane's segment: one piece per predecessor slot, in their order
    if fan is None:
        lane_from = e_from.repeat(w_on)
        piece_len, piece_from = w[lane_from], lane_start[lane_from]
        seg_len = piece_len
    else:
        reps = fan * w_on
        first = (_cumsum(reps) - reps).repeat(reps)
        edge = (_cumsum(fan) - fan).repeat(reps) + (np.arange(len(first)) - first) % fan.repeat(reps)
        piece_len, piece_from = w[e_from][edge], lane_start[e_from][edge]
        fan_lane = fan.repeat(w_on)
        seg_len = np.add.reduceat(piece_len, _cumsum(fan_lane) - fan_lane)
    piece_end = _cumsum(piece_len)
    seg_end = piece_end if fan is None else _cumsum(seg_len)
    seg_start = seg_end - seg_len
    # per depth its lanes' end, past the heads its first triple, and each
    # segment's start from there
    bound = lane_end[_cumsum(per_depth) - 1]
    depth_from = seg_start[bound[:-1] - heads]
    rel = seg_start - depth_from.repeat(bound[1:] - bound[:-1])
    lanes, triples = bound.tolist(), [*depth_from.tolist(), piece_end.item(-1) if len(piece_end) else 0]
    positions = [
        (slice(la, lb), slice(ta, tb), rel[la - heads : lb - heads], seg_len[la - heads : lb - heads])
        for la, lb, ta, tb in zip(lanes, lanes[1:], triples, triples[1:])
    ]
    if len(sink) == rows:  # one sink slot per row
        sink_w = w[sink]
        span = np.arange(max(sink_w.tolist()))
        beyond = span >= sink_w[:, None]
        tail = np.minimum(lane_start[sink][:, None] + span, lane_count - 1)
    else:
        sink_w = w[sink]
        per_row = np.add.reduceat(sink_w, k_ptr[:-1])
        beyond = np.arange(per_row.max()) >= per_row[:, None]
        tail = np.zeros(beyond.shape, dtype=np.int64)
        sink_from = lane_start[sink] - (_cumsum(sink_w) - sink_w)
        tail[~beyond] = np.arange(sink_w.sum()) + sink_from.repeat(sink_w)
    piece_start = seg_start if fan is None else piece_end - piece_len
    return Ragged(
        np.arange(lane_count) + (start[order] - lane_start).repeat(w), head_rows, heads,
        np.arange(triples[-1]) + (piece_from - piece_start).repeat(piece_len), seg_len, positions,
        tail, beyond, None if links is None else in_row[order].repeat(w),
    )


class Costs(Protocol):
    """What one stage's relaxation reads over rows ``r0:r1`` laid out as
    *lay*: the head lanes' start labels; the costs of triples *at*
    (predecessor lanes *pred*) given the labels so far; what *lanes* carry
    from the triples they took (*first*: offsets into *at*); the ``(rows,
    tail)`` sink totals, ``inf`` on the padding."""

    def start(self, r0: int, r1: int, lay: Ragged) -> np.ndarray: ...
    def step(self, labels: np.ndarray, pred: np.ndarray, at: slice) -> np.ndarray: ...
    def keep(self, lanes: slice, at: slice, first: np.ndarray) -> None: ...
    def sink(self, labels: np.ndarray) -> np.ndarray: ...


def relax(
    widths: Sequence[int],
    rows: Sequence[Sequence[int]],
    costs: Costs,
    shapes: Optional[Sequence[Optional[Shape]]] = None,
    tracer: Tracer = NULL_TELEMETRY.tracer,
) -> Iterator[Tuple[int, int, Ragged, np.ndarray, np.ndarray, List[float]]]:
    """The one service-DAG relaxation: per chunk of :func:`ragged_chunks`,
    one min-plus pass per depth over its real triples under *costs*, then
    the sink. Yields rows ``r0:r1``, their layout, every lane's parent lane
    (-1: a source), each row's winning sink lane and its total (``inf``: no
    path); first-occurrence ties, as ``argmin``. Consume it whole: *tracer*
    hears the triples relaxed and the chunks at the end."""
    relaxed = chunks = 0
    for r0, r1, lay in ragged_chunks(widths, rows, shapes) if rows else ():
        labels = np.empty(len(lay.items))
        labels[: lay.heads] = costs.start(r0, r1, lay)
        parent = np.empty(len(labels), _INDEX)
        parent[: lay.heads] = -1  # every later lane is set at its depth
        for lanes, at, starts, lengths in lay.positions:
            pred = lay.pred[at]
            values = costs.step(labels, pred, at)
            # per segment its minimum, straight into its lanes' labels, and the
            # first triple holding it: ``argmin``'s tie-break (no NaN reaches here)
            mins = np.minimum.reduceat(values, starts, out=labels[lanes])
            (hits,) = (values == mins.repeat(lengths)).nonzero()
            first = hits[hits.searchsorted(starts)]
            parent[lanes] = pred[first]
            costs.keep(lanes, at, first)
        totals = costs.sink(labels)
        winner = (np.arange(r1 - r0), totals.argmin(axis=1))
        yield r0, r1, lay, parent, lay.tail[winner], totals[winner].tolist()
        relaxed += len(lay.pred)
        chunks += 1
    tracer.add(relaxed=relaxed, chunks=chunks)


class ProxyCosts(Costs):
    """The conquer's and the flat router's gather: *provider* distances
    (``points`` / ``pairs``) from row *r*'s ``sources[r]`` to its first
    proxies, between consecutive proxies, and on to ``destinations[r]``.
    *proxies* are the flat candidates."""

    def __init__(
        self, provider: Any, proxies: Sequence[ProxyId], sources: Sequence[ProxyId], destinations: Sequence[ProxyId]
    ) -> None:
        self.pairs = provider.pairs
        # one ``points`` call for all three, cut apart
        points, n, m = provider.points([*proxies, *sources, *destinations]), len(proxies), len(sources)
        self.at, self.src, self.dst = points[:n], points[n : n + m], points[n + m :]

    def start(self, r0: int, r1: int, lay: Ragged) -> np.ndarray:
        # points may be rows (coordinates): a subscript gathers rows of two
        # 5-12x slower than ``take`` along axis 0
        self.lay, self.rows = lay, slice(r0, r1)
        xy = self.xy = self.at.take(lay.items, axis=0)
        self.hop = self.pairs(xy.take(lay.pred, axis=0), xy[lay.heads :].repeat(lay.seg_len, axis=0))
        return self.pairs(self.src[r0:r1].take(lay.head_rows, axis=0), xy[: lay.heads])

    def step(self, labels: np.ndarray, pred: np.ndarray, at: slice) -> np.ndarray:
        via = labels[pred]
        via += self.hop[at]
        return via

    def keep(self, lanes: slice, at: slice, first: np.ndarray) -> None:
        pass

    def sink(self, labels: np.ndarray) -> np.ndarray:
        tail = self.lay.tail
        totals = labels[tail] + self.pairs(self.xy.take(tail, axis=0), self.dst[self.rows][:, None])
        totals[self.lay.beyond] = np.inf
        return totals


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
    def to_destination(self) -> Dict[ProxyId, array[float]]:
        """Per destination proxy, the distances from its cluster's borders in
        code order, filled on first use by the router's sink: a row lives as
        long as these tables, which a rebind replaces."""
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
#: service — in overlay placement order, filtered by membership
ChildCandidates = Tuple[Tuple[ProxyId, ...], ...]


class ClusterEntry(NamedTuple):
    """Per cluster, cached on the topology: members in overlay order, their placement
    sets, each service's providers (in member order) and their keys, the SCT_C aggregate,
    and the members' placement read as one tuple (:func:`_reader`)."""

    members: List[ProxyId]
    placed: List[FrozenSet[str]]
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
    entry holds while each member's placement is (identity first, else equal
    to) the set it was built from; a read finding one rewritten starts afresh."""
    cached, placement = vars(hfc).setdefault("_providers_cache", {}), hfc.overlay.placement
    entry = cached.get(cluster)
    if entry is None or list(entry.read(placement)) != entry.placed:
        members = entry.members if entry else sorted(hfc.members(cluster), key=hfc.overlay.index_of)
        placed = list(map(placement.__getitem__, members))
        lists: Dict[str, List[ProxyId]] = {}
        for proxy, offered in zip(members, placed):
            for service in offered:
                lists.setdefault(service, []).append(proxy)
        providers = {service: tuple(proxies) for service, proxies in lists.items()}
        read = entry.read if entry else _reader(members)
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
        members, placed, providers, aggregate, _ = entry
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
            aggregate = frozenset(providers)
        cached[cluster] = entry._replace(aggregate=aggregate, read=_reader(members))


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
    sizes = list(map(len, map(itemgetter(1), children)))
    start = list(accumulate(sizes, initial=0))  # child i's slots: start[i]:start[i + 1]
    owner = list(chain.from_iterable(map(repeat, range(len(children)), sizes)))
    widths = list(map(len, candidates))
    # a slot's first candidate: the pick of every child with nothing to decide
    picks: List[Optional[ProxyId]] = [slot[0] if slot else None for slot in candidates]
    refused = {owner[at] for at in compress(range(len(widths)), map(not_, widths))}
    least = 1 if isinstance(provider, CoordinateProvider) else 0
    wide = compress(range(len(widths)), map(int.__gt__, widths, repeat(least)))
    chains = sorted({owner[at] for at in wide} - refused)
    if not chains:  # every child decided or refused
        return picks, refused
    code: Dict[Tuple[ProxyId, ...], int] = {}
    rows = [[code.setdefault(slot, len(code)) for slot in candidates[start[i] : start[i + 1]]] for i in chains]
    proxies = list(chain.from_iterable(code))
    costs = ProxyCosts(
        provider, proxies, [children[i].source_proxy for i in chains], [children[i].destination_proxy for i in chains]
    )
    for r0, r1, lay, parent, final, bounds in relax(list(map(len, code)), rows, costs, tracer=tracer):
        for i, bound, items in zip(chains[r0:r1], bounds, lay.walk(parent, final, lay.items)):
            if bound < np.inf:
                picks[start[i] : start[i + 1]] = [proxies[at] for at in items]
            else:
                refused.add(i)
    return picks, refused
