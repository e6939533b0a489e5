"""The one service-DAG kernel: a min-plus relaxation over rows of candidates.

The CSP stage, the conquer and the flat router each hand :func:`relax` one
*row* per request (or child): its slots' candidate groups in topological
order, and a branching row's :class:`Shape` (:func:`graph_row`). They differ
only in their :class:`Costs` gather (:class:`ProxyCosts` for the conquer and
the flat router). A call is relaxed one of two ways, chosen by its size:

* a small call (under :data:`_ROW_TRIPLES` real (row, predecessor candidate,
  candidate) triples, a row weighing :data:`_ROW_WEIGHT` more) row by row on
  Python floats — a single route's CSP and conquer, where numpy's per-call
  dispatch would cost more than the arithmetic;
* otherwise in chunks of about :data:`_CHUNK_TRIPLES` triples laid out side by
  side (:func:`ragged_chunks`), one numpy pass per depth — a batch.

Both read the same floats in the same association and break ties by first
occurrence (``argmin``'s rule), so they pick the same candidates bit for bit.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, count, repeat
from operator import add, mul
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.overlay.network import ProxyId
from repro.services.graph import ServiceGraph, SlotId
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.tracing import Tracer

#: real (row, predecessor lane, lane) triples per kernel chunk. A chunk keeps
#: a few triple-length arrays alive; at n=2000 doubling this to 32k raised the
#: peak RSS of ``route_2k`` by 4% (2% here, 0.5% at 8k) for 7% more requests/s
_CHUNK_TRIPLES = 16384

#: a call whose real triples, plus :data:`_ROW_WEIGHT` a row, stay under this
#: is relaxed row by row on Python floats. Measured on a 2-core x86 host
#: (DESIGN.md §9), the two ways break even at ~550 triples for one CSP row and
#: at ~4 conquer chains of a few triples: a row's head, sink and walk cost the
#: row way what ~100 triples do, and the ragged way next to nothing
_ROW_TRIPLES = 640
#: what one row weighs against that budget, in triples
_ROW_WEIGHT = 128

#: the kernel's index type, as a dtype object: ``np.array`` / ``np.fromiter``
#: convert a scalar type on every call
_INDEX = np.dtype(np.int64)
#: a running sum; the ufunc's own method skips ``ndarray.cumsum``'s dispatch
_cumsum = np.add.accumulate

#: what :func:`relax` answers per row: the flat candidates it picked along
#: its path, their slots' positions in the row (None: a chain, which visits
#: every slot in order) and the path's cost (``inf``: none)
Picked = Tuple[List[int], Optional[List[int]], float]


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
        back along ``parent`` to a source (-1), first first. All rows step
        back together, a depth at a time: a parent lane lies a depth up, so it
        is numbered lower, and ``minimum`` keeps a row that reached -1 there.
        One step more than there are depths ends every row on -1. Only the
        picked values become Python objects: row by row, source first, each
        path behind one -1 in a single list, so a row as shallow as most
        conquer rows costs one slice, not the chunk's deepest walk."""
        steps = [final]
        for _ in range(len(self.positions) + 1):
            steps.append(np.minimum(parent[steps[-1]], steps[-1]))
        lanes = np.array(steps[::-1]).T
        picked = values[lanes]
        kept = lanes >= 0
        picked[~kept] = -1
        kept[:, 0] = True  # the step past the deepest: -1 on every row
        flat = picked[kept].tolist()
        cuts = list(compress(count(), map((-1).__eq__, flat)))
        return [flat[a + 1 : b] for a, b in zip(cuts, [*cuts[1:], len(flat)])]


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
    """What one stage's relaxation reads, both ways.

    Laid out (a chunk of rows ``r0:r1`` as *lay*): the head lanes' start
    labels; the costs of triples *at* (predecessor lanes *pred*) given the
    labels so far; what *lanes* carry from the triples they took (*first*:
    offsets into *at*); the ``(rows, tail)`` sink totals, ``inf`` on the padding.

    Row by row: :meth:`open` hears the call's rows first (*first*: each
    group's first flat candidate). A label comes with a *state* (what a
    candidate carries along, None when nothing is); :meth:`head` answers a
    source group's labels and states, :meth:`edge` per candidate of the later
    group its least cost over the earlier one, where that first stands
    (:func:`first_mins`) and its state, and :meth:`tail` the sink totals."""

    def start(self, r0: int, r1: int, lay: Ragged) -> np.ndarray: ...
    def step(self, labels: np.ndarray, pred: np.ndarray, at: slice) -> np.ndarray: ...
    def keep(self, lanes: slice, at: slice, first: np.ndarray) -> None: ...
    def sink(self, labels: np.ndarray) -> np.ndarray: ...

    def open(self, first: List[int], rows: Sequence[Sequence[int]], shapes: Sequence[Optional[Shape]]) -> None: ...
    def head(self, row: int, group: int) -> Tuple[List[float], Any]: ...
    def edge(self, labels: List[float], states: Any, gp: int, gs: int) -> Tuple[List[float], List[int], Any]: ...
    def tail(self, row: int, group: int, labels: List[float], states: Any) -> List[float]: ...


def first_mins(runs: Sequence[Tuple[float, ...]]) -> Tuple[List[float], List[int]]:
    """Per run, its least value and where it first stands: ``argmin``'s
    tie-break (no NaN reaches here)."""
    mins = list(map(min, runs))
    return mins, list(map(tuple.index, runs, mins))


def _row_triples(
    widths: Sequence[int], rows: Sequence[Sequence[int]], shapes: Sequence[Optional[Shape]]
) -> Optional[int]:
    """The real triples of *rows* if the call is relaxed row by row: while its
    triples plus :data:`_ROW_WEIGHT` a row stay under :data:`_ROW_TRIPLES`;
    else None, as soon as they reach it."""
    total, budget = 0, _ROW_TRIPLES - _ROW_WEIGHT * len(rows)
    if budget <= 0:
        return None
    for row, shape in zip(rows, shapes):
        w = list(map(widths.__getitem__, row))
        if shape is None:
            total += sum(map(mul, w, w[1:]))
        else:
            total += sum(w[slot] * w[p] for slot, preds in enumerate(shape.preds) for p in preds)
        if total >= budget:
            return None
    return total


def relax(
    widths: Sequence[int],
    rows: Sequence[Sequence[int]],
    costs: Costs,
    shapes: Optional[Sequence[Optional[Shape]]] = None,
    tracer: Tracer = NULL_TELEMETRY.tracer,
) -> Iterator[Picked]:
    """The one service-DAG relaxation: per row, in order, what it
    :data:`Picked` under *costs* (first-occurrence ties, as ``argmin``). A
    call small enough (:func:`_row_triples`) is one chunk relaxed row by row;
    any other is cut by :func:`ragged_chunks`, every chunk its last one
    included, and relaxed one min-plus pass per depth, then the sink. Consume
    it whole: *tracer* hears the triples relaxed, the chunks and how many of
    them went row by row at the end."""
    each = shapes if shapes is not None else [None] * len(rows)
    triples = _row_triples(widths, rows, each) if rows else None
    if triples is not None:
        yield from _relax_rows(widths, rows, each, costs)
        tracer.add(relaxed=triples, chunks=1, row_chunks=1)
        return
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
        final = lay.tail[winner]
        placed: Iterable[Optional[List[int]]] = repeat(None)
        if lay.position is not None:  # a chain row among them still says None
            placed = map(_chain_none, lay.walk(parent, final, lay.position), shapes[r0:r1])  # type: ignore[index]
        relaxed += len(lay.pred)
        chunks += 1
        yield from zip(lay.walk(parent, final, lay.items), placed, totals[winner].tolist())
    tracer.add(relaxed=relaxed, chunks=chunks, row_chunks=0)


def _chain_none(positions: List[int], shape: Optional[Shape]) -> Optional[List[int]]:
    return None if shape is None else positions


def _relax_rows(
    widths: Sequence[int], rows: Sequence[Sequence[int]], shapes: Sequence[Optional[Shape]], costs: Costs
) -> Iterator[Picked]:
    """:func:`relax` row by row: a slot's labels are its candidates' least
    costs over its predecessor slots in their order, a later slot's replacing
    an earlier one's only when strictly less; the sink likewise over the sink
    slots in ``sink_slots()`` order."""
    first = list(accumulate(widths, initial=0))
    costs.open(first, rows, shapes)
    for r, (row, shape) in enumerate(zip(rows, shapes)):
        if shape is None:
            labels, states = costs.head(r, row[0])
            backs = []
            for gp, gs in zip(row, row[1:]):
                labels, back, states = costs.edge(labels, states, gp, gs)
                backs.append(back)
            totals = costs.tail(r, row[-1], labels, states)
            bound = min(totals)
            lane = totals.index(bound)
            picks = [lane]
            for back in reversed(backs):
                lane = back[lane]
                picks.append(lane)
            picks.reverse()
            yield list(map(add, map(first.__getitem__, row), picks)), None, bound
            continue
        n = len(row)
        label: List[Any] = [None] * n
        state: List[Any] = [None] * n
        came: List[Any] = [None] * n  # per candidate, the (slot, candidate) it came from
        for slot, preds in enumerate(shape.preds):
            if not preds:
                label[slot], state[slot] = costs.head(r, row[slot])
            for p in preds:
                mins, args, carried = costs.edge(label[p], state[p], row[p], row[slot])
                if label[slot] is None:
                    label[slot], state[slot], came[slot] = mins, carried, [(p, i) for i in args]
                    continue
                for lane, least in enumerate(mins):
                    if least < label[slot][lane]:
                        label[slot][lane], came[slot][lane] = least, (p, args[lane])
                        if carried is not None:
                            state[slot][lane] = carried[lane]
        bound, end = np.inf, None
        for slot in shape.sinks:
            totals = costs.tail(r, row[slot], label[slot], state[slot])
            least = min(totals)
            if end is None or least < bound:
                bound, end = least, (slot, totals.index(least))
        picks, positions = [], []
        while end is not None:
            slot, lane = end
            picks.append(first[row[slot]] + lane)
            positions.append(slot)
            end = None if came[slot] is None else came[slot][lane]
        picks.reverse()
        positions.reverse()
        yield picks, positions, bound


class ProxyCosts(Costs):
    """The conquer's and the flat router's gather: *provider* distances
    (``points`` / ``pairs``) from row *r*'s ``sources[r]`` to its first
    proxies, between consecutive proxies, and on to ``destinations[r]``.
    *proxies* are the flat candidates. Row by row, every distance of the call
    comes from one ``pairs`` call, so both ways read the same floats."""

    def __init__(
        self, provider: Any, proxies: Sequence[ProxyId], sources: Sequence[ProxyId], destinations: Sequence[ProxyId]
    ) -> None:
        self.pairs = provider.pairs
        # one ``points`` call for all three, cut apart
        points, n, m = provider.points([*proxies, *sources, *destinations]), len(proxies), len(sources)
        self.points, self.src_at, self.dst_at = points, n, n + m
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

    def open(self, first: List[int], rows: Sequence[Sequence[int]], shapes: Sequence[Optional[Shape]]) -> None:
        # every pair as two index lists into ``points``, and where each head,
        # edge and tail starts; an edge's hops lie later candidate by later
        # candidate, as :func:`first_mins` reads them
        us: List[int] = []
        vs: List[int] = []
        self.heads, self.hops, self.tails = heads, hops, tails = {}, {}, {}
        for r, (row, shape) in enumerate(zip(rows, shapes)):
            if shape is None:
                sources, sinks, steps = row[:1], row[-1:], zip(row, row[1:])
            else:
                sources = [row[slot] for slot, preds in enumerate(shape.preds) if not preds]
                sinks = [row[slot] for slot in shape.sinks]
                steps = [(row[p], row[slot]) for slot, preds in enumerate(shape.preds) for p in preds]
            for g in sources:
                heads[r, g] = len(us)
                us += repeat(self.src_at + r, first[g + 1] - first[g])
                vs += range(first[g], first[g + 1])
            for g in sinks:
                tails[r, g] = len(us)
                us += range(first[g], first[g + 1])
                vs += repeat(self.dst_at + r, first[g + 1] - first[g])
            for gp, gs in steps:
                if (gp, gs) not in hops:
                    hops[gp, gs] = len(us)
                    earlier, later = range(first[gp], first[gp + 1]), range(first[gs], first[gs + 1])
                    us += list(earlier) * len(later)
                    vs += chain.from_iterable(map(repeat, later, repeat(len(earlier))))
        self.first, self.values = first, self.pairs(self.points.take(us, axis=0), self.points.take(vs, axis=0)).tolist()

    def head(self, row: int, group: int) -> Tuple[List[float], Any]:
        at = self.heads[row, group]
        return self.values[at : at + self.first[group + 1] - self.first[group]], None

    def edge(self, labels: List[float], states: Any, gp: int, gs: int) -> Tuple[List[float], List[int], Any]:
        at, later = self.hops[gp, gs], self.first[gs + 1] - self.first[gs]
        values = list(map(add, labels * later, self.values[at : at + len(labels) * later]))
        if len(labels) == 1:
            return values, [0] * later, None
        return (*first_mins(list(zip(*[iter(values)] * len(labels)))), None)

    def tail(self, row: int, group: int, labels: List[float], states: Any) -> List[float]:
        at = self.tails[row, group]
        return list(map(add, labels, self.values[at : at + len(labels)]))
