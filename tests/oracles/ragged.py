"""The ragged layout and relaxation as they stood before the kernel was cut
down to fewer numpy calls per chunk: :func:`ragged_chunks` (with
:func:`_links` and :func:`_ragged`), :func:`segment_argmin` and
:func:`relax`, kept as a field-level oracle for ``routing/kernel.py``. The
production kernel must lay every chunk out exactly as these do, field for
field and bit for bit, and answer per row what these parents, sink lanes
and totals walk to.

The chunk budget is read from ``repro.routing.kernel._CHUNK_TRIPLES`` at call
time, so a test that patches it there chunks both kernels alike.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.routing import kernel
from repro.routing.kernel import Costs, Ragged, Shape


def ragged_chunks(
    widths: Sequence[int], rows: Sequence[Sequence[int]], shapes: Optional[Sequence[Optional[Shape]]] = None
) -> Iterator[Tuple[int, int, Ragged]]:
    """Rows ``r0:r1`` and their layout per chunk of about ``_CHUNK_TRIPLES``
    real triples. A row lists its slots' candidate groups in topological
    order, group *g* being the ``widths[g] >= 1`` flat candidates after the
    groups before it; ``shapes[r]`` links a branching row's slots (None: a chain)."""
    group = np.array(widths, dtype=np.int64)
    slots = np.fromiter(chain.from_iterable(rows), dtype=np.int64)
    start, width = (group.cumsum() - group).take(slots), group.take(slots)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    ends, bounds = lengths.cumsum(), [0, len(rows)]
    links = _links(lengths, ends, shapes) if shapes is not None and any(shapes) else None
    edges = len(width) if links is None else len(links[1])
    if len(rows) > 1 and max(edges, len(width)) * max(widths) ** 2 > kernel._CHUNK_TRIPLES:  # else surely one chunk
        if links is None:  # a chain slot follows the one before it
            pairs = np.zeros(len(width), dtype=np.int64)
            np.multiply(width[1:], width[:-1], out=pairs[1:])
            pairs[ends[:-1]] = 0  # a row's first slot has no predecessor
        else:
            e_slot, e_pred = links[1:3]
            pairs = np.bincount(e_slot, width.take(e_slot) * width.take(e_pred), len(width)).astype(np.int64)
        through = pairs.cumsum().take(ends - 1) // kernel._CHUNK_TRIPLES
        bounds[1:1] = (np.diff(through).nonzero()[0] + 1).tolist()
    for r0, r1 in zip(bounds, bounds[1:]):
        s0, s1 = int(ends[r0]) - len(rows[r0]), int(ends[r1 - 1])
        part = None
        if links is not None:
            depth, e_slot, e_pred, k_slot, k_ptr = links
            e0, e1 = e_slot.searchsorted([s0, s1]).tolist()
            k0, k1 = int(k_ptr[r0]), int(k_ptr[r1])
            part = depth[s0:s1], e_slot[e0:e1] - s0, e_pred[e0:e1] - s0, k_slot[k0:k1] - s0, k_ptr[r0 : r1 + 1] - k0
        yield r0, r1, _ragged(start[s0:s1], width[s0:s1], lengths[r0:r1], part)


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
    start: np.ndarray, width: np.ndarray, lengths: np.ndarray, links: Optional[Tuple[np.ndarray, ...]]
) -> Ragged:
    rows, slots, ends = len(lengths), len(width), lengths.cumsum()
    in_row = np.arange(slots) - (ends - lengths).repeat(lengths)
    depth = in_row if links is None else links[0]  # a chain slot's depth is its position
    order = depth.argsort(kind="stable")
    rank = order.argsort()
    w = width.take(order)
    lane_end = w.cumsum()
    lane_start = lane_end - w
    per_depth = np.bincount(depth)
    sources = int(per_depth[0])
    heads, lane_count = int(lane_end[sources - 1]), int(lane_end[-1])
    w_on = w[sources:]
    fan: Optional[np.ndarray] = None  # predecessor slots per later slot; None: one each
    if links is None:  # a chain slot follows the one before it, its last slot is the sink
        e_from, sink = rank.take(order[rows:] - 1), rank.take(ends - 1)
        head_rows = np.arange(rows).repeat(w[:rows])
    else:
        _, e_slot, e_pred, k_slot, k_ptr = links
        e_rank = rank.take(e_slot)
        e_from, sink = rank.take(e_pred).take(e_rank.argsort(kind="stable")), rank.take(k_slot)
        if len(e_from) > len(w_on):
            fan = np.bincount(e_rank - sources, minlength=len(w_on))
        head_rows = np.arange(rows).repeat(lengths).take(order[:sources]).repeat(w[:sources])
    # a later lane's segment: one piece per predecessor slot, in their order
    if fan is None:
        piece_len, piece_from = w.take(e_from).repeat(w_on), lane_start.take(e_from).repeat(w_on)
        seg_len = piece_len
    else:
        reps = fan * w_on
        first = (reps.cumsum() - reps).repeat(reps)
        edge = (fan.cumsum() - fan).repeat(reps) + (np.arange(len(first)) - first) % fan.repeat(reps)
        piece_len, piece_from = w.take(e_from).take(edge), lane_start.take(e_from).take(edge)
        fan_lane = fan.repeat(w_on)
        seg_len = np.add.reduceat(piece_len, fan_lane.cumsum() - fan_lane)
    piece_end = piece_len.cumsum()
    seg_end = piece_end if fan is None else seg_len.cumsum()
    seg_start = seg_end - seg_len
    lanes = lane_end.take(per_depth.cumsum() - 1).tolist()
    triples = [0, *seg_end.take(np.array(lanes[1:], dtype=np.int64) - (heads + 1)).tolist()]
    positions = [
        (slice(la, lb), slice(ta, tb), seg_start[la - heads : lb - heads] - ta, seg_len[la - heads : lb - heads])
        for la, lb, ta, tb in zip(lanes, lanes[1:], triples, triples[1:])
    ]
    if len(sink) == rows:  # one sink slot per row
        tail = lane_start.take(sink)[:, None] + np.arange(w.take(sink).max())
        beyond = tail >= lane_end.take(sink)[:, None]
        tail = np.minimum(tail, lane_count - 1)
    else:
        sink_w = w.take(sink)
        per_row = np.add.reduceat(sink_w, k_ptr[:-1])
        beyond = np.arange(per_row.max()) >= per_row[:, None]
        tail = np.zeros(beyond.shape, dtype=np.int64)
        sink_from = lane_start.take(sink) - (sink_w.cumsum() - sink_w)
        tail[~beyond] = np.arange(int(sink_w.sum())) + sink_from.repeat(sink_w)
    return Ragged(
        np.arange(lane_count) + (start.take(order) - lane_start).repeat(w), head_rows, heads,
        np.arange(triples[-1]) + (piece_from - (piece_end - piece_len)).repeat(piece_len), seg_len, positions,
        tail, beyond, None if links is None else in_row.take(order).repeat(w),
    )


def segment_argmin(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per segment ``values[starts[i]:][:lengths[i]]`` (non-empty, no NaN): its
    minimum and its first index holding it — ``argmin``'s tie-break."""
    mins = np.minimum.reduceat(values, starts)
    (hits,) = (values == mins.repeat(lengths)).nonzero()
    return mins, hits.take(hits.searchsorted(starts))


def relax(
    widths: Sequence[int],
    rows: Sequence[Sequence[int]],
    costs: Costs,
    shapes: Optional[Sequence[Optional[Shape]]] = None,
) -> Iterator[Tuple[int, int, Ragged, np.ndarray, np.ndarray, List[float]]]:
    """One min-plus pass per depth over each chunk of :func:`ragged_chunks`
    under *costs*, then the sink: rows ``r0:r1``, their layout, every lane's
    parent lane (-1: a source), each row's winning sink lane and its total."""
    for r0, r1, lay in ragged_chunks(widths, rows, shapes) if rows else ():
        labels = np.empty(len(lay.items))
        labels[: lay.heads] = costs.start(r0, r1, lay)
        parent = np.full(len(labels), -1)
        for lanes, at, starts, lengths in lay.positions:
            pred = lay.pred[at]
            labels[lanes], first = segment_argmin(costs.step(labels, pred, at), starts, lengths)
            parent[lanes] = pred.take(first)
            costs.keep(lanes, at, first)
        totals = costs.sink(labels)
        winner = (np.arange(r1 - r0), totals.argmin(axis=1))
        yield r0, r1, lay, parent, lay.tail[winner], totals[winner].tolist()
