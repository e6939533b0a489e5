"""Sharded discrete-event simulation for 100k+-proxy scenarios.

The monolithic :class:`~repro.netsim.eventsim.Simulator` runs every event
on one heap, so wall-clock — not the overlay — became the scale ceiling
(ROADMAP item 1). This module shards the event simulation by hierarchy
cluster, exploiting the containment locality the paper's clustering is
built around: most protocol and traffic messages stay inside a cluster,
so partitioning proxies by *contiguous cluster-id ranges* keeps the
overwhelming majority of deliveries shard-local and lets each shard run
its own heap.

Cross-shard messages use the classic conservative (Chandy–Misra style)
window protocol:

* the **lookahead** ``L`` is the minimum physical delay between any two
  proxies on different shards, so a message sent at ``t`` inside the
  window ``[T, T + L)`` arrives at ``t + delay >= T + L`` — never inside
  the window that produced it;
* each shard runs its window independently, buffering cross-shard sends
  in an outbox; at the window barrier all outboxes are exchanged and
  merged into the destination heaps in sorted ``(time, origin, seq)``
  order, so tie-breaking is deterministic and independent of execution
  interleaving;
* a **driver lane** hosts global processes (traffic engine arrivals,
  fault-injection timers, any address outside the partition). Driver
  events only execute at global barriers — every lane's clock equals the
  driver's when one runs — so drivers behave exactly as they do on the
  monolithic engine, including zero-delay dispatch sends into shard
  heaps.

``shards=1`` collapses the driver and the single shard into one inner
:class:`Simulator`, making the sharded engine bit-identical to the
monolithic one (same counters, same traces). The message-conservation
invariant ``sent + duplicated == delivered + dropped + pending`` is
checked at every barrier to validate the cross-shard exchange.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.netsim.eventsim import Address, Message, Process, Simulator
from repro.telemetry import Telemetry
from repro.util.errors import StateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (state imports netsim)
    from repro.state.columnar import ColumnarOverlayState, ColumnarShard

#: shard id of the driver lane (hosts every address outside the partition)
DRIVER = -1

#: one buffered cross-shard delivery: (arrival, origin shard, origin seq,
#: message, sent_at)
OutboxEntry = Tuple[float, int, int, Message, float]

#: longest the parent waits for one message of a live worker; a whole
#: 100k-proxy run (setup + every window) takes about a fifth of this
WORKER_STALL_SECONDS = 600.0


# -- partitioning ---------------------------------------------------------------


def partition_contiguous(sizes: Sequence[int], shards: int) -> List[int]:
    """Greedy contiguous split of *sizes* into *shards* balanced parts.

    Returns cluster boundaries ``[0, b1, ..., C]``. Contiguity is what
    makes the columnar slices zero-copy (cluster-major member rows), so
    the split never reorders clusters: it walks them in id order and cuts
    when a part reaches its share of the remaining weight, always leaving
    at least one cluster per remaining shard.
    """
    count = len(sizes)
    if shards < 1:
        raise StateError(f"need at least one shard, got {shards}")
    if shards > count:
        raise StateError(f"cannot split {count} clusters into {shards} shards")
    bounds = [0]
    remaining = int(sum(sizes))
    cursor = 0
    for part in range(shards, 1, -1):
        target = remaining / part
        acc = 0
        limit = count - (part - 1)  # leave one cluster per later shard
        cut = cursor + 1
        for i in range(cursor, limit):
            acc += int(sizes[i])
            cut = i + 1
            if acc >= target:
                break
        bounds.append(cut)
        remaining -= acc
        cursor = cut
    bounds.append(count)
    return bounds


def lookahead_from_matrix(delays: np.ndarray, row_shard: np.ndarray) -> float:
    """Exact lookahead: the minimum delay between rows on different shards."""
    cross = row_shard[:, None] != row_shard[None, :]
    if not bool(cross.any()):
        return math.inf
    return float(delays[cross].min())


def coordinate_lookahead(state: ColumnarOverlayState, bounds: Sequence[int]) -> float:
    """Coordinate lower bound on the cross-shard delay.

    For synthetic overlays whose delivery delay *is* the coordinate
    distance, the distance between two clusters is at least the distance
    of their centroids minus both radii; the minimum over cross-shard
    cluster pairs bounds every cross-shard delay from below. Raises if
    the bound is not positive (overlapping clusters) — pass an explicit
    lookahead in that case.
    """
    c = state.cluster_count
    centroids = np.zeros((c, state.dimension), dtype=float)
    radius = np.zeros(c, dtype=float)
    for cid in range(c):
        block = state.coords[
            state.cluster_members[
                int(state.cluster_ptr[cid]) : int(state.cluster_ptr[cid + 1])
            ]
        ]
        centroids[cid] = block.mean(axis=0)
        radius[cid] = float(np.linalg.norm(block - centroids[cid], axis=1).max())
    shard_of = np.zeros(c, dtype=np.int64)
    for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        shard_of[lo:hi] = s
    gaps = (
        np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)
        - radius[:, None]
        - radius[None, :]
    )
    cross = shard_of[:, None] != shard_of[None, :]
    if not bool(cross.any()):
        return math.inf
    bound = float(gaps[cross].min())
    if bound <= 0.0:
        raise StateError(
            "coordinate lookahead bound is not positive (clusters overlap); "
            "pass an explicit lookahead"
        )
    return bound


@dataclass(frozen=True)
class ShardPlan:
    """A cluster-keyed partition of the overlay plus its lookahead."""

    shards: int
    bounds: Tuple[int, ...]
    lookahead: float
    proxy_shard: Dict[Address, int] = field(repr=False)
    views: Tuple[ColumnarShard, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise StateError(f"need at least one shard, got {self.shards}")
        if self.shards > 1 and not (0.0 < self.lookahead < math.inf):
            raise StateError(
                f"lookahead must be positive and finite for {self.shards} shards, "
                f"got {self.lookahead}"
            )

    def shard_of(self, address: Address) -> int:
        """The shard owning *address* (``DRIVER`` when unpartitioned).

        Tuple addresses (e.g. the traffic engine's ``("traffic", proxy)``
        relays) are resolved through their first partitioned element.
        """
        shard = self.proxy_shard.get(address)
        if shard is not None:
            return shard
        if isinstance(address, tuple):
            for part in address:
                shard = self.proxy_shard.get(part)
                if shard is not None:
                    return shard
        return DRIVER

    @property
    def cluster_count(self) -> int:
        """Number of clusters covered by the partition."""
        return self.bounds[-1]

    def shard_sizes(self) -> List[int]:
        """Proxies per shard, in shard order."""
        sizes = [0] * self.shards
        for shard in self.proxy_shard.values():
            sizes[shard] += 1
        return sizes

    @classmethod
    def from_state(
        cls,
        state: ColumnarOverlayState,
        shards: int,
        *,
        lookahead: Optional[float] = None,
        delay_matrix: Optional[np.ndarray] = None,
    ) -> "ShardPlan":
        """Partition *state* into *shards* contiguous cluster ranges.

        The lookahead comes from, in order of preference: the explicit
        *lookahead* argument, the exact minimum over *delay_matrix*
        (indexed like ``state`` rows), or the coordinate lower bound.
        """
        sizes = np.diff(state.cluster_ptr)
        bounds = partition_contiguous([int(s) for s in sizes], shards)
        views = tuple(state.shard_views(bounds))
        proxy_shard: Dict[Address, int] = {}
        for view in views:
            for proxy in view.proxy_ids():
                proxy_shard[proxy] = view.shard
        if shards == 1:
            la = math.inf
        elif lookahead is not None:
            la = float(lookahead)
        elif delay_matrix is not None:
            row_shard = np.zeros(state.size, dtype=np.int64)
            for view in views:
                row_shard[view.member_rows] = view.shard
            la = lookahead_from_matrix(delay_matrix, row_shard)
        else:
            la = coordinate_lookahead(state, bounds)
        return cls(
            shards=shards,
            bounds=tuple(bounds),
            lookahead=la,
            proxy_shard=proxy_shard,
            views=views,
        )

    @classmethod
    def from_framework(
        cls,
        framework: Any,
        shards: int,
        *,
        lookahead: Optional[float] = None,
    ) -> "ShardPlan":
        """Partition a built framework, with the exact physical lookahead.

        The ground-truth delay matrix prices the minimum cross-shard
        delay exactly, so the conservative windows are as wide as the
        physical topology allows.
        """
        state = framework.columnar
        if lookahead is not None:
            return cls.from_state(state, shards, lookahead=lookahead)
        overlay = framework.overlay
        matrix = overlay.true_delay_matrix()
        # reindex the overlay-ordered matrix into columnar row order
        order = np.array(
            [overlay.index_of(int(p)) for p in state.proxies], dtype=np.int64
        )
        return cls.from_state(
            state, shards, delay_matrix=matrix[np.ix_(order, order)]
        )


# -- lanes ----------------------------------------------------------------------


class _ShardLane(Simulator):
    """One shard's event heap; cross-shard sends go to an outbox.

    The driver lane (``shard_id == DRIVER``) is special: it only executes
    at global barriers, when every lane's clock equals its own, so its
    sends insert directly into the destination heaps — zero-delay driver
    dispatches (the traffic engine's batch flush) stay exact.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        route: Optional[Callable[[Address], int]],
        lookahead: float,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        super().__init__(telemetry=telemetry)
        self.shard_id = shard_id
        self._route = route
        self._lookahead = lookahead
        self._outbox: List[OutboxEntry] = []
        self._lanes: Dict[int, "_ShardLane"] = {}

    # -- delivery routing --------------------------------------------------------

    def _schedule_delivery(self, message: Message, sent_at: float, delay: float) -> None:
        route = self._route
        if route is None:  # single-shard collapse: everything is local
            super()._schedule_delivery(message, sent_at, delay)
            return
        dest = route(message.recipient)
        if dest == self.shard_id:
            super()._schedule_delivery(message, sent_at, delay)
            return
        if self.shard_id == DRIVER:
            lane = self._lanes[dest]
            lane.push_delivery(self.now + delay, message, sent_at)
            return
        if delay < self._lookahead:
            raise StateError(
                f"cross-shard send {message.sender!r} -> {message.recipient!r} "
                f"with delay {delay} below the lookahead {self._lookahead}; "
                "the shard plan's lookahead must lower-bound every cross-shard delay"
            )
        self._n_undelivered += 1
        self._outbox.append(
            (self.now + delay, self.shard_id, next(self._counter), message, sent_at)
        )

    def push_delivery(self, arrival: float, message: Message, sent_at: float) -> None:
        """Insert one delivery copy at absolute time *arrival*."""
        heapq.heappush(
            self._heap, (arrival, next(self._counter), self._delivery_action(message, sent_at))
        )

    def take_outbox(self) -> List[OutboxEntry]:
        """Drain the outbox, transferring the pending count with it."""
        out, self._outbox = self._outbox, []
        self._n_undelivered -= len(out)
        return out

    # -- windowed execution ------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest queued event, or None."""
        return self._heap[0][0] if self._heap else None

    def run_window(self, upto: float, *, inclusive: bool) -> None:
        """Process events with time < *upto* (``<=`` when inclusive).

        The caller (the sharded engine) owns clock-source bookkeeping, so
        unlike :meth:`Simulator.run_until` this does not enter
        ``_running`` — lanes are never the active clock, their parent is.
        """
        heap = self._heap
        if inclusive:
            while heap and heap[0][0] <= upto:
                time, _, action = heapq.heappop(heap)
                self.now = time
                self._n_events += 1
                action()
            self.now = max(self.now, upto)
        else:
            while heap and heap[0][0] < upto:
                time, _, action = heapq.heappop(heap)
                self.now = time
                self._n_events += 1
                action()
            self.now = upto

    def stats(self) -> Dict[str, int]:
        """Plain-int conservation tallies (cheap to ship across processes)."""
        return {
            "sent": self._n_sent,
            "duplicated": self._n_duplicated,
            "delivered": self._n_delivered,
            "dropped": self._n_dropped,
            "pending": self._n_undelivered,
            "events": self._n_events,
        }


# -- the sharded engine ---------------------------------------------------------


class ShardedSimulator(Simulator):
    """Drop-in :class:`Simulator` running per-shard heaps under one clock.

    Registration, scheduling, and sends route to the owning lane; the
    run loops advance all lanes through conservative windows and merge
    cross-shard batches at the barriers. Traffic engines, protocols, and
    fault injectors run unmodified: the :attr:`interceptor` fans out to
    every lane, and ``now`` always reflects the executing lane's clock.
    """

    def __init__(self, plan: ShardPlan, *, telemetry: Optional[Telemetry] = None) -> None:
        self._plan = plan
        self._active: Optional[_ShardLane] = None
        self._barrier = 0.0
        self.windows = 0
        self.exchanged = 0
        telemetry = telemetry if telemetry is not None else Telemetry()
        if plan.shards == 1:
            single = _ShardLane(0, route=None, lookahead=math.inf, telemetry=telemetry)
            self._single: Optional[_ShardLane] = single
            self._lanes: List[_ShardLane] = [single]
            self._driver = single
        else:
            self._single = None
            self._lanes = [
                _ShardLane(
                    s, route=plan.shard_of, lookahead=plan.lookahead, telemetry=telemetry
                )
                for s in range(plan.shards)
            ]
            self._driver = _ShardLane(
                DRIVER, route=plan.shard_of, lookahead=plan.lookahead, telemetry=telemetry
            )
            lanes_by_id = {lane.shard_id: lane for lane in self._lanes}
            lanes_by_id[DRIVER] = self._driver
            for lane in self._all_lanes():
                lane._lanes = lanes_by_id
        super().__init__(telemetry=telemetry)

    def _all_lanes(self) -> Iterator[_ShardLane]:
        yield from self._lanes
        if self._single is None:
            yield self._driver

    @property
    def plan(self) -> ShardPlan:
        """The shard plan this engine runs."""
        return self._plan

    @property
    def shards(self) -> int:
        """Number of shard lanes."""
        return self._plan.shards

    # -- clock -------------------------------------------------------------------

    @property
    def now(self) -> float:  # type: ignore[override]
        active = self._active
        if active is not None:
            return active.now
        if self._single is not None:
            return self._single.now
        return self._barrier

    @now.setter
    def now(self, value: float) -> None:
        # Simulator.__init__ assigns `now = 0.0`; the run loops never
        # write the parent clock otherwise.
        self._barrier = value

    # -- interceptor fan-out -----------------------------------------------------

    @property
    def interceptor(self):  # type: ignore[override]
        return self._interceptor_fn

    @interceptor.setter
    def interceptor(self, fn) -> None:
        self._interceptor_fn = fn
        for lane in self._all_lanes():
            lane.interceptor = fn

    # -- process registry --------------------------------------------------------

    def _lane_of(self, address: Address) -> _ShardLane:
        if self._single is not None:
            return self._single
        shard = self._plan.shard_of(address)
        return self._driver if shard == DRIVER else self._lanes[shard]

    def register(self, process: Process) -> None:
        self._lane_of(process.address).register(process)

    def deregister(self, address: Address) -> Process:
        return self._lane_of(address).deregister(address)

    def is_registered(self, address: Address) -> bool:
        return self._lane_of(address).is_registered(address)

    def process(self, address: Address) -> Process:
        return self._lane_of(address).process(address)

    @property
    def process_count(self) -> int:
        return sum(lane.process_count for lane in self._all_lanes())

    # -- scheduling and sends ----------------------------------------------------

    def _context_lane(self) -> _ShardLane:
        """The lane new work belongs to: the executing one, else the driver."""
        active = self._active
        return active if active is not None else self._driver

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        self._context_lane().schedule(delay, action)

    def schedule_every(
        self,
        period: float,
        action: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        until: Optional[float] = None,
        owner: Optional[Address] = None,
    ) -> None:
        self._context_lane().schedule_every(
            period, action, first_delay=first_delay, until=until, owner=owner
        )

    def send(self, message: Message, delay: float) -> None:
        self._context_lane().send(message, delay)

    # -- conservation ------------------------------------------------------------

    def conservation(self) -> Dict[str, int]:
        tallies = {"sent": 0, "duplicated": 0, "delivered": 0, "dropped": 0, "pending": 0}
        for lane in self._all_lanes():
            tallies["sent"] += lane._n_sent
            tallies["duplicated"] += lane._n_duplicated
            tallies["delivered"] += lane._n_delivered
            tallies["dropped"] += lane._n_dropped
            tallies["pending"] += lane._n_undelivered
        # copies buffered in outboxes are pending too (already transferred
        # out of their lane's count by take_outbox — not the case here,
        # where outboxes are drained only at barriers)
        tallies["balanced"] = int(
            tallies["sent"] + tallies["duplicated"]
            == tallies["delivered"] + tallies["dropped"] + tallies["pending"]
        )
        return tallies

    def _check_conservation(self) -> None:
        tallies = self.conservation()
        if not tallies["balanced"]:
            raise StateError(f"cross-shard message conservation violated: {tallies}")

    @property
    def messages_sent(self) -> int:  # type: ignore[override]
        return sum(lane._n_sent for lane in self._all_lanes())

    @property
    def messages_dropped(self) -> int:  # type: ignore[override]
        return sum(lane._n_dropped for lane in self._all_lanes())

    @property
    def messages_pending(self) -> int:  # type: ignore[override]
        return sum(lane._n_undelivered for lane in self._all_lanes())

    @property
    def events_processed(self) -> int:  # type: ignore[override]
        return sum(lane._n_events for lane in self._all_lanes())

    @property
    def pending_events(self) -> int:  # type: ignore[override]
        return sum(
            lane.pending_events + len(lane._outbox) for lane in self._all_lanes()
        )

    # -- execution ---------------------------------------------------------------

    @contextmanager
    def _activated(self, lane: _ShardLane) -> Iterator[None]:
        self._active = lane
        try:
            yield
        finally:
            self._active = None

    def _run_lane(self, lane: _ShardLane, upto: float, *, inclusive: bool) -> None:
        with self._activated(lane):
            lane.run_window(upto, inclusive=inclusive)

    def _drain_driver(self, upto: float) -> None:
        """Run driver events with time <= *upto* at a global barrier."""
        with self._activated(self._driver):
            self._driver.run_window(upto, inclusive=True)

    def _exchange(self) -> None:
        """Merge all outboxes into destination heaps, deterministically."""
        entries: List[OutboxEntry] = []
        for lane in self._lanes:
            if lane._outbox:
                entries.extend(lane.take_outbox())
        if not entries:
            return
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        for arrival, _origin, _seq, message, sent_at in entries:
            self._lane_of(message.recipient).push_delivery(arrival, message, sent_at)
        self.exchanged += len(entries)

    def run_until(self, end_time: float) -> None:
        """Process events with timestamp <= *end_time* across all lanes."""
        if self._single is not None:
            single = self._single
            with self._running(), self._activated(single):
                single.run_window(end_time, inclusive=True)
            self._barrier = single.now
            return
        with self._running():
            self._advance(end_time)

    def _advance(self, end_time: float) -> None:
        barrier = self._barrier
        if end_time < barrier:
            return
        lookahead = self._plan.lookahead
        driver = self._driver
        while barrier < end_time:
            # Driver events run only at barriers, where every lane's clock
            # equals the driver's — monolithic semantics for global timers
            # and zero-delay dispatches.
            self._drain_driver(barrier)
            t_driver = driver.peek_time()
            window_end = min(
                barrier + lookahead,
                end_time,
                t_driver if t_driver is not None else math.inf,
            )
            for lane in self._lanes:
                self._run_lane(lane, window_end, inclusive=False)
            self._exchange()
            driver.now = window_end
            barrier = self._barrier = window_end
            self.windows += 1
            self._check_conservation()
        # the final instant: events stamped exactly end_time
        self._drain_driver(end_time)
        for lane in self._lanes:
            self._run_lane(lane, end_time, inclusive=True)
        self._exchange()
        self._check_conservation()
        self._barrier = end_time

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Drain every lane completely (bounded by *max_events*)."""
        if self._single is not None:
            single = self._single
            with self._activated(single):
                try:
                    single.run_all(max_events)
                finally:
                    self._barrier = single.now
            return
        start = self.events_processed
        while self.pending_events:
            horizon = max(
                (max(t for t, _, _ in lane._heap) for lane in self._all_lanes() if lane._heap),
                default=self._barrier,
            )
            horizon = max(
                horizon, max((e[0] for lane in self._lanes for e in lane._outbox), default=horizon)
            )
            self.run_until(horizon)
            if self.events_processed - start > max_events:
                raise StateError(
                    f"run_all exceeded {max_events} events; runaway schedule?"
                )


# -- worker-process execution ---------------------------------------------------


class ShardProgram:
    """A shard-confined workload for :func:`run_sharded`.

    Programs must be picklable (worker processes receive a copy) and must
    only register addresses the plan assigns to their shard — worker mode
    has no driver lane, so an unpartitioned recipient is an error.
    """

    def setup(self, sim: Simulator, view: Optional[ColumnarShard], plan: ShardPlan) -> None:
        """Register processes and schedule the shard's initial events."""
        raise NotImplementedError

    def collect(self, sim: Simulator) -> Any:
        """Reduce the shard's end state to a (picklable) result."""
        return None


@dataclass
class ShardRunResult:
    """Outcome of a :func:`run_sharded` execution."""

    shards: int
    workers: int
    until: float
    windows: int
    exchanged: int
    events: int
    wall_seconds: float
    results: List[Any]
    conservation: Dict[str, int]
    telemetry: Telemetry

    @property
    def event_rate(self) -> float:
        """Events processed per wall-clock second."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0


def _merge_stats(totals: Dict[str, int], stats: Dict[str, int]) -> None:
    for key, value in stats.items():
        totals[key] = totals.get(key, 0) + value


def _balance(totals: Dict[str, int], in_transit: int) -> Dict[str, int]:
    tallies = dict(totals)
    tallies["pending"] = tallies.get("pending", 0) + in_transit
    tallies["balanced"] = int(
        tallies.get("sent", 0) + tallies.get("duplicated", 0)
        == tallies.get("delivered", 0) + tallies.get("dropped", 0) + tallies["pending"]
    )
    return tallies


def _worker_main(
    conn: Any, program: ShardProgram, shard: int, plan: ShardPlan, until: float
) -> None:
    try:
        telemetry = Telemetry()
        lane = _ShardLane(
            shard, route=plan.shard_of, lookahead=plan.lookahead, telemetry=telemetry
        )
        view = plan.views[shard] if plan.views else None
        program.setup(lane, view, plan)
        barrier = 0.0
        while barrier < until:
            window_end = min(barrier + plan.lookahead, until)
            inclusive = window_end >= until
            lane.run_window(window_end, inclusive=inclusive)
            conn.send(("window", lane.take_outbox()))
            tag, inbox = conn.recv()
            for arrival, _origin, _seq, message, sent_at in inbox:
                lane.push_delivery(arrival, message, sent_at)
            barrier = window_end
        conn.send(("done", (program.collect(lane), lane.stats(), telemetry.registry)))
    except Exception as exc:  # surface worker failures to the parent
        import traceback

        conn.send(("error", f"shard {shard}: {exc}\n{traceback.format_exc()}"))
    finally:
        conn.close()


def run_sharded(
    plan: ShardPlan,
    program: ShardProgram,
    until: float,
    *,
    workers: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
) -> ShardRunResult:
    """Run *program* on every shard of *plan* for *until* simulated units.

    ``workers=None`` (or 1, or the single-shard case) runs the shards
    in-process on a :class:`ShardedSimulator`; otherwise one worker
    process per shard executes the conservative-window protocol over
    pipes, with the parent routing cross-shard batches and checking the
    conservation invariant at the end. ``workers`` must equal
    ``plan.shards`` in process mode — shards are the unit of parallelism.
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    start = perf_counter()
    if workers is None or workers <= 1 or plan.shards == 1:
        sim = ShardedSimulator(plan, telemetry=telemetry)
        for lane in sim._lanes:
            view = plan.views[lane.shard_id] if plan.views else None
            program.setup(lane, view, plan)
        sim.run_until(until)
        tallies = sim.conservation()
        if not tallies["balanced"]:
            raise StateError(f"message conservation violated: {tallies}")
        return ShardRunResult(
            shards=plan.shards,
            workers=1,
            until=until,
            windows=sim.windows,
            exchanged=sim.exchanged,
            events=sim.events_processed,
            wall_seconds=perf_counter() - start,
            results=[program.collect(lane) for lane in sim._lanes],
            conservation=tallies,
            telemetry=telemetry,
        )

    if workers != plan.shards:
        raise StateError(
            f"worker mode runs one process per shard: workers={workers} "
            f"must equal shards={plan.shards}"
        )
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    pipes = [ctx.Pipe() for _ in range(plan.shards)]
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(child, program, shard, plan, until),
            daemon=True,
        )
        for shard, (_, child) in enumerate(pipes)
    ]
    for proc in procs:
        proc.start()
    for _, child in pipes:
        child.close()
    conns = [parent for parent, _ in pipes]
    windows = 0
    exchanged = 0
    in_transit = 0

    def _recv(shard: int) -> Tuple[str, Any]:
        # A bare recv() would hang on a wedged worker, and a hard-killed one
        # only shows as EOF once every sibling that inherited its pipe end
        # has exited too — so poll, and look at the process in between.
        conn, proc = conns[shard], procs[shard]
        deadline = perf_counter() + WORKER_STALL_SECONDS
        while not conn.poll(0.2):
            if not proc.is_alive() and not conn.poll(0):
                raise StateError(
                    f"shard {shard} worker died (exit code {proc.exitcode}) "
                    f"without reporting"
                )
            if perf_counter() > deadline:
                raise StateError(
                    f"shard {shard} worker sent nothing for "
                    f"{WORKER_STALL_SECONDS:g} s"
                )
        try:
            tag, payload = conn.recv()
        except EOFError:
            raise StateError(
                f"shard {shard} worker closed its pipe (exit code "
                f"{proc.exitcode}) without reporting"
            ) from None
        if tag == "error":
            raise StateError(f"shard worker failed: {payload}")
        return tag, payload

    try:
        barrier = 0.0
        while barrier < until:
            window_end = min(barrier + plan.lookahead, until)
            entries: List[OutboxEntry] = []
            for shard in range(plan.shards):
                _, out = _recv(shard)
                entries.extend(out)
            entries.sort(key=lambda e: (e[0], e[1], e[2]))
            inboxes: List[List[OutboxEntry]] = [[] for _ in range(plan.shards)]
            for entry in entries:
                dest = plan.shard_of(entry[3].recipient)
                if dest == DRIVER:
                    raise StateError(
                        f"worker mode has no driver lane: unpartitioned "
                        f"recipient {entry[3].recipient!r}"
                    )
                inboxes[dest].append(entry)
            for conn, inbox in zip(conns, inboxes):
                conn.send(("inbox", inbox))
            windows += 1
            exchanged += len(entries)
            barrier = window_end
        totals: Dict[str, int] = {}
        results: List[Any] = []
        for shard in range(plan.shards):
            tag, payload = _recv(shard)
            if tag != "done":  # pragma: no cover - protocol guard
                raise StateError(f"unexpected worker message {tag!r}")
            result, stats, registry = payload
            results.append(result)
            _merge_stats(totals, stats)
            telemetry.registry.merge(registry)
    except BaseException:
        # the survivors are blocked on an inbox that will never come
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hang guard
                proc.terminate()
    tallies = _balance(
        {k: v for k, v in totals.items() if k != "events"}, in_transit
    )
    if not tallies["balanced"]:
        raise StateError(f"cross-shard message conservation violated: {tallies}")
    return ShardRunResult(
        shards=plan.shards,
        workers=plan.shards,
        until=until,
        windows=windows,
        exchanged=exchanged,
        events=totals.get("events", 0),
        wall_seconds=perf_counter() - start,
        results=results,
        conservation=tallies,
        telemetry=telemetry,
    )
