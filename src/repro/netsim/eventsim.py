"""The discrete-event simulation engine.

The hierarchical state-distribution protocol (paper Section 4), the
traffic engine and the fault injector all run on this engine: proxies are
:class:`Process` subclasses, messages are delivered after the physical
delay between sender and receiver, and periodic behaviour is expressed
with :meth:`Simulator.schedule_every`.

There is one engine class. A :class:`Simulator` owns a **driver lane**
and, given a :class:`~repro.netsim.shard.ShardPlan` of two or more
shards, one **shard lane** per shard. A lane is a record — an event heap
plus an outbox of cross-shard sends — not an engine: the clock, the
process registry, the interceptor, the telemetry handles and the
conservation tallies live once, on the simulator.

An event is data: every heap entry is ``(time, seq, action, message,
sent_at)``. A timer carries its *action* and no message; a message
delivery carries the message and the instant it was sent, and no action
— the one pop loop (:meth:`Simulator._run_lane`) delivers it in line, so
a send allocates a tuple and nothing else.
"""

from __future__ import annotations

import gc
import itertools
import math
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Tuple,
)

from repro.telemetry import Counter, Histogram, MetricsRegistry, Telemetry, get_telemetry
from repro.util.errors import StateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (shard imports eventsim)
    from repro.netsim.shard import ShardPlan

#: delivery-latency histogram buckets (simulated ms)
DELIVERY_LATENCY_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)

Address = Hashable

#: shard id of the driver lane (hosts every address outside the partition)
DRIVER = -1

#: A delivery interceptor: called once per :meth:`Simulator.send` with the
#: message and its nominal delay; returns the list of delays at which
#: copies of the message should actually be delivered. ``None`` means
#: "deliver normally" (equivalent to ``[delay]``), an empty list drops the
#: message, two entries duplicate it, and a perturbed delay models jitter
#: or reordering. The fault-injection layer is the canonical implementor.
DeliveryInterceptor = Callable[["Message", float], Optional[List[float]]]


class Message(NamedTuple):
    """A protocol message in flight (immutable; one is built per send).

    Attributes:
        sender: address of the sending process.
        recipient: address of the receiving process.
        kind: message type tag (e.g. ``"local_state"``).
        payload: arbitrary message body.
        size: abstract size used by overhead accounting (e.g. number of
            service names carried).
    """

    sender: Address
    recipient: Address
    kind: str
    payload: Any
    size: int = 1


#: one heap entry: (time, seq, action, message, sent_at); ``(time, seq)`` is
#: unique, so entries never compare past it. Exactly one of *action* (a
#: timer) and *message* (a delivery; typed loosely for the pop loop) is set.
_Event = Tuple[float, int, Optional[Callable[[], None]], Any, float]

#: one buffered cross-shard delivery: (arrival, origin shard, origin seq,
#: message, sent_at)
OutboxEntry = Tuple[float, int, int, Message, float]

#: a worker process's barrier step: hand over this shard's outbox, get back
#: its share of every shard's, already in merge order
_OutboxSwap = Callable[[List[OutboxEntry]], List[OutboxEntry]]


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body with the cyclic collector off, then put it back as found.

    Everything the engine allocates per event (heap entry, message, outbox
    entry) is acyclic and freed by reference count; a collection in the
    middle of a run can only re-walk the live processes and the messages in
    flight. Cyclic garbage an *action* makes waits for the body to end.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _KindMetrics:
    """The registry's message metrics of one kind, fetched once per simulator.

    ``send`` and the pop loop bump the counters' ``value`` directly: the
    registry is exact at every instant, at the price of one dict lookup
    (kind -> this record) per send and per delivery.
    """

    __slots__ = ("sent", "duplicated", "delivered", "size_units", "latency")

    def __init__(self, registry: MetricsRegistry, kind: str) -> None:
        self.sent: Counter = registry.counter("sim.messages.sent", kind=kind)
        self.duplicated: Counter = registry.counter("sim.messages.duplicated", kind=kind)
        self.delivered: Counter = registry.counter("sim.messages.delivered", kind=kind)
        self.size_units: Counter = registry.counter("sim.bytes.delivered", kind=kind)
        self.latency: Histogram = registry.histogram(
            "sim.delivery.latency", DELIVERY_LATENCY_BUCKETS, kind=kind
        )


class _Lane:
    """One event heap of a :class:`Simulator`: the driver's or one shard's.

    A record, not an engine. It has no clock of its own either: between
    barriers only the executing lane reads the simulator's clock, and at a
    barrier every lane stands at the same instant.
    """

    __slots__ = ("shard", "heap", "outbox")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.heap: List[_Event] = []
        #: cross-shard sends of the running window, merged at its barrier
        self.outbox: List[OutboxEntry] = []


def _ledger(sent: int, duplicated: int, delivered: int, dropped: int, pending: int) -> Dict[str, int]:
    """The conservation tallies as a dict, with the invariant as ``balanced``."""
    return {
        "sent": sent,
        "duplicated": duplicated,
        "delivered": delivered,
        "dropped": dropped,
        "pending": pending,
        "balanced": int(sent + duplicated == delivered + dropped + pending),
    }


class Simulator:
    """Event heaps under one simulated clock, with message-delivery bookkeeping.

    ``Simulator()`` is the single-heap engine: every address belongs to
    the driver lane, and :meth:`run_until` is one pop loop with
    deterministic ``(time, seq)`` tie-breaking. ``Simulator(plan=plan)``
    with a plan of two or more shards adds one lane per shard (a 1-shard
    plan adds none, so it *is* the single-heap engine) and the same
    method cuts the run into conservative (Chandy–Misra style) windows no
    longer than the plan's **lookahead** — the minimum delay between
    proxies on different shards — so that a message sent inside a window
    never arrives inside it; outboxes merge at the window barriers. The
    driver lane then hosts what the plan does not partition (global
    timers, traffic arrivals) and executes only at barriers, which keeps
    its zero-delay dispatches into the shards exact. Registration,
    scheduling and sends are the same calls on both shapes, so protocols,
    traffic engines and fault injectors run unmodified on either.

    Every simulator owns a private :class:`~repro.telemetry.Telemetry`
    scope (pass one to share): per-kind delivered-message/byte counters
    and delivery-latency histograms accumulate there, and the run loops
    mark the simulator as the active clock source so spans and events
    emitted by code running under the engine are stamped with ``now``.
    A finished experiment folds the scope into the process-wide one with
    ``sim.telemetry.publish()``.
    """

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        *,
        plan: Optional["ShardPlan"] = None,
    ) -> None:
        #: the executing event's timestamp; between runs, the last barrier
        self.now: float = 0.0
        #: the shard plan this engine runs (``None``: no partition)
        self.plan = plan
        self._driver = _Lane(DRIVER)
        #: shard lanes by shard id; none = every address is the driver's
        self._lanes: List[_Lane] = (
            [_Lane(shard) for shard in range(plan.shards)]
            if plan is not None and plan.shards > 1
            else []
        )
        #: the lane of every address seen so far; the plan is frozen, so an
        #: entry never goes stale
        self._lane_by_address: Dict[Address, _Lane] = {}
        #: number of shards the run is split into (1: a single heap)
        self.shards = len(self._lanes) or 1
        #: longest window, and shortest legal cross-shard delay
        self._lookahead = plan.lookahead if plan is not None else math.inf
        #: the lane new work lands on: the executing one, else the driver
        self._active = self._driver
        #: set by :meth:`_confine` in a worker process, which owns one shard
        self._shard: Optional[int] = None
        self._swap: Optional[_OutboxSwap] = None
        #: conservative windows run, and outbox entries merged at their barriers
        self.windows = 0
        self.exchanged = 0
        self._counter = itertools.count()
        self._processes: Dict[Address, "Process"] = {}
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: per-kind message metrics, created at the kind's first message
        self._metrics: Dict[str, _KindMetrics] = {}
        #: per-(kind, cause) drop counters: copies, and the kind's size units
        self._drop_handles: Dict[Tuple[str, str], Tuple[Counter, Counter]] = {}
        #: optional hook on the delivery path (see :data:`DeliveryInterceptor`)
        self.interceptor: Optional[DeliveryInterceptor] = None
        # Plain-int mirrors of the conservation counters so the invariant
        # `sent + duplicated == delivered + dropped + pending` can be checked
        # every window barrier without scanning the metrics registry.
        self._n_sent = 0
        self._n_duplicated = 0
        self._n_delivered = 0
        self._n_dropped = 0
        self._n_undelivered = 0
        self._n_events = 0

    # -- telemetry -----------------------------------------------------------

    @property
    def messages_delivered(self) -> int:
        """Total delivered messages (all kinds), from the metrics registry."""
        return self.telemetry.registry.total("sim.messages.delivered")

    @property
    def bytes_delivered(self) -> int:
        """Total delivered size units (all kinds), from the registry."""
        return self.telemetry.registry.total("sim.bytes.delivered")

    @property
    def messages_sent(self) -> int:
        """Total messages handed to :meth:`send` (before fan-out or drops)."""
        return self._n_sent

    @property
    def messages_dropped(self) -> int:
        """Total message copies dropped (interceptor + unregistered)."""
        return self._n_dropped

    @property
    def messages_pending(self) -> int:
        """Message copies scheduled but not yet delivered or dropped."""
        return self._n_undelivered

    @property
    def events_processed(self) -> int:
        """Total events popped off the heaps by the run loop."""
        return self._n_events

    def conservation(self) -> Dict[str, int]:
        """Message-conservation tallies; ``balanced`` asserts the invariant.

        The invariant is ``sent + duplicated == delivered + dropped + pending``
        where every term counts message *copies* (a duplicated send yields two
        copies, an interceptor drop resolves the nominal copy as dropped). A
        copy is pending from the send until its delivery event runs, whether
        it waits in a heap or in an outbox.
        """
        return _ledger(
            self._n_sent,
            self._n_duplicated,
            self._n_delivered,
            self._n_dropped,
            self._n_undelivered,
        )

    def _kind_metrics(self, kind: str) -> _KindMetrics:
        """The metrics of a *kind* seen for the first time."""
        metrics = self._metrics[kind] = _KindMetrics(self.telemetry.registry, kind)
        return metrics

    def _record_drop(self, message: Message, cause: str) -> None:
        """The one place a copy dies: its count by cause, its size by kind."""
        key = (message.kind, cause)
        handles = self._drop_handles.get(key)
        if handles is None:
            registry = self.telemetry.registry
            handles = self._drop_handles[key] = (
                registry.counter("sim.messages.dropped", kind=message.kind, cause=cause),
                registry.counter("sim.bytes.dropped", kind=message.kind),
            )
        copies, size_units = handles
        copies.inc()
        size_units.inc(message.size)
        self._n_dropped += 1

    @contextmanager
    def _running(self) -> Iterator[None]:
        """Mark this simulator as the active clock source while executing."""
        default = get_telemetry()
        with self.telemetry.simulation(self):
            if default is self.telemetry:
                yield
            else:
                with default.simulation(self):
                    yield

    # -- lanes -----------------------------------------------------------------

    def _lane_of(self, address: Address) -> _Lane:
        """The lane owning *address*: its plan shard's, else the driver's.

        The plan is asked once per address; the answer is kept.
        """
        lane = self._lane_by_address.get(address)
        if lane is None:
            plan = self.plan
            shard = plan.shard_of(address) if plan is not None and self._lanes else DRIVER
            lane = self._driver if shard == DRIVER else self._lanes[shard]
            self._lane_by_address[address] = lane
        return lane

    @contextmanager
    def _on_shard(self, shard: int) -> Iterator[None]:
        """Land a program's set-up on the lane of *shard* (the driver's without lanes)."""
        self._active = self._lanes[shard] if self._lanes else self._driver
        try:
            yield
        finally:
            self._active = self._driver

    def _confine(self, shard: int, swap: _OutboxSwap) -> None:
        """Make this the engine of one worker process, which owns *shard*.

        The other shards' lanes stay empty here — their processes live in
        sibling workers — and the barrier step trades outboxes through
        *swap* instead of merging them locally. There is no driver lane
        across processes, so unpartitioned addresses are errors.
        """
        self._shard = shard
        self._swap = swap

    # -- process registry ----------------------------------------------------

    def register(self, process: "Process") -> None:
        """Attach *process*; its :meth:`Process.start` runs at time now."""
        address = process.address
        if address in self._processes:
            raise StateError(f"duplicate process address {address!r}")
        lane = self._lane_of(address)
        confined = self._swap is not None and lane.shard != self._shard
        if confined or (lane is not self._active and self._active is not self._driver):
            # only the driver, which runs at barriers, may reach into another
            # lane's heap: a shard lane's neighbour may already have run past now
            who = f"shard {self._shard} worker" if confined else f"shard {self._active.shard}"
            owner = "no shard" if lane is self._driver else f"shard {lane.shard}"
            raise StateError(
                f"{who} cannot register {address!r}: the plan assigns it to {owner}"
            )
        self._processes[address] = process
        process.simulator = self
        heappush(lane.heap, (self.now, next(self._counter), process.start, None, 0.0))

    def deregister(self, address: Address) -> "Process":
        """Detach and return the process at *address*.

        Deliveries to the address afterwards become counted drops
        (``sim.messages.dropped`` with ``cause="unregistered"``) instead of
        :class:`StateError` crashes, and periodic schedules installed with
        ``schedule_every(..., owner=address)`` stop re-arming.
        """
        try:
            process = self._processes.pop(address)
        except KeyError:
            raise StateError(f"no process registered at {address!r}") from None
        process.simulator = None
        return process

    def is_registered(self, address: Address) -> bool:
        """Whether a process is currently registered at *address*."""
        return address in self._processes

    @property
    def process_count(self) -> int:
        """Number of currently registered processes."""
        return len(self._processes)

    def process(self, address: Address) -> "Process":
        """The registered process at *address*."""
        try:
            return self._processes[address]
        except KeyError:
            raise StateError(f"no process registered at {address!r}") from None

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run *action* after *delay* simulated time units.

        The event joins the executing lane's heap; outside a run, the
        driver's.
        """
        if delay < 0:
            raise StateError(f"cannot schedule in the past (delay={delay})")
        heappush(
            self._active.heap, (self.now + delay, next(self._counter), action, None, 0.0)
        )

    def schedule_every(
        self,
        period: float,
        action: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        until: Optional[float] = None,
        owner: Optional[Address] = None,
    ) -> None:
        """Run *action* periodically every *period* units.

        The first firing happens after ``first_delay`` (default: one period).
        If *until* is given, firings at or after that time are suppressed.
        If *owner* is given, the schedule is tied to that process address and
        stops firing once the address is deregistered.
        """
        if period <= 0:
            raise StateError(f"period must be positive, got {period}")

        def fire() -> None:
            if until is not None and self.now >= until:
                return
            if owner is not None and owner not in self._processes:
                return
            action()
            self.schedule(period, fire)

        self.schedule(period if first_delay is None else first_delay, fire)

    def send(self, message: Message, delay: float) -> None:
        """Deliver *message* to its recipient after *delay* units.

        If an :attr:`interceptor` is installed it decides the fate of the
        message first: the nominal single delivery can become a drop, a
        duplicate, or a perturbed-delay delivery (jitter/reordering). The
        protocol layers above never see the difference — exactly the point
        of hooking faults in here.

        A copy for a recipient on the executing lane is an ordinary local
        event. The driver, which only runs at barriers, pushes into the
        recipient's heap directly; a shard lane buffers the copy in its
        outbox until the window's barrier, so its delay must not be below
        the plan's lookahead. What cannot be delivered (see
        :meth:`_refusal`) raises before any tally moves.
        """
        sent_at = self.now
        _, recipient, kind, _, size = message
        delays = None if self.interceptor is None else self.interceptor(message, delay)
        lowest = delay if delays is None else min(delays, default=math.inf)
        origin = self._active
        # without shard lanes every address, and all execution, is the driver's
        dest = origin
        if self._lanes:
            dest = self._lane_by_address.get(recipient) or self._lane_of(recipient)
        local = dest is origin or origin is self._driver
        if size < 0 or lowest < 0 or not local and (
            lowest < self._lookahead or dest is self._driver and self._swap is not None
        ):
            # before any tally moves: a refused send leaves the ledger as it was
            raise self._refusal(message, lowest)
        metrics = self._metrics.get(kind) or self._kind_metrics(kind)
        metrics.sent.value += 1
        self._n_sent += 1
        if delays is None:
            self._n_undelivered += 1
            if local:
                heappush(dest.heap, (sent_at + delay, next(self._counter), None, message, sent_at))
            else:
                origin.outbox.append(
                    (sent_at + delay, origin.shard, next(self._counter), message, sent_at)
                )
            return
        if not delays:
            # The nominal copy was swallowed by the interceptor: account
            # for it so `sent + duplicated == delivered + dropped + pending`.
            self._record_drop(message, "intercepted")
            return
        metrics.duplicated.value += len(delays) - 1
        self._n_duplicated += len(delays) - 1
        self._n_undelivered += len(delays)
        for actual in delays:
            if local:
                heappush(dest.heap, (sent_at + actual, next(self._counter), None, message, sent_at))
            else:
                origin.outbox.append(
                    (sent_at + actual, origin.shard, next(self._counter), message, sent_at)
                )

    def _refusal(self, message: Message, lowest: float) -> StateError:
        """Why :meth:`send` refuses *message*, whose shortest delay is *lowest*."""
        route = f"send {message.sender!r} -> {message.recipient!r}"
        if message.size < 0:
            return StateError(f"{route} with a negative size ({message.size})")
        if lowest < 0:
            return StateError(f"cannot deliver in the past (delay={lowest})")
        if self._swap is not None and self._lane_of(message.recipient) is self._driver:
            return StateError(
                f"shard {self._shard} worker: {route} leaves the partition, and worker "
                "mode has no driver lane"
            )
        return StateError(
            f"cross-shard {route} with delay {lowest} below the lookahead "
            f"{self._lookahead}; the shard plan's lookahead must lower-bound every "
            "cross-shard delay"
        )

    # -- execution ---------------------------------------------------------------

    def _run_lane(self, lane: _Lane, upto: float) -> None:
        """Pop and run *lane*'s events stamped <= *upto*: the engine's pop loop.

        A timer's action is called; a delivery (no action) is resolved here:
        the copy stops being pending, and is either dropped because nobody
        is registered at the recipient any more, or counted and received.
        """
        heap = lane.heap
        processes = self._processes
        metrics_of = self._metrics
        previous, self._active = self._active, lane
        try:
            while heap and heap[0][0] <= upto:
                time, _, action, message, sent_at = heappop(heap)
                self.now = time
                self._n_events += 1
                if action is not None:
                    action()
                    continue
                self._n_undelivered -= 1
                _, address, kind, _, size = message
                recipient = processes.get(address)
                if recipient is None:
                    self._record_drop(message, "unregistered")
                    continue
                # a worker process first meets a kind sent from another shard here
                metrics = metrics_of.get(kind) or self._kind_metrics(kind)
                metrics.delivered.value += 1
                metrics.size_units.value += size  # send() refused a negative one
                metrics.latency.observe(time - sent_at)
                self._n_delivered += 1
                recipient.receive(message)
        finally:
            self._active = previous

    def _exchange(self) -> None:
        """The barrier step: move every outbox entry to its destination heap.

        Entries merge in ``(arrival, origin shard, origin seq)`` order — their
        plain tuple order, the triple being unique — so ties break the same
        way whatever order the lanes ran in. A worker
        process ships its batch to the parent, which does that merge over
        every shard's batch and returns this shard's share; the ledger is
        then only balanced across all workers, and the parent checks it.
        """
        entries = [entry for lane in self._lanes for entry in lane.outbox]
        for lane in self._lanes:
            lane.outbox.clear()
        if self._swap is None:
            entries.sort()
        else:
            self._n_undelivered -= len(entries)
            entries = self._swap(entries)
            self._n_undelivered += len(entries)
        for arrival, _origin, _seq, message, sent_at in entries:
            heappush(
                self._lane_of(message.recipient).heap,
                (arrival, next(self._counter), None, message, sent_at),
            )
        self.exchanged += len(entries)
        if self._swap is None and not self.conservation()["balanced"]:
            raise StateError(f"message conservation violated: {self.conservation()}")

    def run_until(self, end_time: float) -> None:
        """Process events with timestamp <= *end_time*; the clock ends there."""
        driver, lanes = self._driver, self._lanes
        with self._running(), _collector_paused():
            while lanes and self.now < end_time:
                # Driver events run only at barriers, where every lane stands
                # at the driver's instant: single-heap semantics for global
                # timers and zero-delay dispatches into the shards.
                self._run_lane(driver, self.now)
                window_end = min(
                    self.now + self._lookahead,
                    end_time,
                    driver.heap[0][0] if driver.heap else math.inf,
                )
                # the window is half-open: events at window_end wait for the
                # batches the barrier is about to merge
                last = math.nextafter(window_end, -math.inf)
                for lane in lanes:
                    self._run_lane(lane, last)
                self.now = window_end
                self._exchange()
                self.windows += 1
            # the final instant — with no shard lanes, the whole run
            self._run_lane(driver, end_time)
            for lane in lanes:
                self._run_lane(lane, end_time)
            self._exchange()
            self.now = max(self.now, end_time)

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Drain every heap completely (bounded by *max_events*)."""
        start = self._n_events
        lanes = (self._driver, *self._lanes)
        while self.pending_events:
            queued = [event[0] for lane in lanes for event in lane.heap]
            queued += [entry[0] for lane in lanes for entry in lane.outbox]
            self.run_until(max(queued))
            if self._n_events - start > max_events:
                raise StateError(
                    f"run_all exceeded {max_events} events; runaway schedule?"
                )

    @property
    def pending_events(self) -> int:
        """Number of events still queued (in heaps and outboxes)."""
        return sum(len(lane.heap) + len(lane.outbox) for lane in (self._driver, *self._lanes))


class Process:
    """Base class for simulated protocol participants."""

    def __init__(self, address: Address) -> None:
        self.address = address
        self.simulator: Optional[Simulator] = None

    def start(self) -> None:
        """Hook invoked once when the simulation registers the process."""

    def receive(self, message: Message) -> None:
        """Hook invoked on message delivery."""

    def send(
        self,
        recipient: Address,
        kind: str,
        payload: Any,
        delay: float,
        size: int = 1,
    ) -> None:
        """Send a message to *recipient*, delivered after *delay*."""
        if self.simulator is None:
            raise StateError(f"process {self.address!r} is not registered")
        # tuple.__new__: the NamedTuple's own __new__ is a Python frame per hop
        self.simulator.send(
            tuple.__new__(Message, (self.address, recipient, kind, payload, size)), delay
        )
