"""Fault injection on the simulator's delivery path.

A :class:`FaultInjector` executes a :class:`~repro.faults.plan.FaultPlan`
against a :class:`~repro.netsim.eventsim.Simulator` by installing itself
as the simulator's delivery interceptor. Every message the simulation
sends passes through :meth:`FaultInjector.intercept`, which applies, in a
fixed order: sender-crash drops, partition drops, link-loss drops, delay
jitter, reordering hold-back, duplication, and recipient-crash drops (a
message already in flight toward a proxy that will be down at its arrival
time dies with it).

Determinism: all probabilistic decisions draw from one RNG seeded with
``plan.seed``, consumed in event order. Because the event engine itself
is deterministic, the same plan over the same simulation yields a
bit-identical :attr:`FaultInjector.trace` — the property the convergence
auditor's reproducibility check asserts.

Crash/restart schedules are installed as simulator events; on a restart
the injector fires the ``on_restart`` callback (the scenario harness
wires it to the protocol's state wipe) and records the lifecycle in the
trace. Every decision also bumps a ``faults.*`` telemetry counter.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional

from repro.faults.plan import (
    CrashRestart,
    DelayJitter,
    Duplicate,
    FaultPlan,
    LinkLoss,
    Partition,
    Reorder,
)
from repro.netsim.eventsim import Message, Simulator
from repro.overlay.network import ProxyId
from repro.util.errors import FaultError
from repro.util.rng import ensure_rng

#: callback fired when a crashed proxy restarts; receives the spec
RestartHook = Callable[[CrashRestart], None]

#: callback fired at the instant a proxy crashes; receives the spec. The
#: scenario harness uses it to capture a warm-restart snapshot — the last
#: state the proxy persisted before going down
CrashHook = Callable[[CrashRestart], None]

#: maps a simulator address to the proxy a fault spec would name (identity
#: by default); lets auxiliary processes colocated with a proxy — e.g. the
#: traffic engine's ``("traffic", proxy)`` relays — share the proxy's fate
AddressResolver = Callable[[Any], Any]


class FaultInjector:
    """Executes a fault plan by intercepting simulator deliveries."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = ensure_rng(plan.seed)
        self.sim: Optional[Simulator] = None
        #: chronological record of every fault decision (JSONL-able)
        self.trace: List[Dict[str, Any]] = []
        self._losses = [s for s in plan.specs if isinstance(s, LinkLoss)]
        self._partitions = [s for s in plan.specs if isinstance(s, Partition)]
        self._jitters = [s for s in plan.specs if isinstance(s, DelayJitter)]
        self._duplicates = [s for s in plan.specs if isinstance(s, Duplicate)]
        self._reorders = [s for s in plan.specs if isinstance(s, Reorder)]
        # what every message reads: a proxy's crash windows, and whether any
        # windowed spec is open once ``i`` of the window edges have passed
        self._crashes_of: Dict[ProxyId, List[CrashRestart]] = {}
        for crash in plan.crash_specs():
            self._crashes_of.setdefault(crash.proxy, []).append(crash)
        windowed = [s for s in plan.specs if not isinstance(s, CrashRestart)]
        self._edges = sorted({t for s in windowed for t in (s.start, s.end)})
        self._open = [False] + [any(s.start <= t < s.end for s in windowed) for t in self._edges]
        self._on_restart: Optional[RestartHook] = None
        self._on_crash: Optional[CrashHook] = None
        self._resolve: Optional[AddressResolver] = None

    # -- lifecycle ---------------------------------------------------------------

    def install(
        self,
        sim: Simulator,
        *,
        on_restart: Optional[RestartHook] = None,
        on_crash: Optional[CrashHook] = None,
        resolve: Optional[AddressResolver] = None,
    ) -> "FaultInjector":
        """Hook this injector into *sim* and schedule crash/restart events.

        *on_crash* fires at each crash instant (before any post-crash
        message is intercepted) — the warm-restart path captures the
        proxy's state plane there. *resolve* maps message addresses to the
        proxy ids fault specs name (default: identity). Layers that
        register auxiliary processes under namespaced addresses (the
        traffic engine's per-proxy relays) pass their resolver so
        crash/partition/loss matching sees the proxy. A resolver must be
        pure: it is asked once per address and its answer kept.
        """
        if self.sim is not None:
            raise FaultError("injector is already installed")
        if sim.interceptor is not None:
            raise FaultError("simulator already has a delivery interceptor")
        self.sim = sim
        self._on_restart = on_restart
        self._on_crash = on_crash
        self._resolve = None if resolve is None else functools.cache(resolve)
        sim.interceptor = self.intercept
        registry = sim.telemetry.registry
        self._drop_counters = {
            cause: registry.counter("faults.dropped", cause=cause)
            for cause in ("loss", "partition", "crash_sender", "crash_recipient")
        }
        self._delay_counters = {
            cause: registry.counter("faults.delayed", cause=cause)
            for cause in ("jitter", "reorder")
        }
        self._duplicated = registry.counter("faults.duplicated")
        self._restarts = registry.counter("faults.restarts")
        for spec in self.plan.crash_specs():
            sim.schedule(spec.crash_at - sim.now, lambda s=spec: self._crash(s))
            if spec.restart_at is not None:
                sim.schedule(
                    spec.restart_at - sim.now, lambda s=spec: self._restart(s)
                )
        return self

    def _crash(self, spec: CrashRestart) -> None:
        assert self.sim is not None
        self._trace("crash", proxy=spec.proxy)
        self.sim.telemetry.events.record("faults.crash", proxy=spec.proxy)
        if self._on_crash is not None:
            self._on_crash(spec)
        if spec.restart_at is None and self.sim.is_registered(spec.proxy):
            # A crash with no restart is a permanent departure: free the
            # address so the registry stops growing and in-flight traffic
            # becomes counted drops rather than zombie deliveries.
            self.sim.deregister(spec.proxy)

    def _restart(self, spec: CrashRestart) -> None:
        assert self.sim is not None
        self._restarts.inc()
        self._trace("restart", proxy=spec.proxy, wiped=spec.wipe_state)
        self.sim.telemetry.events.record(
            "faults.restart", proxy=spec.proxy, wiped=spec.wipe_state
        )
        if self._on_restart is not None:
            self._on_restart(spec)

    # -- queries -----------------------------------------------------------------

    def down(self, proxy: ProxyId, t: float) -> bool:
        """Whether *proxy* is crashed (and not yet restarted) at time *t*."""
        return any(s.down_at(t) for s in self._crashes_of.get(proxy, ()))

    # -- the delivery hook --------------------------------------------------------

    def intercept(self, message: Message, delay: float) -> Optional[List[float]]:
        """Decide the fate of one delivery; see the module docstring.

        Returns None to deliver normally, else the list of delays at which
        copies are delivered (empty = dropped).
        """
        sim = self.sim
        assert sim is not None
        now = sim.now
        sender, recipient = message.sender, message.recipient
        if self._resolve is not None:
            sender, recipient = self._resolve(sender), self._resolve(recipient)

        # neither endpoint ever crashes, no window is open: no draw, no trace
        crashes = sender in self._crashes_of or recipient in self._crashes_of
        if not (crashes or self._open[bisect_right(self._edges, now)]):
            return None

        if self.down(sender, now):
            return self._drop("crash_sender", message, now)
        for partition in self._partitions:
            if partition.start <= now < partition.end and partition.severs(
                sender, recipient
            ):
                return self._drop("partition", message, now)
        for loss in self._losses:
            if (
                loss.start <= now < loss.end
                and loss.matches(sender, recipient)
                and self._rng.random() < loss.loss_rate
            ):
                return self._drop("loss", message, now)

        touched = False
        for jitter in self._jitters:
            if jitter.start <= now < jitter.end and (
                jitter.probability >= 1.0 or self._rng.random() < jitter.probability
            ):
                extra = self._rng.uniform(0.0, jitter.jitter)
                delay += extra
                touched = True
                self._delay_counters["jitter"].inc()
                self._trace("jitter", message=message, t=now, extra=extra)
        for reorder in self._reorders:
            if reorder.start <= now < reorder.end and self._rng.random() < reorder.probability:
                extra = self._rng.uniform(0.0, reorder.max_extra_delay)
                delay += extra
                touched = True
                self._delay_counters["reorder"].inc()
                self._trace("reorder", message=message, t=now, extra=extra)

        delays = [delay]
        for duplicate in self._duplicates:
            if duplicate.start <= now < duplicate.end and self._rng.random() < duplicate.probability:
                offset = (
                    self._rng.uniform(0.0, duplicate.max_offset)
                    if duplicate.max_offset > 0
                    else 0.0
                )
                delays.append(delay + offset)
                touched = True
                self._duplicated.inc()
                self._trace("duplicate", message=message, t=now, offset=offset)

        surviving = []
        for d in delays:
            if self.down(recipient, now + d):
                self._drop("crash_recipient", message, now)
            else:
                surviving.append(d)
        if len(surviving) < len(delays):
            return surviving
        return delays if touched else None

    # -- bookkeeping -------------------------------------------------------------

    def _drop(self, cause: str, message: Message, now: float) -> List[float]:
        self._drop_counters[cause].inc()
        self._trace("drop", message=message, t=now, cause=cause)
        return []

    def _trace(
        self,
        fault: str,
        *,
        message: Optional[Message] = None,
        t: Optional[float] = None,
        **fields: Any,
    ) -> None:
        entry: Dict[str, Any] = {
            "t": self.sim.now if t is None else t,  # type: ignore[union-attr]
            "fault": fault,
        }
        if message is not None:
            entry["kind"] = message.kind
            entry["sender"] = message.sender
            entry["recipient"] = message.recipient
        entry.update(fields)
        self.trace.append(entry)
