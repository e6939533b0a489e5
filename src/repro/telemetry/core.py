"""The :class:`Telemetry` facade: registry + tracer + event log + clocks.

Two deployment shapes coexist:

* a **process-wide default** (:func:`get_telemetry`) that long-lived
  components (routers, caches, membership) resolve lazily, so
  instrumentation is on by default without any wiring; and
* **per-run instances** owned by each :class:`~repro.netsim.eventsim.
  Simulator`, so per-run reports (ProtocolReport, SessionReport) stay
  exact even when many runs share a process. A finished run calls
  :meth:`Telemetry.publish` to fold its numbers into the default.

Clocks: the facade tracks which simulator (if any) is currently executing
its event loop — simulators announce themselves via :meth:`simulation`
around ``run_until``/``run_all``. While one is active, spans and events
are stamped with ``Simulator.now`` (clock kind ``"sim"``); otherwise with
the wall clock.

:class:`NullTelemetry` is the measured-off state: every handle it returns
is a shared no-op — the pre-instrumentation baseline an overhead
measurement compares against.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import ClockInfo, Tracer


class Telemetry:
    """One coherent observability scope: metrics, spans, events, clock."""

    enabled = True

    def __init__(
        self,
        *,
        event_capacity: int = 10_000,
        span_capacity: int = 1024,
    ) -> None:
        self.registry = MetricsRegistry()
        #: the simulator currently executing its event loop, if any
        self._active_sim: Any = None
        self.tracer = Tracer(
            self.registry,
            clock_provider=self._clock_info,
            max_roots=span_capacity,
        )
        self.events = EventLog(
            capacity=event_capacity,
            clock=self._now,
            clock_kind=self._clock_kind,
        )

    # -- clock ------------------------------------------------------------------

    def _clock_info(self) -> ClockInfo:
        sim = self._active_sim
        if sim is not None:
            return (lambda: sim.now), "sim"
        return time.perf_counter, "wall"

    def _now(self) -> float:
        sim = self._active_sim
        return sim.now if sim is not None else time.time()

    def _clock_kind(self) -> str:
        return "sim" if self._active_sim is not None else "wall"

    @contextmanager
    def simulation(self, simulator: Any) -> Iterator[None]:
        """Mark *simulator* as the active clock source while it runs."""
        previous = self._active_sim
        self._active_sim = simulator
        try:
            yield
        finally:
            self._active_sim = previous

    # -- aggregation -------------------------------------------------------------

    def publish(self, target: Optional["Telemetry"] = None) -> None:
        """Fold this scope's data into *target* (default: the process scope).

        Counters add, gauges keep the published value, histograms merge
        bucket-wise, finished span trees and buffered events move over.
        Publishing into a :class:`NullTelemetry` (or into itself) is a
        no-op, so instrumented code never needs to special-case.
        """
        target = target if target is not None else get_telemetry()
        if target is self or not target.enabled or not self.enabled:
            return
        target.registry.merge(self.registry)
        target.tracer.absorb(self.tracer)
        target.events.extend(iter(self.events))
        self.events.clear()

    # -- export -----------------------------------------------------------------

    def snapshot(self, *, span_limit: int = 50, event_limit: int = 100) -> Dict[str, Any]:
        """JSON-ready dump: all metrics plus recent spans and events."""
        events = list(self.events)
        return {
            "metrics": self.registry.snapshot(),
            "spans": {
                "finished": self.tracer.spans_finished,
                "recent": self.tracer.snapshot(limit=span_limit),
            },
            "events": {
                "recorded": self.events.recorded,
                "dropped": self.events.dropped,
                "recent": events[-event_limit:],
            },
        }

    def dump_json(self, path: str, **snapshot_kwargs: Any) -> None:
        """Write :meth:`snapshot` to *path* as JSON."""
        with open(path, "w") as handle:
            json.dump(self.snapshot(**snapshot_kwargs), handle,
                      indent=2, default=str)

    def clear(self) -> None:
        """Reset metrics, spans and events (tests, benches)."""
        self.registry.clear()
        self.tracer.clear()
        self.events.clear()


# -- the measured-off state ------------------------------------------------------


class _NullMetric:
    """Shared do-nothing stand-in for every metric handle."""

    __slots__ = ()
    name = "null"
    labels: tuple = ()
    value = 0
    count = 0
    total = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullRegistry(MetricsRegistry):
    _NULL = _NullMetric()

    def counter(self, name: str, **labels: Any):  # type: ignore[override]
        return self._NULL

    def gauge(self, name: str, **labels: Any):  # type: ignore[override]
        return self._NULL

    def histogram(self, name: str, buckets=None, **labels: Any):  # type: ignore[override]
        return self._NULL


class _NullSpan:
    __slots__ = ()
    name = "null"
    children: list = []
    attributes: dict = {}
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class _NullTracer(Tracer):
    _SPAN = _NullSpan()

    def __init__(self, registry: MetricsRegistry) -> None:
        super().__init__(registry)

    def span(self, name: str, **attributes: Any):  # type: ignore[override]
        return self._SPAN


class _NullEventLog(EventLog):
    def record(self, kind: str, **fields: Any) -> Dict[str, Any]:  # type: ignore[override]
        return {}


class NullTelemetry(Telemetry):
    """Telemetry that measures nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(event_capacity=1, span_capacity=1)
        self.registry = _NullRegistry()
        self.tracer = _NullTracer(self.registry)
        self.events = _NullEventLog(capacity=1)

    def publish(self, target: Optional[Telemetry] = None) -> None:
        pass


#: shared instance for callers that want instrumentation off
NULL_TELEMETRY = NullTelemetry()


# -- the process-wide default ----------------------------------------------------

_default = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-wide telemetry scope (default-on, sink-less)."""
    return _default


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Replace the process-wide scope; returns the previous one."""
    global _default
    previous = _default
    _default = telemetry
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scoped :func:`set_telemetry` (tests and benches)."""
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
