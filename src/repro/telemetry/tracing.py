"""Span tracing over either the simulated or the wall clock.

A :class:`Span` measures one named operation; nested ``tracer.span(...)``
calls build a tree (the routing layer opens ``route`` and, inside it,
``route.csp`` / ``route.dissect`` / ``route.conquer`` / ``route.compose``).

Clock selection is the subtle part: when the code under a span runs inside
the discrete-event engine, wall time is meaningless and the span should be
stamped with ``Simulator.now``; outside the engine, ``time.perf_counter``
is the right ruler. The tracer therefore asks its clock *provider* at span
start — the :class:`~repro.telemetry.core.Telemetry` facade answers with
the active simulator's clock while one is running (simulators announce
themselves around their run loops) and the wall clock otherwise. Each
finished span records which clock timed it.

Every finished span feeds a ``span.duration`` histogram in the registry
(so quantiles survive even when the bounded buffer of complete span trees
has rotated) and, when it has no parent, is retained as a tree root for
inspection/export.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry

#: (clock function, clock kind tag) — kind is "sim" or "wall"
ClockInfo = Tuple[Callable[[], float], str]


def wall_clock() -> ClockInfo:
    """The default clock provider: monotonic wall time."""
    return time.perf_counter, "wall"


#: histogram buckets for wall-clock span durations (seconds)
WALL_SPAN_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)
#: histogram buckets for simulated-clock span durations (ms)
SIM_SPAN_BUCKETS: Tuple[float, ...] = (
    0.1, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 20000.0,
)


class Span:
    """One timed operation; a context manager produced by :class:`Tracer`."""

    __slots__ = (
        "name", "attributes", "clock_kind", "start", "end",
        "children", "_tracer", "_clock",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        clock: Callable[[], float],
        clock_kind: str,
        attributes: Dict[str, Any],
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.clock_kind = clock_kind
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self._tracer = tracer
        self._clock = clock

    @property
    def duration(self) -> float:
        """Elapsed time in the span's own clock units (0 while open)."""
        return (self.end if self.end is not None else self.start) - self.start

    def __enter__(self) -> "Span":
        self.start = self._clock()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = self._clock()
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._pop(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready recursive dump of the span tree rooted here."""
        return {
            "name": self.name,
            "clock": self.clock_kind,
            "start": self.start,
            "duration": self.duration,
            "attributes": {k: str(v) for k, v in self.attributes.items()},
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self) -> List["Span"]:
        """This span and every descendant, depth-first."""
        out = [self]
        for child in self.children:
            out.extend(child.walk())
        return out


class Tracer:
    """Builds span trees and aggregates their durations into the registry."""

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        clock_provider: Callable[[], ClockInfo] = wall_clock,
        max_roots: int = 1024,
    ) -> None:
        self._registry = registry
        self._clock_provider = clock_provider
        self._stack: List[Span] = []
        #: bounded buffer of the most recent *root* span trees
        self.roots: Deque[Span] = deque(maxlen=max_roots)
        self.spans_finished = 0

    def span(self, name: str, **attributes: Any) -> Span:
        """A context manager timing *name*; nests under any open span."""
        clock, kind = self._clock_provider()
        return Span(self, name, clock, kind, attributes)

    # -- span lifecycle (called by Span.__enter__/__exit__) --------------------

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate out-of-order exits (generators, exceptions): unwind to span.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self.spans_finished += 1
        buckets = (
            SIM_SPAN_BUCKETS if span.clock_kind == "sim" else WALL_SPAN_BUCKETS
        )
        self._registry.histogram(
            "span.duration", buckets, span=span.name, clock=span.clock_kind
        ).observe(span.duration)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    # -- queries ----------------------------------------------------------------

    def find_roots(self, name: str) -> List[Span]:
        """Retained root spans called *name*, oldest first."""
        return [s for s in self.roots if s.name == name]

    def absorb(self, other: "Tracer") -> None:
        """Take over *other*'s finished roots (per-run tracer publication)."""
        if other is self:
            return
        self.spans_finished += other.spans_finished
        for root in other.roots:
            self.roots.append(root)
        other.roots.clear()

    def clear(self) -> None:
        self.roots.clear()
        self._stack.clear()
        self.spans_finished = 0

    def snapshot(self, limit: int = 50) -> List[Dict[str, Any]]:
        """JSON-ready dump of the most recent *limit* root span trees."""
        roots = list(self.roots)[-limit:]
        return [r.to_dict() for r in roots]
