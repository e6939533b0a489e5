"""Bounded structured event log with pluggable sinks and JSONL export.

Lifecycle events that are too sparse (and too interesting) for metrics —
membership joins/leaves, restructurings, data-plane failures and
recoveries — are recorded here as flat dicts: ``{"ts", "clock", "kind",
...fields}``. The log keeps a bounded in-memory ring (old events rotate
out, a drop counter remembers how many) and forwards every event to any
attached :class:`Sink`.

Sinks are deliberately minimal — one ``emit(event)`` method — so tests
attach a list-backed sink and tools attach :class:`JsonlSink`, which
streams events to a JSON-Lines file. ``dump_jsonl``/``load_jsonl`` round-
trip the in-memory ring through the same format.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, IO, Iterator, List, Optional, Union

from repro.util.errors import TelemetryError


class Sink:
    """Receives every recorded event; subclass and override :meth:`emit`."""

    def emit(self, event: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; the default sink holds none."""


class ListSink(Sink):
    """Collects events into a plain list (test helper)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)


class JsonlSink(Sink):
    """Streams events to a JSON-Lines file as they are recorded."""

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False

    def emit(self, event: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(event, default=str) + "\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class EventLog:
    """Bounded ring of structured events, fanned out to attached sinks."""

    def __init__(
        self,
        *,
        capacity: int = 10_000,
        clock: Optional[Callable[[], float]] = None,
        clock_kind: Callable[[], str] = lambda: "wall",
    ) -> None:
        if capacity < 1:
            raise TelemetryError("event log capacity must be >= 1")
        self._buffer: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._sinks: List[Sink] = []
        self._clock = clock or time.time
        self._clock_kind = clock_kind
        self.recorded = 0

    # -- recording ---------------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the event dict."""
        event: Dict[str, Any] = {
            "ts": self._clock(),
            "clock": self._clock_kind(),
            "kind": kind,
        }
        event.update(fields)
        self.recorded += 1
        self._buffer.append(event)
        for sink in self._sinks:
            sink.emit(event)
        return event

    # -- sinks --------------------------------------------------------------------

    def attach(self, sink: Sink) -> Sink:
        """Attach *sink*; every subsequent event is forwarded to it."""
        self._sinks.append(sink)
        return sink

    def detach(self, sink: Sink) -> None:
        """Detach *sink* (no error if it was never attached)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self._buffer)

    @property
    def dropped(self) -> int:
        """Events rotated out of the bounded ring."""
        return self.recorded - len(self._buffer)

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """Buffered events whose kind equals *kind*, oldest first."""
        return [e for e in self._buffer if e["kind"] == kind]

    def extend(self, events: Iterator[Dict[str, Any]]) -> None:
        """Append already-formed events (per-run log publication)."""
        for event in events:
            self.recorded += 1
            self._buffer.append(event)

    def clear(self) -> None:
        self._buffer.clear()
        self.recorded = 0

    # -- persistence -------------------------------------------------------------

    def dump_jsonl(self, path: str) -> int:
        """Write the buffered events to *path* as JSONL; returns the count."""
        with open(path, "w") as handle:
            for event in self._buffer:
                handle.write(json.dumps(event, default=str) + "\n")
        return len(self._buffer)

    @staticmethod
    def load_jsonl(path: str) -> List[Dict[str, Any]]:
        """Parse a JSONL event file back into a list of event dicts."""
        events: List[Dict[str, Any]] = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
        return events
