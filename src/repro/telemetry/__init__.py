"""``repro.telemetry`` — metrics, tracing, and structured event logging.

The measurement substrate for every layer of the reproduction: the event
engine counts and times message deliveries, the routing layer opens spans
around each resolution stage, caches count hits and misses, membership and
the data plane record lifecycle events. See DESIGN.md ("Observability")
for the metric-name map and README.md for example output.

Entry points:

* :func:`get_telemetry` — the process-wide default scope (default-on);
* :class:`Telemetry` — a private scope (each simulator owns one);
* :data:`NULL_TELEMETRY` — instrumentation off.
"""

from repro.telemetry.core import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.telemetry.events import EventLog, JsonlSink, ListSink, Sink
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import Span, Tracer

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "EventLog",
    "JsonlSink",
    "ListSink",
    "Sink",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
]
