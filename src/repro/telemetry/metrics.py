"""Metric primitives: counters, gauges, histograms, and their registry.

The design follows the collector/registry pattern of real measurement
subsystems (Prometheus client libraries, Icarus' results collectors): a
:class:`MetricsRegistry` owns every metric, keyed by ``(name, labels)``, and
instrumented code asks the registry for a handle once and then mutates it
with plain attribute arithmetic. The handles are deliberately tiny — an
``inc`` is one integer addition, an ``observe`` is one bisect plus four
scalar updates — so instrumentation can stay on by default inside the
discrete-event hot loop.

Histograms use fixed buckets (cumulative counts are derived on snapshot)
and report p50/p95/p99 estimated by linear interpolation inside the
matching bucket, which is exact enough for the latency distributions the
benches care about while keeping ``observe`` O(log buckets).

Registries merge: ``registry.merge(other)`` folds another registry's
metrics into this one (counters add, gauges take the other's last value,
histograms add bucket-wise). Per-run registries (one per simulator) are
published into the process-wide registry this way, so per-run reports stay
exact while ``--telemetry-out`` sees the whole process.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.util.errors import TelemetryError

#: canonical metric identity: name plus sorted (label, value) pairs
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: default latency buckets (simulated ms); the overflow bucket is implicit
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0,
)


def metric_key(name: str, labels: Dict[str, Any]) -> MetricKey:
    """The registry key for *name* with *labels* (values stringified)."""
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise TelemetryError(f"counter {self.name} cannot decrease")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A value that can go up and down (sizes, qualities, levels)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def merge(self, other: "Gauge") -> None:
        # last writer wins: the merged-in registry is the more recent run
        self.value = other.value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """Fixed-bucket distribution with interpolated quantile summaries."""

    kind = "histogram"
    __slots__ = (
        "name", "labels", "bounds", "bucket_counts",
        "count", "total", "min", "max",
    )

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        bounds: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name} bounds must be non-empty and increasing"
            )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        #: one count per bucket plus the overflow bucket
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect_right(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0..1) by interpolation inside the bucket."""
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if cumulative + bucket_count >= rank:
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max) if hi >= lo else lo
                if bucket_count == 0 or hi <= lo:
                    return lo
                return lo + (hi - lo) * (rank - cumulative) / bucket_count
            cumulative += bucket_count
        return self.max

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise TelemetryError(
                f"cannot merge histogram {self.name}: bucket bounds differ"
            )
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c

    def snapshot(self) -> Dict[str, Any]:
        empty = self.count == 0
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.total,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "mean": None if empty else self.mean,
            "p50": None if empty else self.quantile(0.50),
            "p95": None if empty else self.quantile(0.95),
            "p99": None if empty else self.quantile(0.99),
            "buckets": {
                "le": list(self.bounds),
                "counts": list(self.bucket_counts),
            },
        }


class MetricsRegistry:
    """Owns every metric; instrumented code asks it for handles by name."""

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Any] = {}

    # -- handle factories ------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get-or-create the counter *name* with *labels*."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get-or-create the gauge *name* with *labels*."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        **labels: Any,
    ) -> Histogram:
        """Get-or-create the histogram *name* with *labels*."""
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[1], buckets or DEFAULT_BUCKETS)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TelemetryError(
                f"metric {name} already registered as {metric.kind}"
            )
        return metric

    def _get_or_create(self, cls, name: str, labels: Dict[str, Any]):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TelemetryError(
                f"metric {name} already registered as {metric.kind}"
            )
        return metric

    # -- queries ----------------------------------------------------------------

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The existing metric at ``(name, labels)``, or None."""
        return self._metrics.get(metric_key(name, labels))

    def collect(self, name: str) -> List[Any]:
        """Every metric registered under *name*, across all label sets."""
        return [m for (n, _), m in self._metrics.items() if n == name]

    def total(self, name: str) -> int:
        """Sum of every counter value registered under *name*."""
        return sum(
            m.value for m in self.collect(name) if isinstance(m, Counter)
        )

    def values_by_label(self, name: str, label: str) -> Dict[str, int]:
        """Counter values under *name*, keyed by the given label's value."""
        result: Dict[str, int] = {}
        for metric in self.collect(name):
            if not isinstance(metric, Counter):
                continue
            value = dict(metric.labels).get(label)
            if value is not None:
                result[value] = result.get(value, 0) + metric.value
        return result

    def names(self) -> List[str]:
        """Sorted distinct metric names."""
        return sorted({n for n, _ in self._metrics})

    def __len__(self) -> int:
        return len(self._metrics)

    # -- lifecycle ---------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s metrics into this registry (see module docstring)."""
        if other is self:
            return
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(metric, Histogram):
                    mine = Histogram(metric.name, metric.labels, metric.bounds)
                else:
                    mine = type(metric)(metric.name, metric.labels)
                self._metrics[key] = mine
            elif type(mine) is not type(metric):
                raise TelemetryError(
                    f"cannot merge metric {metric.name}: kind mismatch"
                )
            mine.merge(metric)

    def clear(self) -> None:
        """Drop every metric (tests, and drivers between independent runs)."""
        self._metrics.clear()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every metric, grouped by kind."""
        grouped: Dict[str, List[Dict[str, Any]]] = {
            "counters": [], "gauges": [], "histograms": [],
        }
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            grouped[metric.kind + "s"].append(metric.snapshot())
        return grouped
