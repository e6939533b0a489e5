"""Steady-state measurement for sustained traffic runs.

The engine records one :class:`RequestRecord` per issued request; this
module turns those records into the numbers the ROADMAP's scale claims
are stated in: offered vs. completed load, sojourn-time quantiles
(p50/p95/p99) with warmup trimming, in-flight session statistics, and a
rate-sweep saturation finder.

All quantities are measured on the *simulated* clock, so every number
here is deterministic for a given config + seed — which is what lets
``benchmarks/paper_numbers.json`` record them and CI compare them exactly,
on any runner hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.util.errors import TrafficError

if TYPE_CHECKING:
    from repro.core.framework import HFCFramework
    from repro.traffic.engine import TrafficConfig


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Exact linear-interpolation quantile of an already-sorted sequence."""
    if not sorted_values:
        return float("nan")
    if not 0.0 <= q <= 1.0:
        raise TrafficError(f"quantile must be in [0, 1], got {q}")
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


@dataclass
class RequestRecord:
    """Fate of one open-loop request."""

    rid: int
    session: int
    issued_at: float
    routed: bool = False
    infeasible: bool = False
    completed_at: Optional[float] = None
    #: when the flow missed its repair deadline and was re-queued (None: never)
    repaired_at: Optional[float] = None

    @property
    def sojourn(self) -> Optional[float]:
        """Issue-to-completion time (queueing + routing + delivery), or None."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


@dataclass
class SteadyStateCollector:
    """Accumulates per-request and per-session outcomes during a run."""

    warmup: float
    horizon: float
    records: List[RequestRecord] = field(default_factory=list)
    session_arrivals: int = 0
    session_admissions: int = 0
    session_rejections: int = 0
    in_flight_samples: List[int] = field(default_factory=list)

    def request(self, record: RequestRecord) -> None:
        self.records.append(record)

    def sample_in_flight(self, value: int) -> None:
        self.in_flight_samples.append(value)

    # -- windows -------------------------------------------------------------

    def window(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> List[RequestRecord]:
        """Records issued inside ``[start, end]`` (defaults: warmup..horizon)."""
        start = self.warmup if start is None else start
        end = self.horizon if end is None else end
        return [r for r in self.records if start <= r.issued_at <= end]

    def continuity(self, start: float, end: float) -> float:
        """Completed fraction of the requests issued in ``[start, end]``.

        The delivery-continuity measure for fault windows: 1.0 means every
        request issued while the faults were acting still completed.
        """
        window = self.window(start, end)
        if not window:
            return float("nan")
        return sum(1 for r in window if r.completed_at is not None) / len(window)


@dataclass(frozen=True)
class SteadyStateReport:
    """The steady-state summary of one sustained-traffic run."""

    duration: float
    warmup: float
    session_arrivals: int
    session_admissions: int
    session_rejections: int
    requests_offered: int
    requests_completed: int
    requests_infeasible: int
    requests_lost: int
    #: simulated requests per second inside the measurement window
    offered_rate: float
    completed_rate: float
    #: admission_fraction * delivered_fraction — the end-to-end success ratio
    goodput_ratio: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_mean: float
    in_flight_peak: int
    in_flight_mean: float

    @property
    def admission_fraction(self) -> float:
        if self.session_arrivals == 0:
            return float("nan")
        return self.session_admissions / self.session_arrivals

    @property
    def delivered_fraction(self) -> float:
        if self.requests_offered == 0:
            return float("nan")
        return self.requests_completed / self.requests_offered

    def to_dict(self) -> Dict[str, float]:
        return {
            "duration": self.duration,
            "warmup": self.warmup,
            "session_arrivals": self.session_arrivals,
            "session_admissions": self.session_admissions,
            "session_rejections": self.session_rejections,
            "requests_offered": self.requests_offered,
            "requests_completed": self.requests_completed,
            "requests_infeasible": self.requests_infeasible,
            "requests_lost": self.requests_lost,
            "offered_rate": self.offered_rate,
            "completed_rate": self.completed_rate,
            "goodput_ratio": self.goodput_ratio,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "latency_mean": self.latency_mean,
            "in_flight_peak": self.in_flight_peak,
            "in_flight_mean": self.in_flight_mean,
        }


def summarize(collector: SteadyStateCollector) -> SteadyStateReport:
    """Fold a collector into a :class:`SteadyStateReport` (warmup-trimmed)."""
    window = collector.window()
    span = max(collector.horizon - collector.warmup, 1e-9)
    completed = [r for r in window if r.completed_at is not None]
    sojourns = sorted(r.sojourn for r in completed)  # type: ignore[misc]
    infeasible = sum(1 for r in window if r.infeasible)
    lost = len(window) - len(completed) - infeasible
    samples = collector.in_flight_samples
    admissions = collector.session_admissions
    arrivals = collector.session_arrivals
    admission = admissions / arrivals if arrivals else 1.0
    delivered = len(completed) / len(window) if window else 0.0
    return SteadyStateReport(
        duration=collector.horizon,
        warmup=collector.warmup,
        session_arrivals=arrivals,
        session_admissions=admissions,
        session_rejections=collector.session_rejections,
        requests_offered=len(window),
        requests_completed=len(completed),
        requests_infeasible=infeasible,
        requests_lost=lost,
        offered_rate=len(window) / span * 1000.0,
        completed_rate=len(completed) / span * 1000.0,
        goodput_ratio=admission * delivered,
        latency_p50=quantile(sojourns, 0.50),
        latency_p95=quantile(sojourns, 0.95),
        latency_p99=quantile(sojourns, 0.99),
        latency_mean=sum(sojourns) / len(sojourns) if sojourns else float("nan"),
        in_flight_peak=max(samples) if samples else 0,
        in_flight_mean=sum(samples) / len(samples) if samples else 0.0,
    )


# -- rate sweep / saturation finder ------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One operating point of a rate sweep."""

    rate: float
    report: SteadyStateReport


@dataclass(frozen=True)
class RateSweepResult:
    """Outcome of a rate sweep: per-rate reports plus the saturation verdict."""

    points: List[SweepPoint]
    #: first swept rate at which the system is saturated (None: never)
    saturation_rate: Optional[float]
    goodput_floor: float
    latency_factor: float
    base_p95: float

    def rows(self) -> List[List[str]]:
        """ASCII-table rows (rate, goodput, p50/p95/p99, in-flight peak)."""
        out = []
        for point in self.points:
            r = point.report
            mark = (
                " *saturated*"
                if self.saturation_rate is not None
                and point.rate >= self.saturation_rate
                else ""
            )
            out.append([
                f"{point.rate:.4g}{mark}",
                f"{r.offered_rate:.1f}",
                f"{r.completed_rate:.1f}",
                f"{r.goodput_ratio:.3f}",
                f"{r.latency_p50:.1f}",
                f"{r.latency_p95:.1f}",
                f"{r.latency_p99:.1f}",
                f"{r.in_flight_peak}",
            ])
        return out


def rate_sweep(
    framework: "HFCFramework",
    rates: Sequence[float],
    *,
    config: Optional["TrafficConfig"] = None,
    seed: int = 0,
    router: Optional[Any] = None,
    goodput_floor: float = 0.9,
    latency_factor: float = 3.0,
) -> RateSweepResult:
    """Run the engine across *rates* and locate the saturation point.

    A rate is *saturated* when its goodput ratio falls below
    ``goodput_floor`` or its p95 sojourn exceeds ``latency_factor`` times
    the lowest swept rate's p95 (the unloaded baseline). One router is
    shared across points (routing results are load-independent, so this
    only saves precompute); each point gets a fresh simulator and the same
    seed so points differ only in arrival rate.
    """
    from repro.traffic.engine import TrafficConfig, TrafficEngine
    from repro.traffic.arrivals import Poisson

    if not rates or any(r <= 0 for r in rates):
        raise TrafficError("rate_sweep needs a non-empty list of positive rates")
    if sorted(rates) != list(rates):
        raise TrafficError("sweep rates must be increasing")
    config = config if config is not None else TrafficConfig()
    if router is None:
        router = framework.cached_hierarchical_router()

    points: List[SweepPoint] = []
    for rate in rates:
        arrival = (
            replace(config.arrival, rate=rate)
            if isinstance(config.arrival, Poisson)
            else Poisson(rate=rate, shapes=config.arrival.shapes)
        )
        engine = TrafficEngine(
            framework,
            replace(config, arrival=arrival),
            router=router,
            seed=seed,
        )
        points.append(SweepPoint(rate=rate, report=engine.run()))

    base_p95 = points[0].report.latency_p95
    saturation: Optional[float] = None
    for point in points:
        report = point.report
        latency_blown = (
            base_p95 == base_p95  # not NaN
            and report.latency_p95 == report.latency_p95
            and report.latency_p95 > latency_factor * base_p95
        )
        if report.goodput_ratio < goodput_floor or latency_blown:
            saturation = point.rate
            break
    return RateSweepResult(
        points=points,
        saturation_rate=saturation,
        goodput_floor=goodput_floor,
        latency_factor=latency_factor,
        base_p95=base_p95,
    )
