"""The five workloads of the end-to-end benchmark.

Every workload has the same three parts:

* ``setup(params, seed)`` builds the fixture and the seeded inputs and
  returns a context. The overlay is a *fixture*: it is built from
  :data:`FIXTURE_SEED`, never from ``--seed``, because overlays of the
  same size but another seed differ in cluster count and embedding effort
  by more than any bound this benchmark could hold (build time at n=2000
  spans 1.2-1.9 s across seeds). ``--seed`` draws what arrives at the
  overlay: requests, sessions, membership events, audit samples.
* ``measure(ctx, seconds, host, tracer)`` repeats a fixed *round* of work
  until ``seconds`` have passed and reports medians over the rounds, so a
  slow machine does fewer rounds, not different ones. Checks run between
  rounds, outside the timed region and outside the traced root span.
* ``probes(ctx)`` (traced runs only) measures what only per-layer
  metrics need: other engine modes, the cached and recursive routers,
  the flat reference for stretch.

Host times are reported **at reference host speed** (:class:`HostSpeed`):
the sandboxes this runs in slow down by up to 2x for minutes at a time
and by a third from one second to the next, which no bound could absorb,
so every round is bracketed by a fixed calibration kernel and its time is
divided by how much slower than the reference that kernel ran.
Simulated-clock values, counts and memory are reported as they are.

A workload never catches a failed operation to hide it: each is counted
in ``failed`` and described in ``failures``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: seed of every overlay fixture (see the module docstring)
FIXTURE_SEED = 11

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class _Cell:
    __slots__ = ("key", "pair")

    def __init__(self, key: int, pair: Tuple[int, int]) -> None:
        self.key = key
        self.pair = pair


class HostSpeed:
    """How much slower than the reference host this host runs, right now.

    One :meth:`sample` runs a small fixed kernel eight times with the
    collector off and returns ``mean time / reference time``. The kernel
    fills a dict with freshly allocated objects, reads them back and sorts
    them: interpreter dispatch, allocation and pointer chasing, which is
    what the program spends its time on. Of the kernels tried (a bytecode
    loop, this one, a 16 MB random gather, a small matrix product, and
    their geometric means; median, minimum and mean of the repeats) this
    one's mean tracked the workloads' own slow-downs best: it cut the
    spread between 15-second windows of one process from 0.35 to 0.04 on
    batched routing and from 0.20 to 0.07 on builds, and never widened it.
    The mean, not the median, because the workloads meet the same spikes.

    The kernel belongs to the benchmark and never changes with the
    program, so two commits measured through it compare like for like.
    """

    #: seconds per repeat on the 2-core sandbox the benchmark was defined
    #: on, in its quiet moments; it only fixes the unit
    REFERENCE = 0.0037
    REPEATS = 8

    def __init__(self) -> None:
        self._keys = list(range(6000))
        random.Random(1).shuffle(self._keys)
        #: every slowdown factor sampled so far
        self.samples: List[float] = []

    def _kernel(self) -> None:
        table = {}
        for key in self._keys:
            table[key] = _Cell(key, (key, key + 1))
        total = 0
        for key in self._keys:
            cell = table[key]
            total += cell.pair[1] - cell.key
        sorted(table.values(), key=lambda cell: cell.key)

    def sample(self) -> float:
        """The slowdown factor now (1.0 = reference speed, 2.0 = half as fast)."""
        # a collection triggered by the kernel's allocations would walk the
        # workload's heap and charge its size to the host
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            for _ in range(self.REPEATS):
                self._kernel()
            factor = (perf_counter() - t0) / self.REPEATS / self.REFERENCE
        finally:
            if collecting:
                gc.enable()
        self.samples.append(factor)
        return factor

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(result, wall seconds, slowdown)`` of *fn*, bracketed by two samples."""
        before = self.sample()
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        return result, wall, math.sqrt(before * self.sample())


def calibrate() -> Dict[str, float]:
    """A fixed bytecode loop and a fixed numpy kernel, timed once per run.

    Not used for anything but the ``host.calib_*`` layer metrics: they make
    a change of machine between two sets of runs visible.
    """

    def python_loop() -> float:
        t0 = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return perf_counter() - t0

    matrix = np.random.default_rng(0).random((200, 200))

    def numpy_kernel() -> float:
        t0 = perf_counter()
        product = matrix
        for _ in range(12):
            product = product @ matrix
            product /= product.max()
        return perf_counter() - t0

    return {
        "host.calib_py_s": statistics.median(python_loop() for _ in range(3)),
        "host.calib_np_s": statistics.median(numpy_kernel() for _ in range(3)),
    }


def sub_seed(seed: int, label: str) -> int:
    """An independent 32-bit seed for *label*, stable across processes."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _sha(*parts: Any) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _path_key(path: Any) -> Any:
    return None if path is None else tuple((h.proxy, h.service, h.slot) for h in path.hops)


@dataclass
class Measured:
    """What one measured section produced."""

    rounds: int = 0
    #: each round's timed part, in seconds at reference host speed
    round_s: List[float] = field(default_factory=list)
    #: the host's slowdown factor during each round
    slowdowns: List[float] = field(default_factory=list)
    #: one throughput sample per round (unit of work per reference second)
    rate_samples: List[float] = field(default_factory=list)
    op_p50_ms: float = 0.0
    op_p95_ms: float = 0.0
    op_count: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: digest of each round's deterministic outputs
    round_digests: List[str] = field(default_factory=list)
    #: raw figures for the per-layer metrics and the printed summary
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return statistics.median(self.rate_samples) if self.rate_samples else 0.0

    @property
    def sim_digest(self) -> str:
        """Digest of the first round: the same for any number of rounds."""
        return self.round_digests[0] if self.round_digests else ""

    def tally(self, attempted: int, failed: int, message: str) -> None:
        """Count *attempted* operations of which *failed* failed (*message* says how)."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.failures) < 20:
                self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """Count one attempted operation; record it as failed unless *ok*."""
        self.tally(1, 0 if ok else 1, message)

    def set_ops(self, samples_ms: Sequence[float]) -> None:
        """Latency quantiles over one pool of samples (one sample a round)."""
        self.op_count = len(samples_ms)
        self.op_p50_ms = quantile(samples_ms, 0.50)
        self.op_p95_ms = quantile(samples_ms, 0.95)

    def set_ops_by_round(self, samples_ms: Sequence[Sequence[float]]) -> None:
        """Lower quartile over the rounds of each round's quantiles (many samples a round).

        A slow second of the host lands on single samples, where no
        per-round factor can reach it, and it only ever adds time; so the
        rounds' own p50 and p95 are taken first and the quieter quarter of
        the rounds speaks for the run. Measured on single routes, windows
        of 20 rounds spread by 0.06 this way against 0.09 for the median
        over rounds and 0.12 for one pooled p95.
        """
        self.op_count = sum(len(samples) for samples in samples_ms)
        self.op_p50_ms = quantile([quantile(samples, 0.50) for samples in samples_ms], 0.25)
        self.op_p95_ms = quantile([quantile(samples, 0.95) for samples in samples_ms], 0.25)

    def all_rounds_equal(self, what: str) -> None:
        self.check(len(set(self.round_digests)) == 1, f"repeating {what} gave another result")


def _rooted(tracer: Any, label: str, fn: Callable[[], Any]) -> Callable[[], Any]:
    """*fn*, run under the tracer's ``root.<label>`` span when there is a tracer."""
    if tracer is None:
        return fn
    return lambda: tracer.run_root(label, fn)


def rounds(
    measured: Measured,
    seconds: float,
    host: HostSpeed,
    tracer: Any,
    one_round: Callable[[], Any],
) -> Iterator[Tuple[Any, float, float]]:
    """Repeat *one_round* until *seconds* have passed (at least once).

    Yields ``(result, reference seconds, slowdown)`` after each round; the
    caller's loop body is the untimed part (checks, digests). Each round
    runs under the tracer's ``root.round`` span when there is a tracer, and
    between two host-speed samples either way.
    """
    from repro.telemetry import get_telemetry

    started = perf_counter()
    while perf_counter() - started < seconds or not measured.rounds:
        # every round starts from the same process state: the process-wide
        # telemetry scope keeps ~8 MB of a lifecycle pass until its caps are
        # reached, so peak memory would otherwise count the rounds
        get_telemetry().clear()
        gc.collect()
        result, wall, slowdown = host.timed(
            _rooted(tracer, f"round:{measured.rounds}", one_round)
        )
        measured.rounds += 1
        measured.round_s.append(wall / slowdown)
        measured.slowdowns.append(slowdown)
        yield result, wall / slowdown, slowdown


def _validate(measured: Measured, path: Any, request: Any, overlay: Any, what: str) -> None:
    from repro.routing.path import validate_path
    from repro.util.errors import RoutingError

    try:
        validate_path(path, request, overlay)
    except RoutingError as exc:
        measured.check(False, f"{what}: {exc}")
    else:
        measured.check(True, "")


def _misjoined_pairs(hfc: Any, rng: random.Random, sample: int) -> int:
    """How many of *sample* seeded cluster pairs break the closest-pair rule."""
    from repro.overlay.hfc import closest_cross_pair

    k = hfc.cluster_count
    if k < 2:
        return 0
    bad = 0
    for _ in range(sample):
        i, j = rng.sample(range(k), 2)
        members_i, members_j = hfc.members(i), hfc.members(j)
        a, b = closest_cross_pair(hfc.space.array(members_i), hfc.space.array(members_j))
        if hfc.borders[(i, j)] != members_i[a] or hfc.borders[(j, i)] != members_j[b]:
            bad += 1
    return bad


def _check_borders(measured: Measured, hfc: Any, rng: random.Random, sample: int) -> None:
    bad = _misjoined_pairs(hfc, rng, sample)
    measured.tally(sample, bad, f"{bad} cluster pairs not joined by their closest pair")


def _build_fixture(n: int) -> Any:
    from repro.core.framework import HFCFramework

    return HFCFramework.build(proxy_count=n, seed=FIXTURE_SEED)


def _environment(framework: Any) -> Any:
    from repro.experiments.environments import Environment

    return Environment(spec=None, framework=framework, clients=[], client_proxies=[])


def _shape(framework: Any) -> Dict[str, float]:
    return {
        "clusters": framework.clustering.cluster_count,
        "border_pairs": len(framework.hfc.borders),
    }


class Workload:
    """``setup`` / ``measure`` / ``probes`` as the module docstring describes them."""

    name = ""
    params: Dict[str, Dict[str, Any]] = {}

    def probes(self, ctx: Dict[str, Any]) -> Dict[str, float]:
        """Untraced extras for the per-layer metrics; none by default."""
        return {}


# -- construct ----------------------------------------------------------------------


class Construct(Workload):
    """Closed loop, one caller: build, hierarchy, snapshot save and load."""

    name = "construct_2k"
    params = {"full": {"n": 2000, "pairs": 200}, "smoke": {"n": 150, "pairs": 40}}

    def setup(self, params: Dict[str, int], seed: int) -> Dict[str, Any]:
        os.makedirs(OUT_DIR, exist_ok=True)
        # one untimed build first, so lazy imports, allocator growth and the
        # numpy kernels' first-call costs are paid before the measured rounds
        framework = _build_fixture(params["n"])
        return {
            "params": params,
            "seed": seed,
            "shape": _shape(framework),
            "snapshot": os.path.join(OUT_DIR, f"{self.name}.{os.getpid()}.npz"),
        }

    def measure(
        self, ctx: Dict[str, Any], seconds: float, host: HostSpeed, tracer: Any = None
    ) -> Measured:
        import repro.persistence as persistence
        from repro.routing.batch import query_tables

        params = ctx["params"]
        measured = Measured()
        pair_rng = random.Random(sub_seed(ctx["seed"], "pairs"))
        build_ms: List[float] = []

        def one_round() -> Any:
            t0 = perf_counter()
            framework = _build_fixture(params["n"])
            build_s = perf_counter() - t0
            framework.build_hierarchy(levels=3)
            persistence.save_snapshot(framework, ctx["snapshot"])
            return framework, persistence.load_snapshot(ctx["snapshot"]), build_s

        try:
            for result, round_s, slowdown in rounds(measured, seconds, host, tracer, one_round):
                framework, snapshot, build_s = result
                measured.rate_samples.append(params["n"] / round_s)
                build_ms.append(build_s / slowdown * 1e3)
                measured.check(True, "")  # the build itself returned
                _check_borders(measured, framework.hfc, pair_rng, params["pairs"])
                cold, warm = query_tables(framework.hfc), query_tables(snapshot.framework.hfc)
                same = (
                    np.array_equal(cold.ext, warm.ext)
                    and np.array_equal(cold.border_row, warm.border_row)
                    and np.array_equal(cold.d_border, warm.d_border)
                    and len(snapshot.columnar.levels) == 1
                )
                measured.check(same, "loaded snapshot's query tables differ from the saved ones")
                columnar = framework.columnar
                measured.round_digests.append(
                    _sha(
                        columnar.coords.tobytes(),
                        columnar.labels.tobytes(),
                        columnar.border_matrix.tobytes(),
                        columnar.levels[0].parent.tobytes(),
                    )
                )
                measured.info["snapshot_mb"] = os.path.getsize(ctx["snapshot"]) / 1e6
        finally:
            if os.path.exists(ctx["snapshot"]):
                os.remove(ctx["snapshot"])
        measured.all_rounds_equal("the build")
        measured.set_ops(build_ms)
        measured.info.update(ctx["shape"])
        return measured


# -- route --------------------------------------------------------------------------


class Route(Workload):
    """Closed loop, one caller: batched and single routing on a fixed overlay."""

    name = "route_2k"
    params = {
        "full": {"n": 2000, "requests": 1000, "singles": 125, "zipf": 2000, "deep": 500,
                 "flat": 300},
        "smoke": {"n": 150, "requests": 120, "singles": 30, "zipf": 240, "deep": 40, "flat": 40},
    }

    def setup(self, params: Dict[str, int], seed: int) -> Dict[str, Any]:
        from repro.experiments.workload import WorkloadConfig, generate_requests

        framework = _build_fixture(params["n"])
        requests = generate_requests(
            _environment(framework),
            WorkloadConfig(request_count=params["requests"]),
            seed=sub_seed(seed, "uniform"),
        )
        return {
            "params": params,
            "seed": seed,
            "framework": framework,
            "requests": requests,
            "router": framework.hierarchical_router(),
        }

    def measure(
        self, ctx: Dict[str, Any], seconds: float, host: HostSpeed, tracer: Any = None
    ) -> Measured:
        from repro.util.errors import ReproError

        params, framework = ctx["params"], ctx["framework"]
        requests, router = ctx["requests"], ctx["router"]
        measured = Measured()
        single_ms: List[List[float]] = []
        cursor = 0

        # the first batch pays for the query tables: reported, not a round
        first, wall, slowdown = host.timed(
            _rooted(tracer, "cold", lambda: router.route_many_detailed(requests))
        )
        measured.info["cold_rps"] = len(requests) * slowdown / wall
        for request, path, error in zip(requests, first.paths, first.errors):
            if error is not None:
                measured.check(False, f"infeasible: {error}")
            else:
                _validate(measured, path, request, framework.overlay, "batch")
        measured.info["infeasible"] = first.infeasible_count
        keys = [_path_key(p) for p in first.paths]

        def one_round() -> Any:
            t0 = perf_counter()
            result = router.route_many_detailed(requests)
            batch_s = perf_counter() - t0
            singles = []
            for offset in range(params["singles"]):
                request = requests[(cursor + offset) % len(requests)]
                t1 = perf_counter()
                try:
                    path = router.route(request)
                except ReproError as exc:  # counted as failed below; the round goes on
                    path = exc
                singles.append((path, perf_counter() - t1))
            return result, batch_s, singles

        for result, _round_s, slowdown in rounds(measured, seconds, host, tracer, one_round):
            batch, batch_s, singles = result
            measured.rate_samples.append(len(requests) * slowdown / batch_s)
            round_keys = [_path_key(p) for p in batch.paths]
            changed = sum(ours != first_key for ours, first_key in zip(round_keys, keys))
            measured.tally(
                len(requests), changed, f"{changed} paths of a repeated batch differ from the first"
            )
            single_ms.append([single_s / slowdown * 1e3 for _path, single_s in singles])
            for offset, (path, _single_s) in enumerate(singles):
                index = (cursor + offset) % len(requests)
                measured.check(
                    not isinstance(path, Exception) and _path_key(path) == keys[index],
                    f"single route of request {index} differs from its batched path: {path!r}",
                )
            cursor += params["singles"]
            measured.round_digests.append(_sha(round_keys))
        measured.set_ops_by_round(single_ms)
        measured.info["single_p99_ms"] = quantile([ms for block in single_ms for ms in block], 0.99)
        measured.info.update(_shape(framework))
        return measured

    def probes(self, ctx: Dict[str, Any]) -> Dict[str, float]:
        """Cached router vs its working set, the L=3 router, flat-optimal stretch."""
        from repro.experiments.workload import WorkloadConfig, generate_requests

        params, framework, requests = ctx["params"], ctx["framework"], ctx["requests"]
        out: Dict[str, float] = {}
        zipf = generate_requests(
            _environment(framework),
            WorkloadConfig(request_count=params["zipf"], popularity="zipf"),
            seed=sub_seed(ctx["seed"], "zipf"),
        )
        cached = framework.cached_hierarchical_router()
        cached.route_many_detailed(zipf)
        t0 = perf_counter()
        cached.route_many_detailed(zipf)
        out["cache_rps"] = len(zipf) / (perf_counter() - t0)
        out["cache_hit_ratio"] = cached.stats.hit_rate

        deep_requests = requests[: params["deep"]]
        t0 = perf_counter()
        deep = framework.hierarchy_router(levels=3)
        out["deep_build_s"] = perf_counter() - t0
        t0 = perf_counter()
        deep.route_many_detailed(deep_requests)
        out["deep_rps"] = len(deep_requests) / (perf_counter() - t0)

        sample = requests[: params["flat"]]
        t0 = perf_counter()
        optimal = framework.flat_router().route_many_detailed(sample)
        out["flat_s"] = perf_counter() - t0
        ours = ctx["router"].route_many_detailed(sample)
        overlay = framework.overlay
        ratios = [
            a.estimated_length(overlay) / b.estimated_length(overlay)
            for a, b in zip(ours.paths, optimal.paths)
            if a is not None and b is not None and b.estimated_length(overlay) > 0
        ]
        out["stretch_mean"] = statistics.fmean(ratios) if ratios else 0.0
        out["stretch_min"] = min(ratios) if ratios else 0.0
        return out


# -- lifecycle ----------------------------------------------------------------------


class Lifecycle(Workload):
    """Open loop in simulated time (Poisson sessions); the host runs flat out."""

    name = "lifecycle_120"
    params = {
        "full": {"n": 120, "rate": 0.06, "crash_at": 1000.0, "downtime": 1000.0},
        "smoke": {"n": 60, "rate": 0.03, "crash_at": 1000.0, "downtime": 1000.0},
    }
    #: protocol refresh every 2 aggregate periods: the audit settles in 4000 ms
    refresh_every = 2

    def setup(self, params: Dict[str, Any], seed: int) -> Dict[str, Any]:
        from repro.faults.scenarios import crash_restart_plan
        from repro.traffic.arrivals import Poisson
        from repro.traffic.engine import TrafficConfig
        from repro.traffic.sessions import SessionConfig

        framework = _build_fixture(params["n"])
        plan = crash_restart_plan(
            framework.hfc,
            seed=sub_seed(seed, "plan") % 100_000,
            crash_at=params["crash_at"],
            downtime=params["downtime"],
        )
        config = TrafficConfig(
            arrival=Poisson(rate=params["rate"]),
            duration=6000.0,
            warmup=500.0,
            max_in_flight=100_000,
            session=SessionConfig(mean_lifetime=1500.0, mean_gap=300.0),
        )
        return {
            "params": params,
            "seed": seed,
            "framework": framework,
            "plan": plan,
            "config": config,
            # the crash restarts its victim with one service fewer, written
            # into the shared placement: put it back between passes
            "placement": dict(framework.overlay.placement),
        }

    def one_pass(self, ctx: Dict[str, Any]) -> Any:
        from repro.netsim.eventsim import Simulator
        from repro.traffic.scenarios import run_traffic_under_faults

        sim = Simulator()
        try:
            result = run_traffic_under_faults(
                ctx["framework"],
                ctx["plan"],
                config=ctx["config"],
                traffic_seed=sub_seed(ctx["seed"], "traffic"),
                refresh_every=self.refresh_every,
                sim=sim,
            )
        finally:
            placement = ctx["framework"].overlay.placement
            placement.clear()
            placement.update(ctx["placement"])
        return sim, result

    def measure(
        self, ctx: Dict[str, Any], seconds: float, host: HostSpeed, tracer: Any = None
    ) -> Measured:
        measured = Measured()
        for (sim, result), round_s, _slowdown in rounds(
            measured, seconds, host, tracer, lambda: self.one_pass(ctx)
        ):
            events = sim.events_processed
            measured.rate_samples.append(events / round_s)
            report, scenario = result.report, result.scenario
            issued = report.requests_completed + report.requests_lost + report.requests_infeasible
            measured.attempted += issued
            for check in scenario.checks:
                measured.check(check.passed, f"audit {check.name}: {check.detail}")
            tallies = sim.conservation()
            measured.check(bool(tallies["balanced"]), f"message ledger unbalanced: {tallies}")
            measured.round_digests.append(
                _sha(
                    events,
                    sorted(tallies.items()),
                    sorted(report.to_dict().items()),
                    result.fault_continuity,
                    scenario.reconverged_at,
                    sorted(scenario.counters.items()),
                )
            )
            delivered = sim.telemetry.registry.values_by_label("sim.messages.delivered", "kind")
            # the one latency that is on the simulated clock: see README.md
            measured.op_count = report.requests_completed
            measured.op_p50_ms = report.latency_p50
            measured.op_p95_ms = report.latency_p95
            measured.info.update(
                events=events,
                traffic_rps=report.requests_completed / round_s,
                requests=issued,
                infeasible=report.requests_infeasible,
                lost=report.requests_lost,
                fault_continuity=result.fault_continuity,
                reconverge_ms=scenario.recovery_time or 0.0,
                gaps=scenario.counters.get("delta.gaps", 0),
                fault_dropped=sum(
                    v for k, v in scenario.counters.items() if k.startswith("faults.dropped.")
                ),
                dropped=sim.messages_dropped,
                pending_end=sim.messages_pending,
                protocol_messages=sum(v for k, v in delivered.items() if k != "traffic_data"),
            )
        measured.all_rounds_equal("the pass")
        measured.info.update(_shape(ctx["framework"]))
        return measured

    def probes(self, ctx: Dict[str, Any]) -> Dict[str, float]:
        """Cold gossip to convergence, alone on its simulator."""
        from repro.state.protocol import StateDistributionProtocol

        protocol = StateDistributionProtocol(
            ctx["framework"].hfc,
            seed=sub_seed(ctx["seed"], "converge") % 100_000,
            refresh_every=self.refresh_every,
        )
        t0 = perf_counter()
        report = protocol.run(max_time=20000.0)
        return {
            "converge_wall_s": perf_counter() - t0,
            "sim_converged_ms": report.converged_at or 0.0,
        }


# -- engine -------------------------------------------------------------------------


class Engine(Workload):
    """Fixed simulated schedule on a synthetic overlay; the host runs flat out."""

    name = "engine_16k"
    params = {
        "full": {"n": 16000, "clusters": 64, "small_n": 2000, "small_clusters": 8, "shards": 4},
        "smoke": {"n": 1200, "clusters": 12, "small_n": 300, "small_clusters": 4, "shards": 4},
    }
    period, duration = 500.0, 1000.0

    def setup(self, params: Dict[str, int], seed: int) -> Dict[str, Any]:
        from repro.traffic.shardload import synthetic_overlay

        ctx = {
            "params": params,
            "seed": sub_seed(seed, "traffic"),
            "state": synthetic_overlay(params["n"], params["clusters"], seed=FIXTURE_SEED),
            "small": synthetic_overlay(
                params["small_n"], params["small_clusters"], seed=FIXTURE_SEED
            ),
        }
        # one small untimed pass: first-call costs are paid before the rounds
        self.one_pass(ctx, "small", shards=1)
        return ctx

    def one_pass(self, ctx: Dict[str, Any], which: str, *, shards: int, workers: Any = None) -> Any:
        from repro.traffic.shardload import run_shard_load

        return run_shard_load(
            ctx[which],
            shards=shards,
            workers=workers,
            period=self.period,
            duration=self.duration,
            seed=ctx["seed"],
        )

    @staticmethod
    def _counts(result: Any) -> Any:
        return (result.events, result.requests, result.completed,
                result.hops_intra + result.hops_cross)

    def measure(
        self, ctx: Dict[str, Any], seconds: float, host: HostSpeed, tracer: Any = None
    ) -> Measured:
        measured = Measured()
        shards = ctx["params"]["shards"]
        for result, round_s, _slowdown in rounds(
            measured, seconds, host, tracer, lambda: self.one_pass(ctx, "state", shards=shards)
        ):
            measured.rate_samples.append(result.events / round_s)
            incomplete = result.requests - result.completed
            measured.tally(
                result.requests, incomplete, f"{incomplete} of {result.requests} incomplete"
            )
            measured.round_digests.append(_sha(self._counts(result), result.windows))
            measured.info.update(
                events=result.events,
                windows=result.windows,
                exchanged=result.exchanged,
                locality=result.locality,
                clusters=result.clusters,
            )
            ctx["counts"] = self._counts(result)
        measured.all_rounds_equal("the pass")
        measured.set_ops([s * 1e3 for s in measured.round_s])
        return measured

    def probes(self, ctx: Dict[str, Any]) -> Dict[str, float]:
        """The other engine modes, which must agree with the measured one."""
        out: Dict[str, float] = {}
        agree = 1.0
        for key, which, kwargs in (
            ("mono_events_per_s", "state", {"shards": 1}),
            ("worker_events_per_s", "state", {"shards": 2, "workers": 2}),
            ("small_events_per_s", "small", {"shards": 1}),
        ):
            t0 = perf_counter()
            result = self.one_pass(ctx, which, **kwargs)
            out[key] = result.events / (perf_counter() - t0)
            if which == "state" and self._counts(result) != ctx.get("counts"):
                agree = 0.0
            if result.completed_ratio != 1.0:
                agree = 0.0
        out["modes_agree"] = agree
        # the same one-lane engine at both sizes: the fall-off with scale
        out["scale_ratio"] = out["mono_events_per_s"] / out["small_events_per_s"]
        return out


# -- churn --------------------------------------------------------------------------


class Churn(Workload):
    """Closed loop, one caller: membership writes beside routed reads."""

    name = "churn_2k"
    params = {
        "full": {"n": 2000, "block": 50, "requests": 200, "pairs": 20},
        "smoke": {"n": 150, "block": 10, "requests": 25, "pairs": 5},
    }

    def setup(self, params: Dict[str, int], seed: int) -> Dict[str, Any]:
        from repro.membership.churn import DynamicOverlay

        framework = _build_fixture(params["n"])
        overlay = DynamicOverlay(framework, restructure_tolerance=None, track_quality=False)
        rng = random.Random(sub_seed(seed, "churn"))
        free = [s for s in framework.physical.topology.stub_nodes if not overlay.is_member(s)]
        rng.shuffle(free)
        # a mirror of who offers what, kept beside the overlay so that the
        # requests can name only services some live proxy still hosts
        # without asking the overlay for a view outside the timed region
        hosted = dict(framework.overlay.placement)
        return {
            "params": params,
            "overlay": overlay,
            "rng": rng,
            "free": free,
            "catalog": list(framework.catalog.names),
            "hosted": hosted,
            "supply": Counter(name for services in hosted.values() for name in services),
            "router": framework.hierarchical_router(),
        }

    @staticmethod
    def _requests(ctx: Dict[str, Any], count: int) -> List[Any]:
        from repro.services.graph import linear_graph
        from repro.services.request import ServiceRequest

        rng, proxies = ctx["rng"], ctx["overlay"].proxies
        catalog = [name for name in ctx["catalog"] if ctx["supply"][name] > 0]
        requests = []
        for _ in range(count):
            source, destination = rng.sample(proxies, 2)
            names = [rng.choice(catalog) for _ in range(rng.randint(4, 10))]
            requests.append(ServiceRequest(source, linear_graph(names), destination))
        return requests

    def measure(
        self, ctx: Dict[str, Any], seconds: float, host: HostSpeed, tracer: Any = None
    ) -> Measured:
        params, overlay, router = ctx["params"], ctx["overlay"], ctx["router"]
        rng, free, catalog = ctx["rng"], ctx["free"], ctx["catalog"]
        hosted, supply = ctx["hosted"], ctx["supply"]
        measured = Measured()
        join_ms: List[List[float]] = []
        leave_ms: List[float] = []
        view_s: List[float] = []
        write_s = 0.0

        def write_block() -> Any:
            script, joins, leaves = [], [], []
            for _ in range(params["block"]):
                if (rng.random() < 0.5 and free) or overlay.size <= 3:
                    router_id = free.pop()
                    services = frozenset(
                        rng.sample(catalog, rng.randint(4, min(10, len(catalog))))
                    )
                    t0 = perf_counter()
                    overlay.join(router_id, services)
                    joins.append(perf_counter() - t0)
                    hosted[router_id] = services
                    supply.update(services)
                    script.append(("join", router_id))
                else:
                    proxy = rng.choice(overlay.proxies)
                    t0 = perf_counter()
                    overlay.leave(proxy)
                    leaves.append(perf_counter() - t0)
                    supply.subtract(hosted.pop(proxy))
                    free.insert(0, proxy)
                    script.append(("leave", proxy))
            return script, joins, leaves

        def read_block(requests: List[Any]) -> Any:
            t0 = perf_counter()
            hfc = overlay.hfc
            t1 = perf_counter()
            router.rebind(hfc)
            result = router.route_many_detailed(requests)
            return result, t1 - t0, perf_counter() - t0

        def one_round() -> Any:
            t0 = perf_counter()
            written = write_block()
            wrote_s = perf_counter() - t0
            # the requests name proxies alive *after* the block, so they are
            # drawn here, from the same seeded stream, but not timed
            requests = self._requests(ctx, params["requests"])
            return written, wrote_s, requests, read_block(requests)

        def verify(requests: List[Any], result: Any) -> None:
            view = overlay.overlay
            for request, path, error in zip(requests, result.paths, result.errors):
                if error is not None:
                    measured.check(False, f"infeasible after churn: {error}")
                else:
                    _validate(measured, path, request, view, "after churn")
            _check_borders(measured, overlay.hfc, rng, params["pairs"])

        for result, _round_s, slowdown in rounds(measured, seconds, host, tracer, one_round):
            (script, joins, leaves), wrote_s, requests, (routed, view, read_s) = result
            measured.rate_samples.append(params["requests"] * slowdown / read_s)
            join_ms.append([t / slowdown * 1e3 for t in joins])
            leave_ms.extend(t / slowdown * 1e3 for t in leaves)
            view_s.append(view / slowdown)
            write_s += wrote_s / slowdown
            measured.attempted += params["block"]
            verify(requests, routed)
            measured.round_digests.append(_sha(script, [_path_key(p) for p in routed.paths]))
        events = sum(len(block) for block in join_ms) + len(leave_ms)
        measured.info["churn_ops_per_s"] = events / write_s if write_s else 0.0

        _none, wall, slowdown = host.timed(_rooted(tracer, "restructure", overlay.restructure))
        measured.info["restructure_s"] = wall / slowdown
        requests = self._requests(ctx, params["requests"])
        verify(requests, read_block(requests)[0])

        measured.set_ops_by_round([block for block in join_ms if block])
        measured.info.update(
            join_ms_p50=measured.op_p50_ms,
            leave_ms_p50=quantile(leave_ms, 0.5),
            view_s=statistics.fmean(view_s) if view_s else 0.0,
            clusters=overlay.hfc.cluster_count,
            border_pairs=len(overlay.hfc.borders),
        )
        return measured


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (Construct(), Route(), Lifecycle(), Engine(), Churn())
}


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
