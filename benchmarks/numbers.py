"""Every simulated number the repo reports, from one driver into one file.

``make numbers`` runs the studies below in order — the paper's Table 1,
Fig 9 and Fig 10, the ablations A1-A8 and the extension studies — prints
each study's table, and rewrites this scale's section of
``benchmarks/paper_numbers.json``. Every value is seed-deterministic and on
the simulated clock, so the gate is exact::

    make numbers && git diff --exit-code benchmarks/paper_numbers.json

A change that moves a number shows the move as a diff line. Host time is
not measured here: that is ``benchmarks/e2e/run.py``'s job. Run it as a
module from the repo root (``python -m benchmarks.numbers``, what ``make
numbers`` does): as a script its directory would lead ``sys.path`` and this
file would shadow the standard library's ``numbers``.

The scale is ``REPRO_SCALE`` as read by
:func:`repro.experiments.environments.scale_factor`: ``small`` (default,
half a minute) and ``full`` (the paper's Table 1 sizes, minutes) each own a
section of the file; any other value runs and prints but writes nothing.
Seeds, sizes and configurations are the ones the numbers were first
recorded with — changing one changes what a number means, so add a study
instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Sequence

import numpy as np

from repro.core import HFCFramework
from repro.experiments import (
    WorkloadConfig,
    ascii_table,
    build_environment,
    generate_requests,
    run_overhead_experiment,
    run_path_efficiency,
    scale_factor,
    scaled_table1,
)
from repro.experiments import ablations
from repro.experiments.resilience import run_resilience_experiment
from repro.experiments.staleness import run_staleness_experiment
from repro.experiments.stretch import run_stretch_analysis
from repro.faults import crash_restart_plan, run_fault_scenario, standard_fault_matrix
from repro.hierarchy import RecursiveRouter, build_levels
from repro.membership import run_churn_session
from repro.qos import BandwidthModel, QoSHierarchicalRouter
from repro.routing import HierarchicalRouter
from repro.routing.signaling import SignalingSimulator
from repro.state import StateDistributionProtocol
from repro.telemetry import get_telemetry
from repro.traffic import (
    Poisson,
    SessionConfig,
    TrafficConfig,
    TrafficEngine,
    rate_sweep,
    run_traffic_under_faults,
)
from repro.traffic.shardload import run_shard_load, synthetic_overlay
from repro.util.errors import NoFeasiblePathError

PATH = Path(__file__).with_name("paper_numbers.json")

Study = Callable[[bool], Any]


def _requests(full: bool) -> int:
    """Client requests per topology (paper: 1000)."""
    return 1000 if full else 150


def _show(title: str, rows: Sequence[Any]) -> None:
    """Print *rows* as a titled table: dicts sharing one key order, or a
    harness's row dataclasses, one column per field (a summary field prints
    as its own string)."""
    rows = [row if isinstance(row, dict) else vars(row) for row in rows]
    print(f"{title}\n" + ascii_table(list(rows[0]), [list(r.values()) for r in rows]))


# -- the paper's evaluation ------------------------------------------------------


def table1(full: bool) -> Any:
    """Table 1 with the measured shape of one built instance per row."""
    rows = []
    for i, spec in enumerate(scaled_table1()):
        fw = build_environment(spec, seed=1000 + i).framework
        rows.append({
            "physical": spec.physical_nodes,
            "landmarks": spec.landmarks,
            "proxies": spec.proxies,
            "clients": spec.clients,
            "services_per_proxy": f"{spec.min_services}-{spec.max_services}",
            "request_length": f"{spec.min_request_length}-{spec.max_request_length}",
            "clusters": fw.clustering.cluster_count,
            "borders": len(fw.hfc.all_border_nodes()),
            "catalog": len(fw.catalog),
        })
    _show("Table 1 — environments (clusters, borders, catalog: one built instance)", rows)
    return rows


def fig9(full: bool) -> Any:
    """Fig 9 — node-states per proxy, flat vs HFC: (a) coordinates, (b) services."""
    topologies = 10 if full else 3
    # each panel keeps the seed it was first recorded with
    panels = {
        "coordinates": run_overhead_experiment(topologies_per_size=topologies, seed=91).coordinates,
        "service": run_overhead_experiment(topologies_per_size=topologies, seed=92).service,
    }
    for label, (panel, points) in zip("ab", panels.items()):
        _show(f"Fig 9({label}) — {panel} node-states per proxy", points)
        assert all(point.hierarchical < point.flat for point in points)
    return {"figure": "9", "panels": panels}


def fig10(full: bool) -> Any:
    """Fig 10 — mean service-path length: mesh, HFC with/without aggregation, oracle."""
    result = run_path_efficiency(
        strategies=("mesh", "hfc_agg", "hfc_full", "oracle"),
        topologies_per_size=5 if full else 2,
        requests_per_topology=_requests(full),
        seed=100,
    )
    _show("Fig 10 — avg. service path length (true delay units)",
          [{"proxies": point.proxies, **point.mean_delay} for point in result.points])
    for point in result.points:
        assert all(v == 0 for v in point.failures.values())
        assert point.mean_delay["oracle"] <= point.mean_delay["hfc_full"]
    return {"figure": "10", "strategies": list(result.strategies), "points": result.points}


def _ablation(name: str, title: str, run: Callable, seed: int) -> Study:
    def study(full: bool) -> Any:
        rows = run(requests=max(50, _requests(full) // 2), seed=seed)
        _show(title, rows)
        return rows

    study.__name__ = name
    return study


ABLATIONS = [
    _ablation("a1", "A1 — coordinate-space dimension", ablations.run_dimension_ablation, 201),
    _ablation("a2", "A2 — MST inconsistency factor", ablations.run_inconsistency_ablation, 202),
    _ablation("a3", "A3 — border-selection rule", ablations.run_border_ablation, 203),
    _ablation("a4", "A4 — CSP relaxation method", ablations.run_method_ablation, 204),
    _ablation("a5", "A5 — mesh link-information quality",
              ablations.run_mesh_information_ablation, 205),
    _ablation("a6", "A6 — cluster representation (all borders vs single logical node)",
              ablations.run_aggregation_ablation, 206),
    _ablation("a7", "A7 — landmark placement (k-center vs random)",
              ablations.run_landmark_ablation, 207),
    _ablation("a8", "A8 — overlay topology family", ablations.run_mesh_family_ablation, 208),
]


# -- the Section-4 protocol ------------------------------------------------------


def protocol_cost(full: bool) -> Any:
    """Messages and size units to a converged partial-global state."""
    rows = []
    for i, spec in enumerate(scaled_table1()[:2]):  # the two smaller sizes
        fw = build_environment(spec, seed=300 + i).framework
        report = StateDistributionProtocol(fw.hfc, seed=301 + i).run(max_time=30000.0)
        assert report.converged_at is not None
        rows.append({
            "proxies": spec.proxies,
            "clusters": fw.clustering.cluster_count,
            "converged_at": report.converged_at,
            "local_msgs": report.messages_by_kind.get("local_state", 0),
            "aggregate_msgs": report.messages_by_kind.get("aggregate_state", 0),
            "forward_msgs": report.messages_by_kind.get("aggregate_forward", 0),
            "total_size": report.total_size,
        })
    _show("Section 4 protocol — cost to converged partial-global state", rows)
    return rows


def state_bytes(full: bool) -> Any:
    """Protocol bytes at a fixed horizon: every refresh a full snapshot vs deltas."""
    proxies = 200 if full else 120
    fw = HFCFramework.build(proxy_count=proxies, seed=7)
    totals = {}
    for label, cadence in (("full", {"refresh_every": 1}), ("delta", {})):
        report = StateDistributionProtocol(fw.hfc, seed=7, **cadence).run(
            max_time=12000.0, stop_on_convergence=False
        )
        assert report.converged_at is not None, f"{label} did not converge"
        totals[label] = report.total_size
    ratio = totals["full"] / totals["delta"]
    print(f"State protocol bytes at t=12000, n={proxies}: "
          f"full {totals['full']}, delta {totals['delta']} ({ratio:.2f}x)")
    assert ratio >= 2.0, f"delta protocol saved only {ratio:.2f}x bytes (< 2x)"
    return {"proxies": proxies, "bytes_full": totals["full"], "bytes_delta": totals["delta"]}


def staleness(full: bool) -> Any:
    """E6 — routing against stale vs re-converged SCT_C after a placement burst."""
    rows = []
    for burst in (5, 20, 40):
        by = {
            r.state: r
            for r in run_staleness_experiment(
                change_count=burst, request_count=60, seed=1000 + burst
            )
        }
        stale, fresh = by["stale tables"], by["re-converged"]
        assert fresh.infeasible == 0  # capability preserved by construction
        rows.append({
            "burst": burst,
            "stale_infeasible": stale.infeasible,
            "stale_delay": stale.mean_delay,
            "fresh_infeasible": fresh.infeasible,
            "fresh_delay": fresh.mean_delay,
        })
    _show("E6 — routing vs SCT_C staleness (placement-change burst size)", rows)
    return rows


# -- routing quality ---------------------------------------------------------------


def stretch(full: bool) -> Any:
    """E7 — per-request stretch vs the true-delay optimum."""
    rows = run_stretch_analysis(request_count=max(100, _requests(full)), seed=1100)
    _show("E7 — per-request stretch vs true-delay optimum", rows)
    by = {r.strategy: r for r in rows}
    assert all(r.median >= 1.0 for r in rows)
    assert by["hfc_agg"].median <= by["mesh"].median * 1.1
    return rows


def hierarchy_depth(full: bool) -> Any:
    """E5 — per-proxy state vs path quality at hierarchy depth 2, 3, 4."""
    proxies, depths, count = (1000 if full else 250), (2, 3, 4), 60
    fw = HFCFramework.build(proxy_count=proxies, seed=7)
    requests = [fw.random_request(seed=1000 + i) for i in range(count)]
    levels, paths = {}, {}
    for depth in depths:
        hierarchy = build_levels(fw.hfc, depth)
        router = HierarchicalRouter(fw.hfc) if depth == 2 else RecursiveRouter(hierarchy)
        paths[depth] = router.route_many_detailed(requests).paths
        levels[depth] = {
            "top_groups": hierarchy.top_count,
            "state_bytes": hierarchy.mean_state_bytes(),
        }
    # like-for-like delay: only requests feasible at every depth
    feasible = [i for i in range(count) if all(paths[d][i] is not None for d in depths)]
    for depth in depths:
        levels[depth]["mean_delay"] = float(
            np.mean([paths[depth][i].true_delay(fw.overlay) for i in feasible])
        )
    _show(f"Recursive hierarchy depth sweep — n={proxies}, "
          f"{len(feasible)}/{count} requests feasible at every depth",
          [{"depth": d, **levels[d]} for d in depths])
    b2, b3, b4 = (levels[d]["state_bytes"] for d in depths)
    assert b4 < b3 < b2, f"per-proxy state not falling with depth: {b2}, {b3}, {b4}"
    return {"proxies": proxies, "feasible_requests": len(feasible), "levels": levels}


def qos(full: bool) -> Any:
    """E2 — hierarchical QoS routing vs the bandwidth floor (Mbps)."""
    fw = HFCFramework.build(proxy_count=scaled_table1()[0].proxies, seed=501)
    model = BandwidthModel(fw.physical, seed=502)
    requests = [fw.random_request(seed=s) for s in range(60)]
    rows = []
    for floor in (0.0, 15.0, 30.0, 60.0):
        router = QoSHierarchicalRouter(fw.hfc, model, floor)
        delays, bandwidths = [], []
        for request in requests:
            try:
                path = router.route(request)
            except NoFeasiblePathError:
                continue
            delays.append(path.true_delay(fw.overlay))
            bandwidths.append(model.path_bandwidth(path.proxies()))
        rows.append({
            "min_bandwidth": floor,
            "satisfied": len(delays),
            "requests": len(requests),
            "mean_delay": float(np.mean(delays)) if delays else float("nan"),
            "mean_bottleneck_bw": float(np.mean(bandwidths)) if delays else float("nan"),
        })
    _show("E2 — hierarchical QoS routing vs bandwidth floor (Mbps)", rows)
    return rows


def signaling(full: bool) -> Any:
    """Setup latency and control messages of hierarchical route resolution."""
    count = max(30, _requests(full) // 4)
    rows = []
    for i, spec in enumerate(scaled_table1()[:3]):
        env = build_environment(spec, seed=801 + i)
        sim = SignalingSimulator(HierarchicalRouter(env.framework.hfc))
        reports = [
            sim.resolve(request)
            for request in generate_requests(
                env, WorkloadConfig(request_count=count), seed=802 + i
            )
        ]
        latencies = [r.setup_latency for r in reports]
        rows.append({
            "proxies": spec.proxies,
            "mean_setup_ms": float(np.mean(latencies)),
            "max_setup_ms": float(np.max(latencies)),
            "mean_ctrl_msgs": float(np.mean([r.control_messages for r in reports])),
            "mean_path_delay_ms": float(
                np.mean([r.path.true_delay(env.framework.overlay) for r in reports])
            ),
        })
    _show("Setup latency of hierarchical route resolution", rows)
    # setup is one round trip to the slowest child: same order as a path delay
    assert all(r["mean_setup_ms"] < r["mean_path_delay_ms"] * 3 for r in rows)
    return rows


# -- membership, faults, load ------------------------------------------------------


def churn_quality(full: bool) -> Any:
    """E1 — clustering quality after 40 joins/leaves, by restructuring policy."""
    rows = []
    for policy, tolerance in (("no restructuring", None), ("tolerance 0.7", 0.7)):
        fw = HFCFramework.build(proxy_count=scaled_table1()[0].proxies, seed=401)
        dyn = run_churn_session(fw, events=40, seed=402, restructure_tolerance=tolerance)
        rows.append({
            "policy": policy,
            "size": dyn.size,
            "clusters": dyn.clustering.cluster_count,
            "restructures": sum(1 for e in dyn.history if e.kind == "restructure"),
            "quality": dyn.quality(),
            "fresh_quality": dyn.fresh_quality(),
        })
    _show("E1 — churn (40 events): clustering quality vs restructuring policy", rows)
    return rows


def resilience(full: bool) -> Any:
    """E4 — session delivery when a mid-path service proxy fails, by recovery policy."""
    proxies, sessions = (200, 16) if full else (48, 8)
    rows = run_resilience_experiment(proxy_count=proxies, sessions=sessions, seed=701)
    _show(f"E4 — session delivery under proxy failure, n={proxies} (latency in ms)", rows)
    by = {r.policy: r for r in rows}
    assert by["reroute"].delivery_rate.mean >= by["no recovery"].delivery_rate.mean
    return {
        "proxies": proxies,
        "sessions": sessions,
        "delivery_no_recovery": by["no recovery"].delivery_rate,
        "delivery_reroute": by["reroute"].delivery_rate,
        "recovery_latency": by["reroute"].recovery_latency,
    }


def fault_matrix(full: bool) -> Any:
    """The four standard fault plans under the convergence auditor."""
    proxies, k_periods = (200 if full else 48), 3
    fw = HFCFramework.build(proxy_count=proxies, seed=3)
    plans = {}
    for name, plan in standard_fault_matrix(fw.hfc).items():
        result = run_fault_scenario(fw, plan, k_periods=k_periods, check_interval=250.0)
        assert result.passed, f"{name}: {[c.detail for c in result.failures()]}"
        plans[name] = {
            "passed": result.passed,
            "recovery_time": result.recovery_time,
            "reconverged_at": result.reconverged_at,
            "dropped": sum(
                result.counters.get(f"faults.dropped.{cause}", 0)
                for cause in ("loss", "partition", "crash_sender", "crash_recipient")
            ),
            "duplicated": result.counters.get("faults.duplicated", 0),
        }
        budget = result.deadline - result.horizon  # the same for every plan
    _show(f"Fault matrix under the convergence auditor — n={proxies}, "
          f"K={k_periods} refresh periods (budget {budget:.0f})",
          [{"plan": name, **row} for name, row in plans.items()])
    return {"proxies": proxies, "budget": budget, "plans": plans}


def traffic(full: bool) -> Any:
    """E8 — open-loop traffic: steady state, saturation sweep, load under a fault."""
    if full:
        proxies, cap, rates, fault_proxies = 1000, 400, [0.03, 0.06, 0.12, 0.24, 0.48], 1000
    else:
        proxies, cap, rates, fault_proxies = 120, 150, [0.02, 0.04, 0.08, 0.16], 48
    config = TrafficConfig(
        arrival=Poisson(rate=rates[0]),
        duration=6_000.0,
        warmup=1_000.0,
        max_in_flight=cap,
        service_time=4.0,
        session=SessionConfig(mean_lifetime=2_000.0, mean_gap=400.0),
    )
    fw = HFCFramework.build(proxy_count=proxies, seed=11)
    router = fw.cached_hierarchical_router()
    steady = TrafficEngine(fw, config, router=router, seed=1).run()
    sweep = rate_sweep(fw, rates, config=config, seed=1, router=router)
    fault_fw = HFCFramework.build(proxy_count=fault_proxies, seed=3)
    faulted = run_traffic_under_faults(
        fault_fw,
        crash_restart_plan(fault_fw.hfc, seed=37),
        config=TrafficConfig(
            arrival=Poisson(rate=0.01),
            duration=6_000.0,
            warmup=1_000.0,
            session=SessionConfig(mean_lifetime=1_500.0, mean_gap=300.0),
        ),
        traffic_seed=8,
    )
    print(f"E8 — sustained traffic, n={proxies}, operating rate {rates[0]} "
          f"sessions/ms (cap {cap})")
    print(ascii_table(
        ["sessions/ms", "offered req/s", "completed req/s", "goodput",
         "p50 ms", "p95 ms", "p99 ms", "in-flight peak"],
        sweep.rows(),
    ))
    print(f"saturation rate: {sweep.saturation_rate} sessions/ms")
    print(f"under faults (n={fault_proxies}): {faulted.scenario.summary()} "
          f"calm={faulted.calm_continuity:.3f} fault-window={faulted.fault_continuity:.3f}")
    # the operating point sits inside the stable region, the sweep finds the knee
    assert steady.goodput_ratio >= 0.9
    assert steady.latency_p50 <= steady.latency_p95 <= steady.latency_p99
    assert sweep.saturation_rate is not None
    # the control plane reconverges under load, and traffic keeps flowing
    assert faulted.passed, [c.detail for c in faulted.scenario.failures()]
    assert faulted.fault_continuity > 0.5
    return {
        "proxies": proxies,
        "max_in_flight": cap,
        "steady": steady.to_dict(),
        "sweep": {
            "rates": rates,
            "saturation_rate": sweep.saturation_rate,
            "goodput": [p.report.goodput_ratio for p in sweep.points],
            "p95": [p.report.latency_p95 for p in sweep.points],
        },
        "under_faults": {
            "proxies": fault_proxies,
            "passed": faulted.passed,
            "calm_continuity": faulted.calm_continuity,
            "fault_continuity": faulted.fault_continuity,
            "reconverged_at": faulted.scenario.reconverged_at,
        },
    }


def shard(full: bool) -> Any:
    """E9 — periodic request traffic on the sharded engine, synthetic overlay."""
    proxies, clusters, shards = (100_000, 256, 4) if full else (400, 8, 2)
    result = run_shard_load(
        synthetic_overlay(proxies, clusters, seed=11),
        shards=shards, period=500.0, duration=2_000.0, seed=11,
    )
    row = {
        "proxies": proxies,
        "clusters": clusters,
        "shards": result.shards,
        "events": result.events,
        "windows": result.windows,
        "exchanged": result.exchanged,
        "requests": result.requests,
        "completed": result.completed,
        "locality": result.locality,
    }
    _show("E9 — sharded simulation", [row])
    assert result.completed == result.requests  # no message lost or duplicated
    assert result.locality > 0.5  # the contiguous partition keeps hops shard-local
    assert result.shards == shards and result.exchanged > 0
    return row


STUDIES: Sequence[Study] = [
    table1, fig9, fig10, *ABLATIONS,
    protocol_cost, stretch, staleness, churn_quality, state_bytes, hierarchy_depth,
    qos, signaling, resilience, fault_matrix, traffic, shard,
]


# -- the driver --------------------------------------------------------------------


def _plain(value: Any) -> Any:
    """JSON-ready copy: floats at 6 significant digits, counts and booleans exact;
    a harness's row dataclasses go field by field."""
    if is_dataclass(value):
        return _plain(asdict(value))
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        # an undefined statistic (no sample, one sample) is recorded as null
        return float(f"{value:.6g}") if math.isfinite(value) else None
    return value


def run(studies: Sequence[Study] = STUDIES) -> Dict[str, Any]:
    """Run *studies* at the active scale; returns ``{name: numbers}`` as written."""
    full = scale_factor() == 1.0
    results = {}
    for study in studies:
        # a study's telemetry is not its result; do not let it pile up
        get_telemetry().clear()
        print(f"\n== {study.__name__}")
        results[study.__name__] = _plain(study(full))
    return results


def write(results: Dict[str, Any], path: Path = PATH) -> bool:
    """Replace the active scale's section of *path*; other scales are refused."""
    scale = {0.2: "small", 1.0: "full"}.get(scale_factor())
    if scale is None:
        print(f"\nREPRO_SCALE is neither small nor full: {path.name} not written")
        return False
    sections = json.loads(path.read_text()) if path.exists() else {}
    sections[scale] = results
    path.write_text(json.dumps(sections, indent=2, sort_keys=True) + "\n")
    print(f"\n{path.name}: section {scale!r} written ({len(results)} studies)")
    return True


if __name__ == "__main__":
    write(run())
