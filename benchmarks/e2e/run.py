"""The repo's end-to-end benchmark: one command, five workloads.

One workload run (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 benchmarks/e2e/run.py --workload route_2k --seed 3 --seconds 12 --trace 0

prints a summary and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1`` (a
traced run also writes ``benchmarks/e2e/out/<workload>.trace.jsonl``).

Without ``--workload`` it runs the whole suite, each workload untraced and
then traced in a fresh single-threaded subprocess, prints every metric by
name with its unit, writes ``benchmarks/e2e/out/results.json`` (values and
an environment block) and exits non-zero if any run was incorrect.
``--sets 2`` does that twice and fails if an end-to-end metric moved by
more than its own bound between the sets.

See README.md beside this file for what each workload and metric means.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: one thread, so that a run measures the
# program and not the BLAS pool's scheduling
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics as declared  # noqa: E402

#: set-ups timed per untraced run (``setup_s`` is their median)
SETUP_REPEATS = 3


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path; fail if it is not there."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"run.py: no program to measure: {source}/repro is missing")
    if source not in sys.path:
        sys.path.insert(0, source)


# -- one workload ------------------------------------------------------------------


def _layer_metrics(
    n: int, setup: Any, run: Any, traced: Any, reference: Any, probes: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where the layer never ran)."""
    values = {name: 0.0 for name, _unit, _better in declared.PER_LAYER}
    info = traced.info
    rounds = max(1, traced.rounds)

    # construction layers: per HFCFramework.build, set-up builds included
    built = setup + run
    builds = built.hits("coords.embedding")
    if builds:
        embedding = built.busy("coords.embedding")
        values.update(
            {
                "netsim.topology.build_s": built.self_s(
                    "netsim.topology.transit_stub", "netsim.topology.physical"
                ) / builds,
                "coords.embedding.busy_s": embedding / builds,
                "coords.embedding.hosts_per_s": n * builds / embedding,
                "services.placement.busy_s": built.busy("services.placement") / builds,
                "cluster.mstcluster.busy_s": built.busy("cluster.mstcluster") / builds,
                "overlay.hfc.borders_s": built.self_s("overlay.hfc") / builds,
                "state.columnar.build_s": built.self_s("state.columnar") / builds,
            }
        )
    values["cluster.mstcluster.clusters"] = info.get("clusters", 0.0)
    values["overlay.hfc.border_pairs"] = info.get("border_pairs", 0.0)
    for boundary, name in (
        ("hierarchy.levels.build", "hierarchy.levels.build_s"),
        ("persistence.save", "persistence.save_s"),
        ("persistence.load", "persistence.load_s"),
    ):
        if run.hits(boundary):
            values[name] = run.busy(boundary) / run.hits(boundary)
    values["hierarchy.levels.build_s"] += probes.get("deep_build_s", 0.0)
    values["persistence.snapshot_mb"] = info.get("snapshot_mb", 0.0)

    # everything below: per measured round
    def per_round(*boundaries: str) -> float:
        return run.self_s(*boundaries) / rounds

    values.update(
        {
            "routing.hierarchical.csp_s": per_round("routing.hierarchical.batch"),
            "routing.hierarchical.dissect_s": per_round("routing.hierarchical.dissect"),
            "routing.batch.conquer_s": per_round("routing.batch.conquer"),
            "routing.hierarchical.compose_s": per_round("routing.hierarchical.compose"),
            "routing.hierarchical.infeasible": info.get("infeasible", 0.0),
            "routing.batch.tables_s": per_round("routing.batch.tables"),
            "routing.batch.cold_rps": info.get("cold_rps", 0.0),
            "routing.hierarchical.single_p99_ms": info.get("single_p99_ms", 0.0),
            "routing.hierarchical.stretch_mean": probes.get("stretch_mean", 0.0),
            "routing.cache.hit_ratio": probes.get("cache_hit_ratio", 0.0),
            "routing.cache.rps": probes.get("cache_rps", 0.0),
            "hierarchy.levels.route_rps": probes.get("deep_rps", 0.0),
            "routing.flat.busy_s": probes.get("flat_s", 0.0),
            "netsim.eventsim.loop_self_s": per_round(
                "netsim.eventsim.run", "netsim.eventsim.action"
            ),
            "netsim.eventsim.events": info.get("events", 0.0),
            "netsim.eventsim.mono_events_per_s": probes.get("mono_events_per_s", 0.0),
            "netsim.eventsim.small_events_per_s": probes.get("small_events_per_s", 0.0),
            "netsim.eventsim.dropped": info.get("dropped", 0.0),
            "netsim.eventsim.pending_end": info.get("pending_end", 0.0),
            "netsim.shard.setup_s": per_round("netsim.shard.run"),
            "netsim.shard.windows": info.get("windows", 0.0),
            "netsim.shard.exchanged": info.get("exchanged", 0.0),
            "netsim.shard.locality": info.get("locality", 0.0),
            "netsim.shard.worker_events_per_s": probes.get("worker_events_per_s", 0.0),
            "traffic.shardload.relay_s": per_round(
                "traffic.shardload.receive", "traffic.shardload.action"
            ),
            "state.protocol.receive_s": per_round("state.protocol.receive"),
            "state.protocol.timer_s": per_round("state.protocol.action"),
            "state.protocol.messages": info.get("protocol_messages", 0.0),
            "state.protocol.converge_wall_s": probes.get("converge_wall_s", 0.0),
            "state.protocol.sim_converged_ms": probes.get("sim_converged_ms", 0.0),
            "state.delta.gaps": info.get("gaps", 0.0),
            "traffic.engine.route_flush_s": (
                run.busy("routing.hierarchical.batch") / rounds if "traffic_rps" in info else 0.0
            ),
            "traffic.engine.relay_s": per_round("traffic.engine.receive"),
            "traffic.engine.timer_s": per_round("traffic.engine.action"),
            "traffic.engine.requests": info.get("requests", 0.0),
            "traffic.engine.lost": info.get("lost", 0.0),
            "traffic.engine.rps": info.get("traffic_rps", 0.0),
            "traffic.engine.sim_fault_continuity": info.get("fault_continuity", 0.0),
            "netsim.physical.delay_s": per_round("netsim.physical.delays_from"),
            "netsim.physical.delay_rows": run.hits("netsim.physical.rows"),
            "faults.injector.intercept_s": per_round(
                "faults.injector.intercept", "faults.injector.action"
            ),
            "faults.injector.dropped": info.get("fault_dropped", 0.0),
            "faults.auditor.check_s": run.busy("faults.auditor.check") / rounds,
            "faults.auditor.sim_reconverge_ms": info.get("reconverge_ms", 0.0),
            "membership.churn.ops_per_s": info.get("churn_ops_per_s", 0.0),
            "membership.churn.join_ms_p50": info.get("join_ms_p50", 0.0),
            "membership.churn.leave_ms_p50": info.get("leave_ms_p50", 0.0),
            "membership.churn.restructure_s": info.get("restructure_s", 0.0),
            "membership.churn.view_s": info.get("view_s", 0.0),
        }
    )
    values["netsim.eventsim.scale_ratio"] = probes.get("scale_ratio", 0.0)
    root_busy = run.busy("root.round")
    values["trace.unattributed_ratio"] = run.self_s("root.round") / root_busy if root_busy else 0.0
    values["trace.overhead_ratio"] = statistics.median(traced.round_s) / statistics.median(
        reference.round_s
    )
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> Any:
    """Run one workload in this process.

    Returns the contract's result object and the run's ``sim_digest``.
    """
    _load_program()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    params = workload.params[scale]
    host = workloads.HostSpeed()
    calibration = workloads.calibrate()
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)} scale {scale}")

    setups: List[float] = []
    ctx: Any = None
    for _ in range(1 if trace else SETUP_REPEATS):
        ctx = None  # drop the previous fixture before timing the next
        gc.collect()
        ctx, wall, slowdown = host.timed(lambda: workload.setup(params, seed))
        setups.append(wall / slowdown)

    if not trace:
        measured = workload.measure(ctx, seconds, host)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": measured.ops_per_s,
            "op_p50_ms": measured.op_p50_ms,
            "op_p95_ms": measured.op_p95_ms,
            "peak_rss_mb": workloads.peak_rss_mb(),
        }
        units = {n: u for n, u, _b, _bound in declared.END_TO_END}
    else:
        # an untraced reference first (its own context: rounds may mutate
        # theirs), then the same rounds under the wrappers, then the probes
        reference = workload.measure(ctx, max(1.0, seconds / 3.0), host)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            ctx = tracer.run_root("setup", lambda: workload.setup(params, seed))
            setup_totals = tracer.drain()
            measured = workload.measure(ctx, seconds, host, tracer)
            run_totals = tracer.drain()
        finally:
            tracer.unpatch_all()
        probes = workload.probes(ctx)
        shared = min(len(reference.round_digests), len(measured.round_digests))
        measured.check(
            reference.round_digests[:shared] == measured.round_digests[:shared],
            "the traced run's outputs differ from the untraced run's",
        )
        measured.check(reference.failed == 0, f"untraced reference: {reference.failures}")
        if "modes_agree" in probes:
            measured.check(probes["modes_agree"] == 1.0, "engine modes disagree on the outcome")
        if "stretch_min" in probes:
            measured.check(
                probes["stretch_min"] >= 1.0 - 1e-9, "a path shorter than the flat optimum"
            )
        values = _layer_metrics(params["n"], setup_totals, run_totals, measured, reference, probes)
        values.update(calibration)
        values["host.slowdown"] = statistics.median(measured.slowdowns)
        units = {n: u for n, u, _b in declared.PER_LAYER}
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        trace_path = os.path.join(workloads.OUT_DIR, f"{name}.trace.jsonl")
        lines = tracer.write_jsonl(trace_path, {"setup": setup_totals, "measure": run_totals})
        print(f"trace {os.path.relpath(trace_path, ROOT)} ({lines} lines)")

    slow = sorted(measured.slowdowns)
    print(
        f"rounds {measured.rounds} op_samples {measured.op_count} "
        f"attempted {measured.attempted} failed {measured.failed}"
    )
    print(
        f"host_slowdown min {slow[0]:.3f} median {statistics.median(slow):.3f} max {slow[-1]:.3f}"
    )
    print(f"sim_digest {measured.sim_digest}")
    for message in measured.failures:
        print(f"FAILED {message}")
    for metric, value in values.items():
        print(f"{metric} {value:.6g} {units[metric]}")
    result = {
        "correct": measured.failed == 0,
        "attempted": int(measured.attempted),
        "failed": int(measured.failed),
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in values.items()},
    }
    return result, measured.sim_digest


# -- the suite ---------------------------------------------------------------------


def _host_environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def _run_child(name: str, seed: int, seconds: float, trace: bool, scale: str) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--scale", scale,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run.py: {name} (trace {int(trace)}) exited with {done.returncode}")
    result = json.loads(lines[-1])
    result["sim_digest"] = next(
        (line.split()[1] for line in lines if line.startswith("sim_digest ")), ""
    )
    result["failures"] = [line for line in lines if line.startswith("FAILED ")]
    return result


def run_suite(seed: int, seconds: float, scale: str, only: Optional[str]) -> Dict[str, Any]:
    """Every workload untraced, then traced; prints each metric as it arrives."""
    names = [name for name, _why in declared.WORKLOADS if only in (None, name)]
    results: Dict[str, Any] = {}
    for name in names:
        untraced = _run_child(name, seed, seconds, False, scale)
        traced = _run_child(name, seed, seconds, True, scale)
        agree = untraced["sim_digest"] == traced["sim_digest"]
        correct = untraced["correct"] and traced["correct"] and agree
        results[name] = {
            "correct": correct,
            "sim_digest": untraced["sim_digest"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
        print(f"== {name}: {'ok' if correct else 'INCORRECT'} "
              f"(attempted {untraced['attempted']}, failed {results[name]['failed']}, "
              f"sim_digest {untraced['sim_digest'][:16]})")
        if not agree:
            print("   traced and untraced sim_digest differ")
        for line in untraced["failures"] + traced["failures"]:
            print(f"   {line}")
        for kind in ("end_to_end", "per_layer"):
            for metric, entry in results[name][kind].items():
                if entry["value"] or kind == "end_to_end":
                    print(f"   {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    return results


def compare_sets(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Per-metric relative spread of two sets; the lines that break a bound."""
    broken = []
    bounds = {name: bound for name, _unit, _better, bound in declared.END_TO_END}
    for name in first:
        if first[name]["sim_digest"] != second[name]["sim_digest"]:
            broken.append(f"{name}: sim_digest differs between the sets")
        for metric, bound in bounds.items():
            a = first[name]["end_to_end"][metric]["value"]
            b = second[name]["end_to_end"][metric]["value"]
            spread = abs(a - b) / min(a, b) if min(a, b) > 0 else float("inf")
            verdict = "ok" if spread <= bound else "OVER"
            print(f"   {name:<14} {metric:<12} {a:>12.6g} {b:>12.6g} "
                  f"spread {spread:6.3f} bound {bound:.2f} {verdict}")
            if spread > bound:
                broken.append(f"{name}: {metric} moved {spread:.3f} > {bound}")
    return broken


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[name for name, _why in declared.WORKLOADS])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(declared.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke is for the self-tests; its numbers mean nothing")
    parser.add_argument("--sets", type=int, default=1, help="suite mode: repeat and compare")
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json from metrics.py and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(declared.manifest(), handle, indent=2)
            handle.write("\n")
        return 0

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result, _digest = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
        print(json.dumps(result))
        return 0

    _load_program()
    import workloads

    sets = [run_suite(args.seed, args.seconds, args.scale, args.workload)
            for _ in range(max(1, args.sets))]
    broken = [f"{name}: incorrect" for results in sets
              for name, result in results.items() if not result["correct"]]
    for later in sets[1:]:
        print("== set against set")
        broken += compare_sets(sets[0], later)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    with open(os.path.join(workloads.OUT_DIR, "results.json"), "w", encoding="utf-8") as handle:
        json.dump({"environment": _host_environment(), "seed": args.seed, "seconds": args.seconds,
                   "scale": args.scale, "sets": sets}, handle, indent=2)
        handle.write("\n")
    for line in broken:
        print(f"FAILED {line}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
