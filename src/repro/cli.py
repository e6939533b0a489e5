"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``    — build a framework, route one request with every strategy;
* ``protocol``— run the Section-4 state protocol and print its cost;
* ``telemetry`` — exercise every instrumented layer and dump the metrics;
* ``traffic`` — sustained open-loop session load: steady-state report,
  optional rate sweep (saturation point) and load-under-faults scenario;
* ``shard``   — synthetic large-n workload on the sharded event simulator.

Common flags: ``--seed``, ``--json FILE`` (machine-readable output),
``--telemetry-out FILE`` (dump the process-wide telemetry snapshot collected
during the command). The paper's Table 1, Fig 9 and Fig 10 and every other
study are driven by ``make numbers`` (``benchmarks/numbers.py``), not here.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.core import HFCFramework
from repro.experiments import ascii_table
from repro.routing import validate_path
from repro.telemetry import get_telemetry


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write results as JSON")
    parser.add_argument("--telemetry-out", metavar="FILE", default=None,
                        help="write the collected telemetry snapshot as JSON")


def _dump_json(payload: Dict[str, Any], path: str) -> None:
    """Write *payload* to *path* as pretty-printed JSON (``--json``)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"JSON written to {path}")


def _dump_telemetry(args: argparse.Namespace) -> None:
    """Honour ``--telemetry-out`` after a command has run."""
    target = getattr(args, "telemetry_out", None)
    if target:
        get_telemetry().dump_json(target)
        print(f"telemetry snapshot written to {target}")


def cmd_demo(args: argparse.Namespace) -> int:
    framework = HFCFramework.build(proxy_count=args.proxies, seed=args.seed)
    print(framework.describe())
    request = framework.random_request(seed=args.seed + 1)
    print(f"request: {request}")
    strategies = {
        "hierarchical": framework.hierarchical_router(),
        "mesh": framework.mesh_router(seed=args.seed + 2),
        "hfc-full-state": framework.full_state_router(),
        "oracle": framework.oracle_router(),
    }
    rows = []
    for name, router in strategies.items():
        path = router.route(request)
        validate_path(path, request, framework.overlay)
        rows.append(
            [name, f"{path.true_delay(framework.overlay):.1f}",
             path.overlay_hop_count, path.relay_count()]
        )
    print(ascii_table(["strategy", "true delay (ms)", "hops", "relays"], rows))
    return 0


def cmd_protocol(args: argparse.Namespace) -> int:
    from repro.state.protocol import StateDistributionProtocol

    framework = HFCFramework.build(proxy_count=args.proxies, seed=args.seed)
    print(framework.describe())
    protocol = StateDistributionProtocol(framework.hfc, seed=args.seed + 1)
    report = protocol.run()
    protocol.sim.telemetry.publish()
    rows = [[kind, count] for kind, count in sorted(report.messages_by_kind.items())]
    rows.append(["total", report.total_messages])
    print(ascii_table(["message kind", "count"], rows))
    print(f"converged at t={report.converged_at}")
    if args.json:
        _dump_json(report.to_dict(), args.json)
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Exercise every instrumented layer once and print the metrics."""
    from repro.state.protocol import StateDistributionProtocol

    telemetry = get_telemetry()
    framework = HFCFramework.build(proxy_count=args.proxies, seed=args.seed)
    print(framework.describe())

    router = framework.cached_hierarchical_router()
    routed = 0
    for i in range(args.requests):
        request = framework.random_request(seed=args.seed + 100 + i % 5)
        try:
            router.route(request)
            routed += 1
        except Exception:
            pass
    print(f"routed {routed}/{args.requests} requests "
          f"(cache hit rate {router.stats.hit_rate:.0%})")

    protocol = StateDistributionProtocol(framework.hfc, seed=args.seed + 1)
    protocol_report = protocol.run(max_time=10000.0)
    protocol.sim.telemetry.publish()
    print(f"protocol: {protocol_report.total_messages} messages, "
          f"converged at t={protocol_report.converged_at}")

    snapshot = telemetry.snapshot()
    counter_rows = [
        [c["name"],
         ",".join(f"{k}={v}" for k, v in sorted(c["labels"].items())) or "-",
         c["value"]]
        for c in snapshot["metrics"]["counters"]
    ]
    print(ascii_table(["counter", "labels", "value"], counter_rows))
    histogram_rows = [
        [h["name"],
         ",".join(f"{k}={v}" for k, v in sorted(h["labels"].items())) or "-",
         h["count"],
         "-" if h["p50"] is None else f"{h['p50']:.3g}",
         "-" if h["p95"] is None else f"{h['p95']:.3g}"]
        for h in snapshot["metrics"]["histograms"]
    ]
    print(ascii_table(["histogram", "labels", "count", "p50", "p95"],
                      histogram_rows))
    print(f"spans finished: {snapshot['spans']['finished']}, "
          f"events recorded: {snapshot['events']['recorded']}")
    if args.json:
        telemetry.dump_json(args.json)
        print(f"telemetry snapshot written to {args.json}")
    return 0


def cmd_traffic(args: argparse.Namespace) -> int:
    """Run the open-loop traffic engine and print the steady-state report."""
    from repro.faults.scenarios import crash_restart_plan
    from repro.traffic import (
        MMPP,
        FlashCrowd,
        Poisson,
        SessionConfig,
        TrafficConfig,
        TrafficEngine,
        rate_sweep,
        run_traffic_under_faults,
    )

    framework = HFCFramework.build(proxy_count=args.proxies, seed=args.seed)
    print(framework.describe())

    shapes = (FlashCrowd(),) if args.flash_crowd else ()
    arrival = (
        MMPP(rates=(args.rate / 4, args.rate * 2), shapes=shapes)
        if args.arrival == "mmpp"
        else Poisson(rate=args.rate, shapes=shapes)
    )
    config = TrafficConfig(
        arrival=arrival,
        duration=args.duration,
        warmup=min(args.duration / 5, 2000.0),
        max_in_flight=args.max_in_flight,
        session=SessionConfig(),
    )
    sim = framework.simulator(shards=args.shards)
    if sim.shards > 1:
        print(f"sharded simulator: {sim.shards} shards, "
              f"lookahead {sim.plan.lookahead:.1f} ms")
    engine = TrafficEngine(framework, config, sim=sim, seed=args.seed + 1)
    report = engine.run()
    payload = {"steady": report.to_dict()}
    print("steady state:")
    print(ascii_table(
        ["offered req/s", "completed req/s", "goodput", "p50 ms", "p95 ms",
         "p99 ms", "in-flight peak"],
        [[f"{report.offered_rate:.1f}", f"{report.completed_rate:.1f}",
          f"{report.goodput_ratio:.3f}", f"{report.latency_p50:.1f}",
          f"{report.latency_p95:.1f}", f"{report.latency_p99:.1f}",
          report.in_flight_peak]],
    ))

    if args.trace_out:
        count = engine.dump_trace(args.trace_out)
        print(f"request trace ({count} events) written to {args.trace_out}")

    if args.sweep:
        rates = [float(r) for r in args.sweep.split(",")]
        sweep = rate_sweep(
            framework, rates, config=config, seed=args.seed + 1,
            router=engine.router,
        )
        print("\nrate sweep:")
        print(ascii_table(
            ["sessions/ms", "offered req/s", "completed req/s", "goodput",
             "p50 ms", "p95 ms", "p99 ms", "in-flight peak"],
            sweep.rows(),
        ))
        print(f"saturation rate: {sweep.saturation_rate}")
        payload["sweep"] = {
            "rates": rates,
            "saturation_rate": sweep.saturation_rate,
            "points": [
                {"rate": p.rate, **p.report.to_dict()} for p in sweep.points
            ],
        }

    if args.under_faults:
        result = run_traffic_under_faults(
            framework,
            crash_restart_plan(framework.hfc, seed=args.seed + 30),
            config=config,
            traffic_seed=args.seed + 2,
        )
        print(f"\nunder faults (crash/restart): {result.scenario.summary()}")
        print(
            f"delivery continuity: calm {result.calm_continuity:.3f}, "
            f"fault window {result.fault_continuity:.3f}"
        )
        payload["under_faults"] = result.to_dict()

    if args.json:
        _dump_json(payload, args.json)
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    """Run the synthetic sharded-simulation workload and print the outcome."""
    from repro.traffic.shardload import run_shard_load, synthetic_overlay

    state = synthetic_overlay(args.proxies, args.clusters, seed=args.seed)
    result = run_shard_load(
        state,
        shards=args.shards,
        workers=args.workers,
        period=args.period,
        duration=args.duration,
        seed=args.seed,
    )
    print(ascii_table(
        ["proxies", "clusters", "shards", "workers", "events", "windows",
         "exchanged", "completed", "locality", "events/s"],
        [[result.proxies, result.clusters, result.shards, result.workers,
          result.events, result.windows, result.exchanged,
          f"{result.completed_ratio:.3f}", f"{result.locality:.3f}",
          f"{result.event_rate:.0f}"]],
    ))
    if args.json:
        _dump_json(
            {
                "proxies": result.proxies,
                "clusters": result.clusters,
                "shards": result.shards,
                "workers": result.workers,
                "events": result.events,
                "windows": result.windows,
                "exchanged": result.exchanged,
                "requests": result.requests,
                "completed": result.completed,
                "completed_ratio": result.completed_ratio,
                "locality": result.locality,
                "event_rate": result.event_rate,
                "wall_seconds": result.wall_seconds,
            },
            args.json,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Jin & Nahrstedt, Middleware 2003",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="route one request with every strategy")
    demo.add_argument("--proxies", type=int, default=100)
    _add_common(demo)
    demo.set_defaults(fn=cmd_demo)

    protocol = sub.add_parser("protocol", help="run the state protocol")
    protocol.add_argument("--proxies", type=int, default=100)
    _add_common(protocol)
    protocol.set_defaults(fn=cmd_protocol)

    telemetry = sub.add_parser(
        "telemetry", help="exercise the instrumented layers, dump the metrics"
    )
    telemetry.add_argument("--proxies", type=int, default=60)
    telemetry.add_argument("--requests", type=int, default=25)
    _add_common(telemetry)
    telemetry.set_defaults(fn=cmd_telemetry)

    traffic = sub.add_parser(
        "traffic", help="run sustained open-loop session traffic"
    )
    traffic.add_argument("--proxies", type=int, default=100)
    traffic.add_argument("--rate", type=float, default=0.02,
                         help="session arrivals per simulated ms (default 0.02)")
    traffic.add_argument("--duration", type=float, default=10_000.0,
                         help="arrival horizon in simulated ms (default 10000)")
    traffic.add_argument("--max-in-flight", type=int, default=512,
                         help="admission cap on open sessions (default 512)")
    traffic.add_argument("--arrival", choices=("poisson", "mmpp"),
                         default="poisson")
    traffic.add_argument("--flash-crowd", action="store_true",
                         help="overlay a flash-crowd burst on the arrival rate")
    traffic.add_argument("--sweep", metavar="R1,R2,...", default=None,
                         help="also sweep these arrival rates and report the "
                              "saturation point")
    traffic.add_argument("--trace-out", metavar="FILE", default=None,
                         help="write the deterministic request trace as JSONL")
    traffic.add_argument("--under-faults", action="store_true",
                         help="also run the load under a crash/restart fault "
                              "plan with the convergence auditor")
    traffic.add_argument("--shards", type=int, default=None,
                         help="partition the event simulation into this many "
                              "per-cluster shards (results are invariant)")
    _add_common(traffic)
    traffic.set_defaults(fn=cmd_traffic)

    shard = sub.add_parser(
        "shard", help="run the synthetic sharded-simulation workload"
    )
    shard.add_argument("--proxies", type=int, default=10_000)
    shard.add_argument("--clusters", type=int, default=64)
    shard.add_argument("--shards", type=int, default=4)
    shard.add_argument("--workers", type=int, default=None,
                       help="run shards in this many worker processes "
                            "(must equal --shards; default in-process)")
    shard.add_argument("--period", type=float, default=500.0,
                       help="per-proxy request period in simulated ms")
    shard.add_argument("--duration", type=float, default=2000.0,
                       help="request-issue horizon in simulated ms")
    _add_common(shard)
    shard.set_defaults(fn=cmd_shard)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    code = args.fn(args)
    try:
        _dump_telemetry(args)
    except OSError as exc:
        print(f"error: could not write telemetry snapshot: {exc}",
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
