"""The benchmark's declared surface: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root is :func:`manifest` serialised
(``run.py --write-manifest``); a self-test keeps the two equal. Later
changes refer to workloads and metrics by the names in this file.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: seconds one run measures (the driver passes it as ``--seconds``)
RUN_SECONDS = 15

#: (name, one-line reason) — see README.md for the long form
WORKLOADS: List[Tuple[str, str]] = [
    (
        "construct_2k",
        "builds the n=2000 overlay, its 3-level hierarchy and a snapshot round trip "
        "over and over: construction does all the work, routing and the event engine none",
    ),
    (
        "route_2k",
        "routes seeded request sets, batched and one at a time, on a fixed n=2000 "
        "overlay: routing does all the work, construction is only set-up, no events",
    ),
    (
        "lifecycle_120",
        "gossip, open-loop Poisson traffic, a border-proxy crash and its audited "
        "recovery on one simulator at n=120: protocol, traffic, faults and routing share one heap",
    ),
    (
        "engine_16k",
        "near-empty relays on a synthetic 16k-proxy overlay, 4 shards in process: the bare "
        "event engine, where a routing or construction change must move nothing",
    ),
    (
        "churn_2k",
        "joins and leaves on the n=2000 overlay with a rebind and a routed batch after every "
        "50: the routing tables are written beside being read, so precompute and caches cost here",
    ),
]

#: (name, unit, better, bound) — every workload reports every one of them.
#: Host times get the widest bound the contract allows: on the shared
#: sandbox this was defined on, ten runs of one workload spread (IQR/median)
#: by 0.02-0.10 on ops_per_s, 0.01-0.06 on op_p50_ms and 0.03-0.18 on
#: op_p95_ms even at reference host speed; memory repeats within 0.013.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better) — traced run; 0 on a workload that never enters the layer
PER_LAYER: List[Tuple[str, str, str]] = [
    # construction, per HFCFramework.build
    ("netsim.topology.build_s", "s", "lower"),
    ("coords.embedding.busy_s", "s", "lower"),
    ("coords.embedding.hosts_per_s", "1/s", "higher"),
    ("services.placement.busy_s", "s", "lower"),
    ("cluster.mstcluster.busy_s", "s", "lower"),
    ("cluster.mstcluster.clusters", "count", "higher"),
    ("overlay.hfc.borders_s", "s", "lower"),
    ("overlay.hfc.border_pairs", "count", "higher"),
    ("state.columnar.build_s", "s", "lower"),
    ("hierarchy.levels.build_s", "s", "lower"),
    ("persistence.save_s", "s", "lower"),
    ("persistence.load_s", "s", "lower"),
    ("persistence.snapshot_mb", "MB", "lower"),
    # routing, per measured round
    ("routing.hierarchical.csp_s", "s", "lower"),
    ("routing.hierarchical.dissect_s", "s", "lower"),
    ("routing.batch.conquer_s", "s", "lower"),
    ("routing.hierarchical.compose_s", "s", "lower"),
    ("routing.hierarchical.infeasible", "count", "lower"),
    ("routing.batch.tables_s", "s", "lower"),
    ("routing.batch.cold_rps", "1/s", "higher"),
    ("routing.hierarchical.single_p99_ms", "ms", "lower"),
    ("routing.hierarchical.stretch_mean", "ratio", "lower"),
    ("routing.cache.hit_ratio", "ratio", "higher"),
    ("routing.cache.rps", "1/s", "higher"),
    ("hierarchy.levels.route_rps", "1/s", "higher"),
    ("routing.flat.busy_s", "s", "lower"),
    # event engine, per measured round (one simulation pass)
    ("netsim.eventsim.loop_self_s", "s", "lower"),
    ("netsim.eventsim.events", "count", "lower"),
    ("netsim.eventsim.mono_events_per_s", "1/s", "higher"),
    ("netsim.eventsim.small_events_per_s", "1/s", "higher"),
    ("netsim.eventsim.scale_ratio", "ratio", "higher"),
    ("netsim.eventsim.dropped", "count", "lower"),
    ("netsim.eventsim.pending_end", "count", "lower"),
    ("netsim.shard.setup_s", "s", "lower"),
    ("netsim.shard.windows", "count", "lower"),
    ("netsim.shard.exchanged", "count", "lower"),
    ("netsim.shard.locality", "ratio", "higher"),
    ("netsim.shard.worker_events_per_s", "1/s", "higher"),
    ("traffic.shardload.relay_s", "s", "lower"),
    # state protocol, traffic and faults, per lifecycle pass
    ("state.protocol.receive_s", "s", "lower"),
    ("state.protocol.timer_s", "s", "lower"),
    ("state.protocol.messages", "count", "lower"),
    ("state.protocol.converge_wall_s", "s", "lower"),
    ("state.protocol.sim_converged_ms", "ms", "lower"),
    ("state.delta.gaps", "count", "lower"),
    ("traffic.engine.route_flush_s", "s", "lower"),
    ("traffic.engine.relay_s", "s", "lower"),
    ("traffic.engine.timer_s", "s", "lower"),
    ("traffic.engine.requests", "count", "higher"),
    ("traffic.engine.lost", "count", "lower"),
    ("traffic.engine.rps", "1/s", "higher"),
    ("traffic.engine.sim_fault_continuity", "ratio", "higher"),
    ("netsim.physical.delay_s", "s", "lower"),
    ("netsim.physical.delay_rows", "count", "lower"),
    ("faults.injector.intercept_s", "s", "lower"),
    ("faults.injector.dropped", "count", "lower"),
    ("faults.auditor.check_s", "s", "lower"),
    ("faults.auditor.sim_reconverge_ms", "ms", "lower"),
    # membership
    ("membership.churn.ops_per_s", "1/s", "higher"),
    ("membership.churn.join_ms_p50", "ms", "lower"),
    ("membership.churn.leave_ms_p50", "ms", "lower"),
    ("membership.churn.restructure_s", "s", "lower"),
    ("membership.churn.view_s", "s", "lower"),
    # every workload
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ratio", "ratio", "lower"),
    ("host.calib_py_s", "s", "lower"),
    ("host.calib_np_s", "s", "lower"),
    ("host.slowdown", "ratio", "lower"),
]


def manifest() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }
