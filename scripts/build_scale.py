#!/usr/bin/env python
"""What a cold build costs as n grows: one ``HFCFramework.build`` per size.

    python scripts/build_scale.py 2000 6000 10000
    make scale N="2000 6000 10000"

Each size is built once (``seed=11``) in a fresh subprocess, so allocator
growth and warm caches from a smaller build never flatter a larger one, and
peak RSS is that build's own. Per size, one table row:

* ``build_s`` — wall seconds of the whole build;
* the ``construct.*`` span split (``topology`` also as ``wire`` + ``index``;
  ``embedding`` also as its two solves, which scale differently:
  ``landmarks``, the n-independent landmark solve, and ``locate``, the
  batched per-host solve, linear in n), read from the build's own telemetry
  scope;
* ``converged`` / ``capped`` — whether the kept landmark descent met its
  tolerances, and how many of the solve's two starts ran into the iteration
  cap instead (each of those costs the full cap);
* ``iterations`` / ``problem_iterations`` / ``capped_hosts`` — the hosts'
  kept descents in ``locate``: the longest, their sum, and how many the
  iteration cap cut off;
* ``mst_rounds`` / ``mst_pairs`` — the Borůvka rounds of the clustering's
  Euclidean MST and the squared distances it evaluated (all n² pairs would
  be n(n-1)/2);
* ``rows`` / ``rounds`` — shortest-path rows the physical substrate computed
  and the relaxation kernel's rounds per row (max);
* ``rss_mb`` — the subprocess's peak resident set;
* ``digest`` — sha256 over coordinates, labels, border matrix and landmark
  coordinates (what ``tests/fixtures/construction_digest.json`` pins at small
  n): two commits that print the same digest built the same overlay.

This is the table ROADMAP item 4 ("the title's scale, built") is read from.

``--lifecycle`` runs three steps after each build, on one simulator, and
prints a second table: the state protocol to convergence, a seeded traffic
burst, then ``crash_restart_plan`` under the convergence auditor. Per size:

* ``converge_s`` / ``converged_ms`` — wall seconds to convergence and the
  simulated instant it was seen;
* one column per message kind delivered up to convergence, from the
  simulator's registry (what the run's ``ProtocolReport`` counts);
* ``events_per_s`` — every event the simulator processed over the three
  steps' wall time;
* ``requests_per_s`` — the burst's completed requests over its wall time;
* ``recover_s`` / ``recovery_ms`` — wall seconds of the audited crash and
  restart, and the simulated time from the fault's end to reconvergence;
* ``audit`` — whether every recovery check passed;
* ``peak_rss_mb`` — the subprocess's peak resident set, the steps included.

Each step's wall time is an in-tree span around it; nothing is patched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: table heads and the measured key each prints
COLUMNS = (
    ("n", "n"),
    ("build_s", "build_s"),
    ("topology", "construct.topology"),
    ("wire", "construct.topology.wire"),
    ("index", "construct.topology.index"),
    ("embedding", "construct.embedding"),
    ("landmarks", "construct.embedding.landmarks"),
    ("locate", "construct.embedding.locate"),
    ("converged", "converged"),
    ("capped", "capped_starts"),
    ("iterations", "locate_iterations"),
    ("problem_iterations", "problem_iterations"),
    ("capped_hosts", "capped_hosts"),
    ("services", "construct.services"),
    ("clustering", "construct.clustering"),
    ("mst_rounds", "mst_rounds"),
    ("mst_pairs", "mst_pairs"),
    ("borders", "construct.borders"),
    ("columnar", "construct.columnar"),
    ("rows", "rows"),
    ("rounds", "rounds"),
    ("rss_mb", "rss_mb"),
    ("digest", "digest"),
)


#: the lifecycle table's heads, each also its row key, around the message kinds
LIFECYCLE_HEAD = ("n", "converge_s", "converged_ms")
LIFECYCLE_TAIL = (
    "events_per_s", "requests_per_s", "recover_s", "recovery_ms", "audit", "peak_rss_mb"
)
#: the protocol's seed and cadence (``lifecycle_120``'s): every 2nd aggregate a full refresh
LIFECYCLE_SEED, REFRESH_EVERY = 11, 2


def lifecycle_once(framework: Any) -> Dict[str, Any]:
    """Converge, carry a traffic burst and recover from a crash on one simulator."""
    from repro.faults.auditor import _audited_protocol
    from repro.faults.scenarios import crash_restart_plan
    from repro.netsim.eventsim import Simulator
    from repro.state.protocol import StateDistributionProtocol
    from repro.telemetry import Telemetry
    from repro.traffic.arrivals import Poisson
    from repro.traffic.engine import TrafficConfig, TrafficEngine, traffic_proxy
    from repro.traffic.sessions import SessionConfig

    sim, tracer = Simulator(telemetry=Telemetry()), Telemetry().tracer
    protocol = StateDistributionProtocol(
        framework.hfc, seed=LIFECYCLE_SEED, refresh_every=REFRESH_EVERY, sim=sim
    )
    config = TrafficConfig(
        arrival=Poisson(rate=0.1),
        duration=2000.0,
        warmup=0.0,
        max_in_flight=100_000,
        session=SessionConfig(mean_lifetime=1500.0, mean_gap=300.0),
    )
    with tracer.span("lifecycle"):
        with tracer.span("lifecycle.converge"):
            report = protocol.run()
        converged = sim.telemetry.registry.values_by_label("sim.messages.delivered", "kind")
        with tracer.span("lifecycle.traffic"):
            engine = TrafficEngine(framework, config, sim=sim, seed=LIFECYCLE_SEED)
            engine.start()
            sim.run_until(sim.now + config.duration + config.drain)
            burst = engine.finish(publish=False)
        with tracer.span("lifecycle.recover"):
            plan = crash_restart_plan(framework.hfc, crash_at=sim.now + 500.0, downtime=1000.0)
            auditor = _audited_protocol(
                framework, plan, k_periods=3, protocol_seed=None,
                resolve=traffic_proxy, protocol=protocol,
            )
            scenario = auditor.audit(framework)
    (root,) = tracer.find_roots("lifecycle")
    wall = {span.name: span.duration for span in root.walk()}
    return {
        "converge_s": wall["lifecycle.converge"],
        "converged_ms": report.converged_at,
        "messages": converged,
        "events_per_s": sim.events_processed / wall["lifecycle"],
        "requests_per_s": burst.requests_completed / wall["lifecycle.traffic"],
        "recover_s": wall["lifecycle.recover"],
        "recovery_ms": scenario.recovery_time,
        "audit": scenario.passed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def build_once(n: int, lifecycle: bool = False) -> Dict[str, Any]:
    """Build at *n* in this process and measure it (then its lifecycle)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.framework import HFCFramework
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    start = perf_counter()
    framework = HFCFramework.build(proxy_count=n, seed=11, telemetry=telemetry)
    row: Dict[str, Any] = {"n": n, "build_s": perf_counter() - start}
    (root,) = telemetry.tracer.find_roots("construct")
    for span in root.walk():
        row[span.name] = span.duration
        if span.name == "construct.embedding.landmarks":
            row["converged"] = span.attributes["converged"]
            row["capped_starts"] = span.attributes["capped_starts"]
        if span.name == "construct.embedding.locate":
            row["locate_iterations"] = span.attributes["iterations"]
            row["problem_iterations"] = span.attributes["problem_iterations"]
            row["capped_hosts"] = span.attributes["capped"]
        if span.name == "construct.clustering":
            row["mst_rounds"] = span.attributes["mst_rounds"]
            row["mst_pairs"] = span.attributes["mst_pairs"]
    rounds = telemetry.registry.get("physical.relax_rounds")
    row["rows"] = telemetry.registry.total("physical.rows")
    row["rounds"] = int(rounds.max) if rounds is not None and rounds.count else 0
    row["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    columnar = framework.columnar
    digest = hashlib.sha256()
    for part in (
        columnar.coords,
        columnar.labels,
        columnar.border_matrix,
        framework.embedding_report.landmark_coordinates,
    ):
        digest.update(part.tobytes())
    row["digest"] = digest.hexdigest()[:16]
    if lifecycle:
        row["lifecycle"] = lifecycle_once(framework)
    return row


def cell(value: Any) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def render(rows: List[Dict[str, Any]]) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.report import ascii_table

    return ascii_table(
        [head for head, _ in COLUMNS],
        [[cell(row.get(key, 0.0)) for _, key in COLUMNS] for row in rows],
    )


def render_lifecycle(rows: List[Dict[str, Any]]) -> str:
    """The lifecycle steps' table: one row per size, one column per message kind."""
    from repro.experiments.report import ascii_table

    steps = [{"n": row["n"], **row["lifecycle"]} for row in rows]
    kinds = sorted({kind for step in steps for kind in step["messages"]})
    return ascii_table(
        [*LIFECYCLE_HEAD, *kinds, *LIFECYCLE_TAIL],
        [
            [cell(step[key]) for key in LIFECYCLE_HEAD]
            + [str(step["messages"].get(kind, 0)) for kind in kinds]
            + [cell(step[key]) for key in LIFECYCLE_TAIL]
            for step in steps
        ],
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sizes", nargs="+", type=int, help="overlay sizes n to build")
    parser.add_argument(
        "--lifecycle", action="store_true",
        help="after each build: converge, a traffic burst, an audited crash and restart",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(build_once(args.sizes[0], args.lifecycle)))
        return 0
    rows = []
    for n in args.sizes:
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(n), *(["--lifecycle"] if args.lifecycle else [])],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        rows.append(json.loads(done.stdout.splitlines()[-1]))
        print(f"n={n}: built in {rows[-1]['build_s']:.2f} s", file=sys.stderr)
    print(render(rows))
    if args.lifecycle:
        print(render_lifecycle(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
