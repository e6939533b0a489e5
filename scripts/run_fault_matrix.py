#!/usr/bin/env python
"""CI fault-matrix smoke: seeded fault plans under the convergence auditor.

Builds a small framework, runs the named plans from
``repro.faults.standard_fault_matrix`` plus the hierarchy-aware
``super_border_crash`` scenario (crash the first top-level border proxy
of a depth-3 recursive hierarchy) and a script-local
``warm_crash_restart`` (the ``crash_restart`` crash, restored from the
victim's captured state plane instead of wiped), and fails (exit 1) if any
auditor check fails. The two crash plans also run through
``run_traffic_under_faults`` under a light Poisson load: both audits must
pass and both runners must report the same ``protocol.restarts`` and
``protocol.restarts.warm``. The super-border scenario additionally audits **per-level
aggregate reconvergence**: after the run, the depth-3 hierarchy's
``(level, group)`` capability aggregates must round-trip exactly through
the delta announcement machinery — i.e. every level of the stack agrees
with post-fault ground truth. Optionally writes each scenario's JSONL
audit trail (fault trace + check verdicts) for artifact upload.

Usage (the CI fault-matrix job / ``make fault-matrix``)::

    PYTHONPATH=src python scripts/run_fault_matrix.py \\
        --proxies 48 --audit-dir benchmarks/out
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.core import HFCFramework
from repro.faults import (
    FaultPlan,
    run_fault_scenario,
    standard_fault_matrix,
    super_border_crash_plan,
)
from repro.traffic import Poisson, TrafficConfig, run_traffic_under_faults

SMOKE_PLANS = (
    "loss_burst",
    "partition_heal",
    "crash_restart",
    "warm_crash_restart",
    "super_border_crash",
)

#: plans also run under load, whose runner must restart exactly as the plain one
BOTH_RUNNER_PLANS = ("crash_restart", "warm_crash_restart")

#: the counters the two runners must agree on
RESTART_COUNTERS = ("protocol.restarts", "protocol.restarts.warm")

#: plans that get the per-level aggregate reconvergence audit appended
HIERARCHY_PLANS = ("super_border_crash",)

#: hierarchy depth the super-border scenario and its audit build
HIERARCHY_DEPTH = 3


def per_level_reconvergence_check(framework, depth: int = HIERARCHY_DEPTH):
    """``(passed, detail)``: do per-level aggregates round-trip exactly?

    Builds a depth-*depth* hierarchy over the post-scenario topology
    (whose placement reflects the victim's rotated service set), announces
    every ``(level, group)`` aggregate through a fresh delta emitter, and
    reassembles it — the reconstructed view must equal ground truth at
    every level of the stack.
    """
    from repro.hierarchy.levels import build_levels
    from repro.state.delta import (
        DeltaAssembler,
        DeltaEmitter,
        announce_aggregates,
        assemble_aggregates,
    )

    hierarchy = build_levels(framework.hfc, depth)
    truth = hierarchy.aggregates()
    announcements = announce_aggregates(DeltaEmitter(), truth)
    view = assemble_aggregates(DeltaAssembler(), announcements)
    if view == truth:
        per_level: dict = {}
        for (level, _), _services in truth.items():
            per_level[level] = per_level.get(level, 0) + 1
        counts = ", ".join(
            f"L{level}:{count}" for level, count in sorted(per_level.items())
        )
        return True, f"{len(truth)} aggregates reconverged ({counts})"
    bad = sorted(
        key for key in set(truth) | set(view) if truth.get(key) != view.get(key)
    )
    return False, f"{len(bad)} stale aggregate stream(s): {bad[:5]}"


def warm_crash_restart_plan(crash_restart: FaultPlan) -> FaultPlan:
    """*crash_restart*'s crash, restarted warm: the victim's state plane is
    captured at the crash and restored, not wiped.

    Script-local on purpose, like the super-border plan's audit: the
    ``fault_matrix`` study iterates ``standard_fault_matrix``.
    """
    spec = crash_restart.crash_specs()[0]
    return FaultPlan(seed=crash_restart.seed, specs=(replace(spec, warm_restart=True),))


def traffic_runner_check(framework, plan, plain, k_periods: int):
    """``(passed, detail)``: does the traffic runner audit *plan* as
    *plain* (the ``run_fault_scenario`` result) did, restarts included?"""
    config = TrafficConfig(arrival=Poisson(rate=0.01), duration=4000.0, warmup=500.0)
    loaded = run_traffic_under_faults(framework, plan, config=config, k_periods=k_periods)
    counters = [
        (name, plain.counters[name], loaded.scenario.counters[name]) for name in RESTART_COUNTERS
    ]
    agree = all(a == b for _, a, b in counters)
    detail = ", ".join(f"{name} {a}/{b}" for name, a, b in counters)
    failed = [c.name for c in loaded.scenario.failures()]
    verdict = f"audit failed: {failed}" if failed else f"continuity {loaded.fault_continuity:.2f}"
    return loaded.passed and agree, f"{verdict}; plain/loaded {detail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--proxies", type=int, default=48)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--k-periods",
        type=int,
        default=3,
        help="reconvergence budget in protocol refresh periods",
    )
    parser.add_argument(
        "--plans",
        default=",".join(SMOKE_PLANS),
        help="comma-separated plan names ('all' = the whole matrix)",
    )
    parser.add_argument(
        "--audit-dir",
        type=Path,
        default=None,
        help="write <plan>.audit.jsonl trails into this directory",
    )
    args = parser.parse_args(argv)

    framework = HFCFramework.build(proxy_count=args.proxies, seed=args.seed)
    matrix = dict(standard_fault_matrix(framework.hfc))
    matrix["warm_crash_restart"] = warm_crash_restart_plan(matrix["crash_restart"])
    matrix["super_border_crash"] = super_border_crash_plan(
        framework.hfc, depth=HIERARCHY_DEPTH
    )
    if args.plans.strip().lower() != "all":
        wanted = [name.strip() for name in args.plans.split(",") if name.strip()]
        unknown = sorted(set(wanted) - set(matrix))
        if unknown:
            sys.exit(f"error: unknown plan(s) {unknown}; have {sorted(matrix)}")
        matrix = {name: matrix[name] for name in wanted}

    failures = []
    for name, plan in matrix.items():
        result = run_fault_scenario(framework, plan, k_periods=args.k_periods)
        print(f"{name:18s} {result.summary()}")
        for check in result.checks:
            mark = "ok " if check.passed else "FAIL"
            print(f"    [{mark}] {check.name}: {check.detail}")
        plan_failed = not result.passed
        if name in HIERARCHY_PLANS:
            passed, detail = per_level_reconvergence_check(framework)
            mark = "ok " if passed else "FAIL"
            print(f"    [{mark}] per_level_aggregates: {detail}")
            plan_failed = plan_failed or not passed
        if name in BOTH_RUNNER_PLANS:
            passed, detail = traffic_runner_check(framework, plan, result, args.k_periods)
            mark = "ok " if passed else "FAIL"
            print(f"    [{mark}] traffic_runner: {detail}")
            plan_failed = plan_failed or not passed
        if args.audit_dir is not None:
            args.audit_dir.mkdir(parents=True, exist_ok=True)
            path = args.audit_dir / f"{name}.audit.jsonl"
            entries = result.dump_jsonl(str(path))
            print(f"    audit trail: {path} ({entries} entries)")
        if plan_failed:
            failures.append(name)

    if failures:
        print(f"\nFAIL: auditor rejected: {', '.join(failures)}")
        return 1
    print(f"\nfault matrix passed ({len(matrix)} plans, n={args.proxies})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
