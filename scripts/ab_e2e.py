#!/usr/bin/env python
"""Alternating A/B of the end-to-end benchmark: a reference commit vs this checkout.

    python scripts/ab_e2e.py <ref> [--workload W ...] [--pairs 10] [--seed 11] [--record FILE]
    make ab REF=<ref> [W=<workload>] [PAIRS=10] [RECORD=benchmarks/history.jsonl]

*ref* is checked out into a temporary ``git worktree`` (removed afterwards);
a *ref* that names a directory is measured as the checkout it is. Each pair
runs ``BENCHMARK.json``'s command with ``--trace 0`` once per side, from that
side's own copy of the harness, and the side that goes first alternates from
pair to pair. Per (workload, end-to-end metric) the table gives each side's
median and quartiles, the change's median over the reference's, the pairs the
change won (ties count for neither) and a verdict:

* ``gain``       over at least ten pairs, the change won at least 9 in 10 and its
                 median beats the reference's by more than the reference's own
                 inter-quartile spread (the rule a claimed improvement has to meet);
* ``ok``         the change's median is no worse than the reference's by more
                 than the metric's ``BENCHMARK.json`` bound;
* ``unresolved`` as ``ok``, but the reference's runs spread wider than the bound;
* ``WORSE``      the change's median is worse by more than the bound.

Exit status 1 if any metric is ``WORSE``, a run was incorrect, or the two
sides' ``sim_digest`` differ. Nothing under ``benchmarks/e2e`` is edited.

``--record FILE`` appends the comparison to *FILE* as one JSON line: when,
both sides' commit ids (``dirty`` when the checkout has uncommitted changes),
seed, pairs, and per workload whether the digests matched, the failed count
and per end-to-end metric both sides' ``[q1, median, q3]``, the pairs won and
the verdict. ``benchmarks/history.jsonl`` is the committed trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def run_once(root: Path, manifest: Dict[str, Any], workload: str, seed: int) -> Dict[str, Any]:
    """One untraced run of *workload* in the checkout at *root*."""
    command = [
        *manifest["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"ab_e2e: {workload} failed in {root}")
    result = json.loads(lines[-1])
    result["sim_digest"] = next(
        (line.split()[1] for line in lines if line.startswith("sim_digest ")), ""
    )
    return result


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(ref: List[float], new: List[float], better: str, bound: float) -> Tuple[int, str]:
    """Pairs the change won, and which of the four verdicts applies."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (b - a) > 0 for a, b in zip(ref, new))
    lost = sum(sign * (b - a) < 0 for a, b in zip(ref, new))
    q1, ref_median, q3 = quartiles(ref)
    new_median = quartiles(new)[1]
    gain = sign * (new_median - ref_median)
    if len(ref) >= 10 and won >= 0.9 * (won + lost) and gain > q3 - q1:
        return won, "gain"
    if ref_median and -gain / abs(ref_median) > bound:
        return won, "WORSE"
    if ref_median and (q3 - q1) / abs(ref_median) > bound:
        return won, "unresolved"
    return won, "ok"


def commit_of(root: Path) -> Dict[str, Any]:
    """The commit checked out at *root* and whether the tree differs from it."""
    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    return {"commit": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain"))}


def compare(
    ref_root: Path, manifest: Dict[str, Any], workloads: List[str], pairs: int, seed: int
) -> Tuple[bool, Dict[str, Any]]:
    """Run the pairs and print the table; whether nothing broke, and the table as data."""
    fine = True
    table: Dict[str, Any] = {}
    for workload in workloads:
        runs: Dict[str, List[Dict[str, Any]]] = {"ref": [], "new": []}
        for pair in range(pairs):
            order = ("ref", "new") if pair % 2 == 0 else ("new", "ref")
            for side in order:
                root = ref_root if side == "ref" else ROOT
                runs[side].append(run_once(root, manifest, workload, seed))
            print(f"  {workload} pair {pair + 1}/{pairs} done", file=sys.stderr)
        every = runs["ref"] + runs["new"]
        digests = {run["sim_digest"] for run in every}
        failed = sum(run["failed"] for run in every)
        if len(digests) != 1 or failed or not all(run["correct"] for run in every):
            fine = False
        print(
            f"== {workload}: {pairs} pairs, seed {seed}, failed {failed}, "
            f"sim_digest {'equal' if len(digests) == 1 else 'DIFFERS'}"
        )
        print(
            f"   {'metric':<12} {'ref median [q1, q3]':>34} {'change median [q1, q3]':>34} "
            f"{'ratio':>6} {'won':>5}  verdict"
        )
        rows: Dict[str, Any] = {}
        table[workload] = {"digests_equal": len(digests) == 1, "failed": failed, "metrics": rows}
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            ref = [run["metrics"][name]["value"] for run in runs["ref"]]
            new = [run["metrics"][name]["value"] for run in runs["new"]]
            won, word = verdict(ref, new, metric["better"], metric["bound"])
            (r1, r2, r3), (n1, n2, n3) = quartiles(ref), quartiles(new)
            ratio = n2 / r2 if r2 else float("nan")
            print(
                f"   {name:<12} {f'{r2:.5g} [{r1:.5g}, {r3:.5g}]':>34} "
                f"{f'{n2:.5g} [{n1:.5g}, {n3:.5g}]':>34} {ratio:>6.3f} {won:>2}/{pairs:<2}  "
                f"{word} (bound {metric['bound']:.2f})"
            )
            fine = fine and word != "WORSE"
            rows[name] = {
                "ref": [r1, r2, r3], "change": [n1, n2, n3], "won": won, "verdict": word,
            }
    return fine, table


def main(argv: List[str] | None = None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the reference: a commit, or a directory holding a checkout")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--record", metavar="FILE", help="append the comparison as one JSON line")
    args = parser.parse_args(argv)
    workloads = args.workload or names

    def measured(ref_root: Path) -> bool:
        fine, table = compare(ref_root, manifest, workloads, args.pairs, args.seed)
        if args.record:
            row = {
                "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "ref": commit_of(ref_root),
                "change": commit_of(ROOT),
                "seed": args.seed,
                "pairs": args.pairs,
                "workloads": table,
            }
            with open(args.record, "a", encoding="utf-8") as history:
                history.write(json.dumps(row, sort_keys=True) + "\n")
        return fine

    if Path(args.ref).is_dir():
        return 0 if measured(Path(args.ref).resolve()) else 1
    with tempfile.TemporaryDirectory(prefix="ab_e2e.") as scratch:
        tree = Path(scratch) / "ref"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), args.ref],
            cwd=ROOT, check=True, capture_output=True,
        )
        try:
            fine = measured(tree)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=True
            )
    return 0 if fine else 1


if __name__ == "__main__":
    sys.exit(main())
