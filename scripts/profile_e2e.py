#!/usr/bin/env python
"""Where a workload's time goes: one untraced run of the end-to-end benchmark under cProfile.

    python scripts/profile_e2e.py [--workload engine_16k] [--seconds 5] [--scale full|smoke]
    make profile [W=<workload>]

Prints, after the run's own summary:

* the top 30 functions by own time over the whole run (set-up and the
  harness's calibration kernel included);
* the measured rounds' stage split: the top 30 by cumulative time among the
  layers a round runs (routing, services, membership with the coords and
  overlay kernels a join calls, state, traffic, faults, the event engine),
  which leaves most of the fixture build out — except for
  ``construct_2k``, whose rounds *are* the build: there, the construction
  layers;
* what cProfile cannot see — a collection's time lands on whichever frame
  happened to allocate: the cyclic collector's collections, seconds and
  objects freed per generation over the whole run (the harness's own
  ``gc.collect()`` before every round included), from a ``gc.callbacks`` timer.

The dump lands in ``benchmarks/out/<workload>.pstats`` (git-ignored).
``--scale smoke`` is for CI: it proves the script runs, its numbers mean nothing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import runpy
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent

CONSTRUCTION_LAYERS = "repro/(coords|cluster|overlay|graph|netsim/(topology|physical))"
# coords and overlay too: a churn round's join is a landmark solve (coords) and
# a border patch (overlay), which no other round's stage split would show
ROUND_LAYERS = (
    "repro/(routing|services|membership|coords|overlay|state|traffic|faults"
    "|netsim/(eventsim|shard))"
)


class CollectionTimer:
    """Collections, seconds and objects freed per generation, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.generations: List[List[float]] = [[0, 0.0, 0] for _ in range(3)]
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        row = self.generations[info["generation"]]
        row[0] += 1
        row[1] += perf_counter() - self._started
        row[2] += info["collected"]

    def report(self, wall: float) -> str:
        lines = [f"   {'generation':<12} {'collections':>12} {'seconds':>10} {'freed':>10}"]
        for generation, (count, seconds, freed) in enumerate(self.generations):
            lines.append(f"   {generation:<12} {count:>12} {seconds:>10.3f} {freed:>10}")
        spent = sum(row[1] for row in self.generations)
        lines.append(f"   collecting {spent:.3f} s of {wall:.3f} s ({spent / wall:.1%})")
        return "\n".join(lines)


def main(argv: List[str] | None = None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="engine_16k",
                        choices=[workload["name"] for workload in manifest["workloads"]])
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    script = ROOT / manifest["command"][-1]
    sys.argv = [
        str(script), "--workload", args.workload, "--seconds", str(args.seconds),
        "--scale", args.scale, "--trace", "0",
    ]
    collections = CollectionTimer()
    profile = cProfile.Profile()
    gc.callbacks.append(collections)
    started = perf_counter()
    try:
        profile.runcall(runpy.run_path, str(script), run_name="__main__")
    except SystemExit as done:
        if done.code:
            return int(done.code)
    finally:
        wall = perf_counter() - started
        gc.callbacks.remove(collections)

    out = ROOT / "benchmarks" / "out"
    out.mkdir(parents=True, exist_ok=True)
    profile.dump_stats(out / f"{args.workload}.pstats")
    stats = pstats.Stats(profile)
    stats.sort_stats("tottime").print_stats(30)
    layers = CONSTRUCTION_LAYERS if args.workload == "construct_2k" else ROUND_LAYERS
    stats.sort_stats("cumtime").print_stats(layers, 30)
    print("== the cyclic collector over the whole run (under the profiler)")
    print(collections.report(wall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
