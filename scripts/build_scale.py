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
from typing import Any, Dict, List

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


def build_once(n: int) -> Dict[str, Any]:
    """Build at *n* in this process and measure it."""
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
    return row


def render(rows: List[Dict[str, Any]]) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.report import ascii_table

    def cell(value: Any) -> str:
        return f"{value:.3f}" if isinstance(value, float) else str(value)

    return ascii_table(
        [head for head, _ in COLUMNS],
        [[cell(row.get(key, 0.0)) for _, key in COLUMNS] for row in rows],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sizes", nargs="+", type=int, help="overlay sizes n to build")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(build_once(args.sizes[0])))
        return 0
    rows = []
    for n in args.sizes:
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(n)],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        rows.append(json.loads(done.stdout.splitlines()[-1]))
        print(f"n={n}: built in {rows[-1]['build_s']:.2f} s", file=sys.stderr)
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
