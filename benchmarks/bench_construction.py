"""Construction-pipeline bench — vectorized kernels vs the reference loops.

Times the full Section-3 construction (landmark embedding, MST clustering,
border selection) twice over the *same* workload: once through the batched
numpy kernels (the one production path) and once through the original
per-host / per-pair loops, kept as the test oracle
``tests.oracles.construction.construct_reference``. Each mode gets a fresh,
identically-seeded :class:`PhysicalNetwork` so Dijkstra caches and RNG
streams start from the same state — the comparison is code path only.

The two modes must produce identical clusters and identical border pairs
(the equivalence suite pins this property; the bench re-asserts it on the
benchmarked workload), so the speedup is a pure like-for-like number.

Results land in ``BENCH_construction.json`` at the repo root, keyed by
scale (``small`` for the CI smoke entry, ``full`` for the paper-scale
n=2000 entry); entries for the other scale are preserved on rewrite.
``scripts/check_bench_regression.py`` compares a fresh run of this bench
against the committed file and fails CI when the speedup ratio regresses
by more than its tolerance. The gate is on the dimensionless ratio, not
wall-clock, so it is portable across runner hardware.

Scale knobs: ``REPRO_SCALE=full`` runs n=2000 (the acceptance workload);
``REPRO_BENCH_PROXIES`` overrides n directly (the entry is then labelled
``custom`` and ignored by the regression gate).
"""

import json
import os
import time
from pathlib import Path

from repro.cluster.mstcluster import cluster_nodes
from repro.coords.embedding import build_coordinate_space
from repro.experiments import ascii_table
from repro.netsim import PhysicalNetwork, transit_stub
from repro.overlay.hfc import build_hfc
from repro.overlay.network import OverlayNetwork
from repro.services.catalog import scaled_catalog
from repro.services.placement import install_services
from tests.oracles.construction import construct_reference

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_construction.json"
SEED = 7
MODES = ("reference", "vectorized")


def _workload_size():
    override = os.environ.get("REPRO_BENCH_PROXIES")
    if override:
        return "custom", int(override)
    full = os.environ.get("REPRO_SCALE", "small").strip().lower()
    if full in ("full", "1", "1.0"):
        return "full", 2000
    return "small", 300


def _construct(topo, proxies, noise, vectorized):
    """One full construction pass; returns (clustering, borders, phase timings)."""
    # Fresh network per pass: empty delay cache, virgin noise stream.
    physical = PhysicalNetwork(topo, noise=noise, seed=SEED)
    if not vectorized:
        ref = construct_reference(physical, proxies, seed=SEED)
        return ref.clustering, ref.borders, ref.timings
    timings = {}

    start = time.perf_counter()
    space, report = build_coordinate_space(physical, proxies, seed=SEED)
    timings["embedding"] = time.perf_counter() - start

    start = time.perf_counter()
    clustering = cluster_nodes(space, proxies)
    timings["clustering"] = time.perf_counter() - start

    catalog = scaled_catalog(len(proxies))
    placement = install_services(
        proxies, catalog, max_per_proxy=min(10, len(catalog)), seed=SEED
    )
    overlay = OverlayNetwork(
        physical=physical, proxies=proxies, placement=placement, space=space
    )
    start = time.perf_counter()
    hfc = build_hfc(overlay, clustering)
    timings["borders"] = time.perf_counter() - start

    timings["total"] = sum(timings.values())
    return clustering, hfc.borders, timings


def _merge_result(scale, entry):
    """Rewrite BENCH_construction.json, preserving the other scales' entries."""
    existing = {}
    if RESULT_PATH.exists():
        existing = json.loads(RESULT_PATH.read_text()).get("entries", {})
    existing[scale] = entry
    snapshot = {
        "bench": "construction",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "entries": existing,
    }
    RESULT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")


def test_construction_speedup(benchmark, emit):
    scale, proxy_count = _workload_size()
    repeats = 1 if scale == "full" else 2
    topo = transit_stub(max(int(proxy_count * 1.2), 160), seed=SEED)
    seeder = PhysicalNetwork(topo, seed=SEED)
    proxies = seeder.pick_overlay_nodes(proxy_count, seed=SEED)

    def run():
        results, phase_best = {}, {}
        for mode in MODES:
            vectorized = mode == "vectorized"
            best = None
            for _ in range(repeats):
                clustering, borders, timings = _construct(
                    topo, proxies, 0.10, vectorized
                )
                if best is None or timings["total"] < best["total"]:
                    best = timings
            results[mode] = (clustering, borders)
            phase_best[mode] = best
        return results, phase_best

    results, phase_best = benchmark.pedantic(run, rounds=1, iterations=1)

    ref_cl, ref_borders = results["reference"]
    vec_cl, vec_borders = results["vectorized"]
    # Like-for-like: both modes build the exact same HFC topology.
    assert vec_cl.clusters == ref_cl.clusters
    assert vec_borders == ref_borders

    speedup = {
        phase: phase_best["reference"][phase] / phase_best["vectorized"][phase]
        for phase in ("embedding", "clustering", "borders", "total")
    }
    rows = [
        [
            phase,
            f"{phase_best['reference'][phase]:.3f}",
            f"{phase_best['vectorized'][phase]:.3f}",
            f"{speedup[phase]:.1f}x",
        ]
        for phase in ("embedding", "clustering", "borders", "total")
    ]
    emit(
        "construction_speedup",
        f"Construction pipeline — n={proxy_count} proxies, "
        f"{topo.graph.node_count} routers, {vec_cl.cluster_count} clusters\n"
        + ascii_table(
            ["phase", "reference (s)", "vectorized (s)", "speedup"], rows
        ),
    )

    entry = {
        "proxies": proxy_count,
        "routers": topo.graph.node_count,
        "clusters": vec_cl.cluster_count,
        "repeats": repeats,
        "reference_seconds": {
            k: round(v, 4) for k, v in phase_best["reference"].items()
        },
        "vectorized_seconds": {
            k: round(v, 4) for k, v in phase_best["vectorized"].items()
        },
        "speedup": {k: round(v, 2) for k, v in speedup.items()},
    }
    _merge_result(scale, entry)

    assert speedup["total"] > 1.0, (
        f"vectorized construction slower than reference ({speedup['total']:.2f}x)"
    )
    if scale == "full":
        # The PR's acceptance bar: >=5x end-to-end at n=2000.
        assert speedup["total"] >= 5.0, (
            f"full-scale construction speedup {speedup['total']:.2f}x < 5x"
        )
