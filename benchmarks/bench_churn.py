"""Churn bench — incremental maintenance vs full rebuild, delta vs full state.

Two extension benches around the dynamic-membership machinery:

* ``test_churn_quality_with_and_without_restructuring`` — the original E1
  quality study (restructuring policy vs clustering quality).
* ``test_incremental_churn_speedup`` — the incremental-overlay acceptance
  bench. One pre-scripted join/leave workload (coordinates measured once,
  outside the timed region) is replayed twice on identically built
  overlays: once with ``incremental=False`` (every event rebuilds borders
  from scratch) and once with ``incremental=True`` (only the touched
  cluster is patched). Both replicas must end bit-identical — the speedup
  is a pure like-for-like number. The same test also runs the Section-4
  state protocol with every announcement a full snapshot
  (``refresh_every=1``, the re-flood baseline) and at the default delta
  cadence over the same topology and seed, comparing total bytes at a
  fixed steady-state horizon.

Results land in ``BENCH_churn.json`` at the repo root, keyed by scale
(``small`` for the CI smoke entry, ``full`` for the paper-scale n=1000
entry); entries for the other scale are preserved on rewrite.
``scripts/check_bench_regression.py --metric maintenance --metric
state_bytes`` gates the two dimensionless ratios against the committed
baseline. ``REPRO_SCALE=full`` runs the acceptance workload (n=1000,
200 events, >=5x maintenance speedup, >=2x byte savings).
"""

import json
import os
import time
from pathlib import Path

from repro.core import HFCFramework
from repro.experiments import ascii_table, scaled_table1
from repro.membership import DynamicOverlay, run_churn_session
from repro.state.protocol import StateDistributionProtocol
from repro.util.rng import ensure_rng

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_churn.json"
SEED = 7


def _workload():
    """(scale, proxies, events, protocol_proxies) for the current scale."""
    full = os.environ.get("REPRO_SCALE", "small").strip().lower()
    if full in ("full", "1", "1.0"):
        return "full", 1000, 200, 200
    return "small", 250, 80, 120


def _script_events(framework, events, seed):
    """Pre-script a churn workload with coordinates measured up front.

    Joins are located once here (one cached-Dijkstra batch per landmark)
    and replayed by coordinates, so the timed comparison below measures
    pure topology maintenance, not measurement.
    """
    rng = ensure_rng(seed)
    probe = DynamicOverlay(
        framework, restructure_tolerance=None, track_quality=False
    )
    catalog = list(framework.catalog.names)
    free = [
        s
        for s in framework.physical.topology.stub_nodes
        if not probe.is_member(s)
    ]
    rng.shuffle(free)
    script = []
    for _ in range(events):
        if (rng.random() < 0.5 and free) or probe.size <= 3:
            router = free.pop()
            services = frozenset(
                rng.sample(catalog, rng.randint(4, min(10, len(catalog))))
            )
            coords = probe.locate(router)
            probe.join(router, services, coords=coords)
            script.append(("join", router, services, coords))
        else:
            proxy = rng.choice(probe.proxies)
            probe.leave(proxy)
            script.append(("leave", proxy, None, None))
    return script


def _replay(framework, script, incremental):
    """Replay *script* on a fresh overlay; returns (overlay, seconds)."""
    start = time.perf_counter()
    dyn = DynamicOverlay(
        framework,
        restructure_tolerance=None,
        track_quality=False,
        incremental=incremental,
    )
    for kind, target, services, coords in script:
        if kind == "join":
            dyn.join(target, services, coords=coords)
        else:
            dyn.leave(target)
    return dyn, time.perf_counter() - start


def _protocol_bytes(framework, horizon=12000.0, **cadence):
    """Total protocol bytes at a fixed steady-state horizon."""
    protocol = StateDistributionProtocol(framework.hfc, seed=SEED, **cadence)
    report = protocol.run(max_time=horizon, stop_on_convergence=False)
    assert report.converged_at is not None, f"{cadence or 'default'} did not converge"
    return report


def _merge_result(scale, entry):
    """Rewrite BENCH_churn.json, preserving the other scales' entries."""
    existing = {}
    if RESULT_PATH.exists():
        existing = json.loads(RESULT_PATH.read_text()).get("entries", {})
    existing[scale] = entry
    snapshot = {
        "bench": "churn",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "entries": existing,
    }
    RESULT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")


def test_incremental_churn_speedup(benchmark, emit):
    scale, proxy_count, events, protocol_proxies = _workload()
    framework = HFCFramework.build(proxy_count=proxy_count, seed=SEED)
    script = _script_events(framework, events, seed=SEED + 1)
    state_framework = (
        framework
        if proxy_count == protocol_proxies
        else HFCFramework.build(proxy_count=protocol_proxies, seed=SEED)
    )

    def run():
        full_dyn, full_seconds = _replay(framework, script, incremental=False)
        inc_dyn, inc_seconds = _replay(framework, script, incremental=True)
        full_report = _protocol_bytes(state_framework, refresh_every=1)
        delta_report = _protocol_bytes(state_framework)
        return full_dyn, full_seconds, inc_dyn, inc_seconds, full_report, delta_report

    full_dyn, full_seconds, inc_dyn, inc_seconds, full_report, delta_report = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    # Like-for-like: the patched overlay is the rebuilt overlay.
    assert inc_dyn.clustering.labels == full_dyn.clustering.labels
    assert inc_dyn.clustering.clusters == full_dyn.clustering.clusters
    assert inc_dyn.hfc.borders == full_dyn.hfc.borders

    maintenance = full_seconds / inc_seconds
    bytes_ratio = full_report.total_size / delta_report.total_size
    emit(
        "churn_speedup",
        f"Incremental overlay maintenance — n={proxy_count}, {events} events; "
        f"state protocol at n={protocol_proxies}\n"
        + ascii_table(
            ["metric", "full", "incremental", "ratio"],
            [
                [
                    "maintenance (s)",
                    f"{full_seconds:.3f}",
                    f"{inc_seconds:.3f}",
                    f"{maintenance:.1f}x",
                ],
                [
                    "events/s",
                    f"{events / full_seconds:.1f}",
                    f"{events / inc_seconds:.1f}",
                    f"{maintenance:.1f}x",
                ],
                [
                    "protocol bytes",
                    f"{full_report.total_size}",
                    f"{delta_report.total_size}",
                    f"{bytes_ratio:.1f}x",
                ],
            ],
        ),
    )

    entry = {
        "proxies": proxy_count,
        "events": events,
        "protocol_proxies": protocol_proxies,
        "full_seconds": round(full_seconds, 4),
        "incremental_seconds": round(inc_seconds, 4),
        "events_per_second": round(events / inc_seconds, 1),
        "bytes_full": full_report.total_size,
        "bytes_delta": delta_report.total_size,
        "speedup": {
            "total": round(maintenance, 2),
            "maintenance": round(maintenance, 2),
            "state_bytes": round(bytes_ratio, 2),
        },
    }
    _merge_result(scale, entry)

    assert bytes_ratio >= 2.0, (
        f"delta protocol saved only {bytes_ratio:.2f}x bytes (< 2x)"
    )
    if scale == "full":
        # The PR's acceptance bar: >=5x join/leave throughput at n=1000.
        assert maintenance >= 5.0, (
            f"full-scale incremental speedup {maintenance:.2f}x < 5x"
        )
    else:
        assert maintenance > 1.0, (
            f"incremental maintenance slower than rebuild ({maintenance:.2f}x)"
        )


def test_churn_quality_with_and_without_restructuring(benchmark, emit):
    spec = scaled_table1()[0]

    def run():
        rows = []
        for label, tolerance in (("no restructuring", None), ("tolerance 0.7", 0.7)):
            framework = HFCFramework.build(
                proxy_count=spec.proxies, seed=401,
            )
            dyn = run_churn_session(
                framework, events=40, seed=402, restructure_tolerance=tolerance
            )
            restructures = sum(1 for e in dyn.history if e.kind == "restructure")
            rows.append(
                [
                    label,
                    dyn.size,
                    dyn.clustering.cluster_count,
                    restructures,
                    dyn.quality(),
                    dyn.fresh_quality(),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "churn",
        "E1 — churn (40 events): clustering quality vs restructuring policy\n"
        + ascii_table(
            ["policy", "size", "clusters", "restructures",
             "quality", "fresh quality"],
            rows,
        ),
    )
