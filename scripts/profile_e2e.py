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
  happened to allocate: the cyclic collector's own collections, seconds and
  objects freed per generation over the whole run, from a ``gc.callbacks``
  timer, and on a row of their own the explicit ``gc.collect()`` calls (the
  harness makes one before every round).

For ``route_2k`` two last rows. What one routed call costs before its
first request: a single route's stage means from the router's own spans,
over 125 singles of the workload's request set, the numpy and Python
calls it makes (:func:`count_calls`), averaged over 25 of them, and how many
of the CSP's and the conquer's kernel chunks were relaxed row by row. And
the warm 1,000-request batch in ms per 1,000 requests by stage — CSP kernel,
CSP rest, dissect, conquer kernel, conquer rest, compose, rest of the call —
from ``perf_counter`` around each stage, not the profiler
(:func:`batch_stage_row`): numpy operators and subscripts make no profile
event, so a profile cannot say which stage they slowed.

For ``churn_2k`` two last rows: a join by stage, from a second untraced run
of the workload outside the profiler (:func:`join_row`) — the mean µs of
measure, locate, nearest cluster and patch over the run's joins, the locate
figures from each join's own change record (``locate_ms``,
``locate_iterations``), and the locate's iterations and objective
evaluations per start, from a replay of the recorded measurements. And a
read by stage (:func:`read_row`): the view, the rebind by part, the query
tables' row caches, the first route of the block's requests and the same
requests routed again, medians over write blocks of the workload's script.

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
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

CONSTRUCTION_LAYERS = "repro/(coords|cluster|overlay|graph|netsim/(topology|physical))"
# coords and overlay too: a churn round's join is a landmark solve (coords) and
# a border patch (overlay), which no other round's stage split would show
ROUND_LAYERS = (
    "repro/(routing|services|membership|coords|overlay|state|traffic|faults"
    "|netsim/(eventsim|shard))"
)


class CollectionTimer:
    """Collections, seconds and objects freed per generation, via ``gc.callbacks``;
    the ones a ``gc.collect()`` call asked for (while :meth:`explicit` wraps it)
    on the last row."""

    def __init__(self) -> None:
        self.rows: List[List[float]] = [[0, 0.0, 0] for _ in range(4)]
        self._started = 0.0
        self._asked = False

    def explicit(self, collect: Callable[..., int]) -> Callable[..., int]:
        """*collect*, its collections counted apart from the program's own."""

        def asked(*args: Any, **kwargs: Any) -> int:
            self._asked = True
            try:
                return collect(*args, **kwargs)
            finally:
                self._asked = False

        return asked

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        row = self.rows[3 if self._asked else info["generation"]]
        row[0] += 1
        row[1] += perf_counter() - self._started
        row[2] += info["collected"]

    def report(self, wall: float) -> str:
        lines = [f"   {'generation':<12} {'collections':>12} {'seconds':>10} {'freed':>10}"]
        for generation, (count, seconds, freed) in zip((0, 1, 2, "gc.collect()"), self.rows):
            lines.append(f"   {generation:<12} {count:>12} {seconds:>10.3f} {freed:>10}")
        own = sum(row[1] for row in self.rows[:3])
        lines.append(f"   the program collecting {own:.3f} s of {wall:.3f} s ({own / wall:.1%})")
        return "\n".join(lines)


def count_calls(fn: Callable[[], Any]) -> Tuple[Any, int, int]:
    """``fn()``'s result, the numpy calls made from ``repro`` frames and the
    calls of ``repro`` functions (generator resumes included), under a profile
    hook. A numpy call is a numpy C function or array/ufunc method, or a
    numpy Python function (its ``*_dispatcher`` not counted apart); an
    operator, a subscript and a direct ufunc application make no event, so
    they are not counted."""
    numpy = python = 0

    def ours(frame: Any) -> bool:
        return "repro" in Path(frame.f_code.co_filename).parts

    def hook(frame: Any, event: str, arg: Any) -> None:
        nonlocal numpy, python
        if event == "c_call":
            owner = getattr(arg, "__module__", None) or type(getattr(arg, "__self__", None)).__module__
            numpy += owner.startswith("numpy") and ours(frame)
        elif event == "call":
            if ours(frame):
                python += 1
            elif "numpy" in Path(frame.f_code.co_filename).parts and not frame.f_code.co_name.endswith("_dispatcher"):
                numpy += frame.f_back is not None and ours(frame.f_back)

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, numpy, python


def route_fixture(scale: str) -> Dict[str, Any]:
    """``route_2k``'s overlay, router and requests, routed once (the query
    tables, provider index and destination rows built)."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from benchmarks.e2e.workloads import Route

    ctx = Route().setup(Route.params[scale], seed=11)
    ctx["router"].route_many_detailed(ctx["requests"])
    return ctx


def single_route_row(ctx: Dict[str, Any]) -> str:
    """One ``route_2k`` single route: stage means from its spans, calls per route."""
    from repro.telemetry import Telemetry

    router, requests = ctx["router"], ctx["requests"]
    router.telemetry = telemetry = Telemetry(span_capacity=len(requests))
    for request in requests[:125]:
        router.route(request)
    spans: Dict[str, List[float]] = {}
    # per kernel stage: its chunks, and those relaxed row by row
    chunks: Dict[str, List[int]] = {"route.csp": [0, 0], "route.conquer": [0, 0]}
    for root in telemetry.tracer.find_roots("route"):
        for span in (root, *root.children):
            spans.setdefault(span.name, []).append(span.duration * 1e6)
            if span.name in chunks:
                chunks[span.name][0] += span.attributes["chunks"]
                chunks[span.name][1] += span.attributes["row_chunks"]
    mean = {name: sum(values) / len(values) for name, values in spans.items()}
    calls = [count_calls(lambda: router.route(request))[1:] for request in requests[:25]]
    numpy, python = (sum(column) / len(calls) for column in zip(*calls))
    stages = " + ".join(f"{name[6:]} {mean[name]:.0f}" for name in mean if name != "route")
    n, singles = len(router.hfc.overlay.proxies), len(spans["route"])
    return (
        f"   route {mean['route']:.0f} µs, of which {stages} (span means over {singles} singles, n={n})\n"
        f"   {numpy:.1f} numpy calls and {python:.1f} Python calls per route\n"
        f"   kernel chunks relaxed row by row: "
        + ", ".join(f"{name[6:]} {rows} of {total}" for name, (total, rows) in chunks.items())
    )


def _timed_kernel(relax: Callable[..., Any], seconds: List[float]) -> Callable[..., Any]:
    """*relax*, the time spent inside each of its resumptions added to ``seconds[0]``."""

    def timed(*args: Any, **kwargs: Any) -> Any:
        rows = relax(*args, **kwargs)
        while True:
            t0 = perf_counter()
            try:
                row = next(rows)
            except StopIteration:
                seconds[0] += perf_counter() - t0
                return
            seconds[0] += perf_counter() - t0
            yield row

    return timed


def batch_stage_row(ctx: Dict[str, Any], batches: int = 10) -> str:
    """``route_2k``'s warm batch in ms per 1,000 requests by stage, the median
    over *batches* at reference host speed (the benchmark's ``HostSpeed``):
    each stage from the router's own span around it, the kernel inside the
    CSP stage and the conquer from ``perf_counter`` around each resumption of
    its ``relax``, the rest of the call from ``perf_counter`` around
    ``route_many_detailed``. Numpy operators and subscripts make no profile
    event, so only a clock around a stage sees them."""
    import repro.routing.batch as batch
    import repro.routing.hierarchical as hierarchical
    from benchmarks.e2e.workloads import HostSpeed

    from repro.telemetry import Telemetry

    router, requests, host = ctx["router"], ctx["requests"], HostSpeed()
    kernels = {"csp": [0.0], "conquer": [0.0]}
    patched = [(hierarchical, kernels["csp"]), (batch, kernels["conquer"])]
    originals = [module.relax for module, _ in patched]
    for module, seconds in patched:
        module.relax = _timed_kernel(module.relax, seconds)  # type: ignore[attr-defined]
    rows: List[Dict[str, float]] = []
    try:
        for _ in range(batches):
            router.telemetry = telemetry = Telemetry(span_capacity=1)
            kernels["csp"][0] = kernels["conquer"][0] = 0.0
            _, wall, slowdown = host.timed(lambda: router.route_many_detailed(requests))
            (root,) = telemetry.tracer.find_roots("route")
            spans = {span.name[6:]: span.duration for span in root.children}
            stages = {
                "csp kernel": kernels["csp"][0],
                "csp rest": spans["csp"] - kernels["csp"][0],
                "dissect": spans["dissect"],
                "conquer kernel": kernels["conquer"][0],
                "conquer rest": spans["conquer"] - kernels["conquer"][0],
                "compose": spans["compose"],
                "rest of the call": wall - sum(spans.values()),
            }
            # seconds of one batch -> ms per 1,000 requests at reference speed
            rows.append({name: value * 1e6 / len(requests) / slowdown for name, value in stages.items()})
    finally:
        for (module, _), original in zip(patched, originals):
            module.relax = original  # type: ignore[attr-defined]
    median = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    return (
        f"   {sum(median.values()):.1f} ms per 1,000 requests, the sum of each stage's median over "
        f"{batches} warm batches of {len(requests)} at reference host speed: "
        + ", ".join(f"{name} {value:.1f}" for name, value in median.items())
    )


def join_row(scale: str, seconds: float) -> str:
    """``churn_2k``'s joins by stage over one untraced run of the workload:
    ``perf_counter`` around a join, its landmark measurement and its nearest
    cluster (instance attributes of the run's overlay, so no module is
    touched); the locate less its measurement and the kept descent's
    iterations from the join's ``membership.join`` record; the patch is the
    rest of the join. The recorded measurements are then solved again with
    every start's descent counted."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import repro.coords.neldermead as neldermead
    from benchmarks.e2e.workloads import Churn, HostSpeed

    from repro.coords.embedding import solve_host
    from repro.telemetry import Telemetry

    workload = Churn()
    ctx = workload.setup(Churn.params[scale], seed=11)
    overlay = ctx["overlay"]
    overlay.telemetry = telemetry = Telemetry()
    physical = overlay.framework.physical
    joins: List[float] = []
    timed: Dict[str, List[float]] = {"measure": [], "nearest cluster": []}
    measured: List[Any] = []

    def clocked(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def run(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            timed[name].append(perf_counter() - t0)
            if name == "measure":
                measured.append(out[0])
            return out

        return run

    join = overlay.join

    def timed_join(*args: Any, **kwargs: Any) -> Any:
        t0 = perf_counter()
        try:
            return join(*args, **kwargs)
        finally:
            joins.append(perf_counter() - t0)

    overlay.join = timed_join
    physical.measure_many = clocked("measure", physical.measure_many)
    overlay._nearest_cluster = clocked("nearest cluster", overlay._nearest_cluster)
    try:
        workload.measure(ctx, seconds, HostSpeed())
    finally:
        for owner, name in ((overlay, "join"), (physical, "measure_many"), (overlay, "_nearest_cluster")):
            del owner.__dict__[name]
    records = telemetry.events.of_kind("membership.join")
    assert len(records) == len(joins) == len(timed["measure"]) == len(timed["nearest cluster"])
    count = len(joins)
    locate_ms = [record["locate_ms"] for record in records]
    stages = {
        "measure": sum(timed["measure"]) * 1e6,
        "locate": sum(locate_ms) * 1e3 - sum(timed["measure"]) * 1e6,
        "nearest cluster": sum(timed["nearest cluster"]) * 1e6,
        "patch": (sum(joins) - sum(timed["nearest cluster"])) * 1e6 - sum(locate_ms) * 1e3,
    }

    descents: List[Tuple[int, int]] = []  # a solve's two starts, in turn
    nelder_mead = neldermead.nelder_mead

    def counted(objective: Callable[..., float], x0: Any, **kwargs: Any) -> Any:
        calls = 0

        def counting(point: Any) -> float:
            nonlocal calls
            calls += 1
            return objective(point)

        result = nelder_mead(counting, x0, **kwargs)
        descents.append((result.iterations, calls))
        return result

    landmarks = overlay.framework.embedding_report.landmark_coordinates
    neldermead.nelder_mead = counted  # type: ignore[assignment]
    try:
        kept = [solve_host(landmarks, row).iterations for row in measured]
    finally:
        neldermead.nelder_mead = nelder_mead  # type: ignore[assignment]
    assert kept == [record["locate_iterations"] for record in records]
    per_start = [
        [sum(column) / count for column in zip(*descents[start::2])] for start in (0, 1)
    ]
    return (
        f"   join {sum(joins) * 1e6 / count:.0f} µs, of which "
        + ", ".join(f"{name} {total / count:.0f}" for name, total in stages.items())
        + f" (means over {count} joins, n={Churn.params[scale]['n']})\n"
        f"   locate: {sum(kept) / count:.1f} iterations in the kept descent (the change record); "
        f"per start (centroid, nearest landmark) {per_start[0][0]:.1f} / {per_start[1][0]:.1f} "
        f"iterations, {per_start[0][1]:.1f} / {per_start[1][1]:.1f} objective evaluations"
    )


def read_row(scale: str, blocks: int = 40) -> str:
    """``churn_2k``'s read by stage: the workload's write blocks and request draws
    from its set-up at seed 11, and per block ``perf_counter`` around the view
    (``overlay.hfc``), the rebind and inside it its parts — the provider entries,
    the query tables, the map index and the live-placement check, the functions
    of the rebind's own module — the tables' row caches a first route builds
    (``lists``, ``facing``, ``flat``), the first route and the same requests
    routed again; medians over the blocks after the first five, each at
    reference host speed (the benchmark's ``HostSpeed``, sampled per block).
    The write side of a read is its view, rebind and caches."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import repro.routing.hierarchical as hierarchical
    from benchmarks.e2e.workloads import Churn, HostSpeed

    from repro.routing.batch import query_tables

    params = Churn.params[scale]
    ctx = Churn().setup(params, seed=11)
    overlay, router, rng, free = ctx["overlay"], ctx["router"], ctx["rng"], ctx["free"]
    catalog, hosted, supply, host = ctx["catalog"], ctx["hosted"], ctx["supply"], HostSpeed()
    module = sys.modules[hierarchical.rebind_derived.__module__]
    parts = {"entries": "_move_members", "tables": "patch_query_tables", "map index": "offering_index",
             "live-placement check": "placement_capabilities"}
    spent = dict.fromkeys(parts, 0.0)
    originals = {name: getattr(module, name) for name in parts.values()}

    def clocked(part: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def run(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[part] += perf_counter() - t0

        return run

    rows: List[Dict[str, float]] = []
    for part, name in parts.items():
        setattr(module, name, clocked(part, originals[name]))
    try:
        for _ in range(blocks):
            for _ in range(params["block"]):  # the workload's write block
                if (rng.random() < 0.5 and free) or overlay.size <= 3:
                    joiner = free.pop()
                    services = frozenset(rng.sample(catalog, rng.randint(4, min(10, len(catalog)))))
                    overlay.join(joiner, services)
                    hosted[joiner] = services
                    supply.update(services)
                else:
                    proxy = rng.choice(overlay.proxies)
                    overlay.leave(proxy)
                    supply.subtract(hosted.pop(proxy))
                    free.insert(0, proxy)
            requests = Churn._requests(ctx, params["requests"])
            slowdown = host.sample()
            spent.update(dict.fromkeys(parts, 0.0))
            gc.collect()
            t0 = perf_counter()
            hfc = overlay.hfc
            t1 = perf_counter()
            router.rebind(hfc)
            t2 = perf_counter()
            tables = query_tables(hfc)
            tables.lists, tables.facing, tables.flat
            t3 = perf_counter()
            router.route_many_detailed(requests)
            t4 = perf_counter()
            router.route_many_detailed(requests)
            t5 = perf_counter()
            stages = {"view": t1 - t0, "rebind": t2 - t1, **spent, "table caches": t3 - t2,
                      "first route": t4 - t3, "routed again": t5 - t4}
            rows.append({name: value * 1e3 / slowdown for name, value in stages.items()})
    finally:
        for name, original in originals.items():
            setattr(module, name, original)
    median = {name: statistics.median(row[name] for row in rows[5:]) for name in rows[0]}
    write = median["view"] + median["rebind"] + median["table caches"]
    inside = ", ".join(f"{part} {median[part]:.2f}" for part in parts)
    return (
        f"   read {write + median['first route']:.2f} ms = view {median['view']:.2f} + rebind "
        f"{median['rebind']:.2f} ({inside}) + table caches {median['table caches']:.2f} + first route "
        f"{median['first route']:.2f}; the same requests again {median['routed again']:.2f}\n"
        f"   write side (view + rebind + table caches) {write:.2f} ms (medians over {len(rows) - 5} "
        f"blocks of {params['block']} moves and {params['requests']} requests, n={params['n']}, "
        f"reference host speed)"
    )


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
    collect, gc.collect = gc.collect, collections.explicit(gc.collect)
    started = perf_counter()
    try:
        profile.runcall(runpy.run_path, str(script), run_name="__main__")
    except SystemExit as done:
        if done.code:
            return int(done.code)
    finally:
        wall = perf_counter() - started
        gc.collect = collect
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
    if args.workload == "route_2k":
        print("== one routed call before its first request (untraced, outside the profiler)")
        ctx = route_fixture(args.scale)
        print(single_route_row(ctx))
        print("== the warm batch by stage (untraced, outside the profiler, perf_counter around each stage)")
        print(batch_stage_row(ctx))
    if args.workload == "churn_2k":
        print("== a join by stage (untraced, outside the profiler, perf_counter around each stage)")
        print(join_row(args.scale, args.seconds))
        print("== a read by stage (untraced, outside the profiler, perf_counter around each stage)")
        print(read_row(args.scale, 40 if args.scale == "full" else 8))
    return 0


if __name__ == "__main__":
    sys.exit(main())
