"""Self-tests of the end-to-end benchmark, at its internal smoke scale.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/e2e/tests/selftest.py -q``.
The file is deliberately not named ``test_*.py``: ``make bench`` and the
tier-1 run must collect exactly what they collected before it existed.
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import metrics  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402

NAMES = [name for name, _why in metrics.WORKLOADS]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def runs():
    """Every workload once untraced and once traced, at smoke scale, seed 5."""
    bench.SETUP_REPEATS = 1
    return {
        (name, trace): bench.run_workload(name, 5, 0.2, trace, "smoke")
        for name in NAMES
        for trace in (False, True)
    }


def test_manifest_matches_declarations_and_contract_limits():
    root = os.path.dirname(os.path.dirname(os.path.dirname(HERE)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == metrics.manifest()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert committed["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in committed[key]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    for entry in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT_RE.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in committed["end_to_end"])
    setup = [e for e in committed["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def test_readme_names_every_metric_and_workload():
    with open(os.path.join(os.path.dirname(HERE), "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    declared = NAMES + [m[0] for m in metrics.END_TO_END] + [m[0] for m in metrics.PER_LAYER]
    assert [name for name in declared if f"`{name}`" not in readme] == []


@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_once(runs, name):
    for trace, declared in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER)):
        result, _digest = runs[(name, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert sorted(result["metrics"]) == sorted(entry[0] for entry in declared)
        units = {entry[0]: entry[1] for entry in declared}
        assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    end_to_end = runs[(name, False)][0]["metrics"]
    assert all(entry["value"] > 0 for entry in end_to_end.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_digests_agree(runs, name):
    # two separate runs of one seed: equal digests mean both "same seed,
    # same outputs" and "the wrappers changed no simulated value" (the
    # traced run also compares itself to its own untraced reference rounds)
    assert runs[(name, False)][1] == runs[(name, True)][1] != ""


@pytest.mark.parametrize("name", ["route_2k", "churn_2k"])
def test_another_seed_draws_other_inputs(runs, name):
    _result, digest = bench.run_workload(name, 6, 0.1, False, "smoke")
    assert digest != runs[(name, False)][1]


def test_layers_a_workload_never_enters_read_zero(runs):
    engine = runs[("engine_16k", True)][0]["metrics"]
    route = runs[("route_2k", True)][0]["metrics"]
    for metric in ("routing.hierarchical.csp_s", "coords.embedding.busy_s",
                   "state.protocol.receive_s", "membership.churn.join_ms_p50"):
        assert engine[metric]["value"] == 0
    for metric in ("netsim.eventsim.loop_self_s", "state.protocol.receive_s"):
        assert route[metric]["value"] == 0
    assert route["routing.hierarchical.csp_s"]["value"] > 0
    assert engine["netsim.eventsim.loop_self_s"]["value"] > 0


def test_trace_file_spans_nest_inside_their_parents(runs):
    path = os.path.join(os.path.dirname(HERE), "out", "lifecycle_120.trace.jsonl")
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    spans = {r["span"]: r for r in records if "span" in r}
    assert spans and any("boundary" in r for r in records)
    for span in spans.values():
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    assert {s["name"] for s in spans.values() if s["parent"] is None} <= {
        "root.setup", "root.round"
    }


def test_span_tree_arithmetic():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.event(lambda: None, "leaf")          # 1 tick
    middle = tracer.span(lambda: (leaf(), leaf()), "middle")   # 1 + 2*1 + gaps
    tracer.run_root("round:0", lambda: (middle(), leaf()))
    totals = tracer.drain()
    duration = {name: totals.busy(name) for name in ("root.round", "middle", "leaf")}
    # self = duration - children, for spans and accumulators alike
    assert totals.self_s("middle") == duration["middle"] - 2.0
    assert totals.self_s("root.round") == duration["root.round"] - duration["middle"] - 1.0
    assert totals.self_s("leaf") == duration["leaf"] == 3.0
    # the self times partition the root's duration
    assert totals.self_s("root.round", "middle", "leaf") == duration["root.round"]
    by_span = tracing.span_self_times(tracer.spans)
    (root,) = [s for s in tracer.spans if s[1] is None]
    assert sum(by_span.values()) == root[4] - root[3]
    assert tracer.drain().busy("root.round") == 0.0   # drained in place


def test_wrappers_are_fully_removed():
    import repro.core.framework as framework
    import repro.hierarchy.levels as levels
    import repro.netsim.shard as shard
    import repro.persistence as persistence
    import repro.routing.hierarchical as hierarchical
    from repro.faults.auditor import ConvergenceAuditor
    from repro.faults.injector import FaultInjector
    from repro.membership.churn import DynamicOverlay
    from repro.netsim.eventsim import Simulator
    from repro.netsim.physical import PhysicalNetwork
    from repro.routing.flat import FlatRouter
    from repro.state.columnar import ColumnarOverlayState
    from repro.state.protocol import StateDistributionProtocol
    from repro.traffic.shardload import _Relay

    owners = [framework, levels, shard, persistence, hierarchical, ConvergenceAuditor,
              FaultInjector, DynamicOverlay, Simulator, shard.ShardedSimulator,
              PhysicalNetwork, FlatRouter, ColumnarOverlayState,
              hierarchical.HierarchicalRouter, _Relay]

    def identities():
        return [{k: id(v) for k, v in vars(owner).items()} for owner in owners]

    before = identities()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert identities() != before
        # registering processes patches their classes' receive on the fly
        fixture = framework.HFCFramework.build(proxy_count=40, seed=3)
        protocol = StateDistributionProtocol(fixture.hfc, seed=1)
        protocol.sim.run_until(600.0)
        assert tracer.drain().hits("state.protocol.receive") > 0
    finally:
        tracer.unpatch_all()
    assert identities() == before
    receivers = {type(p) for p in protocol.sim._processes.values()}
    assert all("__wrapped__" not in vars(k.receive) and k.receive.__module__.startswith("repro.")
               for k in receivers)
