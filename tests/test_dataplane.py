"""The traffic engine's data plane: hop-by-hop delivery, crash losses, repair.

A flow crosses its path one ``traffic_data`` message per hop; a proxy that
crashes for good kills every flow reaching it as a counted drop. With
``TrafficConfig.repair`` set, a flow still incomplete that long past its
nominal delay is re-resolved once through the engine's router — around the
victim once :func:`~repro.traffic.scenarios.run_traffic_under_crash` has
let it leave the membership view and rebound the router.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import HierarchicalRouter, validate_path
from repro.telemetry import Telemetry, use_telemetry
from repro.traffic import Poisson, SessionConfig, TrafficConfig, TrafficEngine
from repro.traffic.measure import RequestRecord
from repro.traffic.scenarios import run_traffic_under_crash

FAIL_AT = 500.0
LOAD = TrafficConfig(
    arrival=Poisson(rate=0.06),
    duration=2_000.0,
    warmup=0.0,
    drain=1_500.0,
    session=SessionConfig(mean_lifetime=1_000.0, mean_gap=200.0),
)
POLICIES = {"no recovery": None, "reroute": 150.0}


def busiest_relay(framework):
    """The mid-path service proxy most routed requests cross."""
    router = HierarchicalRouter(framework.hfc)
    counts = Counter()
    for seed in range(100):
        request = framework.random_request(seed=seed)
        ends = (request.source_proxy, request.destination_proxy)
        for hop in router.route(request).service_hops():
            if hop.proxy not in ends:
                counts[hop.proxy] += 1
    return counts.most_common(1)[0][0]


def crash_run(framework, victim, config, *, fail_at=FAIL_AT, seed=3, sim=None):
    """``run_traffic_under_crash`` plus every (record, request, path, is_retry)
    dispatched."""
    dispatched = []
    original = TrafficEngine._dispatch

    def spy(self, record, request, path):
        dispatched.append((record, request, path, record.repaired_at is not None))
        original(self, record, request, path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TrafficEngine, "_dispatch", spy)
        engine = run_traffic_under_crash(
            framework, victim, fail_at=fail_at, config=config, seed=seed, sim=sim
        )
    return engine, dispatched


@pytest.fixture(scope="module")
def victim(framework):
    return busiest_relay(framework)


@pytest.fixture(scope="module")
def runs(framework, victim):
    return {
        policy: crash_run(framework, victim, replace(LOAD, repair=repair))
        for policy, repair in POLICIES.items()
    }


@pytest.fixture(scope="module")
def routed(framework):
    request = framework.random_request(seed=81)
    return request, HierarchicalRouter(framework.hfc).route(request)


def endpoints(engine):
    return {
        entry["req"]: (entry["source"], entry["destination"])
        for entry in engine.trace
        if entry["event"] == "request"
    }


class TestHealthySession:
    def test_all_packets_delivered(self, framework):
        quiet = replace(LOAD, arrival=Poisson(rate=0.005), repair=50.0)
        engine = TrafficEngine(framework, quiet, seed=2)
        report = engine.run()
        assert report.requests_offered > 0
        assert report.requests_completed == report.requests_offered
        assert engine.sim.telemetry.registry.total("traffic.repaired") == 0

    def test_latency_equals_nominal(self, framework, routed):
        """At zero load a flow takes its nominal delay, dispatch to completion;
        its repair deadline, later, finds it done."""
        request, path = routed
        engine = TrafficEngine(framework, TrafficConfig(repair=10.0))
        record = RequestRecord(rid=0, session=0, issued_at=0.0)
        engine.collector.request(record)
        engine._dispatch(record, request, path)
        engine.sim.run_all()
        assert record.completed_at == pytest.approx(engine._nominal_delay(path))
        assert record.repaired_at is None and not engine._pending

    def test_nominal_latency_includes_processing(self, framework, routed):
        _, path = routed
        slow = TrafficEngine(framework, TrafficConfig(service_time=5.0))
        free = TrafficEngine(framework, TrafficConfig(service_time=0.0))
        assert slow._nominal_delay(path) == pytest.approx(
            free._nominal_delay(path) + 5.0 * len(path.service_hops())
        )


class TestFailureWithoutRecovery:
    def test_packets_after_failure_lost(self, runs):
        engine, _ = runs["no recovery"]
        records = engine.collector.records
        lost = [r for r in records if r.completed_at is None]
        assert lost and engine.report.requests_lost == len(lost)
        # every lost request was issued around/after the crash
        longest = max(r.sojourn for r in records if r.completed_at is not None)
        assert min(r.issued_at for r in lost) >= FAIL_AT - longest

    def test_failure_before_start_loses_everything(self, framework, victim):
        engine, dispatched = crash_run(framework, victim, LOAD, fail_at=0.0)
        through = [r for r, _, path, _ in dispatched if victim in path.proxies()]
        assert through and all(r.completed_at is None for r in through)

    def test_every_lost_packet_is_a_counted_drop(self, runs):
        """A crash is a fault-layer crash: the flows it kills are in the
        simulator's ledger, one intercepted message each."""
        engine, _ = runs["no recovery"]
        lost = engine.report.requests_lost
        ledger = engine.sim.conservation()
        assert ledger["balanced"] and ledger["pending"] == 0
        assert 0 < lost == ledger["dropped"]
        dropped = engine.sim.telemetry.registry.values_by_label("sim.messages.dropped", "cause")
        assert dropped == {"intercepted": lost}


class TestFailureWithRecovery:
    def test_session_recovers(self, runs, victim):
        engine, dispatched = runs["reroute"]
        repaired = [(r, path) for r, _, path, retry in dispatched if retry]
        assert repaired
        for record, path in repaired:
            assert record.completed_at is not None
            assert victim not in path.proxies()
        completed = {p: runs[p][0].report.requests_completed for p in POLICIES}
        assert completed["reroute"] > completed["no recovery"]

    def test_recovered_path_still_answers_request(self, runs, framework):
        _, dispatched = runs["reroute"]
        repaired = [(req, path) for _, req, path, retry in dispatched if retry]
        assert repaired
        for request, path in repaired:
            validate_path(path, request, framework.overlay)

    def test_endpoint_failure_is_fatal(self, runs, victim):
        """A request with the victim as an endpoint never completes after the
        crash; issued after the rebind it is infeasible, never repaired."""
        engine, _ = runs["reroute"]
        rebind = FAIL_AT + POLICIES["reroute"]
        ends = endpoints(engine)
        dead = [r for r in engine.collector.records if victim in ends[r.rid]]
        late = [r for r in dead if r.issued_at > rebind]
        assert late
        assert all(r.completed_at is None for r in dead if r.issued_at >= FAIL_AT)
        assert all(r.infeasible and r.repaired_at is None for r in late)

    def test_rerouter_reuses_router_across_calls(self, framework, victim):
        """Every repair in a run re-resolves through the engine's one router,
        rebound once from the membership change — no router per flow."""
        with use_telemetry(Telemetry()) as telemetry:
            _, dispatched = crash_run(framework, victim, replace(LOAD, repair=150.0))
        assert sum(retry for *_, retry in dispatched) > 1
        assert len(telemetry.events.of_kind("routing.rebind")) == 1

    def test_loss_bounded_by_detection_window(self, runs):
        """Every flow the crash kills (one drop each) is repaired, and none is
        lost: after the rebind no route crosses the victim."""
        engine, _ = runs["reroute"]
        repaired = engine.sim.telemetry.registry.total("traffic.repaired")
        assert 0 < repaired == engine.sim.conservation()["dropped"]
        assert engine.report.requests_lost == 0


class TestSessionProperties:
    """Hypothesis properties of the repairing data plane."""

    def test_delivered_plus_lost_is_total_under_random_failures(self, tiny_framework):
        victim = busiest_relay(tiny_framework)
        config = replace(LOAD, arrival=Poisson(rate=0.03), duration=1_500.0)

        @settings(max_examples=12, deadline=None)
        @given(fail_at=st.floats(0.0, 1_500.0), policy=st.sampled_from(sorted(POLICIES)))
        def run(fail_at, policy):
            engine = run_traffic_under_crash(
                tiny_framework, victim, fail_at=fail_at,
                config=replace(config, repair=POLICIES[policy]), seed=5,
            )
            registry = engine.sim.telemetry.registry
            issued = registry.total("traffic.requests")
            assert issued == len(engine.collector.records) > 0
            assert issued == (
                registry.total("traffic.completed")
                + registry.total("traffic.lost")
                + registry.total("traffic.rejected")
            )
            repairs = Counter(e["req"] for e in engine.trace if e["event"] == "repair")
            assert all(count == 1 for count in repairs.values())  # at most once
            assert sum(repairs.values()) == registry.total("traffic.repaired")
            assert engine.sim.conservation()["balanced"]

        run()


class TestRepair:
    def test_late_hop_of_superseded_flow_is_ignored(self, framework, routed):
        """Superseded mid-flight, a flow's remaining hops find no path: only
        the re-dispatched attempt, under its own key, completes the request."""
        request, path = routed
        engine = TrafficEngine(framework, TrafficConfig(repair=1_000.0))
        record = RequestRecord(rid=0, session=0, issued_at=0.0)
        engine.collector.request(record)
        engine._dispatch(record, request, path)
        nominal = engine._nominal_delay(path)
        engine.sim.run_until(nominal / 2)
        assert 0 in engine._flows  # still in flight
        engine._deadline(record, request)
        assert record.repaired_at == pytest.approx(nominal / 2)
        engine._flush()
        engine.sim.run_all()
        assert record.completed_at == pytest.approx(nominal / 2 + nominal)
        assert engine._m_completed.value == 1 and not engine._flows
        assert engine.sim.conservation()["balanced"]

    def test_repair_is_shard_count_invariant(self, tiny_framework):
        victim = busiest_relay(tiny_framework)
        config = replace(LOAD, arrival=Poisson(rate=0.03), repair=100.0)
        plain = run_traffic_under_crash(tiny_framework, victim, fail_at=FAIL_AT, config=config)
        sim = tiny_framework.simulator(shards=2)
        laned = run_traffic_under_crash(
            tiny_framework, victim, fail_at=FAIL_AT, config=config, sim=sim
        )
        assert sim.shards == 2 and sim.exchanged > 0
        assert plain.sim.telemetry.registry.total("traffic.repaired") > 0
        assert laned.report == plain.report
