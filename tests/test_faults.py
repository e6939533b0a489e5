"""Tests for deterministic fault injection and the convergence auditor."""

import json

import pytest

from repro.core import HFCFramework
from repro.faults import (
    ConvergenceAuditor,
    CrashRestart,
    DelayJitter,
    Duplicate,
    FaultInjector,
    FaultPlan,
    LinkLoss,
    Partition,
    Reorder,
    crash_restart_plan,
    loss_burst_plan,
    partition_heal_plan,
    reorder_duplicate_plan,
    run_fault_scenario,
    standard_fault_matrix,
)
from repro.netsim.eventsim import Process, Simulator
from repro.state.delta import DeltaAssembler, DeltaEmitter
from repro.state.protocol import StateDistributionProtocol
from repro.util.errors import FaultError


class TestFaultPlan:
    def test_invalid_window_rejected(self):
        with pytest.raises(FaultError):
            LinkLoss(start=10.0, end=5.0, loss_rate=0.5)
        with pytest.raises(FaultError):
            DelayJitter(start=-1.0, end=5.0, jitter=10.0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(FaultError):
            LinkLoss(start=0.0, end=5.0, loss_rate=1.5)
        with pytest.raises(FaultError):
            Duplicate(start=0.0, end=5.0, probability=-0.1)

    def test_partition_needs_two_disjoint_groups(self):
        with pytest.raises(FaultError):
            Partition(start=0.0, end=5.0, groups=(frozenset({"a"}),))
        with pytest.raises(FaultError):
            Partition(
                start=0.0,
                end=5.0,
                groups=(frozenset({"a", "b"}), frozenset({"b", "c"})),
            )

    def test_partition_severs_only_across_groups(self):
        p = Partition(
            start=0.0, end=5.0, groups=(frozenset({"a"}), frozenset({"b"}))
        )
        assert p.severs("a", "b") and p.severs("b", "a")
        assert not p.severs("a", "a")
        assert not p.severs("a", "outsider")

    def test_crash_restart_ordering_validated(self):
        with pytest.raises(FaultError):
            CrashRestart(proxy="a", crash_at=10.0, restart_at=5.0)
        spec = CrashRestart(proxy="a", crash_at=10.0, restart_at=20.0)
        assert not spec.down_at(9.9)
        assert spec.down_at(10.0) and spec.down_at(19.9)
        assert not spec.down_at(20.0)

    def test_warm_restart_requires_a_restart(self):
        with pytest.raises(FaultError):
            CrashRestart(proxy="a", crash_at=10.0, warm_restart=True)

    def test_last_fault_end(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                LinkLoss(start=0.0, end=30.0, loss_rate=0.1),
                CrashRestart(proxy="a", crash_at=5.0, restart_at=50.0),
                CrashRestart(proxy="b", crash_at=70.0),  # never restarts
            ),
        )
        assert plan.last_fault_end == 70.0
        assert plan.permanently_down(80.0) == frozenset({"b"})
        assert plan.permanently_down(60.0) == frozenset()

    def test_describe_lists_specs(self):
        plan = FaultPlan(seed=5, specs=[LinkLoss(start=0.0, end=1.0, loss_rate=0.2)])
        assert plan.specs == (LinkLoss(start=0.0, end=1.0, loss_rate=0.2),)
        assert "seed=5" in plan.describe()
        assert "LinkLoss" in plan.describe()


class _Sink(Process):
    def __init__(self, address):
        super().__init__(address)
        self.got = []

    def receive(self, message):
        self.got.append((self.simulator.now, message.payload))


def _pair(plan):
    """A two-process simulator with *plan* installed; returns (sim, a, b, inj)."""
    sim = Simulator()
    a, b = _Sink("a"), _Sink("b")
    sim.register(a)
    sim.register(b)
    injector = FaultInjector(plan).install(sim)
    return sim, a, b, injector


class TestInjector:
    def test_certain_loss_drops_in_window_only(self):
        plan = FaultPlan(seed=1, specs=(LinkLoss(start=0.0, end=10.0, loss_rate=1.0),))
        sim, a, b, injector = _pair(plan)
        sim.schedule(1.0, lambda: a.send("b", "data", "in-window", delay=1.0))
        sim.schedule(12.0, lambda: a.send("b", "data", "after", delay=1.0))
        sim.run_until(20.0)
        assert [p for _, p in b.got] == ["after"]
        assert sim.telemetry.registry.total("faults.dropped") == 1
        assert any(e["fault"] == "drop" and e["cause"] == "loss" for e in injector.trace)

    def test_directed_loss_leaves_other_links_alone(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                LinkLoss(start=0.0, end=10.0, loss_rate=1.0, sender="a", recipient="b"),
            ),
        )
        sim, a, b, _ = _pair(plan)
        sim.schedule(1.0, lambda: a.send("b", "data", "ab", delay=1.0))
        sim.schedule(1.0, lambda: b.send("a", "data", "ba", delay=1.0))
        sim.run_until(20.0)
        assert b.got == []
        assert [p for _, p in a.got] == ["ba"]

    def test_partition_drops_cross_group_messages(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                Partition(
                    start=0.0, end=10.0, groups=(frozenset({"a"}), frozenset({"b"}))
                ),
            ),
        )
        sim, a, b, _ = _pair(plan)
        sim.schedule(1.0, lambda: a.send("b", "data", "cut", delay=1.0))
        sim.schedule(11.0, lambda: a.send("b", "data", "healed", delay=1.0))
        sim.run_until(20.0)
        assert [p for _, p in b.got] == ["healed"]

    def test_duplicate_delivers_twice(self):
        plan = FaultPlan(
            seed=1, specs=(Duplicate(start=0.0, end=10.0, probability=1.0),)
        )
        sim, a, b, _ = _pair(plan)
        sim.schedule(1.0, lambda: a.send("b", "data", "x", delay=1.0))
        sim.run_until(20.0)
        assert [p for _, p in b.got] == ["x", "x"]
        assert sim.telemetry.registry.total("faults.duplicated") == 1

    def test_jitter_and_reorder_delay_delivery(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                DelayJitter(start=0.0, end=10.0, jitter=5.0),
                Reorder(start=0.0, end=10.0, probability=1.0, max_extra_delay=5.0),
            ),
        )
        sim, a, b, _ = _pair(plan)
        sim.schedule(1.0, lambda: a.send("b", "data", "late", delay=1.0))
        sim.run_until(30.0)
        (arrived, _), = b.got
        assert arrived > 2.0  # nominal arrival would be exactly 2.0
        assert sim.telemetry.registry.total("faults.delayed") == 2

    def test_crashed_recipient_kills_in_flight_messages(self):
        plan = FaultPlan(
            seed=1, specs=(CrashRestart(proxy="b", crash_at=5.0, restart_at=15.0),)
        )
        sim, a, b, _ = _pair(plan)
        # sent before the crash but arriving during downtime: dies
        sim.schedule(4.0, lambda: a.send("b", "data", "in-flight", delay=3.0))
        # sent during downtime: dies
        sim.schedule(8.0, lambda: a.send("b", "data", "down", delay=1.0))
        # arrives after restart: delivered
        sim.schedule(16.0, lambda: a.send("b", "data", "back", delay=1.0))
        sim.run_until(30.0)
        assert [p for _, p in b.got] == ["back"]
        registry = sim.telemetry.registry
        by_cause = registry.values_by_label("faults.dropped", "cause")
        assert by_cause["crash_recipient"] == 2
        assert registry.total("faults.dropped") == 2

    def test_crashed_sender_cannot_send(self):
        plan = FaultPlan(
            seed=1, specs=(CrashRestart(proxy="a", crash_at=5.0, restart_at=15.0),)
        )
        sim, a, b, _ = _pair(plan)
        sim.schedule(6.0, lambda: a.send("b", "data", "zombie", delay=1.0))
        sim.run_until(30.0)
        assert b.got == []

    def test_restart_hook_fires(self):
        spec = CrashRestart(proxy="b", crash_at=5.0, restart_at=15.0)
        plan = FaultPlan(seed=1, specs=(spec,))
        sim = Simulator()
        sim.register(_Sink("a"))
        sim.register(_Sink("b"))
        restarted = []
        FaultInjector(plan).install(sim, on_restart=restarted.append)
        sim.run_until(30.0)
        assert restarted == [spec]
        assert sim.telemetry.registry.total("faults.restarts") == 1

    def test_double_install_rejected(self):
        plan = FaultPlan(seed=1)
        sim = Simulator()
        injector = FaultInjector(plan).install(sim)
        with pytest.raises(FaultError):
            injector.install(sim)
        with pytest.raises(FaultError):
            FaultInjector(plan).install(sim)  # slot already taken


class TestIndexedInjectorMatchesScan:
    """The indexed injector decides every message as the scan-everything
    reference (``tests/oracles/faults.py``) does: same delays, same trace,
    same counters, same RNG state — message by message."""

    PROXIES = ("a", "b", "c", "d")

    @classmethod
    def _plans(cls):
        from hypothesis import strategies as st

        # a coarse grid, so windows overlap, nest and abut often
        tick = st.integers(min_value=0, max_value=12).map(lambda i: 5.0 * i)
        window = st.tuples(tick, tick).filter(lambda w: w[0] < w[1])
        proxy = st.sampled_from(cls.PROXIES)
        chance = st.sampled_from([0.0, 0.3, 0.7, 1.0])
        wild = st.one_of(st.none(), proxy)
        halves = st.sets(proxy, min_size=1, max_size=3).map(
            lambda low: (frozenset(low), frozenset(set(cls.PROXIES) - low))
        )
        spec = st.one_of(
            st.builds(
                lambda w, rate, s, r: LinkLoss(w[0], w[1], rate, s, r), window, chance, wild, wild
            ),
            st.builds(lambda w, groups: Partition(w[0], w[1], groups), window, halves),
            st.builds(
                lambda p, w, restarts: CrashRestart(p, w[0], w[1] if restarts else None),
                proxy, window, st.booleans(),
            ),
            st.builds(lambda w, p: DelayJitter(w[0], w[1], 4.0, p), window, chance),
            st.builds(
                lambda w, p, off: Duplicate(w[0], w[1], p, off),
                window, chance, st.sampled_from([0.0, 3.0]),
            ),
            st.builds(lambda w, p: Reorder(w[0], w[1], p, 6.0), window, chance),
        )
        return st.builds(
            FaultPlan, st.integers(min_value=0, max_value=99), st.lists(spec, max_size=7)
        )

    def test_same_decisions_trace_counters_and_rng(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.netsim.eventsim import Message
        from repro.traffic.engine import traffic_proxy
        from tests.oracles.faults import ReferenceFaultInjector

        proxy = st.sampled_from(self.PROXIES)
        address = st.one_of(proxy, proxy.map(lambda p: ("traffic", p)))
        stream = st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 1.0, 2.5, 5.0]),  # time since the last message
                address,
                address,
                st.sampled_from([0.5, 3.0, 12.0]),
            ),
            min_size=1,
            max_size=60,
        )

        def counters(sim):
            registry = sim.telemetry.registry
            return (
                registry.values_by_label("faults.dropped", "cause"),
                registry.values_by_label("faults.delayed", "cause"),
                registry.total("faults.duplicated"),
                registry.total("faults.restarts"),
            )

        @settings(max_examples=150, deadline=None)
        @given(self._plans(), stream, st.booleans())
        def check(plan, messages, resolve):
            sides = []
            for klass in (FaultInjector, ReferenceFaultInjector):
                sim = Simulator()
                injector = klass(plan).install(
                    sim, resolve=traffic_proxy if resolve else None
                )
                sides.append((sim, injector))
            now = 0.0
            for gap, sender, recipient, delay in messages:
                now += gap
                message = Message(sender, recipient, "data", None)
                answers = []
                for sim, injector in sides:
                    sim.run_until(now)
                    answers.append(injector.intercept(message, delay))
                (sim, indexed), (ref_sim, reference) = sides
                assert answers[0] == answers[1], (plan, now, message)
                assert indexed.trace == reference.trace
                assert counters(sim) == counters(ref_sim)
                assert indexed._rng.getstate() == reference._rng.getstate()
                for p in self.PROXIES:
                    assert indexed.down(p, now) == reference.down(p, now)

        check()

    def test_untouchable_message_costs_no_draw_and_no_trace(self):
        plan = FaultPlan(
            seed=4,
            specs=(
                LinkLoss(start=10.0, end=20.0, loss_rate=0.5),
                CrashRestart(proxy="c", crash_at=5.0, restart_at=15.0),
            ),
        )
        sim, a, _b, injector = _pair(plan)
        before = injector._rng.getstate()
        sim.run_until(25.0)  # the loss window has closed; "c" is not an endpoint
        a.send("b", "data", "clear", delay=1.0)
        assert injector._rng.getstate() == before
        assert [e["fault"] for e in injector.trace] == ["crash", "restart"]


@pytest.fixture(scope="module")
def fault_framework():
    """A dedicated framework: fault scenarios mutate overlay placement."""
    return HFCFramework.build(proxy_count=48, seed=3)


class TestScenarios:
    def test_standard_matrix_reconverges(self):
        # fresh framework: the crash scenario rewrites the victim's services
        framework = HFCFramework.build(proxy_count=48, seed=3)
        results = {
            name: run_fault_scenario(framework, plan, k_periods=3)
            for name, plan in standard_fault_matrix(framework.hfc).items()
        }
        assert set(results) == {
            "loss_burst", "partition_heal", "crash_restart", "reorder_duplicate",
        }
        for name, result in results.items():
            assert result.passed, f"{name}: {[c.detail for c in result.failures()]}"
            assert result.reconverged_at is not None
            assert result.reconverged_at <= result.deadline
            assert result.recovery_time is not None

    def test_loss_burst_actually_dropped_messages(self, fault_framework):
        result = run_fault_scenario(
            fault_framework, loss_burst_plan(fault_framework.hfc), k_periods=3
        )
        assert result.passed
        assert result.counters["faults.dropped.loss"] > 0

    def test_partition_plan_severs_cluster_halves(self, fault_framework):
        plan = partition_heal_plan(fault_framework.hfc)
        result = run_fault_scenario(fault_framework, plan, k_periods=3)
        assert result.passed
        assert result.counters["faults.dropped.partition"] > 0

    def test_reorder_duplicate_stresses_delta_streams(self, fault_framework):
        plan = reorder_duplicate_plan(fault_framework.hfc)
        result = run_fault_scenario(fault_framework, plan, k_periods=3)
        assert result.passed
        assert result.counters["faults.duplicated"] > 0
        # duplicated announcements are exactly what the stale counter absorbs
        assert result.counters["delta.stale"] > 0

    def test_protocol_report_names_the_fault_drop_causes(self, fault_framework):
        protocol = StateDistributionProtocol(fault_framework.hfc, seed=17)
        FaultInjector(loss_burst_plan(fault_framework.hfc)).install(protocol.sim)
        report = protocol.run(max_time=8000.0, stop_on_convergence=False)
        dropped = report.to_dict()["fault_drops"]
        assert dropped["loss"] > 0 and dropped["partition"] == 0
        assert report.refresh["gaps"] > 0  # the burst broke delta chains

    def test_audit_counters_keep_their_keys(self, fault_framework):
        """Runs are compared across commits by these counters: statistics the
        protocol gains later (``changed``) do not leak into them."""
        result = run_fault_scenario(fault_framework, loss_burst_plan(fault_framework.hfc))
        assert {k for k in result.counters if k.startswith("delta.")} == {
            "delta.applied", "delta.stale", "delta.gaps",
        }

    def test_crash_restart_wipes_and_recovers(self):
        framework = HFCFramework.build(proxy_count=48, seed=3)
        plan = crash_restart_plan(framework.hfc)
        victim = plan.crash_specs()[0].proxy
        before = dict(framework.hfc.overlay.placement)
        result = run_fault_scenario(framework, plan, k_periods=3)
        assert result.passed
        assert result.counters["protocol.restarts"] == 1
        # the restart changed ground truth for the run, so reconvergence
        # proves peers accepted the restarted stream rather than serving
        # frozen state — and the run gave the shared placement back
        assert plan.crash_specs()[0].services_after != before[victim]
        assert framework.hfc.overlay.placement == before

    def test_a_fault_run_leaves_the_framework_as_it_found_it(self):
        """Two runs of one plan on one framework are the same run twice."""
        from repro.traffic import Poisson, TrafficConfig, run_traffic_under_faults

        framework = HFCFramework.build(proxy_count=48, seed=3)
        before = dict(framework.hfc.overlay.placement)
        plan = crash_restart_plan(framework.hfc)
        config = TrafficConfig(arrival=Poisson(rate=0.01), duration=4000.0, warmup=500.0)
        runs = []
        for _ in range(2):
            sim = Simulator()
            result = run_traffic_under_faults(
                framework, plan, config=config, traffic_seed=8, sim=sim
            )
            runs.append((result.to_dict(), sim.conservation()))
            assert framework.hfc.overlay.placement == before
        assert runs[0] == runs[1]
        audits = [run_fault_scenario(framework, plan) for _ in range(2)]
        assert audits[0] == audits[1]
        assert framework.hfc.overlay.placement == before

    def test_warm_restart_recovers_without_wipe(self):
        framework = HFCFramework.build(proxy_count=48, seed=3)
        victim = framework.hfc.overlay.proxies[0]
        plan = FaultPlan(
            seed=5,
            specs=(
                CrashRestart(
                    proxy=victim,
                    crash_at=2000.0,
                    restart_at=4500.0,
                    warm_restart=True,
                ),
            ),
        )
        result = run_fault_scenario(framework, plan, k_periods=3)
        assert result.passed
        # the warm path restores instead of wiping: the warm counter fires
        # and ground truth is unchanged (no services_after, no wipe)
        assert result.counters["protocol.restarts"] == 1
        assert result.counters["protocol.restarts.warm"] == 1

    def test_both_runners_restore_a_warm_restart(self):
        """The traffic runner wires the same restart hooks as the plain one:
        a warm restart restores under load too, instead of wiping."""
        from repro.traffic import Poisson, TrafficConfig, run_traffic_under_faults

        framework = HFCFramework.build(proxy_count=48, seed=3)
        victim = framework.hfc.overlay.proxies[0]
        spec = CrashRestart(victim, crash_at=2000.0, restart_at=4500.0, warm_restart=True)
        plan = FaultPlan(seed=5, specs=(spec,))
        plain = run_fault_scenario(framework, plan)
        config = TrafficConfig(arrival=Poisson(rate=0.01), duration=4000.0, warmup=500.0)
        loaded = run_traffic_under_faults(framework, plan, config=config, traffic_seed=8)
        for result in (plain, loaded.scenario):
            assert result.passed
            assert result.counters["protocol.restarts"] == 1
            assert result.counters["protocol.restarts.warm"] == 1

    def test_trace_bit_identical_across_runs(self, fault_framework):
        plan = loss_burst_plan(fault_framework.hfc)

        def trace():
            result = run_fault_scenario(fault_framework, plan, k_periods=3)
            return json.dumps(result.trace, sort_keys=True, default=repr)

        assert trace() == trace()

    def test_jsonl_dump(self, fault_framework, tmp_path):
        result = run_fault_scenario(
            fault_framework, loss_burst_plan(fault_framework.hfc), k_periods=3
        )
        path = tmp_path / "audit.jsonl"
        written = result.dump_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert written == len(lines) == len(result.trace) + len(result.checks)
        verdicts = [json.loads(line) for line in lines[-len(result.checks):]]
        assert all(v["passed"] for v in verdicts)

    def test_auditor_rejects_foreign_injector(self, fault_framework):
        protocol = StateDistributionProtocol(fault_framework.hfc, seed=1)
        injector = FaultInjector(FaultPlan(seed=1)).install(Simulator())
        with pytest.raises(FaultError):
            ConvergenceAuditor(protocol, injector)


class TestIncarnationRegression:
    """The stale-state bug the fault matrix flushed out.

    A crash/restart with state wipe resets the emitter's sequence numbers
    to 1. Before incarnation numbers, every receiver that saw the
    pre-crash stream rejected the restarted sender's announcements as
    stale *forever* — its capability view froze at the pre-crash state.
    """

    def test_restarted_emitter_reanchors_receiver(self):
        emitter = DeltaEmitter(refresh_every=4)
        assembler = DeltaAssembler()
        stream = ("local", "p")
        for services in ({"a"}, {"a", "b"}, {"b"}, {"b", "c"}, {"c"}):
            assembler.apply(stream, emitter.announce(stream, frozenset(services)))
        assert assembler.current(stream) == frozenset({"c"})

        rebooted = emitter.restart()
        assert rebooted.incarnation == emitter.incarnation + 1
        first = rebooted.announce(stream, frozenset({"z"}))
        assert first.is_full and first.seq == 1
        # pre-fix: seq 1 <= last applied seq (5) -> rejected as stale
        assert assembler.apply(stream, first) == frozenset({"z"})
        assert assembler.current(stream) == frozenset({"z"})
        # and subsequent deltas under the new incarnation chain normally
        second = rebooted.announce(stream, frozenset({"z", "y"}))
        assert assembler.apply(stream, second) == frozenset({"z", "y"})

    def test_same_incarnation_restart_is_the_old_bug(self):
        """Without the incarnation bump the wipe really would freeze peers."""
        emitter = DeltaEmitter(refresh_every=4)
        assembler = DeltaAssembler()
        stream = ("local", "p")
        for i in range(5):
            assembler.apply(
                stream, emitter.announce(stream, frozenset({f"s{i}"}))
            )
        # a naive restart: fresh emitter, same incarnation
        naive = DeltaEmitter(refresh_every=4, incarnation=emitter.incarnation)
        stale_before = assembler.stale
        for _ in range(8):
            assembler.apply(stream, naive.announce(stream, frozenset({"new"})))
        # early announcements are stale-rejected; worse, once the naive
        # sequence numbers catch up to the old head they chain onto the
        # PRE-CRASH base — either way the receiver never learns {"new"}
        assert assembler.stale > stale_before
        assert assembler.current(stream) != frozenset({"new"})

    def test_older_incarnation_is_stale(self):
        assembler = DeltaAssembler()
        stream = ("local", "p")
        new = DeltaEmitter(incarnation=2)
        old = DeltaEmitter(incarnation=1)
        assert assembler.apply(stream, new.announce(stream, frozenset({"n"})))
        assert assembler.apply(stream, old.announce(stream, frozenset({"o"}))) is None
        assert assembler.stale == 1
        assert assembler.current(stream) == frozenset({"n"})

    def test_protocol_wipe_state_reconverges_in_sim(self, tiny_framework):
        protocol = StateDistributionProtocol(tiny_framework.hfc, seed=21)
        protocol.run(max_time=20000.0)
        assert protocol.converged()
        victim = tiny_framework.hfc.overlay.proxies[0]
        old = tiny_framework.hfc.overlay.placement[victim]
        new_services = frozenset(sorted(old)[:-1]) if len(old) > 1 else old
        protocol.wipe_state(victim, services=new_services)
        report = protocol.run(max_time=protocol.sim.now + 15000.0)
        assert report.converged_at is not None
        assert protocol.converged()
