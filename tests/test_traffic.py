"""Tests for the open-loop traffic engine (repro.traffic).

Covers the shared popularity sampler, arrival processes and rate shapes,
session/traffic config validation, steady-state measurement, the engine's
determinism contract (byte-identical traces for a given config + seed),
the rate-sweep saturation finder, and the sustained-load-under-faults
composition with the convergence auditor.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.workload import WorkloadConfig
from repro.faults import crash_restart_plan
from repro.traffic import (
    MMPP,
    Diurnal,
    FlashCrowd,
    Poisson,
    SessionConfig,
    SteadyStateCollector,
    TrafficConfig,
    TrafficEngine,
    quantile,
    rate_sweep,
    run_traffic_under_faults,
    traffic_proxy,
)
from repro.traffic.measure import RequestRecord
from repro.util import ReproError, TrafficError
from repro.util.sampling import PopularitySampler, zipf_weights


# -- shared sampler (satellite 1) ---------------------------------------------------


class TestPopularitySampler:
    def test_zipf_weights_shape(self):
        weights = zipf_weights(4, 1.0)
        assert weights == [1.0, 0.5, pytest.approx(1 / 3), 0.25]
        assert zipf_weights(3, 2.0)[1] == 0.25

    def test_zipf_weights_validation(self):
        with pytest.raises(ReproError):
            zipf_weights(0)
        with pytest.raises(ReproError):
            zipf_weights(5, exponent=0.0)

    def test_sampler_validation(self):
        with pytest.raises(ReproError):
            PopularitySampler([])
        with pytest.raises(ReproError):
            PopularitySampler(["a"], popularity="pareto")

    def test_uniform_mode_has_no_weights(self):
        sampler = PopularitySampler(["a", "b"], popularity="uniform")
        assert sampler.weights is None

    def test_draws_are_deterministic(self):
        sampler = PopularitySampler(list("abcdef"), popularity="zipf")
        first = [sampler.draw(random.Random(5)) for _ in range(20)]
        second = [sampler.draw(random.Random(5)) for _ in range(20)]
        assert first == second

    @pytest.mark.parametrize("popularity", ["uniform", "zipf"])
    def test_draw_sequence_is_the_per_draw_accumulation_one(self, popularity):
        """Accumulating the weights once changed no draw: same item, and one
        ``random()`` consumed, for the same stream."""
        items = [f"s{i}" for i in range(57)]
        sampler = PopularitySampler(items, popularity=popularity, exponent=1.3)
        weights = zipf_weights(len(items), 1.3)
        rng, reference = random.Random(17), random.Random(17)
        for _ in range(10_000):
            expected = (
                reference.choice(items)
                if popularity == "uniform"
                else reference.choices(items, weights=weights, k=1)[0]
            )
            assert sampler.draw(rng) == expected
        assert rng.getstate() == reference.getstate()

    def test_zipf_skews_toward_head(self):
        sampler = PopularitySampler(list(range(10)), popularity="zipf", exponent=1.5)
        rng = random.Random(11)
        draws = [sampler.draw(rng) for _ in range(2000)]
        assert draws.count(0) > draws.count(9) * 3

    def test_workload_config_validation_edges(self):
        with pytest.raises(ReproError):
            WorkloadConfig(request_count=0)
        with pytest.raises(ReproError):
            WorkloadConfig(min_length=0)
        with pytest.raises(ReproError):
            WorkloadConfig(min_length=6, max_length=5)
        with pytest.raises(ReproError):
            WorkloadConfig(nonlinear_fraction=1.5)
        with pytest.raises(ReproError):
            WorkloadConfig(popularity="pareto")
        with pytest.raises(ReproError):
            WorkloadConfig(popularity="zipf", zipf_exponent=0.0)


# -- arrival processes --------------------------------------------------------------


class TestArrivals:
    def test_poisson_validation(self):
        with pytest.raises(TrafficError):
            Poisson(rate=0.0)

    def test_mmpp_validation(self):
        with pytest.raises(TrafficError):
            MMPP(rates=(0.01,))
        with pytest.raises(TrafficError):
            MMPP(rates=(0.0, 0.0))
        with pytest.raises(TrafficError):
            MMPP(mean_dwell=0.0)

    def test_shape_validation(self):
        with pytest.raises(TrafficError):
            Diurnal(period=0.0)
        with pytest.raises(TrafficError):
            FlashCrowd(ramp=3000.0, duration=4000.0)
        with pytest.raises(TrafficError):
            FlashCrowd(magnitude=0.5)

    def test_diurnal_factor_bounds(self):
        shape = Diurnal(period=1000.0, trough=0.25)
        factors = [shape.factor(t) for t in range(0, 2001, 50)]
        assert all(0.25 <= f <= 1.0 + 1e-12 for f in factors)
        assert shape.factor(0.0) == pytest.approx(0.25)
        assert shape.factor(500.0) == pytest.approx(1.0)

    def test_flash_crowd_profile(self):
        shape = FlashCrowd(start=100.0, duration=400.0, magnitude=3.0, ramp=100.0)
        assert shape.factor(50.0) == 1.0
        assert shape.factor(150.0) == pytest.approx(2.0)  # mid-ramp
        assert shape.factor(300.0) == 3.0  # plateau
        assert shape.factor(600.0) == 1.0

    def test_arrivals_are_monotone_and_deterministic(self):
        for process in (
            Poisson(rate=0.05),
            Poisson(rate=0.05, shapes=(Diurnal(period=500.0),)),
            MMPP(rates=(0.01, 0.1), mean_dwell=200.0),
        ):
            def times(seed):
                sampler = process.sampler(random.Random(seed))
                out, t = [], 0.0
                for _ in range(50):
                    t = sampler.next_after(t)
                    out.append(t)
                return out

            first = times(3)
            assert times(3) == first
            assert all(b > a for a, b in zip(first, first[1:]))
            assert times(4) != first

    def test_shaped_rate_matches_mean(self):
        # thinning against a 4x flash crowd must still produce roughly the
        # shaped mean rate, not the peak rate
        process = Poisson(
            rate=0.1,
            shapes=(FlashCrowd(start=1e9, duration=1e3, magnitude=4.0, ramp=100.0),),
        )
        sampler = process.sampler(random.Random(7))
        t, n = 0.0, 400
        for _ in range(n):
            t = sampler.next_after(t)
        assert n / t == pytest.approx(0.1, rel=0.25)


# -- config validation --------------------------------------------------------------


class TestConfigs:
    def test_session_validation(self):
        with pytest.raises(TrafficError):
            SessionConfig(mean_lifetime=0.0)
        with pytest.raises(TrafficError):
            SessionConfig(lifetime="weibull")
        with pytest.raises(TrafficError):
            SessionConfig(gap_sigma=0.0)
        with pytest.raises(TrafficError):
            SessionConfig(min_length=5, max_length=4)
        with pytest.raises(TrafficError):
            SessionConfig(popularity="pareto")

    def test_session_draws(self):
        config = SessionConfig(
            mean_lifetime=100.0, lifetime="fixed", mean_gap=25.0, cadence="fixed"
        )
        rng = random.Random(0)
        assert config.draw_lifetime(rng) == 100.0
        assert config.draw_gap(rng) == 25.0
        assert config.mean_requests() == 5.0
        assert 4 <= config.draw_length(rng) <= 10

    def test_lognormal_mean_is_calibrated(self):
        config = SessionConfig(mean_lifetime=500.0, lifetime="lognormal")
        rng = random.Random(1)
        draws = [config.draw_lifetime(rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(500.0, rel=0.1)

    def test_traffic_validation(self):
        with pytest.raises(TrafficError):
            TrafficConfig(duration=0.0)
        with pytest.raises(TrafficError):
            TrafficConfig(warmup=10_000.0, duration=10_000.0)
        with pytest.raises(TrafficError):
            TrafficConfig(batch_interval=0.0)
        with pytest.raises(TrafficError):
            TrafficConfig(max_in_flight=0)


# -- measurement --------------------------------------------------------------------


class TestMeasure:
    def test_quantile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 4.0
        assert quantile(values, 0.5) == 2.5
        assert math.isnan(quantile([], 0.5))
        with pytest.raises(TrafficError):
            quantile(values, 1.5)

    def test_continuity_windows(self):
        collector = SteadyStateCollector(warmup=0.0, horizon=100.0)
        for rid, (issued, completed) in enumerate(
            [(10.0, 20.0), (30.0, None), (50.0, 60.0), (90.0, 95.0)]
        ):
            collector.request(
                RequestRecord(rid=rid, session=0, issued_at=issued, completed_at=completed)
            )
        assert collector.continuity(0.0, 40.0) == 0.5
        assert collector.continuity(40.0, 100.0) == 1.0
        assert math.isnan(collector.continuity(200.0, 300.0))

    def test_traffic_proxy_resolver(self):
        assert traffic_proxy(("traffic", 7)) == 7
        assert traffic_proxy(3) == 3
        assert traffic_proxy(("state", 4)) == ("state", 4)


# -- the engine ---------------------------------------------------------------------


QUICK = TrafficConfig(
    arrival=Poisson(rate=0.008),
    duration=4_000.0,
    warmup=800.0,
    session=SessionConfig(mean_lifetime=1_000.0, mean_gap=300.0),
)


class TestEngine:
    def test_steady_state_run(self, tiny_framework):
        engine = TrafficEngine(tiny_framework, QUICK, seed=1)
        report = engine.run()
        assert report.requests_offered > 0
        assert report.requests_completed > 0
        assert report.goodput_ratio > 0.9
        assert report.latency_p50 <= report.latency_p95 <= report.latency_p99
        assert report.in_flight_peak >= 1
        assert engine.finish() is report  # idempotent

    def test_runs_on_shard_lanes(self, tiny_framework):
        # a flow's relays are registered at dispatch, on the driver lane: a
        # hop running on one shard's lane may not register the next hop's
        # relay on another's (Simulator.register refuses that)
        plain = TrafficEngine(tiny_framework, QUICK, seed=1).run()
        sim = tiny_framework.simulator(shards=2)
        assert sim.shards == 2
        laned = TrafficEngine(tiny_framework, QUICK, sim=sim, seed=1).run()
        assert sim.exchanged > 0 and sim.conservation()["balanced"]
        assert laned.requests_completed == plain.requests_completed > 0
        assert laned.latency_p95 == pytest.approx(plain.latency_p95)

    def test_admission_cap_rejects(self, tiny_framework):
        config = TrafficConfig(
            arrival=Poisson(rate=0.05),
            duration=3_000.0,
            warmup=500.0,
            max_in_flight=5,
            session=SessionConfig(mean_lifetime=2_000.0, mean_gap=500.0),
        )
        engine = TrafficEngine(tiny_framework, config, seed=2)
        report = engine.run()
        assert report.session_rejections > 0
        assert report.goodput_ratio < 1.0
        assert report.in_flight_peak <= 5

    def test_telemetry_counters(self, tiny_framework):
        engine = TrafficEngine(tiny_framework, QUICK, seed=3)
        report = engine.run()
        registry = engine.sim.telemetry.registry
        assert registry.total("traffic.arrivals") == report.session_arrivals
        assert registry.total("traffic.requests") == len(engine.collector.records)
        assert registry.total("traffic.completed") > 0

    def test_double_start_raises(self, tiny_framework):
        engine = TrafficEngine(tiny_framework, QUICK, seed=5)
        engine.start()
        with pytest.raises(TrafficError):
            engine.start()

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_trace_is_byte_identical(self, tiny_framework, tmp_path_factory, seed):
        def trace_bytes(tag):
            engine = TrafficEngine(tiny_framework, QUICK, seed=seed)
            engine.run()
            path = tmp_path_factory.mktemp("traces") / f"{tag}.jsonl"
            engine.dump_trace(str(path))
            return path.read_bytes()

        assert trace_bytes("a") == trace_bytes("b")

    def test_trace_is_jsonl(self, tiny_framework, tmp_path):
        engine = TrafficEngine(tiny_framework, QUICK, seed=6)
        engine.run()
        path = tmp_path / "run.trace.jsonl"
        count = engine.dump_trace(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == count == len(engine.trace)
        events = {json.loads(line)["event"] for line in lines}
        assert {"arrival", "admit", "request", "complete"} <= events

    def test_a_departed_endpoint_costs_one_request_not_the_flush(self, tiny_framework):
        """A proxy leaves between a request's issue and its flush, the router
        is rebound: that request is infeasible, the rest of the flush routes."""
        from repro.membership import DynamicOverlay
        from repro.routing import HierarchicalRouter

        dyn = DynamicOverlay(tiny_framework, restructure_tolerance=None)
        router = HierarchicalRouter(dyn.hfc)
        config = TrafficConfig(
            arrival=Poisson(rate=0.05),
            duration=4_000.0,
            warmup=0.0,
            batch_interval=400.0,
            session=SessionConfig(mean_lifetime=1_000.0, mean_gap=100.0),
        )
        engine = TrafficEngine(tiny_framework, config, router=router, seed=4)
        engine.start()
        # stop short of a flush tick, with requests waiting
        engine.sim.run_until(790.0)
        waiting = [request for _, request in engine._pending]
        endpoints = [{r.source_proxy, r.destination_proxy} for r in waiting]
        gone = waiting[0].source_proxy
        hit = [gone in pair for pair in endpoints]
        assert len(waiting) >= 3 and not all(hit)
        records = [record for record, _ in engine._pending]

        dyn.leave(gone)
        router.rebind(dyn.hfc)
        engine._flush()
        assert not engine._pending
        for record, lost in zip(records, hit):
            assert record.infeasible == lost and record.routed == (not lost)
        assert engine._m_infeasible.value == sum(hit)


# -- rate sweep ---------------------------------------------------------------------


class TestRateSweep:
    def test_sweep_finds_saturation(self, tiny_framework):
        config = TrafficConfig(
            arrival=Poisson(rate=0.005),
            duration=3_000.0,
            warmup=600.0,
            max_in_flight=40,
            service_time=4.0,
        )
        result = rate_sweep(
            tiny_framework, [0.005, 0.02, 0.08], config=config, seed=3
        )
        assert len(result.points) == 3
        goodputs = [p.report.goodput_ratio for p in result.points]
        assert goodputs[0] > goodputs[-1]
        assert result.saturation_rate in (0.02, 0.08)
        assert len(result.rows()) == 3

    def test_sweep_validation(self, tiny_framework):
        with pytest.raises(TrafficError):
            rate_sweep(tiny_framework, [])
        with pytest.raises(TrafficError):
            rate_sweep(tiny_framework, [0.02, 0.01])


# -- faults composition -------------------------------------------------------------


class TestUnderFaults:
    def test_crash_restart_scenario(self, tiny_framework):
        plan = crash_restart_plan(tiny_framework.hfc, seed=21)
        result = run_traffic_under_faults(
            tiny_framework,
            plan,
            config=TrafficConfig(
                arrival=Poisson(rate=0.01),
                duration=4_000.0,
                warmup=500.0,
                session=SessionConfig(mean_lifetime=1_200.0, mean_gap=300.0),
            ),
            traffic_seed=8,
        )
        assert result.passed, [c.detail for c in result.scenario.failures()]
        assert 0.0 < result.fault_continuity <= 1.0
        assert result.calm_continuity > 0.8
        payload = result.to_dict()
        assert payload["passed"] is True
        assert payload["traffic"]["requests_offered"] > 0


# -- CLI ---------------------------------------------------------------------------


class TestCli:
    def test_traffic_command(self, capsys, tmp_path):
        trace = tmp_path / "cli.trace.jsonl"
        code = main([
            "traffic", "--proxies", "30", "--rate", "0.008",
            "--duration", "3000", "--trace-out", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "steady state" in out
        assert trace.exists()
