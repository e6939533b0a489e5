"""Tests for the experiment harnesses (Table 1, Fig 9, Fig 10, workload)."""


import pytest

from repro.experiments import (
    TABLE1,
    EnvironmentSpec,
    WorkloadConfig,
    ascii_table,
    build_environment,
    generate_requests,
    random_service_graph,
    run_overhead_experiment,
    run_path_efficiency,
    scale_factor,
    scaled_table1,
)
from repro.services import generic_catalog
from repro.util.errors import ReproError
from tests.oracles.shortest_paths import physical_graph

TINY = EnvironmentSpec(
    physical_nodes=150, landmarks=10, proxies=40, clients=10
)


class TestTable1:
    def test_exact_paper_rows(self):
        assert [s.physical_nodes for s in TABLE1] == [300, 600, 900, 1200]
        assert [s.proxies for s in TABLE1] == [250, 500, 750, 1000]
        assert [s.clients for s in TABLE1] == [40, 90, 140, 120]
        assert all(s.landmarks == 10 for s in TABLE1)
        assert all(s.min_services == 4 and s.max_services == 10 for s in TABLE1)
        assert all(
            s.min_request_length == 4 and s.max_request_length == 10 for s in TABLE1
        )

    def test_scaled_preserves_progression(self):
        scaled = scaled_table1(0.5)
        proxies = [s.proxies for s in scaled]
        assert proxies == sorted(proxies)
        assert proxies[0] == 125

    def test_scale_factor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert scale_factor() == 1.0
        monkeypatch.setenv("REPRO_SCALE", "0.3")
        assert scale_factor() == 0.3
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert scale_factor() == 0.2

    def test_scale_factor_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ReproError):
            scale_factor()
        monkeypatch.setenv("REPRO_SCALE", "3.0")
        with pytest.raises(ReproError):
            scale_factor()


class TestEnvironment:
    @pytest.fixture(scope="class")
    def env(self):
        return build_environment(TINY, seed=1)

    def test_sizes_match_spec(self, env):
        assert env.framework.overlay.size == TINY.proxies
        assert physical_graph(env.framework.physical).node_count == TINY.physical_nodes
        assert len(env.clients) == TINY.clients

    def test_client_proxies_are_nearest(self, env):
        fw = env.framework
        for client, proxy in zip(env.clients, env.client_proxies):
            best = min(
                fw.overlay.proxies, key=lambda p: fw.physical.delay(client, p)
            )
            assert fw.physical.delay(client, proxy) == pytest.approx(
                fw.physical.delay(client, best)
            )

    def test_deterministic(self):
        a = build_environment(TINY, seed=9)
        b = build_environment(TINY, seed=9)
        assert a.framework.overlay.proxies == b.framework.overlay.proxies
        assert a.clients == b.clients


class TestWorkload:
    @pytest.fixture(scope="class")
    def env(self):
        return build_environment(TINY, seed=1)

    def test_request_count(self, env):
        requests = generate_requests(env, WorkloadConfig(request_count=25), seed=2)
        assert len(requests) == 25

    def test_lengths_in_bounds(self, env):
        requests = generate_requests(
            env, WorkloadConfig(request_count=30, min_length=3, max_length=6), seed=2
        )
        assert all(3 <= r.length <= 6 for r in requests)

    def test_destinations_are_client_proxies(self, env):
        requests = generate_requests(env, WorkloadConfig(request_count=30), seed=2)
        access = set(env.client_proxies)
        assert all(r.destination_proxy in access for r in requests)

    def test_endpoints_distinct(self, env):
        requests = generate_requests(env, WorkloadConfig(request_count=50), seed=3)
        assert all(r.source_proxy != r.destination_proxy for r in requests)

    def test_nonlinear_fraction(self, env):
        requests = generate_requests(
            env,
            WorkloadConfig(request_count=40, nonlinear_fraction=1.0),
            seed=2,
        )
        assert all(not r.service_graph.is_linear for r in requests)

    def test_config_validation(self):
        with pytest.raises(ReproError):
            WorkloadConfig(request_count=0)
        with pytest.raises(ReproError):
            WorkloadConfig(min_length=5, max_length=2)
        with pytest.raises(ReproError):
            WorkloadConfig(nonlinear_fraction=1.5)

    def test_random_service_graph_linear(self):
        catalog = generic_catalog(10)
        sg = random_service_graph(catalog, 5, seed=1)
        assert sg.is_linear and sg.slot_count == 5

    def test_random_service_graph_nonlinear(self):
        catalog = generic_catalog(10)
        sg = random_service_graph(catalog, 6, nonlinear=True, seed=1)
        assert not sg.is_linear
        assert sg.slot_count == 6

    @pytest.mark.parametrize("popularity", ["uniform", "zipf"])
    def test_random_service_graphs_match_the_per_slot_draws(self, popularity):
        """Oracle: one sampler call per request builds the graphs, signatures
        and topological orders the per-slot draws through the validating
        constructor build, and leaves the RNG where they leave it."""
        import random

        from repro.experiments.workload import ServiceSampler
        from tests.oracles.workload import random_service_graph_reference

        catalog = generic_catalog(12)
        sampler = ServiceSampler(catalog, WorkloadConfig(popularity=popularity))
        ours, theirs = random.Random(5), random.Random(5)
        for draw in range(300):
            length, nonlinear = 1 + draw % 10, draw % 7 == 0
            sg = random_service_graph(
                catalog, length, nonlinear=nonlinear, sampler=sampler, seed=ours
            )
            want = random_service_graph_reference(
                sampler, theirs, length, nonlinear=nonlinear
            )
            assert sg == want and sg.signature == want.signature
            assert sg.topological_order() == want.topological_order()
            assert (sg.source_slots(), sg.sink_slots()) == (
                want.source_slots(), want.sink_slots()
            )
            assert sg.is_linear == want.is_linear
        assert ours.getstate() == theirs.getstate()

    def test_short_nonlinear_falls_back_to_linear(self):
        catalog = generic_catalog(10)
        sg = random_service_graph(catalog, 2, nonlinear=True, seed=1)
        assert sg.is_linear


class TestOverheadExperiment:
    def test_fig9_shape(self):
        specs = [TINY, EnvironmentSpec(physical_nodes=200, landmarks=10,
                                       proxies=60, clients=10)]
        result = run_overhead_experiment(specs, topologies_per_size=2, seed=4)
        assert [p.proxies for p in result.coordinates] == [40, 60]
        for point in result.coordinates + result.service:
            assert point.flat == point.proxies
            assert 0 < point.hierarchical < point.flat
            assert point.topologies == 2


class TestPathEfficiencyExperiment:
    def test_fig10_shape(self):
        result = run_path_efficiency(
            [TINY],
            topologies_per_size=1,
            requests_per_topology=15,
            seed=5,
        )
        point = result.points[0]
        assert set(point.mean_delay) == {"mesh", "hfc_agg", "hfc_full"}
        for value in point.mean_delay.values():
            assert value > 0
        assert point.failures == {"mesh": 0, "hfc_agg": 0, "hfc_full": 0}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError):
            run_path_efficiency(
                [TINY], strategies=("warp-drive",), topologies_per_size=1,
                requests_per_topology=2, seed=5,
            )

    def test_oracle_strategy_is_minimum(self):
        result = run_path_efficiency(
            [TINY],
            strategies=("mesh", "hfc_agg", "oracle"),
            topologies_per_size=1,
            requests_per_topology=15,
            seed=6,
        )
        delays = result.points[0].mean_delay
        assert delays["oracle"] <= delays["mesh"]
        assert delays["oracle"] <= delays["hfc_agg"]


class TestReport:
    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "b"], [[1, 2.5], [30, 4]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular
        assert "2.50" in text


class TestZipfWorkload:
    @pytest.fixture(scope="class")
    def env(self):
        return build_environment(TINY, seed=1)

    def test_zipf_skews_popularity(self, env):
        from collections import Counter

        from repro.experiments.workload import WorkloadConfig, generate_requests

        uniform = generate_requests(
            env, WorkloadConfig(request_count=150, popularity="uniform"), seed=9
        )
        zipf = generate_requests(
            env,
            WorkloadConfig(request_count=150, popularity="zipf", zipf_exponent=1.2),
            seed=9,
        )

        def top_share(requests):
            counts = Counter()
            for r in requests:
                for slot in r.service_graph.slots():
                    counts[r.service_graph.service_of(slot)] += 1
            total = sum(counts.values())
            top = sum(c for _, c in counts.most_common(max(1, len(counts) // 10)))
            return top / total

        assert top_share(zipf) > top_share(uniform)

    def test_zipf_requests_still_routable(self, env):
        from repro.experiments.workload import WorkloadConfig, generate_requests
        from repro.routing import validate_path

        requests = generate_requests(
            env, WorkloadConfig(request_count=10, popularity="zipf"), seed=10
        )
        router = env.framework.hierarchical_router()
        for request in requests:
            validate_path(router.route(request), request, env.framework.overlay)

    def test_invalid_popularity_rejected(self):
        from repro.experiments.workload import WorkloadConfig

        with pytest.raises(ReproError):
            WorkloadConfig(popularity="pareto")
        with pytest.raises(ReproError):
            WorkloadConfig(popularity="zipf", zipf_exponent=0.0)
