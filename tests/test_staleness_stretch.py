"""Tests for the staleness (E6) and stretch (E7) experiment harnesses."""

import pytest

from benchmarks.numbers import _show
from repro.experiments.environments import EnvironmentSpec
from repro.experiments.staleness import run_staleness_experiment
from repro.experiments.stretch import run_stretch_analysis
from repro.util.errors import ReproError

TINY = EnvironmentSpec(physical_nodes=150, landmarks=10, proxies=40, clients=10)


class TestStaleness:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_staleness_experiment(
            proxy_count=40, change_count=15, request_count=30, seed=3
        )

    def test_both_states_present(self, rows):
        assert [r.state for r in rows] == ["stale tables", "re-converged"]

    def test_fresh_tables_never_infeasible(self, rows):
        """Changes preserve the capability set, so fresh routing always works."""
        by = {r.state: r for r in rows}
        assert by["re-converged"].infeasible == 0
        assert by["re-converged"].routed == 30

    def test_counts_partition_requests(self, rows):
        for row in rows:
            assert row.routed + row.infeasible == 30

    def test_render(self, rows, capsys):
        _show("E6", rows)
        assert "re-converged" in capsys.readouterr().out


class TestStretch:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_stretch_analysis(request_count=40, spec=TINY, seed=4)

    def test_strategies_present(self, rows):
        assert [r.strategy for r in rows] == ["mesh", "hfc_agg", "hfc_full"]

    def test_stretch_at_least_one(self, rows):
        for row in rows:
            assert row.median >= 1.0 - 1e-9

    def test_percentiles_ordered(self, rows):
        for row in rows:
            assert row.median <= row.p90 <= row.p99 <= row.worst

    def test_oracle_not_allowed_as_strategy(self):
        with pytest.raises(ReproError):
            run_stretch_analysis(strategies=("oracle",), spec=TINY, seed=5)

    def test_render(self, rows, capsys):
        _show("E7", rows)
        assert "p99" in capsys.readouterr().out
