"""Tests for the resilience experiment harness."""

import pytest

from benchmarks.numbers import _show
from repro.experiments.resilience import run_resilience_experiment


@pytest.fixture(scope="module")
def rows():
    return run_resilience_experiment(
        proxy_count=40, sessions=4, packets_per_session=60, seed=11
    )


class TestResilienceExperiment:
    def test_both_policies_present(self, rows):
        assert [r.policy for r in rows] == ["no recovery", "reroute"]

    def test_recovery_helps(self, rows):
        by = {r.policy: r for r in rows}
        assert (
            by["reroute"].delivery_rate.mean
            >= by["no recovery"].delivery_rate.mean
        )

    def test_recovery_latency_reported_only_for_reroute(self, rows):
        by = {r.policy: r for r in rows}
        assert by["no recovery"].recovery_latency is None
        # rerouting sessions should record at least some recoveries
        assert by["reroute"].recovery_latency is not None

    def test_rates_are_probabilities(self, rows):
        for row in rows:
            assert 0.0 <= row.delivery_rate.mean <= 1.0

    def test_render(self, rows, capsys):
        _show("E4", rows)
        text = capsys.readouterr().out
        assert "delivery_rate" in text
        # a summary cell prints as itself, not as its fields
        assert f" {rows[1].delivery_rate} |" in text
