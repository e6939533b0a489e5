"""Tests for the command-line interface and JSON serialisation."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    EnvironmentSpec,
    run_overhead_experiment,
    run_path_efficiency,
)
from repro.experiments.serialize import (
    dump_json,
    efficiency_to_dict,
    overhead_to_dict,
)
from repro.telemetry import Telemetry, use_telemetry

TINY = EnvironmentSpec(physical_nodes=150, landmarks=10, proxies=40, clients=10)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.proxies == 100
        assert args.seed == 7

    def test_fig10_strategies_flag(self):
        args = build_parser().parse_args(["fig10", "--strategies", "mesh,oracle"])
        assert args.strategies == "mesh,oracle"


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--proxies", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "hierarchical" in out
        assert "oracle" in out

    def test_table1_runs(self, capsys):
        assert main(["table1", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "proxies" in out

    def test_fig9_with_json(self, capsys, tmp_path):
        target = tmp_path / "fig9.json"
        code = main([
            "fig9", "--scale", "0.12", "--topologies", "1",
            "--seed", "3", "--json", str(target),
        ])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["figure"] == "9"
        assert len(payload["panels"]["coordinates"]) == 4

    def test_fig10_with_json(self, capsys, tmp_path):
        target = tmp_path / "fig10.json"
        code = main([
            "fig10", "--scale", "0.12", "--topologies", "1",
            "--requests", "5", "--strategies", "hfc_agg",
            "--seed", "3", "--json", str(target),
        ])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["strategies"] == ["hfc_agg"]

    def test_protocol_runs(self, capsys):
        assert main(["protocol", "--proxies", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "local_state" in out
        assert "converged" in out

    def test_protocol_with_json(self, capsys, tmp_path):
        target = tmp_path / "protocol.json"
        code = main([
            "protocol", "--proxies", "40", "--seed", "3",
            "--json", str(target),
        ])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["messages_by_kind"]["local_state"] > 0
        assert payload["total_messages"] == sum(
            payload["messages_by_kind"].values()
        )
        assert "p95" in payload["delivery_latency"]["local_state"]


class TestSerialize:
    def test_overhead_roundtrip(self, tmp_path):
        result = run_overhead_experiment([TINY], topologies_per_size=1, seed=5)
        payload = overhead_to_dict(result)
        target = tmp_path / "o.json"
        dump_json(payload, str(target))
        loaded = json.loads(target.read_text())
        assert loaded["panels"]["service"][0]["proxies"] == 40
        assert loaded["panels"]["service"][0]["flat"] == 40.0

    def test_efficiency_roundtrip(self, tmp_path):
        result = run_path_efficiency(
            [TINY], strategies=("hfc_agg",), topologies_per_size=1,
            requests_per_topology=5, seed=6,
        )
        payload = efficiency_to_dict(result)
        target = tmp_path / "e.json"
        dump_json(payload, str(target))
        loaded = json.loads(target.read_text())
        assert loaded["points"][0]["mean_delay"]["hfc_agg"] > 0


class TestTelemetryCLI:
    """The ``telemetry`` subcommand and the shared ``--telemetry-out`` flag."""

    def test_telemetry_command_prints_metrics(self, capsys):
        with use_telemetry(Telemetry()):
            code = main([
                "telemetry", "--proxies", "40", "--requests", "6", "--seed", "3",
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert "routing.requests" in out
        assert "sim.messages.delivered" in out
        assert "sim.delivery.latency" in out
        assert "spans finished" in out

    def test_telemetry_command_json_snapshot(self, capsys, tmp_path):
        target = tmp_path / "telemetry.json"
        with use_telemetry(Telemetry()):
            code = main([
                "telemetry", "--proxies", "40", "--requests", "6",
                "--seed", "3", "--json", str(target),
            ])
        assert code == 0
        payload = json.loads(target.read_text())
        names = {c["name"] for c in payload["metrics"]["counters"]}
        assert "routing.cache.hits" in names or "routing.cache.misses" in names
        assert payload["spans"]["finished"] > 0

    def test_telemetry_out_flag_on_protocol(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        with use_telemetry(Telemetry()):
            code = main([
                "protocol", "--proxies", "40", "--seed", "3",
                "--telemetry-out", str(target),
            ])
        assert code == 0
        payload = json.loads(target.read_text())
        counters = {c["name"] for c in payload["metrics"]["counters"]}
        assert "sim.messages.delivered" in counters
        histograms = {h["name"] for h in payload["metrics"]["histograms"]}
        assert "sim.delivery.latency" in histograms
