"""Tests for the command-line interface, its ``--json`` output, and the JSON
that ``make numbers`` writes for the studies the CLI no longer copies."""

import json

import pytest

from benchmarks import numbers
from repro.cli import build_parser, main
from repro.experiments import (
    EnvironmentSpec,
    run_overhead_experiment,
    run_path_efficiency,
)
from repro.telemetry import Telemetry, use_telemetry

TINY = EnvironmentSpec(physical_nodes=150, landmarks=10, proxies=40, clients=10)


def _study_json(monkeypatch, tmp_path, study, scale):
    """Run *study* through the numbers driver at *scale*; its written JSON, reloaded."""
    monkeypatch.setenv("REPRO_SCALE", scale)
    target = tmp_path / f"{study.__name__}.json"
    target.write_text(json.dumps(numbers.run([study])[study.__name__]))
    return json.loads(target.read_text())


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.proxies == 100
        assert args.seed == 7

    def test_commands_are_not_copies_of_a_study(self):
        """Table 1, Fig 9, Fig 10 and every other study run in ``make numbers``."""
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert set(sub.choices) == {"demo", "protocol", "telemetry", "traffic", "shard"}
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--scale", "5"])


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--proxies", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "hierarchical" in out
        assert "oracle" in out

    def test_table1_runs(self, capsys, monkeypatch, tmp_path):
        rows = _study_json(monkeypatch, tmp_path, numbers.table1, "0.2")
        out = capsys.readouterr().out
        assert "proxies" in out
        assert [row["proxies"] for row in rows] == sorted(row["proxies"] for row in rows)
        assert all(row["clusters"] >= 1 for row in rows)

    def test_fig9_with_json(self, capsys, monkeypatch, tmp_path):
        payload = _study_json(monkeypatch, tmp_path, numbers.fig9, "0.12")
        assert payload["figure"] == "9"
        assert len(payload["panels"]["coordinates"]) == 4
        assert "Fig 9(a)" in capsys.readouterr().out

    def test_fig10_with_json(self, capsys, monkeypatch, tmp_path):
        payload = _study_json(monkeypatch, tmp_path, numbers.fig10, "0.12")
        assert payload["figure"] == "10"
        assert payload["strategies"] == ["mesh", "hfc_agg", "hfc_full", "oracle"]
        assert all(p["mean_delay"]["hfc_agg"] > 0 for p in payload["points"])

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

    def test_demo_has_no_json(self, capsys, tmp_path):
        """``demo`` writes nothing, so ``--json`` is a usage error, not a no-op."""
        target = tmp_path / "demo.json"
        with pytest.raises(SystemExit) as exited:
            main(["demo", "--proxies", "40", "--json", str(target)])
        assert exited.value.code == 2
        assert not target.exists()

    def test_traffic_with_json(self, capsys, tmp_path):
        target = tmp_path / "traffic.json"
        code = main([
            "traffic", "--proxies", "30", "--rate", "0.008", "--duration", "3000",
            "--seed", "3", "--json", str(target),
        ])
        assert code == 0
        steady = json.loads(target.read_text())["steady"]
        assert steady["completed_rate"] > 0

    def test_shard_with_json(self, capsys, tmp_path):
        target = tmp_path / "shard.json"
        code = main([
            "shard", "--proxies", "400", "--clusters", "8", "--shards", "2",
            "--duration", "1000", "--json", str(target),
        ])
        assert code == 0
        payload = json.loads(target.read_text())
        assert (payload["proxies"], payload["shards"]) == (400, 2)
        assert payload["completed"] == payload["requests"] > 0


class TestSerialize:
    """Figs 9-10 reach JSON field by field from their row dataclasses."""

    def test_overhead_roundtrip(self, tmp_path):
        result = run_overhead_experiment([TINY], topologies_per_size=1, seed=5)
        payload = numbers._plain({"figure": "9", "panels": vars(result)})
        target = tmp_path / "o.json"
        target.write_text(json.dumps(payload))
        loaded = json.loads(target.read_text())
        assert loaded["panels"]["service"][0]["proxies"] == 40
        assert loaded["panels"]["service"][0]["flat"] == 40.0

    def test_efficiency_roundtrip(self, tmp_path):
        result = run_path_efficiency(
            [TINY], strategies=("hfc_agg",), topologies_per_size=1,
            requests_per_topology=5, seed=6,
        )
        payload = numbers._plain({"figure": "10", "points": result.points})
        target = tmp_path / "e.json"
        target.write_text(json.dumps(payload))
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
