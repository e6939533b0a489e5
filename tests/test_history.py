"""``benchmarks/history.jsonl`` holds what ``scripts/ab_e2e.py --record`` writes.

The trajectory file is appended to by hand-run A/B comparisons (``make ab
... RECORD=benchmarks/history.jsonl``) and read by nobody in CI, so a
malformed line or a drifted key would rot unseen. One row is recorded here
through the script itself, over canned runs, and every committed line must
have its shape.
"""

import importlib.util
import json
import math
import pathlib
from datetime import datetime

ROOT = pathlib.Path(__file__).resolve().parent.parent
HISTORY = ROOT / "benchmarks" / "history.jsonl"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
VERDICTS = {"gain", "ok", "unresolved", "WORSE"}


def _shape(value):
    """The key structure of a row: every leaf replaced by None."""
    if isinstance(value, dict):
        return {key: _shape(child) for key, child in value.items()}
    if isinstance(value, list):
        return [_shape(child) for child in value]
    return None


def _recorded_row(tmp_path, monkeypatch, capsys):
    """One row as ``--record`` writes it today: two pairs of canned runs."""
    spec = importlib.util.spec_from_file_location("ab_e2e", ROOT / "scripts" / "ab_e2e.py")
    ab_e2e = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_e2e)
    values = iter(range(1, 1000))

    def canned(root, manifest, workload, seed):
        return {
            "failed": 0,
            "correct": True,
            "sim_digest": "d",
            "metrics": {m["name"]: {"value": float(next(values))} for m in manifest["end_to_end"]},
        }

    monkeypatch.setattr(ab_e2e, "run_once", canned)
    out = tmp_path / "row.jsonl"
    ab_e2e.main([str(ROOT), "--pairs", "2", "--record", str(out)])
    capsys.readouterr()
    (line,) = out.read_text().splitlines()
    return json.loads(line)


def test_every_line_is_a_row_record_writes(tmp_path, monkeypatch, capsys):
    model = _recorded_row(tmp_path, monkeypatch, capsys)
    workloads = {workload["name"] for workload in MANIFEST["workloads"]}
    assert set(model["workloads"]) == workloads
    cell = _shape(next(iter(model["workloads"].values())))
    top = {key: keys for key, keys in _shape(model).items() if key != "workloads"}

    lines = HISTORY.read_text().splitlines()
    assert lines, "the committed trajectory is empty"
    for number, line in enumerate(lines, 1):
        row = json.loads(line)
        where = f"history.jsonl line {number}"
        assert {k: v for k, v in _shape(row).items() if k != "workloads"} == top, where
        datetime.fromisoformat(row["recorded_at"])
        assert row["pairs"] >= 1, where
        # a row may cover one workload (`make ab W=...`), never an unknown one
        assert row["workloads"] and set(row["workloads"]) <= workloads, where
        for name, table in row["workloads"].items():
            assert _shape(table) == cell, f"{where}, {name}"
            for metric, entry in table["metrics"].items():
                for side in ("ref", "change"):
                    q1, median, q3 = entry[side]
                    assert q1 <= median <= q3 and math.isfinite(q3), f"{where}, {name}.{metric}"
                assert 0 <= entry["won"] <= row["pairs"], f"{where}, {name}.{metric}"
                assert entry["verdict"] in VERDICTS, f"{where}, {name}.{metric}"
