"""``scripts/build_scale.py``: the build table, and the lifecycle table that
``--lifecycle`` adds after it.

The lifecycle's message columns are read from the simulator's registry; the
protocol's own ``ProtocolReport`` of the same convergence, run again on a
simulator of its own, must count the same messages kind for kind.
"""

import importlib.util
from pathlib import Path

from repro.core import HFCFramework
from repro.state.protocol import StateDistributionProtocol

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("build_scale", ROOT / "scripts" / "build_scale.py")
build_scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(build_scale)


def tables(out: str):
    """Each printed ASCII table (a rule, the heads, a rule, the rows, a rule)
    as ``(heads, rows)``, rows as dicts."""
    found, rules, block = [], 0, []
    for line in out.splitlines():
        if line.startswith("+"):
            rules += 1
            if rules == 3:
                heads, *rows = block
                found.append((heads, [dict(zip(heads, row)) for row in rows]))
                rules, block = 0, []
        elif line.startswith("|"):
            block.append([cell.strip() for cell in line.strip("|").split("|")])
    return found


def test_without_the_flag_one_build_table(capsys):
    assert build_scale.main(["100"]) == 0
    ((heads, rows),) = tables(capsys.readouterr().out)
    assert heads == [head for head, _ in build_scale.COLUMNS]
    assert [row["n"] for row in rows] == ["100"]


def test_the_lifecycle_counts_what_the_protocol_report_counts(capsys):
    assert build_scale.main(["--lifecycle", "100"]) == 0
    (build_heads, _), (heads, (row,)) = tables(capsys.readouterr().out)
    assert build_heads == [head for head, _ in build_scale.COLUMNS]
    kinds = heads[len(build_scale.LIFECYCLE_HEAD) : -len(build_scale.LIFECYCLE_TAIL)]

    framework = HFCFramework.build(proxy_count=100, seed=11)
    report = StateDistributionProtocol(
        framework.hfc, seed=build_scale.LIFECYCLE_SEED, refresh_every=build_scale.REFRESH_EVERY
    ).run()
    assert {kind: int(row[kind]) for kind in kinds} == report.messages_by_kind
    assert float(row["converged_ms"]) == report.converged_at
    assert row["audit"] == "True"
    assert float(row["requests_per_s"]) > 0 and float(row["recovery_ms"]) >= 0
