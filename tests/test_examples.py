"""Smoke tests: every example script must run cleanly end to end."""

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=400,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "50", "3")
        assert "hierarchical" in out
        assert "true delay" in out
        assert "cluster-level path (CSP)" in out

    def test_multimedia_pipeline(self):
        out = run_example("multimedia_pipeline.py", "3")
        assert "watermark" in out
        assert "End-to-end true delay" in out

    def test_web_document_service(self):
        out = run_example("web_document_service.py", "3")
        assert "Chosen configuration" in out
        assert "format" in out

    def test_scaling_study(self):
        out = run_example("scaling_study.py", "0.1")
        assert "Fig 9(a)" in out
        assert "Fig 10" in out

    def test_churn_and_qos(self):
        out = run_example("churn_and_qos.py", "3")
        assert "dynamic membership" in out
        assert "bandwidth-aware routing" in out

    def test_protocol_walkthrough(self):
        out = run_example("protocol_walkthrough.py", "3")
        assert "converged at" in out
        assert "setup latency" in out

    def test_three_level_hierarchy(self):
        out = run_example("three_level_hierarchy.py", "60", "3")
        assert "super-clusters" in out
        assert "three-level" in out

    def test_failure_recovery(self):
        out = run_example("failure_recovery.py", "3")
        assert "packets lost" in out
        assert "new path" in out

