"""``benchmarks/paper_numbers.json`` is live, simulated-only, and what the docs cite.

The file is the one committed store of the repo's simulated numbers
(``make numbers`` regenerates it, CI holds it to an exact ``git diff``).
These tests keep the cheap half of that gate inside ``pytest``: a change to
routing or protocol outcomes that forgets ``make numbers`` fails here.
"""

import json
import math
import pathlib
import re

import pytest

from benchmarks import numbers

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEXT = numbers.PATH.read_text()
COMMITTED = json.loads(TEXT)


def _walk(value, path=""):
    """Every (dotted path, leaf-or-container) pair under *value*."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _walk(child, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _walk(child, f"{path}.{index}")


@pytest.fixture(scope="module")
def small_run():
    """The two cheapest studies of production routing and state, at ``small``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SCALE", "small")
        yield numbers.run([numbers.hierarchy_depth, numbers.state_bytes])


def test_committed_sections_match_a_fresh_run(small_run):
    for study, result in small_run.items():
        assert result == COMMITTED["small"][study], study


def test_a_study_is_equal_run_to_run(small_run, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "small")
    again = numbers.run([numbers.hierarchy_depth])
    assert again["hierarchy_depth"] == small_run["hierarchy_depth"]


def test_file_holds_simulated_numbers_only():
    host_clock = re.compile(r"seconds|_s$|event_rate|events_per_second|generated_at|wall")
    for path, value in _walk(COMMITTED):
        key = path.rsplit(".", 1)[-1]
        assert not host_clock.search(key), f"{path} looks like a host-clock field"
        if isinstance(value, float):
            assert math.isfinite(value), path


def test_file_was_written_by_the_driver():
    assert json.dumps(COMMITTED, indent=2, sort_keys=True) + "\n" == TEXT


def test_both_scales_hold_the_same_studies_and_keys():
    def keys(section):
        # list positions dropped: a sweep may hold more points at one scale
        return {re.sub(r"\.\d+(?=\.|$)", "", path) for path, _ in _walk(section)}

    assert set(COMMITTED) == {"small", "full"}
    assert set(COMMITTED["small"]) == {s.__name__ for s in numbers.STUDIES}
    assert keys(COMMITTED["small"]) == keys(COMMITTED["full"])


def test_every_number_the_docs_cite_exists():
    paths = {path for path, _ in _walk(COMMITTED)}
    cited = []
    for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md"):
        for ref in re.findall(r"numbers:((?:small|full)(?:\.\w+)+)", (ROOT / name).read_text()):
            cited.append(ref)
            assert ref in paths, f"{name} cites numbers:{ref}, which is not in the file"
    assert cited, "the docs cite no number by its numbers: path"


def test_only_the_named_scales_are_written(tmp_path, monkeypatch):
    target = tmp_path / "numbers.json"
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    results = numbers.run([numbers.shard])
    assert results["shard"]["completed"] == results["shard"]["requests"]
    assert numbers.write(results, target) is False
    assert not target.exists()

    target.write_text(json.dumps({"full": {"kept": 1}}))
    monkeypatch.setenv("REPRO_SCALE", "small")
    assert numbers.write(results, target) is True
    assert json.loads(target.read_text()) == {"full": {"kept": 1}, "small": results}
