"""The README's quickstart snippet must actually run, and the docs name only
commands that exist."""

import pathlib
import re

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_quickstart_snippet_executes():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README has no python code block"
    snippet = blocks[0]
    # keep the snippet cheap: shrink the overlay it builds
    snippet = snippet.replace("proxy_count=100", "proxy_count=40")
    namespace = {}
    exec(compile(snippet, "README-quickstart", "exec"), namespace)  # noqa: S102
    assert "path" in namespace


def test_architecture_block_matches_source_tree():
    """Every subpackage the README names must exist (and vice versa)."""
    text = README.read_text()
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    named = set(re.findall(r"^  (\w+)/", text, flags=re.MULTILINE))
    actual = {
        p.name for p in src.iterdir()
        if p.is_dir() and not p.name.startswith("__")
    }
    assert named <= actual, f"README names missing packages: {named - actual}"
    assert actual <= named | {"util"}, (
        f"packages undocumented in README: {actual - named - {'util'}}"
    )


def test_docs_name_only_real_commands():
    """Every ``python -m repro <command>`` (or ``a|b|c``) the docs show is a subcommand."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    named = set()
    for doc in ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"):
        for group in re.findall(r"python -m repro\s+([a-z][\w|\\]*)", (ROOT / doc).read_text()):
            named |= {name for name in re.split(r"\\?\|", group) if name}
    assert named, "the docs show no command"
    assert named <= set(sub.choices), f"docs name missing commands: {named - set(sub.choices)}"


def test_example_list_matches_examples_dir():
    """README's ``python examples/<file>.py`` lines name exactly the scripts in ``examples/``."""
    listed = re.findall(r"^python examples/(\w+\.py)", README.read_text(), flags=re.MULTILINE)
    assert len(listed) == len(set(listed)), "README lists an example twice"
    actual = {p.name for p in (ROOT / "examples").glob("*.py")}
    assert set(listed) == actual, (
        f"README lists missing examples {set(listed) - actual}, "
        f"omits {actual - set(listed)}"
    )


def test_changes_entries_stay_short():
    """Every numbered CHANGES.md entry from the 31st on, the first written
    under the cap, is at most 1,500 characters: the detail belongs in
    DESIGN.md and the history file."""
    text = (ROOT / "CHANGES.md").read_text()
    entries = [
        (int(match.group(1)), len(match.group(0)))
        for match in re.finditer(r"^- PR (\d+):.*$", text, flags=re.MULTILINE)
    ]
    assert entries, "CHANGES.md has no numbered entry"
    long = [(number, size) for number, size in entries if number >= 31 and size > 1500]
    assert not long, f"CHANGES.md entries over 1,500 characters (number, length): {long}"
