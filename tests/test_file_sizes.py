"""The file-size ratchet: no module under ``src/`` joins the files over 700
lines, and none of those grows. Lower a ceiling when its file shrinks; a
file that falls to 700 lines or fewer leaves the list."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LIMIT = 700

#: the files over LIMIT lines, each at its ceiling
CEILINGS = {
    "membership/churn.py": 783,
}


def line_counts():
    return {
        path.relative_to(SRC).as_posix(): len(path.read_text(encoding="utf-8").splitlines())
        for path in SRC.rglob("*.py")
    }


def test_no_file_joins_the_long_ones():
    long = {name for name, lines in line_counts().items() if lines > LIMIT}
    assert long <= set(CEILINGS), f"over {LIMIT} lines: {sorted(long - set(CEILINGS))}"


def test_no_long_file_grows():
    counts = line_counts()
    grown = {name: counts[name] for name, ceiling in CEILINGS.items() if counts[name] > ceiling}
    assert not grown, f"grown past their ceilings {CEILINGS}: {grown}"
