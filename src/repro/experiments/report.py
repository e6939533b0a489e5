"""Plain-text tables for the experiment harnesses' rows.

``benchmarks/numbers.py`` prints every study's rows through
:func:`ascii_table`, so the output stays consistent and dependency-free.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render *rows* as a fixed-width ASCII table with *headers*."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    out: List[str] = [line]
    out.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
    out.append(line)
    for row in str_rows:
        out.append(
            "| " + " | ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " |"
        )
    out.append(line)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
