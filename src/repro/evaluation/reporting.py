"""Plain-text reporting helpers for experiment results.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers render them as aligned text tables so the
benchmark output is directly comparable with the paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None) -> str:
    """Render rows as an aligned, pipe-separated text table.

    Every row must have at most ``len(headers)`` cells; a wider row raises a
    :class:`ValueError` naming the offending row instead of failing later
    with an opaque ``IndexError`` during alignment.  Shorter rows are fine
    (missing cells simply render empty).
    """
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row_index, row in enumerate(rendered_rows):
        if len(row) > len(widths):
            raise ValueError(
                f"row {row_index} has {len(row)} cells but the table has "
                f"{len(widths)} headers: {row!r}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)

