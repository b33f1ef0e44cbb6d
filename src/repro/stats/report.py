"""Plain-text table rendering for the experiment harness.

Every experiment prints the same rows/series the paper's table or figure
reports; this module renders them uniformly so benchmark logs are easy to
diff against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Render an ASCII table with a title rule."""
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [len(h) for h in headers]
    for cells in rendered:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [f"== {title} =="]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for cells in rendered:
        lines.append(
            " | ".join(cell.rjust(w) for cell, w in zip(cells, widths))
        )
    return "\n".join(lines)


def format_bars(
    title: str,
    values: Sequence[tuple],
    width: int = 40,
    symbol: str = "#",
) -> str:
    """Render labelled values as a horizontal ASCII bar chart.

    ``values`` is a sequence of ``(label, value)`` with non-negative
    values; bars scale so the maximum spans ``width`` characters.
    """
    if not values:
        raise ValueError("format_bars needs at least one value")
    if any(v < 0 for _, v in values):
        raise ValueError("bar values must be non-negative")
    peak = max(v for _, v in values)
    label_width = max(len(str(label)) for label, _ in values)
    lines = [f"== {title} =="]
    for label, value in values:
        bar_len = round(width * value / peak) if peak else 0
        lines.append(
            f"{str(label).rjust(label_width)} | "
            f"{symbol * bar_len} {value:.2f}"
        )
    return "\n".join(lines)
