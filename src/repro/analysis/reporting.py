"""ASCII reporting: the benches print paper-style rows with these helpers."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def format_cell(value: Cell, decimals: int = 2) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.{decimals}f}"
    return str(value)


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
    decimals: int = 2,
) -> str:
    """Render a fixed-width table. Returns the string (callers print it)."""
    rendered: List[List[str]] = [
        [format_cell(cell, decimals) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in rendered)
    return "\n".join(lines)


def paper_vs_measured(label: str, paper: float, measured: float,
                      unit: str = "") -> str:
    """One ``label: paper X, measured Y`` comparison line."""
    suffix = f" {unit}" if unit else ""
    return (
        f"{label}: paper {format_cell(paper)}{suffix}, "
        f"measured {format_cell(measured)}{suffix}"
    )
