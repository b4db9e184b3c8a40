"""Plain-text table rendering for experiment reports.

Each experiment prints the rows it reproduces (paper statement vs
measured value); this module renders those rows in aligned monospace
tables so the output of ``python -m repro.experiments`` doubles as the
experiment log recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["TextTable", "format_count", "format_ratio"]


class TextTable:
    """Accumulates rows and renders an aligned ASCII table.

    Examples
    --------
    >>> t = TextTable(["k", "bound", "measured"])
    >>> t.add_row([1, 77, 18])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    k | bound | measured
    --+-------+---------
    1 |    77 |       18
    """

    def __init__(self, headers: Sequence[str], title: str | None = None):
        self.headers = [str(h) for h in headers]
        self.title = title
        self.rows: list[list[str]] = []

    def add_row(self, row: Iterable[object]) -> None:
        cells = [_fmt(cell) for cell in row]
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.headers)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(
            h.ljust(w) for h, w in zip(self.headers, widths)
        )
        sep = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
            lines.append("=" * max(len(self.title), len(header)))
        lines.append(header)
        lines.append(sep)
        for row in self.rows:
            lines.append(
                " | ".join(
                    cell.rjust(w) if _is_numeric(cell) else cell.ljust(w)
                    for cell, w in zip(row, widths)
                )
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def format_count(value: int | float) -> str:
    """Human-friendly integer formatting with thousands separators."""
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.2f}"
    return f"{int(value):,}"


def format_ratio(numerator: float, denominator: float) -> str:
    """``numerator / denominator`` as a short decimal, '-' if undefined."""
    if denominator == 0:
        return "-"
    return f"{numerator / denominator:.3f}"


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "nan"
        if abs(cell) >= 1e6 or (cell != 0 and abs(cell) < 1e-3):
            return f"{cell:.3e}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell.replace(",", ""))
        return True
    except ValueError:
        return False
