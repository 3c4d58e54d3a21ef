"""Minimal monospace table renderer for experiment output.

The experiments print paper-style tables (Table I, II, III) to stdout;
this renderer keeps them aligned without pulling in external dependencies.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


class Table:
    """An append-only table with a header row and aligned column rendering.

    >>> t = Table(["code", "wall (min)"], title="Table III")
    >>> t.add_row(["1 (A)", 725.54])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(
        self,
        columns: Sequence[str],
        *,
        title: str | None = None,
        align: Sequence[str] | None = None,
    ) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = [str(c) for c in columns]
        self.title = title
        if align is None:
            align = ["l"] + ["r"] * (len(columns) - 1)
        if len(align) != len(columns):
            raise ValueError("align must have one entry per column")
        for a in align:
            if a not in ("l", "r", "c"):
                raise ValueError(f"unknown alignment {a!r}")
        self.align = list(align)
        self._rows: list[list[str]] = []

    def add_row(self, row: Iterable[Any]) -> None:
        """Append a row; values are stringified with float rounding."""
        cells = [self._fmt(v) for v in row]
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self._rows.append(cells)

    @staticmethod
    def _fmt(v: Any) -> str:
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return f"{v:.2f}"
        return str(v)

    @property
    def rows(self) -> list[list[str]]:
        """Rendered string cells (copy; mutation does not affect the table)."""
        return [list(r) for r in self._rows]

    def render(self) -> str:
        """Render the table as a monospace string block."""
        widths = [len(c) for c in self.columns]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_row(cells: Sequence[str]) -> str:
            out = []
            for cell, w, a in zip(cells, widths, self.align):
                if a == "l":
                    out.append(cell.ljust(w))
                elif a == "r":
                    out.append(cell.rjust(w))
                else:
                    out.append(cell.center(w))
            return "| " + " | ".join(out) + " |"

        sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt_row(self.columns))
        lines.append(sep)
        lines.extend(fmt_row(r) for r in self._rows)
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Render as simple CSV (no quoting of embedded commas needed here)."""
        out = [",".join(self.columns)]
        out.extend(",".join(r) for r in self._rows)
        return "\n".join(out)


def pct_delta(measured: float, paper: float) -> str:
    """Signed relative deviation of ``measured`` from ``paper``, one decimal."""
    return f"{(measured - paper) / paper * 100:+.1f}%"
