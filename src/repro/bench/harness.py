"""Result-table formatting for the benchmark harness.

Every experiment prints rows through :class:`ResultTable` so the benches
regenerate paper-style tables/series with a uniform look, and EXPERIMENTS.md
can quote them verbatim.
"""

from __future__ import annotations

from typing import Any, List, Sequence

__all__ = ["ResultTable", "fmt_seconds", "fmt_bytes"]


def fmt_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.2f} s"


def fmt_bytes(nbytes: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(nbytes) < 1024 or unit == "GiB":
            return f"{nbytes:.1f} {unit}" if unit != "B" else f"{int(nbytes)} B"
        nbytes /= 1024
    raise AssertionError("unreachable")


class ResultTable:
    """A fixed-column text table with a title, printed like paper tables."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([str(v) for v in values])

    def to_text(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [f"== {self.title} =="]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths, strict=False)))
        lines.append(sep)
        lines.extend(
            " | ".join(c.ljust(w) for c, w in zip(row, widths, strict=False))
            for row in self.rows
        )
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.to_text())
