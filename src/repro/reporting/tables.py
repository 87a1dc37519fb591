"""A small, dependency-free text-table renderer."""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


class TextTable:
    """Fixed-column table with per-column alignment.

    >>> table = TextTable(["name", "count"], aligns=["<", ">"])
    >>> table.add_row(["alpha", 10])
    >>> print(table.render())  # doctest: +NORMALIZE_WHITESPACE
    name  | count
    ------+------
    alpha |    10
    """

    def __init__(self, headers: Sequence[str], *, aligns: Optional[Sequence[str]] = None):
        self.headers = [str(header) for header in headers]
        if aligns is None:
            aligns = ["<"] * len(self.headers)
        if len(aligns) != len(self.headers):
            raise ValueError("aligns must match headers")
        for align in aligns:
            if align not in ("<", ">", "^"):
                raise ValueError(f"invalid alignment {align!r}")
        self.aligns = list(aligns)
        self._rows: List[List[str]] = []

    def add_row(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self._rows.append([self._format(cell) for cell in row])

    @staticmethod
    def _format(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:,.1f}"
        if isinstance(cell, int):
            return f"{cell:,}"
        return str(cell)

    def render(self) -> str:
        widths = [len(header) for header in self.headers]
        for row in self._rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [
            " | ".join(
                f"{header:{align}{width}}"
                for header, align, width in zip(self.headers, self.aligns, widths)
            ).rstrip()
        ]
        lines.append("-+-".join("-" * width for width in widths))
        for row in self._rows:
            lines.append(
                " | ".join(
                    f"{cell:{align}{width}}"
                    for cell, align, width in zip(row, self.aligns, widths)
                ).rstrip()
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
