"""Loader for the embedded reference-table values.

The CSV ships the published table cells with provenance columns
(table id, row label, column label).  Values are kept as the printed strings
so consumers can recover both the float and the printed precision; cells
flagged ``suspect`` are ones whose printed value provably disagrees with the
defining formulas (typos or integrator noise in the source tables) and are
excluded from strict golden comparisons.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from importlib import resources

__all__ = ["ReferenceCell", "load_reference", "printed_tolerance"]


@dataclass(frozen=True)
class ReferenceCell:
    table: str
    row_label: str
    col_label: str
    printed: str
    suspect: bool

    @property
    def value(self) -> float:
        return float(self.printed)

    @property
    def tolerance(self) -> float:
        return printed_tolerance(self.printed)


def printed_tolerance(printed: str) -> float:
    """Half a unit in the last printed decimal place, whose power of ten is the
    exponent of the printed string read as a ``Decimal``."""
    return 0.5 * 10.0 ** Decimal(printed).as_tuple().exponent


@lru_cache(maxsize=1)
def load_reference() -> dict[tuple[str, str, str], ReferenceCell]:
    cells: dict[tuple[str, str, str], ReferenceCell] = {}
    data = resources.files("vgpricer.data").joinpath("reference_tables.csv")
    with data.open("r", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            cell = ReferenceCell(
                table=row["table"],
                row_label=row["row_label"],
                col_label=row["col_label"],
                printed=row["value"],
                suspect=row["suspect"] == "1",
            )
            cells[(cell.table, cell.row_label, cell.col_label)] = cell
    return cells
