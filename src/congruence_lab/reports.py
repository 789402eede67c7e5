"""Deterministic CSV and JSON emission for every report type.

Cells are formatted once, as strings, and the JSON mirror stores those same
strings, so CSV -> JSON -> CSV is byte-identical.  Floats use repr (shortest
round-trip form), rationals use num/den, booleans use true/false.  Wall-clock
columns are written as 0.0 unless timings are explicitly requested, keeping
default output byte-identical across runs and machines.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .averaged import AveragedReport
from .congruence import CountReport
from .dp6 import GrowthRow

BOX_FIELDS = (
    "a", "b", "q", "e", "f", "X", "Y",
    "exact", "main_term", "envelope", "ratio", "seconds",
)
AVERAGED_FIELDS = (
    "l", "m", "r", "s", "t", "U", "V", "W", "Y", "scheme", "seed",
    "H", "epsilon", "S_re", "S_im", "M_re", "M_im",
    "first_O", "T_envelope", "ratio",
)
GROWTH_FIELDS = ("B", "t", "count", "normalized")
POINT_FIELDS = (
    "q", "a1", "a2", "a3",
    "x0", "x1", "x2", "x3", "x4", "x5", "x6", "Omega",
)
BILINEAR_FIELDS = ("M", "N", "seed", "epsilon", "abs_sum", "bound", "ratio")
VAALER_FIELDS = ("H", "samples", "seed", "violations", "worst_slack")


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"no stable format for {type(value).__name__}")


def box_row(report: CountReport, timings: bool = False) -> dict[str, str]:
    inst = report.instance
    return {
        "a": fmt(inst.a),
        "b": fmt(inst.b),
        "q": fmt(inst.q),
        "e": fmt(inst.e),
        "f": fmt(inst.f),
        "X": fmt(inst.X),
        "Y": fmt(inst.Y),
        "exact": fmt(report.exact),
        "main_term": fmt(report.main_term),
        "envelope": fmt(report.envelope),
        "ratio": fmt(report.ratio),
        "seconds": fmt(report.seconds if timings else 0.0),
    }


def averaged_row(report: AveragedReport) -> dict[str, str]:
    fam = report.family
    return {
        "l": fmt(fam.l),
        "m": fmt(fam.m),
        "r": fmt(fam.r),
        "s": fmt(fam.s),
        "t": fmt(fam.t),
        "U": fmt(fam.U),
        "V": fmt(fam.V),
        "W": fmt(fam.W),
        "Y": fmt(fam.J.length),
        "scheme": fam.scheme,
        "seed": fmt(fam.seed),
        "H": fmt(report.H),
        "epsilon": fmt(report.epsilon),
        "S_re": fmt(report.S.real),
        "S_im": fmt(report.S.imag),
        "M_re": fmt(report.M.real),
        "M_im": fmt(report.M.imag),
        "first_O": fmt(report.first_O),
        "T_envelope": fmt(report.T_envelope),
        "ratio": fmt(report.ratio),
    }


def growth_row(row: GrowthRow) -> dict[str, str]:
    return {
        "B": fmt(row.B),
        "t": fmt(row.t),
        "count": fmt(row.count),
        "normalized": fmt(row.normalized),
    }


# ---- serialization ----
#
# A table is written from blocks of rows in field order.  A block is either an
# integer ndarray, one row per table row, or a sequence of rows of str cells
# (fmt output).  Each block becomes its CSV text in one %-formatting call.
# The CSV writer never quotes, so it refuses a str cell that csv would have
# to quote: one holding ',', '"', CR or LF, or the lone cell "" of a
# one-column row.

def _cells(fields: list[str], rows: Iterable[Mapping[str, str]]) -> list[list[str]]:
    return [[row[f] for f in fields] for row in rows]


def _csv_lines(fields: list[str], block) -> str:
    n, k = len(block), len(fields)
    if isinstance(block, np.ndarray):
        return (",".join(["%d"] * k) + "\n") * n % tuple(block.ravel().tolist())
    cells = [cell for row in block for cell in row]
    text = (",".join(["%s"] * k) + "\n") * n % tuple(cells)
    # the template alone writes n (k - 1) commas and n newlines
    if (text.count(",") + text.count("\n") != n * k or '"' in text or "\r" in text
            or (k == 1 and "" in cells)):
        i = next(i for i, cell in enumerate(cells)
                 if any(c in cell for c in ',"\r\n') or (k == 1 and cell == ""))
        raise ValueError(f"CSV field {fields[i % k]!r}: cell {cells[i]!r} would need quoting")
    return text


def _write_csv(fh, description: str, fields: list[str],
               blocks: Iterable[np.ndarray | Sequence[Sequence[str]]]) -> None:
    fh.write(f"# {description}\n")
    fh.write(_csv_lines(fields, [fields]))
    for block in blocks:
        fh.write(_csv_lines(fields, block))


def _json_table(description: str, fields: list[str],
                blocks: Iterable[np.ndarray | Sequence[Sequence[str]]]) -> str:
    rows = [dict(zip(fields, map(str, row))) for block in blocks
            for row in (block.tolist() if isinstance(block, np.ndarray) else block)]
    return json_dump({"description": description, "fields": fields, "rows": rows})


def json_dump(doc) -> str:
    """The JSON text of every report: two-space indent, trailing newline.
    A nan or infinite float raises ValueError, as JSON has no such value."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_report(
    path: str,
    fmt_name: str,
    description: str,
    fields: Iterable[str],
    rows: Iterable[Mapping[str, str]],
) -> None:
    fields = list(fields)
    write_table(path, fmt_name, description, fields, [_cells(fields, rows)])


def write_table(
    path: str,
    fmt_name: str,
    description: str,
    fields: Iterable[str],
    blocks: Iterable[np.ndarray | Sequence[Sequence[str]]],
) -> None:
    """Write a table given as blocks of rows: integer ndarrays or rows of
    str cells.  CSV is written block by block, so only one block's text need
    exist at a time; a str cell that would need quoting raises ValueError
    naming its field, before its block is written."""
    fields = list(fields)
    if fmt_name == "csv":
        with open(path, "w", newline="") as fh:
            _write_csv(fh, description, fields, blocks)
    elif fmt_name == "json":
        write_text(path, _json_table(description, fields, blocks))
    else:
        raise ValueError(f"unknown output format {fmt_name!r}")


def write_text(path: str, text: str) -> None:
    """Write text to path as it is, with no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
