"""Deterministic CSV and JSON emission for every report type.

A report row is a tuple of values in the order of its *_FIELDS schema.
write_report formats every cell once, as a string, by fmt, and the JSON
mirror stores those same strings, so CSV -> JSON -> CSV is byte-identical.
fmt goes by a cell's exact type: floats use repr (shortest round-trip form),
rationals num/den, booleans true/false; other types (numpy's float64 too)
raise TypeError.  Wall-clock columns are written as 0.0 unless timings are
requested, keeping default output byte-identical across runs and machines.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .averaged import AveragedReport
from .congruence import CountReport
from .dp6 import GrowthRow

BOX_FIELDS = CountReport._fields
AVERAGED_FIELDS = (
    "l", "m", "r", "s", "t", "U", "V", "W", "Y", "scheme", "seed",
    "H", "epsilon", "S_re", "S_im", "M_re", "M_im",
    "first_O", "T_envelope", "ratio",
)
GROWTH_FIELDS = GrowthRow._fields
POINT_FIELDS = (
    "q", "a1", "a2", "a3",
    "x0", "x1", "x2", "x3", "x4", "x5", "x6", "Omega",
)
BILINEAR_FIELDS = ("M", "N", "seed", "epsilon", "abs_sum", "bound", "ratio")
VAALER_FIELDS = ("H", "samples", "seed", "violations", "worst_slack")


class _Formats(dict):
    def __missing__(self, kind):
        raise TypeError(f"no stable format for {kind.__name__}")


# one formatter per exact cell type; write_report looks cells up here inline,
# as a call to fmt per cell costs box-scan a measurable share of its wall time
_FORMATS = _Formats({bool: lambda value: "true" if value else "false", int: str, float: repr,
                     Fraction: str, str: str})  # str(Fraction(n, 1)) is str(n)


def fmt(value) -> str:
    return _FORMATS[type(value)](value)


def box_row(report: CountReport, timings: bool = False) -> tuple:
    return report if timings else report._replace(seconds=0.0)


def averaged_row(report: AveragedReport) -> tuple:
    fam = report.family
    return (fam.l, fam.m, fam.r, fam.s, fam.t, fam.U, fam.V, fam.W, fam.J.length,
            fam.scheme, report.seed, report.H, report.epsilon, report.S.real, report.S.imag,
            report.M.real, report.M.imag, report.first_O, report.T_envelope, report.ratio)


# ---- serialization ----
#
# A table is written from blocks of rows in field order.  A block is either an
# integer ndarray, one row per table row, or a sequence of rows of str cells
# (fmt output).  An integer block becomes its CSV text by _int_csv, a str
# block in one %-formatting call.  The CSV writer never quotes, so it
# refuses a str cell that csv would have to quote: one holding ',', '"', CR
# or LF, or the lone cell "" of a one-column row.

_MINUS, _COMMA, _NEWLINE = (np.uint8(ord(c)) for c in "-,\n")


def _int_csv(block: np.ndarray) -> str:
    """The CSV text of an (n, k) integer block, as str(cell) joined by ','
    within a row and ending each row with a newline.

    Cell i owns row i of one (cells, width + 2) uint8 matrix, width the
    digit count of the widest magnitude.  Its digits fill slots 1..width
    from the right, by q = m // 10, d = m - 10 q; the slots left of its
    first digit stay 0, but for a '-' just left of it in a negative cell;
    the last slot holds ',' or '\n'.  Dropping every 0 byte leaves the
    text.  Magnitudes are |v| read as uint64, so INT64_MIN is 2^63, and are
    narrowed to uint32 when the widest has at most 9 digits (< 2^32).
    Memory: width + 2 bytes per cell, plus 1-D temporaries of one value
    per cell."""
    v = block.astype(np.int64, casting="safe", copy=False).ravel()
    if not v.size:
        return ""
    m = np.abs(v).view(np.uint64)
    width = len(str(int(m.max())))
    if width <= 9:
        m = m.astype(np.uint32)
    ten, zero = m.dtype.type(10), m.dtype.type(ord("0"))
    out = np.zeros((v.size, width + 2), dtype=np.uint8)
    digits = np.ones(v.size, dtype=np.uint8)  # of each cell; 0 has one
    for j in range(width, 0, -1):
        q = m // ten
        d = m - q * ten
        d += zero
        if j < width:  # slots left of a cell's first digit stay 0
            live = m != 0
            d *= live
            digits += live
        out[:, j] = d
        m = q
    neg = np.flatnonzero(v < 0)
    out[neg, width - digits[neg].astype(np.intp)] = _MINUS
    out[:, width + 1] = _COMMA
    out[block.shape[1] - 1 :: block.shape[1], width + 1] = _NEWLINE
    flat = out.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def _csv_lines(fields: list[str], block) -> str:
    n, k = len(block), len(fields)
    if isinstance(block, np.ndarray):
        if block.ndim != 2 or block.shape[1] != k:
            raise ValueError(f"integer block of shape {block.shape} for {k} fields")
        return _int_csv(block)
    cells = [cell for row in block for cell in row]
    text = (",".join(["%s"] * k) + "\n") * n % tuple(cells)
    # the template alone writes n (k - 1) commas and n newlines
    if (text.count(",") + text.count("\n") != n * k or '"' in text or "\r" in text
            or (k == 1 and "" in cells)):
        i = next(i for i, cell in enumerate(cells)
                 if any(c in cell for c in ',"\r\n') or (k == 1 and cell == ""))
        raise ValueError(f"CSV field {fields[i % k]!r}: cell {cells[i]!r} would need quoting")
    return text


def json_dump(doc) -> str:
    """The JSON text of every report: two-space indent, trailing newline.
    A nan or infinite float raises ValueError, as JSON has no such value."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_report(
    path: str,
    fmt_name: str,
    description: str,
    fields: Iterable[str],
    rows: list[Sequence],
) -> None:
    """Write rows of values, each in field order, each cell as fmt formats
    it; a row with more or fewer values than fields raises ValueError."""
    fields = list(fields)
    cells = [[_FORMATS[type(value)](value) for value in row] for row in rows]
    for row in cells:
        if len(row) != len(fields):
            raise ValueError(f"report row of {len(row)} values for {len(fields)} fields: {row}")
    write_table(path, fmt_name, description, fields, [cells])


def write_table(
    path: str,
    fmt_name: str,
    description: str,
    fields: Iterable[str],
    blocks: Iterable[np.ndarray | Sequence[Sequence[str]]],
) -> int:
    """Write a table given as blocks of rows, integer ndarrays or rows of
    str cells, and return its number of rows.  CSV is written block by
    block, so only one block and its text need exist at a time (JSON holds
    every row until it writes); a str cell that would need quoting raises
    ValueError naming its field, before its block is written."""
    fields = list(fields)
    if fmt_name == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(f"# {description}\n")
            fh.write(_csv_lines(fields, [fields]))
            rows = 0
            for block in blocks:
                fh.write(_csv_lines(fields, block))
                rows += len(block)
            return rows
    if fmt_name == "json":
        rows = [dict(zip(fields, map(str, row))) for block in blocks
                for row in (block.tolist() if isinstance(block, np.ndarray) else block)]
        write_text(path, json_dump({"description": description, "fields": fields, "rows": rows}))
        return len(rows)
    raise ValueError(f"unknown output format {fmt_name!r}")


def write_text(path: str, text: str) -> None:
    """Write text to path as it is, with no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
