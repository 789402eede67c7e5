"""Deterministic CSV and JSON emission for every report type.

A report row is a tuple of values in the order of its *_FIELDS schema.
write_table formats every cell once, as a string, by fmt, and the JSON
mirror stores those same strings, so CSV -> JSON -> CSV is byte-identical.
fmt goes by a cell's exact type: floats use repr (shortest round-trip form),
rationals num/den, booleans true/false; other types (numpy's float64 too)
raise TypeError.  Wall-clock columns are written as 0.0 unless timings are
requested, keeping default output byte-identical across runs and machines.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .averaged import AveragedReport
from .congruence import CountReport
from .dp6 import GrowthRow

BOX_FIELDS = CountReport._fields
AVERAGED_FIELDS = ("l", "m", "r", "s", "t", "U", "V", "W", "Y", "scheme", "seed", "H", "epsilon",
                   "S_re", "S_im", "M_re", "M_im", "first_O", "T_envelope", "ratio")
GROWTH_FIELDS = GrowthRow._fields
POINT_FIELDS = ("q", "a1", "a2", "a3", "x0", "x1", "x2", "x3", "x4", "x5", "x6", "Omega")
BILINEAR_FIELDS = ("M", "N", "seed", "epsilon", "abs_sum", "bound", "ratio")
VAALER_FIELDS = ("H", "samples", "seed", "violations", "worst_slack")


class _Formats(dict):
    def __missing__(self, kind):
        raise TypeError(f"no stable format for {kind.__name__}")


# one formatter per exact cell type; write_table looks cells up here inline,
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
# integer ndarray, one row per table row, or a sequence of rows of values (a
# str cell formats as itself).  An integer block becomes its CSV text by
# _int_csv, any block its CSV or JSON text in one %-formatting call.  The CSV
# writer never quotes, so it refuses a cell that csv would have to quote: one
# holding ',', '"', CR or LF, or the lone cell "" of a one-column row.

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


def _value_cells(k: int, block: Sequence[Sequence]) -> list[str]:
    """The cells of value rows, each as fmt formats it, refusing a ragged row."""
    for row in block:
        if len(row) != k:
            raise ValueError(f"report row of {len(row)} values for {k} fields:"
                             f" {[fmt(value) for value in row]}")
    return [_FORMATS[type(value)](value) for row in block for value in row]


def _csv_lines(fields: list[str], block) -> str:
    n, k = len(block), len(fields)
    if isinstance(block, np.ndarray):
        if block.ndim != 2 or block.shape[1] != k:
            raise ValueError(f"integer block of shape {block.shape} for {k} fields")
        return _int_csv(block)
    cells = _value_cells(k, block)
    text = (",".join(["%s"] * k) + "\n") * n % tuple(cells)
    # the template alone writes n (k - 1) commas and n newlines
    if (text.count(",") + text.count("\n") != n * k or '"' in text or "\r" in text
            or (k == 1 and "" in cells)):
        i = next(i for i, cell in enumerate(cells)
                 if any(c in cell for c in ',"\r\n') or (k == 1 and cell == ""))
        raise ValueError(f"CSV field {fields[i % k]!r}: cell {cells[i]!r} would need quoting")
    return text


def _json_rows(fields: list[str], block) -> str:
    """A block's rows as json_dump indents them, joined by ',\n'; each cell
    a JSON string, escaped by json.dumps (an integer's CSV text needs none)."""
    if isinstance(block, np.ndarray):
        cells, cell = _csv_lines(fields, block).replace(",", "\n").split(), '"%s"'
    else:
        cells, cell = list(map(json.dumps, _value_cells(len(fields), block))), "%s"
    row = ",\n".join(f"      {json.dumps(f).replace('%', '%%')}: {cell}" for f in fields)
    return ",\n".join([f"    {{\n{row}\n    }}"] * len(block)) % tuple(cells)


def json_dump(doc) -> str:
    """The JSON text of every report: two-space indent, trailing newline.
    A nan or infinite float raises ValueError, as JSON has no such value."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_table(path: str, fmt_name: str, description: str, fields: Iterable[str],
                blocks: Iterable[np.ndarray | Sequence[Sequence]]) -> int:
    """Write a table given as blocks of rows, integer ndarrays or rows of
    values, block by block, and return its number of rows; the JSON is
    json_dump's text of the whole table.  ValueError is raised before the
    file is opened for an unknown format or a bad first block, and before a
    later block is written for a bad one: one of the wrong shape, a ragged
    row or a cell that CSV would quote."""
    fields = list(fields)
    if fmt_name == "csv":
        head, lines = f"# {description}\n" + _csv_lines(fields, [fields]), _csv_lines
        lead = sep = close = empty = ""
    elif fmt_name == "json":
        # the whole table's text with no rows, cut where its rows begin
        table = {"description": description, "fields": fields, "rows": []}
        head, end = json_dump(table).rsplit("[]", 1)
        lines, lead, sep, close, empty = _json_rows, "[\n", ",\n", "\n  ]" + end, "[]" + end
    else:
        raise ValueError(f"unknown output format {fmt_name!r}")
    texts = ((lines(fields, block), len(block)) for block in blocks)
    texts = chain([next(texts, ("", 0))], texts)  # the first text is made before the file opens
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write(head)
        for text, n in texts:
            if text:
                fh.write((sep if rows else lead) + text)
            rows += n
            del text  # or it lives on while the next block's text is made
        fh.write(close if rows else empty)
    return rows


def write_text(path: str, text: str) -> None:
    """Write text to path as it is, with no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
