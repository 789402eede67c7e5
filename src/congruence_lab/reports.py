"""Deterministic CSV and JSON emission for every report type.

Cells are formatted once, as strings, and the JSON mirror stores those same
strings, so CSV -> JSON -> CSV is byte-identical.  Floats use repr (shortest
round-trip form), rationals use num/den, booleans use true/false.  Wall-clock
columns are written as 0.0 unless timings are explicitly requested, keeping
default output byte-identical across runs and machines.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Iterable, Mapping

from .averaged import AveragedReport
from .congruence import CountReport
from .dp6 import GrowthRow, PointRecord

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


def point_row(rec: PointRecord) -> dict[str, str]:
    sp = rec.special
    x = rec.surface.x
    row = {
        "q": fmt(sp.q),
        "a1": fmt(sp.alpha1),
        "a2": fmt(sp.alpha2),
        "a3": fmt(sp.alpha3),
    }
    for i, c in enumerate(x):
        row[f"x{i}"] = fmt(c)
    row["Omega"] = fmt(rec.omega)
    return row


# ---- serialization ----

def csv_text(
    description: str, fields: Iterable[str], rows: Iterable[Mapping[str, str]]
) -> str:
    fields = list(fields)
    buf = io.StringIO()
    buf.write(f"# {description}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([row[f] for f in fields])
    return buf.getvalue()


def json_text(
    description: str, fields: Iterable[str], rows: Iterable[Mapping[str, str]]
) -> str:
    fields = list(fields)
    doc = {
        "description": description,
        "fields": fields,
        "rows": [{f: row[f] for f in fields} for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_csv_text(text: str) -> tuple[str, list[str], list[dict[str, str]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing description line")
    description = lines[0][2:]
    reader = csv.reader(lines[1:])
    fields = next(reader)
    rows = [dict(zip(fields, rec)) for rec in reader]
    return description, fields, rows


def parse_json_text(text: str) -> tuple[str, list[str], list[dict[str, str]]]:
    doc = json.loads(text)
    return doc["description"], list(doc["fields"]), [dict(r) for r in doc["rows"]]


def write_report(
    path: str,
    fmt_name: str,
    description: str,
    fields: Iterable[str],
    rows: Iterable[Mapping[str, str]],
) -> None:
    if fmt_name == "csv":
        text = csv_text(description, fields, rows)
    elif fmt_name == "json":
        text = json_text(description, fields, rows)
    else:
        raise ValueError(f"unknown output format {fmt_name!r}")
    write_text(path, text)


def write_text(path: str, text: str) -> None:
    """Write text to path as it is, with no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
