"""Test-only reference code: table text built and parsed with the csv and
json modules, independently of the writer in congruence_lab.reports."""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Mapping

from congruence_lab.dp6 import PointRecord
from congruence_lab.reports import fmt


def point_row(rec: PointRecord) -> dict[str, str]:
    sp = rec.special
    row = {
        "q": fmt(sp.q),
        "a1": fmt(sp.alpha1),
        "a2": fmt(sp.alpha2),
        "a3": fmt(sp.alpha3),
    }
    for i, c in enumerate(rec.surface.x):
        row[f"x{i}"] = fmt(c)
    row["Omega"] = fmt(rec.omega)
    return row


def csv_text(
    description: str, fields: Iterable[str], rows: Iterable[Mapping[str, str]]
) -> str:
    fields = list(fields)
    buf = io.StringIO()
    buf.write(f"# {description}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([row[f] for f in fields] for row in rows)
    return buf.getvalue()


def json_text(
    description: str, fields: Iterable[str], rows: Iterable[Mapping[str, str]]
) -> str:
    fields = list(fields)
    doc = {"description": description, "fields": fields,
           "rows": [{f: row[f] for f in fields} for row in rows]}
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
