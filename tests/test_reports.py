import re
from fractions import Fraction

import numpy as np
import pytest

from congruence_lab import averaged as av
from congruence_lab import congruence as cg
from congruence_lab import dp6, reports

import oracles


def test_fmt():
    assert reports.fmt(True) == "true"
    assert reports.fmt(False) == "false"
    assert reports.fmt(7) == "7"
    assert reports.fmt(-3) == "-3"
    assert reports.fmt(Fraction(21, 2)) == "21/2"
    assert reports.fmt(Fraction(10)) == "10"
    assert reports.fmt(0.1) == "0.1"
    assert reports.fmt(1 / 3) == repr(1 / 3)
    assert reports.fmt("joint") == "joint"
    with pytest.raises(TypeError):
        reports.fmt([1, 2])


def test_box_row_fields_and_timings():
    rep = cg.box_report(cg.CongruenceInstance(1, 1, 5, 10, 10))
    row = reports.box_row(rep)
    assert tuple(row) == reports.BOX_FIELDS
    assert row["exact"] == "16"
    assert row["main_term"] == "16.0"
    assert row["seconds"] == "0.0"
    timed = reports.box_row(rep, timings=True)
    assert timed["seconds"] == repr(rep.seconds)


def test_averaged_row_fields():
    fam = av.AveragedFamily(
        l=1, m=1, r=1, s=1, t=3, U=1, V=1, W=Fraction(1, 2),
        J=cg.Interval(0, 10), bounds=av.constant_bounds(5),
    )
    rep = av.avg_report(fam, H=4, epsilon=0.05)
    row = reports.averaged_row(rep)
    assert tuple(row) == reports.AVERAGED_FIELDS
    assert row["W"] == "1/2"
    assert row["scheme"] == "all-ones"
    assert row["S_im"] == "0.0"


def test_growth_and_point_rows():
    rows = dp6.m_t_growth([1000], 12)
    grow = reports.growth_row(rows[0])
    assert tuple(grow) == reports.GROWTH_FIELDS
    assert grow["count"] == "31"

    prow = oracles.point_row(next(oracles.points_oracle(1000, 12)))
    assert tuple(prow) == reports.POINT_FIELDS
    assert prow["x5"] == "343"
    assert prow["Omega"] == "3"


def test_round_trip_csv_json_csv(tmp_path):
    # write_table's CSV and JSON of one table parse back to the same table,
    # and the JSON's table written again as CSV is the same file
    fields = ["n", "value", "flag"]
    rows = [
        {"n": "1", "value": "21/2", "flag": "true"},
        {"n": "2", "value": repr(0.30000000000000004), "flag": "false"},
    ]
    csv1, js = _write_both(tmp_path, fields, [[[row[f] for f in fields] for row in rows]])
    assert oracles.parse_csv_text(csv1) == ("demo table", fields, rows)
    desc, f2, r2 = oracles.parse_json_text(js)
    assert (desc, f2, r2) == ("demo table", fields, rows)
    path = tmp_path / "again.csv"
    reports.write_table(str(path), "csv", desc, f2, [[[row[f] for f in f2] for row in r2]])
    assert path.read_text() == csv1


def test_parse_csv_requires_description():
    """Checks the test oracle oracles.parse_csv_text, not program code."""
    with pytest.raises(ValueError):
        oracles.parse_csv_text("a,b\n1,2\n")


def test_json_dump_refuses_non_finite_floats():
    assert reports.json_dump({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            reports.json_dump({"x": value})


def test_write_report(tmp_path):
    path = tmp_path / "out.csv"
    reports.write_report(str(path), "csv", "demo", ["a"], [{"a": "1"}])
    assert path.read_text() == "# demo\na\n1\n"
    with pytest.raises(ValueError):
        reports.write_report(str(path), "xml", "demo", ["a"], [])


def _write_both(tmp_path, fields, blocks):
    """The CSV and JSON texts write_table makes of blocks."""
    texts = []
    for fmt_name in ("csv", "json"):
        path = tmp_path / f"table.{fmt_name}"
        reports.write_table(str(path), fmt_name, "demo table", fields, blocks)
        texts.append(path.read_text())
    return texts


def _oracle_both(fields, rows):
    rows = [dict(zip(fields, map(str, row))) for row in rows]
    return [oracles.csv_text("demo table", fields, rows),
            oracles.json_text("demo table", fields, rows)]


def test_int_blocks_match_csv_writer(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    int64 = st.integers(-2**63, 2**63 - 1)
    extremes = np.array([[2**63 - 1], [-2**63], [-(2**63 - 1)], [0]], dtype=np.int64)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(data=st.data(), k=st.integers(1, 13))
    @hypothesis.example(data=None, k=1)
    def check(data, k):
        fields = [f"c{j}" for j in range(k)]
        if data is None:
            blocks = [extremes, np.empty((0, 1), dtype=np.int64)]
        else:
            block = hnp.arrays(np.int64, st.tuples(st.integers(0, 6), st.just(k)),
                               elements=int64)
            blocks = data.draw(st.lists(block, max_size=4))
        rows = [row for block in blocks for row in block.tolist()]
        assert _write_both(tmp_path, fields, blocks) == _oracle_both(fields, rows)

    check()


def test_fmt_rows_match_csv_writer(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cell = st.one_of(st.integers(), st.fractions(), st.booleans(), st.floats()).map(reports.fmt)
    special = [reports.fmt(x) for x in (float("inf"), float("-inf"), float("nan"), -0.0)]

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(data=st.data(), k=st.integers(1, 8))
    @hypothesis.example(data=None, k=4)
    def check(data, k):
        fields = [f"c{j}" for j in range(k)]
        if data is None:
            blocks = [[special], []]
        else:
            row = st.lists(cell, min_size=k, max_size=k)
            blocks = data.draw(st.lists(st.lists(row, max_size=5), max_size=3))
        rows = [row for block in blocks for row in block]
        assert _write_both(tmp_path, fields, blocks) == _oracle_both(fields, rows)

    check()


@pytest.mark.parametrize("bad", ["1,2", 'say "x"', "a\rb", "a\nb"])
def test_csv_refuses_cells_that_need_quoting(bad, tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"CSV field 'b': cell {re.escape(repr(bad))}"):
        reports.write_table(str(path), "csv", "demo", ["a", "b"], [[["1", "2"], ["3", bad]]])
    with pytest.raises(ValueError, match=f"CSV field {re.escape(repr(bad))}"):
        reports.write_table(str(path), "csv", "demo", ["a", bad], [])
    with pytest.raises(ValueError, match="CSV field 'a': cell ''"):
        reports.write_table(str(path), "csv", "demo", ["a"], [[["1"], [""]]])
