import re
from fractions import Fraction

import numpy as np
import pytest

from congruence_lab import averaged as av
from congruence_lab import congruence as cg
from congruence_lab import cli, dp6, reports

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


@pytest.mark.parametrize("value", [np.float64(0.1), np.int64(3)])
def test_fmt_refuses_numpy_scalars(value):
    # np.float64 subclasses float, yet its repr differs across numpy versions
    with pytest.raises(TypeError, match=f"no stable format for {type(value).__name__}"):
        reports.fmt(value)


def test_box_row_fields_and_timings():
    # a CountReport is the CSV row, so its fields are the header
    assert cg.CountReport._fields == (
        "a", "b", "q", "e", "f", "X", "Y", "exact", "main_term", "envelope", "ratio", "seconds")
    # the retired seconds column reads no clock
    (rep,) = cg.scan_boxes([5], 1, 1, 10, 10)
    assert len(rep) == len(cg.CountReport._fields)
    row = rep._asdict()
    assert row["exact"] == 16
    assert row["main_term"] == 16.0
    assert row["seconds"] == 0.0


def test_averaged_row_fields(tmp_path, capsys):
    # avg-scan writes each AveragedReport as one row of cli.AVERAGED_FIELDS
    fam = av.AveragedFamily(
        l=1, m=1, r=1, s=1, t=3, U=1, V=1, W=Fraction(1, 2),
        J=cg.Interval(0, 10), bounds=cg.box_bounds(5), scheme="all-ones",
    )
    (rep,) = av.avg_report(fam, H=4.0, epsilon=0.05, seeds=(7,))
    out = tmp_path / "avg.csv"
    assert cli.main(["avg-scan", "--W", "1/2", "--Y", "10", "--X", "5", "--H", "4",
                     "--seed", "7", "--scheme", "all-ones", "--out", str(out)]) == 0
    capsys.readouterr()
    _, fields, (row,) = oracles.parse_csv_text(out.read_text())
    assert tuple(fields) == cli.AVERAGED_FIELDS
    assert row["W"] == "1/2"
    assert row["Y"] == "10"
    assert row["scheme"] == "all-ones"
    assert row["seed"] == "7"
    assert row["S_im"] == "0.0"
    assert [row[f] for f in ("S_re", "M_re", "M_im", "first_O", "T_envelope", "ratio")] == [
        reports.fmt(v) for v in (rep.S.real, rep.M.real, rep.M.imag, rep.first_O,
                                 rep.T_envelope, rep.ratio)]


def test_growth_and_point_rows():
    rows = dp6.m_t_growth([1000], 12)
    assert dp6.GrowthRow._fields == ("B", "t", "count", "normalized")
    assert rows[0].count == 31

    prow = oracles.point_row(next(oracles.points_oracle(1000, 12)))
    assert tuple(prow) == dp6.POINT_FIELDS
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
    reports.write_table(str(path), "csv", "demo", ["a"], [[(1,)]])
    assert path.read_text() == "# demo\na\n1\n"
    with pytest.raises(ValueError):
        reports.write_table(str(path), "xml", "demo", ["a"], [])


def test_write_report_refuses_ragged_rows(tmp_path):
    # 4 cells fill a 2-field template exactly, so only the row check sees it
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=r"report row of 3 values for 2 fields: \['1', '2', '3'\]"):
        reports.write_table(str(path), "csv", "demo", ["a", "b"], [[(1, 2, 3), (4,)]])
    assert not path.exists()


def test_write_report_formats_each_cell(tmp_path):
    fields = ["n", "x", "flag", "r", "name"]
    rows = [(3, Fraction(21, 2), True, 0.1, "joint"), (-1, Fraction(4), False, 1 / 3, "all-ones")]
    path = tmp_path / "out.csv"
    reports.write_table(str(path), "csv", "demo", fields, [rows])
    assert path.read_text() == ("# demo\nn,x,flag,r,name\n3,21/2,true,0.1,joint\n"
                                f"-1,4,false,{1 / 3!r},all-ones\n")
    reports.write_table(str(path), "json", "demo", fields, [rows])
    assert oracles.parse_json_text(path.read_text())[2][1] == dict(
        n="-1", x="4", flag="false", r=repr(1 / 3), name="all-ones")


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


def test_int_kernel_digit_boundaries(tmp_path):
    # every digit count of each sign, 0 and the int64 ends, at 1, 2 and 12
    # columns; widest magnitudes of 9 digits (uint32 digits) and 10 (uint64)
    edges = [0, -2**63, 2**63 - 1, -(2**63 - 1)]
    for k in range(19):
        edges += [10**k - 1, -(10**k - 1), 10**k, -10**k]
    edges = np.array(edges, dtype=np.int64)
    nine = np.array([[999_999_999, -999_999_999, 7], [-1, 0, 100_000_000]], dtype=np.int64)
    ten = np.array([[1_000_000_000, -5], [-1_000_000_000, 42]], dtype=np.int64)
    blocks = {1: [edges.reshape(-1, 1)], 2: [edges.reshape(-1, 2)],
              12: [np.resize(edges, (12, 12)), np.empty((0, 12), dtype=np.int64)],
              3: [nine], 4: [ten.reshape(1, 4), ten.reshape(1, 4) * 3]}
    for k, bs in blocks.items():
        fields = [f"c{j}" for j in range(k)]
        rows = [row for block in bs for row in block.tolist()]
        assert _write_both(tmp_path, fields, bs) == _oracle_both(fields, rows), k
    assert reports._int_csv(np.empty((0, 3), dtype=np.int64)) == ""


def test_int_blocks_of_the_wrong_shape_are_refused(tmp_path):
    path = tmp_path / "out.csv"
    for block in (np.zeros((2, 3), dtype=np.int64), np.zeros(4, dtype=np.int64)):
        with pytest.raises(ValueError, match=r"integer block of shape .* for 2 fields"):
            reports.write_table(str(path), "csv", "demo", ["a", "b"], [block])


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


def test_json_streams_the_json_dump_of_the_whole_table(tmp_path):
    # write_table writes JSON block by block; its bytes are json_dump's text
    # of the whole table, every cell the string fmt makes of it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    text = st.text(st.one_of(st.sampled_from('"\\%,\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                             st.characters()), max_size=5)
    value = st.one_of(st.booleans(), st.integers(), st.floats(), st.fractions(), text)
    int64 = st.one_of(st.sampled_from([-2**63, 2**63 - 1]), st.integers(-2**63, 2**63 - 1))
    edges = np.array([[-2**63, 2**63 - 1], [0, -1]], dtype=np.int64)
    many = [edges, [], np.empty((0, 2), dtype=np.int64), [['say "hi"', "a\\b\x01"]]] * 30

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data(), fields=st.lists(text, min_size=1, max_size=5, unique=True),
                      description=text)
    @hypothesis.example(data=None, fields=["a", "b%s"], description="many blocks")
    @hypothesis.example(data=False, fields=["a"], description="")
    def check(data, fields, description):
        k = len(fields)
        if data is None:
            blocks = many
        elif data is False:
            blocks = [[], np.empty((0, 1), dtype=np.int64)]
        else:
            value_rows = st.lists(st.lists(value, min_size=k, max_size=k), max_size=4)
            ints = hnp.arrays(np.int64, st.tuples(st.integers(0, 4), st.just(k)),
                              elements=int64)
            blocks = data.draw(st.lists(st.one_of(value_rows, ints), max_size=12))
        rows = [row for block in blocks
                for row in (block.tolist() if isinstance(block, np.ndarray) else block)]
        table = {"description": description, "fields": fields,
                 "rows": [dict(zip(fields, map(reports.fmt, row))) for row in rows]}
        path = tmp_path / "table.json"
        assert reports.write_table(str(path), "json", description, fields, blocks) == len(rows)
        assert path.read_bytes() == reports.json_dump(table).encode("ascii")

    check()


def test_unknown_format_leaves_no_file(tmp_path):
    path = tmp_path / "out.xml"
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        reports.write_table(str(path), "xml", "demo", ["a"], [[(1,)]])
    assert not path.exists()
