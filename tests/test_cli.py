import json
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from congruence_lab import cli, congruence, dp6

import oracles


def run(argv):
    return cli.main(argv)


def test_gauss_matches(capsys):
    assert run(["gauss", "--s", "1", "--t", "0", "--u", "5"]) == 0
    out = capsys.readouterr().out
    assert "match = True" in out


def test_gauss_stdout_appears_once_through_a_pipe(capsys):
    # the forked child of gauss_brute leaves by os._exit, so it never writes
    # the stdout buffer it shares with the parent
    argv = ["gauss", "--s", "3", "--t", "5", "--u", "300007"]
    assert run(argv) == 0
    want = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(cli.__file__))  # the directory holding the package
    # a block-buffered stdout, as on a pipe by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-m", "congruence_lab.cli", *argv], env=env,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want.encode()
    lines = want.splitlines()
    assert len(lines) == len(set(lines)) == 4
    # text still in the buffer at the fork, on a host allowed two CPUs or not
    code = ("import os; os.sched_getaffinity = lambda pid: {0, 1}; print('before');"
            " from congruence_lab import gausssum; gausssum.gauss_brute(3, 5, 300007);"
            " print('after')")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"before\nafter\n"


def test_gauss_missing_required(capsys):
    assert run(["gauss", "--t", "0", "--u", "5"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--s" in err


def test_count_fixture(capsys, tmp_path):
    out_path = tmp_path / "row.csv"
    code = run(["count", "--a", "1", "--b", "1", "--q", "5",
                "--X", "10", "--Y", "10", "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "exact     = 16" in out
    assert "wrote 1 rows" in out
    desc, fields, rows = oracles.parse_csv_text(out_path.read_text())
    assert list(fields) == list(congruence.CountReport._fields)
    assert rows[0]["exact"] == "16"
    assert rows[0]["seconds"] == "0.0"


def test_count_general_exponents(capsys):
    # count counts a x + b y^2 only: --e is no flag of it, nor is --f, which
    # argparse takes for no prefix of --format
    box = ["count", "--a", "1", "--b", "1", "--q", "5", "--X", "10", "--Y", "10"]
    for flags, message in ((["--e", "1"], "unrecognized arguments: --e 1"),
                           (["--f", "3"], "unrecognized arguments: --f 3")):
        with pytest.raises(SystemExit) as exc:
            run([*box, *flags])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert message in err


def test_count_precondition_failure(capsys):
    assert run(["count", "--a", "5", "--b", "1", "--q", "5",
                "--X", "10", "--Y", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "coprime" in err


def test_bad_usage_exits_via_argparse():
    with pytest.raises(SystemExit):
        run([])
    with pytest.raises(SystemExit):
        run(["count", "--no-such-flag"])


def test_count_scan_skips_invalid(capsys):
    assert run(["count-scan", "--q-list", "3,5,9", "--a", "3"]) == 0
    out = capsys.readouterr().out
    assert "instances = 1" in out


def test_vaaler_command(capsys):
    assert run(["vaaler", "--H", "8", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "0 violations in 500 samples" in out


@pytest.mark.parametrize("seed", [0, 1, -5, -7, 2**32 - 1, 2**32, 2**80, 10**30, "abc", 645583])
def test_random_floats_match_python_random(seed):
    # n = 624 is one MT19937 state, 2^14 one getrandbits chunk; the others
    # stop on either side of a refill or a chunk, or span several chunks
    for n in (1, 623, 624, 625, 1249, 5000, 2**14 - 1, 2**14, 2**14 + 1, 40000):
        rng = random.Random(seed)
        want = np.array([rng.random() for _ in range(n)])
        got = cli.random_floats(seed, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (seed, n)


@pytest.mark.parametrize("n", [200_000, 2**20])
def test_random_floats_peak_is_the_result_and_one_chunk(n):
    # the doubles are written into one preallocated array: 8 bytes a sample,
    # and the temporaries of one getrandbits chunk (about 40 bytes a double)
    tracemalloc.start()
    try:
        cli.random_floats(1, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n <= peak <= 8 * n + 48 * cli._DRAW_CHUNK


def test_random_signs_match_python_choice():
    # bilinear's signs of one seed: (M+1)/2 of a, then N of b, from one
    # stream; 2^14 words is one getrandbits chunk, so 40000 signs span several
    for seed in [*range(60), -5, 2**80, "abc"]:
        for a, b in ((1, 1), (256, 512), (3, 1000), (0, 1), (20000, 20000)):
            rng = random.Random(seed)
            want = [rng.choice((-1, 1)) for _ in range(a)] + [rng.choice((-1, 1)) for _ in range(b)]
            got = cli.random_signs(seed, a + b)
            assert got.dtype == np.int8 and got.tolist() == want, (seed, a, b)


def test_vaaler_leaves_numpy_random_unimported():
    code = ("import sys; from congruence_lab import cli;"
            " assert cli.main(['vaaler', '--H', '8', '--samples', '100']) == 0;"
            " assert 'numpy.random' not in sys.modules, 'numpy.random imported'")
    src = os.path.dirname(os.path.dirname(cli.__file__))  # the directory holding the package
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_avg_scan_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["avg-scan", "--seeds", "3", "--out"]
    assert run(args + [str(a)]) == 0
    assert run(args + [str(b)]) == 0
    out = capsys.readouterr().out
    assert "seed 0:" in out and "seed 2:" in out
    assert a.read_bytes() == b.read_bytes()
    _, _, rows = oracles.parse_csv_text(a.read_text())
    assert len(rows) == 3
    assert {r["seed"] for r in rows} == {"0", "1", "2"}


@pytest.mark.parametrize("scheme", ["joint", "factorized"])
def test_avg_scan_seeds_match_single_runs(scheme, tmp_path, capsys):
    # the seeds of one run share their cell counts; each line and row must
    # still be what a run of that seed alone prints and writes
    args = ["avg-scan", "--t", "7", "--U", "3", "--V", "3", "--W", "3", "--Y", "40",
            "--X", "19/2", "--scheme", scheme]
    assert run([*args, "--seed", "11", "--seeds", "3", "--out", str(tmp_path / "all.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    single_lines, single_rows = [], []
    for seed in (11, 12, 13):
        out = tmp_path / f"{seed}.csv"
        assert run([*args, "--seed", str(seed), "--out", str(out)]) == 0
        single_lines += capsys.readouterr().out.splitlines()[:-1]
        single_rows += out.read_text().splitlines()[2:]
    assert lines[:-1] == single_lines
    assert lines[-1] == f"wrote 3 rows to {tmp_path / 'all.csv'}"
    text = (tmp_path / "all.csv").read_text().splitlines()
    assert text[:2] == (tmp_path / "11.csv").read_text().splitlines()[:2]
    assert text[2:] == single_rows


def test_dp6_enumerate(tmp_path, capsys):
    out_path = tmp_path / "points.csv"
    assert run(["dp6-enumerate", "--B", "1000", "--t", "12",
                "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "31 points" in out
    _, fields, rows = oracles.parse_csv_text(out_path.read_text())
    assert list(fields) == list(dp6.POINT_FIELDS)
    assert len(rows) == 31
    assert rows[0]["x5"] == "343"


def test_dp6_growth(tmp_path, capsys):
    out_path = tmp_path / "growth.csv"
    assert run(["dp6-growth", "--B-list", "1000,10000",
                "--out", str(out_path)]) == 0
    capsys.readouterr()
    _, _, rows = oracles.parse_csv_text(out_path.read_text())
    counts = [int(r["count"]) for r in rows]
    assert counts[0] < counts[1]


def test_dp6_sieve_json(capsys):
    assert run(["dp6-sieve", "--B", "1000", "--q", "7",
                "--z-max", "100", "--rho-max", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points_total"] == 31
    assert doc["threshold"]["t_exceeds"] is True


def test_bilinear_command(tmp_path, capsys):
    out_path = tmp_path / "bil.csv"
    assert run(["bilinear", "--M", "64", "--N", "64", "--seeds", "2",
                "--out", str(out_path)]) == 0
    capsys.readouterr()
    _, _, rows = oracles.parse_csv_text(out_path.read_text())
    assert len(rows) == 2
    for row in rows:
        assert float(row["ratio"]) < 1.0


def test_bilinear_even_M_counts_the_odd_m_below_it(tmp_path, capsys):
    # an even --M counts the odd m <= M - 1 and reports M - 1 in the M
    # column: --M 512 writes the table of --M 511, byte for byte
    even, odd = tmp_path / "even.csv", tmp_path / "odd.csv"
    assert run(["bilinear", "--M", "512", "--N", "8", "--seeds", "2", "--out", str(even)]) == 0
    assert run(["bilinear", "--M", "511", "--N", "8", "--seeds", "2", "--out", str(odd)]) == 0
    capsys.readouterr()
    _, _, rows = oracles.parse_csv_text(even.read_text())
    assert [row["M"] for row in rows] == ["511", "511"]
    assert even.read_bytes() == odd.read_bytes()


def test_bilinear_builds_one_table_for_every_seed(capsys, monkeypatch):
    # the table depends on (M, N) only, and the seeds are the columns of one call
    tables = _spy(monkeypatch, congruence, "_jacobi_table")
    assert run(["bilinear", "--M", "63", "--N", "50", "--seeds", "3"]) == 0
    capsys.readouterr()
    assert tables == [(63, 50)]


def test_bilinear_holds_no_table_after_the_command(capsys):
    # nothing is cached: the table of (M + 1)/2 N bytes is freed when the command returns
    cells = 512 * 1024
    tracemalloc.start()
    try:
        assert run(["bilinear", "--M", "1023", "--N", "1024", "--seeds", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
        held = max((trace.size for trace in tracemalloc.take_snapshot().traces), default=0)
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak >= 9 * cells  # the table and its int64 copy in the product
    assert held < cells // 8, held


def _spy(monkeypatch, module, name):
    # the arguments of every call of module.name, which still does its work
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_dp6_growth_sieves_once_for_every_budget(capsys, monkeypatch):
    # the smaller budgets count from the head of the largest budget's table
    sieves = _spy(monkeypatch, dp6, "_omega_upto")
    assert run(["dp6-growth", "--B-list", "1000000,100000000,1000000000"]) == 0
    capsys.readouterr()
    assert sieves == [(dp6._alpha_bounds(10**9)[1],)]


@pytest.mark.parametrize("argv, tables", [
    (["dp6-enumerate", "--B", "1000000"], 1),
    (["dp6-sieve", "--B", "1000000", "--q", "97"], 0),  # a zero table, no Omega
])
def test_dp6_commands_sieve_omega_at_most_once(argv, tables, capsys, monkeypatch):
    sieves = _spy(monkeypatch, dp6, "_omega_upto")
    assert run(argv) == 0
    capsys.readouterr()
    assert len(sieves) == tables


@pytest.mark.parametrize("argv", [
    ["dp6-sieve", "--B", "1000000", "--q", "59", "--rho-max", "210", "--z-max", "1000"],
    ["dp6-sieve", "--B", "1000000", "--q", "97", "--tau", "0.9", "--c2", "0", "--rho-max", "30"],
])
def test_dp6_sieve_factors_each_d_once(argv, capsys, monkeypatch):
    # the rho table and the remainder sum share one factor_array of every d
    factored = _spy(monkeypatch, dp6, "factor_array")
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    top = max(int(argv[argv.index("--rho-max") + 1]), int(report["w2"]["d_max"]))
    assert [list(ds) for ds, in factored] == [list(range(1, top + 1))]


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "box.cfg"
    cfg.write_text("# box fixture\na = 1\nb = 1\nq = 5\nX = 10\nY = 10\n")
    assert run(["count", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "exact     = 16" in out

    expected = oracles.count_exact_naive(1, 1, 5, 20, 10)
    assert run(["count", "--config", str(cfg), "--X", "20"]) == 0
    out = capsys.readouterr().out
    assert f"exact     = {expected}" in out


def test_config_rejects_garbage(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert run(["count", "--config", str(cfg)]) == 2
    assert "key=value" in capsys.readouterr().err


def test_json_output_round_trip(tmp_path, capsys):
    out_path = tmp_path / "row.json"
    assert run(["count", "--a", "1", "--b", "1", "--q", "5", "--X", "10",
                "--Y", "10", "--out", str(out_path), "--format", "json"]) == 0
    capsys.readouterr()
    desc, fields, rows = oracles.parse_json_text(out_path.read_text())
    assert rows[0]["exact"] == "16"
    assert oracles.csv_text(desc, fields, rows).startswith("# congruence box counts")
