import importlib.util
import itertools
import os
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from congruence_lab import cli

import test_golden

BOX = ["--a", "1", "--b", "1", "--q", "5", "--X", "10", "--Y", "10"]
# the first prime above 10^155 (test_huge_q_is_the_next_prime checks it with
# sympy): with B = q^3 it is a window prime whose X leaves float range
HUGE_Q = 10**155 + 189

# the start of each command's budget refusal: the options its estimate grows with
GROWTH = "--B-list: estimated"
SCAN = "--primes-up-to, --q-list, --x, --y: estimated"
DRAWS = "--H, --samples: estimated"
FAMILY = "--U, --V, --W, --Y, --seeds: estimated"
SIEVE = "--B, --q, --tau, --c2, --rho-max, --z-max: estimated"
TABLE = "--M, --N, --seeds: estimated"
POINTS = "--B, --format: estimated"

# avg-scan over 4,096 (u, v) of one cell each, one w: the unit-disc draws are
# most of its time at every scheme but all-ones
DRAWN = ["--t", "1", "--U", "64", "--V", "64", "--W", "1/2", "--Y", "4", "--X", "1/2"]

# (argv, config file text or None, text the error message must contain)
REFUSALS = {
    "flag of another command": (
        ["gauss", "--s", "1", "--t", "0", "--u", "3", "--B", "5", "--scheme", "bogus"],
        None, "--scheme"),
    "misspelt config key": (["count-scan"], "primes-up-tp = 30\n", "primes-up-tp"),
    "format on dp6-sieve": (["dp6-sieve", "--format", "csv"], None, "--format"),
    "deleted flags": (["vaaler", "--H", "8", "--threads", "3", "--timings"], None, "--threads"),
    "unknown format flag": (["count", *BOX, "--out", "x.csv", "--format", "xml"], None,
                            "--format"),
    "unknown format key": (["count", *BOX, "--out", "x.csv"], "format = xml\n", "format"),
    "zero denominator flag x": (["count-scan", "--x", "1/0"], None, "--x"),
    "zero denominator flag X": (["count", "--a", "1", "--b", "1", "--q", "5", "--X", "1/0",
                                 "--Y", "10"], None, "--X"),
    "zero denominator key": (["count", "--a", "1", "--b", "1", "--q", "5", "--Y", "10"],
                             "X = 1/0\n", "'X'"),
    "non-integer H flag": (["vaaler", "--H", "2.5"], None, "--H"),
    "non-integer H key": (["vaaler"], "H = 2.5\n", "'H'"),
    "unknown scheme flag": (["avg-scan", "--scheme", "bogus"], None, "--scheme"),
    "unknown scheme key": (["avg-scan"], "scheme = bogus\n", "scheme"),
    "config key of another command": (["gauss", "--s", "1", "--t", "0", "--u", "3"],
                                      "B = 5\n", "'B'"),
    "zero budget": (["dp6-growth", "--B-list", "0"], None, "budget B must be positive"),
    "negative budget": (["dp6-growth", "--B-list", "-5"], None, "budget B must be positive"),
    "negative factor bound": (["dp6-growth", "--B-list", "1", "--t", "-1"], None,
                              "factor bound t must be nonnegative"),
    # the budget refuses B from about 1.6e11, before the int8 cap of B^{2/3}/2 < 2^32
    "count budget beyond int8": (["dp6-growth", "--B-list", "1000,1125899906842624"], None,
                                 GROWTH),
    "growth table beyond the memory budget": (
        ["dp6-growth", "--B-list", "700000000000000"], None,
        f"{GROWTH} 9.84e+04 s and 3.15e+10 bytes, over the budget of 30 s and 1073741824 bytes"),
    "modulus beyond int32": (["count", "--a", "1", "--b", "1", "--q", "2147483659", "--X", "10",
                              "--Y", "10"], None, "q < 2^31, got q = 2147483659"),
    "point budget beyond int64": (["dp6-enumerate", "--B", "2147483648", "--out", "x.csv"],
                                  None, "B = 2147483648 too large"),
    "no vaaler samples": (["vaaler", "--H", "8", "--samples", "0"], None,
                          "argument --samples: must be >= 1, got '0'"),
    "negative vaaler samples key": (["vaaler", "--H", "8"], "samples = -3\n",
                                    "config key 'samples': must be >= 1, got '-3'"),
    # the budget refuses u from 1.2e8, before gauss_brute's cap u < 2^31
    "Gauss modulus beyond int32": (["gauss", "--s", "1", "--t", "0", "--u", "2147483648"], None,
                                   "--u: estimated 537 s"),
    "scanned modulus beyond int32": (["count-scan", "--q-list", "15,2147483659"], None,
                                     "q < 2^31, got q = 2147483659"),
    "scanned modulus zero": (["count-scan", "--q-list", "0,5"], None, "got q = 0"),
    "scanned modulus negative": (["count-scan", "--q-list", "5,-7"], None, "got q = -7"),
    # count has no exponent flags, and a prefix of a flag is no flag: --e and
    # --f are both unrecognized
    "out for general exponents": (["count", *BOX, "--e", "2", "--f", "2", "--out", "x.csv"],
                                  None, "unrecognized arguments: --e 2 --f 2"),
    "timings for general exponents": (["count", *BOX, "--e", "2", "--timings"],
                                      None, "unrecognized arguments: --e 2 --timings"),
    "exponent key": (["count", *BOX], "e = 2\n", "config key 'e' is not an option of count"),
    "timings without out": (["count-scan", "--timings"], None,
                            "unrecognized arguments: --timings"),
    "format flag without out": (["count", *BOX, "--format", "json"], None,
                                "--format applies only with --out"),
    "format key without out": (["count", *BOX], "format = json\n",
                               "--format applies only with --out"),
    "no avg-scan seeds": (["avg-scan", "--seeds", "0", "--out", "x.csv"], None,
                          "argument --seeds: must be >= 1, got '0'"),
    "negative bilinear seeds": (["bilinear", "--seeds", "-2"], None,
                                "argument --seeds: must be >= 1, got '-2'"),
    "no primes to scan": (["count-scan", "--primes-up-to", "1", "--out", "x.csv"], None,
                          "argument --primes-up-to: must be >= 2, got '1'"),
    "negative prime bound key": (["count-scan"], "primes-up-to = -4\n",
                                 "config key 'primes-up-to': must be >= 2, got '-4'"),
    "fixed x below 1": (["count-scan", "--x", "1/2", "--out", "x.csv"], None,
                        "argument --x: must be q or a rational >= 1, got '1/2'"),
    "fixed y below 1": (["count-scan", "--q-list", "5,7", "--y", "0"], None,
                        "argument --y: must be q or a rational >= 1, got '0'"),
    "empty q list": (["count-scan", "--q-list", ","], None, "--q-list"),
    "empty budget list": (["dp6-growth", "--B-list", ""], None, "--B-list"),
    "empty budget list key": (["dp6-growth"], "B-list = ,\n", "'B-list'"),
    "out in a missing directory": (["dp6-enumerate", "--B", "1000000", "--out", "missing/x.csv"],
                                   None, "directory 'missing' does not exist"),
    "zero scan coefficient flag": (["count-scan", "--a", "0", "--out", "x.csv"], None,
                                   "argument --a: must be nonzero, got '0'"),
    "zero scan coefficient key": (["count-scan", "--q-list", "5,7", "--out", "x.csv"], "b = 0\n",
                                  "config key 'b': must be nonzero, got '0'"),
    "zero count coefficient": (["count", "--a", "0", *BOX[2:], "--out", "x.csv"], None,
                               "argument --a: must be nonzero, got '0'"),
    "config key given twice": (["vaaler"], "H = 2\n# again\nH = 5\n",
                               "config key 'H' is given twice, on lines 1 and 3"),
    "empty rho table": (["dp6-sieve", "--rho-max", "0", "--out", "x.csv"], None,
                        "(--rho-max) must be >= 1, got 0"),
    "rho table beyond the cap": (["dp6-sieve", "--rho-max", "2120000", "--out", "x.csv"], None,
                                 SIEVE),
    "window prime beyond the int64 budget": (
        ["dp6-sieve", "--B", str(HUGE_Q**3), "--q", str(HUGE_Q), "--out", "x.csv"], None,
        "too large: alpha1 alpha2 |alpha3| may overflow int64"),
    "zero tau level": (["dp6-sieve", "--tau", "0"], None, "(--tau) must be > 0, got 0.0"),
    "negative tau level key": (["dp6-sieve"], "tau = -0.5\n", "(--tau) must be > 0, got -0.5"),
    "empty remainder sum": (["dp6-sieve", "--tau", "0.01", "--out", "x.csv"], None,
                            "d_max = X^tau / log^c2 X = 0.30245104505007814 is below 1, so the"
                            " remainder sum is empty: raise tau (--tau) or lower c2 (--c2)"),
    "empty remainder sum key": (["dp6-sieve", "--B", "1500", "--tau", "0.3", "--out", "x.csv"],
                                "c2 = 2\n", "d_max = X^tau / log^c2 X = 0.21523336859822245"),
    "remainder level overflowing float": (["dp6-sieve", "--tau", "4096", "--out", "x.csv"],
                                          None, "d_max = X^tau / log^c2 X is infinite: change tau"
                                          " (--tau) or c2 (--c2)"),
    "remainder level underflowing float": (["dp6-sieve", "--c2", "1e300", "--out", "x.csv"],
                                           None, "d_max = X^tau / log^c2 X = 0.0 is below 1, so"
                                           " the remainder sum is empty: raise tau (--tau) or"
                                           " lower c2 (--c2)"),
    "remainder level beyond the cap with log X below 1": (
        ["dp6-sieve", "--B", "27", "--q", "3", "--c2", "15.5", "--out", "x.csv"], None, SIEVE),
    "remainder level beyond the cap": (
        ["dp6-sieve", "--B", "1000000", "--q", "97", "--tau", "2.01", "--out", "x.csv"], None,
        SIEVE),
    "nan H flag": (["avg-scan", "--H", "nan", "--out", "x.csv"], None,
                   "argument --H: must be a finite number, got 'nan'"),
    "infinite H flag": (["avg-scan", "--H", "inf"], None,
                        "argument --H: must be a finite number, got 'inf'"),
    "non-numeric H flag": (["avg-scan", "--H", "abc"], None,
                           "argument --H: invalid float value: 'abc'"),
    "nan avg-scan epsilon": (["avg-scan", "--epsilon", "nan", "--out", "x.csv"], None,
                             "argument --epsilon: must be a finite number, got 'nan'"),
    "nan bilinear epsilon": (["bilinear", "--epsilon", "nan", "--out", "x.csv"], None,
                             "argument --epsilon: must be a finite number, got 'nan'"),
    "nan tau level": (["dp6-sieve", "--tau", "nan", "--out", "x.csv"], None,
                      "argument --tau: must be a finite number, got 'nan'"),
    "nan mu": (["dp6-sieve", "--mu", "nan", "--out", "x.csv"], None,
               "argument --mu: must be a finite number, got 'nan'"),
    "infinite c2 key": (["dp6-sieve", "--out", "x.csv"], "c2 = -inf\n",
                        "config key 'c2': must be a finite number, got '-inf'"),
    "negative c2": (["dp6-sieve", "--c2", "-1", "--out", "x.csv"], None,
                    "(--c2) must be >= 0, got -1.0"),
    "zero mu": (["dp6-sieve", "--mu", "0", "--out", "x.csv"], None, "(--mu) must be > 0, got 0.0"),
    "grid bound below 5 key": (["dp6-sieve", "--out", "x.csv"], "z-max = 2\n",
                               "(--z-max) must be >= 5, got 2"),
    "grid bound beyond the cap": (["dp6-sieve", "--z-max", "470000", "--out", "x.csv"], None,
                                  SIEVE),
    "prime bound beyond int32": (["count-scan", "--primes-up-to", "2147483648", "--out", "x.csv"],
                                 None, SCAN),
    "prime bound beyond int32 key": (["count-scan"], "primes-up-to = 2147483648\n", SCAN),
    "prime bound beyond the cap": (["count-scan", "--primes-up-to", "6700000", "--out", "x.csv"],
                                   None, SCAN),
    "negative sieve factor bound": (["dp6-sieve", "--t", "-1", "--out", "x.csv"], None,
                                    "t (--t) must be >= 0, got -1"),
    "negative sieve factor bound key": (["dp6-sieve"], "t = -3\n", "t (--t) must be >= 0, got -3"),
    "count X beyond float": (["count", "--a", "1", "--b", "1", "--q", "5", "--X", "1e400",
                              "--Y", "10"], None,
                             "argument --X: must be within float range, got '1e400'"),
    "scan x beyond float": (["count-scan", "--x", "1e400"], None,
                            "argument --x: must be within float range, got '1e400'"),
    "avg-scan Y beyond float": (["avg-scan", "--Y", "1e400"], None,
                                "argument --Y: must be within float range, got '1e400'"),
    "avg-scan U beyond float": (["avg-scan", "--U", "1e400"], None,
                                "argument --U: must be within float range, got '1e400'"),
    "avg-scan X beyond float key": (["avg-scan", "--out", "x.csv"], "X = -1e400\n",
                                    "config key 'X': must be within float range, got '-1e400'"),
    "avg-scan epsilon overflow": (["avg-scan", "--epsilon", "1e300", "--out", "x.csv"], None,
                                  "epsilon is too large"),
    "avg-scan epsilon overflow at given H": (["avg-scan", "--epsilon", "1e300", "--H", "2"],
                                             None, "epsilon is too large"),
    "zero avg-scan H": (["avg-scan", "--H", "0", "--out", "x.csv"], None, "H must be positive"),
    "avg-scan work beyond the cap": (["avg-scan", "--U", "2320", "--V", "2320", "--out",
                                      "x.csv"], None, FAMILY),
    "avg-scan Y beyond the work cap": (["avg-scan", "--Y", "1e300", "--out", "x.csv"], None,
                                       FAMILY),
    # 2.7e10 cells, each over the 10^6 integers of J
    "averaged family beyond the budget": (
        ["avg-scan", "--t", "1", "--U", "3000", "--V", "3000", "--W", "3000", "--Y", "1000000",
         "--X", "1000000", "--out", "x.csv"], None, FAMILY),
    "bilinear epsilon overflow": (["bilinear", "--epsilon", "1e300", "--out", "x.csv"], None,
                                  "epsilon is too large"),
    "count bound beyond float": (["count", "--a", "1", "--b", "1", "--q", "5", "--X", "1e300",
                                  "--Y", "1e300", "--out", "x.csv"], None,
                                 "box sides X, Y are too large at q = 5: the count bound"
                                 " floor(Y) (floor(X) // q + 1) is outside float range"),
    "count main term beyond float": (["count", "--a", "1", "--b", "1", "--q", "1073741827",
                                      "--X", "1e200", "--Y", "1e110"], None,
                                     "at q = 1073741827: main term inf"),
    "scan count bound beyond float at a later q": (
        ["count-scan", "--q-list", "1000003,5", "--x", "1e300", "--y", "1e10", "--out", "x.csv"],
        None, "box sides X, Y are too large at q = 5"),
    "scan main term beyond float at a later q": (
        ["count-scan", "--q-list", "3,1000000007", "--x", "1e150", "--y", "1e150", "--out",
         "x.csv"], None, "at q = 1000000007: main term inf"),
    "avg-scan H t U V W beyond float": (["avg-scan", "--H", "1e308", "--out", "x.csv"], None,
                                        "H t U V W = inf is outside float range: lower H (--H)"),
    "avg-scan budget beyond float key": (["avg-scan", "--out", "x.csv"], "H = 1e-320\n",
                                         "budget UVWY/H = inf, T_envelope = "),
    "vaaler samples beyond the cap": (["vaaler", "--H", "8", "--samples", "12200000"], None,
                                      DRAWS),
    "zero vaaler H": (["vaaler", "--H", "0", "--samples", "1000", "--out", "x.csv"], None,
                      "argument --H: must be >= 1 and <= 1000000, got '0'"),
    "vaaler H beyond the screen bound": (["vaaler", "--H", "1000001", "--out", "x.csv"], None,
                                         "argument --H: must be >= 1 and <= 1000000, got"
                                         " '1000001'"),
    "vaaler screened terms beyond the cap": (["vaaler", "--H", "1025", "--samples", "540000",
                                              "--out", "x.csv"], None, DRAWS),
    "bilinear table beyond the cap": (["bilinear", "--M", "16383", "--N", "14600", "--out",
                                       "x.csv"], None, TABLE),
    # t floor(2W) = 3 psi_12, psi_12 a strong pseudoprime to twelve bases
    "avg-scan modulus beyond int32": (
        ["avg-scan", "--t", "318665857834031151167461", "--U", "3/2", "--V", "3/2", "--W", "3/2",
         "--y0", "399165290219", "--Y", "4", "--X", "1", "--H", "1", "--scheme", "all-ones"],
        None, "t (--t) times floor(2W) (--W), the largest modulus tw, must be below 2^31, got"
              " 955997573502093453502383"),
    "general count modulus beyond the table cap": (
        ["count", "--a", "1", "--b", "1", "--q", str(2**28 + 3), "--X", "10", "--Y", "10",
         "--e", "2"], None, "unrecognized arguments: --e 2"),
    "prime bound with a q list": (["count-scan", "--primes-up-to", "50", "--q-list", "7,11"],
                                  None, "--primes-up-to applies only without --q-list"),
    "prime bound key with a q list": (["count-scan", "--q-list", "7,11", "--out", "x.csv"],
                                      "primes-up-to = 50\n",
                                      "--primes-up-to applies only without --q-list"),
    "bilinear seeds beyond the cap": (["bilinear", "--seeds", "165000", "--out", "x.csv"],
                                      None, TABLE),
    "avg-scan seeds beyond the cap": (["avg-scan", "--U", "16", "--V", "16", "--W", "16",
                                       "--seeds", "4900", "--out", "x.csv"], None, FAMILY),
    # 8,193 unit-disc draws a seed, two for each of the 4,096 (u, v) and one for the w:
    # about 3 minutes
    "avg-scan draws beyond the cap": (["avg-scan", *DRAWN, "--seeds", "4000", "--scheme",
                                       "factorized", "--out", "x.csv"], None, FAMILY),
    "zero bilinear M": (["bilinear", "--M", "0", "--out", "x.csv"], None,
                        "argument --M: must be >= 1, got '0'"),
    "negative bilinear epsilon": (["bilinear", "--epsilon", "-0.5", "--out", "x.csv"], None,
                                  "epsilon must be nonnegative"),
    # 53,326,665 family cells at the int64 cap, about 2 minutes as JSON
    "dp6-enumerate JSON beyond the budget": (["dp6-enumerate", "--B", "2147483647", "--out",
                                              "x.json", "--format", "json"], None, POINTS),
    "zero point budget": (["dp6-enumerate", "--B", "0", "--out", "x.csv"], None,
                          "budget B must be positive"),
    "negative point factor bound": (["dp6-enumerate", "--B", "1000", "--t", "-1", "--out",
                                     "x.csv"], None, "factor bound t must be nonnegative"),
    "zero avg-scan X": (["avg-scan", "--X", "0", "--out", "x.csv"], None, "X must be positive"),
    "negative avg-scan epsilon": (["avg-scan", "--epsilon", "-0.5", "--out", "x.csv"], None,
                                  "epsilon must be nonnegative"),
    "negative avg-scan epsilon at given H": (["avg-scan", "--epsilon", "-0.5", "--H", "2",
                                              "--out", "x.csv"], None,
                                             "epsilon must be nonnegative"),
    "timings key not a boolean": (["count", *BOX, "--out", "x.csv"], "timings = maybe\n",
                                  "config key 'timings' is not an option of count"),
    "empty out flag": (["count-scan", "--primes-up-to", "20", "--out", "", "--format", "json"],
                       None, "--out is empty"),
    "empty out key": (["dp6-sieve"], "out =\n", "--out is empty"),
    "directory out flag": (["count-scan", "--primes-up-to", "200", "--out", "."], None,
                           "--out '.' is a directory"),
    "directory out key": (["dp6-enumerate", "--B", "1000000"], "out = .\n",
                          "--out '.' is a directory"),
    "count modulus not prime to ab": (["count", "--a", "2", "--b", "1", "--q", "4", "--X", "10",
                                       "--Y", "10", "--out", "x.csv"], None,
                                      "a*b must be coprime to q"),
    "bilinear M beyond the build cap": (["bilinear", "--M", "360000", "--N", "1", "--out",
                                         "x.csv"], None, TABLE),
    "no scanned modulus prime to ab": (["count-scan", "--q-list", "6", "--a", "2", "--b", "1",
                                        "--out", "x.csv"], None,
                                       "--a, --b: a*b = 2 shares a factor with every modulus q"),
}


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused_before_any_output(case, tmp_path, capsys, monkeypatch):
    argv, config, needle = REFUSALS[case]
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "opts.cfg").write_text(config)
        argv = [*argv, "--config", "opts.cfg"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert needle in err
    assert out == ""
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


def test_huge_q_is_the_next_prime():
    sympy = pytest.importorskip("sympy")
    assert sympy.nextprime(10**155) == HUGE_Q


# every refusal comes before a prime sieve, a cell count, a sieve sequence, a
# Jacobi table, a box count or a draw of vaaler samples, bilinear signs or
# avg-scan coefficients
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused_before_any_work(case, tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("work began before the arguments were checked")

    for module, name in ((cli.arith, "sieve_primes"), (cli.dp6, "sieve_primes"),
                         (cli.averaged, "cell_sums"),
                         (cli.dp6, "_sieve_sequence"), (cli.congruence, "_jacobi_table"),
                         (cli.congruence, "_unit_count"), (cli.congruence, "_class_hits"),
                         (cli.averaged, "unit_disc_point"), (cli, "random_floats"),
                         (cli, "random_signs")):
        monkeypatch.setattr(module, name, no_work)
    test_refused_before_any_output(case, tmp_path, capsys, monkeypatch)


# (command, the other options it needs, option, values at the edge of its
# range, the first value beyond that edge)
RANGES = [
    ("avg-scan", [], "seeds", ["1"], "0"),
    ("bilinear", [], "seeds", ["1"], "0"),
    ("bilinear", [], "M", ["1"], "0"),
    ("bilinear", [], "N", ["1"], "0"),
    ("count-scan", [], "primes-up-to", ["2"], "1"),
    ("vaaler", ["--H", "8"], "samples", ["1"], "0"),
    ("vaaler", ["--samples", "1"], "H", ["1"], "0"),
    ("vaaler", ["--samples", "1"], "H", ["1000000"], "1000001"),
    ("count", BOX[2:], "a", ["1", "-1"], "0"),
    ("count", [*BOX[:2], *BOX[4:]], "b", ["1", "-1"], "0"),
    ("count-scan", [], "a", ["1", "-1"], "0"),
    ("count-scan", [], "b", ["1", "-1"], "0"),
    ("count-scan", [], "x", ["1", "q"], "999/1000"),
    ("count-scan", ["--q-list", "5,7"], "y", ["1", "q"], "999/1000"),
]


@pytest.mark.parametrize("command, others, name, edges, beyond", RANGES,
                         ids=[f"{r[0]} --{r[2]} {r[4]}" for r in RANGES])
def test_option_ranges_admit_their_edge_and_refuse_beyond(command, others, name, edges, beyond,
                                                          tmp_path, capsys, monkeypatch):
    # the edge is checked by resolve alone: vaaler at H = 10^6 would take seconds
    monkeypatch.chdir(tmp_path)
    for value in edges:
        argv = [command, *others, f"--{name}", value]
        o = cli.resolve(cli._plain_args(command, argv) or cli.build_parser().parse_args(argv))
        assert vars(o)[name.replace("-", "_")] == (None if value == "q" else int(value))
    (tmp_path / "opts.cfg").write_text(f"{name} = {beyond}\n")
    for argv, source in (([f"--{name}", beyond], f"argument --{name}"),
                         ([f"--{name}={beyond}"], f"argument --{name}"),
                         (["--config", "opts.cfg"], f"config key {name!r}")):
        code, out, err = run([command, *others, *argv], capsys)
        assert (code, out) == (2, "")
        assert f"{source}: must be " in err, err


# ---- admission: every argv is held to one budget pair ----

ROOT = Path(__file__).resolve().parent.parent


def _workflow_argvs(workdir):
    # the congruence-lab argv of every tier1.yml step that expects exit 0
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    argvs = []
    for step in text.split("\n      - ")[1:]:
        for line in step.splitlines() if "|| code=$?" not in step else []:
            if "congruence-lab " in line and "--help" not in line:
                command = re.split(r" [|>]| 2>", line.split("congruence-lab ", 1)[1])[0]
                argvs.append(command.replace("$RUNNER_TEMP", str(workdir)).replace('"', "").split())
    return argvs


def _readme_argvs():
    # the commands of README's shell examples, continuation lines joined
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    return [line.split()[1:] for block in blocks for line in block.replace("\\\n", "").splitlines()
            if line.startswith("congruence-lab ")]


def _bench_argvs(monkeypatch):
    # every command of the three bench workloads at seeds 0-31, full size
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    return workloads.WORK_DIR, [list(cmd.argv) for name in workloads.WORKLOADS
                                for seed in range(32) for cmd in workloads.commands(name, seed)]


def test_every_argv_run_here_is_admitted(tmp_path, monkeypatch):
    # the golden cases, the bench workloads, the CI steps that expect exit 0
    # and the README example: each within both budgets
    monkeypatch.chdir(tmp_path)
    workdir, bench = _bench_argvs(monkeypatch)
    (tmp_path / workdir).mkdir()
    golden = [[arg.replace("{golden}", str(test_golden.GOLDEN)) for arg in argv]
              for argv, _ in test_golden.CASES.values()]
    argvs = [*golden, *bench, *_workflow_argvs(tmp_path), *_readme_argvs()]
    assert len(argvs) > 17 + 32 * 11 + 10
    for argv in argvs:
        o = cli.resolve(cli._plain_args(argv[0], argv) or cli.build_parser().parse_args(argv))
        if cost := cli._COMMANDS[argv[0]][3]:
            steps, size = cli._estimate(argv[0], o)
            assert steps * cost[1] * 1e-9 <= cli.BUDGET_SECONDS, argv
            assert size <= cli.BUDGET_BYTES, argv


@pytest.mark.parametrize("scheme", ["all-ones", "joint", "factorized"])
def test_avg_scan_estimate_bounds_its_run_time(scheme, capsys):
    # the estimate charges each seed its unit-disc draws, most of this
    # family's time at every scheme but all-ones
    argv = ["avg-scan", *DRAWN, "--seeds", "20", "--scheme", scheme]
    steps = cli._estimate("avg-scan", cli.resolve(cli._plain_args(argv[0], argv)))[0]
    start = time.perf_counter()
    assert cli.main(argv) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed <= steps * cli._COMMANDS["avg-scan"][3][1] * 1e-9, (elapsed, steps)


@pytest.mark.parametrize("fmt", ["none", "csv", "json"])
def test_dp6_enumerate_estimate_bounds_its_run_time(fmt, tmp_path, capsys, monkeypatch):
    # writing a row costs more than finding it, so each format has its own rate
    monkeypatch.chdir(tmp_path)
    out = [] if fmt == "none" else ["--out", "p", "--format", fmt]
    for B in ("3000000", "10000000"):
        argv = ["dp6-enumerate", "--B", B, *out]
        steps = cli._estimate(argv[0], cli.resolve(cli._plain_args(argv[0], argv)))[0]
        start = time.perf_counter()
        assert cli.main(argv) == 0
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert elapsed <= steps * cli._COMMANDS[argv[0]][3][1] * 1e-9, (B, elapsed, steps)


# (argv, how many times the traced peak the bytes estimate may be); README
# "Admission" states each factor
BYTES = [
    (["count-scan", "--primes-up-to", "20000", "--out", "x.csv"], 4),
    (["count-scan", "--primes-up-to", "100000", "--out", "x.json", "--format", "json"], 4),
    (["vaaler", "--H", "1", "--samples", "1000000"], 12),
    (["vaaler", "--H", "20000", "--samples", "512"], 12),
    (["bilinear", "--M", "2047", "--N", "2048", "--seeds", "2"], 4),
    (["bilinear", "--M", "1", "--N", "1", "--seeds", "5000"], 4),
    (["dp6-growth", "--B-list", "1000000000"], 2),
    (["dp6-growth", "--B-list", "1000000,10000000000"], 2),
    (["dp6-enumerate", "--B", "10000000", "--out", "x.csv"], 6),
    (["dp6-enumerate", "--B", "1000000", "--out", "x.json", "--format", "json"], 6),
]


@pytest.mark.parametrize("argv, factor", BYTES, ids=lambda x: " ".join(x) if isinstance(x, list)
                         else str(x))
def test_bytes_estimate_bounds_the_traced_peak(argv, factor, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    size = cli._estimate(argv[0], cli.resolve(cli._plain_args(argv[0], argv)))[1]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= size <= factor * peak, (peak, size)


def test_flag_and_config_values_agree(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.cfg").write_text("H = 2\n")
    args = ["avg-scan", "--t", "5", "--U", "2", "--V", "2", "--W", "2", "--Y", "12",
            "--X", "5", "--seeds", "2", "--out"]
    flag = run([*args, "flag.csv", "--H", "2"], capsys)
    config = run([*args, "config.csv", "--config", "h.cfg"], capsys)
    assert flag[0] == config[0] == 0
    assert flag[1].replace("flag.csv", "") == config[1].replace("config.csv", "")
    assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "config.csv").read_bytes()


def test_help_lists_only_own_options(capsys):
    with pytest.raises(SystemExit):
        cli.main(["gauss", "--help"])
    out = capsys.readouterr().out
    assert "--s" in out and "required" in out
    assert "--scheme" not in out and "--out" not in out


# one argv per command, touching a converter or a choice where it has one
SAMPLES = {
    "gauss": ["gauss", "--s", "3", "--t", "1", "--u", "20"],
    "count": ["count", *BOX, "--out", "x.csv", "--format", "json"],
    "count-scan": ["count-scan", "--q-list", "5,7", "--x", "q", "--y", "3/2"],
    "vaaler": ["vaaler", "--H", "8", "--samples", "10", "--format", "json"],
    "avg-scan": ["avg-scan", "--scheme", "factorized", "--H", "2.5", "--U", "2"],
    "dp6-enumerate": ["dp6-enumerate", "--B", "1000", "--config", "p.cfg"],
    "dp6-growth": ["dp6-growth", "--B-list", "1000,2000", "--t", "9"],
    "dp6-sieve": ["dp6-sieve", "--rho-max", "5", "--tau", "0.3"],
    "bilinear": ["bilinear", "--M", "16", "--seeds", "2"],
}


def test_plain_walk_parses_like_argparse():
    # whenever the walk answers, it answers what argparse would; the draws
    # mix every command's flags with forms it must leave to argparse
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    flags = sorted({flag for table in cli._FLAGS.values() for flag in table})
    flag = st.sampled_from([*flags, "-h", "--help", "--bogus", "--prim", "--B", "--Y=10"])
    choices = sorted({c for t in cli._FLAGS.values() for o in t.values() for c in o.choices or ()})
    value = st.sampled_from(["0", "-1", "nan", "inf", "1e400", "1/0", "q", "", ",", *choices,
                             "bogus", "-", "--", "1", "7", "3/2", "0.5", "5,7", "1000"])
    item = st.one_of(st.tuples(flag, value), st.tuples(flag), st.tuples(value))
    argvs = st.builds(lambda name, items: [name, *(token for i in items for token in i)],
                      st.sampled_from(list(cli._COMMANDS)), st.lists(item, max_size=6))
    full = cli.build_parser()

    def check(argv):
        args = cli._plain_args(argv[0], argv)
        if args is not None:
            assert args == full.parse_args(argv)

    for argv in SAMPLES.values():
        check = hypothesis.example(argv=argv)(check)
    hypothesis.settings(max_examples=1000, deadline=None, derandomize=True)(
        hypothesis.given(argv=argvs)(check))()


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_flag_of_another_command_is_left_to_argparse(name, capsys):
    # every flag that is not one of name's, prefixes of name's own flags
    # (such as --B of dp6-growth's --B-list) included, is refused as unrecognized
    own = cli._FLAGS[name]
    flags = sorted({f for table in cli._FLAGS.values() for f in table} - own.keys())
    assert flags
    for flag in flags:
        argv = [name, flag, "1"]
        assert cli._plain_args(name, argv) is None
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 1" in err


def test_plain_argv_never_builds_the_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.cfg").write_text("t = 5\n")

    def no_parser():
        raise AssertionError("argparse ran on a plain argv")

    assert list(SAMPLES) == list(cli._COMMANDS)
    for argv in SAMPLES.values():
        with monkeypatch.context() as m:
            m.setattr(cli, "_plain_args", lambda command, argv: None)
            want = run(argv, capsys)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", no_parser)
            assert run(argv, capsys) == want, argv
        assert want[0] in (0, 2), argv


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["count", "--no-such-flag"],
                                  ["avg-scan", "--scheme", "bogus"], ["gauss", "--help"],
                                  ["-h", "count"], ["count", *BOX, "--e"],
                                  ["gauss", "--s", "x", "--t", "0", "--u", "5"],
                                  ["count-scan", "--timings", "yes"]],
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_usage_and_errors_match_the_full_parser(argv, capsys):
    command = argv[0] if argv and argv[0] in cli._COMMANDS else None
    assert command is None or cli._plain_args(command, argv) is None
    got = run(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert got == (exc.value.code, *capsys.readouterr())
    assert got[1] or got[2]


def test_argparse_only_forms_still_work(tmp_path, capsys, monkeypatch):
    # --flag=value and a negative value, which the walk leaves to argparse,
    # parse as their plain forms do; an abbreviation, also left to argparse,
    # is refused by name before any output
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.cfg").write_text("a = -1\n")
    pairs = [(["count", *BOX[:-2], "--Y=10"], ["count", *BOX]),
             (["count", "--a", "-1", *BOX[2:]], ["count", *BOX[2:], "--config", "a.cfg"])]
    for other, plain in pairs:
        assert cli._plain_args(other[0], other) is None
        assert cli._plain_args(plain[0], plain) is not None
        got, want = run(other, capsys), run(plain, capsys)
        assert got[0] == want[0] == 0
        assert got[1] == want[1]
    abbreviated = ["count-scan", "--prim", "50", "--out", "a.csv"]
    assert cli._plain_args(abbreviated[0], abbreviated) is None
    code, out, err = run(abbreviated, capsys)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --prim 50" in err
    assert not (tmp_path / "a.csv").exists()


# ---- fuzz: any argv or config drawn from the option table exits 0 or 2 ----

# the values a draw takes for an option, by its converter: a few that run
# fast, and the edge values every converter must refuse or survive
POOLS = {  # by the converter's name, which every int or float range keeps
    "int": ["0", "-1", "1", "2", "3", "5", "7", "27", "97", "1000", "4096", "2.5", "1e300", "nan"],
    "fraction": ["0", "-1", "1", "3/2", "10", "1/0", "4096", "1e300", "1e400", "nan"],
    "float": ["0", "-1", "0.05", "0.5", "3", "2000", "4096", "1e300", "nan", "inf",
                       "-inf"],
    "int_list": ["", ",", "0", "-5", "5,7", "1000,2000", "4096"],
    "box_side": ["q", "0", "1/2", "1", "3/2", "10", "4096", "1e300", "nan"],
    "str": ["out.txt", "missing/out.txt"],  # --out, the one option of kind str without choices
}
# sizes just above each exactness cap, and just above the budgets whatever the
# other options (at their cheapest), each refused before any work
ABOVE_CAP = {
    ("gauss", "u"): ["121000000", str(2**31)],
    ("count", "q"): [str(2**31 + 11)],
    ("count-scan", "primes-up-to"): ["6700000", str(2**31)],
    ("count-scan", "q-list"): [f"15,{2**31 + 11}"],
    ("vaaler", "H"): [str(10**6 + 1)],
    ("vaaler", "samples"): ["12200000"],
    ("dp6-enumerate", "B"): [str(2**31)],
    ("dp6-growth", "B-list"): ["1000,162000000000", f"1000,{2**50}"],
    ("dp6-sieve", "z-max"): ["470000"],
    ("dp6-sieve", "rho-max"): ["2120000"],
    ("bilinear", "M"): ["360000", str(2**28)],
    ("bilinear", "seeds"): ["1200000"],
    ("avg-scan", "seeds"): ["1100000"],
    ("avg-scan", "t"): [str(2**30)],  # t floor(2W) = 2^31 at the default W = 1
}
# sizes drawn without 1000 and 4096, at which an accepted draw takes 0.2 s or more
SMALL_ONLY = {("vaaler", "samples"), ("bilinear", "seeds"), ("avg-scan", "W")}
# an option no draw sets takes this value, for the required ones and for a
# default that would make the draw slow
UNDRAWN = {
    "gauss": {"s": "3", "t": "1", "u": "20"},
    "count": {"a": "1", "b": "1", "q": "5", "X": "10", "Y": "10"},
    "vaaler": {"H": "8", "samples": "64"},
    "dp6-enumerate": {"B": "1000"},
}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _pool(command, o):
    if o.choices:
        return [*o.choices, "bogus"]
    return [value for value in POOLS[o.kind.__name__] + ABOVE_CAP.get((command, o.name), [])
            if not (value in ("1000", "4096") and (command, o.name) in SMALL_ONLY)]


def _draws(st, command):
    # lists of (name, value, in the config file or as a flag); the names of
    # a deleted flag and of no option are drawn too, and a key drawn twice
    # into the config file is a repeated key
    options = cli._COMMANDS[command][2]
    item = st.one_of(
        *(st.tuples(st.just(o.name), st.sampled_from(_pool(command, o)), st.booleans())
          for o in options),
        st.tuples(st.sampled_from(["timings", "bogus"]), st.just("1"), st.booleans()))
    return st.lists(item, max_size=6)


def _draw_argv(command, items, workdir):
    # the argv of a draw, its config lines written to workdir/opts.cfg
    config = [f"{name} = {value}\n" for name, value, in_config in items if in_config]
    argv = [command]
    for name, value, in_config in items:
        if not in_config:
            argv += [f"--{name}", value]
    drawn = {name for name, _, _ in items}
    for name, value in UNDRAWN.get(command, {}).items():
        if name not in drawn:
            argv += [f"--{name}", value]
    if config:
        (workdir / "opts.cfg").write_text("".join(config))
        argv += ["--config", "opts.cfg"]
    return argv


# draws that once exited 1: dp6-sieve's d_max left float range, as X^tau
# overflowed, log^c2 X overflowed, or log^c2 X fell to 0 at X = 3/2; and
# avg-scan took len() of the 10^300 integers of J
EXITED_1 = {
    "dp6-sieve": [[("tau", "4096", False)], [("c2", "1e300", True)],
                  [("B", "27", False), ("q", "3", False), ("c2", "2000", False)]],
    "avg-scan": [[("Y", "1e300", False)]],
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_fuzzed_options_exit_0_or_2(command, tmp_path, capsys, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    monkeypatch.chdir(tmp_path)
    count = itertools.count()

    def check(items):
        workdir = tmp_path / str(next(count))
        workdir.mkdir()
        os.chdir(workdir)
        argv = _draw_argv(command, items, workdir)
        code, out, err = run(argv, capsys)
        assert code in (0, 2), (argv, err)
        files = [path for path in workdir.rglob("*") if path.name != "opts.cfg"]
        if code == 2:
            assert files == [], (argv, err)
        else:
            for text in [out, *(path.read_text() for path in files)]:
                assert not NON_FINITE.search(text), (argv, text)

    for items in EXITED_1.get(command, []):
        check = hypothesis.example(items=items)(check)
    hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)(
        hypothesis.given(items=_draws(hypothesis.strategies, command))(check))()
