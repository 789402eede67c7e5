import pytest

from congruence_lab import cli

BOX = ["--a", "1", "--b", "1", "--q", "5", "--X", "10", "--Y", "10"]

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
    "count budget beyond int8": (["dp6-growth", "--B-list", "1000,1125899906842624"], None,
                                 "B = 1125899906842624 too large"),
    "modulus beyond int32": (["count", "--a", "1", "--b", "1", "--q", "2147483659", "--X", "10",
                              "--Y", "10"], None, "q < 2^31, got q = 2147483659"),
    "point budget beyond int64": (["dp6-enumerate", "--B", "2147483648", "--out", "x.csv"],
                                  None, "B = 2147483648 too large"),
    "no vaaler samples": (["vaaler", "--H", "8", "--samples", "0"], None, "--samples"),
    "negative vaaler samples key": (["vaaler", "--H", "8"], "samples = -3\n", "--samples"),
    "Gauss modulus beyond int32": (["gauss", "--s", "1", "--t", "0", "--u", "2147483648"], None,
                                   "u < 2^31, got u = 2147483648"),
    "scanned modulus beyond int32": (["count-scan", "--q-list", "15,2147483659"], None,
                                     "q < 2^31, got q = 2147483659"),
    "scanned modulus zero": (["count-scan", "--q-list", "0,5"], None, "got q = 0"),
    "scanned modulus negative": (["count-scan", "--q-list", "5,-7"], None, "got q = -7"),
    "out for general exponents": (["count", *BOX, "--e", "2", "--f", "2", "--out", "x.csv"],
                                  None, "--out applies only to e = 1, f = 2"),
    "timings for general exponents": (["count", *BOX, "--e", "2", "--f", "2", "--timings"],
                                      None, "--timings applies only with --out"),
    "timings without out": (["count-scan", "--timings"], None,
                            "--timings applies only with --out"),
    "format flag without out": (["count", *BOX, "--format", "json"], None,
                                "--format applies only with --out"),
    "format key without out": (["count", *BOX], "format = json\n",
                               "--format applies only with --out"),
    "no avg-scan seeds": (["avg-scan", "--seeds", "0", "--out", "x.csv"], None,
                          "--seeds must be >= 1, got 0"),
    "negative bilinear seeds": (["bilinear", "--seeds", "-2"], None,
                                "--seeds must be >= 1, got -2"),
    "no primes to scan": (["count-scan", "--primes-up-to", "1", "--out", "x.csv"], None,
                          "--primes-up-to must be >= 2, got 1"),
    "negative prime bound key": (["count-scan"], "primes-up-to = -4\n",
                                 "--primes-up-to must be >= 2, got -4"),
    "fixed x below 1": (["count-scan", "--x", "1/2", "--out", "x.csv"], None,
                        "--x must be q or a rational >= 1, got 1/2"),
    "fixed y below 1": (["count-scan", "--q-list", "5,7", "--y", "0"], None,
                        "--y must be q or a rational >= 1, got 0"),
    "empty q list": (["count-scan", "--q-list", ","], None, "--q-list"),
    "empty budget list": (["dp6-growth", "--B-list", ""], None, "--B-list"),
    "empty budget list key": (["dp6-growth"], "B-list = ,\n", "'B-list'"),
    "out in a missing directory": (["dp6-enumerate", "--B", "1000000", "--out", "missing/x.csv"],
                                   None, "directory 'missing' does not exist"),
    "zero scan coefficient flag": (["count-scan", "--a", "0", "--out", "x.csv"], None,
                                   "--a must be nonzero, got 0"),
    "zero scan coefficient key": (["count-scan", "--q-list", "5,7", "--out", "x.csv"], "b = 0\n",
                                  "--b must be nonzero, got 0"),
    "config key given twice": (["vaaler"], "H = 2\n# again\nH = 5\n",
                               "config key 'H' is given twice, on lines 1 and 3"),
    "empty rho table": (["dp6-sieve", "--rho-max", "0", "--out", "x.csv"], None,
                        "(--rho-max) must be >= 1, got 0"),
    "zero tau level": (["dp6-sieve", "--tau", "0"], None, "(--tau) must be > 0, got 0.0"),
    "negative tau level key": (["dp6-sieve"], "tau = -0.5\n", "(--tau) must be > 0, got -0.5"),
    "empty remainder sum": (["dp6-sieve", "--tau", "0.01", "--out", "x.csv"], None,
                            "d_max = X^tau / log^c2 X = 0.30245104505007814 is below 1, so the"
                            " remainder sum is empty: raise tau (--tau) or lower c2 (--c2)"),
    "empty remainder sum key": (["dp6-sieve", "--B", "1500", "--tau", "0.3", "--out", "x.csv"],
                                "c2 = 2\n", "d_max = X^tau / log^c2 X = 0.21523336859822245"),
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
    assert not (tmp_path / "x.csv").exists()


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


# one argv per command, touching a converter, a choice or a switch where it has one
SAMPLES = {
    "gauss": ["gauss", "--s", "3", "--t", "1", "--u", "20"],
    "count": ["count", *BOX, "--f", "3", "--timings", "--out", "x.csv"],
    "count-scan": ["count-scan", "--q-list", "5,7", "--x", "q", "--y", "3/2"],
    "vaaler": ["vaaler", "--H", "8", "--samples", "10", "--format", "json"],
    "avg-scan": ["avg-scan", "--scheme", "factorized", "--H", "2.5", "--U", "2"],
    "dp6-enumerate": ["dp6-enumerate", "--B", "1000", "--config", "p.cfg"],
    "dp6-growth": ["dp6-growth", "--B-list", "1000,2000", "--t", "9"],
    "dp6-sieve": ["dp6-sieve", "--rho-max", "5", "--tau", "0.3"],
    "bilinear": ["bilinear", "--M", "16", "--seeds", "2"],
}


def test_pruned_parser_parses_like_the_full_one():
    assert list(SAMPLES) == list(cli._COMMANDS)
    full = cli.build_parser()
    for name, argv in SAMPLES.items():
        assert cli.build_parser(name).parse_args(argv) == full.parse_args(argv), name


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_pruned_parser_holds_only_its_command(name, capsys):
    other = next(n for n in SAMPLES if n != name)
    with pytest.raises(SystemExit):
        cli.build_parser(name).parse_args(SAMPLES[other])
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["count", "--no-such-flag"],
                                  ["avg-scan", "--scheme", "bogus"], ["gauss", "--help"],
                                  ["-h", "count"]],
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_usage_and_errors_match_the_full_parser(argv, capsys, monkeypatch):
    pruned = run(argv, capsys)
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
    full = run(argv, capsys)
    assert pruned == full
    assert pruned[1] or pruned[2]
