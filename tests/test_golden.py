"""Byte-exact CLI outputs for a fixed command set.

Each case runs one congruence-lab command in a fresh directory and compares
its stdout and every file it writes with the files under tests/golden/.
The recorded files are the reference: a change that alters any of them
alters user-visible output.  After an intended output change, rewrite them
with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which records the named cases only, or every case when no name is given, and
exits nonzero on an unknown name.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from congruence_lab import arith, cli, congruence, dp6

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, files the command writes); "{golden}" expands to GOLDEN
CASES = {
    "gauss": (["gauss", "--s", "3", "--t", "1", "--u", "20"], []),
    "count": (["count", "--a", "1", "--b", "1", "--q", "5", "--X", "10", "--Y", "10",
               "--out", "count.csv"], ["count.csv"]),
    "count-json": (["count", "--a", "2", "--b", "3", "--q", "101", "--X", "150/7",
                    "--Y", "77", "--out", "count.json", "--format", "json"], ["count.json"]),
    "count-config": (["count", "--config", "{golden}/count.cfg", "--X", "41/3",
                      "--out", "count-config.csv"], ["count-config.csv"]),
    "count-scan": (["count-scan", "--primes-up-to", "60", "--a", "2", "--b", "3",
                    "--out", "scan.csv"], ["scan.csv"]),
    "count-scan-qlist": (["count-scan", "--q-list", "15,21,22,35,143", "--a", "2",
                          "--x", "7/2", "--y", "q", "--out", "scan-qlist.csv"],
                         ["scan-qlist.csv"]),
    "vaaler": (["vaaler", "--H", "8", "--samples", "2000", "--seed", "3",
                "--out", "vaaler.csv"], ["vaaler.csv"]),
    "avg-scan-joint": (["avg-scan", "--t", "5", "--U", "2", "--V", "2", "--W", "2",
                        "--Y", "30", "--X", "5", "--scheme", "joint", "--seeds", "2",
                        "--out", "avg-joint.csv"], ["avg-joint.csv"]),
    "avg-scan-factorized": (["avg-scan", "--l", "2", "--m", "3", "--t", "7", "--U", "3/2",
                             "--V", "2", "--W", "2", "--y0", "3", "--Y", "25", "--X", "9/2",
                             "--scheme", "factorized", "--epsilon", "0.1", "--seed", "4",
                             "--seeds", "2", "--out", "avg-factorized.json",
                             "--format", "json"], ["avg-factorized.json"]),
    "dp6-enumerate": (["dp6-enumerate", "--B", "2000", "--t", "12", "--out", "points.csv"],
                      ["points.csv"]),
    "dp6-enumerate-json": (["dp6-enumerate", "--B", "2000", "--t", "12", "--out", "points.json",
                            "--format", "json"], ["points.json"]),
    "dp6-growth": (["dp6-growth", "--B-list", "1000,10000", "--t", "10",
                    "--out", "growth.json", "--format", "json"], ["growth.json"]),
    # the three budgets of the bench dp6-family workload's dp6-growth op
    "dp6-growth-bench": (["dp6-growth", "--B-list", "1000000,100000000,1000000000",
                          "--t", "12"], []),
    # one budget past the bench sizes, on every numpy the package supports
    "dp6-growth-1e10": (["dp6-growth", "--B-list", "10000000000", "--t", "12"], []),
    "dp6-sieve": (["dp6-sieve", "--B", "1000", "--q", "7", "--z-max", "100",
                   "--rho-max", "10"], []),
    "dp6-sieve-out": (["dp6-sieve", "--B", "1500", "--q", "7", "--tau", "0.7", "--c2", "0.5",
                       "--mu", "3.5", "--z-max", "50", "--rho-max", "12",
                       "--out", "sieve.json"], ["sieve.json"]),
    "bilinear": (["bilinear", "--M", "64", "--N", "32", "--epsilon", "0.1", "--seed", "2",
                  "--seeds", "2", "--out", "bilinear.csv"], ["bilinear.csv"]),
}


def run_case(name: str, workdir: Path) -> tuple[int, bytes, dict[str, bytes]]:
    argv, outputs = CASES[name]
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in argv]
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {out: (workdir / out).read_bytes() for out in outputs}
    return code, buf.getvalue().encode(), files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, stdout, files = run_case(name, tmp_path)
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    for out, data in files.items():
        assert data == (GOLDEN / out).read_bytes(), out


@pytest.mark.parametrize("name", ["count", "count-scan"])
def test_box_tables_read_no_clock(name, tmp_path, monkeypatch):
    # the seconds column is a constant, so the box tables are the same bytes
    # on any machine and the counter needs no timer
    def no_clock():
        raise AssertionError("a box table read the clock")

    monkeypatch.setattr(time, "perf_counter", no_clock)
    test_golden_output(name, tmp_path)


def _bench_commands(monkeypatch):
    # every command of the three bench workloads at seed 3, full size
    path = Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    cmds = [cmd for name in workloads.WORKLOADS for cmd in workloads.commands(name, 3)]
    return workloads.WORK_DIR, [list(cmd.argv) for cmd in cmds]


# factor_array calls a command makes: one for every command that factors
FACTOR_CALLS = {"count": 1, "count-scan": 1, "avg-scan": 1, "dp6-enumerate": 1, "dp6-sieve": 1,
                "dp6-growth": 0, "gauss": 0, "vaaler": 0, "bilinear": 0}


def test_one_factor_array_call_per_command(tmp_path, monkeypatch):
    # the golden commands and the bench's: the package has one factorizer,
    # and each command calls it at most once, for all of its moduli
    calls = []
    factor_array = arith.factor_array

    def spy(n):
        calls.append(len(n))
        return factor_array(n)

    for module in (arith, congruence, dp6):
        monkeypatch.setattr(module, "factor_array", spy)
    work_dir, bench = _bench_commands(monkeypatch)
    (tmp_path / work_dir).mkdir()
    golden = [[arg.replace("{golden}", str(GOLDEN)) for arg in argv] for argv, _ in CASES.values()]
    monkeypatch.chdir(tmp_path)
    for argv in golden + bench:
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
        assert len(calls) == FACTOR_CALLS[argv[0]], (argv, calls)
    assert {argv[0] for argv in golden + bench} == set(FACTOR_CALLS)
    assert (len(golden), len(bench)) == (17, 11)


# run in a fresh interpreter: the modules that cli.main(argv) imports beyond
# those of importing congruence_lab.cli, as a JSON line [exit code, names]
_LAZY_IMPORTS = """
import contextlib, io, json, sys
from congruence_lab import arith, cli, congruence, dp6
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""
# a refusal of the program's own, past argparse: gcd(ab, q) > 1 leaves no box
_REFUSED = ["count", "--a", "2", "--b", "1", "--q", "4", "--X", "10", "--Y", "10"]


@pytest.mark.parametrize("name", [*sorted(CASES), "refused"])
def test_commands_import_nothing_lazily(name, tmp_path):
    # every module a command needs is imported with the package, so no first
    # call pays an import (np.unique, for one, imports numpy.ma on its first
    # call: about 18 ms)
    argv = _REFUSED if name == "refused" else [
        arg.replace("{golden}", str(GOLDEN)) for arg in CASES[name][0]]
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS, json.dumps(argv)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, imported = json.loads(proc.stdout.splitlines()[-1])
    assert (code, imported) == (2 if name == "refused" else 0, [])


if __name__ == "__main__":
    import tempfile

    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden case: {', '.join(unknown)}")
    for case in sorted(set(sys.argv[1:]) or CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, files = run_case(case, Path(tmp))
        if code != 0:
            sys.exit(f"{case}: exit code {code}")
        (GOLDEN / f"{case}.stdout").write_bytes(stdout)
        for out, data in files.items():
            (GOLDEN / out).write_bytes(data)
        print(f"recorded {case}")
