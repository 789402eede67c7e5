"""Byte-exact CLI outputs for a fixed command set.

Each case runs one congruence-lab command in a fresh directory and compares
its stdout and every file it writes with the files under tests/golden/.
The recorded files are the reference: a change that alters any of them
alters user-visible output.  After an intended output change, rewrite them
with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from congruence_lab import cli

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
    "count-general": (["count", "--a", "1", "--b", "2", "--q", "11", "--X", "30",
                       "--Y", "20", "--e", "3", "--f", "2"], []),
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


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, files = run_case(case, Path(tmp))
        if code != 0:
            sys.exit(f"{case}: exit code {code}")
        (GOLDEN / f"{case}.stdout").write_bytes(stdout)
        for out, data in files.items():
            (GOLDEN / out).write_bytes(data)
        print(f"recorded {case}")
