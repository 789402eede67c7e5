"""Smoke test of the benchmark itself, at reduced input sizes.

    python3 -m pytest bench/smoke.py

Not collected by a bare `pytest` run (the file name does not match test_*),
so the repository's test suite does not pay for it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    proc = bench(workload, trace)
    result = result_of(proc)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    printed = proc.stdout.splitlines()[:-1]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(re.match(rf"\s*{re.escape(m['name'])} .* {m['unit']}$", line)
                   for line in printed), m["name"]
    if not trace:
        assert any(line.split()[0] == "ops_failed_frac" for line in printed if line.strip())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result_of(bench(workload, 1))["metrics"] for _ in range(2))
    for name in spans.EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_spec_matches_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == spans.metric_names()
    with open(os.path.join(BENCH, "predictions.md")) as fh:
        predictions = fh.read()
    for m in SPEC["per_layer"]:
        assert f"`{m['name']}`" in predictions, m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
