"""The congruence-lab benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload box-scan --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout that has src/congruence_lab.  Each pass
is a fresh interpreter (bench/runner.py) that runs the workload's whole
command list (bench/workloads.py) through congruence_lab.cli.main; passes
repeat, one at a time, until --seconds have gone by (at least MIN_PASSES).

--trace 0 reports the end-to-end metrics, each the median over the run's
passes.  Times are rescaled to the host's nominal speed by the in-process
speed probe of bench/speed.py, because the host's own speed drifts by up to
~1.9x for minutes at a time; the raw times are kept in the run record.
  wall_s       wall seconds of a pass's command list
  cpu_s        user + system CPU seconds of a pass's command list
  peak_rss_mb  peak resident memory of a pass process
  setup_s      spawn of a fresh interpreter to congruence_lab.cli imported,
               over SETUP_PROBES import-only processes and every pass
  ops_ok_frac  commands that exited 0 and passed every output check, over
               commands attempted (1 - ops_failed_frac; a ratio that is
               never 0, so the regression bound applies to it)
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of bench/spans.py (medians over the traced passes) and
trace.overhead_s, the traced minus the untraced median wall_s.  Count
metrics must repeat exactly across the traced passes.

Output checks: every command exits 0; gauss reports match = True; vaaler
reports no majorant violation beyond float rounding; dp6-enumerate counts
what dp6-growth counts at the same B and t; and each command's stdout and output files hash to the SHA-256
recorded in bench/digests.json for that seed (full size only).  A failed
check counts as a failed operation.  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics; run facts (git SHA,
nproc, CPU, Python and numpy versions, src/ line count) are printed before
it and written with every sample to .bench_out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 5
PASS_TIMEOUT_S = 150
# no pass starts this late into a run, so a run ends well within 180 s
LAST_START_S = 110
OUT_DIR = ".bench_out"
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ops_ok_frac": "frac",
}


def pass_env() -> dict[str, str]:
    """The environment of every pass: single-threaded numeric libraries, no
    thread-count override for the program, nothing from PYTHONPATH."""
    env = dict(os.environ)
    for name in ("CONGRUENCE_LAB_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], env: dict[str, str]) -> tuple[dict | None, float, str]:
    """Run bench/runner.py once; (its report or None, set-up seconds at
    nominal host speed, stderr)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "runner.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, 0.0, proc.stderr.strip()
    report = json.loads(lines[-1])
    setup = (report["ready"] - t0 - report["setup_probe_s"]) * report["setup_scale"]
    return report, setup, proc.stderr.strip()


def load_digests() -> dict:
    with open(os.path.join(BENCH, "digests.json")) as fh:
        return json.load(fh)


def metadata() -> dict:
    def git_sha():
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            return None
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() or None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    src_hash = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "congruence_lab", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        src_lines += data.count(b"\n")
        src_hash.update(os.path.basename(path).encode() + b"\0" + data)
    return {
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "src_lines": src_lines,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Run:
    """The passes of one run, their failed operations and other problems."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.env = pass_env()
        self.n_commands = len(workloads.commands(workload, seed, size))
        expected = load_digests().get(size, {}).get(workload, {})
        self.expected = expected.get(str(seed % workloads.VARIANTS))
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.setup: list[float] = []

    def probe_setup(self) -> None:
        # the first probe also compiles the sources to bytecode; it is not kept
        for i in range(SETUP_PROBES + 1):
            report, setup, err = spawn(["--setup-only"], self.env)
            if report is None:
                self.problems.append(f"set-up probe failed: {err[-500:]}")
            elif i:
                self.setup.append(setup)

    def one_pass(self, trace_path: str | None = None) -> dict | None:
        args = ["--workload", self.workload, "--seed", str(self.seed), "--size", self.size]
        if trace_path:
            args += ["--trace", trace_path]
        report, setup, err = spawn(args, self.env)
        self.attempted += self.n_commands
        if report is None:
            self.failures += [f"pass process failed: {err[-500:]}"] * self.n_commands
            return None
        self.setup.append(setup)
        for i, cmd in enumerate(report["commands"]):
            error = cmd["error"]
            if error is None and self.expected is not None and cmd["sha256"] != self.expected[i]:
                error = "stdout/output files differ from the recorded digest"
            if error:
                self.failures.append(f"{' '.join(cmd['argv'])}: {error}")
        return report


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, list[dict], list[str]]:
    """Passes until `seconds` have gone by; (metrics, pass reports, problems)."""
    run.probe_setup()
    plain, traced = [], []
    t0 = time.monotonic()

    def more() -> bool:
        elapsed = time.monotonic() - t0
        done = len(traced) if trace else len(plain)
        return elapsed < LAST_START_S and (done < (1 if trace else MIN_PASSES) or elapsed < seconds)

    trace_path = os.path.join(ROOT, OUT_DIR, f"spans-{run.workload}.npz")
    while more():
        report = run.one_pass()
        if report:
            plain.append(report)
        if trace:
            report = run.one_pass(trace_path)
            if report:
                traced.append(report)
    problems = run.problems
    if run.size == "full" and run.expected is None:
        problems.append("no recorded output digests for this seed")
    if not plain or (trace and not traced) or not run.setup:
        return {}, plain + traced, problems + ["no pass completed"]
    if not trace:
        metrics = {
            "wall_s": statistics.median(p["wall_nominal_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_nominal_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(run.setup),
            "ops_ok_frac": 1.0 - len(run.failures) / run.attempted,
        }
        return metrics, plain, problems
    layers = [p["layers"] for p in traced]
    metrics = {}
    for name in spans.metric_names():
        if name == "trace.overhead_s":
            metrics[name] = (statistics.median(p["wall_nominal_s"] for p in traced)
                             - statistics.median(p["wall_nominal_s"] for p in plain))
        elif name in spans.EXACT:
            values = {layer[name] for layer in layers}
            if len(values) > 1:
                problems.append(f"{name} differs between traced passes: {sorted(values)}")
            metrics[name] = layers[0][name]
        else:
            metrics[name] = statistics.median(layer[name] for layer in layers)
    return metrics, plain + traced, problems


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("self_s") or name.endswith("overhead_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes") or name.endswith(".bytes"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="small: reduced inputs for the smoke test (no digest check)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "congruence_lab", "cli.py")):
        print(f"bench: no congruence_lab sources under {ROOT}/src", file=sys.stderr)
        return 2

    meta = metadata()
    run = Run(args.workload, args.seed, args.size)
    metrics, passes, problems = measure(run, args.seconds, bool(args.trace))
    failed = len(run.failures)
    for line in [*run.failures, *problems]:
        print(f"bench: {line}", file=sys.stderr)

    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    record = os.path.join(ROOT, OUT_DIR,
                          f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "meta": meta, "metrics": metrics,
                   "setup_s": run.setup, "passes": passes,
                   "failures": run.failures, "problems": problems}, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"commands {run.attempted}  failed {failed}")
    print("meta " + json.dumps(meta))
    for name, value in metrics.items():
        print(f"  {name:42s} {value!r} {unit_of(name)}")
    if not args.trace:
        print(f"  {'ops_failed_frac':42s} {failed / max(run.attempted, 1)!r} frac")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
