"""One benchmark pass: a fresh interpreter that imports congruence_lab from
the checkout's src/ and runs one workload's command list through
congruence_lab.cli.main, in process, one command after another.

    python3 bench/runner.py --workload box-scan --seed 3 [--trace PATH]
    python3 bench/runner.py --setup-only

Prints one JSON line: the monotonic time at which the import finished and
the probe time and speed scale during the import (the parent subtracts its
spawn time to get the set-up time and rescales it), the wall and CPU
seconds of the command list, raw and rescaled to nominal host speed (see
speed.py), the peak RSS of the process, and per command the exit status,
the content-check failure if any, and the SHA-256 of its stdout and output
files.  With --trace the functions of the package are wrapped first (see
spans.py), the spans are written to PATH and the per-layer metrics are
added.
"""

import os
import sys
import time

import speed  # bench/speed.py: the script's directory is on sys.path

PROBE = speed.SpeedProbe()
PROBE.start()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "congruence_lab", "cli.py")):
    sys.exit(f"runner: no congruence_lab sources under {SRC}")
sys.path.insert(0, SRC)

from congruence_lab import cli  # noqa: E402  (imported first: this is the set-up being timed)

READY = time.monotonic()
SETUP_SAMPLES = PROBE.mark()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def cpu_time() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def digest(stdout: str, outputs) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in outputs:
        h.update(b"\0" + path.encode() + b"\0")
        with open(os.path.join(ROOT, path), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_pass(workload: str, seed: int, size: str, trace_path: str | None) -> dict:
    cmds = workloads.commands(workload, seed, size)
    for cmd in cmds:
        for path in cmd.outputs:
            full = os.path.join(ROOT, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            if os.path.exists(full):
                os.remove(full)
    tracer = spans.install() if trace_path else None
    stdouts, stderrs, codes, timings = [], [], [], []
    for i, cmd in enumerate(cmds):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.command_id = i
        k0 = PROBE.mark()
        c0 = cpu_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(cmd.argv))
        timings.append((time.perf_counter() - t0, cpu_time() - c0, k0, PROBE.mark()))
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())
        codes.append(rc)
    PROBE.stop()
    # (raw, nominal) pairs
    walls = [PROBE.rescale(t, k0, k1) for t, _, k0, k1 in timings]
    cpus = [PROBE.rescale(c, k0, k1) for _, c, k0, k1 in timings]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    errors = workloads.output_errors(cmds, stdouts)
    results = []
    for i, cmd in enumerate(cmds):
        error = errors.get(i)
        if codes[i] != 0:
            error = f"exit status {codes[i]}: {stderrs[i].strip()[:200]}"
        try:
            sha = digest(stdouts[i], cmd.outputs)
        except OSError as exc:
            sha, error = None, error or f"output file missing: {exc}"
        results.append({"argv": list(cmd.argv), "error": error, "sha256": sha})
    report = {
        "wall_s": sum(w for w, _ in walls),
        "cpu_s": sum(c for c, _ in cpus),
        "wall_nominal_s": sum(w for _, w in walls),
        "cpu_nominal_s": sum(c for _, c in cpus),
        "probe_samples": len(PROBE.samples),
        "peak_rss_mb": peak_rss_mb,
        "commands": results,
    }
    if tracer:
        report["layers"] = tracer.metrics(
            [PROBE.scale(k0, k1) for _, _, k0, k1 in timings],
            list(zip(PROBE.starts, PROBE.samples)),
        )
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tracer.write(trace_path)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--trace", metavar="PATH", help="record spans and write them to PATH")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the import; report only its finishing time")
    args = parser.parse_args()
    if args.setup_only:
        PROBE.stop()
    if not args.setup_only and args.workload is None:
        parser.error("--workload is required")
    report = {
        "ready": READY,
        "setup_probe_s": sum(PROBE.samples[:SETUP_SAMPLES]),
        "setup_scale": PROBE.scale(0, SETUP_SAMPLES),
    }
    if not args.setup_only:
        report.update(run_pass(args.workload, args.seed, args.size, args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
