"""Record the output digests that bench/run.py checks every pass against.

    python3 bench/record_digests.py

Runs one full-size pass of every workload for every input variant and
writes, per command, the SHA-256 of its stdout and output files to
bench/digests.json.  A pass whose command fails or fails a content check
stops the recording.  Re-record only when a change is meant to alter the
program's output; a change that claims a speed-up keeps the digests as they
are, since the outputs must stay byte-identical.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    env = run.pass_env()
    table: dict[str, dict[str, list[str]]] = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for variant in range(workloads.VARIANTS):
            report, _, err = run.spawn(
                ["--workload", workload, "--seed", str(variant), "--size", "full"], env)
            if report is None:
                sys.exit(f"{workload} variant {variant}: pass failed: {err}")
            for cmd in report["commands"]:
                if cmd["error"]:
                    sys.exit(f"{workload} variant {variant}: {' '.join(cmd['argv'])}: "
                             f"{cmd['error']}")
            table[workload][str(variant)] = [cmd["sha256"] for cmd in report["commands"]]
            print(f"{workload} variant {variant}: {report['wall_s']:.2f} s", flush=True)
    with open(os.path.join(run.BENCH, "digests.json"), "w") as fh:
        json.dump({"full": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
