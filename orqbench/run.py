#!/usr/bin/env python3
"""Build and run one workload of the repo benchmark.

    python3 orqbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds orqbench/bench.exe with dune, then
runs it pinned to one CPU with a scrubbed environment: no ORQ_* knobs leak
in, temporary files (chunk spill file, service socket) stay under
.orqbench-run/, and the dune cache is off, so nothing outside the checkout
is touched. The benchmark's last stdout line is the JSON result; the exit
code is its.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
RUN_DIR = os.path.join(ROOT, ".orqbench-run")
EXE = os.path.join(ROOT, "_build", "default", "orqbench", "bench.exe")
# Each run must end within 180 s; keep a margin for the build step.
RUN_TIMEOUT_S = 170


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def pin_to_one_cpu():
    """Keep the benchmark on one CPU: the service's worker domain and the
    main domain then never spin against each other on two CPUs, so CPU time
    counts work, not waiting, and every reference sample runs on the CPU
    whose speed it stands for."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
    except (AttributeError, OSError, IndexError):
        pass


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ORQ")}
    env["DUNE_CACHE"] = "disabled"
    os.makedirs(RUN_DIR, exist_ok=True)
    env["TMPDIR"] = RUN_DIR
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./orqbench/bench.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("orqbench: build failed", file=sys.stderr)
        return 1
    env["ORQBENCH_COMMIT"] = commit()
    pin_to_one_cpu()
    try:
        run = subprocess.run([EXE] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("orqbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
