#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark executable is built with
dune into _build/, then run with the given arguments; its standard
output is passed through, so the last line is the result JSON. A failed
build, a failed run or a run over the time limit exits non-zero without
printing a result.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout,
    so a daemon the benchmark started cannot outlive it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return 1, None
    return proc.returncode, out


def pin_to_one_cpu():
    """Run the benchmark, and the daemon it starts, on one CPU: no
    migrations, and the serve client and daemon hand off on one core
    instead of waking each other across CPUs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv):
    os.chdir(ROOT)
    try:
        code, _ = run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except OSError as e:
        print(f"cannot build: {e}", file=sys.stderr)
        return 1
    if code != 0 or not os.path.exists(EXE):
        print("benchmark build failed", file=sys.stderr)
        return 1
    pin_to_one_cpu()
    code, out = run([EXE] + argv, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code != 0 or out is None:
        if out:
            sys.stderr.write(out)
        print(f"benchmark exited with code {code}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
