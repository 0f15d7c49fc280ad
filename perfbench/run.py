#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the root of a checkout of this repository:

    python3 perfbench/run.py --workload contended_ip --seed 1 --seconds 15 --trace 0

--workload all runs every workload of BENCHMARK.json in turn.

The program is built with dune into $CARGO_TARGET_DIR (default .bench_build),
then run once; its stdout is passed through, and its last line is the JSON
result. Traced runs (--trace 1) write their trace-event file into the same
build directory. The exit code is the program's (the worst one for "all"):
0 when every check passed, 1 when one failed, 2 on a usage or set-up error,
3 on a timeout.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so nothing started here outlives the benchmark."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(cmd)}", code=3)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("dune-project", "lib", os.path.join(BENCH_DIR, "dune-project"))
               if not os.path.exists(p)]
    if missing:
        fail("run from the root of a ppp checkout; missing: " + ", ".join(missing))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = os.path.join(build_dir, "default", BENCH_DIR, "bin", "main.exe")
    build = ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
             "--cache", "disabled", "-j", "2", f"./{BENCH_DIR}/bin/main.exe"]
    code = run_group(build, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0 or not os.path.exists(exe):
        fail(f"build failed (dune exit {code})")

    out_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    if args.workload == "all":
        with open("BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    else:
        workloads = [args.workload]
    worst = 0
    for w in workloads:
        sys.stdout.flush()
        cmd = [exe, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
        worst = max(worst, run_group(cmd, RUN_TIMEOUT_S))
    sys.exit(worst)


if __name__ == "__main__":
    main()
