#!/usr/bin/env python3
"""Verifier benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload {table1,corpus,recheck} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. It builds perfbench/pb.exe and
bin/flux.exe with dune, runs the harness in a scratch directory under
.bench_run/ (removed afterwards, also on failure, together with any
daemon the run left behind) and prints the harness's result as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. Exit code 0 only when every verdict matched its
reference; 1 on a wrong verdict or harness failure; 2 when the tree
cannot be built.

Left out on purpose: the Prusti-style baseline (kmeans' write_center
alone takes 177-219 s for 15 VCs per pass; it stays in `bench table1`),
and the cert, analysis and fuzz layers, which are off the default
verdict path.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("table1", "corpus", "recheck")
# A run is meant to end within 180 s; the harness gets 170 s of it and
# the rest is left for clean-up.
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
RUN_ROOT = ".bench_run"


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "pb.ml")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a full checkout", 2)
    if shutil.which("dune") is None:
        fail("dune not found on PATH", 2)
    try:
        # no shared dune cache: the run writes only inside the checkout
        r = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/pb.exe", "bin/flux.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except subprocess.TimeoutExpired:
        fail("build timed out", 2)
    if r.returncode != 0:
        fail("build failed", 2)


def kill_leftovers(work):
    """Kill a daemon the harness could not stop (its pidfile survives)."""
    pidfile = os.path.join(work, "d.sock.pid")
    try:
        pid = int(open(pidfile).read().strip())
    except (OSError, ValueError):
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def run_harness(args, work):
    cmd = [
        os.path.join("_build", "default", "perfbench", "pb.exe"),
        args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", work,
        "--flux", os.path.join("_build", "default", "bin", "flux.exe"),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("harness timed out", 1)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(RUN_ROOT, str(os.getpid()))
    os.makedirs(RUN_ROOT, exist_ok=True)
    try:
        code, out = run_harness(args, work)
    finally:
        kill_leftovers(work)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail(f"harness exited {code} without a result", 1)
    for line in lines[:-1]:
        print(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
