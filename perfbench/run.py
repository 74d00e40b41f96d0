#!/usr/bin/env python3
"""End-to-end benchmark of the three production paths.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: allpairs_sweep (bulk::run_resumable_scan), batch_tree
(batchgcd::run_resumable_batch) and intake_stream (svc::IntakeParser into an
in-process svc::IntakeService). BENCHMARK.json gates the first two;
intake_stream's latency and burst rate move by ~20% between runs minutes
apart on a shared 4-vCPU machine, so it is reported but not gated. The script builds the perfbench binary from
the checkout's sources (Release, under .bench_build/), generates the seeded
inputs once per (workload, seed, scale) outside every timed region, runs the
workload and passes the binary's output through. The last line of standard
output is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1. The
exit code is 0 only when every correctness check passed.

--smoke runs the same code paths on tiny inputs (perfbench/smoke.py uses it);
--inject-fault corrupts one reported factor so the correctness gate must fail.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("allpairs_sweep", "batch_tree", "intake_stream")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build"
BUILD = STATE / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Compiler and program temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(STATE / "tmp"))


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a set-up step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, env=ENV)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(map(str, cmd))}")
        return False
    return done.returncode == 0


def cpu_times():
    """(steal, total) jiffies of all CPUs, from /proc/stat; None elsewhere."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def build():
    """Configures (once) and builds the binary; the lock serializes
    concurrent runs in one checkout."""
    BUILD.mkdir(parents=True, exist_ok=True)
    Path(ENV["TMPDIR"]).mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            if not run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
                # A failed configure leaves a cache that would skip the
                # next attempt's configure step.
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(os.cpu_count() or 1, 4))
        return run_quiet(["cmake", "--build", str(BUILD), "-j", jobs],
                         BUILD_TIMEOUT_S)


def inputs_for(args, common):
    """Generated inputs, cached per (workload, seed, scale)."""
    scale = "smoke" if args.smoke else "full"
    name = f"{args.workload}-seed{args.seed}-{scale}"
    cache = STATE / "inputs" / name
    if (cache / "truth.txt").exists():
        return cache
    tmp = cache.with_name(name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    if not run_quiet([str(BINARY), "gen", *common, "--out", str(tmp)],
                     RUN_TIMEOUT_S):
        shutil.rmtree(tmp, ignore_errors=True)
        return None
    shutil.rmtree(cache, ignore_errors=True)
    tmp.rename(cache)
    return cache


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("build failed")
        return 1
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    inputs = inputs_for(args, common)
    if inputs is None:
        log("input generation failed")
        return 1

    work = STATE / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(BINARY), "run", *common, "--trace", str(args.trace),
           "--inputs", str(inputs), "--work", str(work)]
    if args.trace:
        cmd += ["--trace-out", str(STATE / f"trace-{args.workload}.json")]
    if args.inject_fault:
        cmd.append("--inject-fault")
    before = cpu_times()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = cpu_times()
    # Time the hypervisor gave these CPUs to other guests: a figure
    # measured under heavy steal is not comparable to a quiet one.
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
        print(f"host: cpu steal {steal * 100:.1f}% of cpu time during the run")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
