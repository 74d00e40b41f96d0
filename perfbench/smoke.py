#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py

For every workload run.py knows, gated by BENCHMARK.json or not, it runs
perfbench/run.py --smoke untraced and traced and asserts that the result line
names every metric BENCHMARK.json declares for that mode, with its unit, and
that the correctness gate ran and passed. A run with --inject-fault (one
reported factor corrupted) must fail the gate and exit non-zero. Exit code 0
means every assertion held.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
           *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None, done.stdout


def main():
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            label = f"{workload} trace={trace}"
            code, result, stdout = run(workload, trace)
            expect(code == 0 and result is not None and result["correct"],
                   f"{label}: exit 0 with correct=true")
            if result is None:
                continue
            expect(result["attempted"] > 0 and result["failed"] == 0,
                   f"{label}: gate ran ({result['attempted']} checks), none failed")
            expect("error_rate = 0 fraction" in stdout,
                   f"{label}: error_rate printed")
            got = result["metrics"]
            for m in declared:
                expect(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
                       f"{label}: {m['name']} [{m['unit']}]")
            expect(len(got) == len(declared), f"{label}: no undeclared metric")
        code, result, _ = run(workload, 0, "--inject-fault")
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               f"{workload}: corrupted factor fails the gate")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
