#!/usr/bin/env python3
"""Bench trend guard: compare fresh BENCH_*.json files against baselines.

Usage:
    tools/compare_bench.py BASELINE.json FRESH.json [BASELINE2.json FRESH2.json ...]
                           [--threshold PCT]

Positional arguments are (baseline, fresh) pairs — one pair per bench
artifact (BENCH_allpairs.json, BENCH_batchgcd.json, ...). For every sample
row present in both files of a pair (an object carrying a
"pairs_per_second" field — staged / vector, nested rows such as
scaling.workers_4 or curve.bits512_m32.batch), prints a GitHub Actions
`::warning` annotation when the fresh throughput is more than --threshold
percent (default 10) below the baseline. Rows present in only one file
(added or removed across the change, e.g. a new sweep point) get a
`::notice` and are skipped — an asymmetric row set is expected churn, not
an error. A baseline file that does not exist yet (first run of a new
bench) is likewise a `::notice`, never a crash. Shared CI runners are far
too noisy for a hard perf gate, so this is advisory only: the script
always exits 0. Stdlib only — no third-party imports.
"""

import argparse
import json
import sys


def sample_rows(doc, prefix=""):
    """Yield (name, row) for every throughput sample in a bench document.

    Recurses into nested objects (the "scaling" / "curve" blocks) with
    dotted names: scaling.workers_4, curve.bits512_m32.batch, ...
    """
    for key, value in doc.items():
        if not isinstance(value, dict):
            continue
        name = f"{prefix}{key}"
        if "pairs_per_second" in value:
            yield name, value
        else:
            yield from sample_rows(value, prefix=f"{name}.")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"::notice ::compare_bench: cannot read {path}: {exc}")
        return None


def compare_pair(baseline_path, fresh_path, threshold):
    """Trend one (baseline, fresh) file pair; returns the regression count."""
    base = load(baseline_path)
    fresh = load(fresh_path)
    if base is None or fresh is None:
        return 0  # missing/garbled input is not a CI failure

    label = fresh.get("benchmark", fresh_path)
    base_rows = dict(sample_rows(base))
    fresh_rows = dict(sample_rows(fresh))
    # Asymmetric row sets are ordinary churn (a sweep point added here, an
    # old row retired there) — announce them instead of trending or crashing.
    for name in sorted(base_rows.keys() - fresh_rows.keys()):
        print(f"::notice ::compare_bench: baseline row '{name}' missing from "
              f"the fresh run — skipped")
    for name in sorted(fresh_rows.keys() - base_rows.keys()):
        print(f"::notice ::compare_bench: fresh row '{name}' has no baseline "
              f"yet — skipped")
    regressions = 0
    for name, brow in base_rows.items():
        frow = fresh_rows.get(name)
        if frow is None:
            continue  # announced above — nothing to trend
        bpps = brow.get("pairs_per_second") or 0.0
        fpps = frow.get("pairs_per_second") or 0.0
        if bpps <= 0.0:
            continue
        delta_pct = (fpps / bpps - 1.0) * 100.0
        print(f"{name}: baseline {bpps:,.0f} pairs/s, fresh {fpps:,.0f} "
              f"pairs/s ({delta_pct:+.1f}%)")
        if delta_pct < -threshold:
            regressions += 1
            print(f"::warning ::{label} '{name}' throughput down "
                  f"{-delta_pct:.1f}% vs baseline "
                  f"({bpps:,.0f} -> {fpps:,.0f} pairs/s); advisory only — "
                  f"shared runners are noisy, re-run before reading much "
                  f"into it")
    return regressions


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+",
                        help="alternating baseline/fresh JSON paths")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression percentage that triggers a warning")
    args = parser.parse_args(argv)

    if len(args.files) % 2 != 0:
        print("::error ::compare_bench: expected an even number of paths "
              "(baseline fresh [baseline fresh ...])")
        return 2

    regressions = 0
    for i in range(0, len(args.files), 2):
        regressions += compare_pair(args.files[i], args.files[i + 1],
                                    args.threshold)
    if regressions == 0:
        print(f"no sample regressed more than {args.threshold:.0f}%")
    return 0  # advisory guard: never fail the build on throughput


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
