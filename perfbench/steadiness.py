"""Steadiness check of the benchmark itself.

Runs ``run.py`` several times per workload, each run with its own seed,
in two (or more) sets, and compares the sets against the bounds in
``BENCHMARK.json``.  For each end-to-end metric and workload it reports
every set's median and spread (the distance between the first and third
quartile as a share of the median) and names each metric that is outside
its bound: a spread above the bound, or a later set's median that differs
from the first set's, in either direction, by more than the bound.  The
target is a spread below a third of the bound.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py [--workload NAME ...] [--runs 10] [--sets 2]
                                    [--first-seed 100] [--seconds S]

Exit code 0 when every metric is within its bounds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def drift(first: float, later: float) -> float:
    """How far ``later`` is from ``first``, either way, as a share of ``first``."""
    if not first:
        return 0.0 if later == first else float("inf")
    return abs(later - first) / abs(first)


def compare(sets: list[dict], spec: list[dict]) -> tuple[list[str], list[str]]:
    """Rows of a report and the list of metrics outside their bounds.

    ``sets[k][workload][metric]`` is the list of values of set ``k``;
    ``spec`` is the ``end_to_end`` list of BENCHMARK.json.
    """
    rows, outside = [], []
    for workload in sets[0]:
        for m in spec:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for s in sets:
                values = s[workload][name]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            moved = max((drift(medians[0], x) for x in medians[1:]), default=0.0)
            flags = []
            if max(spreads) > bound:
                flags.append("SPREAD")
            if moved > bound:
                flags.append("DRIFT")
            if not flags and max(spreads) > bound / 3:
                flags.append("(above a third of the bound)")
            rows.append(
                f"{workload:16s} {name:12s} bound {bound:5.3f}  "
                + "  ".join(f"med {x:.5g} spread {y:.4f}" for x, y in zip(medians, spreads))
                + f"  drift {moved:.4f} {' '.join(flags)}"
            )
            if {"SPREAD", "DRIFT"} & set(flags):
                outside.append(f"{workload}/{name}")
    return rows, outside


def collect(workloads, runs, n_sets, first_seed, seconds) -> list[dict]:
    sets = []
    seed = first_seed
    for _ in range(n_sets):
        values: dict = {}
        for workload in workloads:
            per_metric: dict = {}
            for _ in range(runs):
                argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: outputs not correct")
                for name, metric in result["metrics"].items():
                    per_metric.setdefault(name, []).append(metric["value"])
                print(f"set {len(sets)} {workload} seed {seed} done", file=sys.stderr)
                seed += 1
            values[workload] = per_metric
        sets.append(values)
    return sets


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    sets = collect(args.workload or names, args.runs, args.sets, args.first_seed, args.seconds)
    rows, outside = compare(sets, bench["end_to_end"])
    print("\n".join(rows))
    if outside:
        print("outside bounds: " + ", ".join(outside))
        return 1
    print("every metric within its bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
