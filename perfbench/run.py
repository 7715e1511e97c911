"""The periodkit benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it prints the end-to-end metrics of one workload,
with ``--trace 1`` the per-layer metrics of a traced run (and the
tracing overhead against an untraced run made alongside it).  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A copy with the machine, Python version,
``nproc`` and seed goes to ``.bench_build/perfbench/results/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 12
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0

# Layers whose self time per round (and, for CALL_LAYERS, calls) a traced
# run reports; README.md says which end-to-end metric each should move.
SELF_LAYERS = (
    "oracle.verify_proposition", "oracle.build_mat1", "oracle.sym_det",
    "oracle.laurent_mul", "oracle.laurent_pow", "oracle.laurent_cmp",
    "oracle.cleared_period_product", "oracle.other",
    "periods.monomial_init", "periods.expand", "periods.apply_rule",
    "periods.derive", "periods.other",
    "deligne.pair_context", "deligne.period_forms",
    "combinatorics", "hodge", "lfactor", "automorphic", "sampling", "suites",
    "cli.main", "fileio.parse", "fileio.other",
)
CALL_LAYERS = (
    "oracle.verify_proposition", "oracle.sym_det", "periods.monomial_init", "periods.expand",
)


class BenchError(Exception):
    pass


def _spawn(workload, seed, seconds, workdir, deadline, *flags):
    """Run worker.py; return (seconds from spawn to ``ready``, parsed result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds),
            str(workdir), *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {workload} {' '.join(flags)} exited {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if rest.strip() else None
    return t_ready - t0, result


def end_to_end(workload, setups, res, prefix="norm_") -> dict:
    """The seven end-to-end metrics; ``prefix=""`` gives them from raw times."""
    lat_ms = [x * 1e3 for x in res[prefix + "latencies_s"]]
    wall = statistics.median(res[prefix + "rounds_s"])
    rss_kb = res["maxrss_children_kb" if workload == "cli-oneshot" else "maxrss_self_kb"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (res["ops_per_round"] / wall, "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_frac": ((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
    }


def setup_times(workload, seed, workdir, deadline) -> tuple[list, list]:
    """Raw and normalized set-up times of SETUP_SAMPLES fresh probes.

    One more probe before them fills the bytecode cache and is not counted.
    """
    _spawn(workload, seed, 0, workdir, deadline, "--probe")
    raw, norm = [], []
    for _ in range(SETUP_SAMPLES):
        kernels = [speed.kernel_seconds(), speed.kernel_seconds()]
        t, _ = _spawn(workload, seed, 0, workdir, deadline, "--probe")
        kernels += [speed.kernel_seconds(), speed.kernel_seconds()]
        raw.append(t)
        norm.append(t / speed.slowdown(kernels))
    return raw, norm


def per_layer(untraced, traced) -> dict:
    rounds = len(traced["rounds_s"])
    calls, self_s = defaultdict(int), defaultdict(float)
    for span, (n, s) in traced["self_times"].items():
        layer = tracing.layer_of(span)
        calls[layer] += n
        self_s[layer] += s
    counters = defaultdict(int, traced["counters"])
    metrics = {f"{layer}.self_s": (self_s[layer] / rounds, "s") for layer in SELF_LAYERS}
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer] / rounds, "count")
    pp_checks = counters["sampling.has_no_pp_class.calls"]
    pp_pairs = traced["self_times"].get("sampling.random_pp_free_pair", (0, 0.0))[0]
    traced_wall = statistics.median(traced["norm_rounds_s"])
    metrics.update({
        "oracle.sym_det.terms_out": (counters["oracle.sym_det.terms_out"] / rounds, "count"),
        "oracle.laurent_mul.term_pairs": (
            counters["oracle.laurent_mul.term_pairs"] / rounds, "count"),
        "oracle.rhs_terms_max": (counters["oracle.rhs_terms_max"], "count"),
        "sampling.pp_free.accept_ratio": (pp_pairs / pp_checks if pp_checks else 0.0, "ratio"),
        "cli.interp_s": (self_s["cli.interp"] / rounds, "s"),
        "cli.import_s": (counters["cli.import_us"] / 1e6 / rounds, "s"),
        "cli.import_wall_s": (self_s["cli.import"] / rounds, "s"),
        "bench.op.self_s": (self_s["bench.op"] / rounds, "s"),
        "trace.install_s": (self_s["trace.install"] / rounds, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.accounted_frac": (sum(self_s.values()) / traced["ops_wall_s"], "ratio"),
        "trace.overhead_s": (traced_wall - statistics.median(untraced["norm_rounds_s"]), "s"),
    })
    return metrics


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "periodkit" / "__init__.py").is_file():
        print(f"error: no periodkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        raw_metrics = {}
        if args.trace == 0:
            raw_setups, setups = setup_times(args.workload, args.seed, workdir, deadline)
            _, res = _spawn(args.workload, args.seed, args.seconds, workdir, deadline)
            runs = [res]
            metrics = end_to_end(args.workload, setups, res)
            raw_metrics = end_to_end(args.workload, raw_setups, res, prefix="")
        else:
            half = args.seconds / 2
            _, untraced = _spawn(args.workload, args.seed, half, workdir, deadline,
                                 "--min-ops", "0")
            _, traced = _spawn(args.workload, args.seed, half, workdir, deadline,
                               "--min-ops", "0", "--trace")
            runs = [untraced, traced]
            metrics = per_layer(untraced, traced)
            traces = OUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.move(traced["spans_path"], traces / f"{args.workload}.spans")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    notes = [n for r in runs for n in r["failure_notes"]]
    golden = json.loads((HERE / "golden.json").read_text()).get(args.workload)
    if args.seed == DEFAULT_SEED and golden is not None:
        # The outputs of the first round at the default seed must match
        # the digest recorded when the benchmark was defined.
        for r in runs:
            attempted += 1
            if r["digest"] != golden:
                failed += 1
                notes.append(f"output digest {r['digest'][:12]} differs from {golden[:12]}")

    payload = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "samples": {"ops": [r["attempted"] for r in runs],
                    "rounds": [len(r["rounds_s"]) for r in runs]},
        "digests": [r["digest"] for r in runs],
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()},
        "median_slowdown": [speed.slowdown(r["kernel_s"]) for r in runs],
        "failure_notes": notes,
        **payload,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )
    samples = "+".join(str(n) for n in record["samples"]["ops"])
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {samples} ops, "
          f"{failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:40s} {value:14.6g} {unit}")
    for note in notes:
        print(f"#   FAILED: {note}")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
