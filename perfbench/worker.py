"""One workload in a fresh interpreter: set up, say ``ready``, time rounds.

Usage: ``python worker.py WORKLOAD SEED SECONDS WORKDIR [--probe] [--trace]``
with ``src`` of the checkout on ``PYTHONPATH``.  ``--probe`` stops after
set-up (the parent times how long that takes).  Otherwise rounds of the
workload's ops run until SECONDS have passed and at least MIN_OPS ops
are done; ``--trace`` installs the span wrappers after set-up.  The speed
kernel runs every 0.2 s throughout, its time taken out of the latencies,
so that each latency can be normalized to the machine's quiet speed (see
``speed.py``).  The last line of stdout is one JSON object with the raw
samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

MIN_OPS = 100
MAX_FAILURE_NOTES = 5


def _check_source(root: Path) -> None:
    import periodkit

    where = Path(periodkit.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"periodkit was imported from {where}, not from {root / 'src'}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("workdir", type=Path)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--min-ops", type=int, default=MIN_OPS)
    args = ap.parse_args()

    _check_source(Path(__file__).resolve().parent.parent)
    import speed
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    ops = workloads.build(args.workload, args.seed, args.workdir, tracer)
    print("ready", flush=True)
    if args.probe:
        return 0
    if tracer is not None:
        tracing.install(tracer)

    spans, latencies, notes = [], [], []
    attempted = failed = rounds = 0
    digest = hashlib.sha256()
    with speed.Sampler() as sampler:
        begin = time.perf_counter()
        while True:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.current_op[0] = attempted
                    root = tracer.begin("bench.op")
                busy = sampler.busy
                t0 = time.perf_counter()
                try:
                    ok, note, out = op()
                except Exception as exc:  # an op that raises is a failed op
                    ok, note, out = False, f"op {i}: {type(exc).__name__}: {exc}", b""
                t1 = time.perf_counter()
                latencies.append(t1 - t0 - (sampler.busy - busy))
                spans.append((t0, t1))
                if tracer is not None:
                    tracer.finish(root)
                attempted += 1
                if not ok:
                    failed += 1
                    if len(notes) < MAX_FAILURE_NOTES:
                        notes.append(note)
                if not rounds:
                    digest.update(out)
            rounds += 1
            if time.perf_counter() - begin >= args.seconds and attempted >= args.min_ops:
                break

    normalized = [
        lat / sampler.slowdown(t0, t1) for lat, (t0, t1) in zip(latencies, spans)
    ]
    per_round = len(ops)
    result = {
        "rounds_s": [sum(latencies[r : r + per_round]) for r in range(0, attempted, per_round)],
        "latencies_s": latencies,
        "norm_rounds_s": [
            sum(normalized[r : r + per_round]) for r in range(0, attempted, per_round)
        ],
        "norm_latencies_s": normalized,
        "ops_wall_s": sum(t1 - t0 for t0, t1 in spans),
        "kernel_s": sampler.kernels,
        "ops_per_round": per_round,
        "attempted": attempted,
        "failed": failed,
        "failure_notes": notes,
        "digest": digest.hexdigest(),
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        spans_path = args.workdir / "run.spans"
        tracer.dump(spans_path)
        result["spans_path"] = str(spans_path)
        result["self_times"] = tracer.self_times()
        result["counters"] = dict(tracer.counters)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
