"""A fixed pure-Python kernel that measures how fast the CPU runs right now.

The benchmark runs on a shared host that slows this machine's CPUs by up
to about 1.8x for seconds to minutes at a time, far beyond the bounds in
BENCHMARK.json.  Timing the kernel next to each measurement gives the
current slowdown; dividing a raw time by it reports the time at the
machine's quiet speed.  The kernel does not touch periodkit, and it runs
with the cyclic garbage collector off, so that it never scans the
program's heap: how many objects the program keeps alive does not change
the kernel's time, and a change to the program moves the normalized
times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# The kernel's median time on the quiet reference machine (2-CPU Xeon
# sandbox, CPython 3.11).  Only ratios matter: on another machine the
# normalized times are scaled by one constant factor.
REFERENCE_S = 3.0e-3


def kernel_seconds() -> float:
    """Time one run of the kernel: dict, tuple, int and Fraction work.

    The garbage collector is off meanwhile, so a collection never runs
    inside the kernel.  Every object the kernel makes is freed before the
    collector is back on, so it leaves the collector's counts as it found
    them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        terms: dict = {}
        for i in range(4000):
            key = (i % 37, i % 11, i % 5)
            terms[key] = terms.get(key, 0) + i * 7
        ordered = sorted(terms.items(), key=lambda kv: (kv[0][2], kv[0][0]))
        x = Fraction(1, 3)
        for i in range(1, 300):
            x = x * Fraction(i, i + 1) + Fraction(1, i)
        elapsed = time.perf_counter() - t0
        ok = len(ordered) == len(terms) and x > 0  # keeps the work observable
        del terms, ordered, x
    finally:
        if was_enabled:
            gc.enable()
    if not ok:
        raise AssertionError("speed kernel miscomputed")
    return elapsed


def slowdown(kernel_samples: list[float]) -> float:
    """Current slowdown against the quiet machine, from nearby kernel runs."""
    return statistics.median(kernel_samples) / REFERENCE_S


@contextlib.contextmanager
def held():
    """Defer the sampler's kernel runs to the end of the block.

    For a block that waits on a child process: a kernel run on the other
    CPU meanwhile would time the benchmark's own load, not the host's.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class Sampler:
    """Runs the kernel every ``interval`` seconds from SIGALRM, during ops too.

    Python runs the handler in the main thread between bytecodes, so the
    op pauses while the kernel runs; ``busy`` sums that time, so callers
    can take it out of the op's latency.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.at: list[float] = []
        self.kernels: list[float] = []
        self.busy = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        k = kernel_seconds()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.kernels.append(k)
        self.busy += t1 - t0

    def __enter__(self) -> "Sampler":
        self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)

    def slowdown(self, start: float, end: float, at_least: int = 5) -> float:
        """Slowdown over [start, end]: the kernel runs inside it, widened
        to the nearest ``at_least`` runs for a short interval."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < at_least and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return slowdown(self.kernels[lo:hi])
