"""Tests of the benchmark itself: generator, tracing, metrics, steadiness.

Run from the root of a checkout with
``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import steadiness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from periodkit import automorphic, combinatorics, hodge, lfactor  # noqa: E402


def _env():
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _motive(label, m):
    return hodge.RegularMotiveData(label, *m)


def _rep(label, pi):
    return automorphic.InfinityTypeData(
        label, pi[0], pi[1], conjugate_self_dual=True, discrete_series_split_place=True
    )


class TestGenerator:
    """The benchmark's own arithmetic agrees with periodkit at this commit."""

    def test_pairs_and_intervals(self):
        rng = random.Random(7)
        for _ in range(300):
            n, np_ = rng.randint(1, 4), rng.randint(1, 4)
            m, mp = gen.pp_free_pair(rng, n, np_)
            assert list(m[1]) == sorted(set(m[1]), reverse=True)
            assert all(-gen.P_SPAN <= p <= gen.P_SPAN for p in m[1] + mp[1])
            mm, mmp = _motive("M", m), _motive("M'", mp)
            h = hodge.restriction_tensor(mm, mmp)
            assert hodge.has_no_pp_class(h)
            iv = lfactor.critical_interval(h)
            assert (iv.lo, iv.hi) == gen.pair_interval(m, mp)
            want_a = [list(p) for p in combinatorics.set_A(mm, mmp).sorted_members()]
            assert gen.set_a(m, mp) == want_a
            if not gen.single_has_tie(m):
                iv1 = lfactor.critical_interval(hodge.restriction(mm))
                assert (iv1.lo, iv1.hi) == gen.single_interval(m)
            q, qp = gen.pp_pair(rng, n, np_)
            h = hodge.restriction_tensor(_motive("Q", q), _motive("Q'", qp))
            assert not hodge.has_no_pp_class(h)

    def test_rep_pairs(self):
        rng = random.Random(11)
        for _ in range(200):
            pi, pip = gen.critical_rep_pair(rng, rng.randint(1, 4), rng.randint(1, 4))
            a, b = _rep("Pi", pi), _rep("Pi'", pip)
            assert automorphic.pair_is_critical(a, b)
            iv = lfactor.pair_critical_points(a, b)
            assert (iv.lo, iv.hi) == gen.rep_pair_points(pi, pip)
            assert gen.rep_json("Pi", pi)["a"] == [gen.rational_text(Fraction(x)) for x in a.a]

    def test_same_seed_same_inputs(self):
        one = gen.pp_free_pair(random.Random("s/3"), 3, 4)
        two = gen.pp_free_pair(random.Random("s/3"), 3, 4)
        assert one == two


class TestWorkloads:
    def test_oracle_small_shapes_pass_checks(self):
        ops = workloads._oracle_ops(5)
        small = [op for op in ops if op.args[1][0] * op.args[1][1] <= 6]
        assert small
        for op in small:
            ok, note, _ = op()
            assert ok, note

    def test_oracle_check_rejects_wrong_term_count(self, monkeypatch):
        op = workloads._oracle_ops(5)[0]
        monkeypatch.setitem(workloads.RHS_TERMS, op.args[1], 999)
        ok, note, _ = op()
        assert not ok and "rhs terms" in note

    def test_period_algebra_op_checks_instances(self, monkeypatch):
        op = workloads._period_algebra_ops(3)[0]
        assert op()[0]
        monkeypatch.setattr(workloads, "PA_TRIALS", 0)
        ok, note, _ = op()
        assert not ok and "0 of 0" in note

    def test_cli_round_passes_with_expected_errors(self, tmp_path):
        ops = workloads.build("cli-oneshot", 2, tmp_path)
        assert len(ops) == 13 * workloads.CLI_SETS
        codes = [op.args[1] for op in ops]
        assert codes.count(workloads.EXIT_PP_CLASS) == workloads.CLI_SETS
        assert codes.count(workloads.EXIT_NOT_CRITICAL) == workloads.CLI_SETS
        for op in ops[:13]:
            ok, note, _ = op()
            assert ok, note


class TestTracing:
    def test_self_time_subtracts_children(self):
        t = tracing.Tracer()
        root = t.begin("bench.op", 0.0)
        t.add("hodge.x", 1.0, 3.0, root)
        kid = t.add("lfactor.y", 4.0, 8.0, root)
        t.add("hodge.z", 5.0, 6.0, kid)
        t.finish(root, 10.0)
        got = t.self_times()
        assert got["bench.op"] == (1, 4.0)
        assert got["lfactor.y"] == (1, 3.0)
        assert got["hodge.x"][1] + got["hodge.z"][1] == 3.0

    def test_wrapped_spans_nest_and_count(self):
        t = tracing.Tracer()
        inner = t.wrap("hodge.inner", lambda x: x + 1)
        outer = t.wrap("lfactor.outer", lambda x: inner(x) * 2)
        assert outer(1) == 4
        assert [t.names[n] for n in t.name] == ["lfactor.outer", "hodge.inner"]
        assert list(t.parent) == [-1, 0]

    def test_dump_and_load_round_trip(self, tmp_path):
        t = tracing.Tracer()
        t.current_op[0] = 3
        root = t.begin("bench.op", 1.5)
        t.add("hodge.x", 2.0, 2.25, root)
        t.finish(root, 4.0)
        t.counters["oracle.rhs_terms_max"] = 7
        t.dump(tmp_path / "run.spans", t_start=0.5)
        header, spans = tracing.load(tmp_path / "run.spans")
        assert header["t_start"] == 0.5 and header["counters"] == {"oracle.rhs_terms_max": 7}
        assert spans == [("bench.op", 1.5, 4.0, -1, 3), ("hodge.x", 2.0, 2.25, 0, 3)]

    def test_every_wrapped_span_lands_in_a_reported_layer(self):
        script = (
            "import sys, json; sys.path.insert(0, sys.argv[1]); import tracing;"
            "t = tracing.Tracer(); tracing.install(t); print(json.dumps(t.names))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(HERE)],
            capture_output=True, text=True, check=True, env=_env(),
        ).stdout
        names = json.loads(out)
        for required in ("oracle.verify_proposition", "oracle.LaurentPoly.__mul__",
                         "periods.PeriodMonomial.__init__", "deligne.PairContext.build",
                         "cli.main", "fileio.parse_motive", "sampling.random_pp_free_pair"):
            assert required in names
        reported = set(run.SELF_LAYERS)
        for name in names:
            assert tracing.layer_of(name) in reported, name

    def test_traced_worker_accounts_for_wall(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "period-algebra", "4", "0",
             str(tmp_path), "--trace", "--min-ops", "0"],
            capture_output=True, text=True, check=True, env=_env(), cwd=ROOT,
        )
        traced = json.loads(proc.stdout.strip().splitlines()[-1])
        assert traced["failed"] == 0
        metrics = run.per_layer(traced, traced)
        assert set(metrics) == {m["name"] for m in _bench()["per_layer"]}
        assert 0.95 <= metrics["trace.accounted_frac"][0] <= 1.01
        assert metrics["periods.monomial_init.calls"][0] > 0
        assert 0 < metrics["sampling.pp_free.accept_ratio"][0] <= 1


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestMetrics:
    def test_end_to_end_names_match_benchmark_json(self):
        res = {
            "latencies_s": [0.002 * (i + 1) for i in range(100)],
            "rounds_s": [2.0, 4.0, 6.0],
            "norm_latencies_s": [0.001 * (i + 1) for i in range(100)],
            "norm_rounds_s": [1.0, 2.0, 3.0],
            "ops_per_round": 10,
            "attempted": 100,
            "failed": 0,
            "maxrss_self_kb": 2048,
            "maxrss_children_kb": 1024,
        }
        metrics = run.end_to_end("oracle-identity", [0.1, 0.3, 0.2], res)
        assert list(metrics) == [m["name"] for m in _bench()["end_to_end"]]
        assert metrics["wall_s"][0] == 2.0
        assert metrics["ops_per_s"][0] == 5.0
        assert metrics["op_ms_p50"][0] == pytest.approx(50.5)
        assert metrics["setup_s"][0] == 0.2
        assert metrics["peak_rss_mb"][0] == 2.0
        assert metrics["ok_frac"][0] == 1.0
        raw = run.end_to_end("oracle-identity", [0.1], res, prefix="")
        assert raw["wall_s"][0] == 4.0 and raw["op_ms_p50"][0] == pytest.approx(101.0)
        assert run.end_to_end("cli-oneshot", [0.1], res)["peak_rss_mb"][0] == 1.0

    def test_sampler_window_widens_for_short_ops(self):
        sampler = speed.Sampler()
        sampler.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        sampler.kernels = [speed.REFERENCE_S * k for k in (1, 1, 2, 2, 2, 1, 1)]
        assert sampler.slowdown(2.0, 4.0, at_least=3) == 2.0
        assert sampler.slowdown(2.5, 2.6, at_least=3) == 2.0
        assert sampler.slowdown(-1.0, -0.5, at_least=3) == 1.0

    def test_sampler_ticks_during_work_and_counts_its_time(self):
        with speed.Sampler(interval=0.05) as sampler:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        assert len(sampler.kernels) >= 4
        assert 0 < sampler.busy < 0.3

    def test_kernel_runs_no_garbage_collection(self):
        speed.kernel_seconds()  # first-call caches are not the kernel's
        events = []
        callback = lambda phase, info: events.append(phase)  # noqa: E731
        gc.callbacks.append(callback)
        try:
            for _ in range(5):
                speed.kernel_seconds()
        finally:
            gc.callbacks.remove(callback)
        assert events == []
        assert gc.isenabled()
        gc.disable()
        try:
            speed.kernel_seconds()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_normalized_latency_follows_the_program(self):
        """An op with twice the work reads twice as long after normalization.

        The extra work keeps objects alive, as a heavier periodkit op does,
        so this also checks that the kernel's time does not depend on the
        program's heap.  Tolerance: 15 % of the raw ratio.
        """

        def op(n):
            keep = [(i, [i]) for i in range(n)]
            return sum(len(x[1]) for x in keep)

        samples = {1: [], 2: []}
        with speed.Sampler(interval=0.01) as sampler:
            for _ in range(15):
                for k in samples:
                    busy = sampler.busy
                    t0 = time.perf_counter()
                    op(k * 40_000)
                    t1 = time.perf_counter()
                    raw = t1 - t0 - (sampler.busy - busy)
                    samples[k].append((raw, raw / sampler.slowdown(t0, t1)))

        def ratio(i):
            return (statistics.median(x[i] for x in samples[2])
                    / statistics.median(x[i] for x in samples[1]))

        assert 1.5 < ratio(0) < 2.7
        assert ratio(1) == pytest.approx(ratio(0), rel=0.15)

    def test_slowdown_normalizes_to_reference_speed(self):
        assert speed.slowdown([speed.REFERENCE_S] * 3) == 1.0
        assert speed.slowdown([speed.REFERENCE_S, 2 * speed.REFERENCE_S, 9.0]) == 2.0
        assert speed.kernel_seconds() > 0

    def test_refuses_a_tree_without_sources(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle-identity",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""


class TestSteadiness:
    SPEC = [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]

    def _sets(self, setup_a, wall_a, ops_a, setup_b, wall_b, ops_b):
        return [
            {"w": {"setup_s": setup_a, "wall_s": wall_a, "ops_per_s": ops_a}},
            {"w": {"setup_s": setup_b, "wall_s": wall_b, "ops_per_s": ops_b}},
        ]

    def test_steady_sets_pass(self):
        v = [1.0, 1.01, 0.99, 1.0, 1.02]
        _, outside = steadiness.compare(self._sets(v, v, v, v, v, v), self.SPEC)
        assert outside == []

    def test_wide_spread_is_named_for_every_metric(self):
        wide = [0.5, 1.0, 1.5, 0.6, 1.4]
        steady = [1.0, 1.01, 0.99, 1.0, 1.02]
        _, outside = steadiness.compare(
            self._sets(wide, wide, steady, wide, steady, steady), self.SPEC
        )
        assert outside == ["w/setup_s", "w/wall_s"]

    def test_drift_is_named_in_either_direction(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02]
        up = [x * 1.2 for x in base]
        down = [x * 0.8 for x in base]
        _, outside = steadiness.compare(self._sets(base, base, base, up, up, base), self.SPEC)
        assert outside == ["w/wall_s"]
        # A later set that reads better by more than the bound is named too.
        _, outside = steadiness.compare(self._sets(base, base, base, base, down, up), self.SPEC)
        assert outside == ["w/wall_s", "w/ops_per_s"]
        _, outside = steadiness.compare(self._sets(base, base, base, [x * 0.7 for x in base],
                                                   base, base), self.SPEC)
        assert outside == ["w/setup_s"]
        small = [x * 1.05 for x in base]
        _, outside = steadiness.compare(self._sets(base, base, base, small, small, small),
                                        self.SPEC)
        assert outside == []

    def test_spread_is_iqr_over_median(self):
        assert steadiness.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
        q1, med, q3 = __import__("statistics").quantiles([1, 2, 3, 4, 5], n=4)
        assert steadiness.spread([1, 2, 3, 4, 5]) == pytest.approx((q3 - q1) / med)
