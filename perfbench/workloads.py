"""The three workloads: seeded ops, each with its output check.

An op is a callable returning ``(ok, note, out)``: whether every check
on its output held, a note naming the first failed check, and the bytes
that enter the run's output digest.  A round is the workload's fixed op
list; rounds repeat with the same inputs until the run's time is up.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import speed
import tracing

WORKLOADS = ("oracle-identity", "period-algebra", "cli-oneshot")

# oracle-identity: every rank shape n, n' <= 4 within the default size
# bound of 12, with its count per round.  3x4 and 4x3 dominate the
# round's wall time, and one round holds the 100 ops a run needs.  The
# counts put the median op in the middle of the 2x4 ops and the p90 op in
# the middle of the 3x3 ops, so both percentiles show small-shape cost
# and neither sits on the boundary between two shapes' costs.
ORACLE_ROUND = (
    ((1, 1), 2), ((1, 2), 2), ((2, 1), 2), ((1, 3), 2), ((3, 1), 2),
    ((1, 4), 2), ((4, 1), 2), ((2, 2), 2), ((2, 3), 4), ((3, 2), 4),
    ((4, 2), 4), ((2, 4), 52), ((3, 3), 20), ((3, 4), 1), ((4, 3), 1),
)
# Terms of det(A)^n' det(B)^n: fixed by the shape, recorded at the
# commit that defined the benchmark.
RHS_TERMS = {
    (1, 1): 1, (1, 2): 2, (2, 1): 2, (1, 3): 6, (3, 1): 6, (1, 4): 24,
    (4, 1): 24, (2, 2): 9, (2, 3): 84, (3, 2): 84, (2, 4): 1410,
    (4, 2): 1410, (3, 3): 2916, (3, 4): 221760, (4, 3): 221760,
}

# period-algebra: one op is a combinatorics run then a rewrite run of
# the suites at one derived seed, PA_TRIALS trials each.
PA_TRIALS = 40
PA_OPS_PER_ROUND = 8
PA_PROPERTIES = {
    "combinatorics": {
        "functor_involutions": None,
        "tensor_swap_closure_and_size": None,
        "set_A_is_tableau": None,
        "A_T_index_duality": None,
        "split_indices_sum_to_rank": None,
        "split_conjugation_symmetry": None,
        "cardinality_lemma": None,
        "critical_interval_cross_oracle": None,
        "pair_criticality_matches_hodge_side": None,
        "auto_split_matches_motive_split": None,
        "pair_points_match_shifted_interval": None,
    },
    "rewrite": {
        "monomial_group_laws": None,
        "expand_is_homomorphism": None,
        "q_conjugation_involution": None,
        "tate_delta_closed_forms": None,
        "csd_delta_square_identity": 8,
        "grouped_period_comparison": 44,
        "simplified_matches_raw_expansion": None,
        "automorphic_matches_motivic_rhs": None,
    },
}

# cli-oneshot: file sets per round; each set gives 13 ops, two of them
# expected errors.
CLI_SETS = 2
EXIT_PP_CLASS = 3
EXIT_NOT_CRITICAL = 4
CLI_ENTRY = Path(__file__).resolve().parent / "cli_entry.py"
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)\s*$")


def build(workload: str, seed: int, workdir: Path, tracer=None) -> list:
    if workload == "oracle-identity":
        return _oracle_ops(seed)
    if workload == "period-algebra":
        return _period_algebra_ops(seed)
    if workload == "cli-oneshot":
        return _cli_ops(seed, workdir, tracer)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# oracle-identity


def _oracle_ops(seed: int) -> list:
    from periodkit.hodge import RegularMotiveData

    rng = random.Random(f"oracle-identity/{seed}")
    small, large = [], []
    for shape, count in ORACLE_ROUND:
        for _ in range(count):
            m, mp = gen.pp_free_pair(rng, *shape)
            pair = RegularMotiveData("M", *m), RegularMotiveData("M'", *mp)
            op = functools.partial(_oracle_op, pair, shape)
            (large if shape[0] * shape[1] == 12 else small).append(op)
    # Spread each shape's ops over the round, so that its latencies sample
    # the machine at several moments rather than in one burst.
    rng.shuffle(small)
    half = len(small) // 2
    return small[:half] + large[:1] + small[half:] + large[1:]


def _oracle_op(pair, shape):
    from periodkit import deligne, oracle

    report = oracle.verify_proposition(deligne.PairContext.build(*pair))
    terms = len(report.rhs.terms)
    out = f"{shape} {report.size} {report.ok} {report.sign} {terms}\n".encode()
    if not report.ok or report.sign not in (1, -1):
        return False, f"shape {shape}: ok={report.ok} sign={report.sign}", out
    if terms != RHS_TERMS[shape]:
        return False, f"shape {shape}: {terms} rhs terms, expected {RHS_TERMS[shape]}", out
    return True, "", out


# ---------------------------------------------------------------------------
# period-algebra


def _period_algebra_ops(seed: int) -> list:
    rng = random.Random(f"period-algebra/{seed}")
    return [
        functools.partial(_period_algebra_op, rng.randrange(1 << 30))
        for _ in range(PA_OPS_PER_ROUND)
    ]


def _period_algebra_op(suite_seed: int):
    from periodkit import suites

    notes, digest = [], []
    for suite, expected in PA_PROPERTIES.items():
        summary = suites.run_suites(suite, seed=suite_seed, trials=PA_TRIALS)
        props = {p["name"]: p for p in summary["properties"]}
        digest.append(
            [suite, summary["seed"], summary["ok"],
             [[p["name"], p["instances"], p["failures"]] for p in summary["properties"]]]
        )
        if summary["ok"] is not True:
            notes.append(f"{suite} seed {suite_seed}: summary not ok")
        for name, count in expected.items():
            want = PA_TRIALS if count is None else count
            got = props.get(name, {}).get("instances")
            if got != want:
                notes.append(f"{suite}/{name}: {got} instances, expected {want}")
        for p in props.values():
            if p["failures"] or p["instances"] < 1:
                notes.append(f"{suite}/{p['name']}: {p['failures']} of {p['instances']} failed")
    out = (json.dumps(digest) + "\n").encode()
    return not notes, "; ".join(notes[:3]), out


# ---------------------------------------------------------------------------
# cli-oneshot


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _cli_ops(seed: int, workdir: Path, tracer) -> list:
    rng = random.Random(f"cli-oneshot/{seed}")
    ops = []
    for k in range(CLI_SETS):
        d = workdir / f"set{k}"
        d.mkdir(parents=True, exist_ok=True)
        while True:
            m, mp = gen.pp_free_pair(rng, rng.randint(1, 4), rng.randint(1, 4))
            if not gen.single_has_tie(m):
                break
        tie = gen.pp_pair(rng, rng.randint(1, 4), rng.randint(1, 4))
        pi, pip = gen.critical_rep_pair(rng, rng.randint(1, 4), rng.randint(1, 4))
        fm = _write(d / "M.json", gen.motive_json("M", m))
        fmp = _write(d / "Mp.json", gen.motive_json("M'", mp))
        fq = _write(d / "Q.json", gen.motive_json("Q", tie[0]))
        fqp = _write(d / "Qp.json", gen.motive_json("Q'", tie[1]))
        fpi = _write(d / "Pi.json", gen.rep_json("Pi", pi))
        fpip = _write(d / "Pip.json", gen.rep_json("Pi'", pip))

        lo, hi = gen.pair_interval(m, mp)
        shift = Fraction(len(m[1]) + len(mp[1]) - 2, 2)
        m_ok = gen.rational_text(rng.randint(lo, hi) - shift)
        m_bad = gen.rational_text(hi + 1 - shift)
        rlo, rhi = gen.rep_pair_points(pi, pip)
        m_rep = gen.rational_text(rlo + rng.randint(0, int(rhi - rlo)))

        single = _expect_interval(*gen.single_interval(m))
        pair = _expect_interval(lo, hi)
        # --m=VALUE, because a negative VALUE would otherwise parse as an option.
        cases = [
            (["critical", fm], 0, single),
            (["critical", fm, fmp], 0, pair),
            (["gamma", fm, fmp], 0, None),
            (["sets", fm, fmp], 0, _expect_field("A", gen.set_a(m, mp))),
            (["split", fm, fmp], 0, None),
            (["period", fm, fmp, "--form", "raw"], 0, None),
            (["period", fm, fmp, "--form", "simplified"], 0, None),
            (["period", fm, fmp, "--form", "expanded"], 0, None),
            (["conjecture", fm, fmp, f"--m={m_ok}"], 0, None),
            (["conjecture", fpi, fpip, f"--m={m_rep}", "--rep", "--auto", "--classify"], 0,
             _expect_field("crosscheck", "ok")),
            (["classify", fpi, fpip, f"--m={m_rep}"], 0, None),
            (["critical", fq, fqp], EXIT_PP_CLASS, None),
            (["conjecture", fm, fmp, f"--m={m_bad}"], EXIT_NOT_CRITICAL, None),
        ]
        for argv, code, check in cases:
            ops.append(functools.partial(_cli_op, argv, code, check, workdir, tracer))
    return ops


def _expect_interval(lo: int, hi: int):
    want = {"lo": lo, "hi": hi, "empty": False}
    return lambda p: p["agree"] is True and p["interval"] == want and p["via_poles"] == want


def _expect_field(key: str, want):
    return lambda p: p[key] == want


def _cli_op(argv, code, check, workdir, tracer):
    with speed.held():
        if tracer is None:
            proc = subprocess.run(
                [sys.executable, "-m", "periodkit.cli", *argv], capture_output=True, text=True
            )
        else:
            proc = _traced_cli(argv, workdir, tracer)
    label = " ".join(a if not a.endswith(".json") else Path(a).name for a in argv)
    out = f"{label} -> {proc.returncode}\n{proc.stdout}".encode()
    if proc.returncode != code:
        return False, f"pk {label}: exit {proc.returncode}, expected {code}", out
    if code == 0:
        try:
            payload = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return False, f"pk {label}: stdout is not JSON", out
        if check is not None and not check(payload):
            return False, f"pk {label}: output check failed", out
    return True, "", out


def _traced_cli(argv, workdir: Path, tracer):
    """Run the traced entry script and merge its spans under the current op."""
    spans_path = workdir / "child.spans"
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(CLI_ENTRY), str(spans_path), *argv],
        capture_output=True,
        text=True,
    )
    header, spans = tracing.load(spans_path)
    os.remove(spans_path)
    root = tracer.stack[-1]
    tracer.add("cli.interp", t_spawn, header["t_start"], root)
    local = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        local[i] = tracer.add(name, start, end, root if parent < 0 else local[parent])
    import_us = 0
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match and (match[2] == "periodkit" or match[2].startswith("periodkit.")):
            import_us += int(match[1])
    tracer.counters["cli.import_us"] += import_us
    return proc
