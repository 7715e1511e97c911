"""The ``pk`` command line tool.

All results go to stdout as JSON; diagnostics go to stderr.  Exit codes:
0 success, 1 verification-property failure, 2 parse or usage error, 3 the
Hodge data has a (p,p)-class, 4 the evaluation point is not critical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fileio
from . import lfactor as lf
from .combinatorics import set_A, set_T, split_indices
from .errors import (
    NotCriticalError,
    NotCriticalPairError,
    ParseError,
    PpClassError,
    SizeLimitError,
)
from .hodge import restriction, restriction_tensor

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE = 2
EXIT_PP_CLASS = 3
EXIT_NOT_CRITICAL = 4

# Domain errors that end a command; a subclass takes its nearest listed ancestor's code.
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    SizeLimitError: EXIT_PARSE,
    PpClassError: EXIT_PP_CLASS,
    NotCriticalPairError: EXIT_NOT_CRITICAL,
    NotCriticalError: EXIT_NOT_CRITICAL,
}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _interval_json(iv: lf.CriticalInterval) -> dict:
    return {"lo": fileio.encode_rational(iv.lo), "hi": fileio.encode_rational(iv.hi), "empty": False}


def _motive_pair(paths: list[str]):
    return fileio.parse_motive(paths[0]), fileio.parse_motive(paths[1])


def _multiset_from_paths(paths: list[str]):
    if len(paths) > 2:
        raise ParseError(f"expected one or two motive files, got {len(paths)}")
    if len(paths) == 1:
        return restriction(fileio.parse_motive(paths[0]))
    m, mp = _motive_pair(paths)
    set_A(m, mp)  # surfaces a (p,p)-class with the offending index pair named
    return restriction_tensor(m, mp)


def _cmd_critical(args) -> int:
    h = _multiset_from_paths(args.motive)
    iv = lf.critical_interval(h)
    ivp = lf.critical_interval_via_poles(h)
    agree = iv == ivp
    _emit({"interval": _interval_json(iv), "via_poles": _interval_json(ivp), "agree": agree})
    if not agree:  # would indicate an internal defect; treat as property failure
        print("error: closed form and pole scan disagree", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def _cmd_gamma(args) -> int:
    h = _multiset_from_paths(args.motive)
    g = lf.gamma_factor(h)
    _emit({"weight": h.weight, "shifts": [[p, m] for p, m in g.shifts]})
    return EXIT_OK


def _cmd_sets(args) -> int:
    m, mp = _motive_pair(args.motive)
    a_set = set_A(m, mp)
    _emit(
        {
            "n": m.rank,
            "np": mp.rank,
            "A": [list(p) for p in a_set.sorted_members()],
            "T": [list(p) for p in set_T(m, mp).sorted_members()],
            "A_is_tableau": a_set.is_tableau(),
        }
    )
    return EXIT_OK


def _cmd_split(args) -> int:
    m, mp = _motive_pair(args.motive)
    set_A(m, mp)  # surfaces a (p,p)-class with the offending index pair named
    _emit({"sp": list(split_indices(m, mp)), "sp_sym": list(split_indices(mp, m))})
    return EXIT_OK


def _cmd_period(args) -> int:
    from . import deligne as dl
    from . import periods as pd

    ctx = dl.PairContext.build(*_motive_pair(args.motive))
    if args.form == "raw":
        mono = dl.deligne_period_raw(ctx)
    elif args.form == "simplified":
        mono = dl.deligne_period_simplified(ctx)
    else:
        mono = pd.expand(dl.deligne_period_raw(ctx))
    _emit({"form": args.form, "monomial": mono.to_json()})
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    stray = [f"--{flag}" for flag in ("auto", "classify") if getattr(args, flag)]
    if stray and not args.rep:
        raise ParseError(f"{' and '.join(stray)} need --rep")
    m = fileio.decode_rational(args.m)
    if args.rep:
        from . import automorphic as am

        pi = fileio.parse_rep(args.motive[0])
        pip = fileio.parse_rep(args.motive[1])
        mono = am.conjecture_rhs_automorphic(pi, pip, m)
        payload = {"m": fileio.encode_rational(m), "monomial": mono.to_json()}
        if args.auto:
            payload["crosscheck"] = "ok" if am.crosscheck_conjecture(pi, pip, m) else "mismatch"
        if args.classify:
            payload["classification"] = am.classify_known_case(pi, pip, m).to_json()
        _emit(payload)
        if payload.get("crosscheck") == "mismatch":
            return EXIT_PROPERTY_FAILURE
        return EXIT_OK
    from . import deligne as dl

    ctx = dl.PairContext.build(*_motive_pair(args.motive))
    mono = dl.conjecture_rhs_motivic(ctx, m)
    _emit({"m": fileio.encode_rational(m), "monomial": mono.to_json()})
    return EXIT_OK


def _cmd_classify(args) -> int:
    from . import automorphic as am

    pi = fileio.parse_rep(args.rep[0])
    pip = fileio.parse_rep(args.rep[1])
    report = am.classify_known_case(pi, pip, fileio.decode_rational(args.m))
    _emit(report.to_json())
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    from . import suites  # loads the oracle and the samplers; no one-shot command needs them

    try:
        summary = suites.run_suites(
            args.suite, seed=args.seed, trials=args.trials, max_rank=args.max_rank
        )
    except ValueError as exc:  # an unknown suite, or a --max-rank the samplers cannot draw
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(summary)
    if not summary["ok"]:
        failing = [p["name"] for p in summary["properties"] if not suites.holds(p)]
        print(f"error: failing properties: {', '.join(failing)}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pk",
        description=(
            "Exact critical points, Deligne period formulas and symbolic "
            "verification for tensor products of regular motives over a "
            "quadratic imaginary field."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical", help="critical points, by closed form and pole scan")
    p.add_argument("motive", nargs="+", help="one or two motive JSON files")
    p.set_defaults(fn=_cmd_critical)

    p = sub.add_parser("gamma", help="archimedean Gamma-factor shifts")
    p.add_argument("motive", nargs="+", help="one or two motive JSON files")
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("sets", help="the index sets A and T of a pair")
    p.add_argument("motive", nargs=2, help="two motive JSON files")
    p.set_defaults(fn=_cmd_sets)

    p = sub.add_parser("split", help="split indices of a pair, both directions")
    p.add_argument("motive", nargs=2, help="two motive JSON files")
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("period", help="the Deligne period as a period monomial")
    p.add_argument("motive", nargs=2, help="two motive JSON files")
    p.add_argument("--form", choices=("raw", "simplified", "expanded"), default="simplified")
    p.set_defaults(fn=_cmd_period)

    p = sub.add_parser("conjecture", help="conjectural period of the L-value at m")
    p.add_argument("motive", nargs=2, help="two motive (or, with --rep, representation) files")
    p.add_argument("--m", required=True, help="evaluation point, e.g. 1 or 1/2")
    p.add_argument("--rep", action="store_true", help="inputs are infinity-type files")
    p.add_argument(
        "--auto",
        action="store_true",
        help="with --rep: cross-check the automorphic form against the Hodge side",
    )
    p.add_argument(
        "--classify",
        action="store_true",
        help="with --rep: include the known-case classification",
    )
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("classify", help="match a representation pair against the proven cases")
    p.add_argument("rep", nargs=2, help="two infinity-type JSON files")
    p.add_argument("--m", required=True, help="evaluation point, e.g. 1 or 1/2")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("verify", help="run the seeded verification suites")
    p.add_argument("--suite", default="all", help="the suite to run, or all (default: all)")
    p.add_argument("--max-rank", type=int, default=None, dest="max_rank")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
