"""JSON encodings of motives and infinity types.

Rationals are encoded as JSON integers or strings like ``"3/2"``; no
floating point crosses any interface.  Parsing succeeds exactly when the
domain invariants hold, and printing a parsed object re-parses to an
equal object.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .errors import ParseError, PeriodKitError
from .hodge import RegularMotiveData


def encode_rational(x: Fraction | int) -> int | str:
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def decode_rational(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise ParseError(f"rationals must be integers or 'p/q' strings, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", v):
            raise ParseError(f"bad rational {v!r}: expected an integer or 'p/q'")
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ParseError(f"bad rational {v!r}: zero denominator") from None
        except ValueError as exc:  # a numeral past the interpreter's digit limit
            raise ParseError(f"bad rational {v!r}: {exc}") from None
    raise ParseError(f"rationals must be integers or 'p/q' strings, got {v!r}")


def _load_payload(source) -> dict:
    if isinstance(source, dict):
        return source
    try:
        text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{source}: cannot read: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: not UTF-8: {exc}") from None
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ParseError(f"{source}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{source}: invalid JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{source}: expected a JSON object")
    return payload


def _require(payload: dict, key: str, kind, where: str):
    if key not in payload:
        raise ParseError(f"{where}: missing field {key!r}")
    value = payload[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"{where}: field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} has wrong type {type(value).__name__}")
    return value


def parse_motive(source) -> RegularMotiveData:
    payload = _load_payload(source)
    where = "motive" if isinstance(source, dict) else str(source)
    label = _require(payload, "label", str, where)
    rank = _require(payload, "rank", int, where)
    weight = _require(payload, "weight", int, where)
    hodge_p = _require(payload, "hodge_p", list, where)
    if len(hodge_p) != rank:
        raise ParseError(f"{where}: rank {rank} does not match {len(hodge_p)} Hodge indices")
    try:
        return RegularMotiveData(label, weight, tuple(hodge_p))
    except (ValueError, PeriodKitError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def dump_motive(m: RegularMotiveData) -> dict:
    return {
        "label": m.label,
        "rank": m.rank,
        "weight": m.weight,
        "hodge_p": list(m.hodge_p),
    }


def parse_rep(source) -> InfinityTypeData:
    from .automorphic import InfinityTypeData

    payload = _load_payload(source)
    where = "rep" if isinstance(source, dict) else str(source)
    label = _require(payload, "label", str, where)
    n = _require(payload, "n", int, where)
    w = _require(payload, "w", int, where)
    a_raw = _require(payload, "a", list, where)
    if len(a_raw) != n:
        raise ParseError(f"{where}: n = {n} does not match {len(a_raw)} exponents")
    csd = payload.get("conjugate_self_dual", False)
    ds_split = payload.get("discrete_series_split_place", False)
    if not isinstance(csd, bool) or not isinstance(ds_split, bool):
        raise ParseError(f"{where}: the two flags must be booleans")
    try:
        a = tuple(decode_rational(v) for v in a_raw)
        return InfinityTypeData(
            label, w, a, conjugate_self_dual=csd, discrete_series_split_place=ds_split
        )
    except (ValueError, PeriodKitError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def dump_rep(pi: InfinityTypeData) -> dict:
    return {
        "label": pi.label,
        "n": pi.n,
        "w": pi.w,
        "a": [encode_rational(x) for x in pi.a],
        "conjugate_self_dual": pi.conjugate_self_dual,
        "discrete_series_split_place": pi.discrete_series_split_place,
    }
