"""Every period rewrite rule and ``expand``, pinned against a recorded file.

``tests/data/period_rules.json`` holds one entry per symbol: the tags are
"M" at rank None, 1 and 3, not csd and csd, each bare and with ten
decoration chains; every symbol kind appears at its smallest and largest
legal index (2 stands in for the largest when the rank is unknown).  Each
symbol enters as a one-factor monomial with exponent -2 and label "E".
An entry records the monomial's ``expand`` and, for each rule that does
not raise ``RuleNotApplicable``, its result text and field label, or the
exception class and message.  Any change to how a rule matches or what it
produces shows up as a difference.

Regenerate (only when the rules are meant to change) with
``PYTHONPATH=src python tests/test_period_rules.py > tests/data/period_rules.json``.
"""

import json
import sys
from pathlib import Path

from periodkit import MotiveTag, PeriodMonomial, RuleNotApplicable, apply_rule, expand
from periodkit.periods import RULES, PeriodSymbol

RECORDED = Path(__file__).parent / "data" / "period_rules.json"

_DECORATIONS = (
    lambda t: t,
    lambda t: t.conj(),
    lambda t: t.dual(),
    lambda t: t.twist(2),
    lambda t: t.twist(-1),
    lambda t: t.det(),
    lambda t: t.conj().twist(1),
    lambda t: t.dual().conj(),
    lambda t: t.twist(1).dual(),
    lambda t: t.det().conj(),
    lambda t: t.conj().det(),
)
_INDEX_START = {"Q": 1, "Qp": 0, "Qs": 0, "P": 0}


def _symbols():
    yield PeriodSymbol("2pi")
    for rank in (None, 1, 3):
        for csd in (False, True):
            for decorate in _DECORATIONS:
                tag = decorate(MotiveTag("M", rank=rank, csd=csd))
                for kind in ("Q", "d", "D", "Qp", "Qs", "P", "Qxi"):
                    if kind not in _INDEX_START:
                        yield PeriodSymbol(kind, None, tag)
                        continue
                    top = tag.rank_value if tag.rank_value is not None else 2
                    for index in sorted({_INDEX_START[kind], top}):
                        yield PeriodSymbol(kind, index, tag)


def _outcome(fn, x: PeriodMonomial):
    try:
        y = fn(x)
    except Exception as exc:  # recorded, not raised: the class and text are pinned
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"text": y.text(), "field_label": y.field_label}


def period_rules() -> list[dict]:
    out = []
    for sym in _symbols():
        x = PeriodMonomial(((sym, -2),), "E")
        rules = {}
        for rule in RULES:
            outcome = _outcome(lambda m: apply_rule(m, rule), x)
            if outcome.get("error") != RuleNotApplicable.__name__:
                rules[rule] = outcome
        out.append({"monomial": x.text(), "expand": _outcome(expand, x), "rules": rules})
    return out


def test_period_rules_match_recorded_file():
    assert period_rules() == json.loads(RECORDED.read_text())


if __name__ == "__main__":
    json.dump(period_rules(), sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")
