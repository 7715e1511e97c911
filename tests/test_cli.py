"""CLI contract: JSON round trips, outputs, and the exit-code protocol."""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import periodkit
from periodkit import automorphic, lfactor, suites
from periodkit.automorphic import InfinityTypeData
from periodkit.cli import EXIT_BROKEN_PIPE, main
from periodkit.errors import ParseError
from periodkit.fileio import dump_motive, dump_rep, parse_motive, parse_rep
from periodkit.hodge import RegularMotiveData

ELLIPTIC = {"label": "M", "rank": 2, "weight": 1, "hodge_p": [1, 0]}
RANK_ONE = {"label": "M'", "rank": 1, "weight": 0, "hodge_p": [1]}
REP2 = {"label": "Pi", "n": 2, "w": 0, "a": ["1/2", "-1/2"], "conjugate_self_dual": True}
REP1 = {"label": "Pi'", "n": 1, "w": 0, "a": [0], "conjugate_self_dual": True}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return rc, payload, out.err


class TestRoundTrip:
    def test_motive(self):
        m = parse_motive(ELLIPTIC)
        assert m == RegularMotiveData("M", 1, (1, 0))
        assert parse_motive(dump_motive(m)) == m

    def test_rep(self):
        pi = parse_rep(REP2)
        assert pi == InfinityTypeData(
            "Pi", 0, (Fraction(1, 2), Fraction(-1, 2)), conjugate_self_dual=True
        )
        assert parse_rep(dump_rep(pi)) == pi

    def test_rep_integer_exponents(self):
        pi = parse_rep({"label": "Pi", "n": 3, "w": 1, "a": [2, 0, -2]})
        assert parse_rep(dump_rep(pi)) == pi
        assert dump_rep(pi)["a"] == [2, 0, -2]

    def test_rep_exponent_outside_the_rational_grammar(self):
        with pytest.raises(ParseError, match="bad rational '1e5000'"):
            parse_rep({"label": "Pi", "n": 1, "w": 0, "a": ["1e5000"]})

    def test_rep_exponent_with_a_zero_denominator(self):
        with pytest.raises(ParseError) as err:
            parse_rep({"label": "Pi", "n": 1, "w": 0, "a": ["1/0"]})
        assert str(err.value) == "rep: bad rational '1/0': zero denominator"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    def test_rep_exponent_past_the_digit_limit(self):
        with pytest.raises(ParseError, match="^rep: bad rational '9+': Exceeds the limit"):
            parse_rep({"label": "Pi", "n": 1, "w": 0, "a": ["9" * 5000]})


class TestCritical:
    def test_single_motive(self, tmp_path, capsys):
        rc, payload, _ = run(capsys, ["critical", write(tmp_path, "m.json", ELLIPTIC)])
        assert rc == 0
        assert payload["interval"] == {"lo": 1, "hi": 1, "empty": False}
        assert payload["agree"] is True

    def test_pair(self, tmp_path, capsys):
        rc, payload, _ = run(
            capsys,
            [
                "critical",
                write(tmp_path, "m.json", ELLIPTIC),
                write(tmp_path, "mp.json", RANK_ONE),
            ],
        )
        assert rc == 0 and payload["interval"] == {"lo": 1, "hi": 1, "empty": False}

    @pytest.mark.parametrize(
        "command", ["critical", "gamma", "sets", "split", "period", "conjecture"]
    )
    def test_pp_class_pair_exits_3(self, tmp_path, capsys, command):
        m = write(tmp_path, "m.json", ELLIPTIC)
        extra = ["--m", "1/2"] if command == "conjecture" else []
        rc, _, err = run(capsys, [command, m, m, *extra])
        assert rc == 3
        assert "(1,2)" in err  # the offending index pair (a, b)

    @pytest.mark.parametrize(
        "content",
        [
            b"{not json",
            b"\xff\xfe" + json.dumps(ELLIPTIC).encode("utf-16-le"),
            b"[" * 100000 + b"]" * 100000,
            pytest.param(
                b'{"label": "M", "rank": 1, "weight": 0, "hodge_p": [' + b"9" * 5000 + b"]}",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
                ),
            ),
        ],
        ids=["not-json", "not-utf8", "nested-too-deep", "too-many-digits"],
    )
    def test_malformed_json_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        rc, _, err = run(capsys, ["critical", str(bad)])
        assert rc == 2 and "error" in err
        assert err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("command", ["critical", "gamma"])
    def test_three_motive_files_exit_2(self, tmp_path, capsys, command):
        m = write(tmp_path, "m.json", ELLIPTIC)
        rc, payload, err = run(capsys, [command, m, m, m])
        assert rc == 2 and payload is None
        assert err == "error: expected one or two motive files, got 3\n"

    def test_closed_form_and_pole_scan_disagreeing_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            lfactor, "critical_interval_via_poles", lambda h: lfactor.CriticalInterval(0, 2)
        )
        rc, payload, err = run(capsys, ["critical", write(tmp_path, "m.json", ELLIPTIC)])
        assert rc == 1
        assert payload["agree"] is False
        assert payload["via_poles"] == {"lo": 0, "hi": 2, "empty": False}
        assert err == "error: closed form and pole scan disagree\n"

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_an_unreadable_path_exits_2_naming_it_first(self, tmp_path, capsys, kind):
        path = tmp_path / "m.json"
        if kind == "directory":
            path.mkdir()
        rc, payload, err = run(capsys, ["critical", str(path)])
        assert rc == 2 and payload is None
        assert err.startswith(f"error: {path}: cannot read: ")

    def test_invalid_invariant_exits_2(self, tmp_path, capsys):
        rc, _, _ = run(
            capsys,
            [
                "critical",
                write(
                    tmp_path,
                    "m.json",
                    {"label": "M", "rank": 2, "weight": 0, "hodge_p": [0, 1]},
                ),
            ],
        )
        assert rc == 2

    @pytest.mark.parametrize("entry, shown", [(True, "True"), (1.5, "1.5"), ("1", "'1'")])
    def test_an_index_that_is_not_an_int_exits_2_naming_it(self, tmp_path, capsys, entry, shown):
        bad = write(tmp_path, "m.json", {**ELLIPTIC, "weight": 0, "hodge_p": [entry, 0]})
        rc, _, err = run(capsys, ["critical", bad])
        assert rc == 2
        assert err == f"error: {bad}: Hodge p-indices must be integers, got {shown}\n"


class TestGammaSetsSplit:
    def test_gamma(self, tmp_path, capsys):
        rc, payload, _ = run(capsys, ["gamma", write(tmp_path, "m.json", ELLIPTIC)])
        assert rc == 0 and payload == {"weight": 1, "shifts": [[0, 2]]}

    def test_gamma_prints_every_shift_in_order(self, tmp_path, capsys):
        # Two classes with p < q, each with its multiplicity, smallest p first.
        motive = {"label": "M", "rank": 4, "weight": 3, "hodge_p": [3, 2, 1, 0]}
        rc, payload, _ = run(capsys, ["gamma", write(tmp_path, "m.json", motive)])
        assert rc == 0 and payload == {"weight": 3, "shifts": [[0, 2], [1, 2]]}

    def test_sets(self, tmp_path, capsys):
        rc, payload, _ = run(
            capsys,
            [
                "sets",
                write(tmp_path, "m.json", ELLIPTIC),
                write(tmp_path, "mp.json", RANK_ONE),
            ],
        )
        assert rc == 0
        assert payload["A"] == [[1, 1], [2, 1]] and payload["T"] == []
        assert payload["A_is_tableau"] is True

    def test_split(self, tmp_path, capsys):
        rc, payload, _ = run(
            capsys,
            [
                "split",
                write(tmp_path, "m.json", ELLIPTIC),
                write(tmp_path, "mp.json", RANK_ONE),
            ],
        )
        assert rc == 0 and payload == {"sp": [0, 0, 1], "sp_sym": [0, 2]}


class TestPeriod:
    def test_simplified_text(self, tmp_path, capsys):
        rc, payload, _ = run(
            capsys,
            [
                "period",
                write(tmp_path, "m.json", ELLIPTIC),
                write(tmp_path, "mp.json", RANK_ONE),
                "--form",
                "simplified",
            ],
        )
        assert rc == 0
        assert payload["monomial"]["text"] == "(2πi)^-1 * Qs[2;M] * Qs[1;M']^2"

    def test_expanded_matches_raw(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", ELLIPTIC)
        mp = write(tmp_path, "mp.json", RANK_ONE)
        _, raw, _ = run(capsys, ["period", m, mp, "--form", "raw"])
        _, expanded, _ = run(capsys, ["period", m, mp, "--form", "expanded"])
        assert raw["monomial"]["text"] == expanded["monomial"]["text"]

    def test_raw_form_keeps_the_delta_of_a_motive_labelled_z(self, tmp_path, capsys):
        # A rank-1 motive labelled Z carries the trivial motive's tag.
        m = write(tmp_path, "m.json", ELLIPTIC)
        z = write(tmp_path, "z.json", dict(RANK_ONE, label="Z"))
        rc, payload, _ = run(capsys, ["period", m, z, "--form", "raw"])
        assert rc == 0
        assert payload["monomial"]["text"] == "Q[1;M] * Q[2;M] * Q[1;Z]^2 * d[M] * d[Z]^2"

    def test_empty_A_raw_text(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", {"label": "M", "rank": 1, "weight": 2, "hodge_p": [0]})
        mp = write(tmp_path, "mp.json", {"label": "M'", "rank": 1, "weight": 0, "hodge_p": [0]})
        rc, payload, _ = run(capsys, ["period", m, mp, "--form", "raw"])
        assert rc == 0 and payload["monomial"]["text"] == "d[M] * d[M']"


class TestConjecture:
    def test_motive_pair(self, tmp_path, capsys):
        rc, payload, _ = run(
            capsys,
            [
                "conjecture",
                write(tmp_path, "m.json", ELLIPTIC),
                write(tmp_path, "mp.json", RANK_ONE),
                "--m",
                "1/2",
            ],
        )
        assert rc == 0
        assert payload["monomial"]["text"] == "(2πi)^1 * Qs[2;M] * Qs[1;M']^2"

    def test_non_critical_exits_4_with_interval(self, tmp_path, capsys):
        rc, _, err = run(
            capsys,
            [
                "conjecture",
                write(tmp_path, "m.json", ELLIPTIC),
                write(tmp_path, "mp.json", RANK_ONE),
                "--m",
                "9",
            ],
        )
        assert rc == 4
        assert "[1/2, 1/2]" in err

    def test_rep_pair_crosscheck(self, tmp_path, capsys):
        rc, payload, _ = run(
            capsys,
            [
                "conjecture",
                write(tmp_path, "r.json", REP2),
                write(tmp_path, "rp.json", REP1),
                "--m",
                "1/2",
                "--rep",
                "--auto",
                "--classify",
            ],
        )
        assert rc == 0
        assert payload["crosscheck"] == "ok"
        assert payload["classification"]["case"] in {"case1", "case2", "case3", "unknown"}

    def test_rep_pair_crosscheck_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(automorphic, "crosscheck_conjecture", lambda pi, pip, m: False)
        rc, payload, _ = run(
            capsys,
            [
                "conjecture",
                write(tmp_path, "r.json", REP2),
                write(tmp_path, "rp.json", REP1),
                "--m",
                "1/2",
                "--rep",
                "--auto",
            ],
        )
        assert rc == 1
        assert payload["crosscheck"] == "mismatch"

    def test_rep_pair_non_critical_exits_4(self, tmp_path, capsys):
        rc, _, err = run(
            capsys,
            [
                "conjecture",
                write(tmp_path, "r.json", REP2),
                write(tmp_path, "rp.json", REP1),
                "--m",
                "11/2",
                "--rep",
            ],
        )
        assert rc == 4 and "critical" in err

    @pytest.mark.parametrize(
        "pair, flags, inside, outside, lo, hi",
        [
            ((dict(ELLIPTIC, weight=5, hodge_p=[5, 0]), RANK_ONE), [], "2", "9", "3/2", "7/2"),
            ((dict(REP2, a=["5/2", "-5/2"]), REP1), ["--rep"], "1", "11/2", "-3/2", "5/2"),
        ],
        ids=["motive", "rep"],
    )
    def test_an_m_off_the_grid_inside_the_interval_is_told_the_grid(
        self, tmp_path, capsys, pair, flags, inside, outside, lo, hi
    ):
        # m = 2 lies in [3/2, 7/2] and m = 1 in [-3/2, 5/2], but the points
        # step by 1 from the low end: the message says so, where for an m
        # past the ends the interval alone tells why.
        paths = [write(tmp_path, f"{i}.json", data) for i, data in enumerate(pair)]
        interval = f"[{lo}, {hi}]"
        for m, grid in ((inside, f" and step by 1 from {lo}"), (outside, "")):
            rc, payload, err = run(capsys, ["conjecture", *paths, "--m", m, *flags])
            assert (rc, payload) == (4, None)
            assert err == (
                f"error: m = {m} is not critical for the pair; "
                f"critical m lie in {interval}{grid}\n"
            )


class TestOneLabelForTwoInputs:
    """``period`` and ``conjecture`` refuse two inputs with one label, naming it.

    The label names a period symbol, so the two inputs' periods would
    merge.  The (p,p)-class and criticality checks run first.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["period", "--form", "raw"],
            ["period", "--form", "simplified"],
            ["period", "--form", "expanded"],
            ["conjecture", "--m", "1/2"],
        ],
    )
    def test_two_motives_with_one_label_exit_2(self, tmp_path, capsys, argv):
        m = write(tmp_path, "m.json", ELLIPTIC)
        mp = write(tmp_path, "mp.json", dict(RANK_ONE, label="M"))
        rc, payload, err = run(capsys, [argv[0], m, mp, *argv[1:]])
        assert (rc, payload) == (2, None)
        assert err == "error: both inputs are labelled 'M': their periods would share one symbol\n"

    @pytest.mark.parametrize("flags", [[], ["--auto"], ["--classify"], ["--auto", "--classify"]])
    def test_two_reps_with_one_label_exit_2(self, tmp_path, capsys, flags):
        pi = write(tmp_path, "r.json", REP2)
        pip = write(tmp_path, "rp.json", dict(REP1, label="Pi"))
        rc, payload, err = run(capsys, ["conjecture", pi, pip, "--m", "1/2", "--rep", *flags])
        assert (rc, payload) == (2, None)
        assert "labelled 'Pi'" in err

    def test_a_pair_that_is_not_critical_exits_4_first(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", ELLIPTIC)
        mp = write(tmp_path, "mp.json", dict(RANK_ONE, label="M"))
        assert run(capsys, ["conjecture", m, mp, "--m", "9"])[0] == 4
        pi = write(tmp_path, "r.json", REP2)
        pip = write(tmp_path, "rp.json", dict(REP1, label="Pi"))
        assert run(capsys, ["conjecture", pi, pip, "--m", "11/2", "--rep"])[0] == 4

    def test_labels_that_differ_only_in_case_are_distinct(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", ELLIPTIC)
        mp = write(tmp_path, "mp.json", dict(RANK_ONE, label="m"))
        rc, payload, _ = run(capsys, ["period", m, mp, "--form", "raw"])
        assert rc == 0 and payload["monomial"]["text"] == "Q[1;M] * Q[2;M] * Q[1;m]^2 * d[M] * d[m]^2"


class TestClassifyAndVerify:
    def test_classify(self, tmp_path, capsys):
        pi = {
            "label": "Pi",
            "n": 2,
            "w": 0,
            "a": ["3/2", "-3/2"],
            "conjugate_self_dual": True,
            "discrete_series_split_place": True,
        }
        rc, payload, _ = run(
            capsys,
            [
                "classify",
                write(tmp_path, "r.json", pi),
                write(tmp_path, "rp.json", {"label": "Pi'", "n": 1, "w": 0, "a": [0]}),
                "--m",
                "1/2",
            ],
        )
        assert rc == 0 and payload["case"] == "case1"

    def test_classify_prints_repeated_exponents_as_the_file_writes_them(self, tmp_path, capsys):
        bad = write(tmp_path, "r.json", {"label": "Pi", "n": 2, "w": 0, "a": ["1/2", "1/2"]})
        rc, _, err = run(capsys, ["classify", bad, write(tmp_path, "rp.json", REP1), "--m", "1/2"])
        assert rc == 2
        assert err == f"error: {bad}: exponents must be strictly decreasing, got [1/2, 1/2]\n"

    @pytest.mark.parametrize(
        "field", [{"a": [0.5, -0.5]}, {"a": [True, False]}, {"w": True}, {"w": 0.0}]
    )
    def test_rep_with_a_float_or_bool_exits_2(self, tmp_path, capsys, field):
        bad = write(tmp_path, "r.json", {**REP2, **field})
        rc, _, err = run(capsys, ["classify", bad, write(tmp_path, "rp.json", REP1), "--m", "1/2"])
        assert rc == 2 and err.startswith(f"error: {bad}: ")

    def test_verify_small(self, capsys):
        rc, payload, _ = run(
            capsys,
            ["verify", "--suite", "combinatorics", "--trials", "25", "--seed", "7"],
        )
        assert rc == 0 and payload["ok"] is True
        assert all(p["failures"] == 0 for p in payload["properties"])

    def test_verify_rewrite_derivations(self, capsys):
        rc, payload, _ = run(
            capsys, ["verify", "--suite", "rewrite", "--trials", "20", "--seed", "7"]
        )
        assert rc == 0
        names = {p["name"]: p for p in payload["properties"]}
        assert names["csd_delta_square_identity"]["instances"] == 8
        assert names["grouped_period_comparison"]["instances"] == 44

    def test_verify_deterministic(self, capsys):
        rc1, p1, _ = run(capsys, ["verify", "--suite", "oracle", "--trials", "3", "--max-rank", "2", "--seed", "9"])
        rc2, p2, _ = run(capsys, ["verify", "--suite", "oracle", "--trials", "3", "--max-rank", "2", "--seed", "9"])
        assert rc1 == rc2 == 0 and p1 == p2


def test_verify_names_a_property_that_fails_only_by_raising(capsys, monkeypatch):
    def boom(rng, t):
        raise KeyError("sampler fault")

    def run_suite(trials, max_rank):
        return [("boom", 1, boom), ("none", 0, boom)]

    monkeypatch.setitem(suites._SUITES, "rewrite", (run_suite, 1, 1))
    rc, payload, err = run(capsys, ["verify", "--suite", "rewrite"])
    assert rc == 1
    assert payload["properties"] == [
        {"name": "boom", "instances": 1, "failures": 0, "errors": 1,
         "detail": "trial 0: KeyError: 'sampler fault'"},
        {"name": "none", "instances": 0, "failures": 0},
    ]
    assert err == "error: failing properties: boom, none\n"


def test_verify_names_only_the_properties_that_do_not_hold(capsys, monkeypatch):
    def run_suite(trials, max_rank):
        return [
            ("passes", 2, lambda rng, t: True),
            ("fails", 2, lambda rng, t: t == 0),
            ("also_passes", 1, lambda rng, t: True),
        ]

    monkeypatch.setitem(suites._SUITES, "rewrite", (run_suite, 1, 1))
    rc, payload, err = run(capsys, ["verify", "--suite", "rewrite"])
    assert rc == 1 and payload["ok"] is False
    assert [suites.holds(p) for p in payload["properties"]] == [True, False, True]
    assert err == "error: failing properties: fails\n"


def test_verify_all_seed42_matches_recorded_output(verify_all_seed42):
    recorded = Path(__file__).parent / "data" / "verify_all_seed42.json"
    rc, out, _ = verify_all_seed42
    assert rc == 0
    assert out.encode() == recorded.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture", "m.json", "mp.json", "--m", "abc"],
        ["conjecture", "m.json", "mp.json", "--m", "1/0"],
        ["classify", "r.json", "rp.json", "--m", "x"],
        ["conjecture", "m.json", "mp.json", "--m", "1e5000"],
        ["conjecture", "m.json", "mp.json", "--m", "0.5"],
    ],
)
def test_malformed_m_exits_2(tmp_path, capsys, argv):
    write(tmp_path, "m.json", ELLIPTIC)
    write(tmp_path, "mp.json", RANK_ONE)
    write(tmp_path, "r.json", REP2)
    write(tmp_path, "rp.json", REP1)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    rc = main(argv)
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert out.err.startswith("error:")
    if argv[-1] == "1/0":
        assert out.err == "error: bad rational '1/0': zero denominator\n"


@pytest.mark.parametrize(
    "pair, command, flags, m, rc",
    [
        ((ELLIPTIC, RANK_ONE), "conjecture", [], "-1/2", 4),
        ((dict(REP2, a=["5/2", "-5/2"]), REP1), "conjecture", ["--rep"], "-3/2", 0),
        ((dict(REP2, a=["5/2", "-5/2"]), REP1), "conjecture", ["--rep"], "-2/3", 4),
        ((REP2, REP1), "classify", [], "-1/2", 0),
        ((REP2, REP1), "classify", [], "-1/0", 2),
    ],
    ids=["motive", "rep", "rep-not-critical", "classify", "classify-malformed"],
)
def test_a_negative_rational_after_m_is_its_value(tmp_path, capsys, pair, command, flags, m, rc):
    # argparse would read -1/2 as an option, unlike -1; --m=-1/2 never is.
    paths = [write(tmp_path, f"{i}.json", data) for i, data in enumerate(pair)]
    spaced = run(capsys, [command, *paths, "--m", m, *flags])
    assert spaced == run(capsys, [command, *paths, f"--m={m}", *flags])
    assert spaced[0] == rc


@pytest.mark.parametrize("flags", [["--auto"], ["--classify"], ["--auto", "--classify"]])
def test_rep_only_flags_without_rep_exit_2_before_reading_files(tmp_path, capsys, flags):
    missing = str(tmp_path / "missing.json")
    rc = main(["conjecture", missing, missing, "--m", "1/2", *flags])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert all(flag in out.err for flag in flags) and "--rep" in out.err
    assert "missing" not in out.err


@pytest.mark.parametrize(
    "args, phrase",
    [
        (["--trials", "-1"], "trials"),
        (["--trials", "0"], "trials"),
        (["--max-rank", "0"], "max_rank"),
        (["--max-rank", "30"], "max_rank"),
        (["--suite", "combinatorics", "--max-rank", "18"], "max_rank"),
        (["--suite", "oracle", "--max-rank", "20"], "max_rank"),
        (["--suite", "bogus"], "unknown suite"),
    ],
)
def test_verify_rejects_bad_arguments_as_usage_errors(capsys, args, phrase):
    rc = main(["verify", *args])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert out.err.startswith("error:") and phrase in out.err


def test_verify_accepts_the_largest_drawable_rank(capsys):
    rc = main(["verify", "--suite", "combinatorics", "--max-rank", "17", "--trials", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_verify_size_bound_is_a_usage_error(capsys):
    rc = main(["verify", "--suite", "oracle", "--max-rank", "4", "--trials", "1"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert out.err.startswith("error: shape 4x4 is outside the oracle's bound")
    assert "n, n' <= 4 and nn' <= 12" in out.err


LAZY_PROBE = """
import sys

import periodkit

loaded = [name for name in sys.modules if name.startswith("periodkit.")]
assert not loaded, f"import periodkit loaded {loaded}"

from periodkit.cli import main

PERIOD = ("periodkit.periods", "periodkit.deligne")
REP = ("periodkit.automorphic",)
VERIFY_ONLY = ("periodkit.oracle", "periodkit.suites", "periodkit.sampling")
# No subcommand pays for these: dataclasses imports inspect, ast and dis.
NEVER = ("dataclasses", "inspect")
m, mp, pi, pip = sys.argv[1:]
# The light commands run first, so a module one of them loads is not hidden
# by a heavier command that loaded it earlier.
for argv, unloaded in (
    (["critical", m], PERIOD + REP + VERIFY_ONLY),
    (["critical", m, mp], PERIOD + REP + VERIFY_ONLY),
    (["gamma", m, mp], PERIOD + REP + VERIFY_ONLY),
    (["sets", m, mp], PERIOD + REP + VERIFY_ONLY),
    (["split", m, mp], PERIOD + REP + VERIFY_ONLY),
    (["period", m, mp, "--form", "expanded"], REP + VERIFY_ONLY),
    (["conjecture", m, mp, "--m", "1/2"], REP + VERIFY_ONLY),
    (["conjecture", pi, pip, "--m", "1/2", "--rep", "--auto", "--classify"], VERIFY_ONLY),
    (["classify", pi, pip, "--m", "1/2"], VERIFY_ONLY),
):
    assert main(argv) == 0, argv
    loaded = [name for name in unloaded + NEVER if name in sys.modules]
    assert not loaded, f"pk {argv[0]} loaded {loaded}"
assert main(["verify", "--suite", "oracle", "--trials", "1", "--max-rank", "1"]) == 0
missing = [name for name in VERIFY_ONLY if name not in sys.modules]
assert not missing, f"pk verify did not load {missing}"
loaded = [name for name in NEVER if name in sys.modules]
assert not loaded, f"pk verify loaded {loaded}"
"""


def test_one_shot_commands_leave_the_verify_modules_unimported(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    files = [
        write(tmp_path, name, payload)
        for name, payload in [
            ("m.json", ELLIPTIC),
            ("mp.json", RANK_ONE),
            ("r.json", REP2),
            ("rp.json", REP1),
        ]
    ]
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, *files],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _closed_pipe() -> int:
    """The write end of a pipe whose read end is already closed: every write to it fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize(
    "flags",
    [
        # Buffered, as stdout on a pipe is by default: the write stays in
        # the buffer, and the flush after the command fails.
        [],
        # Unbuffered: print itself fails.
        ["-u"],
    ],
)
def test_a_closed_stdout_exits_141_without_a_traceback(flags):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = [sys.executable, *flags, "-m", "periodkit.cli"]
    argv += ["verify", "--suite", "rewrite", "--trials", "1"]
    stdout = _closed_pipe()
    try:
        proc = subprocess.run(
            argv,
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env={**env, "PYTHONPATH": str(src)},
            timeout=60,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""  # no traceback, and nothing from the flush at exit


def test_main_returns_141_when_stdout_is_closed(tmp_path, monkeypatch):
    # In process, with sys.stdout on a pipe whose reader is gone; main
    # points that descriptor, not the test's own, at the null device.
    m = write(tmp_path, "m.json", ELLIPTIC)
    with open(_closed_pipe(), "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["critical", m]) == EXIT_BROKEN_PIPE
        print("more output", flush=True)  # now written to the null device


@pytest.mark.parametrize("parse", [parse_motive, parse_rep])
def test_parse_error_names_the_whole_path(tmp_path, parse):
    path = tmp_path / "inputs" / "bad.json"
    path.parent.mkdir()
    path.write_text("{}")
    with pytest.raises(ParseError) as info:
        parse(path)
    assert str(info.value).startswith(f"{path}: missing field")


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("critical", [1, 2], "expected a JSON object"),
        ("critical", {**ELLIPTIC, "rank": 3}, "rank 3 does not match 2 Hodge indices"),
        ("classify", {**REP2, "n": 3}, "n = 3 does not match 2 exponents"),
        ("classify", {**REP2, "conjugate_self_dual": 1}, "the two flags must be booleans"),
        (
            "classify",
            {**REP2, "a": [None, "-1/2"]},
            "rationals must be integers or 'p/q' strings, got None",
        ),
    ],
    ids=["not-an-object", "rank-mismatch", "n-mismatch", "flag-not-bool", "exponent-null"],
)
def test_a_file_that_breaks_its_format_exits_2_naming_the_fault(
    tmp_path, capsys, command, payload, message
):
    bad = write(tmp_path, "bad.json", payload)
    extra = [write(tmp_path, "rp.json", REP1), "--m", "1/2"] if command == "classify" else []
    rc, out, err = run(capsys, [command, bad, *extra])
    assert rc == 2 and out is None
    assert err == f"error: {bad}: {message}\n"


def test_pk_console_script_is_the_tested_main():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["pk"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert periodkit.__version__ == project["version"]
