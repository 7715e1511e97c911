"""README.md's checkable claims, read with ``re`` and checked against the code."""

import argparse
import json
import re
from math import factorial
from pathlib import Path

from periodkit import cli
from periodkit.fileio import parse_motive, parse_rep
from periodkit.oracle import LaurentPoly, VerificationReport, sym_det

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
CHANGES = (ROOT / "CHANGES.md").read_text(encoding="utf-8")


def _block_after(marker: str, lang: str) -> str:
    """The first fenced ``lang`` block after ``marker``."""
    start = README.index(marker)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def _count(text: str) -> int:
    return int(text.replace(",", ""))


def _generic_det(k: int) -> LaurentPoly:
    names = tuple(f"x[{i},{j}]" for i in range(k) for j in range(k))
    rows = tuple(
        tuple(LaurentPoly.monomial(names, {i * k + j: 1}) for j in range(k)) for i in range(k)
    )
    return sym_det(rows)


def test_layout_table_lists_exactly_the_modules():
    table = README[README.index("## Layout") :]
    listed = {
        name.removeprefix("periodkit.")
        for row in re.findall(r"^\| (`[^|]*)\|", table, re.M)
        for name in re.findall(r"`([\w.]+)`", row)
    }
    modules = {p.stem for p in (ROOT / "src" / "periodkit").glob("*.py")} - {"__init__"}
    assert listed == modules


def test_subcommand_block_matches_the_parser():
    shown = set(re.findall(r"^pk (\w+)", _block_after("Subcommands:", "sh"), re.M))
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert shown == set(sub.choices)


def test_exit_code_sentence_matches_the_constants():
    sentence = " ".join(re.search(r"^Exit codes: (.*?)\n\n", README, re.M | re.S).group(1).split())
    described = {int(code): text for code, text in re.findall(r"`(\d+)` ([^`]+)", sentence)}
    words = {
        "EXIT_OK": "success",
        "EXIT_PROPERTY_FAILURE": "property failed",
        "EXIT_PARSE": "parse",
        "EXIT_PP_CLASS": "(p,p)-class",
        "EXIT_NOT_CRITICAL": "not critical",
        "EXIT_BROKEN_PIPE": "stdout was closed",
    }
    assert {name for name in vars(cli) if name.startswith("EXIT_")} == set(words)
    assert set(described) == {getattr(cli, name) for name in words}
    for name, word in words.items():
        assert word in described[getattr(cli, name)], name


def test_json_examples_parse():
    parse_motive(json.loads(_block_after("Motive file:", "json")))
    parse_motive(json.loads(_block_after("this `Mp.json`:", "json")))
    parse_rep(json.loads(_block_after("Infinity-type file", "json")))


def test_period_example_prints_the_text_shown(tmp_path, capsys):
    for name, marker in (("M.json", "Motive file:"), ("Mp.json", "this `Mp.json`:")):
        (tmp_path / name).write_text(_block_after(marker, "json"))
    example = _block_after("this `Mp.json`:", "sh")
    argv = re.search(r"^\$ pk (.*)$", example, re.M).group(1).split()
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["form"] == re.search(r'"form": "(\w+)"', example).group(1)
    assert payload["monomial"]["text"] == re.search(r'"text": "(.*)"', example).group(1)


def test_term_counts_add_up():
    text = " ".join(README.split())
    total, a_part, b_part = map(
        _count, re.search(r"([\d,]+) = ([\d,]+) · ([\d,]+) terms at 3x4", text).groups()
    )
    assert (len((_generic_det(3) ** 4).terms), len((_generic_det(4) ** 3).terms)) == (
        a_part,
        b_part,
    )
    assert total == a_part * b_part
    total, root = map(_count, re.search(r"([\d,]+) = ([\d,]+)² at 4x4", text).groups())
    assert len((_generic_det(4) ** 4).terms) == root and total == root**2
    assert _count(re.search(r"11! = ([\d,]+) terms", text).group(1)) == factorial(11)


def test_the_oracle_bullet_names_every_field_of_the_report():
    # The sentence that lists the report's fields names each public field,
    # and every bare name in backticks there is one.
    text = " ".join(README.split())
    sentence = re.search(r"`oracle\.verify_proposition` returns a report: (.*?)\. ", text).group(1)
    listed = set(re.findall(r"`([a-z_]+)`", sentence))
    fields = set(VerificationReport.__slots__) - {"_rhs"} | {"rhs"}
    assert listed == fields


def test_every_measured_figure_cites_its_changes_entry():
    # A time or memory figure stands only in a paragraph that names the
    # CHANGES.md entry that measured it.
    figure = re.compile(r"\d ?(?:ms|MB)\b|\d\.\d+ s\b")
    measured = [p for p in README.split("\n\n") if figure.search(p)]
    assert measured
    entries = [line[2:] for line in CHANGES.splitlines() if line.startswith("- ")]
    for paragraph in measured:
        cited = re.findall(r'CHANGES\.md:\s+"([^"]+)"', paragraph)
        assert cited, paragraph
        for title in cited:
            title = " ".join(title.split())
            assert any(entry.startswith(title) for entry in entries), title
