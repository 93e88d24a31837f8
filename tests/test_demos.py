"""The README's CLI tour, run in-process on the shipped demos/ files."""

import json
from pathlib import Path

import pytest

from kamio.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.fixture
def tour(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def kamio(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().out
    return kamio


REPORTS = {
    "peirce.json": {"kind": "entailment", "verdict": {"status": "verified", "sampled": True}},
    "consistency.json": {
        "kind": "consistency",
        "verdict": {"status": "verified", "sampled": True},
        "candidates": [
            {"term": term, "status": "witness_found", "witness": "nil"}
            for term in [r"\x. x", r"\x. \y. x", "cc"]],
        "audit": [],
    },
}


@pytest.mark.parametrize("scenario", ["peirce.json", "consistency.json"])
def test_realize(tour, scenario):
    code, out = tour("realize", DEMOS / scenario)
    assert code == 0
    assert out == json.dumps(REPORTS[scenario], indent=2) + "\n"


def test_run_copy(tour):
    code, out = tour("run", DEMOS / "copy.kam", "--input", "1011", "--prelude", "--trace")
    assert code == 0
    assert "output:  '1101'" in out.splitlines()


def test_compile_then_verify(tour):
    code, _ = tour("compile-fn", DEMOS / "double.lam", "-o", "double.kam", "--prelude")
    assert code == 0
    code, out = tour("verify-impl", "double.kam", "--table", DEMOS / "double_table.tsv")
    assert code == 0
    assert out.splitlines()[-1] == "verified (sampled)"


def test_decode(tour):
    Path("n.lam").write_text("B (C #3)\n", encoding="utf-8")
    code, out = tour("decode", "n.lam", "--prelude")
    assert (code, out.strip()) == (0, "14")


def test_parse_copy(tour):
    code, out = tour("parse", DEMOS / "copy.kam", "--prelude")
    assert code == 0
    assert out.strip() == r"\f. (\x. f (x x)) (\x. f (x x)) * \x. read (write0 x) (write1 x) end :: nil"


def test_prelude_list_expanded(tour):
    code, out = tour("prelude-list", "--expanded")
    assert code == 0
    assert [line.split(" = ")[0] for line in out.splitlines()] == list("SBCHEZYFQRVW")
