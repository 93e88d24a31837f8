import json
import random
import time
from pathlib import Path

import pytest

import gen
from kamio import machine
from kamio.cli import main
from kamio.syntax import parse_process


DEMOS = Path(__file__).resolve().parent.parent / "demos"
COPY_SOURCE = r"Y * (\x. read (write0 x) (write1 x) end) :: nil"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_process(self, files, capsys):
        path = files("p.kam", "end  *  nil -- comment")
        code, out, _ = run_cli(capsys, "parse", path)
        assert code == 0
        assert out.strip() == "end * nil"

    def test_term_fallback(self, files, capsys):
        path = files("t.lam", r"\x. x")
        code, out, _ = run_cli(capsys, "parse", path)
        assert code == 0
        assert out.strip() == r"\x. x"

    def test_json_format(self, files, capsys):
        path = files("p.kam", "TOP")
        code, out, _ = run_cli(capsys, "parse", path, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"kind": "process", "text": "TOP"}

    def test_parse_error_exit_1(self, files, capsys):
        path = files("bad.kam", "end * ")
        code, _, err = run_cli(capsys, "parse", path)
        assert code == 1
        assert "error" in err

    def test_deep_nesting_exit_0(self, files, capsys):
        path = files("deep.kam", "(" * 600 + "end" + ")" * 600 + " * nil")
        code, out, err = run_cli(capsys, "parse", path)
        assert (code, out, err) == (0, "end * nil\n", "")

    def test_deep_continuations_exit_0(self, files, capsys):
        text = "kont{" * 10_000 + "end :: nil" + "} :: nil" * 9_999 + "} * nil"
        code, out, err = run_cli(capsys, "parse", files("kont.kam", text), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"kind": "process", "text": text}

    def test_long_lambda_chain_exit_0(self, files, capsys):
        text = "".join(f"\\a{i}. " for i in range(10_000)) + "a0"
        path = files("chain.lam", text)
        code, out, err = run_cli(capsys, "parse", path)
        assert code == 0 and err == ""
        assert out == text + "\n"


class TestRun:
    def test_copy_process(self, files, capsys):
        path = files("copy.kam", COPY_SOURCE)
        code, out, _ = run_cli(capsys, "run", path, "--input", "101",
                               "--prelude", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "terminated"
        assert payload["output"] == "101"
        assert payload["input"] == ""

    def test_trace_subcommand_lists_actions(self, files, capsys):
        path = files("copy.kam", COPY_SOURCE)
        code, out, _ = run_cli(capsys, "trace", path, "--input", "101",
                               "--prelude", "--format", "json")
        assert code == 0
        trace = json.loads(out)["trace"]
        visible = [a for a in trace if a != "tau"]
        assert visible == ["r1", "w1", "r0", "w0", "r1", "w1", "reps", "e"]

    def test_empty_run(self, files, capsys):
        path = files("end.kam", "end * nil")
        code, out, _ = run_cli(capsys, "run", path, "--input", "")
        assert code == 0
        assert "output:  ''" in out

    def test_stuck_exit_2(self, files, capsys):
        path = files("stuck.kam", "read * nil")
        code, _, _ = run_cli(capsys, "run", path)
        assert code == 2

    def test_input_not_bits_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "run", str(DEMOS / "copy.kam"), "--prelude",
                                 "--input", "012")
        assert (code, out) == (1, "")
        assert err == "kamio: error: input/output must contain only bits: '012'\n"

    def test_deep_numeral_fuel_exit_3(self, files, capsys):
        path = files("n.kam", "#2000 * end :: end :: nil")
        code, out, err = run_cli(capsys, "run", path, "--fuel", "1")
        assert (code, err) == (3, "")
        body = "end (" * 1999 + "end x" + ")" * 1999
        assert f"process: \\x. {body} * end :: nil\n" in out

    def test_fuel_exhaustion_exit_3(self, files, capsys):
        path = files("omega.kam", r"(\x. x x) (\x. x x) * nil")
        code, _, _ = run_cli(capsys, "run", path, "--fuel", "100")
        assert code == 3

    def test_env_fuel_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("KAMIO_FUEL", "50")
        path = files("omega.kam", r"(\x. x x) (\x. x x) * nil")
        code, out, _ = run_cli(capsys, "run", path, "--format", "json")
        assert code == 3
        assert json.loads(out)["steps"] == 50


class TestBisim:
    def test_identical_files_verified(self, files, capsys):
        a = files("a.kam", "write0 end * nil")
        code, out, _ = run_cli(capsys, "bisim", a, a)
        assert code == 0
        assert out.strip() == "verified"

    def test_distinct_writes_refuted(self, files, capsys):
        a = files("a.kam", "write0 end * nil")
        b = files("b.kam", "write1 end * nil")
        code, out, _ = run_cli(capsys, "bisim", a, b, "--format", "json")
        assert code == 2
        assert json.loads(out) == {"status": "refuted", "witness": ["w0"]}

    def test_beta_contracted_never_refuted(self, files, capsys):
        a = files("a.kam", r"(\x. write0 (x end)) (\y. y) * nil")
        b = files("b.kam", r"write0 ((\y. y) end) * nil")
        code, out, _ = run_cli(capsys, "bisim", a, b)
        assert code == 0

    def test_pair_met_again_with_more_depth_refuted(self, files, capsys):
        a = files("a.kam", "read (write0 (write0 (write0 (write0 (write0 end)))))"
                           " (write0 (write0 (write0 end))) end * nil")
        b = files("b.kam", "read (write0 (write0 (write0 (write0 (write1 end)))))"
                           " (write0 (write0 (write1 end))) end * nil")
        code, out, _ = run_cli(capsys, "bisim", a, b, "--depth", "3")
        assert code == 2
        assert out == "refuted witness: ['r1', 'w0', 'w0', 'w0']\n"

    def test_shared_continuation_stacks_compare_fast(self, files, capsys):
        # each cc saves a stack it also keeps as the tail; comparing the
        # two sides node pair by node pair, not path by path, is linear
        core = "cc (" * 200 + r"\k. write0 end" + ")" * 200
        a = files("a.kam", core + " * nil")
        b = files("b.kam", rf"(\z. z) ({core}) * nil")
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "bisim", a, b, "--depth", "3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, "verified\n")

    def test_deep_settle_exit_0(self, files, capsys):
        # a chain that gets stuck settles on closures, with no substitute
        a = files("a.kam", "#2000 * end :: end :: nil")
        b = files("b.kam", r"(\z. z) (#2000) * end :: end :: nil")
        code, out, err = run_cli(capsys, "bisim", a, b)
        assert (code, out, err) == (0, "verified\n", "")

    def test_deep_settle_fallback_exit_0(self, files, capsys):
        # a chain that spends its fuel is followed again through eval_step,
        # one closure step read back, which finds the cycle
        a = files("a.kam", r"#2000 * (\x. x x) :: (\x. x x) :: nil")
        b = files("b.kam", r"(\z. z) (#2000) * (\x. x x) :: (\x. x x) :: nil")
        code, out, err = run_cli(capsys, "bisim", a, b)
        assert (code, out, err) == (0, "verified\n", "")

    def test_deep_search_unknown(self, files, capsys):
        chain = r"(\x. \y. write0 (x x (\z. {0}))) (\x. \y. write0 (x x (\z. {0}))) (\u. u) * nil"
        a = files("a.kam", chain.format("y"))
        b = files("b.kam", chain.format(r"\w. y"))
        code, out, err = run_cli(capsys, "bisim", a, b, "--depth", "1200")
        assert code == 3
        assert out == "unknown [depth]\n"
        assert err == ""

    def test_negative_depth_exit_1(self, files, capsys):
        a = files("a.kam", "write0 end * nil")
        code, out, err = run_cli(capsys, "bisim", a, a, "--depth", "-2")
        assert code == 1
        assert out == ""
        assert err == "kamio: error: depth must be non-negative\n"


class TestTopEquiv:
    def test_execution_prefix(self, files, capsys):
        a = files("a.kam", "end * nil")
        b = files("b.kam", "TOP")
        code, out, _ = run_cli(capsys, "topequiv", a, b)
        assert code == 0

    def test_differing_inputs_refuted(self, files, capsys):
        a = files("a.kam", "end * nil")
        code, _, _ = run_cli(capsys, "topequiv", a, a, "--input-a", "1")
        assert code == 2


class TestCompileAndVerify:
    def test_identity_pipeline(self, files, capsys, tmp_path):
        lam = files("id.lam", r"\x. x")
        out_path = str(tmp_path / "id.kam")
        code, _, _ = run_cli(capsys, "compile-fn", lam, "-o", out_path)
        assert code == 0
        parse_process(Path(out_path).read_text(encoding="utf-8"))  # round-trips

        table = files("id.tsv", "".join(f"{n}\t{n}\n" for n in range(9)))
        code, out, _ = run_cli(capsys, "verify-impl", out_path, "--table", table)
        assert code == 0
        assert out.strip().endswith("verified (sampled)")  # the table's rows, not all of N
        code, out, _ = run_cli(capsys, "verify-impl", out_path, "--table", table,
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == {"status": "verified", "sampled": True}

    def test_successor_from_prelude(self, files, capsys, tmp_path):
        lam = files("succ.lam", "S")
        out_path = str(tmp_path / "succ.kam")
        code, _, _ = run_cli(capsys, "compile-fn", lam, "-o", out_path, "--prelude")
        assert code == 0
        table = files("succ.tsv", "".join(f"{n}\t{n + 1}\n" for n in range(6)))
        code, _, _ = run_cli(capsys, "verify-impl", out_path, "--table", table)
        assert code == 0

    def test_wrong_table_refuted(self, files, capsys, tmp_path):
        lam = files("succ.lam", "S")
        out_path = str(tmp_path / "succ.kam")
        run_cli(capsys, "compile-fn", lam, "-o", out_path, "--prelude")
        table = files("bad.tsv", "2\t5\n")
        code, out, _ = run_cli(capsys, "verify-impl", out_path, "--table", table,
                               "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["rows"][0]["status"] == "refuted"

    def test_each_row_runs_once(self, files, capsys, tmp_path, monkeypatch):
        lam = files("id.lam", r"\x. x")
        out_path = str(tmp_path / "id.kam")
        run_cli(capsys, "compile-fn", lam, "-o", out_path)
        table = files("id.tsv", "".join(f"{n}\t{n}\n" for n in range(4)))
        calls = []
        real_run = machine.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(machine, "run", counting_run)
        code, out, _ = run_cli(capsys, "verify-impl", out_path, "--table", table)
        assert code == 0
        assert out.splitlines()[:4] == [f"{n}\t{n}\tverified" for n in range(4)]
        assert len(calls) == 4

    def test_tiny_fuel_unknown(self, files, capsys, tmp_path):
        lam = files("id.lam", r"\x. x")
        out_path = str(tmp_path / "id.kam")
        run_cli(capsys, "compile-fn", lam, "-o", out_path)
        table = files("id.tsv", "3\t3\n")
        code, _, _ = run_cli(capsys, "verify-impl", out_path, "--table", table,
                             "--fuel", "5")
        assert code == 3

    def test_effectful_term_exit_1(self, files, capsys):
        lam = files("bad.lam", "write0 end")
        code, _, err = run_cli(capsys, "compile-fn", lam, "-o", "-")
        assert code == 1
        assert "instruction constants" in err

    @pytest.mark.parametrize("rows", ["3\t6\n3\t7\n", "3\t7\n3\t6\n"],
                             ids=["6_then_7", "7_then_6"])
    def test_repeated_input_exit_1(self, files, capsys, tmp_path, rows):
        out_path = str(tmp_path / "double.kam")
        run_cli(capsys, "compile-fn", str(DEMOS / "double.lam"), "-o", out_path, "--prelude")
        table = files("double.tsv", rows)
        code, out, err = run_cli(capsys, "verify-impl", out_path, "--table", table)
        assert code == 1
        assert out == ""
        assert err == "kamio: error: table line 2: input 3 already has a row\n"

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comments"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_table_without_rows_exit_1(self, files, capsys, tmp_path, text, fmt):
        lam = files("id.lam", r"\x. x")
        out_path = str(tmp_path / "id.kam")
        run_cli(capsys, "compile-fn", lam, "-o", out_path)
        table = files("empty.tsv", text)
        code, out, err = run_cli(capsys, "verify-impl", out_path, "--table", table,
                                 "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "kamio: error: table has no rows\n"

    def test_malformed_table_exit_1(self, files, capsys, tmp_path):
        lam = files("id.lam", r"\x. x")
        out_path = str(tmp_path / "id.kam")
        run_cli(capsys, "compile-fn", lam, "-o", out_path)
        table = files("bad.tsv", "1\ttwo\n")
        code, _, _ = run_cli(capsys, "verify-impl", out_path, "--table", table)
        assert code == 1

    def test_three_cell_table_line_exit_1(self, files, capsys, tmp_path):
        out_path = str(tmp_path / "id.kam")
        run_cli(capsys, "compile-fn", files("id.lam", r"\x. x"), "-o", out_path)
        table = files("three.tsv", "0\t0\n1\t2\t3\n")
        code, out, err = run_cli(capsys, "verify-impl", out_path, "--table", table)
        assert (code, out) == (1, "")
        assert err == "kamio: error: table line 2: expected `n<TAB>m`, got '1\\t2\\t3'\n"

    @pytest.mark.parametrize("rows, message", [
        ("1_0\t20\n", 'table line 1: cell must be an integer, got "1_0"'),
        ("\u0663\t6\n", 'table line 1: cell must be an integer, got "\\u0663"'),
        ("+2\t4\n", 'table line 1: cell must be an integer, got "+2"'),
        ("0\t0\nx\t1\n", 'table line 2: cell must be an integer, got "x"'),
        ("0\t-0x1\n", 'table line 1: cell must be an integer, got "-0x1"'),
        ("0\t0\n-1\t1\n", "table line 2: naturals required"),
    ], ids=["underscore", "arabic-indic", "plus", "letter", "hex", "negative"])
    def test_bad_table_cell_exit_1(self, files, capsys, tmp_path, rows, message):
        # `int` read the first three as rows 10, 3 and 2, and named no line
        # for the other two
        lam = files("id.lam", r"\x. x")
        out_path = str(tmp_path / "id.kam")
        run_cli(capsys, "compile-fn", lam, "-o", out_path)
        table = files("bad.tsv", rows)
        code, out, err = run_cli(capsys, "verify-impl", out_path, "--table", table)
        assert (code, out) == (1, "")
        assert err == f"kamio: error: {message}\n"


class TestRealize:
    def test_ax_scenario(self, files, capsys):
        scenario = files("ax.json", json.dumps({
            "kind": "entailment",
            "pole": {"kind": "finite", "seeds": [r"(\u. \v. u) * nil"], "fuel": 1000},
            "context": [
                {"predicate": [{"index": "i", "stacks": ["nil"]}],
                 "realizers": [{"index": "i", "terms": [r"\u. \v. u"]}]}],
            "conclusion": [{"index": "i", "stacks": ["nil"]}],
            "candidate": r"\x. x",
        }))
        code, out, _ = run_cli(capsys, "realize", scenario)
        assert code == 0
        assert json.loads(out)["verdict"]["status"] == "verified"

    def test_peirce_scenario(self, files, capsys):
        scenario = files("peirce.json", json.dumps({
            "kind": "entailment",
            "pole": {"kind": "finite", "seeds": [r"(\u. \v. u) * nil"], "fuel": 1000},
            "context": [
                {"predicate": [{"index": "i", "stacks": ["nil"]}],
                 "realizers": [{"index": "i", "terms": [r"\k. k (\u. \v. u)"]}]}],
            "conclusion": [{"index": "i", "stacks": ["nil"]}],
            "candidate": "cc",
        }))
        code, out, _ = run_cli(capsys, "realize", scenario)
        assert code == 0

    def test_cli_fuel_applies_without_scenario_fuel(self, files, capsys):
        # 8 evaluation steps from the seed: more than --fuel 2 allows
        scenario = files("slow.json", json.dumps({
            "kind": "realizes",
            "pole": {"kind": "finite", "seeds": ["end * nil"]},
            "term": r"(\a. \b. \c. \d. end) cc cc cc cc",
            "truth_value": {"stacks": ["nil"]},
        }))
        code, out, _ = run_cli(capsys, "realize", scenario, "--fuel", "2")
        assert code == 3
        assert json.loads(out)["verdict"]["status"] == "unknown"
        code, out, _ = run_cli(capsys, "realize", scenario)
        assert code == 0

    def test_scenario_fuel_beats_cli_fuel(self, files, capsys):
        scenario = files("slow.json", json.dumps({
            "kind": "realizes",
            "fuel": 100,
            "pole": {"kind": "finite", "seeds": ["end * nil"]},
            "term": r"(\a. \b. \c. \d. end) cc cc cc cc",
            "truth_value": {"stacks": ["nil"]},
        }))
        code, _, _ = run_cli(capsys, "realize", scenario, "--fuel", "2")
        assert code == 0

    def test_negative_max_input_len_exit_1(self, files, capsys):
        def scenario(max_input_len):
            return files("trace.json", json.dumps({
                "kind": "realizes",
                "pole": {"kind": "trace", "spec": "copy", "max_input_len": max_input_len},
                "term": "end",
                "truth_value": {"stacks": ["nil"]},
            }))
        code, _, _ = run_cli(capsys, "realize", scenario(0))
        assert code == 2
        code, out, err = run_cli(capsys, "realize", scenario(-1))
        assert code == 1
        assert out == ""
        assert err == "kamio: error: max_input_len must be non-negative, got -1\n"

    @pytest.mark.parametrize("fuel, shown", [(2.5, "2.5"), (True, "true"), (1e999, "Infinity")])
    def test_non_integer_fuel_exit_1(self, files, capsys, fuel, shown):
        scenario = self._slow(files, {"kind": "finite", "seeds": ["end * nil"]}, fuel=fuel)
        code, out, err = run_cli(capsys, "realize", scenario)
        assert (code, out) == (1, "")
        assert err == f"kamio: error: fuel must be an integer, got {shown}\n"

    def test_number_written_as_string_exit_1(self, files, capsys):
        scenario = self._slow(files, {"kind": "finite", "seeds": ["end * nil"]}, fuel="5")
        code, out, err = run_cli(capsys, "realize", scenario)
        assert (code, out) == (1, "")
        assert err == 'kamio: error: fuel must be an integer, got "5"\n'

    def _entailment(self, files, context_indices):
        # the conclusion has rows at i and j; the context's realizer at j
        # refutes the candidate
        terms = {"i": r"\u. \v. u", "j": "end", "k": r"\u. u"}
        return files("rows.json", json.dumps({
            "kind": "entailment",
            "pole": {"kind": "finite", "seeds": [r"(\u. \v. u) * nil"], "fuel": 1000},
            "context": [{"predicate": [{"index": i, "stacks": ["nil"]} for i in context_indices],
                         "realizers": [{"index": i, "terms": [terms[i]]}
                                       for i in context_indices if i in terms]}],
            "conclusion": [{"index": i, "stacks": ["nil"]} for i in ("i", "j")],
            "candidate": r"\x. x",
        }))

    @pytest.mark.parametrize("context_indices", [["i", "j", "k"], ["i"]],
                             ids=["extra-row", "missing-row"])
    def test_context_rows_off_the_conclusion_exit_1(self, files, capsys, context_indices):
        code, out, err = run_cli(capsys, "realize", self._entailment(files, context_indices))
        assert (code, out) == (1, "")
        assert err == "kamio: error: all predicates in a sequent share one index set\n"

    def test_context_index_without_realizers_exit_1(self, files, capsys):
        # a context with nothing to enumerate verified any candidate
        scenario = files("empty.json", json.dumps({
            "kind": "entailment", "pole": {"kind": "finite", "seeds": ["end * nil"]},
            "context": [{"predicate": [{"index": "i", "stacks": ["nil"]}], "realizers": []}],
            "conclusion": [{"index": "i", "stacks": ["nil"]}], "candidate": r"\x. \y. y",
        }))
        code, out, err = run_cli(capsys, "realize", scenario)
        assert (code, out) == (1, "")
        assert err == "kamio: error: context entry has no realizers at index 'i'\n"

    def test_context_rows_in_any_order(self, files, capsys):
        code, out, _ = run_cli(capsys, "realize", self._entailment(files, ["i", "j"]))
        assert code == 2
        assert run_cli(capsys, "realize", self._entailment(files, ["j", "i"])) == (code, out, "")

    @pytest.mark.parametrize("term", ["end", r"\x. x"])
    def test_negative_table_row_exit_1(self, files, capsys, term):
        # rejected at load, whether the row's run terminates (end) or
        # gets stuck (\x. x on nil)
        scenario = files("table.json", json.dumps({
            "kind": "realizes",
            "pole": {"kind": "function", "table": {"0": -1}, "fuel": 100},
            "term": term,
            "truth_value": {"stacks": ["nil"]},
        }))
        code, out, err = run_cli(capsys, "realize", scenario)
        assert (code, out) == (1, "")
        assert err == "kamio: error: function pole table row 0: naturals required\n"

    def _slow(self, files, pole, **top):
        # the term needs 8 evaluation steps to reach the seed `end * nil`
        return files("slow.json", json.dumps({
            "kind": "realizes", **top, "pole": pole,
            "term": r"(\a. \b. \c. \d. end) cc cc cc cc",
            "truth_value": {"stacks": ["nil"]},
        }))

    def test_pole_fuel_beats_scenario_fuel(self, files, capsys):
        scenario = self._slow(files, {"kind": "finite", "seeds": ["end * nil"], "fuel": 2},
                              fuel=100)
        code, out, _ = run_cli(capsys, "realize", scenario)
        assert code == 3
        assert json.loads(out)["verdict"]["status"] == "unknown"

    def test_union_member_fuel_applies(self, files, capsys):
        scenario = self._slow(files, {"kind": "union", "members": [
            {"kind": "finite", "seeds": ["end * nil"], "fuel": 2}]}, fuel=100)
        code, _, _ = run_cli(capsys, "realize", scenario)
        assert code == 3

    def test_union_member_inherits_cli_fuel(self, files, capsys):
        scenario = self._slow(files, {"kind": "union", "members": [
            {"kind": "finite", "seeds": ["end * nil"]}]})
        code, _, _ = run_cli(capsys, "realize", scenario, "--fuel", "2")
        assert code == 3
        code, _, _ = run_cli(capsys, "realize", scenario)
        assert code == 0

    @pytest.mark.parametrize("pole", [
        {"kind": "finite", "seeds": ["end * nil"]},
        {"kind": "union", "members": [{"kind": "finite", "seeds": ["end * nil"]}]},
    ], ids=["finite", "union"])
    def test_null_pole_fuel_exit_1(self, files, capsys, pole):
        # a null was read as no key: the pole took its kind's default budget
        # and verified, where the scenario's fuel of 3 runs out
        code, _, _ = run_cli(capsys, "realize", self._slow(files, pole, fuel=3))
        assert code == 3
        null = self._slow(files, dict(pole, fuel=None), fuel=3)
        code, out, err = run_cli(capsys, "realize", null)
        assert (code, out) == (1, "")
        assert err == "kamio: error: fuel must be an integer, got null\n"

    LOOP = r"(\x. x x x) (\x. x x x)"  # grows on every cycle, so fuel runs out

    def _probe(self, files, seed, candidates, stack, member_samples=()):
        return files("probe.json", json.dumps({
            "kind": "consistency", "fuel": 50,
            "pole": {"kind": "finite", "seeds": [seed]},
            "candidates": candidates, "stack_samples": [stack],
            "member_samples": list(member_samples),
        }))

    def test_probe_out_of_fuel_unknown(self, files, capsys):
        scenario = self._probe(files, "end * nil", [self.LOOP], "nil")
        code, out, _ = run_cli(capsys, "realize", scenario)
        report = json.loads(out)
        assert code == 3
        assert report["verdict"] == {"status": "unknown", "reason": "fuel"}
        assert report["candidates"] == [
            {"term": self.LOOP, "status": "unknown", "witness": None}]

    def test_violation_beats_unknown_candidate(self, files, capsys):
        pure = r"(\u. \v. u) * nil"
        scenario = self._probe(files, pure, [self.LOOP], "nil", member_samples=[pure])
        code, out, _ = run_cli(capsys, "realize", scenario)
        report = json.loads(out)
        assert code == 2
        assert report["verdict"] == {"status": "refuted", "witness": [r"\u. \v. u * nil"]}
        assert report["candidates"][0]["status"] == "unknown"
        assert report["audit"] == [
            {"process": r"\u. \v. u * nil", "has_effect_constant": False}]

    def test_unrefuted_candidate_beats_unknown_candidate(self, files, capsys):
        scenario = self._probe(files, "end * nil", [self.LOOP, r"\x. x"], "end :: nil")
        code, out, _ = run_cli(capsys, "realize", scenario)
        report = json.loads(out)
        assert code == 2
        assert report["verdict"] == {"status": "refuted", "witness": [r"\x. x"]}
        assert [c["status"] for c in report["candidates"]] == [
            "unknown", "no_witness_in_sample"]
        assert report["audit"] == [
            {"process": r"\x. x * end :: nil", "has_effect_constant": True}]

    def _all_stacks(self, files, flag):
        return files("tv.json", json.dumps({
            "kind": "realizes",
            "pole": {"kind": "finite", "seeds": ["end * nil"]},
            "term": r"\x. x",
            "truth_value": {"stacks": ["end :: nil"], "all_stacks": flag},
        }))

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_all_stacks_must_be_boolean(self, files, capsys, flag):
        code, out, err = run_cli(capsys, "realize", self._all_stacks(files, flag))
        assert (code, out) == (1, "")
        assert err == f"kamio: error: all_stacks must be true or false, got {flag!r}\n"

    @pytest.mark.parametrize("flag, sampled", [(True, True), (False, False)])
    def test_all_stacks_boolean_accepted(self, files, capsys, flag, sampled):
        code, out, _ = run_cli(capsys, "realize", self._all_stacks(files, flag))
        assert code == 0
        assert json.loads(out)["verdict"].get("sampled", False) is sampled

    @pytest.mark.parametrize("table", [{"1": 1, "01": 2}, {"01": 2, "1": 1}],
                             ids=["1_then_01", "01_then_1"])
    def test_function_table_repeated_input_exit_1(self, files, capsys, table):
        scenario = files("fn.json", json.dumps({
            "kind": "realizes",
            "pole": {"kind": "function", "table": table},
            "term": r"\x. x",
            "truth_value": {"stacks": ["nil"]},
        }))
        code, out, err = run_cli(capsys, "realize", scenario)
        assert (code, out) == (1, "")
        assert err == "kamio: error: function pole table names input 1 twice\n"

    @staticmethod
    def _ax(conclusion, predicate=({"index": "i", "stacks": ["nil"]},),
            realizers=({"index": "i", "terms": [r"\u. \v. u"]},)):
        return {
            "kind": "entailment",
            "pole": {"kind": "finite", "seeds": [r"(\u. \v. u) * nil"]},
            "context": [{"predicate": list(predicate), "realizers": list(realizers)}],
            "conclusion": list(conclusion),
            "candidate": r"\x. x",
        }

    def test_repeated_conclusion_index_exit_1(self, files, capsys):
        refuting = {"index": "i", "stacks": ["end :: nil"]}
        code, _, _ = run_cli(capsys, "realize", files("one.json", json.dumps(self._ax([refuting]))))
        assert code == 2
        # a later row for the same index used to replace the refuting one
        scenario = self._ax([refuting, {"index": "i", "stacks": ["nil"]}])
        code, out, err = run_cli(capsys, "realize", files("twice.json", json.dumps(scenario)))
        assert (code, out) == (1, "")
        assert err == "kamio: error: conclusion names index 'i' twice\n"

    @pytest.mark.parametrize("field, rows", [
        ("predicate", [{"index": "i", "stacks": ["nil"]}, {"index": "i", "stacks": []}]),
        ("realizers", [{"index": "i", "terms": [r"\u. \v. u"]}, {"index": "i", "terms": ["cc"]}]),
    ])
    def test_repeated_context_index_exit_1(self, files, capsys, field, rows):
        scenario = self._ax([{"index": "i", "stacks": ["nil"]}], **{field: rows})
        code, out, err = run_cli(capsys, "realize", files("twice.json", json.dumps(scenario)))
        assert (code, out) == (1, "")
        assert err == f"kamio: error: {field} names index 'i' twice\n"

    def test_effectful_candidate_exit_1(self, files, capsys):
        scenario = files("bad.json", json.dumps({
            "kind": "entailment",
            "pole": {"kind": "finite", "seeds": [], "fuel": 10},
            "context": [],
            "conclusion": [{"index": "i", "stacks": ["nil"]}],
            "candidate": "write0 end",
        }))
        code, _, err = run_cli(capsys, "realize", scenario)
        assert code == 1

    @pytest.mark.parametrize("candidate, message", [
        ("x", "candidate is not closed: x"),
        ("end", "candidate contains instruction constants ['end']"),
    ], ids=["open", "effectful"])
    def test_bad_consistency_candidate_named(self, files, capsys, candidate, message):
        scenario = files("probe.json", json.dumps({
            "kind": "consistency",
            "pole": {"kind": "finite", "seeds": ["end * nil"]},
            "candidates": [candidate],
            "stack_samples": ["nil"],
        }))
        code, out, err = run_cli(capsys, "realize", scenario)
        assert (code, out) == (1, "")
        assert err == f"kamio: error: {message}\n"

    @pytest.mark.parametrize("pole", [
        {"kind": "finite", "seeds": ["end * nil"]},
        {"kind": "function", "table": {"0": 0}},
        {"kind": "trace", "spec": "copy"},
    ], ids=["finite", "function", "trace"])
    def test_negative_pole_fuel_exit_1(self, files, capsys, pole):
        scenario = self._slow(files, dict(pole, fuel=-3))
        code, out, err = run_cli(capsys, "realize", scenario)
        assert (code, out) == (1, "")
        assert err == "kamio: error: fuel must be non-negative\n"

    @pytest.mark.parametrize("argv, scenario", [
        (["--fuel", "-3"], {}),
        ([], {"fuel": -1}),
        ([], {"pole": {"kind": "finite", "seeds": [], "fuel": -1}}),
        ([], {"pole": {"kind": "union", "members": [
            {"kind": "trace", "spec": "copy", "fuel": -1}]}}),
        ([], {"pole": {"kind": "function", "table": {}, "fuel": -1}}),
    ], ids=["cli", "scenario", "pole", "union-member", "empty-table"])
    def test_negative_fuel_unused_exit_1(self, files, capsys, argv, scenario):
        # no stack, so no membership check would read the fuel
        path = files("empty.json", json.dumps({
            "kind": "realizes", "pole": {"kind": "finite", "seeds": []},
            "term": r"\x. x", "truth_value": {"stacks": []}, **scenario}))
        code, out, err = run_cli(capsys, "realize", path, *argv)
        assert (code, out) == (1, "")
        assert err == "kamio: error: fuel must be non-negative\n"

    def test_empty_function_table_exit_1(self, files, capsys):
        # a verdict over no rows would be a vacuous Verified
        scenario = files("table.json", json.dumps({
            "kind": "realizes",
            "pole": {"kind": "function", "table": {}},
            "term": r"\x. x x",
            "truth_value": {"stacks": ["nil"]},
        }))
        code, out, err = run_cli(capsys, "realize", scenario)
        assert (code, out) == (1, "")
        assert err == "kamio: error: function pole table has no rows\n"

    def test_schema_violation_exit_1(self, files, capsys):
        scenario = files("bad.json", json.dumps({"kind": "entailment"}))
        code, _, err = run_cli(capsys, "realize", scenario)
        assert code == 1
        assert err == "kamio: error: scenario is missing key 'pole'\n"

    @pytest.mark.parametrize("payload", [
        {"kind": "realizes", "pole": ["x"]},
        {"kind": "realizes", "pole": {"kind": "function", "table": [1, 2]}},
        {"kind": "entailment", "pole": {"kind": "finite", "seeds": []},
         "conclusion": [{"index": "i", "stacks": 5}], "candidate": "cc"},
        {"kind": "entailment", "pole": {"kind": "finite", "seeds": []},
         "conclusion": [{"index": ["i"], "stacks": ["nil"]}], "candidate": "cc"},
    ])
    def test_wrong_typed_scenario_one_line(self, files, capsys, payload):
        scenario = files("bad.json", json.dumps(payload))
        code, _, err = run_cli(capsys, "realize", scenario)
        assert code == 1
        assert "Traceback" not in err
        [line] = err.strip().splitlines()
        assert line.startswith("kamio: error: malformed scenario: ")

    def test_string_for_a_list_exit_1(self, files, capsys):
        # "" was read as no stacks, and the scenario verified with exit 0
        scenario = files("bad.json", json.dumps({
            "kind": "realizes", "pole": {"kind": "finite", "seeds": []},
            "term": r"\x. x", "truth_value": {"stacks": ""}}))
        code, out, err = run_cli(capsys, "realize", scenario)
        assert (code, out) == (1, "")
        assert err == "kamio: error: malformed scenario: truth_value.stacks must be a list\n"

    def test_array_scenario_exit_1(self, files, capsys):
        code, out, err = run_cli(capsys, "realize", files("array.json", "[1, 2]"))
        assert (code, out) == (1, "")
        assert err == "kamio: error: scenario must be a JSON object\n"

    def test_deep_json_exit_1(self, files, capsys):
        scenario = files("deep.json", "[" * 100_000)
        code, out, err = run_cli(capsys, "realize", scenario)
        assert code == 1
        assert out == ""
        assert err == "kamio: error: scenario JSON is nested too deeply\n"


class TestDecode:
    def test_numeral(self, files, capsys):
        path = files("n.lam", "#13")
        code, out, _ = run_cli(capsys, "decode", path)
        assert code == 0
        assert out.strip() == "13"

    def test_prelude_expression(self, files, capsys):
        path = files("n.lam", "B (C #3)")
        code, out, _ = run_cli(capsys, "decode", path, "--prelude")
        assert code == 0
        assert out.strip() == "14"

    def test_unknown_exit_3(self, files, capsys):
        path = files("n.lam", r"\x. \y. x")
        code, out, _ = run_cli(capsys, "decode", path, "--fuel", "5000")
        assert code == 3

    def test_malformed_exit_2(self, files, capsys):
        path = files("n.lam", "cc")
        code, _, err = run_cli(capsys, "decode", path, "--fuel", "5000")
        assert code == 2

    def test_deep_numeral_exit_0(self, files, capsys):
        code, out, err = run_cli(capsys, "decode", files("n.lam", "#2000"))
        assert (code, out, err) == (0, "2000\n", "")


class TestPreludeList:
    def test_names(self, capsys):
        code, out, _ = run_cli(capsys, "prelude-list")
        assert code == 0
        assert out.split() == list("SBCHEZYFQRVW")

    def test_expanded(self, capsys):
        code, out, _ = run_cli(capsys, "prelude-list", "--expanded")
        assert code == 0
        assert out.startswith("S = \\n. \\f. \\x. f (n f x)")


class TestUsageErrors:
    def test_unknown_flag_exit_1(self, files, capsys):
        path = files("end.kam", "end * nil")
        code, _, err = run_cli(capsys, "run", path, "--bogus")
        assert code == 1
        assert err.strip() == "kamio: error: unrecognized arguments: --bogus"

    def test_missing_file_argument_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "run")
        assert code == 1
        assert len(err.strip().splitlines()) == 1

    def test_bad_env_fuel_exit_1(self, files, capsys, monkeypatch):
        monkeypatch.setenv("KAMIO_FUEL", "abc")
        path = files("end.kam", "end * nil")
        code, _, err = run_cli(capsys, "run", path)
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_env_fuel_read_on_every_call(self, files, capsys, monkeypatch):
        # the parser is built once per process; KAMIO_FUEL is not
        path = files("omega.kam", r"(\x. x x) (\x. x x) * nil")
        monkeypatch.setenv("KAMIO_FUEL", "7")
        code, out, _ = run_cli(capsys, "run", path, "--prelude", "--format", "json")
        assert (code, json.loads(out)["steps"]) == (3, 7)
        monkeypatch.delenv("KAMIO_FUEL")
        code, out, _ = run_cli(capsys, "run", path, "--prelude", "--format", "json")
        assert (code, json.loads(out)["steps"]) == (3, machine.DEFAULT_FUEL)
        monkeypatch.setenv("KAMIO_FUEL", "abc")
        code, _, err = run_cli(capsys, "run", path, "--prelude")
        assert code == 1
        assert err == "kamio: error: argument --fuel: invalid int value: 'abc'\n"

    def test_option_the_subcommand_does_not_take_exit_1(self, files, capsys):
        path = files("n.lam", "#3")
        code, _, _ = run_cli(capsys, "decode", path, "--depth", "3")
        assert code == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--fuel" in capsys.readouterr().out


class TestDeterminism:
    def test_same_invocation_same_output(self, files, capsys):
        path = files("copy.kam", COPY_SOURCE)
        first = run_cli(capsys, "run", path, "--input", "1101", "--prelude", "--format", "json")
        second = run_cli(capsys, "run", path, "--input", "1101", "--prelude", "--format", "json")
        assert first == second


class TestFuzz:
    """Every subcommand on random processes, their mutants, text near the
    grammar and deeply nested input: each exit code is one of 0-3, no
    error escapes as a traceback, and only `realize`, whose JSON reader
    recurses, may find its input nested too deeply."""

    DEEP = ("(" * 3000 + "end" + ")" * 3000 + " * nil",
            "kont{" * 3000 + "nil" + "} :: nil" * 2999 + "} * nil",
            "".join(f"\\a{i}. " for i in range(3000)) + "a0",
            "cc (" * 3000 + "end" + ")" * 3000,
            "#2000",
            r"#2000 * (\x. x x) :: (\x. x x) :: nil")

    def test_every_subcommand(self, files, capsys):
        rng = random.Random(7)
        printed = [gen.printed_tokens(rng) for _ in range(40)]

        def text(shape="process"):
            roll = rng.random()
            if roll < 0.65:
                value = {"term": lambda: gen.random_term(rng, rng.randrange(1, 12), (), effects=False),
                         "stack": lambda: gen.random_stack(rng),
                         "process": lambda: gen.random_process(rng, rng.randrange(1, 12))}[shape]()
                return str(gen.mutate(rng, value) if roll < 0.2 else value)
            if roll < 0.9:
                return gen.random_text(rng, printed)
            return rng.choice(self.DEEP)

        poles = ({"kind": "function", "table": {"0": 0, "1": 1}},
                 {"kind": "trace", "spec": "copy", "max_input_len": 1})
        table = files("t.tsv", "0\t0\n1\t2\n")
        for i in range(60):
            p, q, t = (files(f"{name}{i}", text(shape))
                       for name, shape in (("p", "process"), ("q", "process"), ("t", "term")))
            pole = rng.choice(poles + ({"kind": "finite", "seeds": [text()]},))
            scenario = files(f"s{i}.json", json.dumps({
                "kind": rng.choice(("realizes", "entailment", "consistency")),
                "pole": pole, "fuel": 100, "term": text("term"), "candidate": text("term"),
                "truth_value": {"stacks": [text("stack")]},
                "context": [{"predicate": [{"index": 0, "stacks": [text("stack")]}],
                             "realizers": [{"index": 0, "terms": [text("term")]}]}],
                "conclusion": [{"index": 0, "stacks": [text("stack")]}],
                "candidates": [text("term")], "stack_samples": [text("stack")],
            }))
            fuel = ("--fuel", "200")
            for argv in (["parse", rng.choice((p, t))],
                         ["run", p, "--input", gen.random_bits(rng), *fuel], ["trace", p, *fuel],
                         ["bisim", p, q, "--depth", "2", *fuel], ["topequiv", p, q, *fuel],
                         ["compile-fn", t], ["verify-impl", p, "--table", table, *fuel],
                         ["realize", scenario], ["decode", t, *fuel], ["prelude-list"]):
                if rng.random() < 0.2 and argv[0] not in ("realize", "prelude-list"):
                    argv.append("--prelude")
                code, _, err = run_cli(capsys, *argv)
                assert code in (0, 1, 2, 3), argv
                assert "Traceback" not in err, argv
                if argv[0] != "realize":
                    assert "nested too deeply" not in err, argv
