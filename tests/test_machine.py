import ast
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import gen
import reference_machine as reference
from kamio import machine
from kamio.combinators import (
    B, C, H, PRELUDE_SOURCE, S, W, Y, compile_function, decode_numeral, prelude_definitions,
    resolve_names,
)
from kamio.equivalence import observable
from kamio.machine import (
    DEFAULT_FUEL, Action, ExecutionContext, RunResult, _ENDS, _READS, _WRITES0, _WRITES1,
    _iterate, _read_back, bin_nat,
    eval_step, exec_step, exec_step_labeled, lts_step, nat_of_bin, run, settle,
    settled_moves, successor,
)
from kamio.realizability import FinitePole, FunctionPole
from kamio.syntax import (
    Abs, App, END, EMPTY, Kont, Pair, READ, TOP, Var, WRITE0, WRITE1,
    church_numeral, parse_process, parse_term, pretty, stack_of,
)

OMEGA = r"(\x. x x) (\x. x x) * nil"


def ctx(text, inp="", out=""):
    return ExecutionContext(parse_process(text), inp, out)


class TestEvalStep:
    def test_push(self):
        p = Pair(App(END, END), EMPTY)
        assert eval_step(p) == Pair(END, stack_of(END))

    def test_pop_substitutes(self):
        p = parse_process(r"(\x. x) * end :: nil")
        assert eval_step(p) == parse_process("end * nil")

    def test_save_captures_stack(self):
        p = parse_process(r"cc * (\x. x) :: end :: nil")
        expected = parse_process(r"(\x. x) * kont{end :: nil} :: end :: nil")
        assert eval_step(p) == expected

    def test_restore_discards_current_stack(self):
        p = parse_process(r"kont{nil} * end :: (\y. y) :: nil")
        assert eval_step(p) == parse_process("end * nil")

    def test_instruction_heads_do_not_evaluate(self):
        assert eval_step(parse_process("end * nil")) is None
        assert eval_step(parse_process("read * end :: end :: end :: nil")) is None
        assert eval_step(parse_process("write0 * end :: nil")) is None

    def test_empty_stack_blocks_pop_save_restore(self):
        assert eval_step(parse_process(r"(\x. x) * nil")) is None
        assert eval_step(parse_process("cc * nil")) is None
        assert eval_step(parse_process("kont{end :: nil} * nil")) is None

    def test_top_has_no_step(self):
        assert eval_step(TOP) is None

    def test_deep_silent_step(self):
        # the pop reads back a 2,000-deep body with no recursion
        [(action, q)] = lts_step(parse_process("#2000 * end :: end :: nil"))
        body = Var("x")
        for _ in range(2000):
            body = App(END, body)
        assert (action, q) == (Action.TAU, Pair(Abs("x", body), stack_of(END)))

    def test_deep_finite_pole_member(self):
        # the exact loop steps with eval_step until it meets the seed
        stuck = END
        for _ in range(1999):
            stuck = App(END, stuck)
        pole = FinitePole.of([Pair(END, stack_of(stuck))])
        assert pole.member(parse_process("#2000 * end :: end :: nil"), 100_000).is_verified

    def test_deep_settle_cycle(self):
        # the exact loop reads back each step with no recursion and finds the cycle
        w = parse_term(r"\x. x x")
        reason, q = settle(parse_process(r"#2000 * (\x. x x) :: (\x. x x) :: nil"), 100_000)
        assert (reason, q.term, len(q.stack)) == ("cycle", App(w, w), 1999)

    @given(st.one_of(gen.processes(), gen.silent_loops()))
    def test_exactly_the_silent_transitions(self, p):
        # lts_step's silent move is eval_step's successor, and where
        # eval_step has none lts_step offers visible moves only: so
        # settle's seen-set loop, which follows eval_step, stops exactly
        # where lts_step has no silent move left.
        q, transitions = eval_step(p), lts_step(p)
        if q is None:
            assert all(action is not Action.TAU for action, _ in transitions)
        else:
            assert transitions == ((Action.TAU, q),)


def settled_labels(moves):
    """The labels of a `settled_moves` answer: None stays None, and a
    silent process has none."""
    return None if moves is None else moves[0] if moves else ()


def _silent_chain(p, limit=62):
    """p and its silent successors, up to a stuck process, the step before
    the first repeat, or `limit` processes."""
    chain, seen = [p], {p}
    while len(chain) < limit:
        q = eval_step(chain[-1])
        if q is None or q in seen:
            break
        chain.append(q)
        seen.add(q)
    return chain


class TestSettle:
    def test_each_reason(self):
        assert settle(parse_process(r"write0 end * nil"), 10) == \
            ("stuck", parse_process("write0 * end :: nil"))
        assert settle(TOP, 0) == ("stuck", TOP)
        assert settle(parse_process(OMEGA), 10)[0] == "cycle"
        assert settle(parse_process(r"(\x. x) end * nil"), 1) == \
            ("fuel", parse_process(r"\x. x * end :: nil"))
        target = parse_process(r"\x. x * end :: nil")
        assert settle(parse_process(r"(\x. x) end * nil"), 1, {target}) == ("stop", target)

    def test_omega_cycle_needs_two_steps(self):
        p = parse_process(OMEGA)
        for fuel, kind in ((0, "unknown"), (1, "unknown"), (2, "silent"), (3, "silent")):
            assert observable(p, fuel).kind == kind
            assert reference.observable(p, fuel).kind == kind

    def test_negative_fuel_rejected(self):
        p = parse_process(r"(\x. x) end * nil")
        for check in (lambda: settle(p, -1), lambda: observable(p, -1),
                      lambda: settled_moves(p, -1), lambda: FinitePole.of([p]).member(p, -1),
                      lambda: run(ExecutionContext(p), -1)):
            with pytest.raises(ValueError, match="^fuel must be non-negative$"):
                check()

    def test_non_integer_fuel_rejected(self):
        # a fuel of 2.5 once counted down past 0 and ran omega forever, and
        # a fuel of True ran one step
        p = parse_process(OMEGA)
        for check in (lambda: settle(p, 2.5), lambda: settle(p, 2.5, {TOP}),
                      lambda: observable(p, 2.5), lambda: settled_moves(p, 2.5),
                      lambda: FinitePole.of([p]).member(p, 2.5),
                      lambda: run(ExecutionContext(p), 2.5), lambda: run(ExecutionContext(p), "3"),
                      lambda: run(ExecutionContext(p), True), lambda: settle(p, True)):
            with pytest.raises(TypeError, match="^fuel must be an integer, not (float|str|bool)$"):
                check()

    @given(st.one_of(gen.processes(), gen.silent_loops()), st.integers(0, 60), st.data())
    def test_matches_reference_loops(self, p, fuel, data):
        # Besides the drawn fuel, try the fuels at which the seed, stuck,
        # cycle and fuel rules meet, where a change of check order shows.
        chain = _silent_chain(p)
        picks = data.draw(st.lists(st.integers(0, len(chain) - 1), max_size=2))
        seeds = frozenset([chain[i] for i in picks]
                          + data.draw(st.lists(gen.processes(), max_size=2)))
        n = len(chain)
        fuels = {fuel, n - 2, n - 1, n, n + 1, *picks, *(i - 1 for i in picks)}
        for f in sorted(f for f in fuels if 0 <= f <= 60):
            got, expected = observable(p, f), reference.observable(p, f)
            assert (got.kind, got.entries) == (expected.kind, expected.entries)
            # each successor is read back on its own: equal name for name
            for label, q in (got.entries or {}).items():
                assert pretty(q) == pretty(expected.entries[label])
            got, expected = FinitePole(seeds, f).member(p), reference.finite_member(seeds, p, f)
            assert got == expected
            assert str(got.witness) == str(expected.witness)

    @given(st.one_of(gen.processes(), gen.silent_loops()))
    def test_matches_reference_settle_at_every_fuel(self, p):
        self._check_every_fuel(p, len(_silent_chain(p)) + 1)

    @pytest.mark.parametrize("text", [
        OMEGA,  # a cycle
        r"(\x. x x x) (\x. x x x) * nil",  # grows without end: fuel
        r"cc (\k. k (write0 k)) * end :: nil",  # a save, a restore, stuck with a saved stack
    ])
    def test_matches_reference_settle_on_fixed_chains(self, text):
        self._check_every_fuel(parse_process(text), 40)

    @staticmethod
    def _check_every_fuel(p, last):
        for fuel in range(last + 1):
            got, expected = settle(p, fuel), reference.settle(p, fuel)
            assert got == expected
            assert pretty(got[1]) == pretty(expected[1])


class TestSettledLabels:
    """The labels a settled process offers: `settled_moves(p, fuel)` is
    None where the reference `observable(p, fuel)` is unknown, and
    otherwise holds the menu's labels in order (none if silent), each
    with a `successor` equal to the menu's, name for name."""

    @given(st.one_of(gen.processes(), gen.silent_loops()))
    def test_matches_observable_at_every_fuel(self, p):
        self._check_every_fuel(p, len(_silent_chain(p)) + 1)

    @pytest.mark.parametrize("text", [
        "TOP",
        OMEGA,  # a cycle
        r"(\x. x x x) (\x. x x x) * nil",  # grows without end: fuel
        "read * end :: end :: nil",  # instruction heads that lack arguments
        r"(\x. read x x) end * nil",
        "write0 * nil",
        r"(\x. write1) end * nil",
        "read * end :: cc :: write0 :: nil",  # a read with exactly three entries
        r"(\x. read x x x) end * nil",
        r"(\x. read x) end * end :: end :: nil",
        r"(\x. write0 x) end * nil",
        "cc * nil",  # cc or a continuation on nil
        "kont{end :: nil} * nil",
        r"cc (\k. k) * nil",
        r"cc (\k. read k k k) * end :: nil",  # read successors holding a saved stack
    ])
    def test_matches_observable_on_fixed_chains(self, text):
        self._check_every_fuel(parse_process(text), 40)

    def test_frontier_cases(self):
        p = parse_process(r"(\x. read x x x) end * nil")  # stuck after five steps
        assert settled_moves(p, 4) is None
        moves = settled_moves(p, 5)
        assert moves[0] == (Action.R0, Action.R1, Action.REPS)
        assert [successor(moves, k) for k in range(3)] == [parse_process("end * nil")] * 3
        assert successor(settled_moves(parse_process("end * nil"), 0), 0) is TOP
        assert settled_moves(parse_process(OMEGA), 2) == ()
        assert settled_moves(TOP, 0) == ()

    def test_budget_end_needs_no_settle(self, monkeypatch):
        # a chain that reaches its last process in exactly `fuel` steps
        # takes one more loop step there; only a silent step goes to `settle`
        def no_settle(*args):
            raise AssertionError("settle was called")

        monkeypatch.setattr(machine, "settle", no_settle)
        for text, fuel, labels in [
            (r"(\x. read x x x) end * nil", 5, (Action.R0, Action.R1, Action.REPS)),
            (r"(\x. x) write0 * end :: nil", 2, (Action.W0,)),
            (r"(\x. x) end * nil", 2, (Action.E,)),
            (r"(\x. write1) end * nil", 2, None),  # stuck: a write with no argument
        ]:
            chain = _silent_chain(parse_process(text))
            assert len(chain) == fuel + 1
            moves = settled_moves(chain[0], fuel)
            assert settled_labels(moves) == (labels or ())
            if labels:
                assert [successor(moves, k) for k in range(len(labels))] == \
                    [q for _, q in reference.lts_step(chain[-1])]

    @staticmethod
    def _check_every_fuel(p, last):
        for fuel in range(last + 1):
            moves, ob = settled_moves(p, fuel), reference.observable(p, fuel)
            entries = ob.entries or {}
            expected = None if ob.kind == "unknown" else tuple(entries)
            assert settled_labels(moves) == expected, fuel
            for k, label in enumerate(entries):
                q = successor(moves, k)
                assert q == entries[label] and pretty(q) == pretty(entries[label]), fuel


class TestExecStep:
    def test_tau_defers_to_eval(self):
        before = ctx(r"(\x. x) end * nil", "01", "1")
        after = exec_step_labeled(before)
        assert after == (Action.TAU, ctx(r"(\x. x) * end :: nil", "01", "1"))

    def test_read_zero(self):
        before = ctx("read * end :: cc :: write0 :: write1 :: nil", "01", "")
        assert exec_step_labeled(before) == (Action.R0, ctx("end * write1 :: nil", "1", ""))

    def test_read_one(self):
        before = ctx("read * end :: cc :: write0 :: nil", "10", "")
        assert exec_step_labeled(before) == (Action.R1, ctx("cc * nil", "0", ""))

    def test_read_empty_input(self):
        before = ctx("read * end :: cc :: write0 :: nil", "", "1")
        assert exec_step_labeled(before) == (Action.REPS, ctx("write0 * nil", "", "1"))

    def test_write_zero_prepends(self):
        before = ctx("write0 * end :: nil", "1", "1")
        assert exec_step_labeled(before) == (Action.W0, ctx("end * nil", "1", "01"))

    def test_write_one_prepends(self):
        before = ctx("write1 * end :: nil", "", "0")
        assert exec_step_labeled(before) == (Action.W1, ctx("end * nil", "", "10"))

    def test_end_discards_stack(self):
        before = ctx("end * cc :: write0 :: nil", "10", "1")
        assert exec_step_labeled(before) == (Action.E, ExecutionContext(TOP, "10", "1"))

    def test_read_needs_three_arguments(self):
        assert exec_step(ctx("read * end :: nil", "0", "")) is None
        assert exec_step(ctx("read * end :: end :: nil", "0", "")) is None

    def test_write_needs_one_argument(self):
        assert exec_step(ctx("write0 * nil")) is None

    def test_top_is_absorbing(self):
        assert exec_step(ExecutionContext(TOP, "0", "1")) is None


class TestRun:
    def test_end_terminates_with_e(self):
        result = run(ctx("end * nil"), 10)
        assert result.outcome == "terminated"
        assert result.final == ExecutionContext(TOP, "", "")
        assert result.trace == (Action.E,)

    def test_write_pipeline(self):
        result = run(ctx("write0 (write1 end) * nil"), 10)
        assert result.outcome == "terminated"
        assert result.final.output == "10"
        assert result.trace == (Action.TAU, Action.W0, Action.TAU, Action.W1, Action.E)

    def test_omega_exhausts_fuel(self):
        result = run(ctx(r"(\x. x x) (\x. x x) * nil"), 100)
        assert result.outcome == "fuel"
        assert result.steps == 100

    def test_stuck_reports_residual(self):
        result = run(ctx("read * nil", "0"), 10)
        assert result.outcome == "stuck"
        assert result.final.input == "0"

    def test_steps_equals_trace_length(self):
        result = run(ctx("write0 (write1 end) * nil", "10"), 100)
        assert result.steps == len(result.trace)

    def test_run_from_top_is_terminated(self):
        result = run(ExecutionContext(TOP, "1", "0"), 5)
        assert result.outcome == "terminated"
        assert result.trace == ()

    def test_json_shape(self):
        payload = run(ctx("end * nil"), 10).to_json()
        assert payload == {
            "outcome": "terminated", "process": "TOP", "input": "",
            "output": "", "steps": 1, "trace": ["e"],
        }


class TestBin:
    @pytest.mark.parametrize("n,expected", [(0, ""), (1, "1"), (2, "10"), (3, "11"), (13, "1101")])
    def test_values(self, n, expected):
        assert bin_nat(n) == expected

    @given(st.integers(0, 10**6))
    def test_round_trip(self, n):
        assert nat_of_bin(bin_nat(n)) == n

    def test_nat_of_bin_rejects_leading_zero(self):
        with pytest.raises(ValueError):
            nat_of_bin("01")

    def test_errors(self):
        with pytest.raises(ValueError, match="^bin_nat is defined for naturals only$"):
            bin_nat(-1)
        with pytest.raises(ValueError, match="^not a bit string: '2'$"):
            nat_of_bin("2")
        with pytest.raises(ValueError, match="^input/output must contain only bits: '012'$"):
            ExecutionContext(parse_process("end * nil"), "012")


def implements_on(p, table, fuel):
    """Does p implement the table?  Verified covers only its rows."""
    return FunctionPole.of(table, fuel).member(p)


class TestImplementsOn:
    def test_end_implements_zero_to_zero(self):
        verdict = implements_on(parse_process("end * nil"), {0: 0}, 10)
        assert verdict.is_verified
        assert verdict.sampled  # the table's rows only, not the whole domain

    def test_unconsumed_input_refutes(self):
        verdict = implements_on(parse_process("end * nil"), {1: 1}, 10)
        assert verdict.is_refuted
        n, witness = verdict.witness
        assert n == 1
        assert witness.final.input == "1"

    def test_tiny_fuel_is_unknown(self):
        omega = parse_process(r"(\x. x x) (\x. x x) * nil")
        assert implements_on(omega, {0: 0}, 5).is_unknown

    def test_refutation_beats_unknown(self):
        # row 0 diverges (unknown), row 1 terminates wrong: refuted overall
        r = parse_process(r"read * end :: end :: ((\x. x x) (\x. x x)) :: nil")
        assert implements_on(r, {0: 0}, 1000).is_unknown
        verdict = implements_on(r, {0: 0, 1: 1}, 1000)
        assert verdict.is_refuted
        assert verdict.witness[0] == 1


class TestDeterminism:
    def test_clauses_never_overlap(self):
        rng = random.Random(7)
        for _ in range(300):
            c = gen.random_context(rng)
            matched = gen.matching_clauses(c)
            assert len(matched) <= 1, (str(c), matched)
            step = exec_step_labeled(c)
            if matched:
                assert step is not None and step[0] == matched[0]
            else:
                assert step is None

    @given(gen.contexts())
    def test_exec_step_agrees_with_clause_analysis(self, c):
        matched = gen.matching_clauses(c)
        assert len(matched) <= 1
        step = exec_step_labeled(c)
        assert (step is None) == (not matched)

    @given(gen.processes())
    def test_conservativity_over_eval(self, p):
        q = eval_step(p)
        if q is not None:
            for inp, out in (("", ""), ("10", "1")):
                assert exec_step(ExecutionContext(p, inp, out)) == ExecutionContext(q, inp, out)


class TestRunProperties:
    @given(gen.contexts(), st.integers(0, 60))
    def test_output_grows_input_shrinks(self, c, fuel):
        previous = c
        for _ in range(fuel):
            step = exec_step(previous)
            if step is None:
                break
            assert step.output.endswith(previous.output)
            assert len(step.output) - len(previous.output) in (0, 1)
            assert previous.input.endswith(step.input)
            assert len(previous.input) - len(step.input) in (0, 1)
            previous = step

    @given(gen.contexts(), st.integers(0, 40), st.integers(0, 40))
    def test_fuel_monotonicity(self, c, fuel, extra):
        first = run(c, fuel)
        if first.outcome == "terminated":
            second = run(c, fuel + extra)
            assert second.outcome == "terminated"
            assert second.final == first.final
            assert second.trace == first.trace


COPY_LOOP = Pair(Y, stack_of(parse_term(r"\x. read (write0 x) (write1 x) end")))


class TestAgainstReference:
    """The closure machine matches the substitution machine's
    hand-written rules (tests/reference_machine.py) on outcome, final
    context and trace."""

    @given(gen.contexts())
    def test_exec_step_labeled(self, c):
        assert exec_step_labeled(c) == reference.exec_step_labeled(c)

    @given(gen.contexts(), st.integers(0, 60))
    def test_run_on_random_contexts(self, c, fuel):
        assert run(c, fuel) == reference.run(c, fuel)

    @pytest.mark.parametrize("length", [0, 1, 2, 7, 64, 333, 1000])
    def test_run_copy_loop(self, length):
        rng = random.Random(length)
        bits = "".join(rng.choice("01") for _ in range(length))
        c = ExecutionContext(COPY_LOOP, bits, "")
        result = run(c)
        assert result.terminated and result.final.output == bits[::-1]
        assert result == reference.run(c)

    @pytest.mark.parametrize("program, bits", [
        *(pytest.param(compile_function(t), bin_nat(n), id=f"{name}-bin{n}")
          for name, t in (("id", parse_term(r"\x. x")), ("S", S), ("B", B), ("H", H))
          for n in range(13)),
        *(pytest.param(Pair(App(W, church_numeral(n)), stack_of()), "", id=f"W-#{n}")
          for n in range(13)),
    ])
    def test_compiled_programs(self, program, bits):
        c = ExecutionContext(program, bits, "")
        full = run(c)
        assert full.terminated and full == reference.run(c)
        for fuel in (full.steps, full.steps - 1):
            assert run(c, fuel) == reference.run(c, fuel)

    @given(gen.contexts())
    def test_fuel_set_to_the_last_step(self, c):
        full = run(c, 200)
        if full.outcome == "fuel":
            return
        for fuel in {full.steps, max(full.steps - 1, 0)}:
            assert run(c, fuel) == reference.run(c, fuel)
        assert run(c, full.steps) == full


def assert_every_prefix(c, fuel):
    """For each k up to the steps of a run with `fuel`, the closure
    machine's run(c, k), read back, is the substitution machine's."""
    for k in range(run(c, fuel).steps + 1):
        got, expected = run(c, k), reference.run(c, k)
        assert got == expected
        assert pretty(got.final.process) == pretty(expected.final.process)


COMPILED_PROGRAMS = [
    pytest.param(compile_function(parse_term(r"\x. x")), "1", id="id-bin1"),
    pytest.param(compile_function(S), "", id="S-bin0"),
    pytest.param(compile_function(B), "1", id="B-bin1"),
    pytest.param(compile_function(H), "10", id="H-bin2"),
    pytest.param(Pair(App(W, church_numeral(2)), stack_of()), "", id="W-#2"),
    pytest.param(COPY_LOOP, "0110", id="copy-0110"),
]


def assert_read_back_matches_reference(p, bits, limit=62):
    """Wherever `_iterate` stops p, with `bits` as input and without input,
    at every fuel up to the steps of p's silent chain or run (at most
    `limit`) plus one, `_read_back` builds the process the reference
    `_read_back` builds.  A stack cell whose saved continuation is the
    cell's own rest reads back, on both sides, to a `Kont` that holds the
    read-back tail itself.  Returns how many such cells were met."""
    hits = 0
    for source in (None, bits):
        last = _iterate(p.term, None, p.stack, limit, source)[4]
        for fuel in range(last + 2):
            outcome, t, env, s = _iterate(p.term, None, p.stack, fuel, source)[:4]
            if outcome == "terminated":
                continue
            got, expected = _read_back(t, env, s), reference._read_back(t, env, s)
            assert got == expected
            assert pretty(got) == pretty(expected)
            for q in (got, expected):
                cell, entries = s, q.stack
                while cell.__class__ is tuple:
                    saved = cell[0][0]
                    if type(saved) is Kont and cell[0][1] is None and saved.stack is cell[1]:
                        assert entries.head.stack is entries.tail
                        hits += q is got
                    cell, entries = cell[1], entries.tail
    return hits


def assert_eval_step_matches_reference(p):
    """`eval_step` gives the substitution machine's step, name for name;
    returns whether p has one."""
    got, expected = eval_step(p), reference.eval_step(p)
    assert got == expected
    if expected is not None:
        assert pretty(got) == pretty(expected)
    return expected is not None


class TestClosureMachine:
    """`run` is a closure machine; what it reads back after any number of
    steps is the process the substitution machine reaches."""

    @given(gen.contexts(), st.integers(0, 60))
    def test_every_prefix_on_random_contexts(self, c, fuel):
        assert_every_prefix(c, fuel)

    @pytest.mark.parametrize("program, bits", COMPILED_PROGRAMS)
    def test_every_prefix_on_compiled_programs(self, program, bits):
        assert_every_prefix(ExecutionContext(program, bits, ""), DEFAULT_FUEL)

    @given(st.one_of(gen.processes(), gen.silent_loops()), st.text("01", max_size=4))
    def test_read_back_matches_reference(self, p, bits):
        if p is not TOP:
            assert_read_back_matches_reference(p, bits)

    @pytest.mark.parametrize("program, bits", COMPILED_PROGRAMS)
    def test_read_back_matches_reference_on_compiled_programs(self, program, bits):
        assert_read_back_matches_reference(program, bits, DEFAULT_FUEL)

    @pytest.mark.parametrize("text", [
        r"(\x. cc (\k. k) x) end * nil",
        r"cc (\k. k (write0 k)) * end :: nil",
        r"(\x. cc (\k. k x) x) (\y. y) * end :: nil",
    ])
    def test_read_back_keeps_saved_stacks_shared(self, text):
        assert assert_read_back_matches_reference(parse_process(text), "") > 0

    @given(st.one_of(gen.processes(), gen.silent_loops()))
    def test_eval_step_matches_reference(self, p):
        assert_eval_step_matches_reference(p)
        assert lts_step(p) == reference.lts_step(p)

    @pytest.mark.parametrize("program, bits", COMPILED_PROGRAMS)
    def test_eval_step_matches_reference_on_compiled_programs(self, program, bits):
        # at every state of the run, silent or visible
        c, silent = ExecutionContext(program, bits), 0
        while c.process is not TOP:
            silent += assert_eval_step_matches_reference(c.process)
            c = reference.exec_step_labeled(c)[1]
        assert silent > 0

    @given(st.one_of(gen.processes(), gen.silent_loops()))
    def test_eval_step_is_one_silent_run_step(self, p):
        result = run(ExecutionContext(p), 1)
        q = eval_step(p)
        if result.trace == (Action.TAU,):
            assert q == result.final.process
            assert pretty(q) == pretty(result.final.process)
        else:
            assert q is None

    @given(st.sampled_from((READ, WRITE0, WRITE1, END)), gen.stacks())
    def test_lts_step_on_instruction_heads(self, head, stack):
        p = Pair(head, stack)
        got, expected = lts_step(p), reference.lts_step(p)
        assert got == expected
        assert [pretty(q) for _, q in got] == [pretty(q) for _, q in expected]

    def test_saved_stack_is_shared_after_read_back(self):
        # push end, pop x, push x, push \k. k, then cc saves the cell for x
        c = ctx(r"(\x. cc (\k. k) x) end * nil")
        result = run(c, 5)
        assert result.trace == (Action.TAU,) * 5
        stack = result.final.process.stack
        assert pretty(result.final.process) == r"\k. k * kont{end :: nil} :: end :: nil"
        assert stack.head.stack is stack.tail

    def test_deep_numeral_runs_and_reads_back(self):
        # the run ends at TOP without reading back; a cut run reads back
        # a 2,000-deep body
        assert decode_numeral(church_numeral(2000)) == 2000
        c = ExecutionContext(Pair(church_numeral(2000), stack_of(END, END)))
        result = run(c, 1)
        body = Var("x")
        for _ in range(2000):
            body = App(END, body)
        assert result.outcome == "fuel"
        assert result.final.process == Pair(Abs("x", body), stack_of(END))


def reference_walk(c, fuel):
    """The reference's run of c at `fuel`, walked once by
    `reference.exec_step_labeled`: (contexts, actions, outcome), with at
    most `fuel` actions.  `walked_run` reads its run at any fuel up to
    `fuel` off the walk, so a check at every fuel costs one reference
    walk, not one reference run per fuel."""
    contexts, actions = [c], []
    while len(actions) < fuel and contexts[-1].process is not TOP:
        step = reference.exec_step_labeled(contexts[-1])
        if step is None:
            break
        actions.append(step[0])
        contexts.append(step[1])
    outcome = ("terminated" if contexts[-1].process is TOP
               else "stuck" if reference.exec_step_labeled(contexts[-1]) is None else "fuel")
    walk = contexts, actions, outcome
    assert walked_run(walk, fuel)[0] == reference.run(c, fuel)
    return walk


def walked_run(walk, fuel):
    """(`reference.run(c, fuel)`, `reference.run_trace(c, fuel)`'s trace)
    for the walk of c: the run stops at the walk's context number `fuel`,
    or at its last, and says "fuel" before the walk's last step."""
    contexts, actions, outcome = walk
    n = len(actions)
    assert fuel <= n or outcome != "fuel", "the walk stops short of this fuel"
    trace = tuple(actions[:fuel])
    visible = tuple((i, a) for i, a in enumerate(trace) if a is not Action.TAU)
    return RunResult(outcome if fuel >= n else "fuel", contexts[len(trace)], len(trace),
                     visible), trace


def assert_iterate_matches_reference(p, bits, limit=200):
    """At every fuel from 0 to the steps of p's chain (at most `limit`)
    plus one, with `bits` as input and without input, `assert_same_stop`,
    with the reference's runs on `bits` taken from one walk."""
    for source in (None, bits):
        last = reference._iterate(p, limit, source)[4]
        walk = None if source is None else reference_walk(ExecutionContext(p, source), last + 1)
        for fuel in range(last + 2):
            assert_same_stop(p, fuel, source, walk)


def assert_same_stop(p, fuel, source, walk=None):
    """`_iterate` stops where the loop it replaced stops
    (`reference._iterate`): the same outcome, steps, visible steps and
    bits read, and a state that reads back to the same process, name for
    name.  Two outcomes are mapped: where the reference is stuck after
    `fuel` steps, `_iterate` says "fuel", and it says "stuck" only after
    fewer steps; where the reference, without input, is stuck at an
    instruction head that has its arguments, `_iterate` says "moves",
    with the reference `_effect`'s moves in the visible slot
    (`assert_same_moves`), and the state it stopped at unpopped.  The
    public results at that fuel still say "stuck" there: `run` matches
    the reference `run` given `source`, read off `walk` (walked here if
    None), and without it `settle` matches the reference `settle` and
    the labels of `settled_moves` the reference `observable`; the trace
    `run` builds, its step count and its visible trace are the reference
    trace's."""
    got = _iterate(p.term, None, p.stack, fuel, source)
    expected = reference._iterate(p, fuel, source)
    if got[0] != "terminated":
        gen.assert_no_mark(got[3])
    outcome = expected[0]
    if outcome == "stuck" and expected[4] == fuel:
        outcome = "fuel"
    elif outcome == "stuck" and source is None and reference._effect(expected[1], expected[3]):
        outcome = "moves"
    if got[0] == "moves":
        assert_same_moves(got[5], got[1], got[3])
        got = (*got[:5], [], got[6])  # the evaluation relation notes no visible step
    assert (got[0], *got[4:]) == (outcome, *expected[4:]), (pretty(p), fuel, source)
    assert got[0] not in ("stuck", "moves") or got[4] < fuel
    if expected[0] != "terminated":
        got, expected = _read_back(*got[1:4]), reference._read_back(*expected[1:4])
        assert got == expected
        assert gen.same_names(got, expected)
    if source is not None:
        c = ExecutionContext(p, source)
        expected, trace = walked_run(walk or reference_walk(c, fuel), fuel)
        got = run(c, fuel)
        assert got == expected, (pretty(p), fuel, source)
        assert gen.same_names(got.final.process, expected.final.process)
        assert got.trace == trace and got.steps == len(trace)
        assert got.visible_trace() == tuple([a for a in trace if a is not Action.TAU])
        return
    got, expected = settle(p, fuel), reference.settle(p, fuel)
    assert got == expected, (pretty(p), fuel)
    assert gen.same_names(got[1], expected[1])
    ob = reference.observable(p, fuel)
    assert settled_labels(settled_moves(p, fuel)) == \
        (None if ob.kind == "unknown" else tuple(ob.entries or ()))


def assert_same_moves(moves, t, s):
    """`moves`, the (labels, closures, rest) that `_iterate` gives back
    where it stops at head t on closure stack s, are the reference
    `_effect`'s (action, closure, rest) triples on that state: one of the
    four label tuples, each closure equal, and the rest the very object
    the reference pops to."""
    expected = reference._effect(t, s)
    labels, closures, rest = moves
    assert any(labels is c for c in (_READS, _WRITES0, _WRITES1, _ENDS))
    assert len(labels) == len(closures) == len(expected) > 0
    for action, closure, (ref_action, ref_closure, ref_rest) in zip(labels, closures, expected):
        assert action is ref_action
        assert closure == ref_closure
        assert rest is ref_rest


ITERATE_EDGE_CASES = [
    r"(\x. x) read * end :: end :: nil",  # a variable head that resolves to read, two entries
    r"(\x. x end end) read * nil",  # the same on pushed closures
    r"(\x. x end end) write0 * nil",  # a variable head that resolves to a write
    "cc * nil",
    "kont{end :: nil} * nil",
    r"cc (\k. k) * nil",  # a saved continuation on the empty stack
    r"cc (\k. k end) * nil",  # a saved continuation restored
    "read end end end * nil",  # an instruction head: moves with no input source
    # reads with 0 to 3 entries, split between closure cells (pushed
    # arguments) and a `Stack` tail: one that lacks an entry is stuck,
    # paused or not
    "read * nil",
    "read * end :: nil",
    "read end * nil",
    "read * end :: end :: nil",
    "read end * end :: nil",
    "read end end * nil",
    "read end end * end :: nil",
    "read * end :: end :: end :: nil",
    # writes and ends on an empty stack, on closure cells and on a
    # `Stack`; end discards the stack in one counted step
    "write1 * nil",
    "write0 * nil",
    "write0 end * nil",
    "write1 * end :: nil",
    "end * nil",
    "end * end :: nil",
    "end end * nil",
    r"end * (\x. x) :: end :: nil",
    r"\x. x * nil",
    OMEGA,
]


# A variable bound to an application (a thunk) whose evaluation reads a
# bit, writes a bit, runs `cc` or restores a continuation before it
# reaches its value, and which is entered again: that evaluation may not
# be replayed.
THUNK_EFFECT_CASES = [
    pytest.param(r"(\x. x (x end)) (read (\y. y) (\y. y) (\y. y)) * nil", "01", id="reads"),
    pytest.param(r"(\x. x (x end)) (write0 (\y. y)) * nil", "", id="writes"),
    pytest.param(r"(\x. x (x end)) (cc (\k. k (\y. y))) * nil", "", id="saves"),
    pytest.param(r"(\x. x (x end)) ((\y. y) kont{nil}) * nil", "", id="restores"),
]

DOUBLE = parse_term(resolve_names(r"\n. n (\m. S (S m)) #0", prelude_definitions(PRELUDE_SOURCE)))


def assert_pause_matches_reference(p, fuel):
    """With `pause` set and no input, `_iterate` stops as "input" at the
    first read that has its three entries, where the reference takes
    its first REPS step, with the visible steps before it and that read
    unpopped.  A run that takes no REPS step within `fuel` stops where
    the reference stops, as `assert_same_stop` maps it: a read that
    lacks an entry is "stuck", not "input"."""
    got = _iterate(p.term, None, p.stack, fuel, "", True)
    expected = reference._iterate(p, fuel, "")
    first = next((i for i, action in expected[5] if action is Action.REPS), None)
    if first is None:
        outcome = expected[0]
        if outcome == "stuck" and expected[4] == fuel:
            outcome = "fuel"
    else:
        expected = reference._iterate(p, first, "")
        outcome = "input"
        assert got[1] is READ
    assert (got[0], *got[4:]) == (outcome, *expected[4:]), (pretty(p), fuel)
    if outcome != "terminated":
        gen.assert_no_mark(got[3])
        assert _read_back(*got[1:4]) == reference._read_back(*expected[1:4])


def assert_run_matches_reference_at_every_fuel(c, names):
    """`run(c, k)` is the reference run at fuel k, for every k up to the
    steps of c's run plus one, and with `names` its final process prints
    as the reference's.  The reference is walked once (`reference_walk`),
    so each fuel costs one `run`, not a reference run too: a reference
    run per fuel took 5 to 15 s on each of these runs of 900 to 1,900
    steps."""
    walk = reference_walk(c, DEFAULT_FUEL)
    for k in range(len(walk[1]) + 2):
        expected = walked_run(walk, k)[0]
        got = run(c, k)
        assert got == expected, (pretty(c.process), c.input, k)
        if names:
            assert pretty(got.final.process) == pretty(expected.final.process)


class TestIterate:
    """`_iterate`, a loop over `range(fuel)` with no stuck test after it,
    against the loop it replaced, and `run`, `settle` and
    `settled_moves`, which say "stuck" at the budget's end, against
    their oracles.  Compiled programs enter thunks again and again, so
    there `_iterate` replays evaluations it has recorded."""

    @given(st.one_of(gen.processes(), gen.silent_loops()), st.text("01", max_size=4))
    def test_matches_reference_at_every_fuel(self, p, bits):
        if p is not TOP:
            assert_iterate_matches_reference(p, bits)

    @given(gen.contexts())
    def test_matches_reference_on_random_contexts(self, c):
        if c.process is not TOP:
            assert_iterate_matches_reference(c.process, c.input)

    @pytest.mark.parametrize("text", ITERATE_EDGE_CASES)
    def test_matches_reference_on_edge_cases(self, text):
        p = parse_process(text)
        for bits in ("", "0", "1"):
            assert_iterate_matches_reference(p, bits, 40)
        for fuel in range(reference._iterate(p, 40, "")[4] + 2):
            assert_pause_matches_reference(p, fuel)

    @pytest.mark.parametrize("program, bits", COMPILED_PROGRAMS + [
        pytest.param(COPY_LOOP, "0000", id="copy-all-zero"),
        pytest.param(COPY_LOOP, "1111", id="copy-all-one"),
        # reads one of four bits, writes its complement and ends
        pytest.param(parse_process("read (write1 end) (write0 end) end * nil"), "0110",
                     id="reads-one-of-four"),
        pytest.param(compile_function(B), "11", id="B-bin3"),
    ])
    def test_matches_reference_on_compiled_programs(self, program, bits):
        assert_iterate_matches_reference(program, bits, DEFAULT_FUEL)
        c = ExecutionContext(program, bits)
        assert run(c) == reference.run(c)

    @pytest.mark.parametrize("program, n", [
        pytest.param(compile_function(t), n, id=f"{name}-bin{n}")
        for name, t in (("B", B), ("C", C), ("double", DOUBLE)) for n in (3, 4, 5)])
    def test_replayed_runs_match_reference_at_every_fuel(self, program, n):
        # some replays end exactly at the budget and some would overrun it
        assert_run_matches_reference_at_every_fuel(ExecutionContext(program, bin_nat(n)),
                                                   names=n == 3)

    @pytest.mark.parametrize("text, bits", THUNK_EFFECT_CASES)
    def test_thunk_evaluations_with_effects_match_reference(self, text, bits):
        for source in {"", "0", "1", bits}:
            assert_iterate_matches_reference(parse_process(text), source)

    def test_tail_called_thunks_keep_memory_flat(self):
        # each entry of a thunk here is the tail call of the one before,
        # so the first entry's mark stands for all of them
        c = ExecutionContext(Pair(Y, stack_of(parse_term(r"\x. x"))))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = run(c, 200_000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert (result.outcome, result.steps) == ("fuel", 200_000)
        assert peak < 1_000_000

    @pytest.mark.parametrize("text", [t for t in ITERATE_EDGE_CASES if t != OMEGA])
    def test_fuel_above_maxsize(self, text):
        p = parse_process(text)
        for source in (None, "01"):
            assert_same_stop(p, 2**70, source)
        c = ExecutionContext(p, "01")
        assert run(c, 2**70) == reference.run(c, 2**70)

    def test_long_copy_at_fuel_above_maxsize(self):
        bits = "".join(random.Random(2048).choice("01") for _ in range(2048))
        assert_same_stop(COPY_LOOP, 2**70, bits)
        c = ExecutionContext(COPY_LOOP, bits)
        result = run(c, 2**70)
        assert result == reference.run(c, 2**70)
        assert result.final.output == bits[::-1]


# The stacks every small process runs on: the empty stack, each closed
# term of at most two nodes alone, and each pair of constants.
SMALL_STACKS = [EMPTY, *[stack_of(t) for n in (1, 2) for t in gen.all_terms(n)],
                *[stack_of(a, b) for a in gen.all_terms(1) for b in gen.all_terms(1)]]


class TestEverySmallProcess:
    """Every closed term of at most five nodes (`gen.all_terms`: 645 of
    them, `cc end write0` among them, whose save reads back a pushed
    cell) on each of the 37 `SMALL_STACKS`, against the oracles: `run` on
    four inputs, the labels of `settled_moves`, and `settle`, each at
    fuel 60 and name for name, and `parse_term(pretty(t)) == t`."""

    @pytest.mark.parametrize("size", range(1, 6))
    def test_matches_reference(self, size):
        assert len(SMALL_STACKS) == 37
        for t in gen.all_terms(size):
            parsed = parse_term(pretty(t))
            assert parsed == t and gen.same_names(parsed, t)
            for stack in SMALL_STACKS:
                p = Pair(t, stack)
                for bits in ("", "0", "1", "01"):
                    c = ExecutionContext(p, bits)
                    got, expected = run(c, 60), reference.run(c, 60)
                    assert got == expected, (pretty(p), bits)
                    assert gen.same_names(got.final.process, expected.final.process)
                ob = reference.observable(p, 60)
                assert settled_labels(settled_moves(p, 60)) == \
                    (None if ob.kind == "unknown" else tuple(ob.entries or ())), pretty(p)
                got, expected = settle(p, 60), reference.settle(p, 60)
                assert got == expected and gen.same_names(got[1], expected[1]), pretty(p)


def closure_stacks():
    """Closure stacks of 0 to 4 entries: for each split, the top entries
    as (closure, rest) cells over a plain `Stack` of the others."""
    entries = [parse_term(text) for text in (r"\x. x", "end", "write0 end", "cc")]
    env = ("y", (END, None), None)
    for n in range(5):
        for cells in range(n + 1):
            s = stack_of(*entries[cells:n])
            for term in reversed(entries[:cells]):
                s = (term, env), s
            yield s


class TestEffect:
    """The read, write and end rules, now in `_iterate`'s instruction
    branch: one step without input gives a head's moves back, one label
    tuple and one tuple of closures, against the `_effect` that built an
    (action, closure, rest) triple for every move."""

    @pytest.mark.parametrize("head", [END, WRITE0, WRITE1, READ, parse_term(r"\x. x")],
                             ids=pretty)
    def test_matches_reference(self, head):
        for s in closure_stacks():
            got, expected = _iterate(head, None, s, 1, None), reference._effect(head, s)
            if got[0] != "moves":
                assert expected == ()
                continue
            _, t, env, stopped, steps, moves, read = got
            assert (t, env, steps, read) == (head, None, 0, 0)
            assert stopped is s  # the state it stopped at, unpopped
            assert_same_moves(moves, head, s)


# The instructions and the label tuples of their moves: what only the
# read, write and end rules read.
RULE_NAMES = {"READ", "WRITE0", "WRITE1", "END", "_READS", "_WRITES0", "_WRITES1", "_ENDS"}


def test_visible_rules_live_in_iterate():
    # the read, write and end rules are written once, in `_iterate`: no
    # other code in the module reads an instruction or a label tuple
    tree = ast.parse(Path(machine.__file__).read_text(encoding="utf-8"))
    homes = {id(node) for home in tree.body for node in ast.walk(home)
             if isinstance(home, ast.FunctionDef) and home.name == "_iterate"
             or isinstance(home, ast.Assign) and ast.unparse(home.targets[0]) == "_LOOP_GLOBALS"}
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load) and node.id in RULE_NAMES]
    found = [f"src/kamio/machine.py:{node.lineno}: {node.id}"
             for node in reads if id(node) not in homes]
    assert not found, "a visible rule outside `_iterate`:\n" + "\n".join(found)
    assert {node.id for node in reads} == RULE_NAMES


def test_iterate_has_four_callers():
    # one step has one home: `eval_step` is `lts_step`'s silent move and
    # `exec_step_labeled` reads `run(c, 1)`, so neither calls the loop
    tree = ast.parse(Path(machine.__file__).read_text(encoding="utf-8"))
    callers = {home.name: sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                              and node.func.id == "_iterate" for node in ast.walk(home))
               for home in tree.body if isinstance(home, ast.FunctionDef)}
    assert {name: n for name, n in callers.items() if n} == \
        {"lts_step": 1, "_settled": 2, "run": 2, "_resume": 2}
