import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import gen
import reference_machine as reference
from kamio.combinators import R as READER
from kamio.combinators import B, F, S, W, Y, compile_function
from kamio.equivalence import weak_bisim
from kamio.machine import (
    Action, ExecutionContext, _resume, _runs_on_inputs, bin_nat, eval_step,
    nat_of_bin, run, settle,
)
from kamio.realizability import (
    COPY, ContextEntry, FinitePole, FunctionPole, IDENTITY, Predicate,
    READ_ALL_THEN_WRITE, RealizerList, Sequent, TracePole, UnionPole,
    _conforms, all_inputs, check_entailment, consistency_probe, contract, exchange,
    falsity_sample, forall_along, implication, modus_ponens, pole_from_json,
    realizes, reindex, run_scenario, scenario_from_json, trace_conforms,
    TruthValue, weaken,
)
from kamio.syntax import (
    Abs, App, CALLCC, EMPTY, END, Kont, NotProofLike, Pair, READ, TOP, WRITE0, WRITE1,
    church_numeral, effect_constants, parse_process, parse_stack, parse_term, stack_of,
)
from kamio.verdict import Verdict

FST = parse_term(r"\u. \v. u")
COPY_PROCESS = Pair(Y, stack_of(parse_term(r"\x. read (write0 x) (write1 x) end")))


def finite_pole(*seed_texts, fuel=5000):
    return FinitePole.of([parse_process(s) for s in seed_texts], fuel)


class TestFinitePole:
    def test_seed_is_member(self):
        pole = finite_pole("end * nil")
        assert pole.member(parse_process("end * nil")).is_verified

    def test_predecessors_are_members(self):
        pole = finite_pole("end * nil")
        assert pole.member(parse_process(r"(\x. x) end * nil")).is_verified

    def test_stuck_chain_refuted(self):
        pole = finite_pole("end * nil")
        verdict = pole.member(parse_process(r"(\x. x) * nil"))
        assert verdict.is_refuted

    def test_cycling_chain_refuted(self):
        pole = finite_pole("end * nil")
        assert pole.member(parse_process(r"(\x. x x) (\x. x x) * nil")).is_refuted

    def test_fuel_exhaustion_unknown(self):
        pole = finite_pole("end * nil", fuel=1)
        grower = parse_process(r"(\x. x x x) (\x. x x x) * nil")
        assert pole.member(grower).is_unknown

    @given(gen.processes())
    def test_saturation(self, q):
        # if q is a member, any one-step predecessor is a member at fuel + 1
        if not isinstance(q, Pair):
            return
        pole = FinitePole.of([q], fuel=50)
        pop_predecessor = Pair(Abs("w", q.term), q.stack.push(END))
        assert eval_step(pop_predecessor) == q
        assert pole.member(pop_predecessor, 51).is_verified
        if not q.stack.is_empty:
            push_predecessor = Pair(App(q.term, q.stack.head), q.stack.tail)
            assert eval_step(push_predecessor) == q
            assert pole.member(push_predecessor, 51).is_verified


class TestFunctionPole:
    def test_compiled_identity_is_member(self):
        pole = FunctionPole.of({n: n for n in range(5)})
        verdict = pole.member(compile_function(IDENTITY))
        assert verdict.is_verified
        assert verdict.sampled  # finite table only

    def test_end_not_member_of_identity(self):
        pole = FunctionPole.of({1: 1})
        assert pole.member(parse_process("end * nil")).is_refuted

    def test_end_member_of_zero_only_table(self):
        pole = FunctionPole.of({0: 0})
        assert pole.member(parse_process("end * nil")).is_verified

    def test_empty_table_rejected(self):
        # a pole over no rows once verified every process, omega included
        with pytest.raises(ValueError, match="^function pole table has no rows$"):
            FunctionPole.of({})

    @pytest.mark.parametrize("table, error, message", [
        ((), ValueError, "function pole table has no rows"),
        (((0, -1),), ValueError, "function pole table row 0: naturals required"),
        (((1, 1), (2, -3)), ValueError, "function pole table row 2: naturals required"),
        (((-1, 0),), ValueError, "function pole table row -1: naturals required"),
        (((0, 0.5),), TypeError, "function pole table rows must be integers, got (0, 0.5)"),
        (((1.0, 1),), TypeError, "function pole table rows must be integers, got (1.0, 1)"),
        (((True, 1),), TypeError, "function pole table rows must be integers, got (True, 1)"),
        (((0, False),), TypeError, "function pole table rows must be integers, got (0, False)"),
        (((1, 1), (1, 2)), ValueError, "function pole table names input 1 twice"),
        (((1, 1), (0, 0)), ValueError, "function pole table input 0 comes after 1"),
    ], ids=["empty", "negative-output", "negative-later", "negative-input", "float-output",
            "float-input", "bool-input", "bool-output", "duplicate", "out-of-order"])
    def test_bad_table_rejected(self, table, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            FunctionPole(table)


@st.composite
def near_conforming(draw):
    """An input of at most 3 bits and a process that follows, whatever bits
    it reads, the reads and writes one discipline expects on that input,
    with up to two actions inserted or deleted."""
    bits = draw(st.text("01", max_size=3))
    write = {"0": WRITE0, "1": WRITE1}
    if draw(st.sampled_from((COPY, READ_ALL_THEN_WRITE))) == COPY:
        script = [op for bit in bits for op in (READ, write[bit])] + [READ]
    else:
        script = ([READ] * (len(bits) + draw(st.integers(1, 2)))
                  + [write[bit] for bit in reversed(bits)])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(script)))
        op = draw(st.sampled_from((READ, WRITE0, WRITE1, None)))
        if op is None:
            del script[i:i + 1]
        else:
            script.insert(i, op)
    t = END
    for op in reversed(script):
        t = App(App(App(READ, t), t), t) if op is READ else App(op, t)
    return Pair(t, EMPTY), bits


class TestTracePole:
    def test_copy_process_in_copy_pole(self):
        pole = TracePole(COPY, max_input_len=4, fuel=100_000)
        verdict = pole.member(COPY_PROCESS)
        assert verdict.is_verified

    def test_end_refuted_by_copy_on_nonempty_input(self):
        pole = TracePole(COPY, max_input_len=2, fuel=1000)
        assert pole.member(parse_process("end * nil")).is_refuted

    def test_copy_trace_shape(self):
        verdict = trace_conforms(COPY, COPY_PROCESS, "101", 100_000)
        assert verdict.is_verified

    def test_read_all_then_write_on_canonical_inputs(self):
        # the echo pipeline conforms on every canonical bin(n) input
        echo = Pair(READER, stack_of(F, W, church_numeral(0)))
        for n in range(9):
            verdict = trace_conforms(READ_ALL_THEN_WRITE, echo, bin_nat(n), 10**6)
            assert verdict.is_verified, (n, verdict)

    def test_read_all_then_write_refutes_on_leading_zero(self):
        # leading zeros are not canonical numerals: the echo pipeline
        # writes back the value, not the raw string
        echo = Pair(READER, stack_of(F, W, church_numeral(0)))
        verdict = trace_conforms(READ_ALL_THEN_WRITE, echo, "0", 10**6)
        assert verdict.is_refuted
        pole = TracePole(READ_ALL_THEN_WRITE, max_input_len=1, fuel=10**6)
        assert pole.member(echo).is_refuted

    def test_copy_process_violates_read_all_then_write(self):
        pole = TracePole(READ_ALL_THEN_WRITE, max_input_len=2, fuel=10_000)
        assert pole.member(COPY_PROCESS).is_refuted

    @settings(max_examples=300)
    @given(st.one_of(st.tuples(gen.processes(), st.text("01", max_size=3)), near_conforming()),
           st.sampled_from((COPY, READ_ALL_THEN_WRITE)), st.integers(0, 200))
    def test_matches_reference(self, run_on, spec, fuel):
        p, input_bits = run_on
        assert (trace_conforms(spec, p, input_bits, fuel)
                == reference.trace_conforms(spec, p, input_bits, fuel))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_input_len must be non-negative"):
            TracePole(COPY, max_input_len=-1)
        with pytest.raises(ValueError, match="max_input_len must be non-negative"):
            pole_from_json({"kind": "trace", "spec": "copy", "max_input_len": -1})
        with pytest.raises(ValueError, match="unknown trace discipline"):
            TracePole("echo")

    @pytest.mark.parametrize("max_input_len", [2.5, "3", None, True])
    def test_non_integer_max_input_len_rejected(self, max_input_len):
        # 2.5 built a pole whose `member` raised from `range`; "3" failed
        # with a bare comparison error; True checked inputs up to one bit
        with pytest.raises(TypeError, match="^max_input_len must be an integer, got "):
            TracePole(COPY, max_input_len)

    @pytest.mark.parametrize("process", [
        r"(\x. x x) (\x. x x) * nil",  # runs out of fuel
        r"(\x. x) * nil",  # gets stuck
        "end * nil",  # terminates
    ])
    def test_unknown_discipline_rejected_before_running(self, process):
        with pytest.raises(ValueError, match="^unknown trace discipline 'bogus'$"):
            trace_conforms("bogus", parse_process(process), "", 50)

    def test_all_inputs_enumeration(self):
        inputs = list(all_inputs(3))
        assert len(inputs) == 1 + 2 + 4 + 8
        assert inputs[0] == ""
        assert len(set(inputs)) == len(inputs)

    @pytest.mark.parametrize("max_input_len", [0, 2])
    @pytest.mark.parametrize("fuel, error", [(-1, ValueError), (1.5, TypeError), (True, TypeError)])
    def test_bad_member_fuel_rejected_before_running(self, max_input_len, fuel, error):
        # the fuel is checked as `run` checks it, even with one input only
        pole = TracePole(COPY, max_input_len)
        with pytest.raises(error, match="^fuel must be "):
            pole.member(COPY_PROCESS, fuel)
        with pytest.raises(error, match="^fuel must be "):
            pole.member(TOP, fuel)

    @settings(max_examples=150)
    @given(st.one_of(gen.processes(), near_conforming().map(lambda run_on: run_on[0])),
           st.sampled_from((COPY, READ_ALL_THEN_WRITE)), st.integers(0, 3), st.integers(0, 200))
    def test_member_matches_reference_on_every_input(self, p, spec, max_input_len, fuel):
        assert TracePole(spec, max_input_len).member(p, fuel) == Verdict.all_of(
            (reference.trace_conforms(spec, p, bits, fuel) for bits in all_inputs(max_input_len)),
            sampled=True)

    def test_member_stops_at_the_first_refutation(self):
        # a walk over all 2**41 - 1 inputs would not return
        swap = Pair(Y, stack_of(parse_term(r"\x. read (write1 x) (write0 x) end")))
        verdict = TracePole(COPY, 40).member(swap)
        assert verdict.is_refuted and verdict.witness[0] == "0"


def runs_one_by_one(p, max_input_len, fuel):
    """What `_runs_on_inputs` yields, from one `run` per input."""
    return [(bits, r.outcome, r.visible_trace()) for bits in all_inputs(max_input_len)
            for r in [run(ExecutionContext(p, bits), fuel)]]


# A copy loop that saves the stack with `cc` before each read and writes
# through the saved continuation, so every paused read holds a `Kont`.
CC_COPY = Pair(Y, stack_of(parse_term(r"\x. cc (\k. read (k (write0 x)) (k (write1 x)) end)")))


VISIBLE = (Action.R0, Action.R1, Action.REPS, Action.W0, Action.W1, Action.E)


@st.composite
def visible_traces(draw):
    """A visible trace: any actions, or the trace one discipline expects
    on an input of at most 6 bits, with up to three actions inserted,
    deleted or replaced."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.sampled_from(VISIBLE), max_size=16)))
    bits = draw(st.text("01", max_size=6))
    read = {"0": Action.R0, "1": Action.R1}
    write = {"0": Action.W0, "1": Action.W1}
    if draw(st.sampled_from((COPY, READ_ALL_THEN_WRITE))) == COPY:
        trace = [a for bit in bits for a in (read[bit], write[bit])] + [Action.REPS]
    else:
        trace = ([read[bit] for bit in bits] + [Action.REPS] * draw(st.integers(1, 3))
                 + [write[bit] for bit in reversed(bits)])
    trace.append(Action.E)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(trace)))
        trace[i:i + draw(st.integers(0, 1))] = draw(st.lists(st.sampled_from(VISIBLE),
                                                             max_size=1))
    return tuple(trace)


class TestConforms:
    """`_conforms`, which compares a trace with the discipline position
    by position, against the `_conforms` that built the expected trace
    for every input."""

    @given(visible_traces())
    def test_matches_reference_on_every_input(self, visible):
        for spec in (COPY, READ_ALL_THEN_WRITE):
            for bits in all_inputs(6):
                for outcome in ("terminated", "stuck", "fuel"):
                    assert (_conforms(spec, bits, outcome, visible)
                            == reference._conforms(spec, bits, outcome, visible)), (spec, bits)

    def test_conforming_traces_verified(self):
        for bits in all_inputs(6):
            reads = [Action.R0 if bit == "0" else Action.R1 for bit in bits]
            writes = [Action.W0 if bit == "0" else Action.W1 for bit in bits]
            copy = tuple(a for pair in zip(reads, writes) for a in pair) + (Action.REPS, Action.E)
            assert _conforms(COPY, bits, "terminated", copy).is_verified
            for probes in (1, 2):
                trace = tuple(reads + [Action.REPS] * probes + writes[::-1] + [Action.E])
                assert _conforms(READ_ALL_THEN_WRITE, bits, "terminated", trace).is_verified


class TestRunsOnInputs:
    """`machine._runs_on_inputs`, the one walk over the input tree behind
    `TracePole.member`, yields what one `run` per input gives."""

    @settings(max_examples=150)
    @given(st.one_of(gen.processes(), near_conforming().map(lambda run_on: run_on[0])),
           st.integers(0, 3), st.integers(0, 200))
    def test_matches_one_run_per_input(self, p, max_input_len, fuel):
        assert list(_runs_on_inputs(p, max_input_len, fuel)) == runs_one_by_one(
            p, max_input_len, fuel)

    @pytest.mark.parametrize("p", [COPY_PROCESS, CC_COPY], ids=["copy", "cc-copy"])
    def test_every_fuel_up_to_the_longest_run(self, p):
        # each input's budget counts from its own start, and a run cut
        # at the read that pauses it is "fuel" on every longer input too
        longest = run(ExecutionContext(p, "111"), 10_000)
        assert longest.terminated
        for fuel in range(longest.steps + 2):
            assert list(_runs_on_inputs(p, 3, fuel)) == runs_one_by_one(p, 3, fuel)

    @pytest.mark.parametrize("text", [
        "read end end * nil", "read * end :: nil", "read end end end * nil",
        "read end end * end :: nil", "write0 * nil", "end end * nil"])
    def test_visible_edge_cases_at_every_fuel(self, text):
        # a read that lacks an entry is stuck on every input, paused or not
        p = parse_process(text)
        for fuel in range(run(ExecutionContext(p, "111"), 100).steps + 2):
            assert list(_runs_on_inputs(p, 3, fuel)) == runs_one_by_one(p, 3, fuel)

    def test_paused_continuation_resumed_for_both_bits(self):
        outcome, actions, paused = _resume((CC_COPY.term, None, CC_COPY.stack, 10_000),
                                           "", True, ())
        assert (outcome, actions) == ("input", ())
        t, env, _, _ = paused
        assert t is READ
        while env[0] != "k":
            env = env[2]
        assert type(env[1][0]) is Kont
        for bit in "01":
            assert _resume(paused, bit, True, ())[:2] == ("input", (
                Action.R0 if bit == "0" else Action.R1, Action.W0 if bit == "0" else Action.W1))
        assert _resume(paused, "", False, ())[:2] == ("terminated", (Action.REPS, Action.E))
        assert TracePole(COPY, 3).member(CC_COPY) == Verdict.verified(sampled=True)

    def test_compiled_program(self):
        # the reader enters thunks between its reads, so each paused read
        # had marks to drop first
        p = compile_function(B)
        longest = run(ExecutionContext(p, "111"), 100_000)
        assert longest.terminated
        for fuel in (0, 1, 40, longest.steps // 2, longest.steps - 1, longest.steps, 100_000):
            assert list(_runs_on_inputs(p, 3, fuel)) == runs_one_by_one(p, 3, fuel)
        work, paused = [("", (p.term, None, p.stack, 100_000))], 0
        while work:
            bits, state = work.pop()
            gen.assert_no_mark(state[2])
            paused += 1
            if len(bits) < 3:
                work += [(bits + bit, _resume(state, bit, True, ())[2]) for bit in "01"]
        assert paused == 15

    def test_top(self):
        assert list(_runs_on_inputs(TOP, 2, 0)) == [
            (bits, "terminated", ()) for bits in all_inputs(2)]
        assert TracePole(COPY, 2).member(TOP) == Verdict.all_of(
            (reference.trace_conforms(COPY, TOP, bits, 0) for bits in all_inputs(2)),
            sampled=True)


class TestUnionPole:
    def test_member_of_any_part(self):
        union = UnionPole((FunctionPole.of({1: 1}), finite_pole("end * nil")))
        assert union.member(parse_process(r"(\x. x) end * nil")).is_verified

    def test_refuted_only_if_all_refute(self):
        union = UnionPole((finite_pole("cc * nil"), finite_pole("end * nil")))
        assert union.member(parse_process("write0 * nil")).is_refuted

    def test_unknown_if_undecided_part(self):
        grower = parse_process(r"(\x. x x x) (\x. x x x) * nil")
        union = UnionPole((finite_pole("end * nil", fuel=1),))
        assert union.member(grower).is_unknown


SWAP_PROCESS = Pair(Y, stack_of(parse_term(r"\x. read (write1 x) (write0 x) end")))
ECHO = Pair(READER, stack_of(F, W, church_numeral(0)))


def random_function_pole(rng):
    """A function pole whose rows are those of a compiled function's own
    runs, one of them sometimes off by one, and processes to test in it."""
    member = compile_function(rng.choice((IDENTITY, S, B)))
    rows = {n: nat_of_bin(run(ExecutionContext(member, bin_nat(n)), 10**5).final.output)
            for n in rng.sample(range(4), rng.randrange(1, 3))}
    if rng.random() < 0.3:
        rows[rng.choice(list(rows))] += 1
    return FunctionPole.of(rows), [member, compile_function(rng.choice((IDENTITY, S, B)))]


def random_trace_pole(rng):
    return (TracePole(rng.choice((COPY, READ_ALL_THEN_WRITE)), rng.randrange(4)),
            [COPY_PROCESS, CC_COPY, SWAP_PROCESS, ECHO])


def random_union_pole(rng):
    (function_pole, some), (trace_pole, others) = random_function_pole(rng), random_trace_pole(rng)
    return UnionPole((function_pole, trace_pole)), some + others


def decided_from(pole, q, most):
    """The least fuel at which the pole decides q, or `most` if it does
    not decide q below it (a run's outcome does not change past its end)."""
    low, high = 0, most
    while low < high:
        middle = (low + high) // 2
        if pole.member(q, middle).is_unknown:
            low = middle + 1
        else:
            high = middle
    return low


class TestSaturation:
    """Every kind of pole, and what it refutes, is closed under
    predecessors of effect-free evaluation: where eval_step(p) == q, p at
    fuel F + 1 gets q's verdict at fuel F.  The budget is per row and per
    input, and the silent step reads no input, so F + 1 is exact; the
    thunk replay keeps step counts, so it does not change this.  q is a
    member or non-member, or a state a few silent steps on from one; p is
    q with END pushed under a binder (a pop) or with its top entry
    applied (a push), as in `TestFinitePole::test_saturation`.  F is
    random, or one below or at the least fuel that decides q."""

    @pytest.mark.parametrize("build, seed, most", [
        (random_function_pole, 1, 2000),
        (random_trace_pole, 2, 400),
        (random_union_pole, 3, 2000),
    ], ids=["function", "trace", "union"])
    def test_predecessors_keep_the_verdict(self, build, seed, most):
        rng = random.Random(seed)
        statuses = Counter()
        for _ in range(100):
            pole, members = build(rng)
            q = rng.choice(members) if rng.random() < 0.75 else gen.random_process(rng)
            for _ in range(rng.randrange(6)):
                q = eval_step(q) or q
            if not isinstance(q, Pair):
                continue
            decided = decided_from(pole, q, most)
            fuel = rng.choice((rng.randrange(most), max(decided - 1, 0), decided))
            expected = pole.member(q, fuel).status
            predecessors = [Pair(Abs("w", q.term), q.stack.push(END))]
            if not q.stack.is_empty:
                predecessors.append(Pair(App(q.term, q.stack.head), q.stack.tail))
            for p in predecessors:
                assert eval_step(p) == q
                assert pole.member(p, fuel + 1).status == expected, (p, fuel)
            statuses[expected] += 1
        assert statuses["verified"] >= 10 and statuses["refuted"] >= 10, statuses


@pytest.mark.parametrize("build", [
    lambda fuel: FinitePole.of([], fuel),
    lambda fuel: FunctionPole.of({0: 0}, fuel),
    lambda fuel: TracePole(COPY, 2, fuel),
], ids=["finite", "function", "trace"])
@pytest.mark.parametrize("fuel, error, message", [
    (-1, ValueError, "fuel must be non-negative"),
    (2.5, TypeError, "fuel must be an integer, not float"),
    (True, TypeError, "fuel must be an integer, not bool"),
])
def test_bad_pole_fuel_rejected(build, fuel, error, message):
    # checked at construction, not only when a membership check runs
    with pytest.raises(error, match=f"^{message}$"):
        build(fuel)


class TestRealizes:
    def test_empty_truth_value_vacuous(self):
        pole = finite_pole("end * nil")
        assert realizes(pole, IDENTITY, TruthValue(())).is_verified

    def test_open_terms_rejected(self):
        with pytest.raises(ValueError, match="^realizer is not closed: x$"):
            RealizerList.of([parse_term("x")])
        with pytest.raises(ValueError, match="^realizer candidate is not closed: x$"):
            realizes(finite_pole("end * nil"), parse_term("x"), TruthValue.of([EMPTY]))

    def test_refuted_carries_the_stack(self):
        pole = FinitePole.of([parse_process("end * nil")], fuel=100)
        verdict = realizes(pole, CALLCC, TruthValue.of([EMPTY]))
        assert verdict.is_refuted
        assert verdict.witness == EMPTY

    def test_continuation_realizes_negation(self):
        # kont{pi} realizes S => falsity whenever pi is in S
        pi = parse_stack("end :: nil")
        pole = FinitePole.of([Pair(FST, pi)], fuel=200)
        realizer_list = RealizerList.of([FST])
        negation = implication(realizer_list, falsity_sample([EMPTY, parse_stack("cc :: nil")]))
        verdict = realizes(pole, Kont(pi), negation)
        assert not verdict.is_refuted
        assert verdict.is_verified

    def test_sample_flag_downgrades(self):
        pole = finite_pole("end * nil")
        tv = falsity_sample([])
        verdict = realizes(pole, IDENTITY, tv)
        assert verdict.is_verified and verdict.sampled

    @pytest.mark.parametrize("flag", ["yes", 0, None])
    def test_sample_flag_must_be_boolean(self, flag):
        with pytest.raises(ValueError, match=f"^all_stacks must be true or false, got {flag!r}$"):
            TruthValue((), flag)


class TestConnectives:
    def test_implication_is_cartesian(self):
        realizer_list = RealizerList.of([END, CALLCC])
        target = TruthValue.of([EMPTY, parse_stack("end :: nil"), parse_stack("cc :: nil")])
        result = implication(realizer_list, target)
        assert len(result) == 6
        assert not result.all_stacks

    def test_implication_examples(self):
        assert len(implication(RealizerList(()), TruthValue.of([EMPTY]))) == 0
        result = implication(RealizerList.of([END]), TruthValue.of([EMPTY]))
        assert result.stacks == (stack_of(END),)

    def test_forall_identity(self):
        theta = Predicate.of({"a": TruthValue.of([EMPTY])})
        out = forall_along({"a": "a"}, theta)
        assert out("a") == theta("a")

    def test_forall_constant_map_unions(self):
        pi1, pi2 = parse_stack("end :: nil"), parse_stack("cc :: nil")
        theta = Predicate.of({"a": TruthValue.of([pi1]), "b": TruthValue.of([pi2])})
        out = forall_along({"a": "i", "b": "i"}, theta)
        assert set(out("i").stacks) == {pi1, pi2}

    def test_forall_empty_fiber(self):
        theta = Predicate.of({"a": TruthValue.of([EMPTY])})
        out = forall_along({"a": "i"}, theta, index_set=["i", "j"])
        assert len(out("j")) == 0

    def test_predicate_is_its_rows(self):
        at_a, at_b = TruthValue.of([EMPTY]), TruthValue.of([stack_of(END)])
        phi = Predicate.of({"b": at_b, "a": at_a})
        assert Predicate.__slots__ == ("mapping",)
        assert phi.index_set == ("b", "a")
        assert phi == Predicate.of({"a": at_a, "b": at_b})  # as two dicts are
        assert phi != Predicate.of({"b": at_b})

    def test_reindex(self):
        phi = Predicate.of({"i": TruthValue.of([EMPTY])})
        out = reindex({"x": "i", "y": "i"}, phi)
        assert out.index_set == ("x", "y")
        assert out("x") == phi("i")

    def test_reindex_then_forall_on_bijection(self):
        pi = parse_stack("end :: nil")
        phi = Predicate.of({"i": TruthValue.of([pi]), "j": TruthValue.of([EMPTY])})
        f = {"x": "i", "y": "j"}
        theta = reindex(f, phi)
        back = forall_along(f, theta, index_set=phi.index_set)
        for i in phi.index_set:
            assert set(back(i).stacks) == set(phi(i).stacks)

    def test_encode_top(self):
        # top = bot => bot
        bot = falsity_sample([EMPTY])
        out = implication(RealizerList.of([END]), bot)
        assert out.stacks == (stack_of(END),)

    def test_encode_not_of_empty(self):
        # not phi = phi => bot, here with no realizers of phi
        out = implication(RealizerList(()), falsity_sample([EMPTY]))
        assert len(out) == 0

    def test_encode_and_expands_double_negation(self):
        # phi and psi = (phi => (psi => bot)) => bot
        bot = falsity_sample([EMPTY])
        antecedent = implication(RealizerList.of([END]),
                                 implication(RealizerList.of([CALLCC]), bot))
        assert antecedent.stacks == (parse_stack("end :: cc :: nil"),)
        out = implication(RealizerList.of([FST]), bot)
        assert out.stacks == (parse_stack(r"(\u. \v. u) :: nil"),)

    def test_encode_or(self):
        # phi or psi = (phi => bot) => psi
        psi = TruthValue.of([EMPTY])
        out = implication(RealizerList.of([END]), psi)
        assert out.stacks == (stack_of(END),)


STACK_POOL = (EMPTY, stack_of(END), stack_of(CALLCC), stack_of(FST, END))


@st.composite
def predicates(draw, indices):
    """A predicate on `indices` whose rows are drawn from four stacks."""
    return Predicate.of({i: TruthValue.of(draw(st.lists(st.sampled_from(STACK_POOL), max_size=4)),
                                          draw(st.booleans()))
                         for i in indices})


@st.composite
def composable_maps(draw):
    """Finite maps f: K -> J and g: J -> I, with the three index sets."""
    i_set = [f"i{n}" for n in range(draw(st.integers(1, 3)))]
    j_set = [f"j{n}" for n in range(draw(st.integers(1, 4)))]
    k_set = [f"k{n}" for n in range(draw(st.integers(0, 5)))]
    f = {k: draw(st.sampled_from(j_set)) for k in k_set}
    g = {j: draw(st.sampled_from(i_set)) for j in j_set}
    return f, g, k_set, j_set, i_set


def as_stack_sets(phi):
    """phi's rows compared as sets of stacks, with their sample flags."""
    return {i: (frozenset(phi(i).stacks), phi(i).all_stacks) for i in phi.index_set}


class TestFunctoriality:
    """Reindexing and universal quantification are functors: an identity
    map gives the predicate back, and a composite map gives what the two
    maps give one after the other, on random finite maps and predicates."""

    @given(composable_maps(), st.data())
    def test_reindex(self, maps, data):
        f, g, k_set, _, i_set = maps
        phi = data.draw(predicates(i_set))
        assert as_stack_sets(reindex({i: i for i in i_set}, phi)) == as_stack_sets(phi)
        assert as_stack_sets(reindex({k: g[f[k]] for k in k_set}, phi)) == \
            as_stack_sets(reindex(f, reindex(g, phi)))

    @given(composable_maps(), st.data())
    def test_forall_along(self, maps, data):
        f, g, k_set, j_set, i_set = maps
        theta = data.draw(predicates(k_set))
        assert as_stack_sets(forall_along({k: k for k in k_set}, theta)) == as_stack_sets(theta)
        assert as_stack_sets(forall_along({k: g[f[k]] for k in k_set}, theta, i_set)) == \
            as_stack_sets(forall_along(g, forall_along(f, theta, j_set), i_set))


# Proof-like candidates for the adjunction: they pop, push, apply or
# save what the realizer and the stack hold.
ADJUNCTION_CANDIDATES = [IDENTITY, FST, CALLCC, parse_term(r"\x. x x"),
                         parse_term(r"\x. \y. y x"), parse_term(r"\x. cc (\k. x k)")]


class TestAdjunction:
    """`∀_f ⊣ f*`: for f: J -> I, a context φ on I with realizers R and
    θ on J, the sequent f*φ ⊢ θ (realizers R∘f) and the sequent
    φ ⊢ ∀_f θ (on all of I) put the candidate against the same
    (realizer, stack) pairs, so `check_entailment` gives them one status.
    On 100 seeded instances.  A random finite pole refutes almost every
    instance, so each pole's seeds are where those pairs settle, and in
    about half the instances one seed is dropped."""

    def test_both_sequents_get_one_status(self):
        rng = random.Random(35)
        statuses = Counter()
        for _ in range(100):
            i_set = [f"i{n}" for n in range(rng.randint(1, 3))]
            j_set = [f"j{n}" for n in range(rng.randint(1, 4))]
            f = {j: rng.choice(i_set) for j in j_set}
            phi = Predicate.of({i: TruthValue.of(rng.sample(STACK_POOL, rng.randint(0, 2)))
                                for i in i_set})
            realizers = {i: RealizerList.of(gen.random_term(rng, rng.randint(1, 6))
                                            for _ in range(rng.randint(1, 2))) for i in i_set}
            theta = Predicate.of({j: TruthValue.of(gen.random_stack(rng, 2)
                                                   for _ in range(rng.randint(0, 2)))
                                  for j in j_set})
            candidate = rng.choice(ADJUNCTION_CANDIDATES)
            seeds = {settle(Pair(candidate, pi.push(u)), 200)[1]
                     for j in j_set for u in realizers[f[j]] for pi in theta(j)}
            if seeds and rng.random() < 0.5:
                seeds.discard(rng.choice(sorted(seeds, key=str)))
            pole = FinitePole(frozenset(seeds), 200)
            pulled = Sequent((ContextEntry(reindex(f, phi), {j: realizers[f[j]] for j in j_set}),),
                             theta, candidate)
            pushed = Sequent((ContextEntry(phi, realizers),), forall_along(f, theta, i_set),
                             candidate)
            verdict = check_entailment(pole, pulled)
            assert verdict.status == check_entailment(pole, pushed).status, (f, candidate)
            statuses[verdict.status] += 1
        assert statuses["verified"] >= 20 and statuses["refuted"] >= 20, statuses


def simple_sequent(pole_seed, context_lists, conclusion_stacks, candidate):
    predicate = Predicate.of({"i": TruthValue.of(conclusion_stacks)})
    context = tuple(
        ContextEntry(predicate, {"i": RealizerList.of(terms)})
        for terms in context_lists)
    return Sequent(context, predicate, candidate)


class TestCheckEntailment:
    def test_axiom(self):
        pole = FinitePole.of([Pair(FST, EMPTY)], fuel=500)
        seq = simple_sequent(pole, [[FST]], [EMPTY], IDENTITY)
        assert check_entailment(pole, seq).is_verified

    def test_peirce(self):
        pole = FinitePole.of([Pair(FST, EMPTY)], fuel=500)
        u_discard = parse_term(r"\k. \u. \v. u")
        u_invoke = parse_term(r"\k. k (\u. \v. u)")
        seq = simple_sequent(pole, [[u_discard, u_invoke]], [EMPTY], CALLCC)
        assert check_entailment(pole, seq).is_verified

    def test_refutation_carries_index_tuple_stack(self):
        pole = FinitePole.of([Pair(FST, EMPTY)], fuel=500)
        seq = simple_sequent(pole, [[END]], [EMPTY], IDENTITY)
        verdict = check_entailment(pole, seq)
        assert verdict.is_refuted
        index, combo, pi = verdict.witness
        assert index == "i" and combo == (END,) and pi == EMPTY

    def test_without_context(self):
        # no realizer lists to sample: only a conclusion row that samples
        # all stacks makes the Verified sampled
        pole = FinitePole.of([Pair(FST, EMPTY)], fuel=500)
        explicit = TruthValue.of([stack_of(FST)])

        def entail(**rows):
            return check_entailment(pole, Sequent((), Predicate.of(rows), IDENTITY))

        assert entail(i=explicit, j=explicit) == Verdict.verified()
        assert entail(i=explicit, j=falsity_sample([stack_of(FST)])) == \
            Verdict.verified(sampled=True)
        verdict = entail(i=explicit, j=TruthValue.of([stack_of(FST), stack_of(IDENTITY)]))
        assert verdict.is_refuted
        assert verdict.witness == ("j", (), stack_of(IDENTITY))

    def test_effectful_candidate_rejected_before_checking(self):
        with pytest.raises(NotProofLike):
            simple_sequent(None, [[FST]], [EMPTY], END)

    def test_mismatched_index_sets_rejected(self):
        good = Predicate.of({"i": TruthValue.of([EMPTY])})
        bad = Predicate.of({"j": TruthValue.of([EMPTY])})
        with pytest.raises(ValueError):
            Sequent((ContextEntry(bad, {"j": RealizerList.of([FST])}),), good, IDENTITY)

    def test_context_rows_in_any_order(self):
        pole = FinitePole.of([Pair(FST, EMPTY)], fuel=500)
        rows = {"i": TruthValue.of([EMPTY]), "j": TruthValue.of([EMPTY])}
        conclusion = Predicate.of(rows)
        realizers = {"i": RealizerList.of([FST]), "j": RealizerList.of([END])}
        verdicts = [check_entailment(pole, Sequent(
            (ContextEntry(Predicate.of(dict(order)), realizers),), conclusion, IDENTITY))
            for order in (rows.items(), reversed(rows.items()))]
        assert verdicts[0] == verdicts[1]
        assert verdicts[0].is_refuted and verdicts[0].witness[0] == "j"

    def test_realizers_off_the_predicate_rejected(self):
        # a row at index j was never enumerated against a predicate at i,
        # so the entailment verified without checking a realizer
        predicate = Predicate.of({"i": TruthValue.of([EMPTY])})
        with pytest.raises(ValueError, match=r"does not have: \['j'\]$"):
            ContextEntry(predicate, {"j": RealizerList.of([FST])})
        # nor was an index with no realizers: it made every entailment over
        # the entry vacuously Verified
        for realizers in ({}, {"i": RealizerList.of([])}):
            with pytest.raises(ValueError, match="^context entry has no realizers at index 'i'$"):
                ContextEntry(predicate, realizers)


class TestRuleRealizers:
    def test_shapes(self):
        assert IDENTITY == parse_term(r"\x. x")
        assert weaken(FST) == parse_term(r"\x. \u. \v. u")
        assert contract(FST) == parse_term(r"\x. (\u. \v. u) x x")

    def test_exchange_binders_follow_sigma(self):
        t = parse_term(r"\a. \b. a")
        swapped = exchange(t, (2, 1))
        assert swapped == parse_term(r"\x2. \x1. (\a. \b. a) x1 x2")

    def test_exchange_identity_permutation(self):
        t = parse_term(r"\a. \b. a")
        assert exchange(t, (1, 2)) == parse_term(r"\x1. \x2. (\a. \b. a) x1 x2")

    def test_exchange_bad_permutation(self):
        with pytest.raises(ValueError, match=r"^sigma must permute 1\.\.2: \(1, 3\)$"):
            exchange(IDENTITY, (1, 3))

    def test_imp_e_shape(self):
        t, u = parse_term(r"\d. \s. s"), IDENTITY
        built = modus_ponens(t, u, n=1, m=1)
        assert built == parse_term(r"\x1. \y1. (\d. \s. s) y1 ((\x. x) x1)")

    def test_effectful_premise_rejected(self):
        for build in (weaken, contract, lambda t: exchange(t, (1,)),
                      lambda t: modus_ponens(t, IDENTITY, 1, 1),
                      lambda u: modus_ponens(IDENTITY, u, 1, 1)):
            with pytest.raises(NotProofLike,
                               match=r"^rule premise contains instruction constants \['end'\]$"):
                build(END)

    def test_exchange_validated_semantically(self):
        # a 3-cycle distinguishes the permutation direction; the realizer
        # built for sigma must route each exchanged argument back to the
        # slot of t it came from
        pole = FinitePole.of([Pair(FST, EMPTY)], fuel=500)
        snd = parse_term(r"\a. \b. b")
        t = parse_term(r"\a. \b. \c. a")  # sound iff slot 1 lands in the pole
        predicate = Predicate.of({"i": TruthValue.of([EMPTY])})
        sigma = (2, 3, 1)
        # original context [phi1, phi2, phi3]; exchanged order is
        # [phi_sigma(1), phi_sigma(2), phi_sigma(3)] = [phi2, phi3, phi1]
        realizer_lists = {1: [FST], 2: [IDENTITY], 3: [snd]}
        exchanged = tuple(
            ContextEntry(predicate, {"i": RealizerList.of(realizer_lists[sigma[k]])})
            for k in range(3))
        good = Sequent(exchanged, predicate, exchange(t, sigma))
        assert check_entailment(pole, good).is_verified
        # the inverse permutation builds a different term, and the semantic
        # check refutes it on the same scenario
        inverse = (3, 1, 2)
        bad = Sequent(exchanged, predicate, exchange(t, inverse))
        assert check_entailment(pole, bad).is_refuted

    def test_compiled_functions_inhabit_their_poles(self):
        # identity, successor, doubling each give a verified member of the
        # matching input/output pole
        from kamio.combinators import PRELUDE_SOURCE, prelude_definitions, resolve_names
        doubling = parse_term(resolve_names(r"\n. n (\m. S (S m)) #0",
                                            prelude_definitions(PRELUDE_SOURCE)))
        for t, f in ((IDENTITY, lambda n: n), (S, lambda n: n + 1),
                     (doubling, lambda n: 2 * n)):
            pole = FunctionPole.of({n: f(n) for n in range(6)})
            assert pole.member(compile_function(t)).is_verified

    def test_contract_semantically(self):
        pole = FinitePole.of([Pair(FST, EMPTY)], fuel=500)
        duplicated = simple_sequent(pole, [[FST], [FST]], [EMPTY], FST)
        assert check_entailment(pole, duplicated).is_verified
        contracted = simple_sequent(pole, [[FST]], [EMPTY], contract(FST))
        assert check_entailment(pole, contracted).is_verified

    def test_weaken_semantically(self):
        pole = FinitePole.of([Pair(FST, EMPTY)], fuel=500)
        seq = simple_sequent(pole, [[IDENTITY], [FST]], [EMPTY],
                             weaken(IDENTITY))
        assert check_entailment(pole, seq).is_verified

    def test_imp_e_semantically(self):
        pole = FinitePole.of([Pair(FST, EMPTY)], fuel=500)
        t = parse_term(r"\d. \s. s")   # realizes [delta] |- psi => theta
        u = IDENTITY                   # realizes [phi] |- psi
        composed = modus_ponens(t, u, n=1, m=1)
        seq = simple_sequent(pole, [[FST], [IDENTITY]], [EMPTY], composed)
        assert check_entailment(pole, seq).is_verified


class TestConsistencyProbe:
    def test_function_pole_witnesses(self):
        pole = FunctionPole.of({n: n for n in range(5)})
        report = consistency_probe(
            pole, [IDENTITY, FST, CALLCC], [EMPTY, parse_stack("end :: nil")])
        assert [verdict.status for _, verdict in report.candidates] == ["refuted"] * 3

    def test_finite_pole_witness(self):
        pole = finite_pole("end * nil")
        report = consistency_probe(pole, [IDENTITY], [EMPTY])
        [(_, verdict)] = report.candidates
        assert verdict.is_refuted
        assert verdict.witness == EMPTY

    def test_member_audit_flags_pure_members(self):
        # a pole seeded with a pure process is inconsistent; the audit says so
        pole = finite_pole(r"(\u. \v. u) * nil")
        report = consistency_probe(pole, [], [], member_samples=[parse_process(r"(\u. \v. u) * nil")])
        assert report.violations

    def test_member_audit_passes_for_function_pole(self):
        pole = FunctionPole.of({n: n for n in range(3)})
        member = compile_function(IDENTITY)
        report = consistency_probe(pole, [IDENTITY], [EMPTY], member_samples=[member])
        assert not report.violations
        assert member in report.members
        assert "end" in effect_constants(member)

    def test_effectful_candidate_rejected(self):
        with pytest.raises(NotProofLike):
            consistency_probe(finite_pole("end * nil"), [END], [EMPTY])

    def test_no_witness_in_sample(self):
        pole = finite_pole(r"(\u. \v. u) * nil")
        report = consistency_probe(pole, [FST], [EMPTY])
        [(_, verdict)] = report.candidates
        assert verdict.is_verified


class TestPoleFromBisimulation:
    @pytest.mark.parametrize("pole", [
        FunctionPole.of({n: n for n in range(4)}),
        TracePole(COPY, max_input_len=3, fuel=50_000),
    ])
    def test_bisimilar_processes_agree(self, pole):
        process = COPY_PROCESS if isinstance(pole, TracePole) else compile_function(IDENTITY)
        from kamio.equivalence import beta_contract, beta_redexes
        redexes = beta_redexes(process)
        if not redexes:
            pytest.skip("no redex to contract")
        other = beta_contract(process, redexes[0])
        assert weak_bisim(process, other, 10, 100_000).is_verified
        left = pole.member(process)
        right = pole.member(other)
        if not left.is_unknown and not right.is_unknown:
            assert left.status == right.status


def _realizes(**keys):
    return {"kind": "realizes", "pole": {"kind": "finite", "seeds": ["end * nil"]},
            "term": r"\x. x", "truth_value": {"stacks": ["nil"]}, **keys}


def _entailment(**keys):
    return {"kind": "entailment", "pole": {"kind": "finite", "seeds": ["end * nil"]},
            "conclusion": [{"index": "i", "stacks": ["nil"]}], "candidate": r"\x. x", **keys}


def _consistency(**keys):
    return {"kind": "consistency", "pole": {"kind": "finite", "seeds": ["end * nil"]},
            "candidates": [r"\x. x"], "stack_samples": ["nil"], **keys}


class TestScenarioJson:
    def test_unknown_pole_kind(self):
        with pytest.raises(ValueError, match="^unknown pole kind 'nope'$"):
            pole_from_json({"kind": "nope"})

    def test_entailment_round_trip(self):
        payload = {
            "kind": "entailment",
            "pole": {"kind": "finite", "seeds": [r"(\u. \v. u) * nil"], "fuel": 2000},
            "context": [
                {"predicate": [{"index": "i", "stacks": ["nil"]}],
                 "realizers": [{"index": "i", "terms": [r"\u. \v. u"]}]}
            ],
            "conclusion": [{"index": "i", "stacks": ["nil"]}],
            "candidate": r"\x. x",
            "fuel": 2000,
        }
        verdict, report = run_scenario(scenario_from_json(payload))
        assert verdict.is_verified
        assert report["verdict"]["status"] == "verified"
        json.dumps(report)  # must be serializable

    def test_realizes_scenario(self):
        payload = {
            "kind": "realizes",
            "pole": {"kind": "function", "table": {"0": 0, "1": 1}, "fuel": 100000},
            "term": r"\x. x",
            "truth_value": {"stacks": ["nil"]},
            "fuel": 100000,
        }
        verdict, report = run_scenario(scenario_from_json(payload))
        assert verdict.is_refuted

    def test_consistency_scenario(self):
        payload = {
            "kind": "consistency",
            "pole": {"kind": "function", "table": {"0": 0, "1": 1}},
            "candidates": [r"\x. x", "cc"],
            "stack_samples": ["nil"],
            "fuel": 100000,
        }
        verdict, report = run_scenario(scenario_from_json(payload))
        assert verdict.is_verified
        assert all(c["status"] == "witness_found" for c in report["candidates"])

    def test_union_and_trace_pole_parsing(self):
        pole = pole_from_json({"kind": "union", "members": [
            {"kind": "trace", "spec": "copy", "max_input_len": 2, "fuel": 1000},
            {"kind": "finite", "seeds": ["end * nil"], "fuel": 10},
        ]})
        assert isinstance(pole, UnionPole)
        assert pole.member(parse_process("end * nil")).is_verified

    def test_pole_fuel_precedence(self):
        union = pole_from_json({"kind": "union", "fuel": 50, "members": [
            {"kind": "finite", "seeds": [], "fuel": 3},
            {"kind": "function", "table": {"0": 0}},
        ]}, fuel=7)
        assert [m.fuel for m in union.members] == [3, 50]
        assert pole_from_json({"kind": "trace", "spec": "copy"}, fuel=7).fuel == 7
        assert pole_from_json({"kind": "trace", "spec": "copy"}).fuel == TracePole("copy").fuel
        scenario = scenario_from_json({"kind": "realizes", "fuel": 9, "term": r"\x. x",
                                       "pole": {"kind": "finite", "seeds": []},
                                       "truth_value": {"stacks": ["nil"]}})
        assert (scenario.fuel, scenario.pole.fuel) == (9, 9)

    @pytest.mark.parametrize("pole", [
        {"kind": "function", "table": {"0": 0}, "fuel": 2.5},
        {"kind": "function", "table": {"0": 0}, "fuel": True},
        {"kind": "function", "table": {"0": 0.5}},
        {"kind": "function", "table": {"0": False}},
        {"kind": "trace", "spec": "copy", "max_input_len": 1.5},
        {"kind": "finite", "seeds": [], "fuel": float("inf")},
        {"kind": "union", "fuel": 2.5, "members": [{"kind": "finite", "seeds": []}]},
    ])
    def test_non_integer_numbers_rejected(self, pole):
        # `int` would truncate them: fuel 2.5 ran with fuel 2, true with fuel 1
        with pytest.raises(ValueError, match="must be an integer"):
            pole_from_json(pole)

    @pytest.mark.parametrize("fuel", [2.5, True, False])
    def test_non_integer_scenario_fuel_rejected(self, fuel):
        with pytest.raises(ValueError, match="fuel must be an integer"):
            scenario_from_json({"kind": "realizes", "fuel": fuel, "term": r"\x. x",
                                "pole": {"kind": "finite", "seeds": []},
                                "truth_value": {"stacks": ["nil"]}})

    @pytest.mark.parametrize("payload, message", [
        pytest.param(_realizes(fuel="5"), 'fuel must be an integer, got "5"', id="fuel"),
        pytest.param(_realizes(pole={"kind": "finite", "seeds": [], "fuel": "5"}),
                     'fuel must be an integer, got "5"', id="pole-fuel"),
        pytest.param(_realizes(pole={"kind": "trace", "spec": "copy", "max_input_len": "3"}),
                     'max_input_len must be an integer, got "3"', id="max_input_len"),
        pytest.param(_realizes(pole={"kind": "function", "table": {"0": "4"}}),
                     'function pole table row 0 must be an integer, got "4"', id="output"),
        pytest.param(_realizes(pole={"kind": "function", "table": {"0": None}}),
                     "function pole table row 0 must be an integer, got null", id="null"),
        *(pytest.param(_realizes(pole={"kind": "function", "table": {key: 0}}),
                       f"function pole table input must be an integer, got {json.dumps(key)}",
                       id=f"input-{json.dumps(key)}")
          for key in ("1_0", "+2", " 7 ", "\u0663", "", "-", "--1", "0x1", "1.0")),
    ])
    def test_numbers_written_as_strings_rejected(self, payload, message):
        # `int` read "5" as 5, and the keys "1_0", "+2", " 7 " and an
        # Arabic-Indic three as 10, 2, 7 and 3
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scenario_from_json(payload)

    def test_integral_numbers_accepted(self):
        pole = pole_from_json({"kind": "function", "table": {"0": 1.0}, "fuel": 7.0})
        assert pole == FunctionPole.of({0: 1}, fuel=7)

    @pytest.mark.parametrize("table", [{"0": -1}, {"-1": 0}, {"1": 1, "2": -3}])
    def test_negative_table_rows_rejected(self, table):
        # checked at load, not only when a row's run terminates: a stuck
        # process never reached `bin_nat`
        with pytest.raises(ValueError, match="naturals required"):
            pole_from_json({"kind": "function", "table": table})

    @pytest.mark.parametrize("pole", [
        {"kind": "finite", "seeds": [], "fuel": -1},
        {"kind": "function", "table": {"0": 0}, "fuel": -1},
        {"kind": "trace", "spec": "copy", "fuel": -1},
        {"kind": "union", "fuel": -1, "members": [{"kind": "finite", "seeds": []}]},
        {"kind": "union", "members": [{"kind": "finite", "seeds": [], "fuel": -1}]},
    ])
    def test_negative_pole_fuel_rejected(self, pole):
        # checked at load, not only when a membership check runs
        with pytest.raises(ValueError, match="^fuel must be non-negative$"):
            pole_from_json(pole)

    def test_negative_scenario_fuel_rejected(self):
        # no stack, so no membership check would ever read the fuel
        with pytest.raises(ValueError, match="^fuel must be non-negative$"):
            scenario_from_json({"kind": "realizes", "fuel": -1, "term": r"\x. x",
                                "pole": {"kind": "finite", "seeds": []},
                                "truth_value": {"stacks": []}})

    @pytest.mark.parametrize("pole", [
        {"kind": "function", "table": {}},
        {"kind": "function", "table": {}, "fuel": 5},
        {"kind": "union", "members": [{"kind": "function", "table": {}}]},
    ])
    def test_empty_function_table_rejected(self, pole):
        # a verdict over no rows is a vacuous Verified for every process
        with pytest.raises(ValueError, match="^function pole table has no rows$"):
            pole_from_json(pole)

    @pytest.mark.parametrize("payload, message", [
        pytest.param(_realizes(pole={"kind": "finite", "seeds": []}, truth_value={"stacks": ""}),
                     "truth_value.stacks must be a list", id="truth_value.stacks"),
        pytest.param(_realizes(truth_value={"stacks": "nil"}),
                     "truth_value.stacks must be a list", id="truth_value.stacks-text"),
        pytest.param(_realizes(pole={"kind": "finite", "seeds": "end * nil"}),
                     "seeds must be a list", id="seeds"),
        pytest.param(_realizes(pole={"kind": "union", "members": {}}),
                     "members must be a list", id="members"),
        pytest.param(_realizes(pole={"kind": "function", "table": [[0, 0]]}),
                     "table must be an object", id="table"),
        pytest.param(_entailment(conclusion="i"), "conclusion must be a list", id="conclusion"),
        pytest.param(_entailment(conclusion=[{"index": "i", "stacks": "nil"}]),
                     "stacks must be a list", id="stacks"),
        pytest.param(_entailment(context={}), "context must be a list", id="context"),
        pytest.param(_entailment(context=[{"predicate": "i", "realizers": []}]),
                     "predicate must be a list", id="predicate"),
        pytest.param(_entailment(context=[{"predicate": [{"index": "i", "stacks": []}],
                                            "realizers": "i"}]),
                     "realizers must be a list", id="realizers"),
        pytest.param(_entailment(context=[{"predicate": [{"index": "i", "stacks": ["nil"]}],
                                           "realizers": [{"index": "i", "terms": "cc"}]}]),
                     "terms must be a list", id="terms"),
        pytest.param(_consistency(candidates=""), "candidates must be a list", id="candidates"),
        pytest.param(_consistency(stack_samples=""), "stack_samples must be a list",
                     id="stack_samples"),
        pytest.param(_consistency(member_samples="end * nil"), "member_samples must be a list",
                     id="member_samples"),
    ])
    def test_list_keys_reject_other_values(self, payload, message):
        # a string was read one character at a time: "" as no stacks (a
        # vacuous Verified), "nil" as the stack `n`
        with pytest.raises(ValueError, match=f"^malformed scenario: {message}$"):
            scenario_from_json(payload)

    @pytest.mark.parametrize("context_rows", [["i", "j"], ["i"]],
                             ids=["extra-row", "missing-row"])
    def test_context_rows_off_the_conclusion_rejected(self, context_rows):
        # an extra row was loaded and dropped without a word; a missing
        # row said "predicate is not total"
        payload = _entailment(
            conclusion=[{"index": "i", "stacks": ["nil"]}, {"index": "k", "stacks": ["nil"]}],
            context=[{"predicate": [{"index": i, "stacks": ["nil"]} for i in context_rows],
                      "realizers": [{"index": i, "terms": [r"\u. u"]} for i in context_rows]}])
        with pytest.raises(ValueError, match="^all predicates in a sequent share one index set$"):
            scenario_from_json(payload)

    def test_context_rows_in_any_order(self):
        rows = [{"index": "i", "stacks": ["nil"]}, {"index": "j", "stacks": ["cc :: nil"]}]

        def report(context_rows):
            return run_scenario(scenario_from_json(_entailment(
                pole={"kind": "finite", "seeds": [r"(\u. \v. u) * nil"]},
                conclusion=rows,
                context=[{"predicate": context_rows,
                          "realizers": [{"index": "i", "terms": [r"\u. \v. u"]},
                                        {"index": "j", "terms": ["end"]}]}])))[1]

        assert report(rows[::-1]) == report(rows)
        assert report(rows)["verdict"]["status"] == "refuted"

    def test_realizers_off_the_predicate_rejected(self):
        payload = _entailment(context=[{"predicate": [{"index": "i", "stacks": ["nil"]}],
                                        "realizers": [{"index": "j", "terms": [r"\u. u"]}]}])
        with pytest.raises(ValueError, match=r"does not have: \['j'\]$"):
            scenario_from_json(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_json({"kind": "nope", "pole": {"kind": "finite", "seeds": []}})
