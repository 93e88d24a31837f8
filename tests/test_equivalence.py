import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

import gen
import reference_machine as reference
from kamio import equivalence, machine
from kamio.equivalence import (
    Observable, _classify, beta_contract, beta_redexes, lts_step, observable, top_equiv, weak_bisim,
)
from kamio.machine import Action, ExecutionContext, eval_step, run
from kamio.syntax import (
    Abs, App, CALLCC, EMPTY, END, InvalidPosition, Pair, TOP, Var, parse_process, subterm_at,
)
from kamio.verdict import Verdict

OMEGA = r"(\x. x x) (\x. x x) * nil"
# Two writes down r0, both sides reach the pair their r1 branches start
# with, but with two less depth left: at depth 3 or 4 the search meets
# the pair there first and cuts it off before it reaches the difference.
SHARED_TAIL = ("read (write0 (write0 (write0 (write0 (write0 end)))))"
               " (write0 (write0 (write0 end))) end * nil")
SHARED_TAIL_CHANGED = ("read (write0 (write0 (write0 (write0 (write1 end)))))"
                       " (write0 (write0 (write1 end))) end * nil")
# An endless chain of writes whose processes never repeat; the two sides
# differ only in the silent steps between writes.
WRITE_CHAIN = r"(\x. \y. write0 (x x (\z. y))) (\x. \y. write0 (x x (\z. y))) (\u. u) * nil"
WRITE_CHAIN_SLOWER = (r"(\x. \y. write0 (x x (\z. \w. y)))"
                      r" (\x. \y. write0 (x x (\z. \w. y))) (\u. u) * nil")
GROWING = r"(\x. x x x) (\x. x x x)"
READ_MENU = "read * end :: cc :: write0 :: write1 :: nil"


def _count_read_backs(monkeypatch) -> list:
    """Count `machine._read_back` calls from now on: one per process read back."""
    calls = []
    real = machine._read_back

    def counting(*state):
        calls.append(state)
        return real(*state)

    monkeypatch.setattr(machine, "_read_back", counting)
    return calls


class TestLtsStep:
    def test_read_offers_three_branches(self):
        p = parse_process("read * end :: cc :: write0 :: write1 :: nil")
        steps = dict(lts_step(p))
        assert set(steps) == {Action.R0, Action.R1, Action.REPS}
        assert steps[Action.R0] == parse_process("end * write1 :: nil")
        assert steps[Action.R1] == parse_process("cc * write1 :: nil")
        assert steps[Action.REPS] == parse_process("write0 * write1 :: nil")

    def test_end_steps_to_top(self):
        assert lts_step(parse_process("end * cc :: nil")) == ((Action.E, TOP),)
        assert lts_step(parse_process("end * nil")) == ((Action.E, TOP),)

    def test_top_has_no_transitions(self):
        assert lts_step(TOP) == ()

    def test_writes_are_singleton_menus(self):
        assert dict(lts_step(parse_process("write0 * end :: nil"))) == \
            {Action.W0: parse_process("end * nil")}
        assert dict(lts_step(parse_process("write1 * end :: nil"))) == \
            {Action.W1: parse_process("end * nil")}

    @given(gen.processes())
    def test_tau_agreement_with_eval(self, p):
        taus = [q for a, q in lts_step(p) if a is Action.TAU]
        q = eval_step(p)
        assert taus == ([q] if q is not None else [])

    @given(gen.processes())
    def test_label_determinism(self, p):
        transitions = lts_step(p)
        labels = [a for a, _ in transitions]
        assert len(labels) == len(set(labels))
        if Action.TAU in labels:
            assert len(labels) == 1
        reads = {Action.R0, Action.R1, Action.REPS} & set(labels)
        assert reads in (set(), {Action.R0, Action.R1, Action.REPS})


class TestObservable:
    def test_menu_after_one_silent_step(self):
        ob = observable(parse_process("write0 end * nil"), 10)
        assert ob.kind == "menu"
        assert ob.entries == {Action.W0: parse_process("end * nil")}

    def test_omega_is_provably_silent(self):
        assert observable(parse_process(OMEGA), 1000).kind == "silent"

    def test_top_is_silent(self):
        assert observable(TOP, 10).kind == "silent"

    def test_stuck_is_silent(self):
        assert observable(parse_process("cc * nil"), 10).kind == "silent"

    def test_growing_divergence_is_unknown(self):
        # (\x. x x x) applied to itself grows forever: no cycle to detect
        p = parse_process(r"(\x. x x x) (\x. x x x) * nil")
        assert observable(p, 200).kind == "unknown"

    def test_fuel_zero_on_pending_tau(self):
        assert observable(parse_process("write0 end * nil"), 0).kind == "unknown"

    def test_deep_numeral_settles_without_substitute(self):
        # #2000 pops end twice, then applies end to 2,000 nested applications
        ob = observable(parse_process("#2000 * end :: end :: nil"))
        assert ob.kind == "menu"
        assert ob.entries == {Action.E: TOP}

    def test_labels_read_nothing_back(self, monkeypatch):
        p = parse_process(READ_MENU)
        calls = _count_read_backs(monkeypatch)
        entries = observable(p, 10).entries
        assert list(entries) == [Action.R0, Action.R1, Action.REPS]
        assert len(entries) == 3
        assert Action.R1 in entries and Action.W0 not in entries
        assert calls == []

    def test_lookup_reads_back_once(self, monkeypatch):
        p = parse_process(READ_MENU)
        entries = observable(p, 10).entries
        calls = _count_read_backs(monkeypatch)
        first = entries[Action.R1]
        assert entries[Action.R1] is first
        assert first == parse_process("cc * write1 :: nil")
        assert len(calls) == 1
        with pytest.raises(KeyError):
            entries[Action.W0]
        assert entries.get(Action.W0) is None and len(calls) == 1

    def test_equals_a_menu_built_from_a_dict(self):
        p = parse_process(READ_MENU)
        built = Observable("menu", dict(lts_step(p)))
        assert observable(p, 10) == built and built == observable(p, 10)
        assert repr(observable(p, 10)) == repr(built)
        assert "cc" in repr(observable(p, 10))  # the successors are shown
        assert observable(p, 10) != Observable("menu", {Action.R0: TOP})


class TestWeakBisim:
    def test_reflexivity_at_any_bounds(self):
        p = parse_process("write0 end * nil")
        for depth in (0, 1, 4):
            for fuel in (0, 10):
                assert weak_bisim(p, p, depth, fuel).is_verified

    def test_silent_expansion_is_bisimilar(self):
        left = parse_process(r"(\x. x) end * nil")
        right = parse_process("end * nil")
        assert weak_bisim(left, right, 4, 100).is_verified

    def test_distinct_writes_refuted_with_witness(self):
        verdict = weak_bisim(parse_process("write0 end * nil"),
                             parse_process("write1 end * nil"), 4, 100)
        assert verdict.is_refuted
        assert verdict.witness == (Action.W0,)

    def test_silent_vs_menu_refuted(self):
        verdict = weak_bisim(parse_process(OMEGA),
                             parse_process("end * nil"), 4, 1000)
        assert verdict.is_refuted
        assert verdict.witness == (Action.E,)

    def test_stuck_matches_divergent(self):
        assert weak_bisim(parse_process(OMEGA), parse_process("cc * nil"),
                          4, 1000).is_verified

    def test_witness_is_a_replayable_prefix(self):
        left = parse_process("write0 (write0 end) * nil")
        right = parse_process("write0 (write1 end) * nil")
        verdict = weak_bisim(left, right, 4, 100)
        assert verdict.is_refuted
        assert verdict.witness == (Action.W0, Action.W0)

    def test_depth_exhaustion_is_unknown(self):
        left = parse_process("write0 (write0 end) * nil")
        assert weak_bisim(left, parse_process("write0 (write0 (write0 end)) * nil"),
                          0, 100).is_unknown

    def test_unknown_observable_is_unknown(self):
        growing = parse_process(r"(\x. x x x) (\x. x x x) * nil")
        other = parse_process("end * nil")
        assert weak_bisim(growing, other, 4, 100).is_unknown

    def test_pair_met_again_with_more_depth_is_explored_again(self):
        p, q = parse_process(SHARED_TAIL), parse_process(SHARED_TAIL_CHANGED)
        for depth in (3, 4):
            verdict = weak_bisim(p, q, depth, 100)
            assert verdict.is_refuted
            assert verdict.witness == (Action.R1, Action.W0, Action.W0, Action.W0)
        assert weak_bisim(p, q, 2, 100) == Verdict.unknown("depth")

    def test_fuel_cut_outranks_a_later_depth_cut(self):
        # down r0 both sides grow forever; down r1 they write at depth 1
        growing = r"(\x. x x x) (\x. x x x)"
        p = parse_process(f"read ({growing}) (write0 (write0 end)) end * nil")
        q = parse_process(rf"read ((\y. y) ({growing})) (write0 ((\y. y) (write0 end))) end * nil")
        assert weak_bisim(p, q, 1, 100) == Verdict.unknown("fuel")
        assert weak_bisim(p, q, 2, 100) == Verdict.unknown("fuel")

    def test_fuel_at_the_frontier_of_equal_sides_keeps_a_depth_cut(self):
        # r0 cuts on depth first; the r1 sides are alpha-equal and spend their fuel
        p = parse_process(f"read (write0 end) ({GROWING}) end * nil")
        q = parse_process(r"read (write0 (write0 end)) ((\y. y y y) (\y. y y y)) end * nil")
        assert weak_bisim(p, q, 1, 300) == Verdict.unknown("depth")
        _agrees_with_reference(p, q)

    def test_pair_explored_with_depth_left_is_skipped_at_the_frontier(self):
        # each side writes and returns to itself, so the root pair comes
        # back at the frontier before anything is cut
        p = parse_process(r"(\x. write0 (x x)) (\x. write0 (x x)) * nil")
        q = parse_process(r"(\x. \y. write0 (x x y)) (\x. \y. write0 (x x y)) end * nil")
        assert weak_bisim(p, q, 1, 300) == Verdict.verified()
        _agrees_with_reference(p, q)

    def test_frontier_refutation_after_a_fuel_cut(self):
        p = parse_process(f"read ({GROWING}) (write0 end) end * nil")
        q = parse_process(f"read ((\\y. y) ({GROWING})) (write1 end) end * nil")
        assert weak_bisim(p, q, 1, 300) == Verdict.refuted((Action.R1, Action.W0))
        _agrees_with_reference(p, q)

    def test_refutation_reads_back_two_processes_per_popped_pair(self, monkeypatch):
        p = parse_process("read (read (write0 end) end end) end end * nil")
        q = parse_process("read (read (write1 end) end end) end end * nil")
        settled = []
        real = equivalence.settled_moves
        monkeypatch.setattr(equivalence, "settled_moves",
                            lambda x, fuel: settled.append(x) or real(x, fuel))
        calls = _count_read_backs(monkeypatch)
        assert weak_bisim(p, q, 6, 100) == Verdict.refuted((Action.R0, Action.R0, Action.W0))
        # two `settled_moves` calls per popped pair; the root needs no read-back
        assert len(calls) == len(settled) - 2 == 4

    def test_deep_search_does_not_overflow(self):
        p, q = parse_process(WRITE_CHAIN), parse_process(WRITE_CHAIN_SLOWER)
        assert weak_bisim(p, q, 1200) == Verdict.unknown("depth")

    def test_deep_numeral_pair_verified(self):
        p = parse_process("#2000 * end :: end :: nil")
        q = parse_process(r"(\z. z) (#2000) * end :: end :: nil")
        assert weak_bisim(p, q) == Verdict.verified()

    def test_negative_bounds_rejected(self):
        p = parse_process("end * nil")
        with pytest.raises(ValueError, match="^depth must be non-negative$"):
            weak_bisim(p, p, -1, 100)
        with pytest.raises(ValueError, match="^fuel must be non-negative$"):
            weak_bisim(p, p, 4, -1)
        # a depth of 2.5 once ran to a verdict, and a fuel of 2.5 verified
        # a process against itself but raised from `settle` on two
        # processes; a depth of True checked depth 1
        q = parse_process(OMEGA)
        for left, right in ((p, q), (p, p)):
            for bad in (2.5, True):
                kind = type(bad).__name__
                with pytest.raises(TypeError, match=f"^depth must be an integer, not {kind}$"):
                    weak_bisim(left, right, bad, 100)
                with pytest.raises(TypeError, match=f"^fuel must be an integer, not {kind}$"):
                    weak_bisim(left, right, 3, fuel=bad)


def _agrees_with_reference(p, q):
    """Same verdict and witness as the recursive search at every depth up to
    6; where the search that ignores the depth left decides, the same
    decision.  Every refutation replays (`_assert_replays`).  Small fuels
    put the stuck-or-fuel boundary of `machine.settled_moves` within reach
    of short silent chains."""
    for fuel in (0, 1, 2, 3, 300):
        for depth in range(7):
            verdict = weak_bisim(p, q, depth, fuel)
            assert verdict == reference.weak_bisim(p, q, depth, fuel), (fuel, depth)
            if verdict.is_refuted:
                _assert_replays(p, q, verdict.witness, fuel)
            depth_blind = reference.weak_bisim(p, q, depth, fuel, depth_aware=False)
            if not depth_blind.is_unknown:
                assert verdict.status == depth_blind.status, (fuel, depth)


def _assert_replays(p, q, witness, fuel):
    """The refutation `witness` of p against q, replayed through the
    reference `observable` menus at `fuel`: both sides offer each label
    of its prefix, and at its end, where both sides are settled, exactly
    one offers its last label (a silent side offers none)."""
    *prefix, last = witness
    for label in prefix:
        a, b = reference.observable(p, fuel), reference.observable(q, fuel)
        assert a.is_menu and b.is_menu and label in a.entries and label in b.entries, witness
        p, q = a.entries[label], b.entries[label]
    a, b = reference.observable(p, fuel), reference.observable(q, fuel)
    assert "unknown" not in (a.kind, b.kind), witness
    assert (a.is_menu and last in a.entries) != (b.is_menu and last in b.entries), witness


class TestWeakBisimReference:
    @given(gen.processes(), gen.processes())
    def test_random_processes(self, p, q):
        _agrees_with_reference(p, q)

    @given(gen.script_pairs())
    def test_scripts_differing_at_one_leaf(self, pair):
        _agrees_with_reference(*pair)


class TestBetaPositions:
    def test_root_redex(self):
        host = parse_process(r"(\x. x) end * nil")
        assert beta_redexes(host) == [("term",)]

    def test_no_redexes(self):
        assert beta_redexes(parse_process("end * nil")) == []

    def test_nested_redexes_in_preorder(self):
        host = parse_process(r"(\x. x) ((\y. y) end) * nil")
        assert beta_redexes(host) == [("term",), ("term", "arg")]

    def test_contract_root(self):
        host = parse_process(r"(\x. x) end * nil")
        assert beta_contract(host, ("term",)) == parse_process("end * nil")

    def test_contract_inside_stack(self):
        host = parse_process(r"read * ((\x. x) end) :: cc :: write0 :: nil")
        [pos] = beta_redexes(host)
        assert pos == (("stack", 0),)
        assert beta_contract(host, pos) == parse_process("read * end :: cc :: write0 :: nil")

    def test_contract_under_binder(self):
        host = parse_process(r"(\y. (\x. x) y) * nil")
        [pos] = beta_redexes(host)
        assert beta_contract(host, pos) == parse_process(r"(\y. y) * nil")

    def test_contract_inside_continuation(self):
        host = parse_process(r"kont{((\x. x) end) :: nil} * end :: nil")
        [pos] = beta_redexes(host)
        assert beta_contract(host, pos) == parse_process("kont{end :: nil} * end :: nil")

    def test_invalid_position_rejected(self):
        host = parse_process("end * nil")
        with pytest.raises(InvalidPosition):
            beta_contract(host, ("term",))
        with pytest.raises(InvalidPosition):
            beta_contract(host, ("term", "fun"))

    def test_saved_selector_does_not_address_a_process_stack(self):
        host = parse_process(r"read * ((\x. x) end) :: nil")
        with pytest.raises(InvalidPosition):
            beta_contract(host, (("saved", 0),))

    def test_redex_under_deep_applications(self):
        t = App(Abs("x", Var("x")), END)
        for _ in range(2000):
            t = App(CALLCC, t)
        host = Pair(t, EMPTY)
        pos = ("term",) + ("arg",) * 2000
        assert beta_redexes(host) == [pos]
        contracted = beta_contract(host, pos)
        assert subterm_at(contracted, pos) is END
        assert beta_redexes(contracted) == []

    @given(gen.processes())
    def test_redex_listing_matches_shape(self, p):
        for pos in beta_redexes(p):
            sub = subterm_at(p, pos)
            assert isinstance(sub, App) and isinstance(sub.fun, Abs)


class TestGammaSoundness:
    @given(gen.processes(), st.integers(0, 2**32 - 1))
    def test_contraction_never_refuted(self, p, seed):
        redexes = beta_redexes(p)
        if not redexes:
            return
        contracted = beta_contract(p, random.Random(seed).choice(redexes))
        assert not weak_bisim(p, contracted, 6, 2000).is_refuted


class TestTopEquiv:
    def test_execution_step_preserves_equivalence(self):
        verdict = top_equiv(ExecutionContext(parse_process("end * nil"), "", ""),
                            ExecutionContext(TOP, "", ""), 10)
        assert verdict.is_verified

    def test_differing_residual_input_refuted(self):
        verdict = top_equiv(ExecutionContext(parse_process("end * nil"), "", ""),
                            ExecutionContext(parse_process("end * nil"), "1", ""), 10)
        assert verdict.is_refuted

    def test_divergent_matches_stuck(self):
        verdict = top_equiv(ExecutionContext(parse_process(OMEGA), "", ""),
                            ExecutionContext(parse_process("read * nil"), "", ""), 1000)
        assert verdict.is_verified

    def test_terminating_vs_divergent_refuted(self):
        verdict = top_equiv(ExecutionContext(parse_process("end * nil"), "", ""),
                            ExecutionContext(parse_process(OMEGA), "", ""), 1000)
        assert verdict.is_refuted

    def test_bad_fuel_rejected(self):
        # a fuel of 2.5 once verified a context against itself, but raised
        # from `run` on two contexts
        c = ExecutionContext(parse_process("end * nil"), "", "")
        d = ExecutionContext(parse_process(OMEGA), "", "")
        for other in (c, d):
            with pytest.raises(TypeError, match="^fuel must be an integer, not float$"):
                top_equiv(c, other, fuel=2.5)
            with pytest.raises(ValueError, match="^fuel must be non-negative$"):
                top_equiv(c, other, -1)

    def test_growing_divergence_is_unknown(self):
        growing = parse_process(r"(\x. x x x) (\x. x x x) * nil")
        verdict = top_equiv(ExecutionContext(growing, "", ""),
                            ExecutionContext(parse_process("end * nil"), "", ""), 200)
        assert verdict.is_unknown

    @given(st.one_of(gen.contexts(), gen.silent_loops().map(ExecutionContext)),
           st.integers(0, 40))
    def test_classify_matches_reference(self, c, fuel):
        # a run that spends its fuel never reaches TOP if the reference
        # observable finds its residual silent
        result = reference.run(c, fuel)
        if result.outcome == "terminated":
            expected = "top", (result.final.input, result.final.output)
        elif (result.outcome == "stuck"
              or reference.observable(result.final.process, fuel).kind == "silent"):
            expected = "never", None
        else:
            expected = "unknown", None
        assert _classify(c, fuel) == expected

    @given(gen.contexts(), st.integers(1, 50))
    def test_run_prefix_is_top_equivalent(self, c, steps):
        # any context is TOP-equivalent to any point along its own run
        result = run(c, steps)
        assert not top_equiv(c, result.final, 5000).is_refuted


class TestExecutionLtsAgreement:
    @given(gen.contexts())
    def test_visible_trace_matches_resolved_lts(self, c):
        budget = 300
        result = run(c, budget)
        labels = gen.lts_resolved_labels(c.process, c.input, budget)
        assert result.visible_trace() == tuple(labels[:len(result.visible_trace())])
        if result.outcome in ("terminated", "stuck"):
            assert result.visible_trace() == tuple(labels)


class TestTopEquivReflexivity:
    def test_identical_contexts_verified_even_when_undecidable(self):
        growing = parse_process(r"(\x. x x x) (\x. x x x) * nil")
        c = ExecutionContext(growing, "", "")
        assert top_equiv(c, c, 100).is_verified
