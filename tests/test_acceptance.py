"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import gen
from kamio.cli import main as cli_main
from kamio.combinators import (
    B, C, E, F, H, S, W, Y, Z, compile_function, decode_numeral,
    R as READER,
)
from kamio.equivalence import (
    beta_contract, beta_redexes, lts_step, top_equiv, weak_bisim,
)
from kamio.machine import (
    Action, ExecutionContext, bin_nat, eval_step, exec_step_labeled, run,
)
from kamio.realizability import (
    ContextEntry, FinitePole, FunctionPole, IDENTITY, Predicate,
    RealizerList, Sequent, TracePole, TruthValue, check_entailment,
    consistency_probe, contract, falsity_sample, implication,
    modus_ponens, realizes, weaken, COPY,
)
from kamio.syntax import (
    App, CALLCC, EMPTY, END, Kont, Pair, TOP,
    church_numeral, effect_constants, parse_process, parse_stack, parse_term, stack_of,
)

FUEL = 10**6
FST = parse_term(r"\u. \v. u")


@contextmanager
def criterion(number, name, budget_seconds):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"[acceptance] {number:02d} {name}: PASS ({elapsed:.2f}s)")


def test_01_rule_fidelity():
    with criterion(1, "rule fidelity", 1.0):
        # evaluation: push, pop, save, restore
        assert eval_step(Pair(App(END, CALLCC), EMPTY)) == Pair(END, stack_of(CALLCC))
        assert eval_step(parse_process(r"(\x. x) * end :: nil")) == \
            parse_process("end * nil")
        assert eval_step(parse_process(r"cc * (\x. x) :: end :: nil")) == \
            parse_process(r"(\x. x) * kont{end :: nil} :: end :: nil")
        assert eval_step(parse_process(r"kont{write0 :: nil} * end :: cc :: nil")) == \
            parse_process("end * write0 :: nil")

        # execution: tau, r0, r1, reps, w0, w1, e
        def step(text, inp, out):
            return exec_step_labeled(ExecutionContext(parse_process(text), inp, out))

        assert step(r"(\x. x) end * nil", "0", "1") == \
            (Action.TAU, ExecutionContext(parse_process(r"(\x. x) * end :: nil"), "0", "1"))
        three = "end :: cc :: write0 :: nil"
        assert step(f"read * {three}", "01", "") == \
            (Action.R0, ExecutionContext(parse_process("end * nil"), "1", ""))
        assert step(f"read * {three}", "10", "") == \
            (Action.R1, ExecutionContext(parse_process("cc * nil"), "0", ""))
        assert step(f"read * {three}", "", "1") == \
            (Action.REPS, ExecutionContext(parse_process("write0 * nil"), "", "1"))
        assert step("write0 * end :: nil", "1", "1") == \
            (Action.W0, ExecutionContext(parse_process("end * nil"), "1", "01"))
        assert step("write1 * end :: nil", "1", "0") == \
            (Action.W1, ExecutionContext(parse_process("end * nil"), "1", "10"))
        assert step("end * cc :: nil", "1", "0") == \
            (Action.E, ExecutionContext(TOP, "1", "0"))

        # labeled transition system: the four tau rules, three read rules,
        # two write rules, and the end rule
        assert lts_step(Pair(App(END, CALLCC), EMPTY)) == \
            ((Action.TAU, Pair(END, stack_of(CALLCC))),)
        assert lts_step(parse_process(r"(\x. x) * end :: nil")) == \
            ((Action.TAU, parse_process("end * nil")),)
        assert lts_step(parse_process(r"cc * (\x. x) :: end :: nil")) == \
            ((Action.TAU, parse_process(r"(\x. x) * kont{end :: nil} :: end :: nil")),)
        assert lts_step(parse_process(r"kont{write0 :: nil} * end :: nil")) == \
            ((Action.TAU, parse_process("end * write0 :: nil")),)
        reads = dict(lts_step(parse_process(f"read * {three}")))
        assert reads == {
            Action.R0: parse_process("end * nil"),
            Action.R1: parse_process("cc * nil"),
            Action.REPS: parse_process("write0 * nil"),
        }
        assert dict(lts_step(parse_process("write0 * end :: nil"))) == \
            {Action.W0: parse_process("end * nil")}
        assert dict(lts_step(parse_process("write1 * cc :: nil"))) == \
            {Action.W1: parse_process("cc * nil")}
        assert lts_step(parse_process("end * cc :: nil")) == ((Action.E, TOP),)
        assert lts_step(TOP) == ()


def test_02_determinism():
    with criterion(2, "execution determinism", 5.0):
        rng = random.Random(20250811)
        budget = 300
        for _ in range(1000):
            c = gen.random_context(rng)
            matched = gen.matching_clauses(c)
            assert len(matched) <= 1, (str(c), matched)
            step = exec_step_labeled(c)
            assert (step is None) == (not matched)
            if matched:
                assert step[0] == matched[0]
            result = run(c, budget)
            labels = gen.lts_resolved_labels(c.process, c.input, budget)
            visible = result.visible_trace()
            if result.outcome == "fuel":
                assert visible == tuple(labels[:len(visible)])
            else:
                assert visible == tuple(labels)


def test_03_combinator_contracts():
    with criterion(3, "combinator contracts", 30.0):
        three, seven = church_numeral(3), church_numeral(7)
        for n in range(65):
            numeral = church_numeral(n)
            assert decode_numeral(App(B, numeral), FUEL) == 2 * n
            assert decode_numeral(App(C, numeral), FUEL) == 2 * n + 1
            assert decode_numeral(App(H, numeral), FUEL) == n // 2
            assert decode_numeral(App(S, numeral), FUEL) == n + 1
            assert decode_numeral(App(App(App(Z, numeral), three), seven), FUEL) == \
                (3 if n == 0 else 7)
            assert decode_numeral(App(App(App(E, numeral), three), seven), FUEL) == \
                (3 if n % 2 == 0 else 7)


def test_04_reader_lemma():
    with criterion(4, "reader lemma", 30.0):
        tail = stack_of(F, W, church_numeral(0))
        for n in range(65):
            verdict = top_equiv(
                ExecutionContext(Pair(READER, tail), bin_nat(n), ""),
                ExecutionContext(Pair(church_numeral(n), tail), "", ""), FUEL)
            assert verdict.is_verified, (n, verdict)


def test_05_writer_lemma():
    with criterion(5, "writer lemma", 30.0):
        inputs = ["", "1", "00", "101", "111000"]
        for n in range(65):
            process = Pair(App(W, church_numeral(n)), EMPTY)
            for inp in inputs:
                result = run(ExecutionContext(process, inp, ""), FUEL)
                assert result.terminated, (n, inp)
                assert result.final == ExecutionContext(TOP, inp, bin_nat(n)), (n, inp)


def test_06_storage_law():
    with criterion(6, "storage law", 30.0):
        from kamio.combinators import storage_apply
        tail = stack_of(F, W, church_numeral(0))
        for t in (IDENTITY, S, B):
            for n in range(33):
                staged = run(ExecutionContext(storage_apply(t, n), "", ""), FUEL)
                direct = run(ExecutionContext(Pair(App(t, church_numeral(n)), tail), "", ""), FUEL)
                assert staged.terminated and direct.terminated, (pretty_name(t), n)
                assert staged.final.output == direct.final.output, (pretty_name(t), n)


def pretty_name(t):
    from kamio.syntax import pretty
    return pretty(t)


def test_07_turing_demo(tmp_path, capsys):
    with criterion(7, "function implementation demo", 60.0):
        doubling_text = r"\n. n (\m. S (S m)) #0"
        cases = [
            ("identity", r"\x. x", lambda n: n),
            ("successor", "S", lambda n: n + 1),
            ("doubling", doubling_text, lambda n: 2 * n),
        ]
        for name, source, f in cases:
            lam = tmp_path / f"{name}.lam"
            lam.write_text(source + "\n", encoding="utf-8")
            compiled = tmp_path / f"{name}.kam"
            code = cli_main(["compile-fn", str(lam), "-o", str(compiled), "--prelude"])
            assert code == 0, name
            table = tmp_path / f"{name}.tsv"
            table.write_text("".join(f"{n}\t{f(n)}\n" for n in range(33)), encoding="utf-8")
            code = cli_main(["verify-impl", str(compiled), "--table", str(table),
                             "--fuel", str(FUEL), "--format", "json"])
            out = capsys.readouterr().out
            assert code == 0, (name, out)
            payload = json.loads(out)
            assert payload["verdict"]["status"] == "verified"
            assert all(row["status"] == "verified" for row in payload["rows"])


def _random_redex_pair(rng, size=30):
    while True:
        p = gen.random_process(rng, size)
        redexes = beta_redexes(p)
        if redexes:
            return p, beta_contract(p, rng.choice(redexes))


def test_08_gamma_equivalence():
    with criterion(8, "single contraction is bisimulation-sound", 60.0):
        rng = random.Random(42)
        fuel = 20_000
        verified = 0
        for _ in range(100):
            p, contracted = _random_redex_pair(rng)
            verdict = weak_bisim(p, contracted, 8, fuel)
            assert not verdict.is_refuted, (str(p), str(contracted), verdict)
            if verdict.is_verified:
                verified += 1
            else:
                # unknown must be attributable to an unresolved observable
                # or to depth exhaustion, never to a genuine mismatch
                assert verdict.reason in ("fuel", "depth")
        assert verified >= 60  # the bulk of random pairs resolve fully


def test_09_corollary_bridge():
    with criterion(9, "bisimilarity implies TOP-equivalence", 60.0):
        rng = random.Random(99)
        inputs = ["", "1", "10", "011", "1101"]
        outputs = ["", "0", "11"]
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 3000:
            attempts += 1
            p, q = _random_redex_pair(rng, size=20)
            depth = max(len(i) for i in inputs) + 2
            if not weak_bisim(p, q, depth, 20_000).is_verified:
                continue
            for inp, out in itertools.product(inputs, outputs):
                verdict = top_equiv(ExecutionContext(p, inp, out),
                                    ExecutionContext(q, inp, out), 50_000)
                assert not verdict.is_refuted, (str(p), str(q), inp, out)
            checked += 1
        assert checked == 50


def test_10_copy_pole():
    with criterion(10, "copy-discipline pole membership", 60.0):
        copier = Pair(Y, stack_of(parse_term(r"\x. read (write0 x) (write1 x) end")))
        pole = TracePole(COPY, max_input_len=8, fuel=100_000)
        assert sum(1 for _ in _all_inputs_len(8)) == 511
        verdict = pole.member(copier)
        assert verdict.is_verified, verdict


def _all_inputs_len(max_len):
    from kamio.realizability import all_inputs
    return all_inputs(max_len)


def _battery():
    """Ten finite-pole entailment scenarios whose realizer lists are sound
    by construction (seeds are exactly the probed chain targets)."""
    scenarios = []
    snd = parse_term(r"\u. \v. v u")

    def sequent(pole, context_lists, stacks, candidate):
        conclusion = Predicate.of({"i": TruthValue.of(stacks)})
        context = tuple(ContextEntry(conclusion, {"i": RealizerList.of(terms)})
                        for terms in context_lists)
        return pole, Sequent(context, conclusion, candidate)

    # axiom, twice with different base terms and conclusion stacks
    pole = FinitePole.of([Pair(FST, EMPTY)], 2000)
    scenarios.append(("Ax/fst", *sequent(pole, [[FST]], [EMPTY], IDENTITY)))
    pole = FinitePole.of([Pair(IDENTITY, stack_of(END))], 2000)
    scenarios.append(("Ax/id", *sequent(pole, [[IDENTITY]], [stack_of(END)],
                                        IDENTITY)))

    # weakening: an extra hypothesis is discarded
    pole = FinitePole.of([Pair(FST, EMPTY)], 2000)
    scenarios.append(("Weaken/ax", *sequent(
        pole, [[IDENTITY], [FST]], [EMPTY],
        weaken(IDENTITY))))
    pole = FinitePole.of([Pair(snd, stack_of(CALLCC))], 2000)
    scenarios.append(("Weaken/other", *sequent(
        pole, [[CALLCC], [snd]], [stack_of(CALLCC)],
        weaken(IDENTITY))))

    # contraction: one hypothesis feeds both copies
    pole = FinitePole.of([Pair(FST, EMPTY)], 2000)
    scenarios.append(("Contract/fst", *sequent(
        pole, [[FST]], [EMPTY], contract(FST))))
    second_projector = parse_term(r"\a. \b. b")
    pole = FinitePole.of([Pair(FST, EMPTY)], 2000)
    scenarios.append(("Contract/snd", *sequent(
        pole, [[FST]], [EMPTY], contract(second_projector))))

    # modus-ponens composition
    drop_then_arg = parse_term(r"\d. \s. s")
    pole = FinitePole.of([Pair(FST, EMPTY)], 2000)
    scenarios.append(("ImpE/1+1", *sequent(
        pole, [[FST], [IDENTITY]], [EMPTY],
        modus_ponens(drop_then_arg, IDENTITY, n=1, m=1))))
    two_arg_fst = parse_term(r"\a. \b. a")
    pole = FinitePole.of([Pair(FST, EMPTY)], 2000)
    scenarios.append(("ImpE/2+1", *sequent(
        pole, [[FST], [IDENTITY], [IDENTITY]], [EMPTY],
        modus_ponens(drop_then_arg, two_arg_fst, n=2, m=1))))

    # Peirce: one context realizer ignores the continuation, one invokes it
    pole = FinitePole.of([Pair(FST, EMPTY)], 2000)
    scenarios.append(("Peirce/discard", *sequent(
        pole, [[parse_term(r"\k. \u. \v. u")]], [EMPTY], CALLCC)))
    pole = FinitePole.of([Pair(FST, EMPTY)], 2000)
    scenarios.append(("Peirce/invoke", *sequent(
        pole, [[parse_term(r"\k. k (\u. \v. u)")]], [EMPTY], CALLCC)))

    assert len(scenarios) == 10
    return scenarios


def test_11_rule_realizers():
    with criterion(11, "entailment rule battery", 30.0):
        for name, pole, seq in _battery():
            verdict = check_entailment(pole, seq, 2000)
            assert verdict.is_verified, (name, verdict)

        # continuation lemma: kont{pi} realizes S => falsity for pi in S
        rng = random.Random(5)
        rho_samples = [EMPTY, stack_of(END), stack_of(CALLCC, END)]
        for trial in range(5):
            stacks = [gen.random_stack(rng) for _ in range(2)]
            base = gen.random_term(rng, 4, (), effects=True)
            pole = FinitePole.of([Pair(base, pi) for pi in stacks], 5000)
            realizer_list = RealizerList.of([base])
            for pi in stacks:
                negation = implication(realizer_list, falsity_sample(rho_samples))
                verdict = realizes(pole, Kont(pi), negation, 5000)
                assert not verdict.is_refuted, (trial, verdict)


def test_12_consistency():
    with criterion(12, "consistency of the identity-function pole", 30.0):
        pole = FunctionPole.of({n: n for n in range(9)})
        candidates = [IDENTITY, FST, CALLCC]
        samples = [EMPTY, parse_stack("end :: nil"), parse_stack(r"(\x. x) :: nil")]
        member = compile_function(IDENTITY)
        report = consistency_probe(pole, candidates, samples, FUEL,
                                   member_samples=[member])
        for candidate, verdict in report.candidates:
            assert verdict.is_refuted, (candidate, verdict)
        assert not report.violations
        assert member in report.members
        for process in report.members:
            assert "end" in effect_constants(process)
