import pytest
from hypothesis import given
import hypothesis.strategies as st

from kamio.combinators import (
    B, C, E, F, H, Q, R, S, W, Y, Z,
    COMBINATORS, MalformedOutput, PRELUDE_SOURCE,
    compile_function, decode_numeral, load_prelude,
    prelude_definitions, reader_process, resolve_names, storage_apply,
)
from kamio.equivalence import top_equiv, weak_bisim
from kamio.machine import ExecutionContext, bin_nat, run
from kamio.realizability import FunctionPole
from kamio.syntax import (
    App, NotProofLike, Pair, READ, Var, WRITE0,
    church_numeral, effect_constants, is_proof_like, parse_term, stack_of,
)

FUEL = 10**6


def decode(t, fuel=FUEL):
    return decode_numeral(t, fuel)


class TestChurch:
    def test_zero(self):
        assert church_numeral(0) == parse_term(r"\f. \x. x")

    def test_two(self):
        assert church_numeral(2) == parse_term(r"\f. \x. f (f x)")

    @given(st.integers(0, 40))
    def test_closed_and_proof_like(self, n):
        t = church_numeral(n)
        assert not t.fvs
        assert is_proof_like(t)


class TestDecodeNumeral:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 64])
    def test_decodes_numerals(self, n):
        assert decode(church_numeral(n)) == n

    def test_decodes_through_beta(self):
        assert decode(App(B, church_numeral(3))) == 6

    def test_identity_term_acts_as_one(self):
        # \x. x applies like the numeral 1, so the writer observes 1
        assert decode(parse_term(r"\x. x")) == 1

    def test_cc_is_malformed(self):
        with pytest.raises(MalformedOutput):
            decode(parse_term("cc"), 10_000)

    def test_non_numeral_is_unknown(self):
        assert decode(parse_term(r"\x. \y. x"), 10_000) is None
        assert decode(parse_term(r"(\x. x x) (\x. x x)"), 10_000) is None


class TestArithmeticContracts:
    @pytest.mark.parametrize("n", list(range(0, 17)) + [31, 64])
    def test_doubling_increment_halving(self, n):
        assert decode(App(B, church_numeral(n))) == 2 * n
        assert decode(App(C, church_numeral(n))) == 2 * n + 1
        assert decode(App(H, church_numeral(n))) == n // 2
        assert decode(App(S, church_numeral(n))) == n + 1

    @pytest.mark.parametrize("n", range(0, 9))
    def test_parity_and_zero_branching(self, n):
        three, seven = church_numeral(3), church_numeral(7)
        assert (decode(App(App(App(E, church_numeral(n)), three), seven))
                == (3 if n % 2 == 0 else 7))
        assert decode(App(App(App(Z, church_numeral(n)), three), seven)) == (3 if n == 0 else 7)

    def test_fixed_point_unfolds(self):
        # Y g ~ g (Y g): both sides write the same bit when g ignores its argument
        g = parse_term(r"\r. #5")
        assert decode(App(Y, g)) == 5


class TestCombinatorSyntax:
    def test_pure_combinators_are_proof_like(self):
        for name in ("B", "C", "H", "S", "E", "Z", "Y", "F"):
            assert is_proof_like(COMBINATORS[name]), name

    def test_reader_contains_read(self):
        assert effect_constants(Q) == frozenset({"read"})
        assert "read" in effect_constants(R)

    def test_writer_contains_writes_and_end(self):
        for name in ("V", "W"):
            assert effect_constants(COMBINATORS[name]) >= {"write0", "write1", "end"}

    def test_all_closed(self):
        for name, term in COMBINATORS.items():
            assert not term.fvs, name


class TestStorage:
    def test_identity_forces_the_numeral(self):
        result = run(ExecutionContext(storage_apply(parse_term(r"\x. x"), 4), "", ""), FUEL)
        assert result.terminated
        assert result.final.output == bin_nat(4)

    def test_successor_through_storage(self):
        result = run(ExecutionContext(storage_apply(S, 4), "", ""), FUEL)
        assert result.terminated
        assert result.final.output == bin_nat(5)

    def test_doubling_zero(self):
        result = run(ExecutionContext(storage_apply(B, 0), "", ""), FUEL)
        assert result.terminated
        assert result.final.output == ""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])
    def test_matches_direct_application(self, n):
        tail = stack_of(F, W, church_numeral(0))
        for t in (parse_term(r"\x. x"), S, B):
            staged = run(ExecutionContext(storage_apply(t, n), "", ""), FUEL)
            direct = run(ExecutionContext(Pair(App(t, church_numeral(n)), tail), "", ""), FUEL)
            assert staged.terminated and direct.terminated
            assert staged.final.output == direct.final.output


class TestReader:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 13])
    def test_echoes_value_through_writer(self, n):
        tail = stack_of(F, W, church_numeral(0))
        result = run(ExecutionContext(reader_process(tail), bin_nat(n), ""), FUEL)
        assert result.terminated
        assert result.final.input == ""
        assert result.final.output == bin_nat(n)

    def test_empty_input_reads_zero(self):
        tail = stack_of(F, W, church_numeral(0))
        result = run(ExecutionContext(reader_process(tail), "", ""), FUEL)
        assert result.terminated
        assert result.final.output == ""

    @pytest.mark.parametrize("n", [0, 1, 3, 9, 16])
    def test_reader_lemma_instance(self, n):
        tail = stack_of(F, W, church_numeral(0))
        verdict = top_equiv(ExecutionContext(Pair(R, tail), bin_nat(n), ""),
                            ExecutionContext(Pair(church_numeral(n), tail), "", ""), FUEL)
        assert verdict.is_verified, (n, verdict)


class TestWriter:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 21])
    @pytest.mark.parametrize("inp", ["", "0", "110"])
    def test_writer_lemma_instance(self, n, inp):
        result = run(ExecutionContext(Pair(App(W, church_numeral(n)), stack_of()), inp, ""), FUEL)
        assert result.terminated
        assert result.final.input == inp
        assert result.final.output == bin_nat(n)

    def test_writer_ignores_its_stack(self):
        proc = Pair(App(W, church_numeral(6)), stack_of(READ))
        result = run(ExecutionContext(proc, "", ""), FUEL)
        assert result.terminated
        assert result.final.output == bin_nat(6)


class TestCompileFunction:
    def test_identity_on_bits(self):
        p = compile_function(parse_term(r"\x. x"))
        result = run(ExecutionContext(p, "10", ""), FUEL)
        assert result.terminated
        assert (result.final.input, result.final.output) == ("", "10")

    def test_successor(self):
        p = compile_function(S)
        result = run(ExecutionContext(p, "11", ""), FUEL)
        assert result.terminated
        assert result.final.output == "100"

    def test_doubling_by_iteration(self):
        dbl = parse_term(resolve_names(r"\n. n (\m. S (S m)) #0",
                                       prelude_definitions(PRELUDE_SOURCE)))
        pole = FunctionPole.of({n: 2 * n for n in range(9)}, FUEL)
        verdict = pole.member(compile_function(dbl))
        assert verdict.is_verified and verdict.sampled

    def test_no_residual_input_on_success(self):
        p = compile_function(S)
        for n in (0, 1, 5):
            result = run(ExecutionContext(p, bin_nat(n), ""), FUEL)
            assert result.terminated and result.final.input == ""

    def test_deep_numeral_compiles(self):
        t = church_numeral(2000)
        assert compile_function(t).stack.tail.head is t

    def test_effectful_term_rejected(self):
        with pytest.raises(NotProofLike):
            compile_function(App(WRITE0, church_numeral(1)))

    def test_open_term_rejected(self):
        with pytest.raises(ValueError):
            compile_function(Var("x"))


class TestPrelude:
    def test_roundtrip_via_text(self):
        defs = prelude_definitions(PRELUDE_SOURCE)
        assert parse_term(defs["Y"]) == Y
        assert parse_term(defs["W"]) == W

    def test_resolve_names_is_word_bounded(self):
        defs = {"S": r"\n. \f. \x. f (n f x)"}
        out = resolve_names("Splus S", defs)
        assert out.startswith("Splus (")

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            load_prelude("A = B x\nB = \\x. x\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            prelude_definitions("not a definition\n")

    def test_numeral_contract_against_spec_table(self):
        # one joint sanity row: C = S . B pointwise on a sample value
        n = 11
        assert decode(App(C, church_numeral(n))) == decode(App(S, App(B, church_numeral(n))))


class TestBisimulationFacts:
    def test_compiled_identity_bisimilar_to_itself_after_contraction(self):
        from kamio.equivalence import beta_contract, beta_redexes
        p = compile_function(parse_term(r"\x. x"))
        redexes = beta_redexes(p)
        assert redexes
        contracted = beta_contract(p, redexes[0])
        assert not weak_bisim(p, contracted, 6, 50_000).is_refuted
