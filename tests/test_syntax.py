import random
import time
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import gen
import reference_machine as reference
from kamio.syntax import (
    Abs, App, CALLCC, ClosednessError, Const, END, EMPTY, InvalidPosition, Kont, Pair,
    ParseError, READ, Stack, TOP, Term, Var, WRITE0, WRITE1, church_numeral, effect_constants,
    _parse, is_proof_like, parse_process, parse_stack, parse_term,
    pretty, replace_at, stack_of, substitute, subterm_at, subterms,
)

DEEP = 2000  # nesting well past the default recursion limit
LONG = 100_000  # stack entries

VALUES = st.one_of(gen.open_terms(), gen.stacks(), gen.processes())


def lambda_chain(names, body: str):
    """\\names[0]. ... \\names[-1]. body, built without recursion."""
    t = Var(body)
    for name in reversed(names):
        t = Abs(name, t)
    return t


def nested_kont(depth: int, core):
    t = core
    for _ in range(depth):
        t = Kont(stack_of(t))
    return t


class TestParseTerm:
    def test_identity(self):
        assert parse_term(r"\x. x") == Abs("x", Var("x"))

    def test_application_left_associative(self):
        t = parse_term("read (write0 end) (write1 end) end")
        expected = App(App(App(READ, App(WRITE0, END)), App(WRITE1, END)), END)
        assert t == expected

    def test_curry_fixed_point(self):
        y = parse_term(r"\f. (\x. f (x x)) (\x. f (x x))")
        half = Abs("x", App(Var("f"), App(Var("x"), Var("x"))))
        assert y == Abs("f", App(half, half))

    def test_lambda_body_extends_right(self):
        assert parse_term(r"\x. x x") == Abs("x", App(Var("x"), Var("x")))

    def test_church_sugar(self):
        assert parse_term("#0") == Abs("f", Abs("x", Var("x")))
        assert parse_term("#2") == church_numeral(2)
        assert parse_term("# 3") == church_numeral(3)

    def test_comments_and_whitespace(self):
        assert parse_term("cc -- a comment\n") is CALLCC
        assert parse_term("  ( \n cc )  ") is CALLCC

    def test_kont_atom(self):
        t = parse_term("kont{end :: nil}")
        assert t == Kont(stack_of(END))

    def test_alpha_equivalence_of_parses(self):
        assert parse_term(r"\x. x") == parse_term(r"\y. y")
        assert parse_term(r"\x. \y. x") != parse_term(r"\x. \y. y")

    def test_alpha_equivalence_under_shadowing(self):
        # shadowed binders must not collapse distinct references
        assert parse_term(r"\x. \x. \y. x") != parse_term(r"\x. \x. \y. y")
        assert parse_term(r"\x. \x. x") == parse_term(r"\a. \b. b")
        assert parse_term(r"\x. \x. x") != parse_term(r"\a. \b. a")
        left = parse_term(r"\x. \x. \y. x")
        right = parse_term(r"\a. \b. \c. b")
        assert left == right
        assert hash(left) == hash(right)

    def test_reserved_words_rejected_as_binders(self):
        for word in ("cc", "read", "write0", "write1", "end", "nil", "TOP", "kont"):
            with pytest.raises(ParseError):
                parse_term(rf"\{word}. {word}")

    def test_nil_is_not_a_term(self):
        with pytest.raises(ParseError):
            parse_term("nil")

    def test_error_carries_position_and_expectations(self):
        with pytest.raises(ParseError) as info:
            parse_term("\\x.\n)")
        assert info.value.line == 2
        assert info.value.col == 1
        assert info.value.expected

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_term("cc )")

    def test_kont_entries_must_be_closed(self):
        with pytest.raises(ClosednessError):
            parse_term(r"\x. kont{x :: nil}")

    def test_long_lambda_chain(self):
        names = [f"a{i}" for i in range(10_000)]
        chain = lambda_chain(names, "a0")
        text = "".join(f"\\{name}. " for name in names) + "a0"
        assert parse_term(text) == chain
        assert parse_term(pretty(chain)) == chain

    def test_reserved_word_at_a_later_binder(self):
        with pytest.raises(ParseError) as info:
            parse_term(r"\x. \nil. x")
        assert str(info.value) == \
            "1:6: reserved word 'nil' cannot be a variable name (expected identifier)"
        assert (info.value.line, info.value.col) == (1, 6)
        with pytest.raises(ParseError) as info:
            parse_term(r"\x. \y \z. x")
        assert str(info.value) == "1:8: expected '.', found '\\\\' (expected .)"

    @pytest.mark.parametrize("text, message", [
        # a comment's contents are not checked, and positions after it are right
        ("x -- $ \u00e9\n )", "2:2: unexpected trailing input ')' (expected end of input)"),
        ("#\u0663", "1:2: unexpected character '\u0663'"),
        ("\\\u00e9. x", "1:2: unexpected character '\u00e9'"),
        ("x : y", "1:3: unexpected character ':'"),
    ], ids=["after-comment", "non-ascii-digit", "non-ascii-letter", "lone-colon"])
    def test_lexer_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_term(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("goal, text, message", [
        ("term", "x 5", "1:3: unexpected trailing input '5' (expected end of input)"),
        ("term", "x {", "1:3: unexpected trailing input '{' (expected end of input)"),
        ("term", "x .", "1:3: unexpected trailing input '.' (expected end of input)"),
        ("term", "#x", "1:2: expected a number after '#', found 'x' (expected natural number)"),
        ("term", "x nil", "1:3: unexpected trailing input 'nil' (expected end of input)"),
        ("term", "x TOP", "1:3: unexpected trailing input 'TOP' (expected end of input)"),
        ("term", "kont x", "1:6: expected '{', found 'x' (expected {)"),
        ("term", "\\nil. x",
         "1:2: reserved word 'nil' cannot be a variable name (expected identifier)"),
        ("stack", "end 5 :: nil", "1:5: expected '::', found '5' (expected ::)"),
        ("process", "end . nil", "1:5: expected '*', found '.' (expected *)"),
        ("term", "(end 5)", "1:6: expected ')', found '5' (expected ))"),
        ("term", "kont{end :: nil x", "1:17: expected '}', found 'x' (expected })"),
    ], ids=["number-after-atom", "brace-after-atom", "dot-after-atom", "hash-name",
            "nil-after-atom", "top-after-atom", "kont-without-brace", "nil-binder",
            "number-in-stack", "dot-after-head", "number-in-parens", "name-after-kont-stack"])
    def test_messages_after_an_atom(self, goal, text, message):
        with pytest.raises(ParseError) as info:
            _parse(text, goal)
        assert str(info.value) == message

    def test_one_node_per_name_and_numeral(self):
        t = parse_term(r"(\x. x (\y. x y) y) #2 #2")
        body = t.fun.fun.body
        x, inner, y = body.fun.fun, body.fun.arg.body, body.arg
        assert x is inner.fun and y is inner.arg
        for numeral in (t.fun.arg, t.arg):
            assert numeral == church_numeral(2)
            assert pretty(numeral) == pretty(church_numeral(2))


def parse_outcome(parse, *args):
    """What parse(*args) gives: the kind and printed text of its value, or
    the error it raised, with a ParseError's position and expectations."""
    try:
        value = parse(*args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col, exc.expected)
    except ClosednessError as exc:
        return ("ClosednessError", str(exc))
    return (type(value).__name__, pretty(value))


class TestParser:
    """The one-loop `_parse` against the recursive-descent parser it
    replaced, kept in `reference_machine`."""

    ORACLES = (("term", reference.parse_term), ("stack", reference.parse_stack),
               ("process", reference.parse_process), ("any", reference.parse_term_or_process))

    def test_matches_reference(self):
        # each side tokenizes with its own `_tokenize`, so an error's line
        # and column are compared end to end
        rng = random.Random(11)
        printed = [gen.printed_tokens(rng) for _ in range(500)]
        texts = set()
        while len(texts) < 100_000:
            texts.add(gen.random_text(rng, printed))
        kinds = Counter()
        for text in sorted(texts):
            for goal, oracle in self.ORACLES:
                outcome = parse_outcome(_parse, text, goal)
                assert outcome == parse_outcome(oracle, text), (goal, text)
                kinds[goal, outcome[0] if outcome[0].endswith("Error") else "value"] += 1
                if outcome[0] == "ParseError" and "unexpected character" in outcome[1]:
                    kinds[goal, "bad character"] += 1
        for goal, _ in self.ORACLES:  # each entry point met values, both errors and bad characters
            for kind in ("value", "ParseError", "ClosednessError", "bad character"):
                assert kinds[goal, kind] >= 100, (goal, kind, kinds)

    def test_term_or_process(self):
        assert _parse("TOP", "any") is TOP
        assert _parse("end * nil", "any") == Pair(END, EMPTY)
        assert _parse("end", "any") is END
        for text, expected in (("TOP end", "1:5: unexpected trailing input 'end'"),
                               ("end *", "1:6: expected a term, found 'end of input'"),
                               ("end )", "1:5: unexpected trailing input ')'")):
            with pytest.raises(ParseError) as info:
                _parse(text, "any")
            assert str(info.value).startswith(expected)
        with pytest.raises(ClosednessError):
            _parse("x * nil", "any")

    @pytest.mark.parametrize("shape", ["left_apps", "right_apps", "heads", "konts"])
    def test_round_trip_at_depth(self, shape):
        t = Var("x") if shape != "konts" else END
        for _ in range(10_000):
            if shape == "left_apps":
                t = App(t, END)  # prints as x end end ... end
            elif shape == "right_apps":
                t = App(CALLCC, t)  # prints as cc (cc (... x))
            elif shape == "heads":
                t = App(Abs("x", t), END)  # prints as (\x. (\x. ... end) end) end
            else:
                t = Kont(stack_of(t, CALLCC))  # prints as kont{kont{... :: cc :: nil} :: cc :: nil}
        assert parse_term(pretty(t)) == t
        pair = Pair(Abs("x", t), stack_of(Abs("x", t)))
        assert parse_process(pretty(pair)) == pair

    def test_deep_parentheses(self):
        assert parse_term("(" * 10_000 + "end" + ")" * 10_000) is END
        assert parse_process("(" * 10_000 + r"\x. x" + ")" * 10_000 + " * nil") == \
            Pair(Abs("x", Var("x")), EMPTY)
        with pytest.raises(ParseError) as info:
            parse_term("(" * 10_000 + "end" + ")" * 9_999)
        assert str(info.value) == "1:20003: expected ')', found 'end of input' (expected ))"


class TestParseProcess:
    def test_end_nil(self):
        assert parse_process("end * nil") == Pair(END, EMPTY)

    def test_top(self):
        assert parse_process("TOP") is TOP

    def test_lambda_head(self):
        p = parse_process(r"(\x. x) * end :: nil")
        assert p == Pair(Abs("x", Var("x")), stack_of(END))

    def test_head_must_be_closed(self):
        with pytest.raises(ClosednessError) as exc:
            parse_process("x * nil")
        assert str(exc.value) == "process head has free variables ['x']: x"

    def test_stack_entries_must_be_closed(self):
        with pytest.raises(ClosednessError):
            parse_process("end * y :: nil")

    def test_parse_stack(self):
        s = parse_stack("end :: cc :: nil")
        assert list(s) == [END, CALLCC]


class TestPretty:
    def test_process(self):
        assert pretty(Pair(END, EMPTY)) == "end * nil"

    def test_kont_surface_form(self):
        assert pretty(Kont(stack_of(END))) == "kont{end :: nil}"

    def test_self_application(self):
        assert pretty(Abs("x", App(Var("x"), Var("x")))) == r"\x. x x"

    def test_minimal_parens_in_applications(self):
        t = parse_term(r"(\x. x) ((\y. y) end)")
        assert pretty(t) == r"(\x. x) ((\y. y) end)"
        assert pretty(parse_term("a b c")) == "a b c"
        assert pretty(parse_term("a (b c)")) == "a (b c)"

    @given(gen.closed_terms())
    def test_round_trip_terms(self, t):
        assert parse_term(pretty(t)) == t

    @given(gen.open_terms())
    def test_round_trip_open_terms(self, t):
        assert parse_term(pretty(t)) == t

    @given(gen.processes())
    def test_round_trip_processes(self, p):
        assert parse_process(pretty(p)) == p

    @given(VALUES)
    def test_matches_reference(self, x):
        assert pretty(x) == reference.pretty(x)

    def test_deep_numeral(self):
        assert pretty(church_numeral(500)) == r"\f. \x. " + "f (" * 499 + "f x" + ")" * 499

    def test_lambda_chain(self):
        names = [f"a{i}" for i in range(DEEP)]
        text = pretty(lambda_chain(names, "a0"))
        assert text == "".join(f"\\{n}. " for n in names) + "a0"

    def test_errors(self):
        with pytest.raises(TypeError, match="^cannot print 5$"):
            pretty(5)
        with pytest.raises(ValueError, match="^Church numerals are defined for naturals only$"):
            church_numeral(-1)


class TestSubstitute:
    def test_replaces_free_occurrence(self):
        assert substitute(Var("x"), "x", END) is END

    def test_capture_avoidance_renames(self):
        result = substitute(Abs("y", Var("x")), "x", Var("y"))
        assert isinstance(result, Abs)
        assert result.param != "y"
        assert result.body == Var("y")
        assert result == parse_term(r"\z. y")  # alpha-equal reading

    def test_renaming_skips_taken_names(self):
        # y is free in the argument and y1 in the body, so the binder is y2
        result = substitute(parse_term(r"\y. x y1"), "x", Var("y"))
        assert pretty(result) == r"\y2. y y1"

    def test_bound_occurrences_shadow(self):
        t = Abs("x", Var("x"))
        assert substitute(t, "x", END) == t

    @given(gen.open_terms(), gen.closed_terms(max_size=8))
    def test_free_variable_bookkeeping(self, body, arg):
        before = body.fvs
        result = substitute(body, "x", arg)
        if "x" in before:
            assert result.fvs == (before - {"x"}) | arg.fvs
        else:
            assert result == body

    @given(gen.open_terms(), gen.closed_terms(max_size=8, effects=False))
    def test_proof_like_stability(self, body, arg):
        if is_proof_like(body) and is_proof_like(arg):
            assert is_proof_like(substitute(body, "x", arg))


class TestProofLike:
    def test_cc_is_proof_like(self):
        assert is_proof_like(CALLCC)

    def test_effects_are_not(self):
        assert not is_proof_like(App(WRITE0, Var("x")))

    def test_continuation_stacks_are_searched(self):
        assert not is_proof_like(Kont(stack_of(END)))
        assert is_proof_like(Kont(stack_of(CALLCC)))

    def test_effect_constant_listing(self):
        t = parse_term(r"\x. read (write0 x) (write1 x) end")
        assert effect_constants(t) == frozenset({"read", "write0", "write1", "end"})


class TestPositions:
    def test_subterms_in_preorder(self):
        p = parse_process(r"(\x. x) kont{end :: nil} * cc :: nil")
        assert [pos for pos, _ in subterms(p)] == [
            ("term",), ("term", "fun"), ("term", "fun", "body"),
            ("term", "arg"), ("term", "arg", ("saved", 0)), (("stack", 0),)]
        assert [pos for pos, _ in subterms(p.stack)] == [(("stack", 0),)]
        assert list(subterms(TOP)) == []

    @given(gen.processes())
    def test_round_trip(self, p):
        for pos, sub in subterms(p):
            assert subterm_at(p, pos) is sub
            assert replace_at(p, pos, sub) == p

    def test_selectors_belong_to_their_node(self):
        p = parse_process(r"kont{end :: nil} * (\x. x) :: nil")
        assert subterm_at(p, ("term", ("saved", 0))) is END
        for bad in [(("saved", 0),), ("term", ("stack", 0)), ("term", "fun"),
                    (("stack", 0), "fun"), (("stack", 1),), ("body",), (), (["stack", 0],)]:
            with pytest.raises(InvalidPosition):
                subterm_at(p, bad)
            with pytest.raises(InvalidPosition):
                replace_at(p, bad, END)

    def test_replace_keeps_the_host_shape(self):
        s = stack_of(CALLCC, END)
        assert replace_at(s, (("stack", 1),), READ) == stack_of(CALLCC, READ)
        p = parse_process(r"kont{end :: cc :: nil} * nil")
        assert replace_at(p, ("term", ("saved", 1)), READ) == \
            parse_process("kont{end :: read :: nil} * nil")


class TestDeepTerms:
    def test_effect_constants_of_a_deep_numeral(self):
        assert effect_constants(church_numeral(DEEP)) == frozenset()
        assert is_proof_like(church_numeral(DEEP))

    def test_effect_constant_at_depth(self):
        t = END
        for _ in range(DEEP):
            t = App(CALLCC, t)
        assert effect_constants(t) == {"end"}
        assert not is_proof_like(Kont(stack_of(t)))

    def test_replace_at_depth(self):
        path = ("body", "body") + ("arg",) * DEEP
        replaced = replace_at(church_numeral(DEEP), path, END)
        assert subterm_at(replaced, path) is END
        assert subterm_at(replaced, path[:-1]).fun.name == "f"
        assert effect_constants(replaced) == {"end"}

    @pytest.mark.xfail(raises=RecursionError, strict=True,
                       reason="substitute still recurses once per node")
    def test_substitute_on_a_deep_application_spine(self):
        body, expected = Var("x"), CALLCC
        for _ in range(3000):
            body, expected = App(body, END), App(expected, END)
        assert substitute(body, "x", CALLCC) == expected


class TestIdentity:
    @settings(max_examples=300)
    @given(VALUES, st.integers(0, 2**32 - 1))
    def test_matches_reference(self, x, seed):
        rng = random.Random(seed)
        mutant = gen.mutate(rng, x)
        for y in (gen.alpha_rename(rng, x), mutant, gen.alpha_rename(rng, mutant)):
            expected = reference.equal(x, y)
            assert (x == y) is expected
            assert (y == x) is expected
            if expected:
                assert hash(x) == hash(y)
                assert reference.alpha_hash(x) == reference.alpha_hash(y)

    @settings(max_examples=300)
    @given(VALUES, st.integers(0, 2**32 - 1))
    def test_same_names_is_equal_printing(self, x, seed):
        # the differential machine tests compare read-backs with gen.same_names
        rng = random.Random(seed)
        mutant = gen.mutate(rng, x)
        for y in (x, gen.alpha_rename(rng, x), mutant, gen.alpha_rename(rng, mutant)):
            assert gen.same_names(x, y) is gen.same_names(y, x) is (pretty(x) == pretty(y))

    def test_shadowed_binders(self):
        inner = parse_term(r"\x. \x. x")
        assert inner == parse_term(r"\y. \x. x") == parse_term(r"\x. \y. y")
        assert inner != parse_term(r"\x. \y. x")
        assert parse_term(r"\x. \y. x y") != parse_term(r"\x. \y. y x")
        assert parse_term(r"\x. (\x. x) x") == parse_term(r"\y. (\x. x) y")
        # a binder's name is unbound again, or bound as before, after its body
        assert parse_term(r"(\z. z) z") == parse_term(r"(\w. w) z")
        assert parse_term(r"\x. (\y. \x. x) x") == parse_term(r"\a. (\b. \c. c) a")

    def test_constants_compare_by_kind(self):
        assert Const("end") == END
        assert hash(Const("end")) == hash(END)
        assert Const("end") != Const("read")

    def test_values_of_different_kinds(self):
        assert Pair(END, EMPTY) != TOP and TOP != Pair(END, EMPTY)
        assert END != EMPTY and Kont(EMPTY) != EMPTY
        assert stack_of(END) != stack_of(END, END)

    @pytest.mark.parametrize("left, right", [
        # an equal head, built apart, over stacks that differ in one entry
        (r"(\x. \y. x) * end :: (\z. z) :: nil", r"(\x. \y. x) * end :: (\z. z z) :: nil"),
        (r"(\x. \y. x) * end :: cc :: nil", r"(\x. \y. x) * end :: read :: nil"),
        # an alpha-renamed head over stacks that differ in one entry
        (r"(\u. \v. u) * end :: (\z. z) :: nil", r"(\x. \y. x) * end :: (\z. \w. z) :: nil"),
        (r"(\u. \v. u) * end :: (\z. z) :: nil", r"(\x. \y. x) * write0 :: (\w. w) :: nil"),
        # equal stacks under heads that differ, once with equal hashes
        (r"(\x. x) * end :: (\z. z) :: nil", r"(\x. x x) * end :: (\z. z) :: nil"),
        (r"(\x. \y. x y) * end :: nil", r"(\x. \y. y x) * end :: nil"),
        # equal pairs, alpha-renamed
        (r"(\x. \y. x y) * (\z. z) :: nil", r"(\a. \b. a b) * (\c. c) :: nil"),
    ])
    def test_pairs(self, left, right):
        self._check_both_orders(parse_process(left), parse_process(right))

    @pytest.mark.parametrize("left, right", [(r"\x. \y. x y", r"\x. \y. y x"), ("f x", "x f")])
    def test_unequal_with_equal_hashes(self, left, right):
        # hashes leave names out, so only the variable test tells these apart;
        # pair heads and stack entries are closed, so `f x` goes under \f. \x.
        a, b = parse_term(left), parse_term(right)
        assert hash(a) == hash(b)
        self._check_both_orders(a, b)
        for name in sorted(a.fvs, reverse=True):
            a, b = Abs(name, a), Abs(name, b)
        assert hash(a) == hash(b)
        self._check_both_orders(Pair(a, stack_of(END)), Pair(b, stack_of(END)))
        self._check_both_orders(stack_of(END, a), stack_of(END, b))
        self._check_both_orders(stack_of(a), stack_of(b))

    def test_pair_whose_saved_stack_is_its_tail(self):
        # what `cc` leaves: the continuation holds the stack that is also the tail
        rest = stack_of(END, Abs("z", Var("z")))
        shared = Pair(Abs("k", Var("k")), Stack(Kont(rest), rest))
        self._check_both_orders(shared, parse_process(r"(\j. j) * kont{end :: (\y. y) :: nil}"
                                                      r" :: end :: (\x. x) :: nil"))
        self._check_both_orders(shared, parse_process(r"(\k. k) * kont{end :: (\y. y) :: nil}"
                                                      r" :: end :: (\x. x x) :: nil"))
        self._check_both_orders(shared, parse_process(r"(\k. k) * kont{read :: (\y. y) :: nil}"
                                                      r" :: end :: (\x. x) :: nil"))

    def test_pair_stack_hashes_are_checked_before_the_heads_are_walked(self):
        # heads that no walk gets through: closed variables without a name
        a, b = object.__new__(Pair), object.__new__(Pair)
        for pair in (a, b):
            pair.term = object.__new__(Var)
            pair.term.fvs, pair.term._hash = frozenset(), hash("var")
        a.stack, b.stack = stack_of(END), stack_of(READ)
        assert (a == b) is False
        b.stack = stack_of(END)
        with pytest.raises(AttributeError):
            a == b

    @staticmethod
    def _check_both_orders(x, y):
        expected = reference.equal(x, y)
        assert reference.equal(y, x) is expected
        assert (x == y) is expected
        assert (y == x) is expected
        assert (x != y) is not expected
        if expected:
            assert hash(x) == hash(y)


class TestOneIdentityProtocol:
    """Terms, stacks and pairs take `==`, hash, `str` and `repr` from one
    base; only a pair computes its hash on demand."""

    def test_defined_once(self):
        for cls in (Term, Stack, Pair):
            assert not {"__eq__", "__str__", "__repr__"} & vars(cls).keys()
        assert "__hash__" in vars(Pair) and "__hash__" not in vars(Term)

    def test_repr_and_str(self):
        assert repr(Var("x")) == "<Var x>"
        assert repr(EMPTY) == "<Stack nil>"
        assert repr(Pair(END, EMPTY)) == "<Pair end * nil>"
        assert str(Pair(END, stack_of(CALLCC))) == "end * cc :: nil"

    def test_pair_and_term_unequal_both_ways(self):
        pair = Pair(END, EMPTY)
        assert (pair == END) is False and (END == pair) is False
        assert pair != END and END != pair

    def test_alpha_variant_pairs(self):
        a = parse_process(r"(\x. \y. x) * (\z. z) :: nil")
        b = parse_process(r"(\u. \v. u) * (\w. w) :: nil")
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestDeepIdentity:
    def test_rebuilt_numeral(self):
        a, b = church_numeral(DEEP), church_numeral(DEEP)
        assert a == b and hash(a) == hash(b)
        assert a != church_numeral(DEEP - 1)
        assert a != replace_at(a, ("body", "body") + ("arg",) * DEEP, Var("f"))

    def test_lambda_chains_with_different_names(self):
        a = lambda_chain([f"a{i}" for i in range(DEEP)], "a0")
        b = lambda_chain([f"b{i}" for i in range(DEEP)], "b0")
        assert a == b and hash(a) == hash(b)
        assert a != lambda_chain([f"b{i}" for i in range(DEEP)], "b1")
        shadowed = lambda_chain(["x"] * DEEP, "x")
        assert shadowed == lambda_chain([f"c{i}" for i in range(DEEP)], f"c{DEEP - 1}")
        assert shadowed != lambda_chain(["y"] + ["x"] * (DEEP - 1), "y")

    def test_long_lambda_chains_compare_in_linear_time(self):
        # a walk that copies each side's binder map at every binder is
        # quadratic in the depth: it took about 40 s here
        left, right = [f"a{i}" for i in range(40_000)], [f"b{i}" for i in range(40_000)]
        a, variant = lambda_chain(left, "a0"), lambda_chain(right, "b0")
        # free innermost variables: equal hashes, so only the walk tells them apart
        free_z, free_w = lambda_chain(left, "z"), lambda_chain(right, "w")
        assert hash(free_z) == hash(free_w)
        start = time.perf_counter()
        assert a == variant
        assert free_z != free_w
        assert time.perf_counter() - start < 2

    def test_nested_continuations(self):
        a, b = nested_kont(DEEP, END), nested_kont(DEEP, END)
        assert a == b and hash(a) == hash(b)
        assert a != nested_kont(DEEP, CALLCC)
        assert Pair(a, stack_of(a)) == Pair(b, stack_of(b))

    def test_long_stacks(self):
        numerals = [church_numeral(n) for n in range(3)]
        copies = [church_numeral(n) for n in range(3)]  # equal, but other nodes
        entries = [numerals[i % 3] for i in range(LONG)]
        a, b = stack_of(*entries), stack_of(*(copies[i % 3] for i in range(LONG)))
        assert a == b and hash(a) == hash(b)
        assert a != stack_of(*entries[:-1], END)
        assert Pair(CALLCC, a) == Pair(CALLCC, b)
        assert hash(Pair(CALLCC, a)) == hash(Pair(CALLCC, b))


class TestFreeVariables:
    def test_variable(self):
        assert Var("x").fvs == {"x"}

    def test_abstraction_binds(self):
        assert Abs("x", Var("x")).fvs == frozenset()

    def test_mixed(self):
        t = App(Var("x"), Abs("x", Var("x")))
        assert t.fvs == {"x"}


class TestStackInvariants:
    def test_push_rejects_open_terms(self):
        with pytest.raises(ClosednessError):
            EMPTY.push(Var("x"))

    def test_pair_rejects_open_head(self):
        with pytest.raises(ClosednessError):
            Pair(Var("x"), EMPTY)

    def test_stack_iteration_order(self):
        s = stack_of(READ, WRITE0, END)
        assert list(s) == [READ, WRITE0, END]
        assert len(s) == 3
