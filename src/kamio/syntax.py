"""Terms, stacks, and processes of a Krivine machine with bit-level I/O.

Terms are lambda terms extended with call/cc, first-class continuations,
and four instruction constants (read, write0, write1, end).  A stack is a
list of closed terms; a process is a closed term paired with a stack, or
the terminal constant TOP.  All values are immutable, hashable, and
compared up to alpha-equivalence.

The concrete grammar (comments run from ``--`` to end of line)::

    term    := lam | app
    lam     := "\\" ident "." term
    app     := atom { atom }
    atom    := ident | "cc" | "read" | "write0" | "write1" | "end"
             | "kont" "{" stack "}" | "#" nat | "(" term ")"
    stack   := "nil" | term "::" stack
    process := "TOP" | term "*" stack

``#n`` is sugar for the n-th Church numeral.  Application is
left-associative and a lambda body extends as far right as possible.
"""

from __future__ import annotations

import re
from typing import Iterator

__all__ = [
    "Term", "Var", "Abs", "App", "Const", "Kont",
    "CALLCC", "READ", "WRITE0", "WRITE1", "END",
    "Stack", "EMPTY", "stack_of",
    "Process", "Pair", "TOP",
    "ParseError", "ClosednessError", "NotProofLike", "InvalidPosition",
    "parse_term", "parse_stack", "parse_process", "pretty",
    "substitute", "fresh_name",
    "is_proof_like", "effect_constants", "church_numeral",
    "Position", "subterms", "subterm_at", "replace_at",
    "RESERVED",
]

_NO_FVS: frozenset[str] = frozenset()


class ParseError(Exception):
    """Raised on malformed input; carries position and expected tokens."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        detail = f"{line}:{col}: {message}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)


class ClosednessError(Exception):
    """A term required to be closed has free variables."""


class NotProofLike(Exception):
    """A term required to be free of instruction constants contains one."""


class InvalidPosition(Exception):
    """A position does not address the required kind of subterm."""


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Base class; concrete terms are Var, Abs, App, Const, and Kont."""

    __slots__ = ("fvs", "_hash")

    fvs: frozenset[str]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return _alpha_eq(self, other, {}, {}, 0)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = _alpha_hash(self, {}, 0)
            self._hash = h
        return h

    def __str__(self):
        return pretty(self)

    def __repr__(self):
        return f"<{type(self).__name__} {pretty(self)}>"


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.fvs = frozenset((name,))
        self._hash = None


class Abs(Term):
    __slots__ = ("param", "body")
    __match_args__ = ("param", "body")

    def __init__(self, param: str, body: Term):
        self.param = param
        self.body = body
        bf = body.fvs
        self.fvs = bf - {param} if param in bf else bf
        self._hash = None


class App(Term):
    __slots__ = ("fun", "arg")
    __match_args__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        ff, af = fun.fvs, arg.fvs
        self.fvs = ff | af if (ff and af) else (ff or af)
        self._hash = None


class Const(Term):
    """One of the machine constants: cc, read, write0, write1, end.

    Use the module singletons; do not construct new instances.
    """

    __slots__ = ("kind",)
    __match_args__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind
        self.fvs = _NO_FVS
        self._hash = None


CALLCC = Const("cc")
READ = Const("read")
WRITE0 = Const("write0")
WRITE1 = Const("write1")
END = Const("end")

_EFFECTS = (READ, WRITE0, WRITE1, END)


class Kont(Term):
    """A captured continuation holding a saved stack."""

    __slots__ = ("stack",)
    __match_args__ = ("stack",)

    def __init__(self, stack: "Stack"):
        self.stack = stack
        self.fvs = _NO_FVS  # stack entries are closed by construction
        self._hash = None


# ---------------------------------------------------------------------------
# Stacks and processes


class Stack:
    """Immutable list of closed terms; head is the top of the stack."""

    __slots__ = ("head", "tail", "_len", "_hash")

    def __init__(self, head: Term | None = None, tail: "Stack | None" = None):
        if head is None:
            self.head = None
            self.tail = None
            self._len = 0
        else:
            if head.fvs:
                raise ClosednessError(
                    f"stack entry has free variables {sorted(head.fvs)}: {pretty(head)}")
            self.head = head
            self.tail = tail if tail is not None else EMPTY
            self._len = self.tail._len + 1
        self._hash = None

    def push(self, term: Term) -> "Stack":
        return Stack(term, self)

    @property
    def is_empty(self) -> bool:
        return self.head is None

    def __iter__(self) -> Iterator[Term]:
        node = self
        while node.head is not None:
            yield node.head
            node = node.tail

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Stack):
            return NotImplemented
        if self._len != other._len:
            return False
        return all(a == b for a, b in zip(self, other))

    def __hash__(self):
        # iterative: machine runs grow stacks far beyond the recursion limit
        if self._hash is not None:
            return self._hash
        chain = []
        node = self
        while node._hash is None and node.head is not None:
            chain.append(node)
            node = node.tail
        h = node._hash if node._hash is not None else hash("empty-stack")
        node._hash = h
        for link in reversed(chain):
            h = hash((hash(link.head), h))
            link._hash = h
        return h

    def __str__(self):
        return pretty(self)

    def __repr__(self):
        return f"<Stack {pretty(self)}>"


EMPTY = Stack()


def stack_of(*terms: Term) -> Stack:
    """Build a stack with terms[0] on top."""
    node = EMPTY
    for t in reversed(terms):
        node = node.push(t)
    return node


class Process:
    """Base class; a process is a Pair or the terminal TOP."""

    __slots__ = ()


class Pair(Process):
    __slots__ = ("term", "stack", "_hash")
    __match_args__ = ("term", "stack")

    def __init__(self, term: Term, stack: Stack):
        if term.fvs:
            raise ClosednessError(
                f"process head has free variables {sorted(term.fvs)}: {pretty(term)}")
        self.term = term
        self.stack = stack
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Pair):
            return False if isinstance(other, Process) else NotImplemented
        return self.term == other.term and self.stack == other.stack

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((hash(self.term), hash(self.stack)))
            self._hash = h
        return h

    def __str__(self):
        return pretty(self)

    def __repr__(self):
        return f"<Pair {pretty(self)}>"


class _Top(Process):
    __slots__ = ()

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("TOP-process")

    def __str__(self):
        return "TOP"

    def __repr__(self):
        return "<TOP>"


TOP = _Top()


# ---------------------------------------------------------------------------
# Alpha-equivalence and hashing

def _alpha_eq(t: Term, u: Term, envt: dict, envu: dict, depth: int) -> bool:
    # envs map a name to the depth of its binder; depth grows in lockstep
    # on both sides, so shadowed names can never collide
    ct = t.__class__
    if ct is not u.__class__:
        return False
    if ct is Var:
        it = envt.get(t.name)
        iu = envu.get(u.name)
        if it is None and iu is None:
            return t.name == u.name
        return it == iu
    if ct is App:
        return (_alpha_eq(t.fun, u.fun, envt, envu, depth)
                and _alpha_eq(t.arg, u.arg, envt, envu, depth))
    if ct is Abs:
        envt2 = dict(envt)
        envt2[t.param] = depth
        envu2 = dict(envu)
        envu2[u.param] = depth
        return _alpha_eq(t.body, u.body, envt2, envu2, depth + 1)
    if ct is Const:
        return t.kind == u.kind
    # Kont: saved stacks contain closed terms, so plain equality applies
    return t.stack == u.stack


def _alpha_hash(t: Term, env: dict, depth: int) -> int:
    # Bound variables hash by their distance to the binder, so the hash of
    # a closed subterm is context-free and can be cached on the node; this
    # keeps rehashing along a machine run incremental.
    closed = not t.fvs
    if closed and t._hash is not None:
        return t._hash
    ct = t.__class__
    if ct is Var:
        i = env.get(t.name)
        h = hash(("fv", t.name)) if i is None else hash(("bv", depth - i))
    elif ct is App:
        h = hash(("app", _alpha_hash(t.fun, env, depth), _alpha_hash(t.arg, env, depth)))
    elif ct is Abs:
        env2 = dict(env)
        env2[t.param] = depth
        h = hash(("abs", _alpha_hash(t.body, env2, depth + 1)))
    elif ct is Const:
        h = hash(("const", t.kind))
    else:
        h = hash(("kont", hash(t.stack)))
    if closed:
        t._hash = h
    return h


# ---------------------------------------------------------------------------
# Substitution and structural predicates


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """A name not in `avoid`, derived from `base` by appending a counter."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def substitute(body: Term, name: str, arg: Term) -> Term:
    """Replace free occurrences of `name` in `body` by `arg`, avoiding capture."""
    if name not in body.fvs:
        return body
    cls = body.__class__
    if cls is Var:
        return arg  # body.name == name, else fvs check above would fail
    if cls is App:
        return App(substitute(body.fun, name, arg), substitute(body.arg, name, arg))
    # Abs with name free in the body (so body.param != name)
    param, inner = body.param, body.body
    if param in arg.fvs:
        renamed = fresh_name(param, arg.fvs | inner.fvs | {name})
        inner = substitute(inner, param, Var(renamed))
        param = renamed
    return Abs(param, substitute(inner, name, arg))


def effect_constants(x: Term | Stack | Process) -> frozenset[str]:
    """The instruction constants (read/write0/write1/end) occurring in x,
    including inside saved continuation stacks."""
    return frozenset(t.kind for _, t in subterms(x)
                     if t.__class__ is Const and t is not CALLCC)


def is_proof_like(t: Term) -> bool:
    """True iff t contains no instruction constant anywhere (cc and
    continuations are allowed)."""
    return not effect_constants(t)


def church_numeral(n: int) -> Term:
    """The Church numeral \\f. \\x. f (f ... (f x))."""
    if n < 0:
        raise ValueError("Church numerals are defined for naturals only")
    body: Term = Var("x")
    f = Var("f")
    for _ in range(n):
        body = App(f, body)
    return Abs("f", Abs("x", body))


# ---------------------------------------------------------------------------
# Positions: paths addressing a subterm inside a term, stack, or process.
#
# A position is a tuple of selectors.  `_children` is the only place that
# says which selector addresses which child, and `_with_child` undoes it:
#   "term"         the head term of a Pair
#   ("stack", i)   the i-th entry (from the top) of a Stack or a Pair's stack
#   ("saved", i)   the i-th entry of a continuation's saved stack
#   "fun" / "arg"  children of an App
#   "body"         child of an Abs

Position = tuple


def _children(x) -> list[tuple]:
    """The (selector, child) pairs of x, left to right."""
    cls = x.__class__
    if cls is App:
        return [("fun", x.fun), ("arg", x.arg)]
    if cls is Abs:
        return [("body", x.body)]
    if cls is Kont:
        return [(("saved", i), entry) for i, entry in enumerate(x.stack)]
    if cls is Stack:
        return [(("stack", i), entry) for i, entry in enumerate(x)]
    if cls is Pair:
        return [("term", x.term)] + _children(x.stack)
    return []


def _with_child(host, step, new: Term):
    """host with the child that `step`, one of its selectors, replaced by new."""
    cls = host.__class__
    if cls is App:
        return App(new, host.arg) if step == "fun" else App(host.fun, new)
    if cls is Abs:
        return Abs(host.param, new)
    if cls is Pair:
        if step == "term":
            return Pair(new, host.stack)
        return Pair(host.term, _with_child(host.stack, step, new))
    entries = list(host if cls is Stack else host.stack)
    entries[step[1]] = new
    return stack_of(*entries) if cls is Stack else Kont(stack_of(*entries))


def subterms(host: Term | Stack | Process) -> Iterator[tuple[Position, Term]]:
    """Every (position, subterm) of host, in preorder, left to right."""
    work = [((), host)]
    while work:
        pos, x = work.pop()
        if isinstance(x, Term):
            yield pos, x
        work.extend((pos + (step,), child) for step, child in reversed(_children(x)))


def _path_nodes(host, path: Position) -> list:
    """host and the node each step of `path` reaches, ending at a term."""
    nodes = [host]
    for step in path:
        try:
            nodes.append(dict(_children(nodes[-1]))[step])
        except (KeyError, TypeError) as exc:
            raise InvalidPosition(f"path {path!r} invalid at {step!r}") from exc
    if not isinstance(nodes[-1], Term):
        raise InvalidPosition(f"path {path!r} does not address a term")
    return nodes


def subterm_at(host: Term | Stack | Process, path: Position) -> Term:
    """The subterm addressed by `path`; raises InvalidPosition if absent."""
    return _path_nodes(host, path)[-1]


def replace_at(host, path: Position, new: Term):
    """Replace the subterm addressed by `path` with `new`; returns a value
    of the same shape as `host`."""
    nodes = _path_nodes(host, path)
    for node, step in zip(reversed(nodes[:-1]), reversed(path)):
        new = _with_child(node, step, new)
    return new


# ---------------------------------------------------------------------------
# Lexer

_KEYWORD_TERMS = {
    "cc": CALLCC,
    "read": READ,
    "write0": WRITE0,
    "write1": WRITE1,
    "end": END,
}

RESERVED = frozenset(_KEYWORD_TERMS) | {"nil", "TOP", "kont"}

_TOKEN_RE = re.compile(
    r"(?P<skip>\s+|--[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<nat>[0-9]+)"
    r"|(?P<dcolon>::)"
    r"|(?P<punct>[\\.(){}*#])"
    r"|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "skip":
            line += value.count("\n")
            if "\n" in value:
                line_start = m.start() + value.rindex("\n") + 1
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, col)
        if kind == "dcolon":
            kind, value = "punct", "::"
        tokens.append((kind, value, line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)

_ATOM_STARTERS = "an identifier, 'cc', 'read', 'write0', 'write1', 'end', 'kont{', '#', or '('"


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()):
        _, value, line, col = self.peek()
        shown = value if value else "end of input"
        raise ParseError(f"{message}, found {shown!r}", line, col, expected)

    def expect_punct(self, value: str):
        kind, text, _, _ = self.peek()
        if kind == "punct" and text == value:
            return self.advance()
        self.error(f"expected {value!r}", (value,))

    def starts_atom(self) -> bool:
        kind, value, _, _ = self.peek()
        if kind == "ident":
            return value not in ("nil", "TOP")
        if kind == "punct":
            return value in ("(", "#")
        return False

    def term(self) -> Term:
        kind, value, _, _ = self.peek()
        if kind == "punct" and value == "\\":
            self.advance()
            name = self.binder()
            self.expect_punct(".")
            return Abs(name, self.term())
        t = self.atom()
        while self.starts_atom():
            t = App(t, self.atom())
        return t

    def binder(self) -> str:
        kind, value, line, col = self.peek()
        if kind != "ident":
            self.error("expected a variable name", ("identifier",))
        if value in RESERVED:
            raise ParseError(f"reserved word {value!r} cannot be a variable name",
                             line, col, ("identifier",))
        self.advance()
        return value

    def atom(self) -> Term:
        kind, value, line, col = self.peek()
        if kind == "ident":
            if value in _KEYWORD_TERMS:
                self.advance()
                return _KEYWORD_TERMS[value]
            if value == "kont":
                self.advance()
                self.expect_punct("{")
                stack = self.stack()
                self.expect_punct("}")
                return Kont(stack)
            if value in ("nil", "TOP"):
                raise ParseError(f"reserved word {value!r} is not a term",
                                 line, col, (_ATOM_STARTERS,))
            self.advance()
            return Var(value)
        if kind == "punct" and value == "#":
            self.advance()
            nkind, nvalue, _, _ = self.peek()
            if nkind != "nat":
                self.error("expected a number after '#'", ("natural number",))
            self.advance()
            return church_numeral(int(nvalue))
        if kind == "punct" and value == "(":
            self.advance()
            t = self.term()
            self.expect_punct(")")
            return t
        self.error("expected a term", (_ATOM_STARTERS,))

    def stack(self) -> Stack:
        entries = []
        while True:
            kind, value, _, _ = self.peek()
            if kind == "ident" and value == "nil":
                self.advance()
                return stack_of(*entries)
            entries.append(self.term())
            self.expect_punct("::")

    def process(self) -> Process:
        kind, value, _, _ = self.peek()
        if kind == "ident" and value == "TOP":
            self.advance()
            return TOP
        head = self.term()
        self.expect_punct("*")
        stack = self.stack()
        if head.fvs:
            raise ClosednessError(
                f"process head has free variables {sorted(head.fvs)}: {pretty(head)}")
        return Pair(head, stack)

    def finish(self):
        kind, value, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", line, col, ("end of input",))


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.finish()
    return t


def parse_stack(text: str) -> Stack:
    p = _Parser(text)
    s = p.stack()
    p.finish()
    return s


def parse_process(text: str) -> Process:
    p = _Parser(text)
    proc = p.process()
    p.finish()
    return proc


# ---------------------------------------------------------------------------
# Printer.  pretty . parse = identity up to alpha-equivalence, with minimal
# parentheses: only non-atoms appearing in application position are wrapped.


def pretty(x: Term | Stack | Process) -> str:
    if isinstance(x, Term):
        return _pretty_term(x)
    if isinstance(x, Stack):
        return _pretty_stack(x)
    if x is TOP:
        return "TOP"
    if isinstance(x, Pair):
        return f"{_pretty_term(x.term)} * {_pretty_stack(x.stack)}"
    raise TypeError(f"cannot print {x!r}")


def _pretty_term(t: Term) -> str:
    cls = t.__class__
    if cls is Abs:
        return f"\\{t.param}. {_pretty_term(t.body)}"
    if cls is App:
        spine = []
        node = t
        while node.__class__ is App:
            spine.append(node.arg)
            node = node.fun
        spine.append(node)
        spine.reverse()
        return " ".join(_pretty_atom(part) for part in spine)
    return _pretty_atom(t)


def _pretty_atom(t: Term) -> str:
    cls = t.__class__
    if cls is Var:
        return t.name
    if cls is Const:
        return t.kind
    if cls is Kont:
        return "kont{" + _pretty_stack(t.stack) + "}"
    return "(" + _pretty_term(t) + ")"


def _pretty_stack(s: Stack) -> str:
    parts = [_pretty_term(entry) for entry in s]
    parts.append("nil")
    return " :: ".join(parts)
