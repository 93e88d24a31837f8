"""Terms, stacks, and processes of a Krivine machine with bit-level I/O.

Terms are lambda terms extended with call/cc, first-class continuations,
and four instruction constants (read, write0, write1, end).  A stack is a
list of closed terms; a process is a closed term paired with a stack, or
the terminal constant TOP.  All values are immutable and hashable.
Terms, stacks and pairs share one identity protocol, the private base
`_Node`: `==` is equality up to alpha-equivalence, the hash is a stored
one, and `str` and `repr` print through `pretty`.  Each term and stack
node gets its hash when it is built, from its children's hashes and
never from names, so alpha-equivalent values hash alike; a pair hashes
on demand.  The tokenizer returns each token as a plain string, and a
token's offset is worked out only when a `ParseError` is raised.  A
parse shares one `Var` per name and one numeral per `#n`.  Parsing,
equality and printing walk explicit work lists or frame stacks, so
nesting depth does not limit them, and `==` is linear in binder depth;
`substitute` still recurses, and only `equivalence.beta_contract` calls
it.

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
    "is_proof_like", "require_proof_like", "effect_constants", "church_numeral",
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


class _Node:
    """The identity protocol of terms, stacks and pairs: `==` is equality
    up to the names of bound variables (`_same`), the hash is the stored
    `_hash`, and both print through `pretty`."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return _same(self, other)

    def __hash__(self):
        return self._hash

    def __str__(self):
        return pretty(self)

    def __repr__(self):
        return f"<{type(self).__name__} {pretty(self)}>"


class Term(_Node):
    """Base class; concrete terms are Var, Abs, App, Const, and Kont.

    Each constructor sets `_hash` from its children's stored hashes and
    never from names, so alpha-equivalent terms hash alike."""

    __slots__ = ("fvs", "_hash")

    fvs: frozenset[str]


_VAR_HASH = hash("var")


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.fvs = frozenset((name,))
        self._hash = _VAR_HASH


class Abs(Term):
    __slots__ = ("param", "body")
    __match_args__ = ("param", "body")

    def __init__(self, param: str, body: Term):
        self.param = param
        self.body = body
        bf = body.fvs
        used = param in bf
        self.fvs = bf - {param} if used else bf
        self._hash = hash(("abs", body._hash, used))


class App(Term):
    __slots__ = ("fun", "arg")
    __match_args__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        ff, af = fun.fvs, arg.fvs
        self.fvs = ff | af if (ff and af) else (ff or af)
        self._hash = hash((fun._hash, arg._hash))


class Const(Term):
    """One of the machine constants: cc, read, write0, write1, end.

    Use the module singletons; do not construct new instances.
    """

    __slots__ = ("kind",)
    __match_args__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind
        self.fvs = _NO_FVS
        self._hash = hash(("const", kind))


CALLCC = Const("cc")
READ = Const("read")
WRITE0 = Const("write0")
WRITE1 = Const("write1")
END = Const("end")


class Kont(Term):
    """A captured continuation holding a saved stack."""

    __slots__ = ("stack",)
    __match_args__ = ("stack",)

    def __init__(self, stack: "Stack"):
        self.stack = stack
        self.fvs = _NO_FVS  # stack entries are closed by construction
        self._hash = hash(("kont", stack._hash))


# ---------------------------------------------------------------------------
# Stacks and processes


class Stack(_Node):
    """Immutable list of closed terms; head is the top of the stack."""

    __slots__ = ("head", "tail", "_len", "_hash")

    def __init__(self, head: Term | None = None, tail: "Stack | None" = None):
        if head is None:
            self.head = None
            self.tail = None
            self._len = 0
            self._hash = hash("empty-stack")
        else:
            if head.fvs:
                raise ClosednessError(
                    f"stack entry has free variables {sorted(head.fvs)}: {pretty(head)}")
            self.head = head
            self.tail = tail = tail if tail is not None else EMPTY
            self._len = tail._len + 1
            self._hash = hash((head._hash, tail._hash))

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


class Pair(_Node, Process):
    __slots__ = ("term", "stack")
    __match_args__ = ("term", "stack")

    def __init__(self, term: Term, stack: Stack):
        if term.fvs:
            raise ClosednessError(
                f"process head has free variables {sorted(term.fvs)}: {pretty(term)}")
        self.term = term
        self.stack = stack

    def __hash__(self):  # on demand: most pairs the machine builds are never hashed
        return hash((self.term._hash, self.stack._hash))


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
# Alpha-equivalence


def _same(x, y) -> bool:
    """x and y (two terms, two stacks, or two pairs) are equal up to the
    names of bound variables.

    One walk over node pairs from an explicit work list.  Each side has
    one map from a bound name to the depth of its binder, set in place at
    a pair of binders and put back by an item pushed under their bodies,
    so the walk is linear in binder depth; depths grow in lockstep, so
    shadowed names never collide.  Stack entries are closed and are
    compared at depth 0, as is any pair of closed terms, where one shared
    node is equal to itself.  Hashes leave names out, so the first pair
    of nodes whose hashes differ settles the answer.  Two pairs are
    checked on the hashes of both heads and both stacks before either
    part is walked: a `Pair` stores no hash, and two pairs often hold
    equal heads, built apart, over stacks that differ.  A pair of nodes
    compared at depth 0 is compared once: values share nodes (`cc` saves
    a stack that it also keeps as the tail), and walking every path would
    take time exponential in the sharing."""
    work = [(x, y, 0)]
    pop, push = work.pop, work.append
    ma: dict[str, int] = {}
    mb: dict[str, int] = {}
    done: set[tuple[int, int]] = set()
    while work:
        a, b, depth = pop()
        cls = type(a)
        if cls is not type(b):
            if b is not None:
                return False
            pa, oa, pb, ob = a  # two binders' bodies are done: put their names back
            if oa is None:
                del ma[pa]
            else:
                ma[pa] = oa
            if ob is None:
                del mb[pb]
            else:
                mb[pb] = ob
            continue
        if cls is Pair:
            if a.term._hash != b.term._hash or a.stack._hash != b.stack._hash:
                return False
            push((a.stack, b.stack, 0))
            push((a.term, b.term, 0))
            continue
        if depth and not a.fvs and not b.fvs:
            depth = 0
        if a is b and not depth:
            continue
        if a._hash != b._hash:
            return False
        if not depth:
            size = len(done)
            done.add((id(a), id(b)))  # one hash: an unchanged size is a repeat
            if len(done) == size:
                continue
        if cls is App:
            push((a.arg, b.arg, depth))
            push((a.fun, b.fun, depth))
        elif cls is Var:
            da = ma.get(a.name)
            db = mb.get(b.name)
            if da != db or (da is None and a.name != b.name):
                return False
        elif cls is Abs:
            pa, pb = a.param, b.param
            if work:  # the work under the bodies needs the names as they were
                push(((pa, ma.get(pa), pb, mb.get(pb)), None, 0))
            ma[pa] = mb[pb] = depth
            push((a.body, b.body, depth + 1))
        elif cls is Const:
            if a.kind != b.kind:
                return False
        elif cls is Kont:
            push((a.stack, b.stack, 0))
        elif a._len != b._len:  # two stacks
            return False
        elif a._len:
            push((a.tail, b.tail, 0))
            push((a.head, b.head, 0))
    return True


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
    cls = type(body)
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
                     if type(t) is Const and t is not CALLCC)


def is_proof_like(t: Term) -> bool:
    """True iff t contains no instruction constant anywhere (cc and
    continuations are allowed)."""
    return not effect_constants(t)


def require_proof_like(t: Term, noun: str) -> Term:
    """t, if it is closed and proof-like; the errors name it as `noun`."""
    if t.fvs:
        raise ValueError(f"{noun} is not closed: {pretty(t)}")
    effects = effect_constants(t)
    if effects:
        raise NotProofLike(f"{noun} contains instruction constants {sorted(effects)}")
    return t


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
    cls = type(x)
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
    cls = type(host)
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

# Outside comments, text holds only whitespace and tokens, and tokens only
# ASCII characters: an anchored match of `_VALID_RE` stops at the first
# character that breaks this.  `_TOKEN_RE` matches no whitespace, so a
# search skips it.
_VALID_RE = re.compile(r"(?:[\sA-Za-z0-9_\\.(){}*#]+|::|--[^\n]*)*")
_TOKEN_RE = re.compile(r"[\\.(){}*#]|[A-Za-z_][A-Za-z0-9_]*|::|[0-9]+|--[^\n]*")


def _tokenize(text: str) -> list[str]:
    """The tokens of text as strings, then "" for end of input.

    No offset is kept: only an error reads one, from `_offset`."""
    end = _VALID_RE.match(text).end()
    if end < len(text):
        raise _error(text, end, f"unexpected character {text[end]!r}")
    tokens = _TOKEN_RE.findall(text)
    if "--" in text:
        tokens = [token for token in tokens if token[0] != "-"]
    tokens.append("")
    return tokens


def _offset(text: str, pos: int) -> int:
    """The offset in text of `_tokenize(text)[pos]`, by a scan that stops
    at that token."""
    for m in _TOKEN_RE.finditer(text):
        if text[m.start()] != "-":  # not a comment
            if not pos:
                return m.start()
            pos -= 1
    return len(text)


def _error(text: str, offset: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """A ParseError at `offset` in text, with its 1-based line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1, expected)


# ---------------------------------------------------------------------------
# Parser: one loop over the tokens, with an explicit stack of open frames

_ATOM_STARTERS = "an identifier, 'cc', 'read', 'write0', 'write1', 'end', 'kont{', '#', or '('"


def _fail(text: str, tokens: list[str], pos: int, message: str, expected: tuple[str, ...]):
    raise _error(text, _offset(text, pos),
                 f"{message}, found {tokens[pos] or 'end of input'!r}", expected)


def _expect(text: str, tokens: list[str], pos: int, value: str):
    """Raise the error for tokens[pos], which is not the punctuation `value`."""
    _fail(text, tokens, pos, f"expected {value!r}", (value,))


def _finish(text: str, tokens: list[str], pos: int, result):
    if tokens[pos]:
        raise _error(text, _offset(text, pos), f"unexpected trailing input {tokens[pos]!r}",
                     ("end of input",))
    return result


# The tokens that start no argument after an atom, but for numbers:
# `_TOKEN_RE`'s punctuation other than '(' and '#', end of input, and the
# reserved words that are no term.
_NO_ARGUMENT = frozenset((")", "{", "}", "::", "*", ".", "\\", "", "nil", "TOP"))


def _parse(text: str, goal: str):
    """Parse `text` as a "term", a "stack" or a "process", or as "any":
    a process if it starts with TOP or its term is followed by '*', else
    a term.

    One loop reads an atom at a time, after the binders of a term that
    starts there.  An open '(' or 'kont{' pushes a frame instead of
    recursing: its closer, the stack entries read so far (None inside
    parentheses), and the binders and application it interrupted.
    Closing the frame pops them back, and the finished term, or the
    continuation over the finished stack, is the next atom of that
    application.  `entries` is the list of the stack being read, or None
    while a term is read outside any stack.  A token is a plain string,
    so its kind is read from the string, and its offset is found only
    for an error.  Terms are immutable, so a parse shares one `Var` per
    name and one numeral per `#n`."""
    tokens = _tokenize(text)
    if goal in ("process", "any") and tokens[0] == "TOP":
        return _finish(text, tokens, 1, TOP)
    pos = 0
    frames = []
    entries = [] if goal == "stack" else None
    binders: list[str] = []
    app = None  # the application read so far in the innermost term
    head = None  # a process's term, once its '*' is read
    names: dict[str, Var] = {}  # each variable name met so far, to its one Var
    numerals: dict[str, Term] = {}  # the digits of each `#n` read so far, to its numeral
    # `_tokenize` has rejected every non-ASCII character outside comments,
    # so on a token `isidentifier` and `isdigit` hold exactly for the
    # identifiers and the numbers of `_TOKEN_RE`.
    while True:
        value = tokens[pos]
        while value == "\\":  # only where a term starts: '\' starts no argument
            name = tokens[pos + 1]
            if name not in names:
                if not name.isidentifier():
                    _fail(text, tokens, pos + 1, "expected a variable name", ("identifier",))
                if name in RESERVED:
                    raise _error(text, _offset(text, pos + 1),
                                 f"reserved word {name!r} cannot be a variable name",
                                 ("identifier",))
                names[name] = Var(name)
            binders.append(name)
            if tokens[pos + 2] != ".":
                _expect(text, tokens, pos + 2, ".")
            pos += 3
            value = tokens[pos]
        t = names.get(value)
        if t is not None:
            pos += 1
        elif value == "(":
            pos += 1
            frames.append((")", entries, binders, app))
            entries, binders, app = None, [], None
            continue
        elif value == "#":
            digits = tokens[pos + 1]
            t = numerals.get(digits)
            if t is None:
                if not digits.isdigit():
                    _fail(text, tokens, pos + 1, "expected a number after '#'", ("natural number",))
                t = numerals[digits] = church_numeral(int(digits))
            pos += 2
        elif value in _KEYWORD_TERMS:
            t = _KEYWORD_TERMS[value]
            pos += 1
        elif value.isidentifier() and value not in RESERVED:
            t = names[value] = Var(value)
            pos += 1
        elif value == "nil" and not binders and entries is not None:
            pos += 1
            stack = stack_of(*entries)
            if not frames:
                return _finish(text, tokens, pos, stack if head is None else Pair(head, stack))
            closer, entries, binders, app = frames.pop()
            if tokens[pos] != closer:
                _expect(text, tokens, pos, closer)
            pos += 1
            t = Kont(stack)
        elif value == "kont":
            if tokens[pos + 1] != "{":
                _expect(text, tokens, pos + 1, "{")
            pos += 2
            frames.append(("}", entries, binders, app))
            entries, binders, app = [], [], None
            continue
        elif value == "nil" or value == "TOP":
            raise _error(text, _offset(text, pos), f"reserved word {value!r} is not a term",
                         (_ATOM_STARTERS,))
        else:
            _fail(text, tokens, pos, "expected a term", (_ATOM_STARTERS,))
        while True:  # t is an atom: apply to it, then close each term that ends here
            app = t if app is None else App(app, t)
            value = tokens[pos]
            if value not in _NO_ARGUMENT and not value.isdigit():
                break
            t = app
            while binders:
                t = Abs(binders.pop(), t)
            app = None
            if entries is not None:
                if value != "::":
                    _expect(text, tokens, pos, "::")
                pos += 1
                entries.append(t)
                break
            if frames:
                closer, entries, binders, app = frames.pop()
                if value != closer:
                    _expect(text, tokens, pos, closer)
                pos += 1
                continue
            if goal == "term" or goal == "any" and value != "*":
                return _finish(text, tokens, pos, t)
            if value != "*":
                _expect(text, tokens, pos, "*")
            pos += 1
            head, entries = t, []
            break


def parse_term(text: str) -> Term:
    return _parse(text, "term")


def parse_stack(text: str) -> Stack:
    return _parse(text, "stack")


def parse_process(text: str) -> Process:
    return _parse(text, "process")


# ---------------------------------------------------------------------------
# Printer.  pretty . parse = identity up to alpha-equivalence, with minimal
# parentheses: only non-atoms appearing in application position are wrapped.


def pretty(x: Term | Stack | Process) -> str:
    if x is TOP:
        return "TOP"
    if not isinstance(x, (Term, Stack, Pair)):
        raise TypeError(f"cannot print {x!r}")
    out: list[str] = []
    work: list = [x]  # strings to emit and nodes to print, last one first
    push = work.append
    while work:
        item = work.pop()
        cls = type(item)
        if cls is str:
            out.append(item)
        elif cls is Var:
            out.append(item.name)
        elif cls is Const:
            out.append(item.kind)
        elif cls is Abs:
            out.append(f"\\{item.param}. ")
            push(item.body)
        elif cls is App:
            parts = []  # the arguments last to first, then the head
            while cls is App:
                parts.append(item.arg)
                item = item.fun
                cls = type(item)
            parts.append(item)
            for i, part in enumerate(parts):
                if i:
                    push(" ")
                if type(part) in (Abs, App):
                    work += (")", part, "(")
                else:
                    push(part)
        elif cls is Kont:
            work += ("}", item.stack, "kont{")
        elif cls is Stack:
            push("nil")
            for entry in reversed(list(item)):
                work += (" :: ", entry)
        else:  # Pair
            work += (item.stack, " * ", item.term)
    return "".join(out)
