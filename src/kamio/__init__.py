"""Krivine abstract machine with bit-level I/O.

A library for running lambda terms with call/cc and read/write/end
instructions on a stack machine, checking bounded weak bisimilarity and
TOP-equivalence of processes, compiling numeral-level functions to I/O
processes, and probing classical-realizability poles built from I/O
specifications.
"""

from .syntax import (
    Term, Var, Abs, App, Const, Kont,
    CALLCC, READ, WRITE0, WRITE1, END,
    Stack, EMPTY, stack_of, Process, Pair, TOP,
    ParseError, ClosednessError, NotProofLike, InvalidPosition,
    parse_term, parse_stack, parse_process, pretty,
    substitute, is_proof_like, effect_constants,
    church_numeral,
)
from .verdict import Verdict
from .machine import (
    Action, ExecutionContext, RunResult, DEFAULT_FUEL,
    eval_step, lts_step, exec_step, run, bin_nat, nat_of_bin,
)
from .equivalence import (
    Observable, observable, weak_bisim,
    beta_redexes, beta_contract, top_equiv,
)
from .combinators import (
    decode_numeral, storage_apply, compile_function,
    reader_process, MalformedOutput, COMBINATORS,
)
from . import realizability

__version__ = "0.1.0"
