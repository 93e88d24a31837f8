r"""Command-line front end.

Subcommands: parse, run, trace, bisim, topequiv, compile-fn, verify-impl,
realize, decode, prelude-list.  Each takes only the options it reads.
Exit codes encode verdicts: 0 for Verified/Terminated, 2 for
Refuted/Stuck, 3 for Unknown/FuelExhausted, and 1 for parse, schema, or
usage errors and for a scenario file nested too deeply for the JSON
reader, which recurses.  Parsing, running, printing and every silent
step (`machine.eval_step`, one closure step read back) take any depth:
`kamio bisim` verifies `#2000 * (\x. x x) :: (\x. x x) :: nil` against
`(\z. z) (#2000) * (\x. x x) :: (\x. x x) :: nil`.

Fuel: `--fuel`, else KAMIO_FUEL, else 1000000.  A realizability pole's
budget is settled when its scenario is loaded: the pole's own "fuel" key
(a union's passes to its members), else the scenario's "fuel", else the
command-line fuel.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import combinators, equivalence, machine, realizability
from .combinators import (
    MalformedOutput, PRELUDE_SOURCE, compile_function, decode_numeral,
    prelude_definitions, resolve_names,
)
from .equivalence import top_equiv, weak_bisim
from .machine import ExecutionContext, RunResult, implements_row, run
from .syntax import ClosednessError, NotProofLike, ParseError, Process, _parse, pretty
from .verdict import Verdict

__all__ = ["main"]

_USAGE_ERRORS = (ParseError, ClosednessError, NotProofLike, MalformedOutput,
                 OSError, ValueError)  # json.JSONDecodeError is a ValueError


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _prelude_source(args) -> str:
    return PRELUDE_SOURCE if args.prelude in (None, "builtin") else _read(args.prelude)


def _bindings(args) -> dict[str, str]:
    return {} if args.prelude is None else prelude_definitions(_prelude_source(args))


def _load(path: str, args, goal: str):
    return _parse(resolve_names(_read(path), _bindings(args)), goal)


def _verdict_exit(verdict: Verdict) -> int:
    return {"verified": 0, "refuted": 2, "unknown": 3}[verdict.status]


def _print_verdict(verdict: Verdict, args) -> None:
    payload = realizability.verdict_to_json(verdict)
    if args.output_format == "json":
        print(json.dumps(payload))
        return
    line = verdict.status
    if verdict.sampled:
        line += " (sampled)"
    if verdict.reason:
        line += f" [{verdict.reason}]"
    if "witness" in payload:
        line += f" witness: {payload['witness']}"
    print(line)


def _print_run(result: RunResult, args) -> None:
    if args.output_format == "json":
        print(json.dumps(result.to_json()))
        return
    print(f"outcome: {result.outcome}")
    print(f"process: {pretty(result.final.process)}")
    print(f"input:   {result.final.input!r}")
    print(f"output:  {result.final.output!r}")
    print(f"steps:   {result.steps}")
    if args.command == "trace" or args.trace:
        for action in result.trace:
            print(action.value)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_parse(args) -> int:
    value = _load(args.file, args, "any")
    if args.output_format == "json":
        kind = "process" if isinstance(value, Process) else "term"
        print(json.dumps({"kind": kind, "text": pretty(value)}))
    else:
        print(pretty(value))
    return 0


def _cmd_run(args) -> int:
    proc = _load(args.file, args, "process")
    result = run(ExecutionContext(proc, args.input, args.output), args.fuel)
    _print_run(result, args)
    return {"terminated": 0, "stuck": 2, "fuel": 3}[result.outcome]


def _cmd_bisim(args) -> int:
    left = _load(args.left, args, "process")
    right = _load(args.right, args, "process")
    verdict = weak_bisim(left, right, args.depth, args.fuel)
    _print_verdict(verdict, args)
    return _verdict_exit(verdict)


def _cmd_topequiv(args) -> int:
    left = ExecutionContext(_load(args.left, args, "process"), args.input_a, args.output_a)
    right = ExecutionContext(_load(args.right, args, "process"), args.input_b, args.output_b)
    verdict = top_equiv(left, right, args.fuel)
    _print_verdict(verdict, args)
    return _verdict_exit(verdict)


def _cmd_compile_fn(args) -> int:
    term = _load(args.file, args, "term")
    proc = compile_function(term)
    text = pretty(proc) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _parse_table(text: str) -> dict[int, int]:
    table: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2:
            raise ValueError(f"table line {lineno}: expected `n<TAB>m`, got {raw!r}")
        n, m = (realizability._decimal(cell, f"table line {lineno}: cell") for cell in parts)
        if n < 0 or m < 0:
            raise ValueError(f"table line {lineno}: naturals required")
        if n in table:
            raise ValueError(f"table line {lineno}: input {n} already has a row")
        table[n] = m
    if not table:
        raise ValueError("table has no rows")
    return table


def _cmd_verify_impl(args) -> int:
    proc = _load(args.file, args, "process")
    table = _parse_table(_read(args.table))
    rows = [(n, table[n], implements_row(proc, n, table[n], args.fuel))
            for n in sorted(table)]
    overall = Verdict.all_of((verdict for _, _, verdict in rows),
                             sampled=True)  # table rows only, not all of dom(f)
    if args.output_format == "json":
        print(json.dumps({
            "rows": [{"input": n, "expected": m, "status": v.status}
                     for n, m, v in rows],
            "verdict": realizability.verdict_to_json(overall),
        }))
    else:
        for n, m, verdict in rows:
            print(f"{n}\t{m}\t{verdict.status}")
        _print_verdict(overall, args)
    return _verdict_exit(overall)


def _cmd_realize(args) -> int:
    obj = json.loads(_read(args.file))
    if isinstance(obj, dict):
        obj.setdefault("fuel", args.fuel)  # a scenario's own fuel wins
    scenario = realizability.scenario_from_json(obj)
    verdict, report = realizability.run_scenario(scenario)
    print(json.dumps(report, indent=2))
    return _verdict_exit(verdict)


def _cmd_decode(args) -> int:
    term = _load(args.file, args, "term")
    try:
        value = decode_numeral(term, args.fuel)
    except MalformedOutput as exc:
        print(f"malformed: {exc}", file=sys.stderr)
        return 2
    if value is None:
        print("unknown")
        return 3
    print(value)
    return 0


def _cmd_prelude_list(args) -> int:
    source = _prelude_source(args)
    if args.expanded:
        for name, term in combinators.load_prelude(source).items():
            print(f"{name} = {pretty(term)}")
    else:
        for name in prelude_definitions(source):
            print(name)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)  # usage errors exit 1 through main's boundary


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The parser, built once per process, and its `--fuel` option, whose
    default `main` sets from KAMIO_FUEL on every call."""
    # one parent parser per shared option; each subcommand takes the ones it reads
    fuel, prelude, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    fuel_option = fuel.add_argument("--fuel", type=int,
                                    help="step budget (default KAMIO_FUEL, else 1000000)")
    prelude.add_argument("--prelude", nargs="?", const="builtin", default=None,
                         metavar="PATH",
                         help="bind combinator names before parsing; "
                              "without PATH, use the bundled prelude")
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     dest="output_format", help="output format")

    parser = _ArgumentParser(
        prog="kamio",
        description="Krivine machine with bit I/O: run processes, check "
                    "equivalences, and verify realizability scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=list(parents))
        p.set_defaults(func=func)
        return p

    p = add("parse", _cmd_parse, "parse a process or term and reprint it", prelude, fmt)
    p.add_argument("file")

    for name, help_text in (("run", "run a process on an input string"),
                            ("trace", "run a process and print its action trace")):
        p = add(name, _cmd_run, help_text, fuel, prelude, fmt)
        p.add_argument("file")
        p.add_argument("--input", default="", help="input bit string")
        p.add_argument("--output", default="", help="initial output bit string")
        if name == "run":  # trace always prints the trace
            p.add_argument("--trace", action="store_true", help="print the action trace")

    p = add("bisim", _cmd_bisim, "bounded weak-bisimilarity check", fuel, prelude, fmt)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--depth", type=int, default=equivalence.DEFAULT_DEPTH,
                   help="visible-action depth (default %(default)s)")

    p = add("topequiv", _cmd_topequiv, "bounded TOP-equivalence check", fuel, prelude, fmt)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--input-a", default="", help="input for the left context")
    p.add_argument("--input-b", default="", help="input for the right context")
    p.add_argument("--output-a", default="", help="output for the left context")
    p.add_argument("--output-b", default="", help="output for the right context")

    p = add("compile-fn", _cmd_compile_fn,
            "compile a numeral-level function term to an I/O process", prelude)
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-", help="output file (default stdout)")

    p = add("verify-impl", _cmd_verify_impl,
            "check a process against an input/output table", fuel, prelude, fmt)
    p.add_argument("file")
    p.add_argument("--table", required=True, help="TSV file of `n<TAB>m` rows")

    # the report is JSON under either --format
    p = add("realize", _cmd_realize, "check a realizability scenario (JSON)", fuel, fmt)
    p.add_argument("file")

    p = add("decode", _cmd_decode, "decode a term as a Church numeral", fuel, prelude)
    p.add_argument("file")

    p = add("prelude-list", _cmd_prelude_list, "list the prelude combinators", prelude)
    p.add_argument("--expanded", action="store_true",
                   help="print fully expanded definitions")

    return parser, fuel_option


def main(argv: list[str] | None = None) -> int:
    try:
        parser, fuel_option = _build_parser()
        # argparse converts a string default with `type`, so a bad value
        # fails as `argument --fuel: invalid int value`
        fuel_option.default = os.environ.get("KAMIO_FUEL", machine.DEFAULT_FUEL)
        args = parser.parse_args(argv)
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"kamio: error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("kamio: error: scenario JSON is nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
