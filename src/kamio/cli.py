"""Command-line front end.

Subcommands: parse, run, trace, bisim, topequiv, compile-fn, verify-impl,
realize, decode, prelude-list.  Exit codes encode verdicts: 0 for
Verified/Terminated, 2 for Refuted/Stuck, 3 for Unknown/FuelExhausted,
and 1 for parse, schema, or usage errors.  KAMIO_FUEL overrides the
default fuel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import combinators, equivalence, machine, realizability
from .combinators import (
    MalformedOutput, PRELUDE_SOURCE, compile_function, decode_numeral,
    prelude_definitions, resolve_names,
)
from .equivalence import top_equiv, weak_bisim
from .machine import ExecutionContext, RunResult, implements_row, run
from .syntax import (
    ClosednessError, NotProofLike, ParseError, Process, Term,
    parse_process, parse_term, pretty,
)
from .verdict import Verdict

__all__ = ["main", "Config"]

_USAGE_ERRORS = (ParseError, ClosednessError, NotProofLike, MalformedOutput,
                 OSError, ValueError, json.JSONDecodeError, KeyError)


@dataclass
class Config:
    fuel: int = machine.DEFAULT_FUEL
    depth: int = equivalence.DEFAULT_DEPTH
    prelude_path: str | None = None
    output_format: str = "text"


def _default_fuel() -> int:
    value = os.environ.get("KAMIO_FUEL")
    if value is None:
        return machine.DEFAULT_FUEL
    return int(value)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _bindings(config: Config) -> dict[str, str]:
    if config.prelude_path is None:
        return {}
    if config.prelude_path == "builtin":
        source = PRELUDE_SOURCE
    else:
        source = _read(config.prelude_path)
    return prelude_definitions(source)


def _load_term(path: str, config: Config) -> Term:
    return parse_term(resolve_names(_read(path), _bindings(config)))


def _load_process(path: str, config: Config) -> Process:
    return parse_process(resolve_names(_read(path), _bindings(config)))


def _verdict_exit(verdict: Verdict) -> int:
    return {"verified": 0, "refuted": 2, "unknown": 3}[verdict.status]


def _print_verdict(verdict: Verdict, config: Config) -> None:
    payload = realizability.verdict_to_json(verdict)
    if config.output_format == "json":
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


def _print_run(result: RunResult, show_trace: bool, config: Config) -> None:
    if config.output_format == "json":
        print(json.dumps(result.to_json()))
        return
    print(f"outcome: {result.outcome}")
    print(f"process: {pretty(result.final.process)}")
    print(f"input:   {result.final.input!r}")
    print(f"output:  {result.final.output!r}")
    print(f"steps:   {result.steps}")
    if show_trace:
        for action in result.trace:
            print(action.value)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_parse(args, config: Config) -> int:
    text = resolve_names(_read(args.file), _bindings(config))
    try:
        value = parse_process(text)
    except ParseError as process_error:
        try:
            value = parse_term(text)
        except ParseError as term_error:
            # report whichever attempt got further into the input
            raise (term_error
                   if (term_error.line, term_error.col) >= (process_error.line, process_error.col)
                   else process_error)
    if config.output_format == "json":
        kind = "process" if isinstance(value, Process) else "term"
        print(json.dumps({"kind": kind, "text": pretty(value)}))
    else:
        print(pretty(value))
    return 0


def _cmd_run(args, config: Config) -> int:
    proc = _load_process(args.file, config)
    result = run(ExecutionContext(proc, args.input, args.output), config.fuel)
    _print_run(result, args.command == "trace" or args.trace, config)
    return {"terminated": 0, "stuck": 2, "fuel": 3}[result.outcome]


def _cmd_bisim(args, config: Config) -> int:
    left = _load_process(args.left, config)
    right = _load_process(args.right, config)
    verdict = weak_bisim(left, right, config.depth, config.fuel)
    _print_verdict(verdict, config)
    return _verdict_exit(verdict)


def _cmd_topequiv(args, config: Config) -> int:
    left = ExecutionContext(_load_process(args.left, config), args.input_a, args.output_a)
    right = ExecutionContext(_load_process(args.right, config), args.input_b, args.output_b)
    verdict = top_equiv(left, right, config.fuel)
    _print_verdict(verdict, config)
    return _verdict_exit(verdict)


def _cmd_compile_fn(args, config: Config) -> int:
    term = _load_term(args.file, config)
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
        n, m = int(parts[0]), int(parts[1])
        if n < 0 or m < 0:
            raise ValueError(f"table line {lineno}: naturals required")
        table[n] = m
    return table


def _cmd_verify_impl(args, config: Config) -> int:
    proc = _load_process(args.file, config)
    table = _parse_table(_read(args.table))
    rows = [(n, table[n], implements_row(proc, n, table[n], config.fuel))
            for n in sorted(table)]
    overall = Verdict.all_of(verdict for _, _, verdict in rows)
    if config.output_format == "json":
        print(json.dumps({
            "rows": [{"input": n, "expected": m, "status": v.status}
                     for n, m, v in rows],
            "verdict": realizability.verdict_to_json(overall),
        }))
    else:
        for n, m, verdict in rows:
            print(f"{n}\t{m}\t{verdict.status}")
        _print_verdict(overall, config)
    return _verdict_exit(overall)


def _cmd_realize(args, config: Config) -> int:
    obj = json.loads(_read(args.file))
    if isinstance(obj, dict):
        obj.setdefault("fuel", config.fuel)  # a scenario's own fuel wins
    scenario = realizability.scenario_from_json(obj)
    verdict, report = realizability.run_scenario(scenario)
    print(json.dumps(report, indent=2))
    return _verdict_exit(verdict)


def _cmd_decode(args, config: Config) -> int:
    term = _load_term(args.file, config)
    try:
        value = decode_numeral(term, config.fuel)
    except MalformedOutput as exc:
        print(f"malformed: {exc}", file=sys.stderr)
        return 2
    if value is None:
        print("unknown")
        return 3
    print(value)
    return 0


def _cmd_prelude_list(args, config: Config) -> int:
    source = PRELUDE_SOURCE if config.prelude_path in (None, "builtin") \
        else _read(config.prelude_path)
    if args.expanded:
        for name, term in combinators.load_prelude(source).items():
            print(f"{name} = {pretty(term)}")
    else:
        for name in prelude_definitions(source):
            print(name)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fuel", type=int, default=None,
                        help="step budget (default 1000000, or KAMIO_FUEL)")
    parser.add_argument("--depth", type=int, default=equivalence.DEFAULT_DEPTH,
                        help="visible-action depth for bisimulation (default 16)")
    parser.add_argument("--prelude", nargs="?", const="builtin", default=None,
                        metavar="PATH",
                        help="bind combinator names before parsing; "
                             "without PATH, use the bundled prelude")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        dest="output_format", help="output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kamio",
        description="Krivine machine with bit I/O: run processes, check "
                    "equivalences, and verify realizability scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a process or term and reprint it")
    p.set_defaults(func=_cmd_parse)
    p.add_argument("file")
    _add_common(p)

    for name, help_text in (("run", "run a process on an input string"),
                            ("trace", "run a process and print its action trace")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=_cmd_run)
        p.add_argument("file")
        p.add_argument("--input", default="", help="input bit string")
        p.add_argument("--output", default="", help="initial output bit string")
        p.add_argument("--trace", action="store_true", help="print the action trace")
        _add_common(p)

    p = sub.add_parser("bisim", help="bounded weak-bisimilarity check")
    p.set_defaults(func=_cmd_bisim)
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)

    p = sub.add_parser("topequiv", help="bounded TOP-equivalence check")
    p.set_defaults(func=_cmd_topequiv)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--input-a", default="", help="input for the left context")
    p.add_argument("--input-b", default="", help="input for the right context")
    p.add_argument("--output-a", default="", help="output for the left context")
    p.add_argument("--output-b", default="", help="output for the right context")
    _add_common(p)

    p = sub.add_parser("compile-fn",
                       help="compile a numeral-level function term to an I/O process")
    p.set_defaults(func=_cmd_compile_fn)
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    _add_common(p)

    p = sub.add_parser("verify-impl",
                       help="check a process against an input/output table")
    p.set_defaults(func=_cmd_verify_impl)
    p.add_argument("file")
    p.add_argument("--table", required=True, help="TSV file of `n<TAB>m` rows")
    _add_common(p)

    p = sub.add_parser("realize", help="check a realizability scenario (JSON)")
    p.set_defaults(func=_cmd_realize)
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("decode", help="decode a term as a Church numeral")
    p.set_defaults(func=_cmd_decode)
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("prelude-list", help="list the prelude combinators")
    p.set_defaults(func=_cmd_prelude_list)
    p.add_argument("--expanded", action="store_true",
                   help="print fully expanded definitions")
    _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = Config(
        fuel=args.fuel if args.fuel is not None else _default_fuel(),
        depth=args.depth,
        prelude_path=args.prelude,
        output_format=args.output_format,
    )
    try:
        return args.func(args, config)
    except _USAGE_ERRORS as exc:
        print(f"kamio: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
