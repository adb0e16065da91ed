"""Command-line front end: one-shot evaluation, scripts, paradox reports, REPL.

Exit codes form the automation contract: 0 success, 2 lex/parse error,
3 evaluation error, 4 I/O error, 5 unknown paradox.  Output is UTF-8 text or,
with ``--json``, one JSON object per input line.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .errors import GrossoneError, LexError, ParseError
from .exprlang import Call, eval_expr, evaluate, parse, print_value, tokenize, value_json

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EVAL = 3
EXIT_IO = 4
EXIT_UNKNOWN_PARADOX = 5

# paradox name: (the builtin that reports it, the flags that give its arguments)
PARADOXES = {
    "galileo": ("galileo", ()),
    "multiplication": ("multiplication", ()),
    "hilbert": ("hotel", ("m",)),
    "thomson": ("lamp", ("initial", "switches")),
    "torricelli": ("torricelli", ("h",)),
}


# Options whose value is an expression.  argparse takes a value that starts
# with "-", such as "-(9)", for an option; the argument after one of these is
# always its value, as if written "--eval=-(9)".
EXPRESSION_OPTIONS = ("--eval", "--m", "--switches", "--h")


def _join_expression_values(argv: list) -> list:
    joined, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in EXPRESSION_OPTIONS else None
        joined.append(arg if value is None else f"{arg}={value}")
    return joined


def _error(exc: GrossoneError, prefix: str = "") -> int:
    """Print the error and return the exit code it maps to."""
    print(f"{prefix}error: {exc}", file=sys.stderr)
    return EXIT_PARSE if isinstance(exc, (LexError, ParseError)) else EXIT_EVAL


def _run_line(line: str, as_json: bool, lineno: Optional[int] = None) -> int:
    """Evaluate one line and print its value or error; a script gives ``lineno``."""
    try:
        value = evaluate(line)
        if lineno is None:
            out = json.dumps(value_json(value)) if as_json else print_value(value)
        elif as_json:
            out = json.dumps({"input": line, **value_json(value)})
        else:
            out = f"{line} => {print_value(value)}"
    except GrossoneError as exc:
        return _error(exc, "" if lineno is None else f"line {lineno}: ")
    print(out)
    return EXIT_OK


def run_script(path: str, as_json: bool) -> int:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        code = _run_line(stripped, as_json, lineno)
        if code != EXIT_OK:
            return code
    return EXIT_OK


def run_paradox(name: str, args: argparse.Namespace, as_json: bool) -> int:
    if name not in PARADOXES:
        print(f"error: unknown paradox '{name}'", file=sys.stderr)
        return EXIT_UNKNOWN_PARADOX
    builtin, flags = PARADOXES[name]
    try:
        # Each flag value is an expression, evaluated as an argument of the builtin.
        # A flag not given is left out, so the library's default applies.
        values = (getattr(args, f) for f in flags)
        report = eval_expr(Call(builtin, tuple(parse(tokenize(v)) for v in values if v is not None)))
    except GrossoneError as exc:
        return _error(exc)
    # Unlike --eval's, the report's JSON object carries no "type" key.
    print(json.dumps(report.to_json()) if as_json else print_value(report))
    return EXIT_OK if report.resolved else EXIT_EVAL


def run_repl(as_json: bool) -> int:
    while True:
        sys.stdout.write("g> ")
        sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            return EXIT_OK
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            return EXIT_OK
        if line == ":json":
            as_json = not as_json
            continue
        _run_line(line, as_json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grossone",
        description="Exact arithmetic with the infinite unit G and the sets it measures.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--eval", dest="expr", metavar="EXPR", help="evaluate one expression")
    mode.add_argument("--script", metavar="PATH", help="evaluate a file line by line")
    parser.add_argument("--json", action="store_true", help="emit newline-delimited JSON")
    sub = parser.add_subparsers(dest="command")
    par = sub.add_parser("paradox", help="print a named paradox report")
    par.add_argument("name", help="|".join(PARADOXES))
    par.add_argument("--m", help="newcomers for hilbert (default 1)")
    par.add_argument("--switches", help="switch count for thomson (default G)")
    par.add_argument("--initial", choices=["on", "off"], default="on", help="thomson start state")
    par.add_argument("--h", help="strip width for torricelli (default G^-1)")
    par.add_argument(
        "--json", dest="json", action="store_true", default=argparse.SUPPRESS,
        help="emit the report as one JSON object",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(_join_expression_values(argv))
    if args.command == "paradox":
        if args.expr is not None or args.script is not None:
            parser.error("paradox: not allowed with argument --eval or --script")
        return run_paradox(args.name, args, args.json)
    if args.expr is not None:
        return _run_line(args.expr, args.json)
    if args.script is not None:
        return run_script(args.script, args.json)
    return run_repl(args.json)


if __name__ == "__main__":
    sys.exit(main())
