"""Command-line front end: batch execution, explain mode, and a small REPL.

Exit codes: 0 success, 1 query error (parse/validate/plan), 2 data error
(reading a document or the query file, unknown doc names), 3 internal error:
an invariant breach, or any exception that is not a JpqError.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, TextIO

from .engine import Engine
from .errors import DataError, JpqError, QueryError
from .model import parse_document, serialize
from .parser import parse_query
from .terms import Record

EXIT_OK = 0
EXIT_QUERY = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class CliConfig(Record):
    docs: tuple[tuple[str, str], ...] = ()
    query_path: Optional[str] = None
    query_text: Optional[str] = None
    explain: bool = False
    pretty: bool = False
    output: Optional[str] = None


def _read(path: str, what: str) -> str:
    """The text of the UTF-8 file at `path`, which the error message calls `what`."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {what}: {e}") from e


def _read_document(engine: Engine, name: str, path: str) -> None:
    """Read the JSON file at `path` into the engine's registry as `name`."""
    engine.registry.register(name, parse_document(_read(path, f"document {name!r}")))


def _failure(e: Exception) -> tuple[str, int]:
    """The message reporting a failed command, and its exit code."""
    if isinstance(e, DataError):
        return f"error: {e}", EXIT_DATA
    if isinstance(e, QueryError):
        return f"error: {e}", EXIT_QUERY
    if isinstance(e, JpqError):
        return f"internal error: {e}", EXIT_INTERNAL
    return f"internal error: {type(e).__name__}: {e}", EXIT_INTERNAL


def _execute(config: CliConfig) -> str:
    """What the command prints: the plan when asked for, then the result."""
    query_text = config.query_text
    if query_text is None:
        query_text = _read(config.query_path, "query file")
    q = parse_query(query_text)  # static query errors come before any document
    engine = Engine()
    for name, path in config.docs:
        _read_document(engine, name, path)
    plan = engine.explain(q) + "\n" if config.explain else ""
    return plan + serialize(engine.run(q), pretty=config.pretty) + "\n"


def run_query(
    config: CliConfig, out: Optional[TextIO] = None, err: Optional[TextIO] = None
) -> int:
    """Run one command; its text reaches stdout or the output file only
    when the whole command succeeds."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        text = _execute(config)
        if config.output:
            try:
                with open(config.output, "w", encoding="utf-8") as f:
                    f.write(text)
            except OSError as e:
                raise DataError(f"cannot open output file: {e}") from e
        else:
            out.write(text)
        return EXIT_OK
    except Exception as e:
        message, code = _failure(e)
        err.write(message + "\n")
        return code


def repl(
    stdin: Optional[TextIO] = None,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
    pretty: bool = False,
) -> int:
    """Interactive loop: `:load name path`, `:run <query>`, `:explain <query>`,
    `:quit`.  Errors are reported per command without ending the session."""
    stdin = sys.stdin if stdin is None else stdin
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    engine = Engine()
    out.write("jpq - :load name path | :run <query> | :explain <query> | :quit\n")
    while True:
        out.write("jpq> ")
        out.flush()
        line = stdin.readline()
        if not line:
            return EXIT_OK
        line = line.strip()
        if not line:
            continue
        cmd, _, rest = line.partition(" ")
        try:
            if cmd == ":quit":
                return EXIT_OK
            elif cmd == ":load":
                name, _, path = rest.strip().partition(" ")
                if not name or not path.strip():
                    err.write("usage: :load name path\n")
                    continue
                _read_document(engine, name, path.strip())
                out.write(f"loaded {name}\n")
            elif cmd == ":run":
                q = parse_query(rest)
                out.write(serialize(engine.run(q), pretty=pretty) + "\n")
            elif cmd == ":explain":
                q = parse_query(rest)
                out.write(engine.explain(q) + "\n")
            else:
                err.write(f"unknown command {cmd!r}\n")
        except Exception as e:
            err.write(_failure(e)[0] + "\n")


def _parse_doc_binding(text: str) -> tuple[str, str]:
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected name=path, got {text!r}")
    return name, path


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jpq", description="Run pattern-based queries over JSON documents."
    )
    p.add_argument(
        "--doc",
        metavar="NAME=PATH",
        type=_parse_doc_binding,
        action="append",
        default=[],
        help="bind a document name to a JSON file (repeatable)",
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument("--query", metavar="PATH", help="read the query from a file")
    src.add_argument("-e", "--expr", metavar="TEXT", help="query text inline")
    p.add_argument("--explain", action="store_true", help="print the query plan")
    p.add_argument("--pretty", action="store_true", help="indent the output")
    p.add_argument("--output", metavar="PATH", help="write the result to a file")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.query is None and args.expr is None:
        return repl(pretty=args.pretty)
    config = CliConfig(
        docs=tuple(args.doc),
        query_path=args.query,
        query_text=args.expr,
        explain=args.explain,
        pretty=args.pretty,
        output=args.output,
    )
    return run_query(config)


if __name__ == "__main__":
    sys.exit(main())
