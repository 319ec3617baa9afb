"""Command-line front end: compress, decompress, count, search, stats.

Exit codes follow the grep convention: 0 when the run succeeded and, for
count/search, found at least one match; 1 when a count/search ran cleanly
but matched nothing; 2 for usage, pattern, or format errors. Missing input
paths mean stdin. All I/O is byte-oriented.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .automaton import NewlinePatternError, PatternSyntaxError

# count, search and stats only decide which lines match, so they compile
# the edge-reduced pattern; perfbench's tracer wraps this module's name.
from .automaton import compile_line_pattern as compile_pattern
from .engine import collect_stats, run_count
from .repair import MAX_INPUT_BYTES, compress
from .reporter import report_matching_lines
from .slp import (
    InvalidGrammarError,
    Slp,
    SlpFormatError,
    ZslpReader,
    encode_slp,
    iter_expand,
)


def _open_input(path):
    return nullcontext(sys.stdin.buffer) if path is None else open(path, "rb")


def _open_output(path):
    return nullcontext(sys.stdout.buffer) if path is None else open(path, "wb")


def _load_slp(path) -> Slp:
    """Read a whole ZSLP stream into a grammar."""
    with _open_input(path) as stream:
        return ZslpReader(stream).read_slp()


def _cmd_compress(args) -> int:
    with _open_input(args.input) as stream:
        data = stream.read(MAX_INPUT_BYTES + 1)
    if not data:
        print("zslp: input error: refusing to compress empty input", file=sys.stderr)
        return 2
    if len(data) > MAX_INPUT_BYTES:
        print(
            f"zslp: input error: input is over compress's {MAX_INPUT_BYTES}-byte limit",
            file=sys.stderr,
        )
        return 2
    slp = compress(data)
    payload = encode_slp(slp)
    with _open_output(args.output) as out:
        out.write(payload)
        out.flush()
    print(
        f"rules={len(slp.rules)} axiom_len={len(slp.axiom)} "
        f"ratio={len(data) / len(payload):.3f}",
        file=sys.stderr,
    )
    return 0


def _cmd_decompress(args) -> int:
    slp = _load_slp(args.input)
    with _open_output(args.output) as out:
        for chunk in iter_expand(slp):
            out.write(chunk)
        out.flush()
    return 0


def _cmd_count(args) -> int:
    fsa = compile_pattern(args.pattern)
    with _open_input(args.input) as stream:
        reader = ZslpReader(stream)
        total = run_count(reader.iter_rules(), reader.read_axiom, fsa)
    sys.stdout.write(f"{total}\n")
    sys.stdout.flush()
    return 0 if total > 0 else 1


def _cmd_search(args) -> int:
    fsa = compile_pattern(args.pattern)
    slp = _load_slp(args.input)
    emitted = report_matching_lines(slp, fsa, sys.stdout.buffer)
    sys.stdout.buffer.flush()
    return 0 if emitted > 0 else 1


def _cmd_stats(args) -> int:
    fsa = compile_pattern(args.pattern)
    stats = collect_stats(_load_slp(args.input), fsa)
    if args.json:
        payload = {
            "states": stats.s,
            "states_cubed": stats.s**3,
            "states_squared": stats.s**2,
            "rules": stats.p,
            "axiom_len": stats.axiom_len,
            "rule_percentiles": {str(k): v for k, v in stats.rule_percentiles.items()},
            "axiom_percentiles": {
                str(k): v for k, v in stats.axiom_percentiles.items()
            },
            "measured_ops": stats.measured_ops,
        }
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        sys.stdout.write(
            f"automaton states: s={stats.s}  s^3={stats.s ** 3}  s^2={stats.s ** 2}\n"
            f"grammar: rules={stats.p}  axiom_len={stats.axiom_len}\n"
        )

        def row(label, percentiles):
            cells = "  ".join(f"p{k}={v}" for k, v in percentiles.items())
            return f"{label}: {cells}\n"

        sys.stdout.write(row("per-rule ops", stats.rule_percentiles))
        sys.stdout.write(row("per-axiom-symbol ops", stats.axiom_percentiles))
        sys.stdout.write(f"measured ops: {stats.measured_ops}\n")
    sys.stdout.flush()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zslp",
        description="Search RePair-compressed text without decompressing it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compress = sub.add_parser("compress", help="bytes -> ZSLP")
    p_compress.add_argument("input", nargs="?", default=None)
    p_compress.add_argument("-o", "--output", default=None)
    p_compress.set_defaults(func=_cmd_compress)

    p_decompress = sub.add_parser("decompress", help="ZSLP -> bytes")
    p_decompress.add_argument("input", nargs="?", default=None)
    p_decompress.add_argument("-o", "--output", default=None)
    p_decompress.set_defaults(func=_cmd_decompress)

    p_count = sub.add_parser("count", help="print the number of matching lines")
    p_count.add_argument("-e", "--pattern", required=True)
    p_count.add_argument("input", nargs="?", default=None)
    p_count.set_defaults(func=_cmd_count)

    p_search = sub.add_parser("search", help="print the matching lines")
    p_search.add_argument("-e", "--pattern", required=True)
    p_search.add_argument("input", nargs="?", default=None)
    p_search.set_defaults(func=_cmd_search)

    p_stats = sub.add_parser("stats", help="operation-count percentiles")
    p_stats.add_argument("-e", "--pattern", required=True)
    p_stats.add_argument("input", nargs="?", default=None)
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (PatternSyntaxError, NewlinePatternError) as exc:
        print(f"zslp: pattern error: {exc}", file=sys.stderr)
        return 2
    except SlpFormatError as exc:
        print(f"zslp: format error: {exc}", file=sys.stderr)
        return 2
    except InvalidGrammarError as exc:
        print(f"zslp: grammar error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Like grep when its reader goes away: no message, and the status a
        # shell reports for death by SIGPIPE (128 + 13). Pointing stdout at
        # devnull keeps the flush at interpreter exit from failing again.
        _stdout_to_devnull()
        return 141
    except OSError as exc:
        print(f"zslp: io error: {exc}", file=sys.stderr)
        return 2


def _stdout_to_devnull() -> None:
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # a stand-in stream without a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main() -> None:
    sys.exit(run_cli())
