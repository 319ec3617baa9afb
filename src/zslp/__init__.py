"""Regex search over RePair-compressed text, without decompression."""

from .automaton import (
    Fsa,
    NewlinePatternError,
    PatternSyntaxError,
    compile_pattern,
    nfa_accepts,
)
from .engine import (
    SearchStats,
    collect_stats,
    contains_match,
    count_matching_lines,
    run_count,
)
from .oracle import oracle_count, oracle_lines
from .repair import CompressionReport, compress, compression_report
from .reporter import report_matching_lines
from .slp import (
    BadMagicError,
    InvalidGrammarError,
    Slp,
    SlpFormatError,
    TruncatedStreamError,
    decode_slp,
    encode_slp,
    expand,
    expand_symbol,
)

__all__ = [
    "BadMagicError",
    "CompressionReport",
    "Fsa",
    "InvalidGrammarError",
    "NewlinePatternError",
    "PatternSyntaxError",
    "SearchStats",
    "Slp",
    "SlpFormatError",
    "TruncatedStreamError",
    "collect_stats",
    "compile_pattern",
    "compress",
    "compression_report",
    "contains_match",
    "count_matching_lines",
    "decode_slp",
    "encode_slp",
    "expand",
    "expand_symbol",
    "nfa_accepts",
    "oracle_count",
    "oracle_lines",
    "report_matching_lines",
    "run_count",
]

__version__ = "0.1.0"
