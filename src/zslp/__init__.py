"""Regex search over RePair-compressed text, without decompression."""

from .automaton import (
    Fsa,
    NewlinePatternError,
    PatternSyntaxError,
    compile_pattern,
)
from .engine import (
    SearchStats,
    collect_stats,
    contains_match,
    count_matching_lines,
)
from .repair import compress
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
)

__all__ = [
    "BadMagicError",
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
    "contains_match",
    "count_matching_lines",
    "decode_slp",
    "encode_slp",
    "expand",
    "report_matching_lines",
]

__version__ = "0.1.0"
