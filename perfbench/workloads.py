"""The benchmark's workloads: which corpus they generate and which queries run.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. A round is one ``decompress`` round trip of
the workload's ``.zslp`` followed by ``count`` and ``search`` for every
pattern. Only whole rounds are timed, so every pattern has the same number
of samples in a run and the percentiles do not depend on where time ran out.

The patterns are chosen so that each matches the same share of lines for
every seed: the seed changes the bytes, not the shape of the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import corpora


@dataclass(frozen=True)
class Corpus:
    label: str
    generate: object  # (size, rng) -> bytes
    size: int


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Corpus
    patterns: object  # rng -> list of patterns


# Shares of matching lines (for every seed): POST 0, beta..js 0,
# 2026:0x:x9 0.04, 404 0.11, GET /api 0.25, alpha|gamma 0.5, HTTP/1.1 1.
LOG_PATTERNS = (
    "POST",
    "beta.*:1[0-9]:.*js",
    "2026:0[0-9]:[0-5]9",
    "404",
    "GET /api",
    "host-(alpha|gamma) .*(html|js)",
    "HTTP/1\\.1",
)

PROSE_PATTERNS = (
    "I .* you",
    "river",
    "love|miss",
    "(king|queen) .*(ship|sea)",
    "Mother",
    "zebra",
    "the",
)


def regex_heavy_patterns(rng: random.Random) -> list:
    """A seeded draw of bounded-repetition patterns with fixed shapes.

    Each slot fixes the automaton's shape (states, transition cells) and
    the share of matching lines; the draw only picks among literals of the
    same length and the same share, so the cost of a slot does not depend
    on the seed. There are seven slots, an odd number, so the median latency
    falls inside one slot's samples rather than between two slots. The
    widest slot, ``.{0,32}``, stays well below the ``.{0,512}`` size at
    which the compiler runs out of memory.
    """
    path_words = ["html", "item", "stat", "favi"]  # one path each, 1/4 of lines
    hosts = ["alpha", "gamma", "delta"]  # 1/4 of lines each
    strangers = ["omega", "sigma"]  # never occur
    return [
        ".{0,32}" + rng.choice("zqkwy#!~%&"),  # a byte no log line holds
        "(GET|POST) .{0,20}(%s|%s)" % tuple(rng.sample(path_words, 2)),  # 1/2
        "[a-z]{2,20}\\." + rng.choice(["htm", "ico"]),  # 1/4
        "-(%s){1,2} " % "|".join(rng.sample(rng.sample(hosts, 2) + strangers, 4)),  # 1/2
        "\\[[0-9/A-Za-z]{4,12}:%s[0-9]:.{0,10}\\]" % rng.choice("01"),  # 10/24
        '(%s|%s)[0-9]\\] ".{0,12}(items|ico)' % tuple(rng.sample("012345", 2)),  # 1/6
        '1\\.1" [0-9]{3} 10%s[0-9]{1,8}' % rng.choice("01234"),  # 1/5
    ]


def _fixed(patterns):
    return lambda rng: list(patterns)


WORKLOADS = {
    "log-grep": Workload(
        "log-grep", Corpus("log", corpora.log_like, 262_144), _fixed(LOG_PATTERNS)
    ),
    "prose-grep": Workload(
        "prose-grep", Corpus("prose", corpora.english_like, 262_144), _fixed(PROSE_PATTERNS)
    ),
    "regex-heavy": Workload(
        "regex-heavy", Corpus("log", corpora.log_like, 131_072), regex_heavy_patterns
    ),
}


def corpus_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"corpus:{workload}:{seed}")


def pattern_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"patterns:{workload}:{seed}")
