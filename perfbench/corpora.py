"""Seeded corpus generators for the benchmark workloads.

``log_like`` and ``english_like`` follow the generators of the acceptance
suite (``_log_like`` / ``_english_like`` in tests/test_acceptance.py) and
are kept here so the benchmark stands on its own. ``log_like`` adds a seed:
it starts the line counter at a seeded offset inside the generator's period
of 1,800 lines, so two seeds give different bytes with the same period,
grammar size and share of lines each benchmark pattern matches. Offset 0
reproduces the acceptance corpus byte for byte.
"""

from __future__ import annotations

import random

LOG_PERIOD = 1800  # lcm of the cycles 4, 24, 60, 9 and 50 used per line


def log_like(size: int, rng: random.Random) -> bytes:
    hosts = ["alpha", "beta", "gamma", "delta"]
    paths = ["/index.html", "/api/v1/items", "/static/app.js", "/favicon.ico"]
    out = bytearray()
    i = rng.randrange(LOG_PERIOD)
    while len(out) < size:
        line = (
            'host-%s - - [10/Aug/2026:%02d:%02d:%02d] "GET %s HTTP/1.1" %d %d\n'
            % (
                hosts[i % 4],
                i % 24,
                (i * 7) % 60,
                (i * 13) % 60,
                paths[i % 4],
                200 if i % 9 else 404,
                1000 + (i % 50),
            )
        )
        out += line.encode()
        i += 1
    return bytes(out[:size])


_ENGLISH_WORDS = (
    "the a an i you he she we they it love miss need want see know think say "
    "tell time day night house river mountain letter friend heart hand eye "
    "word story song dream road city garden window door light shadow rain "
    "snow wind fire water earth sky star moon sun bird tree flower stone "
    "bread wine table chair book page ink pen paper clock bell ship sea "
    "harbor island bridge tower wall gate king queen soldier farmer teacher "
    "doctor child mother father brother sister really truly quietly slowly "
    "quickly never always often sometimes again still yet once twice"
).split()


def english_like(size: int, rng: random.Random) -> bytes:
    out = bytearray()
    while len(out) < size:
        if rng.random() < 0.05:
            words = [
                "I",
                rng.choice(["really", "truly", "still", "always"]),
                rng.choice(["love", "miss", "need"]),
                "you",
            ]
        else:
            words = [rng.choice(_ENGLISH_WORDS) for _ in range(rng.randrange(4, 12))]
        sentence = " ".join(words)
        if rng.random() < 0.3:
            sentence = sentence.capitalize() + "."
        out += sentence.encode()
        out += b"\n"
    return bytes(out[: size - 1]) + b"\n"
