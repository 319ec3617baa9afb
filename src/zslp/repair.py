"""RePair compression: repeatedly replace the most frequent adjacent pair.

Pair frequencies are non-overlapping, scanned left to right, so "aaaa"
contains "aa" twice and "aaa" only once. Among equally frequent pairs the
lowest wins: a pair's height is the taller of its two symbols' (a byte has
height 0, a rule one more than its taller part). Among equally frequent,
equally high pairs the one whose first live occurrence is leftmost wins, which
makes the output a deterministic function of the input. A pair occurring once
is never replaced.

The height rule keeps grammars of periodic text shallow. Leftmost-first alone
pairs each new variable with the next period's symbol, since that pair is
again the leftmost, and so builds a left comb over the whole text: a grammar
852 high on the benchmark's seed-1 256 KiB log corpus, 23 with the height
rule, at the same size. Every walk down the grammar (expansion, the reporter) costs
its height; Ganardi, Jez & Lohrey (*Balancing straight-line programs*, FOCS
2019) show that an equivalent grammar of the same order of size and of height
logarithmic in the text always exists.

The bookkeeping follows Larsson & Moffat (*Off-line dictionary-based
compression*, Proc. IEEE 2000), in plain lists:

- The sequence is three lists over the input positions: symbol, next and
  previous. An end slot holding the symbol -1 follows the last position and
  is also the first one's previous (index -1); deleted positions hold -1
  too, so "pair (a, b) is at i" is just ``sym[i] == a and sym[nxt[i]] == b``.
- Each pair lists the positions where it starts, in ascending order (every
  scan walks left to right), and its list is only appended to. An entry
  that stops holding its pair never holds it again, so dead leading entries
  are trimmed when the pair is read and the first one left is its first
  live occurrence.
- A replacement sweep deletes nothing. After it, the replaced positions are
  grouped by left and by right neighbour symbol: each group adds its size to
  the loss count of the pair it destroyed and, if it holds two or more
  positions, lists the new pair it formed. An unequal pair's live count is
  its entries minus its losses; a pair ``(a, a)`` is counted greedily over
  its live entries.
- Candidate pairs sit in a lazy min-heap of ``(-count, height, first
  position, key)`` snapshots, checked when popped. Only the newest
  variable's pairs gain occurrences, so known counts only fall and first
  positions only move right, while a pair's height never changes: a
  snapshot is a lower bound on its pair's key, and one that holds is the
  minimum.
- RePair's lists of ints and its dicts form no reference cycles, so the
  cyclic garbage collector is paused while it runs; its passes over the
  millions of live objects cost 5-10% of the time on the seed-1 corpora.

On the benchmark's seed-1 256 KiB corpora this takes about 0.8 s/MiB of
CPU on log lines and 1.5 s/MiB on English-like text (in-process
``process_time`` medians of 5 calls, three rounds: 0.75-1.00 and
1.41-2.01 s/MiB; 2-vCPU Xeon KVM guest, CPython 3.11.7), and grows peak
RSS by 69-97 bytes per input byte.
"""

from __future__ import annotations

import gc
import heapq
from collections import Counter, defaultdict
from itertools import islice

# Peak RSS grows by at most ~100 bytes per input byte (1-4 MB log, prose,
# random and run inputs): under 2 GB at MAX_INPUT_BYTES.
from .slp import FIRST_VARIABLE, MAX_INPUT_BYTES, Slp

# Unused here: the benchmark tracer (perfbench/tracing.py) still swaps
# zslp.repair.encode_slp. Drop this import together with that swap.
from .slp import encode_slp  # noqa: F401
# Pair key: first * _KEY_BASE + second. Each rule shortens the sequence, so
# ids stay below FIRST_VARIABLE + MAX_INPUT_BYTES, far below the base.
_KEY_BASE = 1 << 32


def compress(text: bytes) -> Slp:
    """Compress a non-empty byte string of at most MAX_INPUT_BYTES into a grammar."""
    n = len(text)
    if not n:
        raise ValueError("cannot compress empty input")
    if n > MAX_INPUT_BYTES:
        raise ValueError(f"input of {n} bytes exceeds {MAX_INPUT_BYTES} bytes")
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _repair(text)
    finally:
        if collecting:
            gc.enable()


def _repair(text: bytes) -> Slp:
    n = len(text)
    base = _KEY_BASE
    sym = [*text, -1]
    nxt = list(range(1, n + 1))
    prv = [-1, 0] + nxt[:-1]  # shares nxt's int objects
    occ: dict[int, list[int]] = {}
    lost: Counter = Counter()
    height = [0] * FIRST_VARIABLE  # by symbol id
    heap: list[tuple[int, int, int, int]] = []

    def live_count(key: int, positions: list) -> int:
        a, b = divmod(key, base)
        if a != b:
            return len(positions) - lost.get(key, 0)
        count = 0  # greedy, left to right, over the live entries
        barrier = -1
        for i in positions:
            if i != barrier and sym[i] == a and sym[nxt[i]] == a:
                count += 1
                barrier = nxt[i]
        return count

    def offer(key: int, pair_height: int, positions: list) -> None:
        count = live_count(key, positions)
        if count >= 2:
            occ[key] = positions
            heapq.heappush(heap, (-count, pair_height, positions[0], key))

    # The first scan keys byte pairs as 16-bit ints, cheaper to build and hash.
    byte_pairs: dict[int, list[int]] = defaultdict(list)
    for i, first, second in zip(islice(prv, 1, None), text, text[1:]):
        byte_pairs[first << 8 | second].append(i)
    for pair, positions in byte_pairs.items():
        offer((pair >> 8) * base + (pair & 0xFF), 0, positions)
    del byte_pairs  # lists of replaced pairs are freed as they go

    rules: list[tuple[int, int]] = []
    while heap:
        neg_count, pair_height, pos, key = heapq.heappop(heap)
        # Each listed pair has one snapshot in the heap; it is unlisted on a pop.
        positions = occ[key]
        count = live_count(key, positions)
        if count < 2:
            del occ[key]
            lost.pop(key, None)
            continue
        a, b = divmod(key, base)
        dead = 0
        while sym[positions[dead]] != a or sym[nxt[positions[dead]]] != b:
            dead += 1
        if dead:
            del positions[:dead]
            lost[key] -= dead  # read only for unequal pairs
        if (-neg_count, pos) != (count, positions[0]):  # stale: re-queue
            heapq.heappush(heap, (-count, pair_height, positions[0], key))
            continue

        del occ[key]
        lost.pop(key, None)
        new_sym = FIRST_VARIABLE + len(rules)
        rules.append((a, b))
        new_height = pair_height + 1
        height.append(new_height)
        replaced = []
        for i in positions:
            if sym[i] != a:
                continue
            j = nxt[i]
            if sym[j] == b:
                q = nxt[j]
                sym[i] = new_sym
                sym[j] = -1
                nxt[i] = q
                prv[q] = i
                replaced.append(i)

        # Final neighbours: a left x turned (x, a) into (x, new), a right y
        # (b, y) into (new, y). A replaced right neighbour turned (b, a) into
        # (new, new); seen from the left it is skipped, so it is listed once.
        left_of: dict[int, list[int]] = defaultdict(list)
        right_of: dict[int, list[int]] = defaultdict(list)
        for i in replaced:
            p = prv[i]
            left_of[sym[p]].append(p)
            right_of[sym[nxt[i]]].append(i)
        for x, group in left_of.items():
            if 0 <= x != new_sym:
                if x * base + a in occ:
                    lost[x * base + a] += len(group)
                if len(group) > 1:
                    offer(x * base + new_sym, max(height[x], new_height), group)
        for y, group in right_of.items():
            if y >= 0:
                lost_key = b * base + (a if y == new_sym else y)
                if lost_key in occ:
                    lost[lost_key] += len(group)
                if len(group) > 1:
                    offer(new_sym * base + y, max(new_height, height[y]), group)

    axiom = []
    i = 0
    while i != n:
        axiom.append(sym[i])
        i = nxt[i]
    return Slp(rules, axiom)
