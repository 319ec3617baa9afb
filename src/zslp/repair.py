"""RePair compression: repeatedly replace the most frequent adjacent pair.

Pair frequencies are non-overlapping, scanned left to right, so "aaaa"
contains "aa" twice and "aaa" only once. Among equally frequent pairs the
one whose first live occurrence is leftmost wins, which makes the output a
deterministic function of the input. Pairs occurring fewer than two times
are never replaced.

The working sequence is a doubly linked list over the input positions and
the candidate pairs live in a lazy max-heap: entries are pushed with a
snapshot priority and re-validated against the live occurrence sets when
popped. Counts of already-known pairs only ever decrease (fresh occurrences
are only created for pairs involving the newest variable, pushed once at the
end of each replacement sweep), so a popped entry whose snapshot still holds
is the true maximum.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .slp import FIRST_VARIABLE, Slp, encode_slp

# Pairs are keyed as first * _KEY_BASE + second; symbol ids stay far below
# the base for any input this implementation can hold in memory.
_KEY_BASE = 1 << 32


@dataclass(frozen=True)
class CompressionReport:
    rules: int
    axiom_len: int
    ratio: float


def compression_report(slp: Slp, original_len: int) -> CompressionReport:
    """Size summary for a compressed grammar against its source length."""
    if original_len < 0:
        raise ValueError("original_len must be non-negative")
    encoded_len = len(encode_slp(slp))
    return CompressionReport(
        rules=len(slp.rules),
        axiom_len=len(slp.axiom),
        ratio=original_len / encoded_len,
    )


class _Sequence:
    """Doubly linked symbol sequence with per-pair live occurrence sets."""

    def __init__(self, text: bytes):
        n = len(text)
        self.sym = list(text)
        self.nxt = list(range(1, n)) + [-1]
        self.prv = [-1] + list(range(n - 1))
        self.alive = bytearray([1]) * n
        # pair key -> set of start positions of live adjacent occurrences
        self.occ: dict[int, set[int]] = {}
        for i in range(n - 1):
            key = text[i] * _KEY_BASE + text[i + 1]
            self.occ.setdefault(key, set()).add(i)

    def nonoverlap_count(self, key: int) -> int:
        """Greedy left-to-right count of non-overlapping occurrences."""
        positions = self.occ.get(key)
        if not positions:
            return 0
        first, second = divmod(key, _KEY_BASE)
        if first != second:
            return len(positions)
        count = 0
        barrier = -1
        nxt = self.nxt
        for i in sorted(positions):
            if i == barrier:
                continue
            count += 1
            barrier = nxt[i]
        return count

    def first_position(self, key: int) -> int:
        return min(self.occ[key])

    def _drop(self, key: int, pos: int) -> None:
        positions = self.occ.get(key)
        if positions is not None:
            positions.discard(pos)
            if not positions:
                del self.occ[key]

    def _add(self, key: int, pos: int) -> None:
        self.occ.setdefault(key, set()).add(pos)

    def replace_all(self, key: int, new_sym: int) -> set[int]:
        """Replace every live occurrence of the pair, left to right.

        Returns the set of pair keys that gained occurrences (all involve
        ``new_sym``).
        """
        first, second = divmod(key, _KEY_BASE)
        sym, nxt, prv, alive = self.sym, self.nxt, self.prv, self.alive
        touched: set[int] = set()
        for i in sorted(self.occ.get(key, ())):
            if not alive[i] or sym[i] != first:
                continue
            j = nxt[i]
            if j == -1 or sym[j] != second:
                continue
            p = prv[i]
            q = nxt[j]
            if p != -1:
                self._drop(sym[p] * _KEY_BASE + first, p)
            if q != -1:
                self._drop(second * _KEY_BASE + sym[q], j)
            self._drop(key, i)
            alive[j] = 0
            nxt[i] = q
            if q != -1:
                prv[q] = i
            sym[i] = new_sym
            if p != -1:
                left_key = sym[p] * _KEY_BASE + new_sym
                self._add(left_key, p)
                touched.add(left_key)
            if q != -1:
                right_key = new_sym * _KEY_BASE + sym[q]
                self._add(right_key, i)
                touched.add(right_key)
        self.occ.pop(key, None)
        return touched

    def to_list(self) -> list[int]:
        out = []
        sym, nxt = self.sym, self.nxt
        i = 0 if sym else -1
        while i != -1:
            out.append(sym[i])
            i = nxt[i]
        return out


def compress(text: bytes) -> Slp:
    """Compress a non-empty byte string into a grammar."""
    if not text:
        raise ValueError("cannot compress empty input")
    seq = _Sequence(text)
    rules: list[tuple[int, int]] = []
    heap: list[tuple[int, int, int]] = []
    for key in seq.occ:
        count = seq.nonoverlap_count(key)
        if count >= 2:
            heapq.heappush(heap, (-count, seq.first_position(key), key))

    while heap:
        neg_count, pos, key = heapq.heappop(heap)
        if key not in seq.occ:
            continue
        count = seq.nonoverlap_count(key)
        if count < 2:
            continue
        first_pos = seq.first_position(key)
        if (-neg_count, pos) != (count, first_pos):
            # Stale snapshot: re-queue with the current, strictly worse key.
            heapq.heappush(heap, (-count, first_pos, key))
            continue
        new_sym = FIRST_VARIABLE + len(rules)
        rules.append(divmod(key, _KEY_BASE))
        for new_key in seq.replace_all(key, new_sym):
            new_count = seq.nonoverlap_count(new_key)
            if new_count >= 2:
                heapq.heappush(
                    heap, (-new_count, seq.first_position(new_key), new_key)
                )

    return Slp(rules, seq.to_list())
