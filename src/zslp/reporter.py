"""Lazy top-down decompression that emits only the matching lines.

The engine's saturation pass runs first, so that every symbol carries its
counting tuple and its relation of state bitmasks. The grammar is then
walked top-down, keeping one line of state: the symbols of the current line
so far, the mask of automaton states reachable from state 0 by reading
some suffix of it, and whether the line already matched. A symbol
without a newline joins the line whole, in one mask step through its
relation; its bytes are expanded only if the line turns out to match.

A subtree may be skipped when nothing of it can appear in a matching line:
it must span a newline (so lines after it do not depend on what precedes
it), contain no matching closed line, have non-matching first and last
lines, the current line must not have matched already, and no automaton run
through the pending suffix states may complete a match inside the subtree's
head. Skipping discards the current line (it provably cannot match) and
re-seeds the suffix states from the subtree's row of state 0. The
skipped subtree's trailing line fragment is remembered by symbol id: if a
later symbol completes a match on that same line, exactly that fragment is
expanded after the fact so the emitted line is byte-identical to the
uncompressed one. Disabling pruning never changes the output.

The reporter builds no bytes: a matching line is recorded as symbols (the
skipped fragment, the line's symbols, a newline) that ``iter_expand`` writes
in batches. A pattern matching the empty string matches every line; its walk
runs over the stateless automaton, which saturates to newline flags and no
rows. Every line then starts matched; the last fragment counts if non-empty.
"""

from __future__ import annotations

from .automaton import NEWLINE, Fsa, union_rows
from .engine import saturate
from .slp import FIRST_VARIABLE, Slp, iter_expand

# Counting tuple of a subtree that spans a newline and matches nowhere.
_SILENT = (True, False, False, 0)
# Stands in for a pattern that matches the empty string, and so every line.
_EVERY_LINE = Fsa(0, [{}] * 256, True)
# Symbols of emitted lines gathered before one iter_expand pass writes them.
_BATCH = 4096


def _tail_after_last_newline(slp: Slp, infos, sym: int) -> list[int]:
    """Symbols that derive the symbol's expansion after its last newline.

    The symbol's expansion must contain a newline, as a pruned symbol's
    does: the descent then follows the part holding the last newline and
    ends on that newline byte, which is not part of the tail.
    """
    parts = []  # right to left
    cur = sym
    while cur >= FIRST_VARIABLE:
        first, second = slp.rules[cur - FIRST_VARIABLE]
        if infos[second][0]:
            cur = second
        else:
            parts.append(second)
            cur = first
    return parts[::-1]


def report_matching_lines(slp: Slp, fsa: Fsa, sink, prune: bool = True) -> int:
    """Write exactly the matching lines to the sink, each newline-terminated.

    Returns the number of emitted lines, which equals the counting result.
    The final line gains a terminating newline even if the source text lacks
    one. No single write to the sink exceeds ``iter_expand``'s chunk size.
    """
    if fsa.matches_empty:
        fsa = _EVERY_LINE
    infos, rels = saturate(slp.rules, fsa)
    final = fsa.final
    rules = slp.rules

    emitted = 0
    out: list[int] = []  # symbols of emitted lines not yet written
    pending: int | None = None  # symbol whose trailing line fragment we skipped
    parts: list[int] = []  # newline-free symbols of the current line, in order
    reachable = 0
    matched = fsa.matches_empty

    def write() -> None:
        for chunk in iter_expand(slp, out):
            sink.write(chunk)
        out.clear()

    def emit_line() -> None:
        nonlocal emitted
        if pending is not None:
            out.extend(_tail_after_last_newline(slp, infos, pending))
        out.extend(parts)
        out.append(NEWLINE)
        emitted += 1
        if len(out) >= _BATCH:
            write()

    stack = list(reversed(slp.axiom))
    while stack:
        sym = stack.pop()
        if sym == NEWLINE:
            if matched:
                emit_line()
            parts.clear()
            pending = None
            reachable = 0
            matched = fsa.matches_empty
            continue
        info = infos[sym]
        rel = rels[sym]
        if not info[0]:
            # A newline-free symbol joins the line whole: one mask step.
            parts.append(sym)
            if not matched:
                if reachable:
                    reachable = union_rows(reachable, rel)
                reachable |= rel.get(0, 0)
                matched = reachable & final != 0
            continue
        if (
            prune
            and not matched
            and info == _SILENT
            and not (reachable and union_rows(reachable, rel) & final)
        ):
            # Nothing of this subtree can sit in a matching line; skip it.
            parts.clear()
            pending = sym
            reachable = rel.get(0, 0)
            continue
        first, second = rules[sym - FIRST_VARIABLE]
        stack.append(second)
        stack.append(first)

    if matched and parts:
        emit_line()
    write()
    return emitted
