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
"""

from __future__ import annotations

from .automaton import NEWLINE, Fsa
from .engine import saturate, union_rows
from .slp import FIRST_VARIABLE, Slp, expand_symbols, iter_expand

# Counting tuple of a subtree that spans a newline and matches nowhere.
_SILENT = (True, False, False, 0)


def _report_every_line(slp: Slp, sink) -> int:
    """Full decompression path for patterns that match the empty string."""
    emitted = 0
    for chunk in iter_expand(slp):  # at least one: the axiom is non-empty
        sink.write(chunk)
        emitted += chunk.count(b"\n")
    if not chunk.endswith(b"\n"):
        sink.write(b"\n")
        emitted += 1
    return emitted


def _tail_after_last_newline(slp: Slp, infos, sym: int) -> bytes:
    """Expansion of the symbol after its last newline (possibly empty)."""
    parts = []  # right to left
    cur = sym
    while cur >= FIRST_VARIABLE:
        first, second = slp.rules[cur - FIRST_VARIABLE]
        if infos[second][0]:
            cur = second
        else:
            parts.append(second)
            cur = first
    if cur != NEWLINE:
        parts.append(cur)
    return expand_symbols(slp, parts[::-1])


def report_matching_lines(slp: Slp, fsa: Fsa, sink, prune: bool = True) -> int:
    """Write exactly the matching lines to the sink, each newline-terminated.

    Returns the number of emitted lines, which equals the counting result.
    The final line gains a terminating newline even if the source text lacks
    one.
    """
    if fsa.matches_empty:
        return _report_every_line(slp, sink)

    infos, rels = saturate(slp.rules, fsa)
    final = fsa.final
    rules = slp.rules

    emitted = 0
    pending: int | None = None  # symbol whose trailing line fragment we skipped
    parts: list[int] = []  # newline-free symbols of the current line, in order
    reachable = 0
    matched = False

    def emit_line() -> None:
        nonlocal emitted
        head = b"" if pending is None else _tail_after_last_newline(slp, infos, pending)
        sink.write(head + expand_symbols(slp, parts) + b"\n")
        emitted += 1

    stack = list(reversed(slp.axiom))
    while stack:
        sym = stack.pop()
        if sym == NEWLINE:
            if matched:
                emit_line()
            parts.clear()
            pending = None
            reachable = 0
            matched = False
            continue
        info = infos[sym]
        rel = rels[sym]
        if not info[0]:
            # A newline-free symbol joins the line whole: one mask step.
            parts.append(sym)
            if not matched:
                reachable = union_rows(reachable, rel) | rel.get(0, 0)
                matched = reachable & final != 0
            continue
        if (
            prune
            and not matched
            and info == _SILENT
            and not union_rows(reachable, rel) & final
        ):
            # Nothing of this subtree can sit in a matching line; skip it.
            parts.clear()
            pending = sym
            reachable = rel.get(0, 0)
            continue
        first, second = rules[sym - FIRST_VARIABLE]
        stack.append(second)
        stack.append(first)

    if matched:
        emit_line()
    return emitted
