"""Lazy top-down decompression that emits only the matching lines.

The engine's saturation pass runs first, so that every symbol carries its
kind, whose record holds the symbol's relation of state bitmasks and line
flags, and its count of matching closed lines. The grammar is then
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
uncompressed one.

The dual of a skipped subtree is a full one: its expansion holds a newline,
every closed line in it matches, and its last line matches or is empty.
Whether a symbol is full follows from its last line's flag, its count and
two line facts that no pattern changes (its newline count and whether it
ends with a newline), gathered in one bottom-up pass the first time a line
is about to be emitted, so a search that prints nothing never pays for it.
When the line about to take in a full subtree will be emitted (it has
matched, or the subtree's first line matches), the subtree joins the output
whole, closing all of its lines at once; its open last line, if any,
carries on already matched. Disabling pruning turns off both shortcuts and
never changes the output.

The reporter builds no bytes: a matching line is recorded as symbols (the
skipped fragment, the line's symbols, then a newline or a full subtree)
that ``iter_expand`` writes in batches. A pattern matching the empty string
matches every line; its walk runs over the stateless automaton, which
saturates to newline flags and no rows. Every line then starts matched,
every symbol holding a newline is full, and the last fragment counts if
non-empty.
"""

from __future__ import annotations

from .automaton import NEWLINE, Fsa, union_rows
from .engine import Saturation, line_facts, saturate
from .slp import FIRST_VARIABLE, Slp, iter_expand

# Stands in for a pattern that matches the empty string, and so every line.
_EVERY_LINE = Fsa(0, [{}] * 256, True)
# Symbols of emitted lines gathered before one iter_expand pass writes them.
_BATCH = 4096


def _tail_after_last_newline(
    slp: Slp, saturation: Saturation, sym: int
) -> list[int]:
    """Symbols that derive the symbol's expansion after its last newline.

    The symbol's expansion must contain a newline, as a pruned symbol's
    does: the descent then follows the part holding the last newline and
    ends on that newline byte, which is not part of the tail.
    """
    kinds, _, table = saturation
    parts = []  # right to left
    cur = sym
    while cur >= FIRST_VARIABLE:
        first, second = slp.rules[cur - FIRST_VARIABLE]
        _, _, nl, _, _, _ = table[kinds[second]]
        if nl:
            cur = second
        else:
            parts.append(second)
            cur = first
    return parts[::-1]


def _full_symbols(rules, saturation: Saturation, every_line: bool) -> tuple[list, list]:
    """Line facts of every symbol and whether the symbol is full.

    A symbol is full when its expansion holds a newline, every closed line
    in it matches, and its last line matches or is empty: once its first
    line is known to match, all of its expansion belongs to matching lines.
    With n newlines and e for a trailing one (fact = 2n + e), that is
    count = n - 1 and (right or e), or ``fact | right == 2 * count + 3``.
    """
    facts = line_facts(rules)
    if every_line:
        return facts, [fact > 1 for fact in facts]
    kinds, counts, table = saturation
    rights = [right for _, _, _, _, right, _ in table]
    full = [
        (fact | rights[kind]) == 2 * count + 3
        for fact, kind, count in zip(facts, kinds, counts)
    ]
    return facts, full


def report_matching_lines(slp: Slp, fsa: Fsa, sink, prune: bool = True) -> int:
    """Write exactly the matching lines to the sink, each newline-terminated.

    Returns the number of emitted lines, which equals the counting result.
    The final line gains a terminating newline even if the source text lacks
    one. No single write to the sink exceeds ``iter_expand``'s chunk size.
    ``prune`` gates both shortcuts, skipping silent subtrees and writing
    full ones whole; without it the walk descends to every newline, and
    the output is the same.
    """
    every_line = fsa.matches_empty
    if every_line:
        fsa = _EVERY_LINE
    saturation = kinds, counts, table = saturate(slp.rules, fsa)
    final = fsa.final
    rules = slp.rules

    emitted = 0
    out: list[int] = []  # symbols of emitted lines not yet written
    pending: int | None = None  # symbol whose trailing line fragment we skipped
    parts: list[int] = []  # newline-free symbols of the current line, in order
    reachable = 0
    matched = every_line
    head_written = False  # the current line's head is in out, in a full symbol
    facts = full = None  # built at the first line that will be emitted

    def write() -> None:
        for chunk in iter_expand(slp, out):
            sink.write(chunk)
        out.clear()

    def emit_line(last: int, lines: int) -> None:
        """Queue the current line, ended by ``last``: a newline, or a full
        symbol that closes ``lines`` lines."""
        nonlocal emitted
        if pending is not None:
            out.extend(_tail_after_last_newline(slp, saturation, pending))
        out.extend(parts)
        out.append(last)
        emitted += lines
        if len(out) >= _BATCH:
            write()

    stack = list(reversed(slp.axiom))
    while stack:
        sym = stack.pop()
        if sym == NEWLINE:
            if matched:
                emit_line(NEWLINE, 1)
            parts.clear()
            pending = None
            reachable = 0
            matched = every_line
            head_written = False
            continue
        rel, row, nl, left, right, _ = table[kinds[sym]]
        if not nl:
            # A newline-free symbol joins the line whole: one mask step.
            parts.append(sym)
            if not matched:
                if reachable:
                    reachable = union_rows(reachable, rel)
                reachable |= row
                matched = reachable & final != 0
            continue
        if prune:
            if matched or left:
                # The current line will be emitted; a full subtree joins it
                # whole, with every line it closes.
                if full is None:
                    facts, full = _full_symbols(rules, saturation, every_line)
                if full[sym]:
                    fact = facts[sym]
                    emit_line(sym, fact >> 1)
                    parts.clear()
                    pending = None
                    if fact & 1:
                        reachable = 0
                        matched = every_line
                        head_written = False
                    else:
                        matched = head_written = True
                    continue
            elif not (right or counts[sym]) and not (
                reachable and union_rows(reachable, rel) & final
            ):
                # Nothing of this subtree can sit in a matching line; skip it.
                parts.clear()
                pending = sym
                reachable = row
                continue
        first, second = rules[sym - FIRST_VARIABLE]
        stack.append(second)
        stack.append(first)

    if matched and (parts or head_written):
        emit_line(NEWLINE, 1)
    write()
    return emitted
