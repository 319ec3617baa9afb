"""Lazy top-down decompression that emits only the matching lines.

The engine's saturation pass runs first, so that every symbol carries its
kind, whose record holds the symbol's relation of state bitmasks and line
flags, and its count of matching closed lines (lines with a newline on
both sides). The reporter then works in two parts.

The axiom pass walks the axiom only and takes ``engine.fold``'s step on
each symbol: the mask of states reachable from state 0 by reading some
suffix of the text so far, and whether the current line matched so far.
It also keeps the current line's newline-free symbols, each of which joins
the line whole. A symbol holding a newline is never descended here. Its
first line closes the current line, which matches as fold counts it: when
the line already matched, the symbol's first line matches on its own, or a
run from the line's suffix states completes a match inside it. Its last
line opens the next line, and the symbol waits as that line's opener. The
next symbol holding a newline decides whether the line matches; only then
is the opener handed to line emission, told whether its first line and its
last line are emitted. A newline byte after the axiom closes the last line
the same way: its relation is empty, so it adds no match. The pass tallies
the emitted lines as it decides them.

Line emission then queues, for one symbol, its first line if that line
matches, its matching closed lines, and its last line if that line
matches; it reads the counts and steps no automaton. For ``X -> A B`` with
a newline on both sides, the line across the seam, A's last line then B's
first, matches exactly when ``counts[X] - counts[A] - counts[B]`` is 1, so
each part is told whether its own first or last line is emitted. An
explicit stack enters only parts with something to emit. A part without a
matching closed line gives at most its first line and its last line, each
from one spine descent. A part whose closed lines all match (its count is
one less than its newline count) is queued as one stretch: the whole symbol
when its first and last lines are emitted too, else its symbols through
its last newline (one right-spine descent) or after its first newline (one
left-spine descent). So an axiom symbol whose closed lines all match is
written whole when its head line matches and the line after it, which its
last line opens, matches or is empty. Each symbol's split at its first and
at its last newline is memoised for the run. The counts-only tests read
``engine.line_facts`` (newline counts, and whether a symbol ends with a
newline), gathered in one bottom-up pass the first time a line is about
to be emitted, so a search that prints nothing never pays for it.

``prune`` gates skipping parts with nothing to emit and every stretch
queued whole; without it line emission descends to every newline, and the
output is the same.

The reporter builds no bytes: a matching line is recorded as symbols that
``iter_expand`` writes in batches. A pattern matching the empty string
matches every line: the whole expansion is written, with a final newline
if it lacks one, and nothing is saturated or walked; the lines are counted
in the written chunks.
"""

from __future__ import annotations

from itertools import chain

from .automaton import NEWLINE, Fsa, union_rows
from .engine import line_facts, saturate
from .slp import FIRST_VARIABLE, Rules, Slp, iter_expand

# Symbols of emitted lines gathered before one iter_expand pass writes them.
_BATCH = 4096


def _split_at_newline(rules: Rules, facts: list, sym: int, last: bool) -> tuple[list, list]:
    """Symbols deriving the expansion through its first (or last) newline,
    and the symbols after it.

    The expansion must hold a newline (``facts[sym] > 1``): the descent
    follows the part holding that newline down to the newline byte.
    """
    firsts, seconds = rules.firsts, rules.seconds
    through, after = [], []  # after: right to left
    while sym >= FIRST_VARIABLE:
        rule = sym - FIRST_VARIABLE
        first = firsts[rule]
        second = seconds[rule]
        if facts[second] < 2 if last else facts[first] > 1:
            after.append(second)
            sym = first
        else:
            through.append(first)
            sym = second
    through.append(sym)
    after.reverse()
    return through, after


def report_matching_lines(slp: Slp, fsa: Fsa, sink, prune: bool = True) -> int:
    """Write exactly the matching lines to the sink, each newline-terminated.

    Returns the number of emitted lines, which equals the counting result:
    the axiom pass tallies it with ``fold``'s arithmetic, per symbol holding
    a newline its first line if that matched and its count (added when it
    is handed to line emission; one that is not has a count of 0), the
    newline byte after the axiom closing the last line. The final line gains
    a terminating newline even if the source text lacks one. No single write
    to the sink exceeds ``iter_expand``'s chunk size. ``prune`` gates
    skipping parts with nothing to emit and queueing a stretch of matching
    lines whole; without it line emission descends to every newline, and the
    output is the same. A pattern that matches the empty string matches every line,
    so the whole expansion is written and its lines are counted as written.
    """
    if fsa.matches_empty:
        lines = 0
        chunk = b""
        for chunk in iter_expand(slp):
            sink.write(chunk)
            lines += chunk.count(b"\n")
        if not chunk.endswith(b"\n"):
            sink.write(b"\n")
            lines += 1
        return lines
    kinds, counts, table = saturate(slp.rules, fsa)
    final = fsa.final
    middle = ~final
    rules = slp.rules
    firsts, seconds = rules.firsts, rules.seconds

    emitted = 0
    out: list[int] = []  # symbols of emitted lines not yet written
    opener: int | None = None  # symbol whose last line opens the current one
    opened = False  # the line the opener ends matched
    parts: list[int] = []  # newline-free symbols of the current line, in order
    reached = 0  # as in fold: the states a suffix of the text so far reaches
    line = False  # the current line matched so far
    facts = enter = None  # built at the first line that will be emitted
    splits: tuple = ({}, {})  # at the first, at the last newline: symbol -> split

    def split(sym: int, last: bool) -> tuple[list, list]:
        memo = splits[last]
        found = memo.get(sym)
        if found is None:
            found = memo[sym] = _split_at_newline(rules, facts, sym, last)
        return found

    def write() -> None:
        for chunk in iter_expand(slp, out):
            sink.write(chunk)
        out.clear()

    def queue_lines(sym: int, head: bool, tail: bool) -> None:
        """Queue the symbol's expansion that lies in matching lines.

        That is its first line if ``head``, its matching closed lines, and
        its last line if ``tail``. The symbol holds a newline.
        """
        stack = [(sym, head, tail)]
        while stack:
            if len(out) >= _BATCH:
                write()
            item = stack.pop()
            if item.__class__ is int:
                out.append(item)  # newline-free, inside an emitted last line
                continue
            sym, head, tail = item
            # Descend towards the first part, leaving the rest on the stack.
            while True:
                if sym < FIRST_VARIABLE:  # the newline byte, closing the first line
                    if head:
                        out.append(NEWLINE)
                    break
                if prune:
                    count = counts[sym]
                    if count == (facts[sym] >> 1) - 1:
                        # Every closed line matches: queue a stretch whole,
                        # or descend to the seam that holds its ends.
                        if head and tail:
                            out.append(sym)
                            break
                        if head:
                            out.extend(split(sym, True)[0])  # through the last newline
                            break
                        if tail:
                            out.extend(split(sym, False)[1])  # after the first newline
                            break
                    elif not count:
                        if head:
                            out.extend(split(sym, False)[0])  # the first line
                        if tail:
                            out.extend(split(sym, True)[1])  # the last line
                        break
                rule = sym - FIRST_VARIABLE
                first = firsts[rule]
                second = seconds[rule]
                if facts[first] < 2:
                    if head:
                        out.append(first)
                    sym = second
                elif facts[second] < 2:
                    if tail:
                        stack.append(second)
                    sym = first
                else:
                    # The line across the seam matches exactly when it adds
                    # to the count.
                    seam = counts[sym] > counts[first] + counts[second]
                    if tail or seam or enter[second]:
                        stack.append((second, seam, tail))
                    if not (head or seam or enter[first]):
                        break
                    sym, tail = first, seam

    # Fold's step. The newline byte after the axiom closes the last line like
    # any other newline: its relation is empty, its row 0 and its count 0.
    for sym in chain(slp.axiom, (NEWLINE,)):
        rel, row, nl, left, right = table[kinds[sym]]
        if reached & middle:
            through = union_rows(reached & middle, rel)
            hit = through & final != 0
            reached = through | reached & final | row
        else:
            hit = False
            reached = reached & final | row
        if not nl:
            # A newline-free symbol joins the current line whole.
            parts.append(sym)
            if not line:
                line = left or hit
            continue
        # A symbol holding a newline is not descended here. Its first line
        # closes the current one, which decides the opener's last line.
        head = line or left or hit
        if opener is not None and (opened or head or counts[opener] or not prune):
            if facts is None:
                facts = line_facts(rules)
                # Unpruned, line emission enters every part holding a newline.
                enter = counts if prune else facts
            emitted += counts[opener]  # its matching closed lines
            # An empty last line joins its symbol's stretch as if emitted.
            queue_lines(opener, opened, head or facts[opener] & 1)
        if head:
            out.extend(parts)
            emitted += 1
        parts.clear()
        opener, opened = sym, head
        line = right
    if opened:  # the newline byte after the axiom ends the last line
        out.append(NEWLINE)
    write()
    return emitted
