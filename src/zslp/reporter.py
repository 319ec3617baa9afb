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
matches; it reads the counts and steps no automaton. One rule per symbol
says how. A symbol whose every line is emitted (its first and last lines,
and its closed lines, whose count is then one less than its newline count)
is queued whole. Any other stored symbol (one whose expansion
``Slp.short_expansions`` holds, at most SHORT_LIMIT bytes) is cut from its
bytes: when its closed lines all match, as one slice from its start or
just past its first newline to its end or through its last newline; else
as its first line, its matching closed lines and its last line, each when
emitted. No empty piece is queued. Any other symbol is walked. For ``X ->
A B`` with a newline on both sides, the line across the seam, A's last
line then B's first, matches exactly when ``counts[X] - counts[A] -
counts[B]`` is 1, so each part is told whether its own first or last line
is emitted, and an explicit stack enters only parts with something to
emit. So an axiom symbol whose closed lines all match is written whole
when its head line matches and the line after it, which its last line
opens, matches or is empty. The counts-only tests read
``engine.line_facts`` (newline counts, and whether a symbol ends with a
newline), gathered in one bottom-up pass the first time a line is about
to be emitted, so a search that prints nothing never pays for it.

A stored symbol's matching closed lines, when they are not all of them,
are one bytes entry of a memo kept for the run. ``_closed_lines`` builds
an entry bottom-up from the counts of the symbol's parts, with entries for
the symbols below it that match in part; it needs no recursion. The memo
takes no other gate. On the bench corpora, the walk reached every such
symbol at least twice, so an entry is used again: RePair makes a rule only
for a pair that occurs twice. Entries exist only for stored symbols, and
none is longer than its symbol's stored expansion. So the memo holds at
most SHORT_BUDGET bytes, plus each entry's overhead: a bytes header and a
dict slot.

``prune`` gates queueing a symbol whole, cutting a stored one from its
bytes, and skipping parts with nothing to emit. Without it, line emission
walks every symbol down to every newline, and the output is the same.

The pending output is one list of symbols and byte pieces (slices of
stored bytes and memo entries), written in batches. A batch is written
_BLOCK (64) pieces at a time. A block of stored symbols and byte pieces,
each at most SHORT_LIMIT bytes, is one join of at most CHUNK_SIZE bytes
and one write. In any other block each piece is written on its own, and a
symbol without a stored expansion streams through ``iter_expand``. A
pattern matching the empty string matches every line: the whole expansion
is written, with a final newline if it lacks one, and nothing is saturated
or walked; the lines are counted in the written chunks.
"""

from __future__ import annotations

from itertools import chain

from .automaton import NEWLINE, Fsa, union_rows
from .engine import line_facts, saturate
from .slp import _BLOCK, FIRST_VARIABLE, Rules, Slp, iter_expand

# Symbols and byte pieces of emitted lines gathered before they are written.
_BATCH = 4096


def _closed_lines(
    rules: Rules, facts: list, counts: list, short: list, memo: dict, sym: int
) -> bytes:
    """The matching closed lines of a stored symbol, each with its newline.

    The symbol's closed lines must match in part (``0 < counts[sym] <
    newlines - 1``). Its memo entry is built with one for every such symbol
    below it that ``memo`` lacks, without recursion: a list gathers them,
    and they are built in id order, so a rule's parts come before it. For
    ``X -> A B`` the entry is A's matching closed lines, then the line
    across the seam when it adds to X's count, then B's. A part whose every
    closed line matches gives its stored bytes between its first and its
    last newline, a part with none gives nothing, and X shares the entry of
    a part when the other holds no newline. So an entry is never longer
    than its symbol's stored expansion.
    """
    firsts, seconds = rules.firsts, rules.seconds
    todo = [sym]
    for top in todo:  # the list grows as it is read: each symbol's parts join it
        rule = top - FIRST_VARIABLE
        for part in (firsts[rule], seconds[rule]):
            if 0 < counts[part] < (facts[part] >> 1) - 1 and part not in memo:
                memo[part] = None  # entered once, built below
                todo.append(part)
    todo.sort()
    for top in todo:
        rule = top - FIRST_VARIABLE
        first = firsts[rule]
        second = seconds[rule]
        if facts[first] < 2:
            memo[top] = memo[second]
            continue
        if facts[second] < 2:
            memo[top] = memo[first]
            continue
        pieces = []
        seam = counts[top] > counts[first] + counts[second]
        for part in (first, second):
            count = counts[part]
            if count == (facts[part] >> 1) - 1:  # every closed line, or none
                if count:
                    piece = short[part]
                    pieces.append(piece[piece.index(NEWLINE) + 1 : piece.rindex(NEWLINE) + 1])
            elif count:
                pieces.append(memo[part])
            if seam:  # the line across the seam, after the first part's lines
                seam = False
                a = short[first]
                b = short[second]
                pieces += (a[a.rindex(NEWLINE) + 1 :], b[: b.index(NEWLINE) + 1])
        memo[top] = b"".join(pieces)
    return memo[sym]


def _write_pending(slp: Slp, pending: list, sink) -> None:
    """Write the pending symbols and byte pieces in order.

    They are taken _BLOCK at a time. A block of stored symbols and byte
    pieces, each at most SHORT_LIMIT bytes, is one join of at most
    CHUNK_SIZE bytes and one write. In any other block each piece is
    written on its own, and a symbol without a stored expansion streams
    through ``iter_expand``.
    """
    if not pending:
        return
    short = slp.short_expansions
    for start in range(0, len(pending), _BLOCK):
        block = pending[start : start + _BLOCK]
        pieces = [short[item] if item.__class__ is int else item for item in block]
        if all(pieces):
            sink.write(b"".join(pieces))
            continue
        for item, piece in zip(block, pieces):
            if piece is None:
                for chunk in iter_expand(slp, (item,)):
                    sink.write(chunk)
            else:
                sink.write(piece)


def report_matching_lines(slp: Slp, fsa: Fsa, sink, prune: bool = True) -> int:
    """Write exactly the matching lines to the sink, each newline-terminated.

    Returns the number of emitted lines, which equals the counting result:
    the axiom pass tallies it with ``fold``'s arithmetic, per symbol holding
    a newline its first line if that matched and its count (added when it
    is handed to line emission; one that is not has a count of 0), the
    newline byte after the axiom closing the last line. The final line gains
    a terminating newline even if the source text lacks one. No single write
    to the sink exceeds ``iter_expand``'s chunk size. ``prune`` gates
    queueing a symbol whole, cutting a stored symbol's lines from its bytes
    and skipping parts with nothing to emit; without it line emission walks
    every symbol down to every newline, and the output is the same. A
    pattern that matches the empty string matches every line, so the whole
    expansion is written and its lines are counted as written.
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
    out: list = []  # symbols and byte pieces of emitted lines not yet written
    opener: int | None = None  # symbol whose last line opens the current one
    opened = False  # the line the opener ends matched
    parts: list[int] = []  # newline-free symbols of the current line, in order
    reached = 0  # as in fold: the states a suffix of the text so far reaches
    line = False  # the current line matched so far
    facts = short = None  # built at the first line that will be emitted
    closed: dict = {}  # stored symbol -> its matching closed lines

    def write() -> None:
        _write_pending(slp, out, sink)
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
                    every = count == (facts[sym] >> 1) - 1
                    if every and head and tail:
                        out.append(sym)  # every line matches: queue it whole
                        break
                    if (piece := short[sym]) is not None:
                        # Stored: its emitted lines are cut from its bytes.
                        start = piece.index(NEWLINE) + 1
                        end = piece.rindex(NEWLINE) + 1
                        if every:  # one stretch of matching lines
                            piece = piece[0 if head else start : None if tail else end]
                            if piece:
                                out.append(piece)
                            break
                        if head:
                            out.append(piece[:start])
                        if count:
                            found = closed.get(sym)
                            if found is None:
                                found = _closed_lines(rules, facts, counts, short, closed, sym)
                            out.append(found)
                        if tail and end < len(piece):  # a last line that is not empty
                            out.append(piece[end:])
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
                    if tail or seam or counts[second] or not prune:
                        stack.append((second, seam, tail))
                    if not (head or seam or counts[first] or not prune):
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
                short = slp.short_expansions
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
