"""Brute-force reference: decompress, split into lines, test each line.

Deliberately shares nothing with the engine's counting path. Line matching
here is a plain subset simulation restarted at every position (wrapped form)
or a quadratic sweep over all factors; the two agree and the tests check it.
Runs start in state 0 and match on reaching the accept state,
``state_count - 1``, each read through ``Fsa.successors``.
Also hosts a small backtracking matcher over the pattern AST, used to
cross-check the compiled automata.
"""

from __future__ import annotations

from .automaton import (
    Branch,
    ByteSet,
    Fsa,
    Repeat,
    Seq,
    compile_pattern,
    parse_pattern,
)


def split_lines(text: bytes) -> list[bytes]:
    """Newline-separated segments; a trailing newline opens no extra line."""
    if not text:
        return []
    segments = text.split(b"\n")
    if text.endswith(b"\n"):
        segments.pop()
    return segments


def line_matches(fsa: Fsa, line: bytes) -> bool:
    """True when the line matches: empty-string acceptance or a factor match."""
    return fsa.matches_empty or factor_match(fsa, line)


def factor_match(fsa: Fsa, line: bytes) -> bool:
    """True when some non-empty factor of the line is in the automaton's language."""
    accept = fsa.state_count - 1
    current: set[int] = set()
    for byte in line:
        moved = set(fsa.successors(0, byte))
        for q in current:
            moved |= fsa.successors(q, byte)
        if accept in moved:
            return True
        current = moved
    return False


def line_matches_quadratic(fsa: Fsa, line: bytes) -> bool:
    """Factor test by trying every start position independently."""
    if fsa.matches_empty:
        return True
    accept = fsa.state_count - 1
    for start in range(len(line)):
        current = {0}
        for byte in line[start:]:
            moved: set[int] = set()
            for q in current:
                moved |= fsa.successors(q, byte)
            if not moved:
                break
            if accept in moved:
                return True
            current = moved
    return False


def oracle_lines(text: bytes, pattern: str) -> list[bytes]:
    """The matching lines of the text, in order."""
    fsa = compile_pattern(pattern)
    return [line for line in split_lines(text) if line_matches(fsa, line)]


def oracle_count(text: bytes, pattern: str) -> int:
    return len(oracle_lines(text, pattern))


# ---------------------------------------------------------------------------
# Backtracking matcher over the pattern AST


def _ends(node, data: bytes, pos: int, budget: list):
    """Yield every end position of a match of ``node`` starting at ``pos``."""
    budget[0] -= 1
    if budget[0] < 0:
        raise RecursionError("backtracking budget exhausted")
    if isinstance(node, ByteSet):
        if pos < len(data) and data[pos] in node.bytes_:
            yield pos + 1
        return
    if isinstance(node, Seq):
        yield from _ends_seq(node.parts, data, pos, budget)
        return
    if isinstance(node, Branch):
        for option in node.options:
            yield from _ends(option, data, pos, budget)
        return
    if isinstance(node, Repeat):
        yield from _ends_repeat(node, data, pos, 0, budget)
        return
    raise TypeError(f"unknown pattern node {node!r}")


def _ends_seq(parts, data, pos, budget):
    if not parts:
        yield pos
        return
    for mid in _ends(parts[0], data, pos, budget):
        yield from _ends_seq(parts[1:], data, mid, budget)


def _ends_repeat(node: Repeat, data, pos, done, budget):
    if done >= node.low:
        yield pos
    if node.high is not None and done >= node.high:
        return
    for mid in _ends(node.item, data, pos, budget):
        if mid == pos:
            # An empty iteration only helps to satisfy the minimum.
            if done + 1 < node.low:
                yield from _ends_repeat(node, data, pos, done + 1, budget)
            elif done < node.low:
                yield pos
            continue
        yield from _ends_repeat(node, data, mid, done + 1, budget)


def backtrack_match(pattern: str, data: bytes, budget: int = 2_000_000) -> bool:
    """Whole-string match by backtracking over the AST.

    Independent of the position automaton the compiler builds; newline
    bytes never match because atoms exclude them.
    """
    ast = parse_pattern(pattern)
    remaining = [budget]
    return any(end == len(data) for end in _ends(ast, data, 0, remaining))
