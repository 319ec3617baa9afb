"""Counting regex-matching lines directly on the compressed grammar.

Automaton states are bits of a Python int. Every symbol gets two values:

* a counting tuple ``(nl, left, right, count)`` for its expansion u: whether
  u contains a newline, whether its first and its last line contain a match,
  and how many closed lines (newline on both sides) of u match; and
* a relation ``{source: target-bitmask}``. Target q2 is in the row of q1
  exactly when the automaton can move from q1 to q2 reading a factor of u
  that is a prefix (unless q2 is the accept state), a suffix (unless q1 is
  state 0), the whole of u, or any inner factor when q1 is state 0 and q2
  the accept state.

``saturate`` builds both for the 256 terminals straight from the automaton
and then for every rule ``X -> A B`` in definition order, one pass: each row
``(q1, m)`` of A keeps ``m & final`` and ORs in B's row of every other bit
of m; B's row from state 0 is ORed in as it is (the match may start inside
B). State 0 reaching the accept state through a middle state marks a match
across the seam of A and B. This is bit-parallel NFA simulation
(Baeza-Yates & Gonnet's Shift-Or; Navarro & Raffinot, *Flexible Pattern
Matching in Strings*) lifted from bytes to grammar symbols.

``fold`` runs the axiom left to right carrying one int: the states reachable
from state 0 by reading some suffix of the prefix expanded so far (the
accept state, once entered, is kept). Counting, the match decision and
the statistics use this one saturate/fold path; the reporter walks the
grammar over the same saturated tables.

The engine requires automata with no transitions entering state 0 or
leaving the accept state, the shape the pattern compiler produces and
``Fsa`` enforces; the terminals' relations are the automaton's rows. Without
it, saturated rows could stand for non-contiguous fragments of the
expansion and boundary matches would be over-reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .automaton import (
    MAX_RELATION_WORDS,
    NEWLINE,
    Fsa,
    PatternSyntaxError,
    iter_bits,
)
from .slp import InvalidGrammarError, Slp

PERCENTILE_POINTS = (50, 75, 95, 98, 100)

# Counting tuple of the empty string; the neutral element of ``combine``.
EMPTY_INFO = (False, False, False, 0)


def union_rows(mask: int, rel: dict) -> int:
    """OR of the rows of ``rel`` for every state of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rel.get(low.bit_length() - 1, 0)
        mask ^= low
    return out


def combine(a: tuple, b: tuple, new_match: bool) -> tuple:
    """Counting tuple of a concatenation from its parts.

    ``new_match`` reports a match that crosses the boundary between the two
    expansions; it closes the seam line when both sides contain a newline.
    """
    a_nl, a_left, a_right, a_count = a
    b_nl, b_left, b_right, b_count = b
    if a_nl:
        if b_nl:
            seam = a_right or b_left or new_match
            return (True, a_left, b_right, a_count + b_count + seam)
        return (True, a_left, a_right or b_right or new_match, a_count)
    if b_nl:
        return (True, a_left or b_left or new_match, b_right, b_count)
    hit = a_left or b_left or new_match
    return (False, hit, hit, 0)


def matching_lines(info: tuple) -> int:
    """Number of matching lines of a whole text from its counting tuple."""
    nl, left, right, count = info
    return count + ((left + right) if nl else left)


def saturate(rule_pairs, fsa: Fsa) -> tuple[list, list]:
    """Counting tuples and relations of every symbol, indexed by symbol id.

    ``rule_pairs`` yields valid ``(first, second)`` pairs in definition
    order (an ``Slp``'s rules or ``ZslpReader.iter_rules``, which check
    them) and is consumed once. Raises the compiler's "pattern too large"
    PatternSyntaxError once the rules' relations outgrow MAX_RELATION_WORDS.
    """
    final = fsa.final
    row_budget = MAX_RELATION_WORDS // (fsa.state_count // 64 + 1)
    rows = 0

    rels: list[dict] = list(fsa.rows)
    infos: list[tuple] = []
    for byte, rel in enumerate(rels):
        hit = rel.get(0, 0) & final != 0
        infos.append((byte == NEWLINE, hit, hit, 0))

    for first, second in rule_pairs:
        rel_b = rels[second]
        rel = {}
        new_match = False
        for q1, m in rels[first].items():
            through = union_rows(m & ~final, rel_b)
            out = through | m & final
            if out:
                rel[q1] = out
                if through & final and q1 == 0:
                    new_match = True
        row = rel_b.get(0)
        if row:
            rel[0] = rel.get(0, 0) | row
        rels.append(rel)
        infos.append(combine(infos[first], infos[second], new_match))
        rows += len(rel)
        if rows > row_budget:
            raise PatternSyntaxError(
                f"pattern too large: over {MAX_RELATION_WORDS} relation words", 0
            )
    return infos, rels


def fold(
    axiom,
    infos: list,
    rels: list,
    fsa: Fsa,
    early_exit: bool = False,
    start: tuple = (EMPTY_INFO, 0),
):
    """Left fold over the axiom; returns ``(counting tuple, reached mask)``.

    ``reached`` holds the states state 0 can reach by reading a suffix of
    the expansion so far, the accept state included once entered. With
    ``early_exit`` the fold stops as soon as the accept state is reached.
    ``start`` is the result of folding the symbols before ``axiom``.
    """
    if not axiom:
        raise InvalidGrammarError("empty axiom")
    final = fsa.final
    info, reached = start
    for sym in axiom:
        rel = rels[sym]
        through = union_rows(reached & ~final, rel)
        info = combine(info, infos[sym], through & final != 0)
        reached = through | reached & final | rel.get(0, 0)
        if early_exit and reached & final:
            break
    return info, reached


def _line_count_arithmetic(rule_pairs, read_axiom) -> int:
    """Number of lines in the expansion, from newline counts alone.

    Lines are newline-separated segments; a trailing newline does not open a
    final empty line, while adjacent newlines do enclose empty lines.
    """
    newline_counts = [1 if byte == NEWLINE else 0 for byte in range(256)]
    ends_with_newline = [byte == NEWLINE for byte in range(256)]
    for first, second in rule_pairs:
        newline_counts.append(newline_counts[first] + newline_counts[second])
        ends_with_newline.append(ends_with_newline[second])
    axiom = read_axiom()
    total = sum(newline_counts[sym] for sym in axiom)
    return total + (0 if ends_with_newline[axiom[-1]] else 1)


def run_count(rule_pairs, read_axiom, fsa: Fsa) -> int:
    """Streaming form of ``count_matching_lines``.

    ``rule_pairs`` yields valid pairs, as for ``saturate``, and is consumed
    one rule at a time; ``read_axiom`` is a zero-argument callable invoked
    only after the last rule, so a caller can hand over a decoder that
    produces both from a single pass over a stream.
    """
    if fsa.matches_empty:
        # Every line matches; count lines without touching the automaton.
        return _line_count_arithmetic(rule_pairs, read_axiom)
    infos, rels = saturate(rule_pairs, fsa)
    info, _ = fold(read_axiom(), infos, rels, fsa)
    return matching_lines(info)


def count_matching_lines(slp: Slp, fsa: Fsa) -> int:
    """Number of lines of the expansion containing a match, without expanding."""
    return run_count(slp.rules, lambda: slp.axiom, fsa)


def contains_match(slp: Slp, fsa: Fsa) -> bool:
    """Whether any line of the expansion contains a match.

    Every rule is still read (later rules may define axiom symbols), but the
    axiom fold stops as soon as a match is certain.
    """
    if fsa.matches_empty:
        return True
    infos, rels = saturate(slp.rules, fsa)
    _, reached = fold(slp.axiom, infos, rels, fsa, early_exit=True)
    return reached & fsa.final != 0


@dataclass(frozen=True)
class SearchStats:
    """Operation counts of one counting run, derived from its relations.

    ``per_rule`` and ``per_axiom_symbol`` are the paper's accounting in
    transition pairs: for ``X -> A B``, B's pairs, plus s, plus one per pair
    (q1, q) of A and one per pair leaving q in B; for an axiom symbol, its
    pairs. ``measured_ops`` counts the word operations the engine performs:
    one per tuple combination and one for the row of state 0 (when the
    automaton has states), plus one per row of A and per middle bit of it
    for a rule, and one per middle state reached before an axiom symbol.
    """

    s: int
    p: int
    axiom_len: int
    per_rule: tuple
    per_axiom_symbol: tuple
    rule_percentiles: dict
    axiom_percentiles: dict
    measured_ops: int

    @property
    def op_budget(self) -> int:
        return sum(self.per_rule) + sum(self.per_axiom_symbol) + self.p + self.axiom_len


def nearest_rank_percentiles(values, points=PERCENTILE_POINTS) -> dict:
    """Nearest-rank percentiles of a sequence; empty sequences report 0."""
    ordered = sorted(values)
    result = {}
    for point in points:
        if not ordered:
            result[point] = 0
        else:
            rank = max(1, ceil(point / 100 * len(ordered)))
            result[point] = ordered[rank - 1]
    return result


def collect_stats(slp: Slp, fsa: Fsa) -> SearchStats:
    """Saturate the grammar and report its per-rule and per-axiom-symbol costs."""
    infos, rels = saturate(slp.rules, fsa)
    s = fsa.state_count
    middle = ~fsa.final
    per_symbol = 2 if s else 1
    pairs = [sum(row.bit_count() for row in rel.values()) for rel in rels]
    per_rule = []
    measured = 0
    for first, second in slp.rules:
        rel_b = rels[second]
        ops = pairs[second] + s
        for m in rels[first].values():
            ops += sum(1 + rel_b.get(q, 0).bit_count() for q in iter_bits(m))
            measured += 1 + (m & middle).bit_count()
        per_rule.append(ops)
        measured += per_symbol
    state = (EMPTY_INFO, 0)
    for sym in slp.axiom:
        measured += per_symbol + (state[1] & middle).bit_count()
        state = fold((sym,), infos, rels, fsa, start=state)
    per_axiom_symbol = [pairs[sym] for sym in slp.axiom]
    return SearchStats(
        s=s,
        p=len(slp.rules),
        axiom_len=len(slp.axiom),
        per_rule=tuple(per_rule),
        per_axiom_symbol=tuple(per_axiom_symbol),
        rule_percentiles=nearest_rank_percentiles(per_rule),
        axiom_percentiles=nearest_rank_percentiles(per_axiom_symbol),
        measured_ops=measured,
    )
