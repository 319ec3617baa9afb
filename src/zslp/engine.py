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

A grammar's rules carry few distinct relations, so relations are
hash-consed (Filliatre & Conchon, *Type-Safe Modular Hash-Consing*): equal
relations are one shared dict with a small id, and the composition of a
pair of ids is computed once, for the first rule with that pair; later
rules look it up. This is how per-nonterminal transition functions of an
automaton over an SLP are usually computed (Lohrey, *Algorithmics on
SLP-compressed strings: a survey*). The shared dicts are read-only.

``fold`` runs the axiom left to right carrying the reached states as one
int (the states reachable from state 0 by reading some suffix of the prefix
expanded so far; the accept state, once entered, is kept) and the counting
tuple's fields as plain scalars, building the tuple once at the end.
Counting, the match decision and the statistics use this one saturate/fold
path; the reporter walks the grammar over the same saturated tables.

The engine requires automata with no transitions entering state 0 or
leaving the accept state, the shape the pattern compiler produces and
``Fsa`` enforces; the terminals' relations are the automaton's rows. Without
it, saturated rows could stand for non-contiguous fragments of the
expansion and boundary matches would be over-reported.
"""

from __future__ import annotations

from collections import namedtuple
from math import ceil

from .automaton import NEWLINE, Fsa, PatternSyntaxError, iter_bits, union_rows
from .slp import InvalidGrammarError, Slp

PERCENTILE_POINTS = (50, 75, 95, 98, 100)
# Guard rail on the saturated relations: rows summed over all rules, times
# the automaton's width in 64-bit words (state_count // 64 + 1). Every rule's
# rows count, also when its relation is shared with an earlier rule's.
MAX_RELATION_WORDS = 50_000_000

# Counting tuple of the empty string; the neutral element of ``combine``.
EMPTY_INFO = (False, False, False, 0)


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
    order (an ``Slp``'s rules or ``ZslpReader.iter_rules``, checked when
    the ``Slp`` or the reader was built) and is consumed once.

    Relations are hash-consed: symbols whose relations have equal contents
    share one dict, so callers must treat ``rels`` as read-only. Each
    distinct pair of (first, second) relations is composed once, and every
    later rule with that pair reuses the result. The row budget still
    counts every rule's rows, shared or not: the compiler's "pattern too
    large" PatternSyntaxError is raised once they outgrow
    MAX_RELATION_WORDS.
    """
    final = fsa.final
    row_budget = MAX_RELATION_WORDS // (fsa.state_count // 64 + 1)
    rows = 0

    canonical: dict = {}  # sorted rows -> relation id
    distinct: list[dict] = []  # relation id -> the one dict with those rows

    def intern(rel: dict) -> int:
        rel_id = canonical.setdefault(tuple(sorted(rel.items())), len(distinct))
        if rel_id == len(distinct):
            distinct.append(rel)
        return rel_id

    # The compiler shares one row map per byte class; intern each map once.
    maps = {id(rel): rel for rel in fsa.rows}
    terminal_ids = {key: intern(rel) for key, rel in maps.items()}
    ids = [terminal_ids[id(rel)] for rel in fsa.rows]  # symbol -> relation id
    rels: list[dict] = [distinct[rel_id] for rel_id in ids]
    infos: list[tuple] = []
    for byte, rel in enumerate(rels):
        hit = rel.get(0, 0) & final != 0
        infos.append((byte == NEWLINE, hit, hit, 0))

    # (relation id of A, relation id of B) -> (id, relation, new_match, rows)
    composed: dict = {}
    for first, second in rule_pairs:
        pair = (ids[first], ids[second])
        known = composed.get(pair)
        if known is None:
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
            rel_id = intern(rel)
            known = composed[pair] = (rel_id, distinct[rel_id], new_match, len(rel))
        rel_id, rel, new_match, size = known
        ids.append(rel_id)
        rels.append(rel)
        infos.append(combine(infos[first], infos[second], new_match))
        rows += size
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

    The loop carries scalars, not a counting tuple: ``nl`` (a newline has
    been read), ``left`` (the first line matched), ``line`` (the current
    line matched so far), ``count`` (closed lines matched) and ``reached``.
    Rows are looked up only for the middle states of ``reached``. The
    counting tuple is built once, at the end; without a newline the first
    line is the current one.
    """
    if not axiom:
        raise InvalidGrammarError("empty axiom")
    final = fsa.final
    middle = ~final
    (nl, left, line, count), reached = start
    for sym in axiom:
        rel = rels[sym]
        if reached & middle:
            through = union_rows(reached & middle, rel)
            hit = through & final != 0
            reached = through | reached & final | rel.get(0, 0)
        else:
            hit = False
            reached = reached & final | rel.get(0, 0)
        sym_nl, sym_left, sym_right, sym_count = infos[sym]
        if sym_nl:
            # The current line closes inside this symbol.
            if nl:
                count += line or sym_left or hit
            else:
                nl = True
                left = line or sym_left or hit
            line = sym_right
            count += sym_count
        elif not line:
            line = sym_left or hit
        if early_exit and reached & final:
            break
    if not nl:
        left = line
    return (nl, left, line, count), reached


def line_facts(rule_pairs) -> list[int]:
    """Twice the newline count, plus 1 if the expansion ends with a newline.

    Indexed by symbol id; ``rule_pairs`` yields valid pairs in definition
    order and is consumed once. The facts do not depend on any pattern: a
    rule's newlines are its parts' newlines, and it ends as its second part
    does.
    """
    facts = [0] * 256
    facts[NEWLINE] = 3
    append = facts.append
    for first, second in rule_pairs:
        append((facts[first] & -2) + facts[second])
    return facts


def _line_count_arithmetic(rule_pairs, read_axiom) -> int:
    """Number of lines in the expansion, from newline counts alone.

    Lines are newline-separated segments; a trailing newline does not open a
    final empty line, while adjacent newlines do enclose empty lines.
    """
    facts = line_facts(rule_pairs)
    axiom = read_axiom()
    newlines = sum(facts[sym] >> 1 for sym in axiom)
    return newlines + (0 if facts[axiom[-1]] & 1 else 1)


def run_count(rule_pairs, read_axiom, fsa: Fsa) -> int:
    """Streaming form of ``count_matching_lines``.

    ``rule_pairs`` yields valid pairs, as for ``saturate``, and is consumed
    one rule at a time; ``read_axiom`` is a zero-argument callable that
    returns a valid axiom and is invoked only after the last rule. The
    benchmark's tracer (``perfbench/tracing.py``) relies on that order: it
    times everything before the ``read_axiom`` call as ``engine.saturate``
    and everything after it as ``engine.fold``.
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


class SearchStats(
    namedtuple(
        "SearchStats",
        "s p axiom_len per_rule per_axiom_symbol rule_percentiles axiom_percentiles"
        " measured_ops",
    )
):
    """Operation counts of one counting run, derived from its relations.

    ``per_rule`` and ``per_axiom_symbol`` are the paper's accounting in
    transition pairs: for ``X -> A B``, B's pairs, plus s, plus one per pair
    (q1, q) of A and one per pair leaving q in B; for an axiom symbol, its
    pairs. ``measured_ops`` counts the word operations the engine performs:
    one per counting update (a tuple combination for a rule, the line flags
    and count for an axiom symbol) and one for the row of state 0 (when the
    automaton has states), plus one per row of A and per middle bit of it
    for a rule, and one per middle state reached before an axiom symbol.
    Those are the operations of a pass that composes every rule on its own;
    ``saturate`` composes each distinct pair of relations once, so
    ``measured_ops`` is an upper bound on the operations it performs.
    """

    __slots__ = ()

    @property
    def op_budget(self) -> int:
        return sum(self.per_rule) + sum(self.per_axiom_symbol) + self.p + self.axiom_len


def nearest_rank_percentiles(values) -> dict:
    """Nearest-rank percentiles at PERCENTILE_POINTS; empty sequences report 0."""
    ordered = sorted(values)
    result = {}
    for point in PERCENTILE_POINTS:
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
    # A rule's costs depend only on its pair of relations. saturate shares
    # one dict between equal relations, and ``rels`` keeps each alive, so
    # its id() names its contents: each distinct pair is costed once.
    distinct = {id(rel): rel.values() for rel in rels}
    pairs = {key: sum(map(int.bit_count, rows)) for key, rows in distinct.items()}
    costs: dict = {}  # (id of A's relation, id of B's) -> (paper ops, measured)
    per_rule = []
    measured = 0
    for first, second in slp.rules:
        rel_a, rel_b = rels[first], rels[second]
        key = (id(rel_a), id(rel_b))
        cost = costs.get(key)
        if cost is None:
            ops = pairs[id(rel_b)] + s
            rule_measured = per_symbol
            for m in rel_a.values():
                ops += sum(1 + rel_b.get(q, 0).bit_count() for q in iter_bits(m))
                rule_measured += 1 + (m & middle).bit_count()
            cost = costs[key] = (ops, rule_measured)
        per_rule.append(cost[0])
        measured += cost[1]
    state = (EMPTY_INFO, 0)
    for sym in slp.axiom:
        measured += per_symbol + (state[1] & middle).bit_count()
        state = fold((sym,), infos, rels, fsa, start=state)
    per_axiom_symbol = [pairs[id(rels[sym])] for sym in slp.axiom]
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
