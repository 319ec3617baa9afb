"""Counting regex-matching lines directly on the compressed grammar.

Automaton states are bits of a Python int. Every symbol's expansion u has:

* a counting tuple ``(nl, left, right, count)``: whether u contains a
  newline, whether its first and its last line contain a match, and how
  many closed lines (newline on both sides) of u match; and
* a relation ``{source: target-bitmask}``. Target q2 is in the row of q1
  exactly when the automaton can move from q1 to q2 reading the whole of
  u, a prefix of u when q2 is the accept state, a suffix of u when q1 is
  state 0, or any factor of u when both hold.

``saturate`` builds both for the 256 terminals straight from the automaton
and then for every rule ``X -> A B`` in definition order, one pass: each row
``(q1, m)`` of A, state 0's included, keeps ``m & final`` and ORs in B's row
of every other bit of m; X's row of state 0 also takes B's as it is (the
match may start inside B). State 0 reaching the accept state through a
middle state marks a match across the seam of A and B. This is bit-parallel
NFA simulation (Baeza-Yates & Gonnet's Shift-Or; Navarro & Raffinot,
*Flexible Pattern Matching in Strings*) lifted from bytes to grammar
symbols.

A grammar's rules carry few distinct summaries, so they are hash-consed
(Filliatre & Conchon, *Type-Safe Modular Hash-Consing*). A symbol's
summary minus its count, its relation's contents (state 0's row included)
and ``(nl, left, right)``, is its *kind*, a small id; the count, which is
unbounded, is kept per symbol. ``X``'s kind and the seam's addition to its
count depend only on the kinds of A and B, so they are derived once per
distinct pair of kinds, by composing the pair's relations. This is how
per-nonterminal transition functions of an automaton over an SLP are
usually computed (Lohrey, *Algorithmics on SLP-compressed strings: a
survey*). The pair memo holds one dict per kind of A, keyed by the kind of
B, one int: two pairs never share an entry, for any grammar and any number
of kinds, and no key is built per rule. A composition walks the bits of
each row of A inline, looking a single-bit row's one row of B up with one
``get``.

Each kind has one record, ``(relation, row of state 0, nl, left, right)``;
a ``Saturation`` holds every symbol's kind and count and the records,
indexed by kind. A record's relation holds the rows of the middle states
(neither state 0 nor the accept state, which has none), in ascending state
order; state 0's row is kept once, in the record. No transition enters
state 0, so no step looks its row up in a relation. The records are tuples,
which CPython unpacks fastest, and ``saturate`` is the only code that
builds them.

``fold`` runs the axiom left to right carrying the reached states as one
int (the states reachable from state 0 by reading some suffix of the prefix
expanded so far; the accept state, once entered, is kept) and the counting
tuple's fields as plain scalars, building the tuple once at the end. Each
of the three passes over the axiom reads one record per symbol: counting
and the match decision fold; the reporter takes fold's step and decides
each line as fold counts it; the statistics step only the reached mask.

The engine requires automata with no transitions entering state 0 or
leaving the accept state, the shape the pattern compiler produces and
``Fsa`` enforces; the terminals' relations are the automaton's row maps
less state 0's row, which goes to the record. Without it, saturated rows
could stand for non-contiguous fragments of the expansion and boundary
matches would be over-reported.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, repeat
from math import ceil
from operator import mul

from .automaton import NEWLINE, Fsa, PatternSyntaxError, iter_bits, union_rows
from .slp import InvalidGrammarError, Slp

PERCENTILE_POINTS = (50, 75, 95, 98, 100)
# Guard rail on the relations ``saturate`` builds: the rows of each distinct
# pair of kinds' composition, summed, times the automaton's width in 64-bit
# words (state_count // 64 + 1). A rule whose pair was seen builds none.
MAX_RELATION_WORDS = 50_000_000

# Per symbol its kind and closed-line count; per kind its record.
Saturation = namedtuple("Saturation", "kinds counts table")


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


def saturate(rule_pairs, fsa: Fsa) -> Saturation:
    """Kinds and closed-line counts of every symbol, and the kinds' records.

    ``rule_pairs`` yields valid ``(first, second)`` pairs in definition
    order (an ``Slp``'s rules or ``ZslpReader.iter_rules``, checked when
    the ``Slp`` or the reader was built) and is consumed once.

    Kinds are hash-consed: symbols whose relations and rows of state 0 are
    equal and whose line flags are equal share one kind and its record, so
    callers must treat the records' relations as read-only. A rule whose
    pair of kinds was seen before takes the kind and seam increment found
    then, from the memo's dict for the kind of A under the kind of B (kinds
    are dense ids, so the memo is a list of dicts, one per kind, and no pair
    of kinds is packed into one key: there is no bound on the kinds to keep);
    otherwise the pair's relations are composed, ``combine`` runs,
    and the result is looked up as a kind by its states, their rows, its
    row of state 0 and its flags, as built. Every relation holds its states
    in ascending order (a terminal's row map is sorted once per byte class,
    a composition keeps A's order), so equal relations give equal keys
    without a sort. Only a composition adds its rows, state 0's row
    included when not 0, to the budget, so it bounds the relations saturate
    builds: the compiler's "pattern too large" PatternSyntaxError is raised
    once they outgrow MAX_RELATION_WORDS.
    """
    final = fsa.final
    row_budget = MAX_RELATION_WORDS // (fsa.state_count // 64 + 1)
    rows = 0

    kind_ids: dict = {}  # (states, their rows, row of state 0, nl, left, right) -> kind
    table: list[tuple] = []  # kind -> record
    # kind of A -> {kind of B: (kind of X, seam increment)}
    derived: list[dict] = []

    def kind_of(rel: dict, row: int, nl: bool, left: bool, right: bool) -> int:
        """Kind of a relation and the record's other fields."""
        key = (tuple(rel), tuple(rel.values()), row, nl, left, right)
        kind = kind_ids.setdefault(key, len(table))
        if kind == len(table):
            table.append((rel, row, nl, left, right))
            derived.append({})
        return kind

    def derive(kind_a: int, kind_b: int) -> tuple:
        """(kind, seam increment) of a rule whose parts have these kinds."""
        nonlocal rows
        rel_a, row_a, nl_a, left_a, right_a = table[kind_a]
        rel_b, row_b, nl_b, left_b, right_b = table[kind_b]
        get = rel_b.get
        rel = {}
        # Each row of A becomes the union of B's rows of its bits (the
        # accept state has none) plus its accept bit. State 0's row comes
        # last, so ``through`` is left as its union.
        for q1, m in (*rel_a.items(), (0, row_a)):
            if m & (m - 1):
                through = 0
                bits = m
                while bits:
                    low = bits & -bits
                    through |= get(low.bit_length() - 1, 0)
                    bits ^= low
            else:  # one bit or none (get(-1) misses)
                through = get(m.bit_length() - 1, 0)
            if q1 and (out := through | m & final):
                rel[q1] = out
        row = through | row_a & final | row_b
        rows += len(rel) + (row != 0)
        if rows > row_budget:
            raise PatternSyntaxError(
                f"pattern too large: over {MAX_RELATION_WORDS} relation words"
            )
        nl, left, right, seam = combine(
            (nl_a, left_a, right_a, 0), (nl_b, left_b, right_b, 0), through & final != 0
        )
        return kind_of(rel, row, nl, left, right), seam

    # The compiler shares one row map per byte class: each map, and the
    # newline byte's, is given a kind once, its rows of middle states
    # ordered by state and its row of state 0 kept in the record.
    terminal_kinds: dict = {}  # (id of the row map, is newline) -> kind
    kinds: list[int] = []
    for byte, rel in enumerate(fsa.rows):
        key = (id(rel), byte == NEWLINE)
        kind = terminal_kinds.get(key)
        if kind is None:
            row = rel.get(0, 0)
            hit = row & final != 0
            middle_rows = {q: m for q, m in sorted(rel.items()) if q}
            kind = terminal_kinds[key] = kind_of(middle_rows, row, key[1], hit, hit)
        kinds.append(kind)
    counts: list[int] = [0] * len(kinds)

    for first, second in rule_pairs:
        try:
            kind, seam = derived[kinds[first]][kinds[second]]
        except KeyError:
            kind_a, kind_b = kinds[first], kinds[second]
            kind, seam = derived[kind_a][kind_b] = derive(kind_a, kind_b)
        kinds.append(kind)
        counts.append(counts[first] + counts[second] + seam)
    return Saturation(kinds, counts, table)


def fold(axiom, saturation: Saturation, fsa: Fsa) -> tuple:
    """Left fold over the whole axiom; returns its counting tuple.

    ``axiom`` is any sequence of valid ids: an ``Slp``'s axiom or the id
    array ``ZslpReader.read_axiom`` returns. There is no early exit.

    The loop carries scalars, not a counting tuple: ``nl`` (a newline has
    been read), ``left`` (the first line matched), ``line`` (the current
    line matched so far), ``count`` (closed lines matched) and ``reached``
    (the states state 0 can reach by reading a suffix of the expansion so
    far, the accept state included once entered). Each symbol's record
    gives its relation, its row of state 0 and its line flags;
    its count is read only when it holds a newline. Rows are looked up only
    for the middle states of ``reached``. The counting tuple is built once,
    at the end; without a newline the first line is the current one.
    """
    kinds, counts, table = saturation
    final = fsa.final
    middle = ~final
    nl = left = line = False
    count = reached = 0
    for sym in axiom:
        rel, row, sym_nl, sym_left, sym_right = table[kinds[sym]]
        if reached & middle:
            through = union_rows(reached & middle, rel)
            hit = through & final != 0
            reached = through | reached & final | row
        else:
            hit = False
            reached = reached & final | row
        if sym_nl:
            # The current line closes inside this symbol.
            if nl:
                count += line or sym_left or hit
            else:
                nl = True
                left = line or sym_left or hit
            line = sym_right
            count += counts[sym]
        elif not line:
            line = sym_left or hit
    if not nl:
        left = line
    return nl, left, line, count


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


def run_count(rule_pairs, read_axiom, fsa: Fsa) -> int:
    """``count_matching_lines`` over rule pairs and an axiom callable.

    The CLI passes a ``ZslpReader``'s ``iter_rules`` and ``read_axiom``;
    the reader has read and checked every id before either is called, so
    this is not streaming. ``rule_pairs`` yields valid pairs, as for
    ``saturate``, and is consumed once; ``read_axiom`` is a zero-argument
    callable that returns a valid axiom, any sequence of ids, and is
    invoked only after the last rule. The benchmark's tracer
    (``perfbench/tracing.py``) relies on that order: it times everything
    before the ``read_axiom`` call as ``engine.saturate`` and everything
    after it as ``engine.fold``. An empty axiom raises InvalidGrammarError,
    whatever the pattern.
    """
    every_line = fsa.matches_empty  # then newline counts alone give the count
    summary = line_facts(rule_pairs) if every_line else saturate(rule_pairs, fsa)
    axiom = read_axiom()
    if not axiom:
        raise InvalidGrammarError("empty axiom")
    if every_line:  # a trailing newline opens no final empty line
        return sum(summary[sym] >> 1 for sym in axiom) + (0 if summary[axiom[-1]] & 1 else 1)
    return matching_lines(fold(axiom, summary, fsa))


def count_matching_lines(slp: Slp, fsa: Fsa) -> int:
    """Number of lines of the expansion containing a match, without expanding."""
    return run_count(slp.rules, lambda: slp.axiom, fsa)


def contains_match(slp: Slp, fsa: Fsa) -> bool:
    """Whether any line of the expansion contains a match: whether the
    count, which reads the whole axiom (no early exit), is not 0."""
    return count_matching_lines(slp, fsa) > 0


class SearchStats(
    namedtuple(
        "SearchStats",
        "s p axiom_len rule_costs axiom_costs rule_percentiles axiom_percentiles"
        " measured_ops",
    )
):
    """Operation counts of one counting run, derived from its relations.

    ``rule_costs`` and ``axiom_costs`` are histograms, ``Counter``s of cost
    -> number of rules or of axiom symbols with that cost, in the paper's
    accounting in transition pairs: for ``X -> A B``, B's pairs, plus s,
    plus one per pair (q1, q) of A and one per pair leaving q in B; for an
    axiom symbol, its pairs. A symbol's pairs and rows are its relation's
    and its record's row of state 0 when that row is not 0. Iterating one
    yields each distinct cost, so a bound on every cost is checked once per
    cost, and its size follows the distinct costs, not the grammar.
    ``measured_ops`` counts the word operations the engine performs: one
    per counting update (a tuple combination for a rule, the line flags and
    count for an axiom symbol) and one for the row of state 0 (when the
    automaton has states), plus one per row of A and per middle bit of it
    for a rule, and one per middle state reached before an axiom symbol.
    Those are the operations of a pass that composes and combines every
    rule on its own. ``saturate`` composes, combines and charges its row
    budget once per distinct pair of kinds; any other rule costs it one
    lookup and one count addition. So ``measured_ops`` is an upper bound on
    the operations it performs, and a loose one on grammars with few kinds.
    """

    __slots__ = ()


def nearest_rank_percentiles(histogram: Counter) -> dict:
    """Nearest-rank percentiles at PERCENTILE_POINTS of the values a histogram
    (value -> occurrences) counts; an empty histogram reports 0."""
    total = sum(histogram.values())
    ordered = sorted(histogram.items())
    result = {}
    for point in PERCENTILE_POINTS:
        if not total:
            result[point] = 0
            continue
        rank = max(1, ceil(point / 100 * total))
        for value, n in ordered:
            rank -= n
            if rank <= 0:
                result[point] = value
                break
    return result


def collect_stats(slp: Slp, fsa: Fsa) -> SearchStats:
    """Saturate the grammar and report its per-rule and per-axiom-symbol costs.

    Rules are tallied by their pair of kinds, and each distinct pair is
    costed once: its per-bit term is the sum, over the states q that rows of
    A hold, of how many rows hold q times one plus the bits of B's row of q.
    Those counts, and a rule's measured operations, depend on A alone and
    are taken once per kind of A. One pass over the axiom tallies its
    symbols by kind and steps the reached mask as ``fold`` does, less the
    accept state, which no cost reads, and without the line flags.
    """
    kinds, _, table = saturate(slp.rules, fsa)
    s = fsa.state_count
    middle = ~fsa.final
    per_symbol = 2 if s else 1
    pairs = [sum(map(int.bit_count, rel.values())) + row.bit_count() for rel, row, *_ in table]
    # A rule's costs depend only on its parts' kinds: the rules are tallied
    # by that pair and each distinct pair is costed once.
    kind_of = kinds.__getitem__
    rule_pairs = Counter(zip(map(kind_of, slp.rules.firsts), map(kind_of, slp.rules.seconds)))
    # The pairs by kind of A, whose rows are counted once per kind: how
    # many hold each state, so each pair sums over A's states, not its bits.
    by_a: dict = {}
    for (kind_a, kind_b), n in rule_pairs.items():
        by_a.setdefault(kind_a, []).append((kind_b, n))
    rule_costs: Counter = Counter()
    measured = 0
    for kind_a, uses_b in by_a.items():
        rel, row, *_ = table[kind_a]
        rows = (row, *rel.values()) if row else tuple(rel.values())
        held = Counter(chain.from_iterable(map(iter_bits, rows)))
        states, held_by = tuple(held), tuple(held.values())
        bits = sum(held_by)
        # One per row and per middle bit: all bits but the accept state's.
        rule_measured = per_symbol + len(rows) + bits - held[s - 1]
        for kind_b, n in uses_b:
            # One per bit q of a row of A, plus the bits of B's row of q.
            rel_b = table[kind_b][0]
            b_bits = sum(map(mul, held_by, map(int.bit_count, map(rel_b.get, states, repeat(0)))))
            rule_costs[pairs[kind_b] + s + bits + b_bits] += n
            measured += rule_measured * n
    uses = [0] * len(table)  # kind -> axiom symbols of that kind
    reached = 0  # fold's reached states, less the accept state
    for sym in slp.axiom:
        kind = kinds[sym]
        rel, row, _, _, _ = table[kind]
        uses[kind] += 1
        reached &= middle
        measured += reached.bit_count()
        reached = union_rows(reached, rel) | row
    measured += per_symbol * len(slp.axiom)
    axiom_costs: Counter = Counter()
    for kind, n in enumerate(uses):
        if n:
            axiom_costs[pairs[kind]] += n
    return SearchStats(
        s=s,
        p=len(slp.rules),
        axiom_len=len(slp.axiom),
        rule_costs=rule_costs,
        axiom_costs=axiom_costs,
        rule_percentiles=nearest_rank_percentiles(rule_costs),
        axiom_percentiles=nearest_rank_percentiles(axiom_costs),
        measured_ops=measured,
    )
