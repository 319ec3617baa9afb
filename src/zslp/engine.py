"""Counting regex-matching lines directly on the compressed grammar.

Automaton states are bits of a Python int. Every symbol's expansion u has:

* a counting tuple ``(nl, left, right, count)``: whether u contains a
  newline, whether its first and its last line contain a match, and how
  many closed lines (newline on both sides) of u match; and
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

A grammar's rules carry few distinct relations, and fewer distinct
summaries still, so both are hash-consed (Filliatre & Conchon, *Type-Safe
Modular Hash-Consing*). Equal relations are one shared, read-only dict with
a small id. A symbol's summary minus its count, ``(relation id, nl, left,
right)``, is its *kind*, also a small id; the count, which is unbounded,
is kept per symbol. ``X``'s kind and the seam's addition to its count
depend only on the kinds of A and B, so they are derived once per distinct
pair of kinds; deriving composes the pair of relations only if no earlier
pair had it. This is how per-nonterminal transition functions of an
automaton over an SLP are usually computed (Lohrey, *Algorithmics on
SLP-compressed strings: a survey*).

Each kind has one record, ``(relation, row of state 0, nl, left, right,
relation id)``; a ``Saturation`` holds every symbol's kind and count and
the records, indexed by kind. The records are tuples, which CPython
unpacks fastest, and ``saturate`` is the only code that builds them.

``fold`` runs the axiom left to right carrying the reached states as one
int (the states reachable from state 0 by reading some suffix of the prefix
expanded so far; the accept state, once entered, is kept) and the counting
tuple's fields as plain scalars, building the tuple once at the end.
Counting and the match decision use this one saturate/fold path. The
statistics saturate the same way and step only the reached mask over the
axiom, in one pass; the reporter steps the same records over the axiom
and, below it, reads which lines match from the counts alone.

The engine requires automata with no transitions entering state 0 or
leaving the accept state, the shape the pattern compiler produces and
``Fsa`` enforces; the terminals' relations are the automaton's rows. Without
it, saturated rows could stand for non-contiguous fragments of the
expansion and boundary matches would be over-reported.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain
from math import ceil

from .automaton import NEWLINE, Fsa, PatternSyntaxError, iter_bits, union_rows
from .slp import InvalidGrammarError, Slp

PERCENTILE_POINTS = (50, 75, 95, 98, 100)
# Guard rail on the saturated relations: rows summed over all rules, times
# the automaton's width in 64-bit words (state_count // 64 + 1). Every rule's
# rows count, also when its relation is shared with an earlier rule's.
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

    Relations are hash-consed: symbols whose relations have equal contents
    share one dict, so callers must treat the records' relations as
    read-only. So are kinds: symbols with the same relation and line flags
    share one kind and its record. A rule whose pair of kinds was seen
    before takes the kind and seam increment found then. Otherwise the
    pair of relations is looked up, and composed only if no earlier rule
    had it; ``combine`` then runs once for the pair of kinds. The row
    budget still counts every rule's rows, shared or not: the compiler's
    "pattern too large" PatternSyntaxError is raised once they outgrow
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

    kind_ids: dict = {}  # (relation id, nl, left, right) -> kind
    table: list[tuple] = []  # kind -> record

    def kind_of(rel_id: int, nl: bool, left: bool, right: bool) -> int:
        kind = kind_ids.setdefault((rel_id, nl, left, right), len(table))
        if kind == len(table):
            rel = distinct[rel_id]
            table.append((rel, rel.get(0, 0), nl, left, right, rel_id))
        return kind

    # (relation id of A, relation id of B) -> (relation id, new_match, rows)
    composed: dict = {}

    def derive(kind_a: int, kind_b: int) -> tuple:
        """(kind, seam increment, rows) of a rule whose parts have these kinds."""
        rel_a, _, nl_a, left_a, right_a, id_a = table[kind_a]
        rel_b, row_b, nl_b, left_b, right_b, id_b = table[kind_b]
        known = composed.get((id_a, id_b))
        if known is None:
            rel = {}
            new_match = False
            for q1, m in rel_a.items():
                through = union_rows(m & ~final, rel_b)
                out = through | m & final
                if out:
                    rel[q1] = out
                    if through & final and q1 == 0:
                        new_match = True
            if row_b:
                rel[0] = rel.get(0, 0) | row_b
            known = composed[id_a, id_b] = (intern(rel), new_match, len(rel))
        rel_id, new_match, size = known
        nl, left, right, seam = combine(
            (nl_a, left_a, right_a, 0), (nl_b, left_b, right_b, 0), new_match
        )
        return kind_of(rel_id, nl, left, right), seam, size

    # The compiler shares one row map per byte class; intern each map once.
    maps = {id(rel): rel for rel in fsa.rows}
    terminal_ids = {key: intern(rel) for key, rel in maps.items()}
    kinds: list[int] = []
    for byte, rel in enumerate(fsa.rows):
        hit = rel.get(0, 0) & final != 0
        kinds.append(kind_of(terminal_ids[id(rel)], byte == NEWLINE, hit, hit))
    counts: list[int] = [0] * len(kinds)

    # (kind of A, kind of B) -> (kind of X, seam increment, rows)
    derived: dict = {}
    for first, second in rule_pairs:
        pair = (kinds[first], kinds[second])
        try:
            kind, seam, size = derived[pair]
        except KeyError:
            kind, seam, size = derived[pair] = derive(*pair)
        kinds.append(kind)
        counts.append(counts[first] + counts[second] + seam)
        rows += size
        if rows > row_budget:
            raise PatternSyntaxError(
                f"pattern too large: over {MAX_RELATION_WORDS} relation words"
            )
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
    gives its relation, the relation's row of state 0 and its line flags;
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
        rel, row, sym_nl, sym_left, sym_right, _ = table[kinds[sym]]
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
    """Streaming form of ``count_matching_lines``.

    ``rule_pairs`` yields valid pairs, as for ``saturate``, and is consumed
    one rule at a time; ``read_axiom`` is a zero-argument callable that
    returns a valid axiom, any sequence of ids (``ZslpReader.read_axiom``
    gives its id array), and is invoked only after the last rule. The
    benchmark's tracer (``perfbench/tracing.py``) relies on that order: it
    times everything before the ``read_axiom`` call as ``engine.saturate``
    and everything after it as ``engine.fold``. An empty axiom raises
    InvalidGrammarError, whatever the pattern.
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
    axiom symbol, its pairs. Iterating one yields each distinct cost, so a
    bound on every cost is checked once per cost, and its size follows the
    distinct costs, not the grammar. ``measured_ops`` counts the word
    operations the engine performs: one per counting update (a tuple
    combination for a rule, the line flags and count for an axiom symbol)
    and one for the row of state 0 (when the automaton has states), plus one
    per row of A and per middle bit of it for a rule, and one per middle
    state reached before an axiom symbol.
    Those are the operations of a pass that composes and combines every
    rule on its own. ``saturate`` composes each distinct pair of relations
    once and combines line flags once per distinct pair of kinds; any other
    rule costs it one lookup and one count addition. So ``measured_ops`` is
    an upper bound on the operations it performs, and a loose one on
    grammars with few kinds.
    """

    __slots__ = ()

    @property
    def op_budget(self) -> int:
        costs = chain(self.rule_costs.items(), self.axiom_costs.items())
        return sum(cost * n for cost, n in costs) + self.p + self.axiom_len


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

    Each distinct pair of relations is costed once. One pass over the axiom
    steps the reached mask as ``fold`` does, without the line flags.
    """
    kinds, _, table = saturate(slp.rules, fsa)
    s = fsa.state_count
    final = fsa.final
    middle = ~final
    per_symbol = 2 if s else 1
    ids = [record[5] for record in table]  # kind -> relation id
    rels = {record[5]: record[0] for record in table}  # relation id -> relation
    pairs = {key: sum(map(int.bit_count, rel.values())) for key, rel in rels.items()}
    # A rule's costs depend only on its pair of relations: the rules are
    # tallied by that pair and each distinct pair is costed once.
    rel_of = ids.__getitem__
    rule_pairs = Counter(
        zip(
            map(rel_of, map(kinds.__getitem__, slp.rules.firsts)),
            map(rel_of, map(kinds.__getitem__, slp.rules.seconds)),
        )
    )
    rule_costs: Counter = Counter()
    measured = 0
    for (id_a, id_b), n in rule_pairs.items():
        rel_b = rels[id_b]
        ops = pairs[id_b] + s
        rule_measured = per_symbol
        for m in rels[id_a].values():
            ops += sum(1 + rel_b.get(q, 0).bit_count() for q in iter_bits(m))
            rule_measured += 1 + (m & middle).bit_count()
        rule_costs[ops] += n
        measured += rule_measured * n
    uses = [0] * len(table)  # kind -> axiom symbols of that kind
    reached = 0
    for sym in slp.axiom:
        kind = kinds[sym]
        rel, row, _, _, _, _ = table[kind]
        measured += per_symbol + (reached & middle).bit_count()
        uses[kind] += 1
        reached = union_rows(reached & middle, rel) | reached & final | row
    axiom_costs: Counter = Counter()
    for record, n in zip(table, uses):
        if n:
            axiom_costs[pairs[record[5]]] += n
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
