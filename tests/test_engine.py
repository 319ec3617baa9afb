import collections
import io
import itertools
import random
import re
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zslp.engine
from conftest import (
    EXAMPLE_PAIRS,
    brute_anchored_pairs,
    brute_count_info,
    compiled_random_pattern,
    fsa_from_cells,
    max_row_width,
    random_grammar,
    relation_pairs,
    symbol_summaries,
)
from test_acceptance import _log_like
from zslp.automaton import (
    NEWLINE,
    PatternSyntaxError,
    compile_pattern,
    iter_bits,
    union_rows,
)
from zslp.engine import (
    PERCENTILE_POINTS,
    SearchStats,
    combine,
    collect_stats,
    contains_match,
    count_matching_lines,
    fold,
    matching_lines,
    nearest_rank_percentiles,
    run_count,
    saturate,
)
from zslp.oracle import oracle_count
from zslp.repair import compress
from zslp.slp import InvalidGrammarError, Slp, SlpFormatError, ZslpReader, expand


def run_engine(slp, fsa):
    """Saturate and fold a whole grammar: (infos, rels, final info, total)."""
    saturation = saturate(slp.rules, fsa)
    info = fold(slp.axiom, saturation, fsa)
    return (*symbol_summaries(saturation), info, matching_lines(info))


def state_roles(fsa):
    """The start state and the accept state."""
    return 0, fsa.state_count - 1


# ---------------------------------------------------------------------------
# terminal initialisation


def test_init_terminals_newline(ab_ba_fsa):
    infos, rels = symbol_summaries(saturate([], ab_ba_fsa))
    assert infos[0x0A] == (True, False, False, 0)
    assert rels[0x0A] == {}


def test_init_terminals_intermediate_byte(ab_ba_fsa):
    initial, final = state_roles(ab_ba_fsa)
    infos, rels = symbol_summaries(saturate([], ab_ba_fsa))
    assert infos[ord("a")] == (False, False, False, 0)
    # 'a' moves initial -> after-a and after-b -> final
    pairs = relation_pairs(rels[ord("a")])
    sources = {q for q, _ in pairs}
    targets = {t for _, t in pairs}
    assert len(pairs) == 2
    assert initial in sources and final in targets


def test_init_terminals_single_byte_pattern():
    fsa = compile_pattern("a")
    infos, _ = symbol_summaries(saturate([], fsa))
    _, left, right, _ = infos[ord("a")]
    assert left and right


# ---------------------------------------------------------------------------
# counting-tuple combination


def test_count_combine_boundary_match():
    a = (True, True, False, 0)
    b = (True, False, True, 0)
    assert combine(a, b, True) == (True, True, True, 1)


def test_count_combine_nothing():
    zero = (False, False, False, 0)
    assert combine(zero, zero, False) == (False, False, False, 0)


def test_count_combine_mixed():
    a = (False, True, True, 0)
    b = (True, False, False, 0)
    assert combine(a, b, False) == (True, True, False, 0)


def test_count_info_invariants_enforced():
    # a single-line tuple has left == right and no closed lines, whether it
    # comes from combining single-line parts or from saturating a grammar
    for left_a, left_b, new_match in itertools.product((False, True), repeat=3):
        nl, left, right, count = combine(
            (False, left_a, left_a, 0), (False, left_b, left_b, 0), new_match
        )
        assert not nl and left == right and count == 0
    rng = random.Random(27)
    for _ in range(40):
        _, fsa = compiled_random_pattern(rng, max_states=10)
        infos, _ = symbol_summaries(saturate(random_grammar(rng).rules, fsa))
        for nl, left, right, count in infos:
            assert nl or (left == right and count == 0)


# ---------------------------------------------------------------------------
# rule processing


def test_process_rule_ab(ab_ba_fsa):
    initial, final = state_roles(ab_ba_fsa)
    infos, rels = symbol_summaries(saturate([(ord("a"), ord("b"))], ab_ba_fsa))
    pairs = relation_pairs(rels[256])
    # brute-force verified transition set for expansion "ab"
    assert pairs == brute_anchored_pairs(ab_ba_fsa, b"ab")
    assert (initial, final) in pairs
    assert infos[256] == (False, True, True, 0)


def test_process_rule_no_edges():
    fsa = compile_pattern("ab|ba")
    infos, rels = symbol_summaries(saturate([(ord("x"), ord("y"))], fsa))
    assert rels[256] == {}
    assert infos[256] == (False, False, False, 0)


def test_example_rule_infos(example_slp, ab_ba_fsa):
    infos, _, info, total = run_engine(example_slp, ab_ba_fsa)
    assert infos[258] == (True, True, False, 0)
    assert infos[262] == (True, False, True, 0)
    assert info == (True, True, True, 1)
    assert total == 3


def test_example_with_top_rule(ab_ba_fsa):
    slp = Slp(EXAMPLE_PAIRS + [(258, 262)], [263])
    infos, _, _, total = run_engine(slp, ab_ba_fsa)
    assert infos[263] == (True, True, True, 1)
    assert total == 3


def test_rule_referencing_later_symbol_rejected():
    # The streamed path's one rule check is ZslpReader's constructor, so the
    # engine never sees the rule. The stream holds one rule, (300, 97), and
    # the axiom 256.
    stream = io.BytesIO(b"ZSLP\x02\x01\x01\x02\x2c\x01\x61\x00\x00\x01")
    match = "^rule 1 references undefined/later symbol 300$"
    with pytest.raises(SlpFormatError, match=match):
        ZslpReader(stream)


# ---------------------------------------------------------------------------
# axiom fold


def test_axiom_fold_two_terminals(ab_ba_fsa):
    _, _, info, total = run_engine(Slp([], [ord("a"), ord("b")]), ab_ba_fsa)
    assert info == (False, True, True, 0)
    assert total == 1


def test_axiom_fold_example(example_slp, ab_ba_fsa):
    *_, total = run_engine(example_slp, ab_ba_fsa)
    assert total == 3


def test_axiom_fold_newlines_only(ab_ba_fsa):
    _, _, info, total = run_engine(Slp([], [0x0A, 0x0A]), ab_ba_fsa)
    assert info == (True, False, False, 0)
    assert total == 0
    # a rule deriving newlines, then a newline: "\n\n\n", no line matches
    _, _, info, total = run_engine(Slp([(0x0A, 0x0A)], [256, 0x0A]), ab_ba_fsa)
    assert info == (True, False, False, 0)
    assert total == 0


# Counting tuple of the empty string; the neutral element of ``combine``.
EMPTY_INFO = (False, False, False, 0)


def reference_fold(axiom, infos, rels, fsa, start=(EMPTY_INFO, 0)):
    """The fold as one ``combine`` per axiom symbol, for comparison: the
    counting tuple ``fold`` returns, and the reached mask ``collect_stats``
    steps."""
    final = fsa.final
    info, reached = start
    for sym in axiom:
        rel = rels[sym]
        through = union_rows(reached & ~final, rel)
        info = combine(info, infos[sym], through & final != 0)
        reached = through | reached & final | rel.get(0, 0)
    return info, reached


@pytest.mark.parametrize(
    "rules, axiom, expected",
    [
        # "ab\na": "ab" crosses the seam between a and "b\na" in the first line
        ([(98, 10), (256, 97)], [97, 257], (True, True, False, 0)),
        # "b\nab\nba": no trailing newline, the last line matches and stays open
        ([(97, 98), (10, 256), (98, 97)], [98, 257, 10, 258], (True, False, True, 1)),
    ],
)
def test_fold_directed_cases(ab_ba_fsa, rules, axiom, expected):
    slp = Slp(rules, axiom)
    assert fold(slp.axiom, saturate(slp.rules, ab_ba_fsa), ab_ba_fsa) == expected


def test_fold_matches_reference_fold():
    rng = random.Random(1010)
    for _ in range(1200):
        _, fsa = compiled_random_pattern(rng, max_states=12)
        slp = random_grammar(rng)
        symbols = [97, 98, 10] + list(range(256, 256 + len(slp.rules)))
        axiom = list(slp.axiom) + [rng.choice(symbols) for _ in range(rng.randrange(0, 20))]
        saturation = saturate(slp.rules, fsa)
        args = (saturation, fsa)
        ref_args = (*symbol_summaries(saturation), fsa)
        assert fold(axiom, *args) == reference_fold(axiom, *ref_args)[0]


def test_axiom_of_length_one(ab_ba_fsa):
    slp = Slp([(ord("a"), ord("b"))], [256])
    _, _, info, total = run_engine(slp, ab_ba_fsa)
    assert info == (False, True, True, 0)
    assert total == 1


def test_fold_equals_explicit_rule_chain():
    rng = random.Random(31415)
    for _ in range(60):
        _, fsa = compiled_random_pattern(rng, max_states=12)
        slp = random_grammar(rng)
        if len(slp.axiom) < 2:
            continue
        *_, total = run_engine(slp, fsa)
        # chain grammar: S1 -> (s)1 (s)2, S_i -> S_{i-1} (s)_{i+1}
        chain_pairs = list(slp.rules)
        prev = slp.axiom[0]
        for sym in slp.axiom[1:]:
            chain_pairs.append((prev, sym))
            prev = 256 + len(chain_pairs) - 1
        chain = Slp(chain_pairs, [prev])
        *_, chain_total = run_engine(chain, fsa)
        assert total == chain_total


# ---------------------------------------------------------------------------
# whole-grammar counting


def test_count_example(example_slp, ab_ba_fsa):
    assert count_matching_lines(example_slp, ab_ba_fsa) == 3


def test_count_empty_matching_pattern():
    slp = compress(b"x\ny")
    fsa = compile_pattern("a*")
    assert count_matching_lines(slp, fsa) == 2
    assert count_matching_lines(slp, fsa) == oracle_count(b"x\ny", "a*")


def test_count_no_match(example_slp):
    assert count_matching_lines(example_slp, compile_pattern("zz")) == 0


def test_count_validates_grammar(ab_ba_fsa):
    # An invalid grammar is rejected when built, before any count runs; the
    # streaming entry point checks the axiom it is handed.
    with pytest.raises(InvalidGrammarError, match="empty axiom"):
        count_matching_lines(Slp(rules=(), axiom=()), ab_ba_fsa)
    with pytest.raises(InvalidGrammarError, match="empty axiom"):
        run_count([], lambda: (), ab_ba_fsa)
    # A pattern that matches every line takes the same check.
    with pytest.raises(InvalidGrammarError, match="empty axiom"):
        run_count([], lambda: (), compile_pattern("a*"))


def test_line_counting_bypass_semantics():
    star = compile_pattern("a*")
    for text, lines in [
        (b"x\ny", 2),
        (b"x\n", 1),
        (b"\n", 1),
        (b"\n\n", 2),
        (b"abc", 1),
        (b"a\n\nb\n", 3),
    ]:
        assert count_matching_lines(compress(text), star) == lines, text


def test_contains_match_examples(example_slp, ab_ba_fsa):
    assert contains_match(example_slp, ab_ba_fsa) is True
    assert contains_match(compress(b"aaa"), compile_pattern("b")) is False
    assert contains_match(compress(b"xxabxx"), compile_pattern("ab")) is True
    assert contains_match(compress(b"zzz"), compile_pattern("a*")) is True


def test_contains_match_agrees_with_count():
    rng = random.Random(777)
    for _ in range(150):
        pattern, fsa = compiled_random_pattern(rng)
        text = bytes(rng.choice(b"ab\n") for _ in range(rng.randrange(1, 60)))
        slp = compress(text)
        expected = count_matching_lines(slp, fsa) > 0 or fsa.matches_empty
        assert contains_match(slp, fsa) == expected, (pattern, text)


def test_final_formula_consistency():
    rng = random.Random(8)
    for _ in range(80):
        _, fsa = compiled_random_pattern(rng)
        if fsa.matches_empty:
            continue
        slp = random_grammar(rng)
        _, _, (nl, left, right, count), total = run_engine(slp, fsa)
        assert total == count + left + (1 if nl and right else 0)


def seam_increments(slp, fsa):
    """Per rule whose two parts hold a newline: its seam line and increment."""
    _, counts, _ = saturate(slp.rules, fsa)
    expansions = [bytes([byte]) for byte in range(256)]
    for first, second in slp.rules:
        expansions.append(expansions[first] + expansions[second])
    for sym, (first, second) in enumerate(slp.rules, 256):
        if b"\n" in expansions[first] and b"\n" in expansions[second]:
            line = (
                expansions[first].rsplit(b"\n", 1)[1]
                + expansions[second].split(b"\n", 1)[0]
            )
            yield line, counts[sym] - counts[first] - counts[second]


def test_seam_increment_marks_a_matching_seam_line():
    # The reporter reads whether the line across a rule's seam matches from
    # the counts alone: the increment is 1 exactly when it matches.
    cases = []
    rng = random.Random(19)
    while len(cases) < 150:
        pattern, fsa = compiled_random_pattern(rng)
        if not fsa.matches_empty:
            cases.append((pattern, fsa, random_grammar(rng, max_rules=40)))
    log = compress(_log_like(60_000))
    for pattern in ("404", "GET /api", "host-(alpha|gamma) .*(html|js)", "HTTP/1\\.1"):
        cases.append((pattern, compile_pattern(pattern), log))
    outcomes = collections.Counter()
    for pattern, fsa, slp in cases:
        for line, increment in seam_increments(slp, fsa):
            matches = re.search(pattern.encode(), line) is not None
            assert increment == matches, (pattern, line, increment)
            outcomes[matches] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


# ---------------------------------------------------------------------------
# saturation against brute force


def test_saturation_matches_brute_force_bulk():
    rng = random.Random(606)
    symbols_checked = 0
    for _ in range(60):
        pattern, fsa = compiled_random_pattern(rng, max_states=10)
        slp = random_grammar(rng, max_rules=15, expansion_cap=60)
        infos, rels, *_ = run_engine(slp, fsa)
        for sym in range(256, 256 + len(slp.rules)):
            expansion = expand(slp, (sym,))
            assert relation_pairs(rels[sym]) == brute_anchored_pairs(
                fsa, expansion
            ), (pattern, sym, expansion)
            assert infos[sym] == brute_count_info(
                fsa, expansion
            ), (pattern, sym, expansion)
            symbols_checked += 1
    assert symbols_checked > 200


# ---------------------------------------------------------------------------
# shared relations


def reference_saturate(rule_pairs, fsa):
    """Saturation with one composition per rule and no sharing, for comparison.

    Also returns each rule's row count, which the relation budget adds up.
    """
    final = fsa.final
    rels = list(fsa.rows)
    infos = []
    for byte, rel in enumerate(rels):
        hit = rel.get(0, 0) & final != 0
        infos.append((byte == NEWLINE, hit, hit, 0))
    rule_rows = []
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
        rule_rows.append(len(rel))
    return infos, rels, rule_rows


SHARING_PATTERNS = ("ab|ba", "a.*b", "b(a|b)a", "a[^b]*\n?b", "a.{0,6}b", "(ab){1,3}")


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(SHARING_PATTERNS))
def test_saturate_shares_equal_relations(seed, pattern):
    # One composition per distinct pair of relations gives what one per
    # rule gives, and relations with equal contents are one object.
    fsa = compile_pattern(pattern)
    slp = random_grammar(random.Random(seed), max_rules=40)
    infos, rels = symbol_summaries(saturate(slp.rules, fsa))
    ref_infos, ref_rels, _ = reference_saturate(slp.rules, fsa)
    assert infos == ref_infos
    assert rels == ref_rels
    by_contents = {}
    for rel in rels:
        assert by_contents.setdefault(tuple(sorted(rel.items())), rel) is rel


# The benchmark's seven regex-heavy patterns at seed 1 (21-43 states; 26-86
# kinds on the 16 KB log text of memo_cases).
REGEX_HEAVY_SHAPES = (
    ".{0,32}&",
    "(GET|POST) .{0,20}(favi|stat)",
    "[a-z]{2,20}\\.ico",
    "-(sigma|gamma|delta|omega){1,2} ",
    "\\[[0-9/A-Za-z]{4,12}:1[0-9]:.{0,10}\\]",
    '(4|2)[0-9]\\] ".{0,12}(items|ico)',
    '1\\.1" [0-9]{3} 102[0-9]{1,8}',
)


def memo_work(rule_pairs, fsa):
    """(distinct kind pairs, rows of A summed over distinct relation pairs).

    A symbol's kind is its relation's contents and its line flags, taken
    from the reference saturation.
    """
    infos, rels, _ = reference_saturate(rule_pairs, fsa)
    contents = [tuple(sorted(rel.items())) for rel in rels]
    kinds = [(key, *info[:3]) for key, info in zip(contents, infos)]
    kind_pairs = {(kinds[a], kinds[b]) for a, b in rule_pairs}
    rel_pairs = {(contents[a], contents[b]): len(rels[a]) for a, b in rule_pairs}
    return len(kind_pairs), sum(rel_pairs.values())


def memo_cases():
    rng = random.Random(1818)
    for _ in range(80):
        _, fsa = compiled_random_pattern(rng, max_states=12)
        yield fsa, random_grammar(rng, max_rules=40).rules
    log_rules = compress(_log_like(16384)).rules
    for pattern in REGEX_HEAVY_SHAPES:
        yield compile_pattern(pattern), log_rules


def count_saturate_calls(monkeypatch) -> collections.Counter:
    """Count saturate's calls of ``combine`` and of ``union_rows``.

    ``saturate`` calls ``union_rows`` once per row of A when it composes a
    pair of relations, and nowhere else.
    """
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(zslp.engine, "combine", counted(combine))
    monkeypatch.setattr(zslp.engine, "union_rows", counted(union_rows))
    return calls


def test_saturate_memo_levels_match_reference(monkeypatch):
    # Per-symbol values equal one composition and one combine per rule,
    # while saturate combines once per distinct pair of kinds and composes
    # once per distinct pair of relations.
    calls = count_saturate_calls(monkeypatch)
    for fsa, rules in memo_cases():
        calls.clear()
        saturation = saturate(rules, fsa)
        work = (calls["combine"], calls["union_rows"])
        infos, rels, _ = reference_saturate(rules, fsa)
        assert symbol_summaries(saturation) == (infos, rels)
        assert work == memo_work(rules, fsa)


def test_saturate_kind_miss_relation_hit(monkeypatch):
    # "b" and "b\n" share one relation but not the newline flag, so the
    # rules "b\n"+"a" and "b"+"a" share a pair of relations, not of kinds:
    # the second misses the kind memo and hits the relation memo.
    fsa = compile_pattern("ab")
    rules = [(98, 10), (256, 97), (98, 97), (98, 97)]
    infos, rels, _ = reference_saturate(rules, fsa)
    assert rels[256] == rels[98] and infos[256][0] != infos[98][0]
    calls = count_saturate_calls(monkeypatch)
    saturation = saturate(rules, fsa)
    assert symbol_summaries(saturation) == (infos, rels)
    # Three pairs of kinds; two pairs of relations, each A with one row.
    assert (calls["combine"], calls["union_rows"]) == (3, 2)
    assert saturation.kinds[257] != saturation.kinds[258] == saturation.kinds[259]


@pytest.mark.parametrize("shape", ["one-shared-relation", "random"])
def test_relation_budget_counts_every_rule(monkeypatch, shape):
    # The budget adds each rule's rows, shared or not, so it raises at the
    # same rule as a saturation that composes every rule on its own.
    fsa = compile_pattern("a.{0,6}b")
    if shape == "random":
        rules = random_grammar(random.Random(77), max_rules=60).rules
    else:
        rules = [(97, 98)] + [(97, 98), (256, 256)] * 30
    rule_rows = reference_saturate(rules, fsa)[2]
    budget = sum(rule_rows) // 2  # rows as words: the automaton is under 64 states
    totals = itertools.accumulate(rule_rows)
    expected = next(i for i, total in enumerate(totals) if total > budget)
    monkeypatch.setattr(zslp.engine, "MAX_RELATION_WORDS", budget)
    consumed = []

    def feed():
        for i, pair in enumerate(rules):
            consumed.append(i)
            yield pair

    with pytest.raises(PatternSyntaxError, match=f"pattern too large: over {budget} "):
        saturate(feed(), fsa)
    assert consumed[-1] == expected


# ---------------------------------------------------------------------------
# instrumentation


def test_collect_stats_shapes(example_slp, ab_ba_fsa):
    stats = collect_stats(example_slp, ab_ba_fsa)
    assert stats.p == 7
    assert stats.axiom_len == 2
    assert sum(stats.rule_costs.values()) == 7
    assert sum(stats.axiom_costs.values()) == 2
    assert stats.s == 4
    assert set(stats.rule_percentiles) == {50, 75, 95, 98, 100}


def test_collect_stats_bounds_and_budget():
    rng = random.Random(9090)
    for _ in range(50):
        _, fsa = compiled_random_pattern(rng, max_states=15)
        if fsa.matches_empty:
            continue
        text = bytes(rng.choice(b"abc \n") for _ in range(rng.randrange(1, 300)))
        slp = compress(text)
        stats = collect_stats(slp, fsa)
        bound_rule = stats.s**3 + stats.s
        bound_axiom = stats.s**2
        assert all(cost <= bound_rule for cost in stats.rule_costs)
        assert all(cost <= bound_axiom for cost in stats.axiom_costs)
        assert stats.measured_ops <= 3 * stats.op_budget


def reference_stats(slp, fsa):
    """collect_stats costing every rule on its own, for comparison."""
    infos, rels = symbol_summaries(saturate(slp.rules, fsa))
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
        state = reference_fold((sym,), infos, rels, fsa, start=state)
    per_axiom_symbol = [pairs[sym] for sym in slp.axiom]
    return SearchStats(
        s=s,
        p=len(slp.rules),
        axiom_len=len(slp.axiom),
        rule_costs=collections.Counter(per_rule),
        axiom_costs=collections.Counter(per_axiom_symbol),
        rule_percentiles=sorted_percentiles(per_rule),
        axiom_percentiles=sorted_percentiles(per_axiom_symbol),
        measured_ops=measured,
    )


def sorted_percentiles(values):
    """Nearest-rank percentiles read off the sorted list of every value."""
    ordered = sorted(values)
    return {
        point: ordered[max(1, ceil(point / 100 * len(ordered))) - 1] if ordered else 0
        for point in PERCENTILE_POINTS
    }


def test_collect_stats_costs_each_relation_pair_once():
    # Costing each distinct pair of shared relations once gives the same
    # stats as costing every rule, also for automata with inner repeats.
    rng = random.Random(1414)
    for _ in range(40):
        fsa = compile_pattern(rng.choice(SHARING_PATTERNS + ("b(a|b){2,5}a",)))
        slp = random_grammar(rng, max_rules=40)
        assert collect_stats(slp, fsa) == reference_stats(slp, fsa)


def test_collect_stats_reads_the_axiom_without_fold(monkeypatch):
    # The reached masks before each axiom symbol come from one pass over
    # the axiom, not from a fold per symbol.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fold(*args, **kwargs)

    monkeypatch.setattr(zslp.engine, "fold", counted)
    rng = random.Random(5)
    slp = compress(bytes(rng.choice(b"ab \n") for _ in range(2000)))
    fsa = compile_pattern("ab+a|ba")
    stats = collect_stats(slp, fsa)
    assert stats.axiom_len > 100
    assert calls == []
    assert stats == reference_stats(slp, fsa)


def test_collect_stats_zero_rules():
    stats = collect_stats(Slp([], [97, 98]), compile_pattern("q"))
    assert stats.rule_costs == collections.Counter()
    assert stats.rule_percentiles == {50: 0, 75: 0, 95: 0, 98: 0, 100: 0}


def test_nearest_rank_percentiles():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    result = nearest_rank_percentiles(collections.Counter(values))
    assert result == {50: 5, 75: 8, 95: 10, 98: 10, 100: 10}
    assert nearest_rank_percentiles(collections.Counter()) == {50: 0, 75: 0, 95: 0, 98: 0, 100: 0}
    # From the histogram, the same ranks as from the sorted values.
    rng = random.Random(98)
    for _ in range(200):
        values = [rng.randrange(6) for _ in range(rng.randrange(1, 60))]
        assert nearest_rank_percentiles(collections.Counter(values)) == sorted_percentiles(values)


def test_deterministic_rows_stay_narrow():
    # deterministic automaton: every row from a non-initial state holds at
    # most one target state
    fsa = compile_pattern("ab|ba")
    assert fsa.is_deterministic
    rng = random.Random(4)
    for _ in range(25):
        text = bytes(rng.choice(b"ab\n") for _ in range(rng.randrange(1, 200)))
        slp = compress(text)
        _, rels, *_ = run_engine(slp, fsa)
        assert max_row_width(rels, fsa) <= 1


def test_engine_rejects_nonnormalised_automata():
    # the shape the engine relies on is enforced when the automaton is built
    with pytest.raises(ValueError, match="leaving a final state"):
        fsa_from_cells(2, {(0, 97): {1}, (1, 97): {1}})
    with pytest.raises(ValueError, match="entering an initial state"):
        fsa_from_cells(2, {(0, 97): {0, 1}})
    with pytest.raises(ValueError, match="newline byte"):
        fsa_from_cells(2, {(0, 10): {1}})


def test_run_count_reads_the_axiom_after_the_last_rule(example_slp, ab_ba_fsa):
    # The benchmark's tracer splits engine.saturate from engine.fold at the
    # read_axiom call, so every rule must be consumed before it.
    rules = iter(example_slp.rules)

    def read_axiom():
        assert next(rules, None) is None
        return example_slp.axiom

    assert run_count(rules, read_axiom, ab_ba_fsa) == 3


def test_streaming_rule_feed(example_slp, ab_ba_fsa):
    import io

    from zslp.engine import run_count
    from zslp.slp import ZslpReader, encode_slp

    reader = ZslpReader(io.BytesIO(encode_slp(example_slp)))
    total = run_count(reader.iter_rules(), reader.read_axiom, ab_ba_fsa)
    assert total == 3
