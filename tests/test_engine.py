import io
import itertools
import random

import pytest

from conftest import (
    EXAMPLE_PAIRS,
    brute_anchored_pairs,
    brute_count_info,
    compiled_random_pattern,
    fsa_from_cells,
    max_row_width,
    random_grammar,
    relation_pairs,
)
from zslp.automaton import compile_pattern
from zslp.engine import (
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
from zslp.slp import InvalidGrammarError, Slp, ZslpReader, expand_symbol


def run_engine(slp, fsa):
    """Saturate and fold a whole grammar: (infos, rels, final info, total)."""
    infos, rels = saturate(slp.rules, fsa)
    info, _ = fold(slp.axiom, infos, rels, fsa)
    return infos, rels, info, matching_lines(info)


def state_roles(fsa):
    """The start state and the accept state."""
    return 0, fsa.state_count - 1


# ---------------------------------------------------------------------------
# terminal initialisation


def test_init_terminals_newline(ab_ba_fsa):
    infos, rels = saturate([], ab_ba_fsa)
    assert infos[0x0A] == (True, False, False, 0)
    assert rels[0x0A] == {}


def test_init_terminals_intermediate_byte(ab_ba_fsa):
    initial, final = state_roles(ab_ba_fsa)
    infos, rels = saturate([], ab_ba_fsa)
    assert infos[ord("a")] == (False, False, False, 0)
    # 'a' moves initial -> after-a and after-b -> final
    pairs = relation_pairs(rels[ord("a")])
    sources = {q for q, _ in pairs}
    targets = {t for _, t in pairs}
    assert len(pairs) == 2
    assert initial in sources and final in targets


def test_init_terminals_single_byte_pattern():
    fsa = compile_pattern("a")
    infos, _ = saturate([], fsa)
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
        infos, _ = saturate(random_grammar(rng).rules, fsa)
        for nl, left, right, count in infos:
            assert nl or (left == right and count == 0)


# ---------------------------------------------------------------------------
# rule processing


def test_process_rule_ab(ab_ba_fsa):
    initial, final = state_roles(ab_ba_fsa)
    infos, rels = saturate([(ord("a"), ord("b"))], ab_ba_fsa)
    pairs = relation_pairs(rels[256])
    # brute-force verified transition set for expansion "ab"
    assert pairs == brute_anchored_pairs(ab_ba_fsa, b"ab")
    assert (initial, final) in pairs
    assert infos[256] == (False, True, True, 0)


def test_process_rule_no_edges():
    fsa = compile_pattern("ab|ba")
    infos, rels = saturate([(ord("x"), ord("y"))], fsa)
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


def test_rule_referencing_later_symbol_rejected(ab_ba_fsa):
    # The streamed path's one rule check is ZslpReader.iter_rules. The
    # stream holds one rule, (300, 97), and the axiom 256.
    reader = ZslpReader(io.BytesIO(b"ZSLP\x01\x01\xac\x02\x61\x01\x80\x02"))
    match = "rule for symbol 256 references undefined/later symbol"
    with pytest.raises(InvalidGrammarError, match=match):
        run_count(reader.iter_rules(), reader.read_axiom, ab_ba_fsa)


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
            expansion = expand_symbol(slp, sym)
            assert relation_pairs(rels[sym]) == brute_anchored_pairs(
                fsa, expansion
            ), (pattern, sym, expansion)
            assert infos[sym] == brute_count_info(
                fsa, expansion
            ), (pattern, sym, expansion)
            symbols_checked += 1
    assert symbols_checked > 200


# ---------------------------------------------------------------------------
# instrumentation


def test_collect_stats_shapes(example_slp, ab_ba_fsa):
    stats = collect_stats(example_slp, ab_ba_fsa)
    assert stats.p == 7
    assert stats.axiom_len == 2
    assert len(stats.per_rule) == 7
    assert len(stats.per_axiom_symbol) == 2
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
        assert all(v <= bound_rule for v in stats.per_rule)
        assert all(v <= bound_axiom for v in stats.per_axiom_symbol)
        assert stats.measured_ops <= 3 * stats.op_budget


def test_collect_stats_zero_rules():
    stats = collect_stats(Slp([], [97, 98]), compile_pattern("q"))
    assert stats.per_rule == ()
    assert stats.rule_percentiles == {50: 0, 75: 0, 95: 0, 98: 0, 100: 0}


def test_nearest_rank_percentiles():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    result = nearest_rank_percentiles(values)
    assert result == {50: 5, 75: 8, 95: 10, 98: 10, 100: 10}
    assert nearest_rank_percentiles([]) == {50: 0, 75: 0, 95: 0, 98: 0, 100: 0}


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


def test_streaming_rule_feed(example_slp, ab_ba_fsa):
    import io

    from zslp.engine import run_count
    from zslp.slp import ZslpReader, encode_slp

    reader = ZslpReader(io.BytesIO(encode_slp(example_slp)))
    total = run_count(reader.iter_rules(), reader.read_axiom, ab_ba_fsa)
    assert total == 3
