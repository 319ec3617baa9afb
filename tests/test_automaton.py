import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PATTERN_ERRORS,
    compiled_random_pattern,
    random_pattern,
    reference_automaton,
)
from zslp.automaton import (
    NewlinePatternError,
    PatternSyntaxError,
    _glushkov,
    _reduce_line_edges,
    compile_line_pattern,
    compile_pattern,
    nfa_accepts,
    parse_pattern,
)
from zslp.oracle import backtrack_match, line_matches


def language_upto(fsa, alphabet: bytes, max_len: int):
    words = []
    for length in range(1, max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            word = bytes(combo)
            if nfa_accepts(fsa, word):
                words.append(word)
    return words


def test_compile_alternation_language():
    fsa = compile_pattern("ab|ba")
    assert language_upto(fsa, b"ab", 3) == [b"ab", b"ba"]
    assert fsa.matches_empty is False


def test_compile_star_matches_empty():
    fsa = compile_pattern("a*")
    assert fsa.matches_empty is True
    assert language_upto(fsa, b"ab", 3) == [b"a", b"aa", b"aaa"]


def test_compile_dot_excludes_newline():
    fsa = compile_pattern(".")
    accepted = [b for b in range(256) if b != 0x0A and nfa_accepts(fsa, bytes([b]))]
    assert len(accepted) == 255
    # the newline byte is outside the automaton's alphabet entirely
    assert fsa.successors(0, 0x0A) == frozenset()


def test_classes_and_negation():
    fsa = compile_pattern("[a-c]x")
    assert nfa_accepts(fsa, b"bx")
    assert not nfa_accepts(fsa, b"dx")
    neg = compile_pattern("[^a]")
    assert not nfa_accepts(neg, b"a")
    assert nfa_accepts(neg, b"b")
    # negated classes exclude the newline: no transition carries it
    assert all(
        0x0A != byte for _, byte, _ in neg.iter_transitions()
    )


def test_class_literal_edge_cases():
    assert nfa_accepts(compile_pattern("[]a]"), b"]")
    assert nfa_accepts(compile_pattern("[a-]"), b"-")
    assert nfa_accepts(compile_pattern(r"[\]]"), b"]")


def test_bounded_repetition():
    fsa = compile_pattern("a{2,3}")
    assert [w for w in language_upto(fsa, b"a", 5)] == [b"aa", b"aaa"]
    exact = compile_pattern("(ab){2}")
    assert language_upto(exact, b"ab", 5) == [b"abab"]
    at_least = compile_pattern("a{2,}")
    assert language_upto(at_least, b"a", 4) == [b"aa", b"aaa", b"aaaa"]


def test_zero_repetition_matches_only_empty():
    fsa = compile_pattern("a{0}")
    assert fsa.matches_empty is True
    assert fsa.state_count == 0


def test_escapes_are_literal():
    fsa = compile_pattern(r"a\*b")
    assert nfa_accepts(fsa, b"a*b")
    assert not nfa_accepts(fsa, b"ab")
    assert nfa_accepts(compile_pattern(r"\(x\)"), b"(x)")


def test_anchors_are_pattern_errors():
    # An unescaped '^' or '$' outside a class is refused with its position,
    # wherever it stands; escaped or in a class it is the character.
    for pattern, position in (("^a", 0), ("a$", 1), ("(b|^a)", 3), ("a|$", 2), ("x*^", 2)):
        with pytest.raises(PatternSyntaxError, match="anchor") as err:
            compile_pattern(pattern)
        assert err.value.position == position, pattern
    fsa = compile_pattern(r"\^a\$")
    assert nfa_accepts(fsa, b"^a$")
    assert not nfa_accepts(fsa, b"a")
    for pattern in ("[$^]", "[$]", "[a^]", "[^^]"):
        fsa = compile_pattern(pattern)
        assert nfa_accepts(fsa, b"$") == (pattern != "[a^]"), pattern
        assert nfa_accepts(fsa, b"^") == (pattern not in ("[$]", "[^^]")), pattern


def test_syntax_errors_carry_position():
    with pytest.raises(PatternSyntaxError) as err:
        compile_pattern("ab(")
    assert "position 3" in str(err.value)
    assert err.value.position == 3
    for bad in ("a|b)", "[ab", "a{2", "a{3,1}", "*a", "a\\"):
        with pytest.raises(PatternSyntaxError):
            compile_pattern(bad)
    # groups plus stacked repeat operators nest at most 100 deep
    compile_pattern("(" * 50 + "a" + "*" * 50 + ")" * 50)
    with pytest.raises(PatternSyntaxError) as err:
        compile_pattern("(" * 50 + "a" + "*" * 51 + ")" * 50)
    assert err.value.position == 151  # the ')' that closes level 101


@pytest.mark.parametrize(
    "pattern, position, message", PATTERN_ERRORS, ids=[p for p, _, _ in PATTERN_ERRORS]
)
def test_each_syntax_error_is_pinned(pattern, position, message):
    with pytest.raises(PatternSyntaxError) as err:
        compile_pattern(pattern)
    assert err.value.position == position
    assert str(err.value) == f"syntax error at position {position}: {message}"


def test_newline_only_pattern_rejected():
    with pytest.raises(NewlinePatternError, match="newline in pattern"):
        compile_pattern("a\nb")
    # a branch that needs no newline keeps the pattern compilable
    fsa = compile_pattern("a|\nq")
    assert nfa_accepts(fsa, b"a")
    assert not nfa_accepts(fsa, b"q")


def test_nfa_accepts_examples(ab_ba_fsa):
    assert nfa_accepts(ab_ba_fsa, b"ab") is True
    assert nfa_accepts(ab_ba_fsa, b"aa") is False
    assert nfa_accepts(ab_ba_fsa, b"") is False


def test_nfa_accepts_rejects_newline_input(ab_ba_fsa):
    with pytest.raises(ValueError):
        nfa_accepts(ab_ba_fsa, b"a\nb")


def test_compiled_shape_supports_saturation():
    # state 0 starts and the last state accepts: ``final`` is its bit, no
    # move leaves it and none enters state 0; a pattern compiles to no
    # states only when it matches the empty string
    rng = random.Random(5)
    stateless = [compile_pattern(p) for p in ("()", "x{0}", "(a{0})*")]
    randoms = [compiled_random_pattern(rng)[1] for _ in range(60)]
    for fsa in stateless + randoms:
        if fsa.state_count == 0:
            assert fsa.matches_empty and fsa.final == 0
            continue
        assert fsa.final == 1 << fsa.state_count - 1
        for src, _, targets in fsa.iter_transitions():
            assert src != fsa.state_count - 1
            assert 0 not in targets


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_compiled_language_matches_backtracker(seed):
    rng = random.Random(seed)
    pattern = random_pattern(rng, alphabet="ab\n" if seed % 3 == 0 else "ab")
    strings = [b""] + [
        bytes(combo)
        for length in range(1, 7)
        for combo in itertools.product(b"ab", repeat=length)
    ]
    try:
        fsa = compile_pattern(pattern)
    except NewlinePatternError:
        assert not any(backtrack_match(pattern, string) for string in strings)
        return
    for string in strings:
        assert nfa_accepts(fsa, string) == backtrack_match(pattern, string), (
            pattern,
            string,
        )


def test_bounded_repeat_rows_stay_narrow():
    # copy i+1 of x{0,n} is entered from copy i only, so a row holds the
    # next copy and, on 'z', the accept state
    fsa = compile_pattern(".{0,32}z")
    assert fsa.state_count == 34
    assert all(len(targets) <= 2 for _, _, targets in fsa.iter_transitions())
    # state 0 and the first 31 copies: 255 bytes, plus accept on 'z'; the
    # last copy: 'z' only
    assert sum(len(t) for _, _, t in fsa.iter_transitions()) == 32 * 256 + 1


def test_oversized_patterns_rejected():
    with pytest.raises(PatternSyntaxError, match="transition pairs"):
        compile_pattern("((.?){512}){4}z")
    with pytest.raises(PatternSyntaxError, match="states"):
        compile_pattern("(a{512}){512}")
    with pytest.raises(PatternSyntaxError, match="node copies") as err:
        compile_pattern("((" + "()" * 100 + "a){512}){39}")
    # A refusal for size names no position in the pattern.
    assert err.value.position is None
    assert str(err.value) == "pattern too large: over 200000 node copies"


def test_repeats_of_position_free_items_compile_at_once():
    start = time.process_time()
    fsa = compile_pattern("((((){512}){512}){512}){512}")
    assert fsa.state_count == 0 and fsa.matches_empty
    with pytest.raises(NewlinePatternError):
        compile_pattern("(((\n{512}){512}){512}){512}")
    assert time.process_time() - start < 2
    for pattern in ["a(){2,3}b", "a(\n){0,2}b", "a(\n){1,2}b|ba", "(()|a){2}b*"]:
        fsa = compile_pattern(pattern)
        for length in range(4):
            for combo in itertools.product(b"ab", repeat=length):
                string = bytes(combo)
                assert nfa_accepts(fsa, string) == backtrack_match(pattern, string)


def test_backtracker_agreement_bulk():
    rng = random.Random(2024)
    pairs = 0
    while pairs < 1000:
        pattern = random_pattern(rng)
        try:
            fsa = compile_pattern(pattern)
        except (NewlinePatternError, PatternSyntaxError):
            continue
        for _ in range(4):
            string = bytes(rng.choice(b"ab") for _ in range(rng.randrange(0, 10)))
            assert nfa_accepts(fsa, string) == backtrack_match(pattern, string), (
                pattern,
                string,
            )
            pairs += 1
    assert pairs >= 1000


def test_bytes_pattern_accepted():
    assert nfa_accepts(compile_pattern(b"ab"), b"ab")


def test_wide_characters_rejected():
    with pytest.raises(PatternSyntaxError):
        compile_pattern("aΔ")


# ---------------------------------------------------------------------------
# Line-edge reduction


def automaton_shape(fsa):
    return fsa.state_count, fsa.matches_empty, sorted(fsa.iter_transitions())


@pytest.mark.parametrize(
    "pattern, states, reduced_like",
    [
        (".{0,512}z", 2, "z"),
        ("[a-z]{2,20}\\.ico", 7, "[a-z]{2}\\.ico"),
        ("(x*a|b)c", 4, "(a|b)c"),
        ("(.{0,5}ab)+c", 4, "abc"),
        ("(a{2,3}){2,}", 5, "aaaa"),
        ("a|b*", 0, ""),
        ("\n*a", 2, "a"),
    ],
)
def test_line_edges_are_reduced(pattern, states, reduced_like):
    fsa = compile_line_pattern(pattern)
    assert fsa.state_count == states
    assert automaton_shape(fsa) == automaton_shape(compile_pattern(reduced_like))
    assert fsa.matches_empty == compile_pattern(pattern).matches_empty


def test_line_edge_reduction_keeps_the_newline_check():
    with pytest.raises(NewlinePatternError):
        compile_line_pattern("a\n{1,3}")
    with pytest.raises(NewlinePatternError):
        compile_line_pattern("\n+(b|a*)")


def test_compile_pattern_keeps_the_whole_string_language():
    assert nfa_accepts(compile_pattern("a*b"), b"aab")
    assert not nfa_accepts(compile_line_pattern("a*b"), b"aab")
    assert nfa_accepts(compile_line_pattern("a*b"), b"b")


def _repeat_operator():
    return st.one_of(
        st.sampled_from(["*", "+", "?"]),
        st.integers(0, 3).map("{{{}}}".format),
        st.integers(0, 3).map("{{{},}}".format),
        st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
            lambda t: "{%d,%d}" % (t[0], t[0] + t[1])
        ),
    )


def _compound(inner):
    return st.one_of(
        st.lists(inner, min_size=2, max_size=3).map("".join),
        st.lists(inner, min_size=2, max_size=3).map(lambda o: "(" + "|".join(o) + ")"),
        st.tuples(inner, _repeat_operator()).map(lambda t: "(" + t[0] + ")" + t[1]),
    )


ATOMS = st.sampled_from(["a", "b", ".", "[ab]", "[^a]", "\n", "()"])
PATTERNS = st.recursive(ATOMS, _compound, max_leaves=8)
LINES = st.lists(st.sampled_from(b"abc"), max_size=8).map(bytes)


@settings(max_examples=300, deadline=None)
@given(PATTERNS, st.lists(LINES, min_size=1, max_size=8))
def test_line_edge_reduction_keeps_the_matching_lines(pattern, lines):
    try:
        fsa = compile_pattern(pattern)
    except NewlinePatternError:
        with pytest.raises(NewlinePatternError):
            compile_line_pattern(pattern)
        return
    reduced = compile_line_pattern(pattern)
    assert reduced.matches_empty == fsa.matches_empty
    assert reduced.state_count <= fsa.state_count
    for line in lines:
        assert line_matches(reduced, line) == line_matches(fsa, line), (pattern, line)


# The benchmark's log-grep and prose-grep patterns, and regex-heavy's at seed 2
# (seed 1's are the engine tests' REGEX_HEAVY_SHAPES).
BENCH_PATTERNS = (
    "POST",
    "beta.*:1[0-9]:.*js",
    "2026:0[0-9]:[0-5]9",
    "404",
    "GET /api",
    "host-(alpha|gamma) .*(html|js)",
    "HTTP/1\\.1",
    "I .* you",
    "river",
    "love|miss",
    "(king|queen) .*(ship|sea)",
    "Mother",
    "zebra",
    "the",
    ".{0,32}z",
    "(GET|POST) .{0,20}(item|stat)",
    "[a-z]{2,20}\\.htm",
    "-(omega|alpha|sigma|gamma){1,2} ",
    "\\[[0-9/A-Za-z]{4,12}:0[0-9]:.{0,10}\\]",
    '(3|5)[0-9]\\] ".{0,12}(items|ico)',
    '1\\.1" [0-9]{3} 104[0-9]{1,8}',
    "x*",
    ".{0,512}z",
    "t.{0,200}g",
    "t.{0,512}g",
    "(.{512}){4}",
)


def sharing(rows) -> list:
    """Per byte, the lowest byte whose row map is the same object."""
    lowest: dict = {}
    return [lowest.setdefault(id(row), byte) for byte, row in enumerate(rows)]


def test_rows_match_cell_by_cell_reference():
    # The compiler builds rows in state space; they equal rows built cell
    # by cell, key order and the bytes sharing a row map included, for the
    # whole-string and the line-reduced pattern.
    from test_engine import REGEX_HEAVY_SHAPES

    rng = random.Random(3535)
    patterns = [*BENCH_PATTERNS, *REGEX_HEAVY_SHAPES]
    patterns += [random_pattern(rng, 4, rng.choice(["ab", "abc", "a\nb"])) for _ in range(500)]
    for pattern in patterns:
        ast = parse_pattern(pattern)
        for tree in (ast, _reduce_line_edges(ast)):
            fsa = _glushkov(tree)
            state_count, rows, matches_empty = reference_automaton(tree)
            assert (fsa.state_count, fsa.matches_empty) == (state_count, matches_empty)
            assert [list(row.items()) for row in fsa.rows] == [list(row.items()) for row in rows]
            assert sharing(fsa.rows) == sharing(rows)
