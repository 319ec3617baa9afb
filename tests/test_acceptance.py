"""Acceptance suite: one test per shipping criterion.

Each test asserts its criterion at the stated tolerance; the terminal
summary hook in conftest prints one PASS/FAIL line per criterion at the end
of the run. Pricier shared inputs (the randomized case list, the corpora)
are module-scoped fixtures.
"""

import io
import json
import random
import statistics
import time

import pytest

from conftest import (
    EXAMPLE_AXIOM,
    EXAMPLE_PAIRS,
    EXAMPLE_TEXT,
    brute_anchored_pairs,
    brute_count_info,
    compiled_random_pattern,
    max_row_width,
    random_grammar,
    random_text,
    relation_pairs,
    sample_from_pattern,
    symbol_summaries,
)
from zslp.automaton import compile_pattern
from zslp.cli import run_cli
from zslp.engine import (
    collect_stats,
    count_matching_lines,
    fold,
    matching_lines,
    saturate,
)
from zslp.oracle import oracle_count, oracle_lines
from zslp.repair import compress
from zslp.reporter import report_matching_lines
from zslp.slp import (
    Slp,
    decode_slp,
    encode_slp,
    expand,
)

PRINTABLE = bytes(range(32, 127)) + b"\n"


@pytest.fixture(scope="module")
def example_grammar():
    return Slp(EXAMPLE_PAIRS, EXAMPLE_AXIOM)


@pytest.fixture(scope="module")
def randomized_cases():
    """1000 (pattern, fsa, text, slp) cases shared by criteria 2 and 9."""
    rng = random.Random(20260809)
    cases = []
    for i in range(1000):
        if i % 2 == 0:
            alphabet, letters = b"ab\n", "ab"
        else:
            alphabet, letters = PRINTABLE, "aeht "
        pattern, fsa = compiled_random_pattern(rng, alphabet=letters)
        seeds = [sample_from_pattern(rng, pattern) for _ in range(rng.randrange(0, 3))]
        max_len = 1900 if i % 5 == 0 else 256
        text = random_text(rng, max_len, alphabet=alphabet, seeds=seeds)[:2048]
        cases.append((pattern, fsa, text, compress(text)))
    return cases


@pytest.fixture(scope="module")
def saturation_instances():
    """200 (fsa, grammar, (tuples, relations)) triples shared by criteria 3 and 4."""
    rng = random.Random(424242)
    instances = []
    while len(instances) < 200:
        _, fsa = compiled_random_pattern(rng, max_states=10)
        slp = random_grammar(rng, max_rules=30, expansion_cap=80)
        saturated = symbol_summaries(saturate(slp.rules, fsa))
        instances.append((fsa, slp, saturated))
    return instances


def test_criterion_1_example_reproduction(example_grammar):
    """Fixture text counts 3 for ab|ba with the expected intermediate tuples."""
    assert expand(example_grammar) == EXAMPLE_TEXT
    fsa = compile_pattern("ab|ba")
    saturation = saturate(example_grammar.rules, fsa)
    info = fold(example_grammar.axiom, saturation, fsa)
    assert matching_lines(info) == 3
    infos, _ = symbol_summaries(saturation)
    # the two subtree tuples and the combined one
    assert infos[258] == (True, True, False, 0)
    assert infos[262] == (True, False, True, 0)
    assert info == (True, True, True, 1)
    # timing: the counting pass itself stays under a millisecond
    best = min(
        _timed_count(example_grammar, fsa) for _ in range(5)
    )
    assert best < 0.001, f"counting took {best * 1e3:.3f} ms"


def _timed_count(slp, fsa):
    start = time.perf_counter()
    count_matching_lines(slp, fsa)
    return time.perf_counter() - start


def test_criterion_2_oracle_equivalence(randomized_cases):
    """Engine count equals the brute-force count on 1000 cases, exactly."""
    start = time.perf_counter()
    for pattern, fsa, text, slp in randomized_cases:
        assert count_matching_lines(slp, fsa) == oracle_count(text, pattern), (
            pattern,
            text,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"oracle equivalence took {elapsed:.1f} s"


def test_criterion_3_saturation_equivalence(saturation_instances):
    """Per-symbol transitions equal the brute-force anchored-factor relation.

    The relation holds (q1, q2) when a factor of the expansion is readable
    q1 -> q2 with the left end at the start or q1 initial, and the right end
    at the finish or q2 final; that covers whole-expansion paths,
    initial-rooted suffixes, final-ended prefixes, and initial-to-final
    inner factors (the last shape is what boundary-match detection and the
    match-decision variant consume).
    """
    for fsa, slp, (_, rels) in saturation_instances:
        for sym in range(256, 256 + len(slp.rules)):
            expansion = expand(slp, (sym,))
            got = relation_pairs(rels[sym])
            assert got == brute_anchored_pairs(fsa, expansion), (sym, expansion)


def test_criterion_4_count_info_equivalence(saturation_instances):
    """Per-symbol counting tuples equal the definitional values, exactly."""
    for fsa, slp, (infos, _) in saturation_instances:
        for sym in range(256, 256 + len(slp.rules)):
            expansion = expand(slp, (sym,))
            assert infos[sym] == brute_count_info(
                fsa, expansion
            ), (sym, expansion)


def test_criterion_5_complexity_instrumentation():
    """Measured work stays within 3x the accounted operation budget.

    Per-rule counts stay within s^3 + s and per-axiom-symbol counts within
    s^2. Deterministic automata additionally keep every relation row that
    leaves a non-initial state at most one state wide (the initial state's
    row is inherently a set).
    """
    rng = random.Random(515151)
    runs = 0
    det_runs = 0
    while runs < 150:
        pattern, fsa = compiled_random_pattern(rng, max_states=14)
        if fsa.matches_empty:
            continue
        alphabet = b"ab\n" if runs % 2 else b"abcd \n"
        text = random_text(rng, 600, alphabet=alphabet)
        slp = compress(text)
        stats = collect_stats(slp, fsa)
        bound_rule = stats.s**3 + stats.s
        bound_axiom = stats.s**2
        assert all(cost <= bound_rule for cost in stats.rule_costs), pattern
        assert all(cost <= bound_axiom for cost in stats.axiom_costs), pattern
        assert stats.measured_ops <= 3 * stats.op_budget, pattern
        runs += 1
        if fsa.is_deterministic:
            _, rels = symbol_summaries(saturate(slp.rules, fsa))
            assert max_row_width(rels, fsa) <= 1, pattern
            det_runs += 1
    assert det_runs >= 10, "expected a healthy share of deterministic automata"


def test_criterion_6_round_trips():
    """Compression and serialisation round-trip exactly on a mixed corpus."""
    corpus = [
        bytes(range(256)) * 4,
        b"\x00\x01\x02\xfe\xff" * 37,
        b"line one\nline two\nline one\nline two\n",
        b"\n\n\n\n\n",
        b"a\n\n\nb\n\nc",
        b"no trailing newline at all",
        b"x",
        b"ab" * 1000,
        bytes(random.Random(6).randrange(256) for _ in range(4096)),
    ]
    for text in corpus:
        slp = compress(text)
        # rules reference only earlier symbols; the axiom is non-empty and defined
        for left, pair in enumerate(slp.rules, 256):
            assert 0 <= min(pair) and max(pair) < left
        assert slp.axiom and max(slp.axiom) < 256 + len(slp.rules)
        assert expand(slp) == text
        assert decode_slp(encode_slp(slp)) == slp
    rng = random.Random(66)
    for _ in range(50):
        slp = random_grammar(rng)
        assert decode_slp(encode_slp(slp)) == slp


def _log_like(size: int) -> bytes:
    hosts = ["alpha", "beta", "gamma", "delta"]
    paths = ["/index.html", "/api/v1/items", "/static/app.js", "/favicon.ico"]
    out = bytearray()
    i = 0
    while len(out) < size:
        line = (
            'host-%s - - [10/Aug/2026:%02d:%02d:%02d] "GET %s HTTP/1.1" %d %d\n'
            % (
                hosts[i % 4],
                i % 24,
                (i * 7) % 60,
                (i * 13) % 60,
                paths[i % 4],
                200 if i % 9 else 404,
                1000 + (i % 50),
            )
        )
        out += line.encode()
        i += 1
    return bytes(out[:size])


def _cpu_per_call(fn, min_sample=0.05):
    """CPU seconds per call of ``fn``, over enough calls to fill ``min_sample``.

    A count takes a few milliseconds, too short to time one call on a
    shared machine; CPU time leaves out time spent descheduled.
    """
    calls = 0
    start = time.process_time()
    while True:
        fn()
        calls += 1
        elapsed = time.process_time() - start
        if elapsed >= min_sample:
            return elapsed / calls


def test_criterion_7_linear_scaling():
    """Doubling repetitive input: sub-linear rules, search time within 2.5x."""
    fsa = compile_pattern("GET /api")
    sizes = [131072, 262144, 524288]
    measured = []
    for size in sizes:
        text = _log_like(size)
        slp = compress(text)
        assert count_matching_lines(slp, fsa) == oracle_count(text, "GET /api")
        times = [_cpu_per_call(lambda: count_matching_lines(slp, fsa)) for _ in range(5)]
        measured.append((len(slp.rules), statistics.median(times)))
    for (rules_small, time_small), (rules_big, time_big) in zip(
        measured, measured[1:]
    ):
        assert rules_big < 2 * rules_small, "rule count grew linearly or worse"
        assert time_big <= 2.5 * time_small, (
            f"search time ratio {time_big / time_small:.2f} exceeds 2.5"
        )


_ENGLISH_WORDS = (
    "the a an i you he she we they it love miss need want see know think say "
    "tell time day night house river mountain letter friend heart hand eye "
    "word story song dream road city garden window door light shadow rain "
    "snow wind fire water earth sky star moon sun bird tree flower stone "
    "bread wine table chair book page ink pen paper clock bell ship sea "
    "harbor island bridge tower wall gate king queen soldier farmer teacher "
    "doctor child mother father brother sister really truly quietly slowly "
    "quickly never always often sometimes again still yet once twice"
).split()


def _english_like(size: int, rng: random.Random) -> bytes:
    out = bytearray()
    while len(out) < size:
        if rng.random() < 0.05:
            words = [
                "I",
                rng.choice(["really", "truly", "still", "always"]),
                rng.choice(["love", "miss", "need"]),
                "you",
            ]
        else:
            words = [rng.choice(_ENGLISH_WORDS) for _ in range(rng.randrange(4, 12))]
        sentence = " ".join(words)
        if rng.random() < 0.3:
            sentence = sentence.capitalize() + "."
        out += sentence.encode()
        out += b"\n"
    return bytes(out[: size - 1]) + b"\n"


def test_criterion_8_stats_report(tmp_path, capsys):
    """On 1 MB of English-like text, the median per-rule operation count for
    "I .* you" stays at or below 10% of the s^3 worst case."""
    text = _english_like(1_000_000, random.Random(20260809))
    slp = compress(text)
    packed = tmp_path / "english.zslp"
    packed.write_bytes(encode_slp(slp))
    assert run_cli(["stats", "-e", "I .* you", "--json", str(packed)]) == 0
    payload = json.loads(capsys.readouterr().out)
    cube = payload["states"] ** 3
    median = payload["rule_percentiles"]["50"]
    assert median <= 0.10 * cube, f"median {median} vs 10% of s^3 = {0.1 * cube}"


def test_criterion_9_reporter_correctness(randomized_cases):
    """Emitted lines equal the oracle's lines, pruned and unpruned alike."""
    for pattern, fsa, text, slp in randomized_cases:
        pruned = io.BytesIO()
        unpruned = io.BytesIO()
        pruned_count = report_matching_lines(slp, fsa, pruned, prune=True)
        unpruned_count = report_matching_lines(slp, fsa, unpruned, prune=False)
        expected = b"".join(line + b"\n" for line in oracle_lines(text, pattern))
        assert pruned.getvalue() == expected, (pattern, text)
        assert unpruned.getvalue() == expected, (pattern, text)
        assert pruned_count == unpruned_count == count_matching_lines(slp, fsa)
