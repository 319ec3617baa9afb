import io
import random

from conftest import (
    DOUBLING_PAIRS,
    DOUBLING_TOP,
    compiled_random_pattern,
    random_text,
    sample_from_pattern,
)
from zslp.automaton import compile_pattern
from zslp.engine import count_matching_lines
from zslp.oracle import oracle_lines
from zslp.repair import compress
from zslp.reporter import report_matching_lines
from zslp.slp import Slp, _checked_slp, expand


def report(slp, fsa, prune=True):
    sink = io.BytesIO()
    count = report_matching_lines(slp, fsa, sink, prune=prune)
    return count, sink.getvalue()


def test_example_emission(example_slp, ab_ba_fsa):
    count, payload = report(example_slp, ab_ba_fsa)
    assert payload == b"ba\nab\naba\n"
    assert count == 3


def test_no_match_emits_nothing():
    count, payload = report(compress(b"xxx"), compile_pattern("zz"))
    assert count == 0
    assert payload == b""


def test_final_line_gains_newline():
    count, payload = report(compress(b"needle"), compile_pattern("need"))
    assert payload == b"needle\n"
    assert count == 1


def test_empty_matching_lines_emitted():
    count, payload = report(compress(b"a\n\nb"), compile_pattern("x*"))
    assert payload == b"a\n\nb\n"
    assert count == 3
    # texts longer than one expansion chunk (65,536 bytes), with a line
    # across the chunk seam, ending with and without a newline
    for axiom in ([DOUBLING_TOP], [DOUBLING_TOP, 97]):
        slp = Slp(DOUBLING_PAIRS, axiom)
        lines = oracle_lines(expand(slp), "x*")
        count, payload = report(slp, compile_pattern("x*"))
        assert payload == b"".join(line + b"\n" for line in lines)
        assert count == len(lines) > 65536 // 3


def test_writes_stay_within_one_chunk():
    class RecordingSink:
        def __init__(self):
            self.writes = []

        def write(self, data):
            self.writes.append(bytes(data))

    slp = Slp(DOUBLING_PAIRS, [DOUBLING_TOP])  # every line is "ab"
    for pattern in ("ab", "x*"):
        sink = RecordingSink()
        assert report_matching_lines(slp, compile_pattern(pattern), sink) == 2**15
        assert b"".join(sink.writes) == expand(slp)
        assert max(len(data) for data in sink.writes) <= 65536


def test_pruned_subtree_tail_is_rematerialised():
    # grammar shaped so a prunable subtree carries the head of a line that
    # only matches because of bytes arriving after the subtree
    slp = Slp([(120, 10), (256, 65)], [257, 66])  # "x\nA" + "B"
    fsa = compile_pattern("AB")
    for prune in (True, False):
        count, payload = report(slp, fsa, prune=prune)
        assert payload == b"AB\n", (prune, payload)
        assert count == 1


def test_chained_pruned_subtrees():
    # two prunable subtrees in a row; the match completes using only the
    # second one's trailing fragment
    pairs = [
        (113, 10),  # 256 = "q\n"
        (256, 65),  # 257 = "q\nA"
        (114, 10),  # 258 = "r\n"
        (258, 66),  # 259 = "r\nB"
    ]
    slp = Slp(pairs, [257, 259, 67])  # "q\nAr\nBC"
    fsa = compile_pattern("BC")
    for prune in (True, False):
        count, payload = report(slp, fsa, prune=prune)
        assert payload == b"BC\n", (prune, payload)
        assert count == 1
    # and when nothing matches, a pending fragment is silently dropped
    nothing = compile_pattern("zz")
    count, payload = report(slp, nothing, prune=True)
    assert count == 0 and payload == b""


def test_prune_equivalence_on_random_cases():
    rng = random.Random(2718)
    for _ in range(500):
        pattern, fsa = compiled_random_pattern(rng)
        seeds = [sample_from_pattern(rng, pattern) for _ in range(2)]
        text = random_text(rng, 160, seeds=seeds)
        slp = compress(text)
        on_count, on_payload = report(slp, fsa, prune=True)
        off_count, off_payload = report(slp, fsa, prune=False)
        assert on_payload == off_payload, (pattern, text)
        assert on_count == off_count


def test_emission_matches_oracle_and_count():
    rng = random.Random(3141)
    for _ in range(300):
        pattern, fsa = compiled_random_pattern(rng)
        seeds = [sample_from_pattern(rng, pattern)]
        text = random_text(rng, 200, seeds=seeds)
        slp = compress(text)
        count, payload = report(slp, fsa)
        expected_lines = oracle_lines(text, pattern)
        assert payload == b"".join(line + b"\n" for line in expected_lines), (
            pattern,
            text,
        )
        assert count == len(expected_lines)
        assert count == count_matching_lines(slp, fsa)


def test_tail_extraction_matches_expansion():
    import random

    from conftest import random_grammar
    from zslp.engine import saturate
    from zslp.reporter import _tail_after_last_newline

    rng = random.Random(97)
    fsa = compile_pattern("ab")
    checked = 0
    for _ in range(40):
        slp = random_grammar(rng)
        infos, _ = saturate(slp.rules, fsa)
        for sym in range(256, 256 + len(slp.rules)):
            if not infos[sym][0]:
                continue
            expansion = expand(slp, (sym,))
            expected = expansion.rsplit(b"\n", 1)[-1]
            assert expand(slp, _tail_after_last_newline(slp, infos, sym)) == expected
            checked += 1
    assert checked > 50


class CountingRules(tuple):
    """A grammar's rules that count their lookups by index."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


def test_pruning_actually_skips_work():
    # Work is counted as rule lookups, the walk's descents into subtrees.
    text = b"".join(
        b"%d: GET /item/%d HTTP/1.1 200\n" % (i % 97, i % 31) for i in range(20000)
    )
    slp = compress(text)
    for pattern, lines in (("zq9xx", 0), ("96: GET /item/7 ", 7)):
        fsa = compile_pattern(pattern)
        lookups = {}
        for prune in (True, False):
            counted = _checked_slp(CountingRules(slp.rules), slp.axiom)
            assert report(counted, fsa, prune=prune)[0] == lines
            lookups[prune] = counted.rules.lookups
        # Without a match the pruned walk descends into no subtree at all.
        assert (lookups[True] > 0) == (lines > 0), pattern
        assert lookups[True] < lookups[False], pattern
