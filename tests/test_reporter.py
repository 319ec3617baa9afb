import io
import random

from conftest import (
    DOUBLING_PAIRS,
    DOUBLING_TOP,
    compiled_random_pattern,
    random_text,
    sample_from_pattern,
)
from test_acceptance import _english_like
from zslp.automaton import compile_line_pattern, compile_pattern
from zslp.engine import count_matching_lines
from zslp.oracle import oracle_count, oracle_lines
from zslp.repair import compress
from zslp.reporter import report_matching_lines
from zslp.slp import CHUNK_SIZE, SHORT_LIMIT, Slp, _checked_slp, expand, iter_expand


def report(slp, fsa, prune=True):
    sink = io.BytesIO()
    count = report_matching_lines(slp, fsa, sink, prune=prune)
    return count, sink.getvalue()


class RecordingSink:
    """A sink that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))


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


class CountingIds(tuple):
    """A grammar's rule firsts that count their lookups by index: a walk
    reads one per rule it descends."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


def counting_slp(slp):
    """The grammar, with rule firsts that count the walks' rule lookups."""
    return _checked_slp(CountingIds(slp.rules.firsts), slp.rules.seconds, slp.axiom)


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
            counted = counting_slp(slp)
            assert report(counted, fsa, prune=prune)[0] == lines
            lookups[prune] = counted.rules.firsts.lookups
        # Without a match the pruned walk descends into no subtree at all.
        assert (lookups[True] > 0) == (lines > 0), pattern
        assert lookups[True] < lookups[False], pattern


def test_templated_text_gives_a_shallow_grammar():
    # RePair breaks ties by pair height, so the periodic text builds no comb
    # (5,692 rules high with leftmost-first ties alone) and the walk to a few
    # matching lines is as long as the log of the text, not the grammar.
    text = b"".join(
        b"%d: GET /item/%d HTTP/1.1 200\n" % (i % 97, i % 31) for i in range(20000)
    )
    slp = compress(text)
    height = [0] * 256
    for first, second in slp.rules:
        height.append(1 + max(height[first], height[second]))
    assert max(height[symbol] for symbol in slp.axiom) <= 32
    counted = counting_slp(slp)
    expected = b"".join(line + b"\n" for line in oracle_lines(text, "96: GET /item/7 "))
    assert report(counted, compile_pattern("96: GET /item/7 ")) == (7, expected)
    assert counted.rules.firsts.lookups < 1000


def test_dense_patterns_match_oracle_and_count():
    # Texts over "ab\n" with runs of repeated lines, so that RePair builds
    # subtrees whose every line matches; patterns that match most lines.
    rng = random.Random(1618)
    patterns = ("[a-z]", ".", "a|b", "a*", "(ab)+")
    fsas = [(pattern, compile_pattern(pattern)) for pattern in patterns]
    for _ in range(150):
        lines = []
        for _ in range(rng.randint(1, 10)):
            line = bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 4)))
            lines += [line] * rng.choice((1, 2, 3, 8, 20))
        text = b"\n".join(lines) + rng.choice((b"", b"\n"))
        if not text:
            continue
        slp = compress(text)
        for pattern, fsa in fsas:
            expected = b"".join(line + b"\n" for line in oracle_lines(text, pattern))
            count = count_matching_lines(slp, fsa)
            for prune in (True, False):
                assert report(slp, fsa, prune=prune) == (count, expected), (
                    pattern,
                    text,
                    prune,
                )


def assert_reports_oracle(slp, pattern):
    text = expand(slp)
    expected = b"".join(line + b"\n" for line in oracle_lines(text, pattern))
    fsa = compile_pattern(pattern)
    for prune in (True, False):
        assert report(slp, fsa, prune=prune) == (
            count_matching_lines(slp, fsa),
            expected,
        ), (pattern, text, prune)
    return expected


def test_full_subtree_ends_an_unterminated_matching_line():
    # 257 = "a\n" + "a" is full; its open last line ends the text.
    slp = Slp([(97, 10), (256, 97)], [257])
    assert assert_reports_oracle(slp, "a") == b"a\na\n"
    assert assert_reports_oracle(compress(b"ab\nab\nab\nab"), "[a-z]") == b"ab\n" * 4
    # the open last line goes on past the full symbol
    assert assert_reports_oracle(Slp([(97, 10), (256, 97)], [257, 98]), "a") == b"a\nab\n"


def test_text_starting_with_a_newline():
    slp = Slp([(10, 97), (256, 10)], [257, 257])  # "\na\n\na\n"
    assert assert_reports_oracle(slp, "[a-z]") == b"a\na\n"
    assert assert_reports_oracle(slp, "x*") == b"\na\n\na\n"
    for pattern in ("[a-z]", "a*", "."):
        assert_reports_oracle(compress(b"\nab\nab\nab\nb"), pattern)


def test_full_subtree_after_a_skipped_fragment():
    # 257 = "x\nA" is skipped; 259 = "B\nB\n" is full, and the line it
    # opens with begins with the skipped fragment "A".
    pairs = [(120, 10), (256, 65), (66, 10), (258, 258)]
    slp = Slp(pairs, [257, 259])
    assert assert_reports_oracle(slp, "B") == b"AB\nB\n"
    lookups = {}
    for prune in (True, False):
        counted = counting_slp(slp)
        assert report(counted, compile_pattern("B"), prune=prune) == (2, b"AB\nB\n")
        lookups[prune] = counted.rules.firsts.lookups
    assert lookups[True] < lookups[False]


def test_adjacent_empty_lines():
    slp = compress(b"a\n\n\na\n\n\na\n\n")
    for pattern in ("a", "x*", "a*", ".", ""):
        assert_reports_oracle(slp, pattern)
    assert assert_reports_oracle(slp, "x*") == b"a\n\n\na\n\n\na\n\n"
    # raw newline terminals in the axiom, next to X = "a\n" (ending with a
    # newline) and Y = "\na" (not)
    x, y = 256, 257
    for axiom in ((10,), (10, 10), (x, 10), (10, x), (x, 10, 10, y)):
        slp = Slp([(97, 10), (10, 97)], axiom)
        for pattern in ("a", "x*", ""):
            assert_reports_oracle(slp, pattern)


def test_opener_completed_by_the_next_symbol_is_written_whole():
    # X = "ab\nab\na" and Y = "b\n": every line of X Y X Y is "ab". Each X
    # opens a line that Y completes, so it is queued whole, and Y's stored
    # bytes hold no other line to emit. No rule is descended.
    pairs = [(97, 98), (256, 10), (257, 257), (258, 97), (98, 10)]
    slp = Slp(pairs, [259, 260, 259, 260])
    counted = counting_slp(slp)
    count, payload = report(counted, compile_pattern("ab"))
    assert (count, payload) == (6, b"ab\n" * 6)
    assert payload == b"".join(line + b"\n" for line in oracle_lines(expand(slp), "ab"))
    assert counted.rules.firsts.lookups == 0


def test_search_printing_nothing_never_builds_line_facts(monkeypatch):
    import zslp.reporter

    calls = []
    real = zslp.reporter.line_facts

    def counted(rule_pairs):
        calls.append(1)
        return real(rule_pairs)

    monkeypatch.setattr(zslp.reporter, "line_facts", counted)
    slp = compress(b"".join(b"line %d of the log\n" % i for i in range(2000)))
    # A pattern matching the empty string writes the text without them.
    for pattern, lines, built in (("zebra", 0, 0), ("of the", 2000, 1), ("x*", 2000, 0)):
        calls.clear()
        assert report(slp, compile_pattern(pattern))[0] == lines
        assert len(calls) == built, pattern


def test_empty_matching_patterns_emit_every_line():
    for text in (b"ab\nab\nab\nab", b"ab\n\nab\n", b"\n", b"b\n\n\nb"):
        slp = compress(text)
        for pattern in ("", "x*", "a*", "(ab)*"):
            lines = text.split(b"\n")
            if text.endswith(b"\n"):
                lines.pop()
            assert assert_reports_oracle(slp, pattern) == b"".join(
                line + b"\n" for line in lines
            )


def record_writing(monkeypatch):
    """Lists of the pending lists the reporter writes and of the symbol
    sequences it streams through ``iter_expand``."""
    import zslp.reporter

    pending, streamed = [], []
    real_write = zslp.reporter._write_pending

    def recording_write(slp, items, sink):
        pending.append(list(items))
        real_write(slp, items, sink)

    def recording_expand(slp, symbols):
        streamed.append(list(symbols))
        return iter_expand(slp, symbols)

    monkeypatch.setattr(zslp.reporter, "_write_pending", recording_write)
    monkeypatch.setattr(zslp.reporter, "iter_expand", recording_expand)
    return pending, streamed


def test_full_symbol_over_one_chunk_is_written_in_chunks(monkeypatch):
    pending, streamed = record_writing(monkeypatch)
    # DOUBLING_TOP derives 98,304 bytes, every line "ab"; a final "a" opens
    # one more line, which the reporter terminates. The full symbol is
    # queued whole and streams through the expander; the stored pieces
    # after it are written as they are.
    cases = (
        ([DOUBLING_TOP], 2**15, [DOUBLING_TOP], b""),
        ([DOUBLING_TOP, 97], 2**15 + 1, [DOUBLING_TOP, 97, 10], b"\n"),
    )
    for axiom, lines, symbols, added in cases:
        slp = Slp(DOUBLING_PAIRS, axiom)
        sink = RecordingSink()
        pending.clear()
        streamed.clear()
        assert report_matching_lines(slp, compile_pattern("a"), sink) == lines
        assert pending == [symbols]
        assert streamed == [[DOUBLING_TOP]]
        assert b"".join(sink.writes) == expand(slp) + added
        assert max(len(data) for data in sink.writes) <= CHUNK_SIZE < len(expand(slp))


def test_full_subtrees_skip_work(monkeypatch):
    import zslp.reporter

    # Every line matches: the walk writes full subtrees whole instead of
    # descending into them. Work is counted as the walk's rule lookups, as
    # above; the bytes are expanded from the uncounted grammar.
    text = b"".join(
        b"%d: GET /item/%d HTTP/1.1 200\n" % (i % 97, i % 31) for i in range(20000)
    )
    slp = compress(text)
    monkeypatch.setattr(
        zslp.reporter, "iter_expand", lambda _, symbols: iter_expand(slp, symbols)
    )
    for pattern in ("HTTP/1\\.1", "[a-z]"):
        fsa = compile_pattern(pattern)
        results = {}
        for prune in (True, False):
            counted = counting_slp(slp)
            results[prune] = report(counted, fsa, prune=prune), counted.rules.firsts.lookups
        (on_report, on_lookups), (off_report, off_lookups) = results[True], results[False]
        assert on_report == off_report
        assert on_report[0] == 20000
        assert on_lookups < off_lookups / 10, pattern


def test_every_line_pattern_writes_the_text_without_saturating(monkeypatch):
    import zslp.engine
    import zslp.reporter

    calls = []
    real = zslp.reporter.saturate

    def counted(rule_pairs, fsa):
        calls.append(1)
        return real(rule_pairs, fsa)

    def refused(rule_pairs):
        raise AssertionError("line facts built for a pattern matching every line")

    monkeypatch.setattr(zslp.reporter, "saturate", counted)
    # The written chunks give the line count; no pass over the rules does.
    monkeypatch.setattr(zslp.reporter, "line_facts", refused)
    monkeypatch.setattr(zslp.engine, "line_facts", refused)
    fsas = (compile_pattern("x*"), compile_pattern("(a|)"), compile_line_pattern(""))
    # DOUBLING_TOP derives 98,304 bytes ending with a newline; a final "a"
    # leaves the text without one.
    for axiom, added in (([DOUBLING_TOP], b""), ([DOUBLING_TOP, 97], b"\n")):
        slp = Slp(DOUBLING_PAIRS, axiom)
        text = expand(slp) + added
        for fsa in fsas:
            for prune in (True, False):
                sink = RecordingSink()
                emitted = report_matching_lines(slp, fsa, sink, prune=prune)
                assert emitted == text.count(b"\n") == oracle_count(text, "x*")
                assert b"".join(sink.writes) == text
                assert max(len(data) for data in sink.writes) <= CHUNK_SIZE
    assert calls == []


def test_count_skips_line_facts_unless_the_pattern_matches_empty(monkeypatch):
    import zslp.engine

    calls = []
    real = zslp.engine.line_facts

    def counted(rule_pairs):
        calls.append(1)
        return real(rule_pairs)

    monkeypatch.setattr(zslp.engine, "line_facts", counted)
    slp = compress(b"ab\nab\nb\n")
    assert count_matching_lines(slp, compile_pattern("a")) == 2
    assert calls == []
    assert count_matching_lines(slp, compile_pattern("a*")) == 3
    assert calls == [1]


def doubled_units(unit_pairs, doublings):
    """Rules of a unit (its rules, the last deriving it), then of the unit
    doubled ``doublings`` times; the last rule derives the whole."""
    pairs = list(unit_pairs)
    for _ in range(doublings):
        top = 256 + len(pairs) - 1
        pairs.append((top, top))
    return pairs


def test_batches_stay_bounded_when_a_symbol_holds_many_matching_lines(monkeypatch):
    import zslp.reporter

    pending, streamed = record_writing(monkeypatch)
    # One axiom symbol holds 2**16 lines, and "ab" matches every other one.
    # Lines "ab" and then 1,024 c's: no symbol holding two newlines is
    # stored, so the lines are queued one by one inside that symbol, each
    # as one slice of the stored "ab\n".
    cs = [(99, 99)] + [(257 + i, 257 + i) for i in range(9)]  # 266 = 1,024 c's
    unit = [(97, 98), *cs, (266, 10), (256, 10), (268, 267)]  # "ab\n" + c's + "\n"
    slp = Slp(doubled_units(unit, 15), [256 + len(unit) + 14])
    sink = RecordingSink()
    assert report_matching_lines(slp, compile_pattern("ab"), sink) == 2**15
    assert b"".join(sink.writes) == b"ab\n" * 2**15
    assert len(pending) >= 2**15 // zslp.reporter._BATCH
    assert max(len(items) for items in pending) <= zslp.reporter._BATCH + 2
    assert max(len(data) for data in sink.writes) <= CHUNK_SIZE
    assert streamed == []
    # Lines "ab" and "c": the symbols of up to 128 line pairs are stored,
    # and each gives its matching lines as one memo entry. Every piece
    # written is at most a stored expansion.
    slp = Slp(doubled_units([(97, 98), (256, 10), (99, 10), (257, 258)], 15), [274])
    pending.clear()
    sink = RecordingSink()
    assert report_matching_lines(slp, compile_pattern("ab"), sink) == 2**15
    assert b"".join(sink.writes) == b"ab\n" * 2**15
    memo_pieces = [item for items in pending for item in items if isinstance(item, bytes)]
    assert memo_pieces and max(map(len, memo_pieces)) <= SHORT_LIMIT
    assert max(len(items) for items in pending) <= zslp.reporter._BATCH + 2
    assert max(len(data) for data in sink.writes) <= CHUNK_SIZE
    assert streamed == []


def test_alternating_lines_step_the_automaton_only_on_the_axiom(monkeypatch):
    import zslp.reporter

    # Every matching line is followed by a non-matching one, so no symbol
    # spanning a newline has all of its lines matching; in the lines that
    # do not match, ".*" keeps a state alive to the end of the line.
    text = b"".join(
        b"alpha %d /p.%s\n" % (i % 89, b"png" if i % 2 else b"html")
        for i in range(20000)
    )
    slp = compress(text)
    pattern = "alpha .*html"
    expected = b"".join(line + b"\n" for line in oracle_lines(text, pattern))
    fsa = compile_pattern(pattern)
    calls = []
    real = zslp.reporter.union_rows

    def counted(mask, rel):
        calls.append(1)
        return real(mask, rel)

    monkeypatch.setattr(zslp.reporter, "union_rows", counted)
    lookups = {}
    for prune in (True, False):
        calls.clear()
        counted_slp = counting_slp(slp)
        assert report(counted_slp, fsa, prune=prune) == (10000, expected)
        assert len(calls) <= len(slp.axiom)
        lookups[prune] = counted_slp.rules.firsts.lookups
    assert lookups[True] < lookups[False] / 2


def alternating_log(lines):
    """Log lines where "GET" and "PUT" alternate, short enough that stored
    symbols hold several of them."""
    return b"".join(
        b"k%d %s /x/%d\n" % (i % 13, b"PUT" if i % 2 else b"GET", i % 7) for i in range(lines)
    )


def closed_lines_calls(monkeypatch):
    import zslp.reporter

    calls = []
    real = zslp.reporter._closed_lines

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(zslp.reporter, "_closed_lines", counted)
    return calls


def test_matches_alternating_inside_stored_symbols_come_from_the_memo(monkeypatch):
    calls = closed_lines_calls(monkeypatch)
    text = alternating_log(20000)
    slp = compress(text)
    expected = b"".join(line + b"\n" for line in oracle_lines(text, "GET"))
    fsa = compile_pattern("GET")
    lookups = {}
    for prune in (True, False):
        calls.clear()
        counted = counting_slp(slp)
        assert report(counted, fsa, prune=prune) == (10000, expected)
        lookups[prune] = counted.rules.firsts.lookups
        assert bool(calls) == prune  # the unpruned walk keeps no memo
    # A walk down to every matching line looks up at least one rule per
    # line; the memo builds each stored symbol's lines once per search.
    assert lookups[True] < 10000 / 10 < lookups[False]


def test_memo_is_built_without_recursion_on_a_comb_of_stored_symbols(monkeypatch):
    calls = closed_lines_calls(monkeypatch)
    # A left comb 1,019 rules high over lines "ab" and "b": each rule adds
    # one byte, so every symbol is stored (at most 1,020 bytes), and "a"
    # matches every other closed line of the top.
    body = b"ab\nb\n" * 204
    pairs = [(body[0], body[1])]
    for byte in body[2:]:
        pairs.append((256 + len(pairs) - 1, byte))
    slp = Slp(pairs, [256 + len(pairs) - 1])
    assert len(pairs) > 1000
    assert assert_reports_oracle(slp, "a") == b"ab\n" * 204
    assert calls == [256 + len(pairs) - 1]


def test_a_search_leaves_no_reference_cycle(monkeypatch):
    import gc

    calls = closed_lines_calls(monkeypatch)
    slp = compress(alternating_log(2000))
    fsa = compile_pattern("GET")
    gc.collect()
    gc.disable()
    try:
        assert report(slp, fsa)[0] == 1000
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert calls


def test_prose_openers_are_cut_from_their_bytes():
    # On English-like text every symbol that holds a newline is stored, so
    # search cuts each opener's matching lines from its bytes and the walk
    # descends no rule.
    text = _english_like(16384, random.Random(20260809))
    slp = compress(text)
    for pattern in ("the", "river", "I .* you"):
        expected = oracle_lines(text, pattern)
        counted = counting_slp(slp)
        assert report(counted, compile_pattern(pattern)) == (
            len(expected),
            b"".join(line + b"\n" for line in expected),
        )
        assert expected, pattern
        assert counted.rules.firsts.lookups == 0, pattern
