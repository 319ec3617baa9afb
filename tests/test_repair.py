import hashlib
import random
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _english_like, _log_like

import zslp.repair
from zslp.repair import compress
from zslp.slp import expand


def test_compress_abab():
    slp = compress(b"abab")
    assert tuple(slp.rules) == ((97, 98),)
    assert tuple(slp.axiom) == (256, 256)


def test_compress_no_repeats():
    slp = compress(b"abc")
    assert tuple(slp.rules) == ()
    assert tuple(slp.axiom) == (97, 98, 99)


def test_compress_abcabc_tie_breaking():
    # "ab" and "bc" both occur twice and are both 0 high; "ab" occurs
    # first, so it wins.
    slp = compress(b"abcabc")
    assert tuple(slp.rules) == ((97, 98), (256, 99))
    assert tuple(slp.axiom) == (257, 257)


def test_compress_prefers_the_lower_pair():
    # After "ab" -> 256, the pairs (256, c) and (c, d) both occur twice;
    # (256, c) is leftmost but 1 high, so (c, d) wins and the grammar is
    # 2 high, not a comb of 3.
    slp = compress(b"abcdabcd")
    assert tuple(slp.rules) == ((97, 98), (99, 100), (256, 257))
    assert tuple(slp.axiom) == (258, 258)


def test_compress_runs_count_nonoverlapping():
    slp = compress(b"aaaa")
    assert tuple(slp.rules) == ((97, 97),)
    assert tuple(slp.axiom) == (256, 256)
    # "aaa" holds only one non-overlapping "aa": below the threshold.
    slp = compress(b"aaa")
    assert tuple(slp.rules) == ()
    assert tuple(slp.axiom) == (97, 97, 97)


def test_compress_single_byte():
    slp = compress(b"a")
    assert tuple(slp.rules) == ()
    assert tuple(slp.axiom) == (97,)


def test_compress_empty_rejected():
    with pytest.raises(ValueError):
        compress(b"")


def test_compress_rejects_input_over_the_limit(monkeypatch):
    monkeypatch.setattr(zslp.repair, "MAX_INPUT_BYTES", 8)
    assert expand(compress(b"abababab")) == b"abababab"
    with pytest.raises(ValueError, match="exceeds 8 bytes"):
        compress(b"ababababa")


def test_compress_is_deterministic():
    data = b"the cat sat on the mat; the cat sat on the hat\n" * 7
    assert compress(data) == compress(data)


def nonoverlap_pair_counts(symbols):
    """Greedy left-to-right non-overlapping pair frequencies."""
    counts = {}
    last_counted_at = {}
    for i in range(len(symbols) - 1):
        pair = (symbols[i], symbols[i + 1])
        if last_counted_at.get(pair) == i - 1:
            continue  # would overlap the occurrence just counted (equal run)
        counts[pair] = counts.get(pair, 0) + 1
        last_counted_at[pair] = i
    return counts


def reference_repair(data: bytes) -> tuple[list, list]:
    """RePair by brute force: recount every pair after every replacement.

    The winner is the pair with the most non-overlapping occurrences, ties
    going to the lower pair (the taller of its two symbols, a byte being 0
    high and a rule one more than its taller part) and then to the pair
    whose first occurrence is leftmost; its occurrences are then replaced
    greedily from the left.
    """
    seq = list(data)
    rules = []
    height = [0] * 256
    while True:
        counts = nonoverlap_pair_counts(seq)
        first_at = {}
        for i in range(len(seq) - 1):
            first_at.setdefault((seq[i], seq[i + 1]), i)
        frequent = [pair for pair, count in counts.items() if count >= 2]
        if not frequent:
            return rules, seq

        def rank(pair):
            return counts[pair], -max(height[pair[0]], height[pair[1]]), -first_at[pair]

        best = max(frequent, key=rank)
        new_sym = 256 + len(rules)
        rules.append(best)
        height.append(1 + max(height[best[0]], height[best[1]]))
        out = []
        i = 0
        while i < len(seq):
            if i + 1 < len(seq) and (seq[i], seq[i + 1]) == best:
                out.append(new_sym)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="ab\n", min_size=1, max_size=300),
        st.text(alphabet="a", min_size=1, max_size=64),
        st.text(alphabet="abc", min_size=1, max_size=300),
    )
)
@example("abcabc")
@example("aaaaaaa")
@example("ab\nab\nab\nab")
def test_compress_matches_reference_repair(text):
    data = text.encode()
    rules, axiom = reference_repair(data)
    slp = compress(data)
    assert tuple(slp.rules) == tuple(rules)
    assert tuple(slp.axiom) == tuple(axiom)



# Longer texts over a few letters, spaces and newlines give up to ~120 rules,
# with stale heap snapshots and pairs unlisted by their losses. The examples are
# the sweep's neighbour cases: adjacent occurrences of an unequal pair, which
# form (new, new) and lose (b, a), with and without outer neighbours; an
# occurrence ending at the text's end; odd and even runs between neighbours.
@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="abcd \n", min_size=200, max_size=1500))
@example("abababab")
@example("xababy")
@example("abzab")
@example("baaab")
@example("baaaab")
def test_compress_matches_reference_repair_on_longer_texts(text):
    data = text.encode()
    rules, axiom = reference_repair(data)
    slp = compress(data)
    assert tuple(slp.rules) == tuple(rules)
    assert tuple(slp.axiom) == tuple(axiom)

# SHA-256 of the version-1 ZSLP bytes of compress(corpus) for ~64 KB seeded
# corpora. The tie-break (count, then height, then first position) fixes the
# output, so no change to RePair's bookkeeping may move it.
PINNED_DIGESTS = {
    "log": "fc770262319a16963cec9aa2f969805681fad6a99a711f4cf1613a081e0b45ad",
    "english": "0f81177f2edcd532bd5181352602cbf05eca7ba651b808bf9b7f2893d30be433",
}


def _version_1_bytes(slp) -> bytes:
    """ZSLP version 1, which the digests were recorded in: every count and id a varint."""
    values = [len(slp.rules), *chain.from_iterable(slp.rules), len(slp.axiom), *slp.axiom]
    out = bytearray(b"ZSLP\x01")
    for value in values:
        while value >= 0x80:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


@pytest.mark.parametrize("corpus", sorted(PINNED_DIGESTS))
def test_compress_output_is_pinned(corpus):
    if corpus == "log":
        text = _log_like(65536)
    else:
        text = _english_like(65536, random.Random(20260809))
    digest = hashlib.sha256(_version_1_bytes(compress(text))).hexdigest()
    assert digest == PINNED_DIGESTS[corpus]


def test_final_axiom_has_no_frequent_pair():
    for data in (b"abab" * 9, b"mississippi river mississippi", bytes(range(50)) * 3):
        slp = compress(data)
        counts = nonoverlap_pair_counts(slp.axiom)
        assert all(c < 2 for c in counts.values()), counts


def test_replacement_shrinks_by_count():
    # A rule's uses in the derivation tree are the occurrences it replaced,
    # and each replacement shortens the sequence by one symbol.
    for text in (b"banana bandana banana bandana band", b"a" * 10, b"ab\n" * 40):
        slp = compress(text)
        assert slp.rules, "expected at least one replacement"
        uses = [0] * (256 + len(slp.rules))
        for sym in slp.axiom:
            uses[sym] += 1
        for left in range(255 + len(slp.rules), 255, -1):
            for child in slp.rules[left - 256]:
                uses[child] += uses[left]
        assert all(count >= 2 for count in uses[256:])
        assert len(slp.axiom) == len(text) - sum(uses[256:])


def test_rules_in_creation_order():
    slp = compress(b"abcabcXabab")
    for left, (first, second) in enumerate(slp.rules, 256):
        assert first < left and second < left


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=1, max_size=600))
@example(b"\x00\x0a\x00\x0a\x00\x0a")
@example(b"aaaaaaaaaa")
@example(b"\n\n\n\n")
def test_roundtrip_arbitrary_bytes(data):
    assert expand(compress(data)) == data


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab\n", min_size=1, max_size=200))
def test_roundtrip_line_texts(text):
    data = text.encode()
    assert expand(compress(data)) == data
