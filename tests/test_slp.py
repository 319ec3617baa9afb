import copy
import io
import pickle
import random
import sys
import threading
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DOUBLING_PAIRS,
    DOUBLING_TOP,
    EXAMPLE_PAIRS,
    EXAMPLE_TEXT,
    random_grammar,
    raw_zslp,
)
from zslp.automaton import compile_pattern
from zslp.engine import collect_stats, contains_match, count_matching_lines, run_count
from zslp.oracle import oracle_count
from zslp.repair import compress
from zslp.reporter import report_matching_lines
import zslp.slp
from zslp.slp import (
    CHUNK_SIZE,
    FIRST_VARIABLE,
    MAX_INPUT_BYTES,
    SHORT_BUDGET,
    SHORT_LIMIT,
    BadMagicError,
    InvalidGrammarError,
    Slp,
    SlpFormatError,
    TruncatedStreamError,
    ZslpReader,
    _checked_slp,
    decode_slp,
    encode_slp,
    expand,
    iter_expand,
)


class IndexOnly:
    """Not an int, though ``array`` would store it: it has ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "rules, axiom, message",
    [
        (((257, 97),), (256,), "rule 1 references undefined/later symbol 257"),
        ((), (), "empty axiom"),
        ((), (300,), "axiom position 0 references undefined symbol 300"),
        (((97, 98), (97, 98, 99)), (257,), "rule 2 is not a pair of integer symbol ids"),
        (((97,),), (97,), "rule 1 is not a pair of integer symbol ids"),
        ((97,), (97,), "rule 1 is not a pair of integer symbol ids"),
        (((97.0, 98),), (256,), "rule 1 is not a pair of integer symbol ids"),
        (("ab",), (256,), "rule 1 is not a pair of integer symbol ids"),
        (((97, 98),), (256, 98.0), "axiom position 1 is not an integer symbol id"),
        (((97, 98), (97, 98, 99), (97,)), (258,), "rule 2 is not a pair of integer symbol ids"),
        (((97, 98),), ("a", 256.0), "axiom position 0 is not an integer symbol id"),
        (((IndexOnly(97), 98),), (256,), "rule 1 is not a pair of integer symbol ids"),
        (((97, 98),), (IndexOnly(256),), "axiom position 0 is not an integer symbol id"),
        (((97, -1),), (256.0,), "axiom position 0 is not an integer symbol id"),
        ((iter((97, 98)),), (256,), "rule 1 is not a pair of integer symbol ids"),
    ],
    ids=[
        "forward-reference",
        "empty-axiom",
        "undefined-axiom-symbol",
        "rule-of-three-ids",
        "rule-of-one-id",
        "rule-not-a-sequence",
        "float-rule-id",
        "str-rule",
        "float-axiom-id",
        "first-of-many-rules",
        "first-of-many-axiom-entries",
        "index-only-rule-id",
        "index-only-axiom-id",
        "shape-before-bad-id",
        "rule-without-length",
    ],
)
def test_invalid_grammar_rejected_when_built(rules, axiom, message):
    with pytest.raises(InvalidGrammarError) as info:
        Slp(rules, axiom)
    assert str(info.value) == message


def test_validate_accepts_simple_grammar():
    slp = Slp([(97, 98)], [256, 256])
    assert tuple(slp.rules) == ((97, 98),) and tuple(slp.axiom) == (256, 256)
    assert slp == Slp(((97, 98),), (256, 256))


def test_slp_is_immutable_and_survives_copy_and_pickle():
    slp = Slp([(97, 98)], [256, 256])
    for field in ("rules", "axiom"):
        with pytest.raises(AttributeError):
            setattr(slp, field, ())
    # The id arrays are seen read-only, and the rules' views cannot be swapped.
    for ids in (slp.rules.firsts, slp.rules.seconds, slp.axiom):
        with pytest.raises(TypeError):
            ids[0] = 300
    for field in ("firsts", "seconds"):
        with pytest.raises(AttributeError):
            setattr(slp.rules, field, array("H", [300]))
    assert tuple(slp.rules) == ((97, 98),) and tuple(slp.axiom) == (256, 256)
    assert copy.copy(slp) == slp
    assert pickle.loads(pickle.dumps(slp)) == slp
    assert slp.short_expansions is slp.short_expansions
    # Copy and pickle rebuild through the check: an unchecked bad grammar
    # does not survive them.
    bad = _checked_slp(array("H", [257]), array("H", [97]), array("H", [256]))
    for rebuild in (copy.copy, lambda slp: pickle.loads(pickle.dumps(slp))):
        with pytest.raises(InvalidGrammarError, match="^rule 1 references undefined/later symbol 257$"):
            rebuild(bad)


def test_slp_copies_its_input_into_arrays():
    # List pairs are copied into id arrays, so the Slp equals and hashes
    # like one built from tuples, also like one whose arrays hold 4-byte
    # ids, and a later change to the caller's lists does not reach it.
    pairs = [[97, 98], [256, 99]]
    slp = Slp(pairs, [257])
    assert slp == Slp([(97, 98), (256, 99)], [257])
    assert hash(slp) == hash(Slp([(97, 98), (256, 99)], [257]))
    wide = _checked_slp(*(array("I", ids) for ids in ([97, 256], [98, 99], [257])))
    assert slp == wide and hash(slp) == hash(wide)
    assert slp != Slp([(97, 98), (256, 98)], [257]) != Slp([(97, 98), (256, 99)], [257, 97])
    assert type(slp.rules[0]) is tuple and slp.rules[0] == (97, 98)
    assert slp.rules.firsts.format == slp.axiom.format == "H"
    pairs[0][0] = 300
    assert tuple(slp.rules) == ((97, 98), (256, 99)) and expand(slp) == b"abc"


def test_slp_rebuilt_by_namedtuple_methods_is_checked():
    slp = Slp([(97, 98)], [256, 256])
    with pytest.raises(InvalidGrammarError, match="^empty axiom$"):
        slp._replace(axiom=())
    with pytest.raises(InvalidGrammarError, match="^empty axiom$"):
        Slp._make(((), ()))
    with pytest.raises(InvalidGrammarError, match="^rule 1 references undefined/later symbol 257$"):
        slp._replace(rules=((257, 97), (97, 98)))
    assert slp._replace(axiom=(98, 256)) == Slp([(97, 98)], [98, 256])


def test_validate_rejects_forward_reference():
    # A rule may not reference itself or a negative id either.
    with pytest.raises(InvalidGrammarError) as info:
        Slp(((97, 98), (257, -1)), (256,))
    assert str(info.value) == (
        "rule 2 references undefined/later symbol 257; "
        "rule 2 references undefined/later symbol -1"
    )


def test_validate_rejects_empty_axiom():
    # Every violation is reported, in one error.
    with pytest.raises(InvalidGrammarError) as info:
        Slp(((300, 97),), ())
    assert str(info.value) == (
        "rule 1 references undefined/later symbol 300; empty axiom"
    )


def test_validate_rejects_undefined_axiom_symbol():
    # One rule defines 256 only; 257 is one past the last defined id.
    with pytest.raises(InvalidGrammarError, match="axiom position 1 .* symbol 257"):
        Slp(((97, 98),), (256, 257))
    with pytest.raises(InvalidGrammarError, match="undefined symbol -1"):
        Slp((), (-1,))


def test_fault_message_names_three_violations_then_counts():
    with pytest.raises(InvalidGrammarError) as info:
        Slp(((300, 301), (97, 98)), (-1, 999))
    assert str(info.value) == (
        "rule 1 references undefined/later symbol 300; "
        "rule 1 references undefined/later symbol 301; "
        "axiom position 0 references undefined symbol -1; and 1 more"
    )


# Terminals and the first few variable ids, so that some grammars are valid
# and others name their own, a later or an undefined symbol.
SYMBOL_IDS = st.integers(0, 263)


def assert_reader_agrees(pairs, axiom, width=2):
    """The reader decodes the stream to the Slp the constructor builds, or
    refuses it with the constructor's message."""
    data = raw_zslp(pairs, axiom, width)
    try:
        built = Slp(pairs, axiom)
    except InvalidGrammarError as exc:
        with pytest.raises(SlpFormatError) as info:
            decode_slp(data)
        assert str(info.value) == str(exc)
        return
    decoded = decode_slp(data)
    assert decoded == built and hash(decoded) == hash(built)
    assert expand(decoded) == expand(built)
    assert decoded.short_expansions == built.short_expansions


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(SYMBOL_IDS, SYMBOL_IDS), max_size=6),
    st.lists(SYMBOL_IDS, max_size=6),
    st.sampled_from([2, 4]),
)
def test_reader_and_constructor_agree(pairs, axiom, width):
    assert_reader_agrees(pairs, axiom, width)


def _ids_near(bound, width):
    """Ids just below, at and past ``bound``, and ids that pass it only in
    a byte above its two lowest."""
    near = [bound - 1, bound, bound + 255]
    if width == 2:
        return near + [0xFFFF]
    return near + [bound - 1 + (1 << 16), bound - 1 + (1 << 24), 0xFFFFFFFF]


# Bounds 256 + p whose low byte is 0 (p = 0, 256) or 255 (p = 255, 511),
# and one past 16 bits (65,537), where an id that is below the bound in its
# third byte but ties it in the second is still below it.
@pytest.mark.parametrize(
    "width, rule_count",
    [(width, p) for width in (2, 4) for p in (0, 255, 256, 511)] + [(4, 65_281)],
)
def test_reader_bound_check_is_exact(width, rule_count, monkeypatch):
    # The reader checks ids on their bytes, in big-int lanes against the
    # bound. Each id goes once in the axiom, whose bound is 256 + p, and
    # once in an extra rule p, whose bound is also 256 + p; beside it sit
    # the bound's predecessor, which ties it, and 97.
    pairs = [(97, 98)] * rule_count
    bound = FIRST_VARIABLE + rule_count
    for sym in _ids_near(bound, width):
        assert_reader_agrees(pairs, [bound - 1, sym, 97], width)
        assert_reader_agrees(pairs + [(bound - 1, sym)], [97], width)
        # One lane of two ids per block: the id is checked in a second,
        # partial block.
        with monkeypatch.context() as patch:
            patch.setattr(zslp.slp, "_LANE_BLOCK", 1)
            assert_reader_agrees(pairs, [bound - 1, 97, sym], width)


def _lane_edges(rule_count, block):
    """The first and the last rule of the last full block and of the
    partial block after it."""
    full = rule_count // block * block
    return sorted({full - block, full - 1, full, rule_count - 1})


# Rule counts that leave a partial last block of 1 or 2 rules, the 65,281
# rules whose ids are 4 bytes wide in every stream, and the real block.
@pytest.mark.parametrize(
    "width, rule_count, block",
    [(width, p, block) for width in (2, 4) for p, block in ((5, 2), (8, 3), (2_500, 1_024))]
    + [(4, 65_281, 2)],
)
def test_rule_check_block_edges(width, rule_count, block, monkeypatch):
    # The rule check compares ids in big-int lanes, a block of rules at a
    # time. At each lane on a block's edge, in firsts and in seconds, rule
    # i's id 255 + i passes; 256 + i, ids past it in a higher byte only,
    # and the width's largest id fail, with the message naming that id.
    # An Slp's ids are 2 bytes wide below 65,281 rules; there the wider ids
    # do not fit its arrays, which is the same fault.
    monkeypatch.setattr(zslp.slp, "_LANE_BLOCK", block)
    largest = (1 << 8 * width) - 1
    valid = raw_zslp([(97, 98)] * rule_count, [97], width)
    first_id = len(valid) - width * (2 * rule_count + 1)
    for i in _lane_edges(rule_count, block):
        bound = FIRST_VARIABLE + i
        refused = [bound, bound + 255, bound - 1 + (1 << 16), bound - 1 + (1 << 24), largest]
        for side in (0, 1):
            for sym in [bound - 1] + sorted({s for s in refused if s <= largest}):
                pair = [97, 98]
                pair[side] = sym
                pairs = [(97, 98)] * rule_count
                pairs[i] = tuple(pair)
                data = bytearray(valid)
                at = first_id + width * (2 * i + side)
                data[at : at + width] = sym.to_bytes(width, "little")
                if sym < bound:
                    assert decode_slp(data) == Slp(pairs, [97])
                    continue
                message = f"rule {i + 1} references undefined/later symbol {sym}"
                with pytest.raises(SlpFormatError) as info:
                    decode_slp(data)
                assert str(info.value) == message
                with pytest.raises(InvalidGrammarError) as info:
                    Slp(pairs, [97])
                assert str(info.value) == message


def little_endian(ids: array) -> array:
    """The id array stored little-endian, as a stream holds it and the lane check reads it."""
    if sys.byteorder == "big":
        ids.byteswap()
    return ids


# Offsets of an id from its stop (256 + i for rule i, 256 + p for the
# axiom): below it, which passes, and at or past it, which fails.
BELOW_BOUND = st.sampled_from([-1, -2, -256])
PAST_BOUND = st.sampled_from([0, 1, 255, 1 << 16, 1 << 24])


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 9), st.sampled_from([2, 4]), st.sampled_from([1, 2, 3]))
def test_rule_check_matches_a_per_id_loop(data, rule_count, width, block):
    # Rule ids near their bounds, at most two of them past, against a plain
    # loop over the ids, with blocks of 1-3 rules so that a grammar spans
    # several. The reader and Slp share the lane check, so this test, not
    # their agreement, is what checks it.
    ids = [max(0, FIRST_VARIABLE + k // 2 + data.draw(BELOW_BOUND)) for k in range(2 * rule_count)]
    if ids:
        for k in data.draw(st.lists(st.integers(0, len(ids) - 1), max_size=2)):
            ids[k] = min(FIRST_VARIABLE + k // 2 + data.draw(PAST_BOUND), (1 << 8 * width) - 1)
    forward = any(sym >= FIRST_VARIABLE + k // 2 for k, sym in enumerate(ids))
    pairs = list(zip(ids[0::2], ids[1::2]))
    stream = raw_zslp(pairs, [97], width)
    rule_ids = little_endian(array(zslp.slp._ID_TYPECODES[width], ids))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zslp.slp, "_LANE_BLOCK", block)
        at = zslp.slp._first_above(rule_ids, FIRST_VARIABLE - 1, 1)
        assert (at is not None) == forward
        if forward:
            with pytest.raises(SlpFormatError):
                decode_slp(stream)
            with pytest.raises(InvalidGrammarError):
                Slp(pairs, [97])
        else:
            assert decode_slp(stream) == Slp(pairs, [97])


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.sampled_from([0, 255, 256, 511, 65_281]),
    st.integers(0, 9),
    st.sampled_from([2, 4]),
    st.sampled_from([1, 2, 3]),
)
def test_axiom_check_matches_a_per_id_loop(data, rule_count, length, width, block):
    # Axiom ids near the bound 256 + p, at most two of them past, against a
    # plain loop; odd lengths leave half a lane.
    stop = FIRST_VARIABLE + rule_count
    largest = (1 << 8 * width) - 1
    ids = [min(max(0, stop + data.draw(BELOW_BOUND)), largest) for _ in range(length)]
    if ids:
        for k in data.draw(st.lists(st.integers(0, length - 1), max_size=2)):
            ids[k] = min(stop + data.draw(PAST_BOUND), largest)
    past = any(sym >= stop for sym in ids)
    axiom = little_endian(array(zslp.slp._ID_TYPECODES[width], ids))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zslp.slp, "_LANE_BLOCK", block)
        assert (zslp.slp._first_above(axiom, stop - 1, 0) is not None) == past


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.integers(0, 40),
    st.sampled_from([2, 4]),
    st.sampled_from([1, 2, 3, 1024]),
    st.sampled_from([0, 1]),
)
def test_first_bad_block_is_found(data, length, width, block, rise):
    # Where the lane check reports the first id above its bound: the first
    # id of the block that holds it. A block has ``block`` lanes of two ids,
    # or, for fewer ids, the power of two that holds them.
    bound = FIRST_VARIABLE + 40
    stops = [bound + rise * (k // 2) for k in range(length)]
    ids = [max(0, stop + data.draw(BELOW_BOUND)) for stop in stops]
    for k in data.draw(st.lists(st.integers(0, max(length - 1, 0)), max_size=3)) if ids else ():
        ids[k] = min(stops[k] + data.draw(PAST_BOUND), (1 << 8 * width) - 1)
    bad = [k for k, sym in enumerate(ids) if sym > stops[k]]
    lanes = min(block, 1 << max((length + 1) // 2 - 1, 0).bit_length())
    expected = bad[0] // (2 * lanes) * 2 * lanes if bad else None
    array_ids = little_endian(array(zslp.slp._ID_TYPECODES[width], ids))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zslp.slp, "_LANE_BLOCK", block)
        assert zslp.slp._first_above(array_ids, bound, rise) == expected


def test_lane_ints_are_kept_for_powers_of_two_only():
    zslp.slp._lanes.cache_clear()
    for width in (2, 4):
        for length in range(5000):
            ids = little_endian(array(zslp.slp._ID_TYPECODES[width], [97]) * length)
            assert zslp.slp._first_above(ids, FIRST_VARIABLE - 1, 1) is None
    # 1, 2, 4, ..., 1,024 lanes, per width.
    assert zslp.slp._lanes.cache_info().currsize == 2 * 11


@pytest.mark.parametrize("block", [1, 3, 1024])
def test_reader_names_faults_from_the_first_bad_block(block, monkeypatch):
    # Faults in several blocks of the rules and of the axiom, after clean
    # blocks: the reader and the constructor both start their search and
    # their count at the first bad block, and name the same faults, "and N
    # more" included.
    monkeypatch.setattr(zslp.slp, "_LANE_BLOCK", block)
    starts = []
    fault_message = zslp.slp._fault_message

    def recorded(firsts, seconds, axiom, *start):
        starts.append(start)
        return fault_message(firsts, seconds, axiom, *start)

    monkeypatch.setattr(zslp.slp, "_fault_message", recorded)
    rule_count = 3000
    pairs = [(97, 98)] * rule_count
    for i, side in ((1500, 1), (1501, 0), (2999, 0), (2999, 1)):
        pair = list(pairs[i])
        pair[side] = FIRST_VARIABLE + i + side
        pairs[i] = tuple(pair)
    # Rule 1501's second id is id 3,001, in the block of ``block`` rules
    # from rule 1500 // block * block; axiom id 4,000 is in the block of
    # 2 * block ids holding it.
    rule_start = 1500 // block * block
    for axiom, axiom_start in (
        ([97] * 5000, 5000),
        ([97] * 4000 + [FIRST_VARIABLE + rule_count] * 3 + [97], 4000 // (2 * block) * 2 * block),
    ):
        starts.clear()
        with pytest.raises(InvalidGrammarError) as built:
            Slp(pairs, axiom)
        with pytest.raises(SlpFormatError) as read:
            decode_slp(raw_zslp(pairs, axiom))
        assert str(read.value) == str(built.value)
        assert starts == [(rule_start, axiom_start)] * 2
    assert str(read.value) == (
        "rule 1501 references undefined/later symbol 1757; "
        "rule 1502 references undefined/later symbol 1757; "
        "rule 3000 references undefined/later symbol 3255; and 4 more"
    )
    # Clean rules and a bad axiom.
    axiom = [97] * 4000 + [FIRST_VARIABLE + 5] + [97]
    with pytest.raises(SlpFormatError) as read:
        decode_slp(raw_zslp([(97, 98)] * 5, axiom))
    assert str(read.value) == "axiom position 4000 references undefined symbol 261"


def test_expand_terminal(example_slp):
    assert expand(example_slp, (97,)) == b"a"


def test_expand_fixture_subtrees(example_slp):
    assert expand(example_slp, (258,)) == b"ba\na"
    assert expand(example_slp, (262,)) == b"b\naba"
    assert expand(example_slp) == EXAMPLE_TEXT


def test_expand_fixture_with_top_rule():
    pairs = EXAMPLE_PAIRS + [(258, 262)]
    slp = Slp(pairs, [263])
    assert expand(slp, (263,)) == b"ba\nab\naba"


def test_expand_simple_cases():
    slp = Slp([(97, 98)], [256, 256])
    assert expand(slp, (256,)) == b"ab"
    assert expand(slp) == b"abab"
    assert expand(Slp([], [97])) == b"a"


def test_expand_undefined_symbol_errors(example_slp):
    with pytest.raises(InvalidGrammarError):
        expand(example_slp, (5000,))
    for symbols in ([97, 263], [-1], [256, -300]):
        with pytest.raises(InvalidGrammarError, match="undefined symbol"):
            expand(example_slp, symbols)


def test_expand_invalid_grammar_errors():
    # A rule that references itself would make expansion loop forever; such
    # a grammar is rejected when built, so expand never sees it.
    with pytest.raises(InvalidGrammarError, match="undefined/later symbol 256"):
        expand(Slp(((256, 97),), (256,)))


def test_concatenation_homomorphism(example_slp):
    for left, (first, second) in enumerate(example_slp.rules, 256):
        assert expand(example_slp, (left,)) == expand(
            example_slp, (first,)
        ) + expand(example_slp, (second,))


def test_dense_numbering(example_slp):
    # Rule i defines symbol 256 + i, so exactly the ids below 256 + p exist.
    top = 256 + len(example_slp.rules)
    assert all(expand(example_slp, (sym,)) for sym in range(top))
    with pytest.raises(InvalidGrammarError):
        expand(example_slp, (top,))


def test_iter_expand_matches_expand():
    slp = Slp(DOUBLING_PAIRS, [DOUBLING_TOP, 97])  # 98,305 bytes
    chunks = list(iter_expand(slp))
    assert b"".join(chunks) == expand(slp) == b"ab\n" * 2**15 + b"a"
    assert [len(chunk) for chunk in chunks] == [65536, 98305 - 65536]
    assert list(iter_expand(slp, ())) == [] and expand(slp, (257, 97)) == b"ab\na"


def test_iter_expand_walks_its_symbols_in_place():
    # Each axiom symbol derives "a\n", so the first chunk reads 32,768 of
    # them; a copy of the whole axiom would take 8 MB.
    slp = Slp([(97, 10)], [256] * 1_000_000)
    tracemalloc.start()
    try:
        first = next(iter_expand(slp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == b"a\n" * (CHUNK_SIZE // 2)
    assert peak < 1 << 20


# Rule (97, 98), axiom 256 256: magic, version 2, p = 1, n = 2, width 2,
# then the ids 97 98 256 256 as little-endian 16-bit words.
GOLDEN = bytes.fromhex("5a534c50" "02" "01" "02" "02" "6100" "6200" "0001" "0001")


class RecordingStream(io.BytesIO):
    """A stream that records the size of every read."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


def test_encode_golden_bytes():
    slp = Slp([(97, 98)], [256, 256])
    assert encode_slp(slp) == GOLDEN
    # Little-endian on every host: 256 is stored low byte first.
    assert GOLDEN[-2:] == (256).to_bytes(2, "little") == b"\x00\x01"


def test_decode_golden_bytes():
    slp = decode_slp(GOLDEN)
    assert slp == Slp([(97, 98)], [256, 256])


def test_roundtrip_fixture(example_slp):
    assert decode_slp(encode_slp(example_slp)) == example_slp


def test_decode_bad_magic():
    with pytest.raises(BadMagicError, match="bad magic"):
        decode_slp(b"XXXX" + GOLDEN[4:])


def test_decode_truncated():
    cuts = {
        0: "inside the magic",
        3: "inside the magic",
        4: "before the version byte",
        5: "inside a varint",
        7: "before the id width byte",
        len(GOLDEN) - 1: "inside the symbol ids",
    }
    for cut, where in cuts.items():
        with pytest.raises(TruncatedStreamError, match=f"^stream ended {where}$"):
            decode_slp(GOLDEN[:cut])


def test_decode_bad_version():
    # Version 1, which wrote every id as a varint, is no longer read.
    for version in (1, 9):
        data = bytearray(GOLDEN)
        data[4] = version
        with pytest.raises(SlpFormatError, match=f"^unsupported version {version}$"):
            decode_slp(bytes(data))


def test_decode_rejects_forward_reference():
    # one rule, (300, 97), and the axiom 256
    bad = b"ZSLP\x02\x01\x01\x02" + bytes([0x2C, 0x01, 0x61, 0x00, 0x00, 0x01])
    with pytest.raises(SlpFormatError, match="undefined/later"):
        decode_slp(bad)


def test_decode_rejects_empty_axiom():
    bad = b"ZSLP\x02\x00\x00\x02"
    with pytest.raises(SlpFormatError, match="empty axiom"):
        decode_slp(bad)


def test_decode_rejects_trailing_data():
    with pytest.raises(SlpFormatError, match="trailing"):
        decode_slp(GOLDEN + b"\x00")
    # The reader reads the stated length and one byte more, not the rest.
    packed = raw_zslp([(97, 98)], [256] * 20)
    assert len(packed) == 52
    stream = RecordingStream(packed + b"JUNK" * 100)
    with pytest.raises(SlpFormatError, match="^trailing data after axiom$"):
        ZslpReader(stream)
    assert stream.tell() == len(packed) + 1


def test_decode_rejects_overlong_varint():
    with pytest.raises(SlpFormatError, match="varint too long"):
        decode_slp(b"ZSLP\x02" + b"\x80" * 12)


@pytest.mark.parametrize("width", [0, 1, 3, 8, 255])
def test_decode_rejects_other_id_widths(width):
    data = bytearray(GOLDEN)
    data[7] = width
    with pytest.raises(SlpFormatError, match=f"^unsupported id width {width}$"):
        decode_slp(bytes(data))


def test_huge_declared_length_fails_before_allocating():
    # The header declares 2**40 rules over a 10- or 1,000-byte body. It is
    # refused before any read past the longest header (26 bytes), so before
    # any symbol id is read.
    header = b"ZSLP\x02" + bytes([0x80] * 5 + [0x20]) + b"\x01\x02"
    for body in (10, 1000):
        stream = RecordingStream(header + b"\x61" * body)
        start = time.process_time()
        with pytest.raises(SlpFormatError) as info:
            ZslpReader(stream)
        assert time.process_time() - start < 1
        assert str(info.value) == (
            f"header states {2 * 2**40 + 1} symbol ids, over the {MAX_INPUT_BYTES}-id limit"
        )
        assert all(0 <= size for size in stream.sizes)
        assert sum(stream.sizes) <= 26 and stream.tell() <= 26


def test_stream_at_the_id_limit_decodes(monkeypatch):
    # With the limit at 7 ids, 2 rules and 3 axiom symbols decode, and one
    # axiom symbol more is refused before its ids are read.
    monkeypatch.setattr(zslp.slp, "MAX_INPUT_BYTES", 7)
    pairs = [(97, 98), (256, 10)]
    at_limit = raw_zslp(pairs, [257, 257, 256])
    assert expand(decode_slp(at_limit)) == b"ab\nab\nab"
    stream = RecordingStream(raw_zslp(pairs, [257, 257, 256, 97]))
    with pytest.raises(SlpFormatError, match="^header states 8 symbol ids, over the 7-id limit$"):
        ZslpReader(stream)
    assert sum(stream.sizes) <= 26


def _wide_grammar(rule_count: int) -> Slp:
    """Rule i joins an earlier rule (or "a") with a letter or a newline."""
    rules = [
        (256 + i // 2 - 1 if i >= 2 else 97, 10 if i % 5 == 0 else 97 + i % 26)
        for i in range(rule_count)
    ]
    return Slp(rules, [256 + rule_count - 1, 256, 256 + rule_count // 2])


@pytest.mark.parametrize("rule_count, width", [(65280, 2), (65281, 4)])
def test_id_width_follows_the_largest_id(rule_count, width):
    # 65,280 rules end at id 65,535, the last that fits 16 bits.
    slp = _wide_grammar(rule_count)
    data = encode_slp(slp)
    # magic, version, 3-byte varint p, 1-byte varint n, then the width byte
    assert data[9] == width
    assert len(data) == 10 + width * (2 * rule_count + 3)
    assert data[10 : 10 + width] == (97).to_bytes(width, "little")
    assert decode_slp(data) == slp
    fsa = compile_pattern("ab")
    reader = ZslpReader(io.BytesIO(data))
    total = run_count(reader.iter_rules(), reader.read_axiom, fsa)
    assert total == count_matching_lines(slp, fsa) == oracle_count(expand(slp), "ab")
    assert total > 0


def test_reader_streams_rules_in_order():
    # The reader's views are of data checked at construction: any order works.
    # read_axiom gives the id array it read; read_slp views the same arrays.
    reader = ZslpReader(io.BytesIO(GOLDEN))
    assert reader.read_axiom() == array("H", [256, 256])
    assert list(reader.iter_rules()) == [(97, 98)]
    assert reader.read_axiom() == array("H", [256, 256])
    slp = reader.read_slp()
    assert slp == Slp([(97, 98)], [256, 256])
    assert slp.axiom.obj is reader.read_axiom() and slp.axiom.readonly
    assert type(slp.rules.firsts.obj) is array and slp.rules.seconds.readonly


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=1, max_size=400))
def test_roundtrip_compressed_grammars(data):
    slp = compress(data)
    assert decode_slp(encode_slp(slp)) == slp


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_roundtrip_random_grammars(seed):
    slp = random_grammar(random.Random(seed))
    assert decode_slp(encode_slp(slp)) == slp


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_expand_deterministic(seed):
    slp = random_grammar(random.Random(seed))
    assert expand(slp) == expand(slp)
    assert len(expand(slp)) >= 1


def naive_expansion(slp, symbols) -> bytes:
    """Reference expansion by recursion over the rule pairs."""
    memo = {}

    def derive(sym):
        if sym < 256:
            return bytes((sym,))
        if sym not in memo:
            first, second = slp.rules[sym - 256]
            memo[sym] = derive(first) + derive(second)
        return memo[sym]

    return b"".join(derive(sym) for sym in symbols)


def check_expansion(slp, symbols):
    chunks = list(iter_expand(slp, symbols))
    assert b"".join(chunks) == naive_expansion(slp, symbols)
    assert all(len(chunk) == CHUNK_SIZE for chunk in chunks[:-1])
    assert all(0 < len(chunk) <= CHUNK_SIZE for chunk in chunks[-1:])
    return chunks


def grammar_with_long_rules(rng) -> Slp:
    """A random grammar topped by rules that derive more than SHORT_LIMIT bytes."""
    pairs = list(random_grammar(rng).rules)
    symbols = [97, 98, 10] + [256 + i for i in range(len(pairs))]
    length = dict.fromkeys(symbols[:3], 1)
    for sym, (first, second) in enumerate(pairs, 256):
        length[sym] = length[first] + length[second]
    while length[symbols[-1]] <= 4 * SHORT_LIMIT:
        first, second = rng.choice(symbols[-3:]), rng.choice(symbols)
        if rng.random() < 0.5:
            first, second = second, first
        pairs.append((first, second))
        symbols.append(256 + len(pairs) - 1)
        length[symbols[-1]] = length[first] + length[second]
    axiom = [rng.choice(symbols) for _ in range(rng.randrange(0, 4))] + [symbols[-1]]
    return Slp(pairs, axiom)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_iter_expand_matches_naive_expansion(seed, long_rules):
    # Rules over SHORT_LIMIT bytes are walked, the ones below them copied.
    rng = random.Random(seed)
    slp = grammar_with_long_rules(rng) if long_rules else random_grammar(rng)
    check_expansion(slp, slp.axiom)
    if long_rules:
        assert None in slp.short_expansions
    top = 256 + len(slp.rules)
    check_expansion(slp, [rng.randrange(top) for _ in range(rng.randrange(0, 12))])
    stored = [piece for piece in slp.short_expansions[256:] if piece]
    assert all(len(piece) <= SHORT_LIMIT for piece in stored)


def test_stored_pieces_split_at_chunk_boundary():
    # Symbol 257 + 8 derives 768 stored bytes; after a 1-byte prefix the
    # 86th such piece straddles the 65,536-byte boundary.
    slp = Slp(DOUBLING_PAIRS, [98, DOUBLING_TOP])
    assert slp.short_expansions[257 + 8] and not slp.short_expansions[257 + 9]
    chunks = check_expansion(slp, slp.axiom)
    assert [len(chunk) for chunk in chunks] == [65536, 98305 - 65536]


def test_blocks_of_stored_pieces_join_and_split_at_chunks():
    # Rules double "a" and "b" up to runs of SHORT_LIMIT bytes, which are
    # stored; a rule joining the two runs derives 2,048 bytes and is not.
    pairs = []
    runs = []
    for byte in b"ab":
        sym = byte
        for _ in range(10):
            pairs.append((sym, sym))
            sym = FIRST_VARIABLE + len(pairs) - 1
        runs.append(sym)
    a, b = runs
    pairs.append((a, b))
    long = FIRST_VARIABLE + len(pairs) - 1
    walked = [a] * 20 + [long] + [b] * 43  # 66,560 bytes
    joined = [b, a] * 32  # 65,536 bytes
    slp = Slp(pairs, [10] + [a] * 63 + joined + walked + joined + [97, 10])
    assert zslp.slp._BLOCK == CHUNK_SIZE // SHORT_LIMIT == 64
    assert len(slp.short_expansions[a]) == SHORT_LIMIT and slp.short_expansions[long] is None
    # Blocks of 64 axiom symbols: a newline and 63 runs, joined to 64,513
    # bytes; 64 runs, joined across the first chunk boundary; 64 symbols
    # with the unstored one in the middle, walked; 64 runs joined across
    # the fourth boundary; the last two bytes, joined. Without a split
    # after each join the last chunk would outgrow CHUNK_SIZE.
    chunks = check_expansion(slp, slp.axiom)
    assert [len(chunk) for chunk in chunks] == [CHUNK_SIZE] * 4 + [3]
    # A list of symbols, as a reporter batch passes it: 64,513 bytes
    # joined, 66,560 walked, 64 runs joined across the third boundary,
    # then two runs joined.
    batch = [10] + [b] * 31 + [a, b] * 16 + walked + [b] * 64 + [a, b]
    chunks = check_expansion(slp, batch)
    assert [len(chunk) for chunk in chunks] == [CHUNK_SIZE] * 3 + [2 * SHORT_LIMIT + 1]


def test_stored_bytes_stay_within_budget():
    # 72 distinct 512-byte runs, then every ordered pair of them: 5,184 rules
    # of SHORT_LIMIT bytes each, more than SHORT_BUDGET in total.
    pairs, runs = [], []
    for byte in range(33, 33 + 72):
        sym = byte
        for _ in range(9):
            pairs.append((sym, sym))
            sym = 256 + len(pairs) - 1
        runs.append(sym)
    tops = []
    for a in runs:
        for b in runs:
            pairs.append((a, b))
            tops.append(256 + len(pairs) - 1)
    assert len(tops) * SHORT_LIMIT > SHORT_BUDGET
    slp = Slp(pairs, tops)
    stored = [piece for piece in slp.short_expansions[256:] if piece]
    assert sum(map(len, stored)) <= SHORT_BUDGET
    assert max(map(len, stored)) == SHORT_LIMIT
    assert len(stored) < len(pairs)
    check_expansion(slp, slp.axiom)


def test_stored_budget_counts_each_piece_object():
    # Each stored piece is a bytes object: its header counts against the
    # budget as well as its bytes, so many two-byte pieces stop well before
    # SHORT_BUDGET // 2 of them.
    n = 200_000
    slp = Slp([(97, 10)] * n, [256, 255 + n])
    stored = [piece for piece in slp.short_expansions[256:] if piece]
    assert n * sys.getsizeof(b"a\n") > SHORT_BUDGET
    assert sum(map(sys.getsizeof, stored)) <= SHORT_BUDGET
    assert 0 < len(stored) < n
    assert len(slp.short_expansions) == 256 + n
    check_expansion(slp, [256, 255 + n, 256 + len(stored) - 1, 256 + len(stored)])


def test_counting_and_silent_search_build_no_table():
    slp = compress(b"alpha beta\ngamma delta\n" * 50)
    fsa = compile_pattern("zebra")
    assert count_matching_lines(slp, fsa) == 0
    assert not contains_match(slp, fsa)
    collect_stats(slp, fsa)
    assert report_matching_lines(slp, fsa, io.BytesIO()) == 0
    assert "short_expansions" not in vars(slp)
    assert report_matching_lines(slp, compile_pattern("gamma"), io.BytesIO()) == 50
    assert "short_expansions" in vars(slp)


def test_concurrent_first_expansions_agree():
    # Four threads make the first expansions of one fresh Slp together.
    slp = Slp(DOUBLING_PAIRS, [98, DOUBLING_TOP])
    start = threading.Barrier(4, timeout=10)
    results = []

    def expand_after_start():
        start.wait()
        results.append(expand(slp))

    threads = [threading.Thread(target=expand_after_start) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [naive_expansion(slp, slp.axiom)] * 4
