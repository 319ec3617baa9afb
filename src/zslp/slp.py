"""Straight-line programs with multi-symbol axioms, plus their binary format.

A grammar is an ordered sequence of binary rules, each a ``(first, second)``
pair of symbol ids. Ids 0..255 denote the terminal bytes; id 256+i denotes
the variable defined by rule i (dense numbering, so symbol tables can be
plain arrays). Every right-hand symbol of a rule must be a terminal or an
earlier variable, which makes the rule list topologically ordered by
construction. The axiom is a non-empty symbol sequence; the text the
grammar derives is the concatenation of the axiom symbols' expansions. A
length-1 axiom is allowed so that one-byte inputs have a representation.

A grammar is held as three id arrays, from the stream to every consumer:
the rules' firsts, the rules' seconds and the axiom. ``Slp`` is a
namedtuple ``(rules, axiom)`` that sees them read-only: ``rules`` is a
``Rules``, a sequence of pairs over the two rule arrays, and ``axiom`` a
read-only memoryview. One function, ``_checked_ids``, checks the
invariants: for ``Slp`` once, when it is built, and for ``ZslpReader``
once, when it decodes a stream, whose ``read_slp`` wraps the arrays it
read. It takes the rule ids and the axiom ids as little-endian arrays, as
a stream holds them (``Slp`` converts its input to such arrays once), and
compares every id with its bound in big-int lanes, _LANE_BLOCK (1,024)
pairs of ids at a time, or fewer for a short array (``_first_above``), so
the check makes no int object per id. It names a fault with one text, at
most FAULTS_SHOWN (3) violations and then how many more, looked for and
counted from the first block holding one. ``Slp`` first refuses a rule
that is not a pair of int ids and an axiom entry that is not an int id,
naming the first, and then an id its arrays cannot hold. ``_checked_slp``,
which wraps checked parts, is the only way to build an Slp without the
check.

The "ZSLP" binary format (version 2):

    magic "ZSLP" | version byte (2) | varint rule count p | varint axiom length n
    | id width byte w | 2p rule ids (first, second per rule) | n axiom ids

Left ids are implicit (dense numbering). The two counts are unsigned LEB128
varints (7 bits per byte, little-endian, high bit = continuation). Every
symbol id is w bytes, little-endian: w is 2 when all ids fit (256 + p <=
65,536), otherwise 4. The ids are fixed-width, so the header fixes the
stream's length. A reader reads the header (at most 26 bytes) first and
refuses a stream that states more than MAX_INPUT_BYTES ids (2p + n, which
no stream ``compress`` writes exceeds) before it reads any; then it reads
the rule ids and the axiom ids straight into two arrays, and one byte more.
Rules are stored before the axiom and in definition order; nothing may
follow the axiom. Version 1, which wrote every id as a varint, is no longer
read.

``iter_expand`` copies short expansions instead of walking them. On its
first expansion that is not empty, an ``Slp`` builds a table of them in one
bottom-up pass over its rules: every terminal's byte, and the bytes of every
rule whose expansion is at most SHORT_LIMIT (1,024) bytes, made as the
concatenation of its two parts' stored bytes. At most SHORT_BUDGET (4 MiB)
is stored per grammar, each piece charged its bytes plus a bytes object's
header (33 bytes on 64-bit CPython); rules after the one that would pass it
are not stored. The walk takes its symbols a block of CHUNK_SIZE // SHORT_LIMIT
(64) at a time: a block whose every symbol is stored is one join of at most
CHUNK_SIZE bytes, and any other block is walked symbol by symbol, copying a
stored symbol's bytes in one step and pushing only the symbols above them
through its stack. Counting, statistics and a search that writes nothing
never build the table.
"""

from __future__ import annotations

import io
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterator
from functools import cache, cached_property
from itertools import chain, islice, repeat
from operator import ge, index, lt

FIRST_VARIABLE = 256
MAGIC = b"ZSLP"
VERSION = 2
# Array typecode per id width in bytes; ids are stored little-endian.
_ID_TYPECODES = {array(code).itemsize: code for code in "LIH"}
_BIG_ENDIAN = sys.byteorder == "big"
# Bytes per chunk that ``iter_expand`` yields (all chunks but the last).
CHUNK_SIZE = 65536
# Longest expansion stored per symbol, and the most bytes stored per grammar,
# each piece's bytes object header included.
SHORT_LIMIT = 1024
SHORT_BUDGET = 4 << 20
_BYTES_HEADER = sys.getsizeof(b"")
# Symbols ``iter_expand`` takes at a time: their stored pieces fill at most a chunk.
_BLOCK = CHUNK_SIZE // SHORT_LIMIT
# Violations named in a grammar fault message before "and N more".
FAULTS_SHOWN = 3
# Largest input ``compress`` accepts, and so the most ids a stream may state:
# each rule shortens the sequence by 2 or more, so 2p + n <= input length.
MAX_INPUT_BYTES = 16 << 20
# Longest header: magic, version byte, two 10-byte varints, id width byte.
_HEADER_LIMIT = len(MAGIC) + 1 + 10 + 10 + 1
_TERMINAL_BYTES = [bytes((byte,)) for byte in range(FIRST_VARIABLE)]
# Lanes the id check takes at a time, two ids each: 1,024 rules, or 2,048 axiom ids.
_LANE_BLOCK = 1024


class SlpFormatError(ValueError):
    """Malformed ZSLP stream."""


class BadMagicError(SlpFormatError):
    """Stream does not start with the ZSLP magic."""


class TruncatedStreamError(SlpFormatError):
    """Stream ended in the middle of a field."""


class InvalidGrammarError(ValueError):
    """Grammar violates a structural invariant."""


class Rules:
    """A grammar's rules: a read-only sequence of ``(first, second)`` pairs.

    Rule i's ids are ``firsts[i]`` and ``seconds[i]``, two read-only id
    arrays; iterating zips them and ``rules[i]`` builds one pair, so the
    rules are held as the two arrays only. Equal rules compare and hash
    equal whatever the arrays' id width.
    """

    __slots__ = ("firsts", "seconds")

    def __init__(self, firsts, seconds):
        object.__setattr__(self, "firsts", firsts)
        object.__setattr__(self, "seconds", seconds)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: rules are read-only")

    def __len__(self) -> int:
        return len(self.firsts)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.firsts, self.seconds)

    def __getitem__(self, i: int) -> tuple[int, int]:
        i = index(i)  # a slice would pair two views
        return self.firsts[i], self.seconds[i]

    def __eq__(self, other):
        if not isinstance(other, Rules):
            return NotImplemented
        return self.firsts == other.firsts and self.seconds == other.seconds

    def __hash__(self) -> int:
        return hash((tuple(self.firsts), tuple(self.seconds)))

    def __repr__(self) -> str:
        return f"Rules({list(self)!r})"


class Slp(namedtuple("Slp", "rules axiom")):
    """An immutable, valid grammar: its ``Rules`` and its axiom's ids.

    A checked namedtuple of read-only views of three id arrays: rule i,
    whatever pair the caller gave, is ``(rules.firsts[i], rules.seconds[i])``
    and defines symbol ``256 + i``; ``axiom`` is a memoryview of the axiom's
    ids. Building an Slp, also by ``_make``, ``_replace``, copy or pickle,
    puts its ids in little-endian arrays and checks them with
    ``_checked_ids``, the reader's check, raising InvalidGrammarError naming
    the violations, so an Slp that exists is valid and its consumers need
    not check it again. ``_checked_slp``, the one way to skip the check,
    wraps parts ``ZslpReader`` has checked. Expansion caches
    ``short_expansions`` on it, a table fixed by the rules.
    """

    def __new__(cls, rules, axiom):
        rules, axiom = tuple(rules), tuple(axiom)
        try:
            ids = tuple(chain.from_iterable(rules))
            # array would take __index__-only ids too, so the types are checked.
            types = set(map(type, chain(ids, axiom)))
            if set(map(len, rules)) - {2} or not all(issubclass(t, int) for t in types):
                raise TypeError
        except (TypeError, ValueError):  # not all pairs, or not all ints
            raise InvalidGrammarError(_shape_fault(rules, axiom)) from None
        code = _ID_TYPECODES[_id_width(len(rules))]
        try:
            rule_ids, axiom_ids = array(code, ids), array(code, axiom)
        except OverflowError:  # a negative id, or one too wide for any valid id
            raise InvalidGrammarError(_fault_message(ids[::2], ids[1::2], axiom, 0, 0)) from None
        if _BIG_ENDIAN:  # the check reads ids little-endian, as a stream holds them
            rule_ids.byteswap()
            axiom_ids.byteswap()
        ids = _checked_ids(rule_ids, axiom_ids, InvalidGrammarError)
        firsts, seconds, axiom = map(_read_only, ids)
        return super().__new__(cls, Rules(firsts, seconds), axiom)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        # Copy and pickle rebuild through the constructor, so they check.
        return type(self), (list(self.rules), list(self.axiom))

    def __hash__(self) -> int:
        return hash((self.rules, tuple(self.axiom)))

    def __repr__(self) -> str:
        return f"Slp({list(self.rules)!r}, {list(self.axiom)!r})"

    @cached_property
    def short_expansions(self) -> list:
        """Per symbol id, its expansion if stored (see the module docstring), else None.

        Built on first use and cached on the instance. Concurrent first
        uses may each build it; every build has the same content. The list
        is returned as built, with no tuple copy beside it, so callers only
        read it.
        """
        short = list(_TERMINAL_BYTES)
        append = short.append
        room = SHORT_BUDGET
        for first, second in self.rules:
            a = short[first]
            b = short[second]
            if a and b:
                piece = a + b
                if (size := len(piece)) <= SHORT_LIMIT:
                    room -= size + _BYTES_HEADER
                    if room < 0:
                        break
                    append(piece)
                    continue
            append(None)
        short.extend(repeat(None, FIRST_VARIABLE + len(self.rules) - len(short)))
        return short


def _id_width(rule_count: int) -> int:
    """Bytes per id: 2 when every id of the grammar fits, else 4."""
    return 2 if FIRST_VARIABLE + rule_count <= 1 << 16 else 4


def _read_only(ids: array) -> memoryview:
    """A read-only view of an id array; while it lives the array keeps its length."""
    return memoryview(ids).toreadonly()


def _shape_fault(rules, axiom) -> str:
    """Names the first rule that is not a pair of int ids, else the first
    axiom position that is not an int id."""
    for i, rule in enumerate(rules):
        try:
            if len(rule) == 2 and all(isinstance(sym, int) for sym in rule):
                continue
        except (TypeError, ValueError):
            pass
        return f"rule {i + 1} is not a pair of integer symbol ids"
    pos = next(pos for pos, sym in enumerate(axiom) if not isinstance(sym, int))
    return f"axiom position {pos} is not an integer symbol id"


def _checked_ids(rule_ids: array, axiom: array, error: type) -> tuple[array, array, array]:
    """The one check of a grammar's ids, for ``Slp`` and ``ZslpReader``.

    ``rule_ids`` (each rule's first and second) and ``axiom`` are
    little-endian, as a stream holds them, and are put in host order.
    Returns the rules' firsts, their seconds and the axiom if every rule
    names terminals and earlier rules only and the axiom is non-empty and
    names defined symbols only; otherwise raises ``error`` naming the
    faults, searched and counted from the first bad block of each array.
    """
    rule_count = len(rule_ids) // 2
    # Where the first bad block of each array starts; the ids before it are valid.
    rules_at = _first_above(rule_ids, FIRST_VARIABLE - 1, 1)
    axiom_at = _first_above(axiom, FIRST_VARIABLE + rule_count - 1, 0)
    if _BIG_ENDIAN:
        rule_ids.byteswap()
        axiom.byteswap()
    firsts, seconds = rule_ids[0::2], rule_ids[1::2]
    if not axiom or rules_at is not None or axiom_at is not None:
        rule_start = rule_count if rules_at is None else rules_at // 2
        axiom_start = len(axiom) if axiom_at is None else axiom_at
        raise error(_fault_message(firsts, seconds, axiom, rule_start, axiom_start))
    return firsts, seconds, axiom


def _first_above(ids: array, bound: int, rise: int) -> int | None:
    """Where the first ``ids[k]``, stored little-endian, that is above
    ``bound + rise * (k // 2)`` lies: the index of the first id of its
    block, or None if there is none. With bound 255 and rise 1, an id
    above it names its own rule's or a later symbol. ``_checked_ids`` runs
    it on both of a grammar's arrays.

    The check compares ids many at a time in lanes of big ints, as in
    Lamport's "Multiple byte processing with full-word instructions" (CACM
    1975), with no int object per id. It reads a block of pairs of w-byte
    ids at a time as one int, in which each pair is one 2w-byte lane; a
    mask and a shift split it into the lanes' low and high ids, each then
    alone in its lane. A block has _LANE_BLOCK lanes, or, for fewer ids,
    the power of two that holds them. Pair j's lane of ``bounds`` holds its
    bound plus the lane's top bit as a guard. Subtracting an id up to the
    bound leaves the guard set; a larger id clears it without borrowing
    from the next lane, since it is below 2 ** 8w. So the test is exact.
    Only a block's bytes are copied.
    """
    width = ids.itemsize
    count = min(_LANE_BLOCK, 1 << max((len(ids) + 1) // 2 - 1, 0).bit_length())
    unit, ramp, low, guards = _lanes(width, count)
    bounds = guards + bound * unit + rise * ramp
    step = rise * count * unit
    size = 2 * width * count
    with memoryview(ids) as view, view.cast("B") as raw:
        for start in range(0, len(raw), size):
            pairs = int.from_bytes(raw[start : start + size], "little")
            lows = bounds - (pairs & low)
            highs = bounds - (pairs >> 8 * width & low)
            if lows & highs & guards != guards:
                return start // width
            bounds += step
    return None


@cache
def _lanes(width: int, count: int) -> tuple[int, int, int, int]:
    """``_first_above``'s ints for ``count`` lanes of two ``width``-byte ids.

    Laid out little-endian, as the ids are: 1 in every lane, j in lane j,
    the mask of each lane's low half, and the guards, each lane's top bit.
    Built once per width and lane count, on first use. ``_first_above``
    asks for the 11 powers of two up to _LANE_BLOCK lanes; the ints of
    1,024 lanes take 16 KiB at width 2.
    """
    size = 2 * width
    ramp = int.from_bytes(b"".join(j.to_bytes(size, "little") for j in range(count)), "little")

    def every_lane(value: int) -> int:
        return int.from_bytes(value.to_bytes(size, "little") * count, "little")

    return every_lane(1), ramp, every_lane((1 << 8 * width) - 1), every_lane(1 << 8 * size - 1)


def _fault_message(firsts, seconds, axiom, rule_start: int, axiom_start: int) -> str:
    """The first FAULTS_SHOWN violations of a grammar, then how many more.

    The rules before ``rule_start`` and the axiom ids before
    ``axiom_start`` must be valid; the search and the count start there.
    """
    lefts = range(FIRST_VARIABLE, FIRST_VARIABLE + len(firsts))
    firsts, seconds, lefts = firsts[rule_start:], seconds[rule_start:], lefts[rule_start:]
    faults = chain(
        (
            f"rule {i + 1} references undefined/later symbol {sym}"
            for i, pair in enumerate(zip(firsts, seconds), rule_start)
            for sym in pair
            if not 0 <= sym < FIRST_VARIABLE + i
        ),
        () if axiom else ("empty axiom",),
        (
            f"axiom position {pos} references undefined symbol {sym}"
            for pos, sym in enumerate(axiom[axiom_start:], axiom_start)
            if not 0 <= sym < lefts.stop
        ),
    )
    shown = list(islice(faults, FAULTS_SHOWN))
    message = "; ".join(shown)
    # Count the rest without formatting them: C-level passes over the ids.
    more = (
        _outside(firsts, lefts)
        + _outside(seconds, lefts)
        + (not axiom)
        + _outside(axiom[axiom_start:], repeat(lefts.stop))
        - len(shown)
    )
    return f"{message}; and {more} more" if more else message


def _outside(ids, stops) -> int:
    """How many ids are negative or at least the stop paired with them."""
    negative = sum(map(lt, ids, repeat(0))) if min(ids, default=0) < 0 else 0
    return sum(map(ge, ids, stops)) + negative


def expand(slp: Slp, symbols=None) -> bytes:
    """Concatenated expansion of ``symbols``, by default the axiom."""
    return b"".join(iter_expand(slp, symbols))


def iter_expand(slp: Slp, symbols=None) -> Iterator[bytes]:
    """Yield the expansion of ``symbols`` (default: the axiom) in chunks.

    The only walk that turns symbols into bytes: ``expand``, ``decompress``
    and the reporter all go through it. It reads the sequence ``symbols``
    in place, _BLOCK symbols at a time. A block whose every symbol has a
    stored expansion (``Slp.short_expansions``, built here on the first
    non-empty call; a stored piece is never empty) is joined whole. Any
    other block is walked: a stored symbol is copied whole, and from any
    other the walk descends the first part and stacks only the second.
    Every chunk but the last holds exactly CHUNK_SIZE bytes, so bytes that
    cross a chunk boundary are split there; an empty sequence yields
    nothing; an undefined symbol raises InvalidGrammarError.
    """
    limit = FIRST_VARIABLE + len(slp.rules)
    if symbols is None:
        symbols = slp.axiom
    elif symbols and not (0 <= min(symbols) and max(symbols) < limit):
        bad = next(sym for sym in symbols if not 0 <= sym < limit)
        raise InvalidGrammarError(f"undefined symbol {bad}")
    if not symbols:
        return
    short = slp.short_expansions
    firsts, seconds = slp.rules.firsts, slp.rules.seconds
    stack: list[int] = []  # second parts, innermost last
    out = bytearray()
    for start in range(0, len(symbols), _BLOCK):
        block = symbols[start : start + _BLOCK]
        pieces = [short[sym] for sym in block]
        if all(pieces):
            out += b"".join(pieces)  # at most CHUNK_SIZE bytes: one split
            if len(out) >= CHUNK_SIZE:
                yield _take_chunk(out)
            continue
        for sym, piece in zip(block, pieces):
            while True:
                while piece is None:  # descend the first part, stack the second
                    rule = sym - FIRST_VARIABLE
                    sym = firsts[rule]
                    stack.append(seconds[rule])
                    piece = short[sym]
                out += piece
                if len(out) >= CHUNK_SIZE:
                    yield _take_chunk(out)
                if not stack:
                    break
                sym = stack.pop()
                piece = short[sym]
    if out:
        yield bytes(out)


def _take_chunk(out: bytearray) -> bytes:
    """Remove the first CHUNK_SIZE bytes of ``out`` and return them, copied once.

    A slice of the bytearray would copy them into a second 64 KiB buffer
    first; that transient allocation made ``decompress`` 10-18% slower or
    not depending on where the allocator found room for it.
    """
    with memoryview(out) as view:
        chunk = bytes(view[:CHUNK_SIZE])
    del out[:CHUNK_SIZE]
    return chunk


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode one header varint at ``pos``; returns it and the end position."""
    value = shift = 0
    while True:
        if pos == len(data):
            raise TruncatedStreamError("stream ended inside a varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise SlpFormatError("varint too long")


def encode_slp(slp: Slp) -> bytes:
    """Serialise a grammar to the ZSLP byte format."""
    width = _id_width(len(slp.rules))
    ids = array(_ID_TYPECODES[width], chain.from_iterable(slp.rules))
    ids.extend(slp.axiom)
    if _BIG_ENDIAN:
        ids.byteswap()
    out = bytearray(MAGIC)
    out.append(VERSION)
    _write_uvarint(out, len(slp.rules))
    _write_uvarint(out, len(slp.axiom))
    out.append(width)
    out += ids.tobytes()
    return bytes(out)


class ZslpReader:
    """ZSLP reader: the whole stream is decoded and checked on construction.

    The constructor checks the header and reads only the ids it states
    (see the module docstring) into an array of rule ids and an array of
    axiom ids. ``_checked_ids``, the check ``Slp`` runs too, checks them on
    the stream's little-endian bytes, puts them in host order and splits
    the rule ids into an array of firsts and one of seconds, or raises
    SlpFormatError with the text ``Slp`` would give.
    ``iter_rules``, ``read_axiom`` and ``read_slp`` are views of the checked
    arrays, in any order and without a second check, so the consumers of
    the rules (``saturate``, the engine's line count) take valid pairs.
    ``read_axiom`` returns the axiom's array itself and ``read_slp`` an
    ``Slp`` of read-only views of the three arrays; neither copies an id,
    so a caller that holds both must not change the axiom's array.
    """

    def __init__(self, stream: io.BufferedIOBase):
        data = stream.read(_HEADER_LIMIT)
        magic = data[: len(MAGIC)]
        if len(magic) < len(MAGIC):
            raise TruncatedStreamError("stream ended inside the magic")
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}")
        if len(data) == len(MAGIC):
            raise TruncatedStreamError("stream ended before the version byte")
        if data[len(MAGIC)] != VERSION:
            raise SlpFormatError(f"unsupported version {data[len(MAGIC)]}")
        self.rule_count, pos = _read_uvarint(data, len(MAGIC) + 1)
        axiom_len, pos = _read_uvarint(data, pos)
        if pos == len(data):
            raise TruncatedStreamError("stream ended before the id width byte")
        width = data[pos]
        if width not in (2, 4):
            raise SlpFormatError(f"unsupported id width {width}")
        id_count = 2 * self.rule_count + axiom_len
        if id_count > MAX_INPUT_BYTES:
            raise SlpFormatError(
                f"header states {id_count} symbol ids, over the {MAX_INPUT_BYTES}-id limit"
            )
        # The header read may have taken the first ids, or all of them and more.
        head = data[pos + 1 :]
        rule_ids, head = _read_ids(stream, head, width, 2 * self.rule_count)
        axiom, head = _read_ids(stream, head, width, axiom_len)
        if head or stream.read(1):
            raise SlpFormatError("trailing data after axiom")
        self._firsts, self._seconds, self._axiom = _checked_ids(rule_ids, axiom, SlpFormatError)

    def iter_rules(self) -> Iterator[tuple[int, int]]:
        """Yield (first, second) for each rule, in definition order."""
        return zip(self._firsts, self._seconds)

    def read_axiom(self) -> array:
        """The axiom's ids, as the array they were read into."""
        return self._axiom

    def read_slp(self) -> Slp:
        """The grammar: every rule and the axiom, as views of the arrays read."""
        return _checked_slp(*map(_read_only, (self._firsts, self._seconds, self._axiom)))


def _read_ids(stream, head: bytes, width: int, count: int) -> tuple[array, bytes]:
    """``count`` ids of ``width`` bytes, from ``head`` and then read from the
    stream into the array; returns them and the rest of ``head``."""
    ids = array(_ID_TYPECODES[width], [0]) * count
    with memoryview(ids) as view, view.cast("B") as into:
        filled = min(len(head), len(into))
        into[:filled] = head[:filled]
        while filled < len(into):
            got = stream.readinto(into[filled:])
            if not got:
                raise TruncatedStreamError("stream ended inside the symbol ids")
            filled += got
    return ids, head[filled:]


def _checked_slp(firsts, seconds, axiom) -> Slp:
    """An Slp of read-only id sequences ``ZslpReader`` has checked, built
    without a second check."""
    return tuple.__new__(Slp, (Rules(firsts, seconds), axiom))


def decode_slp(data: bytes) -> Slp:
    """Parse ZSLP bytes into a grammar, rejecting malformed streams."""
    return ZslpReader(io.BytesIO(data)).read_slp()
