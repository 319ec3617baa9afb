"""Straight-line programs with multi-symbol axioms, plus their binary format.

A grammar is an ordered tuple of binary rules, each a ``(first, second)``
pair of symbol ids. Ids 0..255 denote the terminal bytes; id 256+i denotes
the variable defined by rule i (dense numbering, so symbol tables can be
plain arrays). Every right-hand symbol of a rule must be a terminal or an
earlier variable, which makes the rule list topologically ordered by
construction. The axiom is a non-empty symbol sequence; the text the
grammar derives is the concatenation of the axiom symbols' expansions. A
length-1 axiom is allowed so that one-byte inputs have a representation.
``Slp`` checks these invariants once, when it is built.

The "ZSLP" binary format:

    magic "ZSLP" | version byte (1) | varint rule count p
    | p * (varint first, varint second)      -- left ids are implicit/dense
    | varint axiom length | varints axiom symbols

Varints are unsigned LEB128 (7 bits per byte, little-endian, high bit =
continuation). Rules are stored before the axiom and in definition order, so
a consumer can process them one at a time without building the whole
grammar. Nothing may follow the axiom.

``iter_expand`` copies short expansions instead of walking them. On its
first expansion that is not empty, an ``Slp`` builds a table of them in one
bottom-up pass over its rules: every terminal's byte, and the bytes of every
rule whose expansion is at most SHORT_LIMIT (1,024) bytes, made as the
concatenation of its two parts' stored bytes. At most SHORT_BUDGET (4 MiB)
bytes are stored per grammar; rules after the one that would pass it are
not stored. The walk copies a stored symbol's bytes in one step and pushes
only the symbols above them through its stack. Counting, statistics and a
search that writes nothing never build the table.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Iterator

FIRST_VARIABLE = 256
MAGIC = b"ZSLP"
VERSION = 1
# Bytes per chunk that ``iter_expand`` yields (all chunks but the last).
CHUNK_SIZE = 65536
# Longest expansion stored per symbol, and the most bytes stored per grammar.
SHORT_LIMIT = 1024
SHORT_BUDGET = 4 << 20
_TERMINAL_BYTES = [bytes((byte,)) for byte in range(FIRST_VARIABLE)]


class SlpFormatError(ValueError):
    """Malformed ZSLP stream."""


class BadMagicError(SlpFormatError):
    """Stream does not start with the ZSLP magic."""


class TruncatedStreamError(SlpFormatError):
    """Stream ended in the middle of a field."""


class InvalidGrammarError(ValueError):
    """Grammar violates a structural invariant."""


@dataclass(frozen=True)
class Slp:
    """An immutable, valid grammar: ``(first, second)`` rule pairs and the axiom.

    Rule i defines symbol ``256 + i``. Building an Slp checks every
    invariant and raises InvalidGrammarError listing the violations, so an
    Slp that exists is valid and its consumers need not check it again.
    Expansion caches ``short_expansions`` on it, a table fixed by the rules.
    """

    rules: tuple[tuple[int, int], ...]
    axiom: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "axiom", tuple(self.axiom))
        limit = FIRST_VARIABLE + len(self.rules)
        violations = [
            f"rule {i + 1} references undefined/later symbol {sym}"
            for i, (first, second) in enumerate(self.rules)
            for sym in (first, second)
            if not 0 <= sym < FIRST_VARIABLE + i
        ]
        if not self.axiom:
            violations.append("empty axiom")
        elif min(self.axiom) < 0 or max(self.axiom) >= limit:
            violations += (
                f"axiom position {pos} references undefined symbol {sym}"
                for pos, sym in enumerate(self.axiom)
                if not 0 <= sym < limit
            )
        if violations:
            raise InvalidGrammarError("; ".join(violations))

    @cached_property
    def short_expansions(self) -> tuple:
        """Per symbol id, its expansion if stored (see the module docstring), else None.

        Built on first use and cached on the instance. Concurrent first
        uses may each build it; every build has the same content.
        """
        short = list(_TERMINAL_BYTES)
        append = short.append
        room = SHORT_BUDGET
        for first, second in self.rules:
            a = short[first]
            b = short[second]
            if a and b:
                piece = a + b
                if len(piece) <= SHORT_LIMIT:
                    room -= len(piece)
                    if room < 0:
                        break
                    append(piece)
                    continue
            append(None)
        short += [None] * (FIRST_VARIABLE + len(self.rules) - len(short))
        return tuple(short)


def expand_symbol(slp: Slp, sym: int) -> bytes:
    """Return the unique byte string the symbol derives."""
    return expand(slp, (sym,))


def expand(slp: Slp, symbols=None) -> bytes:
    """Concatenated expansion of ``symbols``, by default the axiom."""
    return b"".join(iter_expand(slp, symbols))


def iter_expand(slp: Slp, symbols=None) -> Iterator[bytes]:
    """Yield the expansion of ``symbols`` (default: the axiom) in chunks.

    The only walk that turns symbols into bytes: ``expand``, ``decompress``
    and the reporter all go through it. A symbol with a stored expansion
    (``Slp.short_expansions``, built here on the first non-empty call) is
    copied whole; any other is replaced on the stack by its two parts.
    Every chunk but the last holds exactly CHUNK_SIZE bytes, so a copied
    piece that crosses a chunk boundary is split there; an empty sequence
    yields nothing; an undefined symbol raises InvalidGrammarError.
    """
    stack = list(reversed(slp.axiom if symbols is None else symbols))
    if not stack:
        return
    limit = FIRST_VARIABLE + len(slp.rules)
    if symbols is not None and not (0 <= min(stack) and max(stack) < limit):
        bad = next(sym for sym in symbols if not 0 <= sym < limit)
        raise InvalidGrammarError(f"undefined symbol {bad}")
    short = slp.short_expansions
    rules = slp.rules
    out = bytearray()
    while stack:
        sym = stack.pop()
        piece = short[sym]
        if piece is None:
            first, second = rules[sym - FIRST_VARIABLE]
            stack.append(second)
            stack.append(first)
            continue
        out += piece
        if len(out) >= CHUNK_SIZE:
            yield bytes(out[:CHUNK_SIZE])
            del out[:CHUNK_SIZE]
    if out:
        yield bytes(out)


def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varint value must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarints(data: bytes, pos: int, count: int) -> tuple[list, int]:
    """Decode ``count`` varints from ``pos``; returns them and the end position."""
    values = []
    append = values.append
    try:
        for _ in range(count):
            byte = data[pos]
            pos += 1
            if byte < 0x80:
                append(byte)
                continue
            value = byte & 0x7F
            shift = 7
            while True:
                byte = data[pos]
                pos += 1
                value |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
                if shift > 63:
                    raise SlpFormatError("varint too long")
            append(value)
    except IndexError:
        raise TruncatedStreamError("stream ended inside a varint") from None
    return values, pos


def encode_slp(slp: Slp) -> bytes:
    """Serialise a grammar to the ZSLP byte format."""
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    _write_uvarint(out, len(slp.rules))
    for first, second in slp.rules:
        _write_uvarint(out, first)
        _write_uvarint(out, second)
    _write_uvarint(out, len(slp.axiom))
    for sym in slp.axiom:
        _write_uvarint(out, sym)
    return bytes(out)


class ZslpReader:
    """ZSLP reader: rules come one at a time, then the axiom.

    The stream is read once, and the header and the rules' symbol ids are
    decoded from that buffer on construction. ``iter_rules`` must be
    exhausted before ``read_axiom`` is called. ``iter_rules`` checks each
    rule before it yields it, so its consumers (``saturate``, the engine's
    line count) take valid pairs; ``read_axiom`` checks the axiom's symbols
    and rejects bytes after the axiom; ``read_slp`` leaves both checks to
    ``Slp``.
    """

    def __init__(self, stream: BinaryIO):
        data = self._data = stream.read()
        magic = data[: len(MAGIC)]
        if len(magic) < len(MAGIC):
            raise TruncatedStreamError("stream ended inside the magic")
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}")
        if len(data) == len(MAGIC):
            raise TruncatedStreamError("stream ended before the version byte")
        if data[len(MAGIC)] != VERSION:
            raise SlpFormatError(f"unsupported version {data[len(MAGIC)]}")
        (self.rule_count,), pos = _read_uvarints(data, len(MAGIC) + 1, 1)
        self._rule_symbols, self._pos = _read_uvarints(data, pos, 2 * self.rule_count)
        self._rules_read = 0

    def iter_rules(self) -> Iterator[tuple[int, int]]:
        """Yield (first, second) for each rule, in definition order.

        Raises InvalidGrammarError at the first rule that names its own or
        a later symbol (varints are never negative).
        """
        symbols = iter(self._rule_symbols)
        for first, second in zip(symbols, symbols):
            left_id = FIRST_VARIABLE + self._rules_read
            if first >= left_id or second >= left_id:
                raise InvalidGrammarError(
                    f"rule for symbol {left_id} references undefined/later symbol"
                )
            self._rules_read += 1
            yield first, second

    def _axiom_symbols(self) -> list:
        (length,), pos = _read_uvarints(self._data, self._pos, 1)
        if length == 0:
            raise SlpFormatError("empty axiom")
        axiom, pos = _read_uvarints(self._data, pos, length)
        if pos != len(self._data):
            raise SlpFormatError("trailing data after axiom")
        return axiom

    def read_axiom(self) -> tuple[int, ...]:
        if self._rules_read < self.rule_count:
            raise SlpFormatError("axiom read before all rules were consumed")
        axiom = self._axiom_symbols()
        limit = FIRST_VARIABLE + self.rule_count
        if max(axiom) >= limit:
            bad = next(sym for sym in axiom if sym >= limit)
            raise SlpFormatError(f"axiom references undefined symbol {bad}")
        return tuple(axiom)

    def read_slp(self) -> Slp:
        """Read every rule and the axiom and return the grammar."""
        symbols = iter(self._rule_symbols)
        try:
            return Slp(list(zip(symbols, symbols)), self._axiom_symbols())
        except InvalidGrammarError as exc:
            raise SlpFormatError(str(exc)) from None


def decode_slp(data: bytes) -> Slp:
    """Parse ZSLP bytes into a grammar, rejecting malformed streams."""
    return ZslpReader(io.BytesIO(data)).read_slp()
