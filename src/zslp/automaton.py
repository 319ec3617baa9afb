"""Regular expressions compiled to epsilon-free automata over newline-free bytes.

Supported dialect:

    pattern      := branch ('|' branch)*
    branch       := piece*                      # empty branch matches ""
    piece        := atom repeat*
    repeat       := '*' | '+' | '?' | '{m}' | '{m,}' | '{m,n}'
    atom         := literal | '.' | '(' pattern ')' | class | '\\' any-char

'.' and negated classes match any byte except 0x0A. A backslash makes the
next character a literal. Matching is factor-within-line by construction
and anchors are not supported: an unescaped '^' or '$' outside a class is a
syntax error, so a grep user's anchored pattern is refused rather than
silently read as literal characters; '\\^', '\\$' and '[$^]' match the
characters. Classes support ranges, a leading '^' for negation, and ']' as a
literal when it is the first member. Bytes, not codepoints: every pattern
character must have an ordinal below 256 and matching is case-sensitive.

Compilation is Glushkov's position automaton (Glushkov 1961; Berry & Sethi
1986), epsilon-free by construction. One pass over the AST computes
nullable, first and last as int masks over the atom occurrences (positions)
and a follow mask per position; ``x{m,n}`` is expanded as
``x^m (x(x(...)?)?)?``, so each copy is entered from the one before it only.
State 0 is the start state and a fresh accept state, numbered last, the
only accepting one; every move into a last position is also bent onto it.
So no transition enters state 0 or leaves the accept state, the shape the
search engine's saturation relies on (otherwise composed transitions could
stand for non-contiguous fragments and the counts would drift). Two mask
sweeps trim the rest, and bytes that enter the same positions share one row
map (RE2's byte classes). Rows are built in state space: each kept
position's follow mask, and each byte class's set of entered positions, is
renumbered to state bits once, so a state's row on a class is the AND of the
two, plus the accept bit when the follow mask meets a last position the
class enters (that position may itself be trimmed). Rows list their states
in ascending order.

``compile_pattern`` compiles the pattern's whole-string language, which
``nfa_accepts`` and the oracle use. Line matching asks only whether some
factor of a line is in that language, so ``compile_line_pattern``, which
the CLI's count, search and stats use, first rewrites the pattern's edges
(``_reduce_line_edges``): at the leading (trailing) edge a part E becomes
E' when L(E') is a subset of L(E) and every word of E has a suffix (prefix)
in L(E'). Nullable edge parts go, an edge repeat with minimum m >= 1
becomes m copies of its item, so ``.{0,512}z`` compiles like ``z`` (2
states, not 514) and ``stats`` reports the reduced automaton's states.
Inner parts stay: ``t.{0,200}g`` keeps its 203 states."""

from __future__ import annotations

from collections import namedtuple

NEWLINE = 0x0A
_ALL_BYTES = frozenset(range(256))
_LINE_BYTES = _ALL_BYTES - {NEWLINE}

# Guard rails against pathological patterns, not contractual limits.
_MAX_REPEAT = 512
_MAX_STATES = 20000  # positions, before trimming
_MAX_PAIRS = 1_000_000  # (position, following position) pairs
_MAX_VISITS = 200_000  # AST nodes visited, each copy of a repeat counted
_MAX_NESTING = 100  # groups plus stacked repeat operators, on any path
# (low, high) of each one-character repeat operator; high None is unbounded.
_BOUNDS = {"*": (0, None), "+": (1, None), "?": (0, 1)}


class PatternSyntaxError(ValueError):
    """Pattern rejected; carries the offending position, None for a pattern
    refused for its size."""

    def __init__(self, message: str, position: int | None = None):
        at = "" if position is None else f"syntax error at position {position}: "
        super().__init__(at + message)
        self.position = position


class NewlinePatternError(ValueError):
    """Every string the pattern matches would contain a newline."""


# ---------------------------------------------------------------------------
# Pattern AST


ByteSet = namedtuple("ByteSet", "bytes_")
Seq = namedtuple("Seq", "parts")
Branch = namedtuple("Branch", "options")
Repeat = namedtuple("Repeat", "item low high")  # high None means unbounded


class _Parser:
    """Recursive descent; each rule returns ``(node, nesting height)``.

    Nesting counts groups and stacked repeat operators. It is capped, so
    neither the parser nor the compiler's walk over the tree can exhaust the
    interpreter's recursion limit.
    """

    def __init__(self, pattern: str):
        self.text = pattern
        self.pos = 0
        self.open_groups = 0

    def parse(self):
        node, _ = self._alternation()
        if self.pos < len(self.text):
            self._fail(f"unexpected {self.text[self.pos]!r}")
        return node

    def _fail(self, message: str):
        raise PatternSyntaxError(message, self.pos)

    def _deeper(self, height: int) -> int:
        if height >= _MAX_NESTING:
            self._fail(f"pattern nested deeper than {_MAX_NESTING} levels")
        return height + 1

    def _peek(self):
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def _take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def _alternation(self):
        node, height = self._concat()
        options = [node]
        while self._peek() == "|":
            self.pos += 1
            node, other = self._concat()
            options.append(node)
            height = max(height, other)
        if len(options) == 1:
            return options[0], height
        return Branch(tuple(options)), height

    def _concat(self):
        parts = []
        height = 0
        while True:
            ch = self._peek()
            if ch is None or ch in "|)":
                break
            node, other = self._piece()
            parts.append(node)
            height = max(height, other)
        if len(parts) == 1:
            return parts[0], height
        return Seq(tuple(parts)), height

    def _piece(self):
        node, height = self._atom()
        while True:
            ch = self._peek()
            if ch is None or ch not in "*+?{":
                return node, height
            height = self._deeper(height)
            if ch == "{":
                node = Repeat(node, *self._interval())
            else:
                self.pos += 1
                node = Repeat(node, *_BOUNDS[ch])

    def _interval(self) -> tuple[int, int | None]:
        self.pos += 1  # consume '{'
        low = self._integer()
        high: int | None = low
        if self._peek() == ",":
            self.pos += 1
            if self._peek() == "}":
                high = None
            else:
                high = self._integer()
        if self._peek() != "}":
            self._fail("malformed repetition, expected '}'")
        self.pos += 1
        if high is not None and high < low:
            self._fail(f"repetition range {{{low},{high}}} is decreasing")
        if low > _MAX_REPEAT or (high is not None and high > _MAX_REPEAT):
            self._fail(f"repetition larger than {_MAX_REPEAT}")
        return low, high

    def _integer(self) -> int:
        start = self.pos
        while (ch := self._peek()) is not None and ch.isdigit():
            self.pos += 1
        if self.pos == start:
            self._fail("expected a number")
        return int(self.text[start : self.pos])

    def _atom(self):
        # Reached only from _concat, which has checked that a character other
        # than '|' and ')' is next.
        ch = self._peek()
        if ch == "(":
            self._deeper(self.open_groups)
            self.open_groups += 1
            self.pos += 1
            node, height = self._alternation()
            if self._peek() != ")":
                self._fail("unclosed '('")
            height = self._deeper(height)
            self.pos += 1
            self.open_groups -= 1
            return node, height
        if ch == "[":
            return self._char_class(), 0
        if ch in "*+?{":
            self._fail(f"nothing to repeat before {ch!r}")
        if ch in "^$":
            self._fail(f"anchor {ch!r} is not supported (write '\\{ch}' to match the character)")
        if ch == ".":
            self.pos += 1
            return ByteSet(_LINE_BYTES), 0
        return ByteSet(frozenset({self._byte()}) - {NEWLINE}), 0

    def _char_class(self):
        self.pos += 1  # consume '['
        negated = False
        if self._peek() == "^":
            negated = True
            self.pos += 1
        members: set[int] = set()
        first = True
        while True:
            ch = self._peek()
            if ch is None:
                self._fail("unclosed character class")
            if ch == "]" and not first:
                self.pos += 1
                break
            first = False
            members |= self._class_item()
        if negated:
            members = set(_ALL_BYTES) - members
        return ByteSet(frozenset(members) - {NEWLINE})

    def _class_item(self) -> set[int]:
        lo = self._byte(" in character class")
        if self._peek() == "-":
            # '-' right before ']' is a literal, not a range.
            if self.pos + 1 < len(self.text) and self.text[self.pos + 1] == "]":
                return {lo}
            self.pos += 1
            if self._peek() is None:
                self._fail("unclosed range in character class")
            hi = self._byte(" in character class")
            if hi < lo:
                self._fail("decreasing range in character class")
            return set(range(lo, hi + 1))
        return {lo}

    def _byte(self, where: str = "") -> int:
        """Read one character, which a backslash may escape, as a byte."""
        ch = self._take()
        if ch == "\\":
            if self._peek() is None:
                self._fail("dangling backslash" + where)
            ch = self._take()
        code = ord(ch)
        if code > 255:
            self._fail(f"character {ch!r} is outside the byte alphabet")
        return code


def parse_pattern(pattern: str):
    """Parse a pattern into its AST, raising PatternSyntaxError on bad input."""
    if isinstance(pattern, bytes):
        pattern = pattern.decode("latin-1")
    return _Parser(pattern).parse()


# ---------------------------------------------------------------------------
# The automaton


def iter_bits(mask: int):
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_rows(mask: int, rel: dict) -> int:
    """OR of the rows of ``rel`` for every state of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rel.get(low.bit_length() - 1, 0)
        mask ^= low
    return out


class Fsa:
    """Epsilon-free automaton over the newline-free byte alphabet.

    State 0 is the start state and ``state_count - 1`` the accept state;
    ``final`` is the accept state's bit (0 for the stateless automaton,
    which accepts no non-empty string). ``rows[byte]`` maps a source state
    to the bitmask of its targets on that byte; bytes that no state tells
    apart share one dict. Immutable after construction. ``matches_empty``
    records whether the source pattern accepted the empty string (the
    automaton itself only accepts non-empty strings). The constructor
    rejects a ``rows`` list of other than 256 row maps, moves on the
    newline byte, moves leaving the accept state and moves entering state 0.
    """

    def __init__(self, state_count: int, rows: list, matches_empty: bool):
        self.state_count = state_count
        self.rows = rows
        self.matches_empty = matches_empty
        self.final = 1 << state_count >> 1
        if len(rows) != 256:
            raise ValueError(f"automaton must have 256 row maps, one per byte, not {len(rows)}")
        if any(rows[NEWLINE].values()):
            raise ValueError("automaton must not move on the newline byte")
        for row in {id(row): row for row in rows}.values():
            for src, targets in row.items():
                if targets and src == state_count - 1:
                    raise ValueError("automaton has transitions leaving a final state")
                if targets & 1:
                    raise ValueError("automaton has transitions entering an initial state")

    def successors(self, state: int, byte: int) -> frozenset:
        return frozenset(iter_bits(self.rows[byte].get(state, 0)))

    def iter_transitions(self):
        """Yield (state, byte, frozenset of targets) for every labelled cell."""
        for byte, row in enumerate(self.rows):
            for state, targets in row.items():
                if targets:
                    yield state, byte, frozenset(iter_bits(targets))

    def __repr__(self) -> str:
        return f"Fsa(states={self.state_count}, matches_empty={self.matches_empty})"


def _sweep(start: int, step: list) -> int:
    """Every state reachable from the mask ``start`` through ``step`` rows."""
    seen = todo = start
    while todo:
        reached = 0
        for q in iter_bits(todo):
            reached |= step[q]
        todo = reached & ~seen
        seen |= todo
    return seen


def _check_budget(used: int, budget: int, what: str) -> None:
    if used > budget:
        raise PatternSyntaxError(f"pattern too large: over {budget} {what}")


def _positions(ast) -> tuple:
    """``(matches_empty, follow, entered, last)`` of the AST's positions.

    Position 0 is the start and every atom occurrence another, numbered in
    the order the walk meets them; ``follow[p]`` masks the positions that
    may come after p, ``entered`` maps each byte set to the positions that
    read it and ``last`` masks the positions a match may end on.
    """
    follow = [0]  # per position, the positions that may come next
    entered: dict = {}  # per byte set, the positions that read it
    pairs = visits = 0

    def link(last: int, first: int) -> None:
        nonlocal pairs
        for p in iter_bits(last if first else 0):
            grown = follow[p] | first
            pairs += grown.bit_count() - follow[p].bit_count()
            follow[p] = grown
        _check_budget(pairs, _MAX_PAIRS, "transition pairs")

    def then(a: tuple, b: tuple) -> tuple:
        """``(nullable, first, last)`` of a concatenation."""
        link(a[2], b[1])
        return (
            a[0] and b[0],
            a[1] | (b[1] if a[0] else 0),
            b[2] | (a[2] if b[0] else 0),
        )

    def visit(node) -> tuple:
        nonlocal visits
        visits += 1
        _check_budget(visits, _MAX_VISITS, "node copies")
        if isinstance(node, ByteSet):
            if not node.bytes_:  # a newline never occurs within a line
                return (False, 0, 0)
            bit = 1 << len(follow)
            follow.append(0)
            _check_budget(len(follow), _MAX_STATES, "states")
            entered[node.bytes_] = entered.get(node.bytes_, 0) | bit
            return (False, bit, bit)
        if isinstance(node, Branch):  # options own disjoint positions
            nullable, first, last = zip(*map(visit, node.options))
            return (any(nullable), sum(first), sum(last))
        result = (True, 0, 0)
        if isinstance(node, Seq):
            for part in node.parts:
                result = then(result, visit(part))
            return result
        if node.high == 0:
            return result
        copies = [visit(node.item)]
        if not copies[0][1]:  # no positions, so no copy reads a byte
            return (node.low == 0 or copies[0][0], 0, 0)
        count = node.low + 1 if node.high is None else node.high
        copies += [visit(node.item) for _ in range(count - 1)]
        if node.high is None:  # x* is one optional copy that follows itself
            link(copies[-1][2], copies[-1][1])
        for copy in copies[: node.low]:
            result = then(result, copy)
        # Optional copies nest, (x(x(...)?)?)?: each is entered from the last.
        tail = (True, 0, 0)
        for copy in reversed(copies[node.low :]):
            tail = (True, *then(copy, tail)[1:])
        return then(result, tail)

    matches_empty, follow[0], last = visit(ast)
    return matches_empty, follow, entered, last


def _glushkov(ast) -> Fsa:
    """Trimmed position automaton of the AST, plus a fresh accept state."""
    matches_empty, follow, entered, last = _positions(ast)
    accept = len(follow)
    succ = [m | (1 << accept if m & last else 0) for m in follow] + [0]
    pred = [0] * len(succ)
    for q, m in enumerate(succ):
        for t in iter_bits(m):
            pred[t] |= 1 << q
    keep = _sweep(1, succ) & _sweep(1 << accept, pred)
    if not keep >> accept & 1:
        return Fsa(0, [{}] * 256, matches_empty)
    # States number the kept positions in order, the accept state last.
    state_bit = [0] * (accept + 1)
    for i, q in enumerate(iter_bits(keep)):
        state_bit[q] = 1 << i
    final = state_bit[accept]

    def states(positions: int) -> int:
        """The kept positions of a mask as state bits."""
        out = 0
        while positions:
            low = positions & -positions
            out |= state_bit[low.bit_length() - 1]
            positions ^= low
        return out

    # A byte's signature is the positions it enters; one row map per signature.
    signature = [0] * 256
    for label, mask in entered.items():
        for byte in label:
            signature[byte] |= mask
    # ahead[i] holds state i's follow mask in state bits, and in positions
    # its last ones, which may have been trimmed.
    ahead = [(states(follow[q]), follow[q] & last) for q in iter_bits(keep ^ 1 << accept)]
    rows: dict = {}
    for sig in set(signature):
        row = rows[sig] = {}
        entering, ending = states(sig), sig & last
        for i, (mask, ends) in enumerate(ahead):
            targets = mask & entering | (final if ends & ending else 0)
            if targets:
                row[i] = targets
    rows_by_byte = [rows[sig] for sig in signature]
    return Fsa(keep.bit_count(), rows_by_byte, matches_empty)


def _nullable(node) -> bool:
    if isinstance(node, ByteSet):
        return False
    if isinstance(node, Seq):
        return all(map(_nullable, node.parts))
    if isinstance(node, Branch):
        return any(map(_nullable, node.options))
    return node.low == 0 or _nullable(node.item)


def _reduce_edge(node, leading: bool):
    """A non-nullable node with its leading (else trailing) edge reduced.

    The result's language is a subset of the node's, and every word of the
    node has a suffix (else a prefix) in it, so a pattern with this node at
    that edge matches within the same lines.
    """
    # The parts in order, the edge part last: reversed for the leading edge.
    parts = [node]
    while True:
        part = parts.pop()
        if _nullable(part):
            continue
        if isinstance(part, Seq):
            parts += reversed(part.parts) if leading else part.parts
        elif isinstance(part, Repeat):  # low >= 1, since it is not nullable
            parts += [part.item] * part.low
        else:
            if isinstance(part, Branch):
                part = Branch(tuple(_reduce_edge(o, leading) for o in part.options))
            parts.append(part)
            break
    if leading:
        parts.reverse()
    return parts[0] if len(parts) == 1 else Seq(tuple(parts))


def _reduce_line_edges(ast):
    """The AST reduced to the part that decides which lines it matches in.

    A line matches when some factor of it is in the pattern's language, so
    at the leading (trailing) edge a part E may become E' when L(E') is a
    subset of L(E) and every word of E has a suffix (prefix) in L(E'). A
    nullable pattern becomes the empty sequence, since every line matches
    it. Otherwise, at each edge, a nullable part is dropped, a repeat with
    minimum m becomes m copies of its item, a nested sequence is flattened
    and each option of a branch is reduced at the same edge, until the edge
    part is none of these.
    """
    if _nullable(ast):
        return Seq(())
    return _reduce_edge(_reduce_edge(ast, True), False)


def _compile(ast) -> Fsa:
    fsa = _glushkov(ast)
    if fsa.state_count == 0 and not fsa.matches_empty:
        raise NewlinePatternError(
            "newline in pattern: it cannot match any newline-free string"
        )
    return fsa


def compile_pattern(pattern: str) -> Fsa:
    """Compile a pattern into an epsilon-free Fsa of its whole-string language.

    Raises PatternSyntaxError for dialect violations and for patterns over
    the size budgets, and NewlinePatternError when every string the pattern
    could match contains a newline (such patterns cannot match within a
    line).
    """
    return _compile(parse_pattern(pattern))


def compile_line_pattern(pattern: str) -> Fsa:
    """Compile a pattern for line matching, its edges reduced first.

    The automaton matches within the same lines as ``compile_pattern``'s
    and has the same ``matches_empty``, but its whole-string language may
    be smaller (``.{0,9}z`` compiles like ``z``; see ``_reduce_line_edges``).
    Raises as ``compile_pattern`` does, with the size budgets applied to the
    reduced pattern.
    """
    return _compile(_reduce_line_edges(parse_pattern(pattern)))


def nfa_accepts(fsa: Fsa, data: bytes) -> bool:
    """Whole-string acceptance by subset simulation.

    The empty string is accepted exactly when the source pattern matches
    it. Newline bytes are outside the automaton's alphabet.
    """
    if NEWLINE in data:
        raise ValueError("input contains a newline byte")
    if not data:
        return fsa.matches_empty
    current = 1
    for byte in data:
        current = union_rows(current, fsa.rows[byte])
    return current & fsa.final != 0
