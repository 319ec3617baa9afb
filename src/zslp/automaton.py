"""Regular expressions compiled to epsilon-free automata over newline-free bytes.

Supported dialect:

    pattern      := branch ('|' branch)*
    branch       := piece*                      # empty branch matches ""
    piece        := atom repeat*
    repeat       := '*' | '+' | '?' | '{m}' | '{m,}' | '{m,n}'
    atom         := literal | '.' | '(' pattern ')' | class | '\\' any-char

'.' and negated classes match any byte except 0x0A. A backslash makes the
next character a literal. '^' and '$' are ordinary characters (matching is
factor-within-line by construction, so anchors have no role). Classes
support ranges, a leading '^' for negation, and ']' as a literal when it is
the first member. Bytes, not codepoints: every pattern character must have
an ordinal below 256 and matching is case-sensitive.

Compilation builds the usual NFA with epsilon transitions, records whether
the empty string is accepted, then removes epsilons keeping the original
start and accept as the only initial and final state. The result therefore
has no transition entering an initial state and none leaving a final state;
the search engine's saturation step relies on exactly that shape (otherwise
composed transitions could stand for non-contiguous fragments and the
counts would drift). Useless states are trimmed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

NEWLINE = 0x0A
_ALL_BYTES = frozenset(range(256))
_LINE_BYTES = _ALL_BYTES - {NEWLINE}

# Guard rails against pathological patterns, not contractual limits.
_MAX_REPEAT = 512
_MAX_STATES = 20000
_MAX_NESTING = 100  # groups plus stacked repeat operators, on any path


class PatternSyntaxError(ValueError):
    """Pattern rejected by the parser; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class NewlinePatternError(ValueError):
    """Every string the pattern matches would contain a newline."""


# ---------------------------------------------------------------------------
# Pattern AST


@dataclass(frozen=True)
class ByteSet:
    bytes_: frozenset


@dataclass(frozen=True)
class Seq:
    parts: tuple


@dataclass(frozen=True)
class Branch:
    options: tuple


@dataclass(frozen=True)
class Repeat:
    item: object
    low: int
    high: int | None  # None means unbounded


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
            if ch == "*":
                self.pos += 1
                node = Repeat(node, 0, None)
            elif ch == "+":
                self.pos += 1
                node = Repeat(node, 1, None)
            elif ch == "?":
                self.pos += 1
                node = Repeat(node, 0, 1)
            else:
                node = Repeat(node, *self._interval())

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
        ch = self._peek()
        if ch is None:
            self._fail("expected an atom, found end of pattern")
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
        if ch == "\\":
            self.pos += 1
            if self._peek() is None:
                self._fail("dangling backslash")
            return self._literal(self._take()), 0
        if ch in "*+?{":
            self._fail(f"nothing to repeat before {ch!r}")
        if ch in "|)":
            self._fail(f"unexpected {ch!r}")
        self.pos += 1
        if ch == ".":
            return ByteSet(_LINE_BYTES), 0
        return self._literal(ch), 0

    def _literal(self, ch: str):
        code = ord(ch)
        if code > 255:
            self._fail(f"character {ch!r} is outside the byte alphabet")
        return ByteSet(frozenset({code}) - {NEWLINE})

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
        lo = self._class_char()
        if self._peek() == "-":
            # '-' right before ']' is a literal, not a range.
            if self.pos + 1 < len(self.text) and self.text[self.pos + 1] == "]":
                return {lo}
            self.pos += 1
            if self._peek() is None:
                self._fail("unclosed range in character class")
            hi = self._class_char()
            if hi < lo:
                self._fail("decreasing range in character class")
            return set(range(lo, hi + 1))
        return {lo}

    def _class_char(self) -> int:
        ch = self._take()
        if ch == "\\":
            if self._peek() is None:
                self._fail("dangling backslash in character class")
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
# Thompson construction


class _ThompsonNfa:
    def __init__(self):
        self.eps: list[list[int]] = []
        self.edges: list[list[tuple[frozenset, int]]] = []
        self.start = 0
        self.accept = 0

    def new_state(self) -> int:
        self.eps.append([])
        self.edges.append([])
        if len(self.eps) > _MAX_STATES:
            raise PatternSyntaxError("pattern too large", 0)
        return len(self.eps) - 1

    def add_eps(self, src: int, dst: int) -> None:
        self.eps[src].append(dst)

    def add_edge(self, src: int, byteset: frozenset, dst: int) -> None:
        self.edges[src].append((byteset, dst))

    def closure(self, state: int) -> set[int]:
        seen = {state}
        stack = [state]
        while stack:
            q = stack.pop()
            for t in self.eps[q]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen


def _build(nfa: _ThompsonNfa, node) -> tuple[int, int]:
    if isinstance(node, ByteSet):
        s = nfa.new_state()
        t = nfa.new_state()
        nfa.add_edge(s, node.bytes_, t)
        return s, t
    if isinstance(node, Seq):
        if not node.parts:
            s = nfa.new_state()
            t = nfa.new_state()
            nfa.add_eps(s, t)
            return s, t
        start, end = _build(nfa, node.parts[0])
        for part in node.parts[1:]:
            nstart, nend = _build(nfa, part)
            nfa.add_eps(end, nstart)
            end = nend
        return start, end
    if isinstance(node, Branch):
        s = nfa.new_state()
        t = nfa.new_state()
        for option in node.options:
            ostart, oend = _build(nfa, option)
            nfa.add_eps(s, ostart)
            nfa.add_eps(oend, t)
        return s, t
    if isinstance(node, Repeat):
        return _build_repeat(nfa, node)
    raise TypeError(f"unknown pattern node {node!r}")


def _build_star(nfa: _ThompsonNfa, item) -> tuple[int, int]:
    s = nfa.new_state()
    t = nfa.new_state()
    istart, iend = _build(nfa, item)
    nfa.add_eps(s, t)
    nfa.add_eps(s, istart)
    nfa.add_eps(iend, t)
    nfa.add_eps(iend, istart)
    return s, t


def _build_repeat(nfa: _ThompsonNfa, node: Repeat) -> tuple[int, int]:
    if node.low == 0:
        start = end = None
    else:
        start, end = _build(nfa, node.item)
        for _ in range(node.low - 1):
            nstart, nend = _build(nfa, node.item)
            nfa.add_eps(end, nstart)
            end = nend
    if node.high is None:
        sstart, send = _build_star(nfa, node.item)
        if start is None:
            return sstart, send
        nfa.add_eps(end, sstart)
        return start, send
    if start is None:
        start = end = nfa.new_state()
    for _ in range(node.high - node.low):
        nend = nfa.new_state()
        nfa.add_eps(end, nend)
        istart, iend = _build(nfa, node.item)
        nfa.add_eps(end, istart)
        nfa.add_eps(iend, nend)
        end = nend
    return start, end


def build_thompson(node) -> _ThompsonNfa:
    nfa = _ThompsonNfa()
    nfa.start, nfa.accept = _build(nfa, node)
    return nfa


def simulate_thompson(nfa: _ThompsonNfa, data: bytes) -> bool:
    """Reference run of the raw NFA, epsilon closures included."""
    current = nfa.closure(nfa.start)
    for byte in data:
        moved: set[int] = set()
        for q in current:
            for byteset, t in nfa.edges[q]:
                if byte in byteset:
                    moved.add(t)
        current = set()
        for q in moved:
            current |= nfa.closure(q)
        if not current:
            return False
    return nfa.accept in current


# ---------------------------------------------------------------------------
# Epsilon removal and the final automaton


class Fsa:
    """Epsilon-free automaton over the newline-free byte alphabet.

    Immutable after construction. Initial and final state sets are disjoint;
    ``matches_empty`` records whether the source pattern accepted the empty
    string (the automaton itself only accepts non-empty strings). No
    transition enters an initial state or leaves a final state.
    """

    def __init__(
        self,
        state_count: int,
        initials: Iterable[int],
        finals: Iterable[int],
        transitions: dict,
        matches_empty: bool,
    ):
        self.state_count = state_count
        self.initials = frozenset(initials)
        self.finals = frozenset(finals)
        self.matches_empty = matches_empty
        self._succ = {key: frozenset(value) for key, value in transitions.items()}
        if self.initials & self.finals:
            raise ValueError("initial and final state sets must be disjoint")
        for (_, byte), targets in self._succ.items():
            if byte == NEWLINE and targets:
                raise ValueError("automaton must not move on the newline byte")

    def successors(self, state: int, byte: int) -> frozenset:
        return self._succ.get((state, byte), frozenset())

    def iter_transitions(self):
        """Yield (state, byte, frozenset of targets) for every labelled cell."""
        for (state, byte), targets in self._succ.items():
            yield state, byte, targets

    @cached_property
    def is_deterministic(self) -> bool:
        return all(len(targets) <= 1 for targets in self._succ.values())

    def __repr__(self) -> str:
        return (
            f"Fsa(states={self.state_count}, initials={sorted(self.initials)}, "
            f"finals={sorted(self.finals)}, matches_empty={self.matches_empty})"
        )


def remove_epsilon(nfa: _ThompsonNfa) -> Fsa:
    """Turn a Thompson NFA into a trimmed epsilon-free Fsa.

    Transitions are pulled forward through epsilon closures; a copy of every
    transition whose target can reach the accept state by epsilons is bent
    directly onto the accept state. Start and accept stay the only initial
    and final states, the start keeps no incoming transitions and the accept
    no outgoing ones.
    """
    n = len(nfa.eps)
    closures = [nfa.closure(q) for q in range(n)]
    matches_empty = nfa.accept in closures[nfa.start]

    transitions: dict[tuple[int, int], set[int]] = {}

    def add(src: int, byte: int, dst: int) -> None:
        transitions.setdefault((src, byte), set()).add(dst)

    for p in range(n):
        for r in closures[p]:
            for byteset, t in nfa.edges[r]:
                to_accept = nfa.accept in closures[t]
                for byte in byteset:
                    add(p, byte, t)
                    if to_accept:
                        add(p, byte, nfa.accept)

    # Trim to states on some path from start to accept.
    forward = {nfa.start}
    stack = [nfa.start]
    succ_index: dict[int, set[int]] = {}
    pred_index: dict[int, set[int]] = {}
    for (src, _), targets in transitions.items():
        succ_index.setdefault(src, set()).update(targets)
        for t in targets:
            pred_index.setdefault(t, set()).add(src)
    while stack:
        q = stack.pop()
        for t in succ_index.get(q, ()):
            if t not in forward:
                forward.add(t)
                stack.append(t)
    backward = {nfa.accept}
    stack = [nfa.accept]
    while stack:
        q = stack.pop()
        for t in pred_index.get(q, ()):
            if t not in backward:
                backward.add(t)
                stack.append(t)
    keep = forward & backward

    # Acceptance of a non-empty string needs at least one surviving
    # transition into the accept state (start == accept happens for
    # patterns that only match the empty string).
    reaches_accept = nfa.start != nfa.accept and any(
        src in keep for src in pred_index.get(nfa.accept, ())
    )
    if nfa.accept not in keep or not reaches_accept:
        return Fsa(0, (), (), {}, matches_empty)

    renumber = {old: new for new, old in enumerate(sorted(keep))}
    kept_transitions: dict[tuple[int, int], set[int]] = {}
    for (src, byte), targets in transitions.items():
        if src not in renumber:
            continue
        live = {renumber[t] for t in targets if t in renumber}
        if live:
            kept_transitions[(renumber[src], byte)] = live
    return Fsa(
        state_count=len(renumber),
        initials=(renumber[nfa.start],),
        finals=(renumber[nfa.accept],),
        transitions=kept_transitions,
        matches_empty=matches_empty,
    )


def compile_pattern(pattern: str) -> Fsa:
    """Compile a pattern into an epsilon-free Fsa.

    Raises PatternSyntaxError for dialect violations and NewlinePatternError
    when every string the pattern could match contains a newline (such
    patterns cannot match within a line).
    """
    ast = parse_pattern(pattern)
    nfa = build_thompson(ast)
    fsa = remove_epsilon(nfa)
    if fsa.state_count == 0 and not fsa.matches_empty:
        raise NewlinePatternError(
            "newline in pattern: it cannot match any newline-free string"
        )
    return fsa


def nfa_accepts(fsa: Fsa, data: bytes) -> bool:
    """Whole-string acceptance by subset simulation.

    The empty string is accepted exactly when the pattern matched it before
    epsilon removal. Newline bytes are outside the automaton's alphabet.
    """
    if NEWLINE in data:
        raise ValueError("input contains a newline byte")
    if not data:
        return fsa.matches_empty
    current = fsa.initials
    for byte in data:
        moved: set[int] = set()
        for q in current:
            moved |= fsa.successors(q, byte)
        if not moved:
            return False
        current = moved
    return bool(current & fsa.finals)
