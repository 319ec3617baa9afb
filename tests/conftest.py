"""Shared fixtures and randomised-input helpers for the test suite."""

import itertools
import random
import re

import pytest

from zslp.automaton import (
    NewlinePatternError,
    PatternSyntaxError,
    compile_pattern,
)
from zslp.slp import Slp


# Grammar deriving "ba\nab\naba" with subtrees "ba\na" and "b\naba":
# X1->b,a  X2->\n,a  X3->X1,X2  X4->b,\n  X5->a,b  X6->X5,a  X7->X4,X6
EXAMPLE_PAIRS = [
    (98, 97),
    (10, 97),
    (256, 257),
    (98, 10),
    (97, 98),
    (260, 97),
    (259, 261),
]
EXAMPLE_AXIOM = [258, 262]
EXAMPLE_TEXT = b"ba\nab\naba"

# Symbol 257 + i derives "ab\n" * 2**i; DOUBLING_TOP derives 98,304 bytes,
# more than one 65,536-byte expansion chunk.
DOUBLING_PAIRS = [(97, 98), (256, 10)] + [(257 + i, 257 + i) for i in range(15)]
DOUBLING_TOP = 256 + len(DOUBLING_PAIRS) - 1

# Every parser error: (pattern, position, message after "syntax error at
# position N: ").
PATTERN_ERRORS = [
    ("a{x}", 2, "expected a number"),
    ("a{600}", 6, "repetition larger than 512"),
    ("a{3,1}", 6, "repetition range {3,1} is decreasing"),
    ("a{2", 3, "malformed repetition, expected '}'"),
    ("[a-", 3, "unclosed range in character class"),
    ("[b-a]", 4, "decreasing range in character class"),
    ("[a\\", 3, "dangling backslash in character class"),
    ("[Ā]", 2, "character 'Ā' is outside the byte alphabet"),
    ("Ā", 1, "character 'Ā' is outside the byte alphabet"),
    ("a\\", 2, "dangling backslash"),
    ("a)", 1, "unexpected ')'"),
    ("*a", 0, "nothing to repeat before '*'"),
    ("(a", 2, "unclosed '('"),
    ("[ab", 3, "unclosed character class"),
    ("^host", 0, "anchor '^' is not supported (write '\\^' to match the character)"),
    ("[0-9]$", 5, "anchor '$' is not supported (write '\\$' to match the character)"),
]


def raw_zslp(pairs, axiom, width=2) -> bytes:
    """ZSLP bytes for the rules and axiom as given, valid or not.

    Ids are written ``width`` bytes wide, so they must fit it.
    """
    out = bytearray(b"ZSLP\x02")
    for count in (len(pairs), len(axiom)):
        while count >= 0x80:
            out.append(count & 0x7F | 0x80)
            count >>= 7
        out.append(count)
    out.append(width)
    for sym in [*itertools.chain.from_iterable(pairs), *axiom]:
        out += sym.to_bytes(width, "little")
    return bytes(out)


@pytest.fixture
def example_slp() -> Slp:
    return Slp(EXAMPLE_PAIRS, EXAMPLE_AXIOM)


@pytest.fixture
def ab_ba_fsa():
    return compile_pattern("ab|ba")


def random_pattern(rng: random.Random, depth: int = 3, alphabet: str = "ab") -> str:
    """A random pattern from the supported dialect."""
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        pick = rng.random()
        if pick < 0.7:
            return rng.choice(alphabet)
        if pick < 0.8:
            return "."
        if pick < 0.9:
            return "[" + "".join(sorted(set(rng.choice(alphabet) for _ in range(2)))) + "]"
        return "[^" + rng.choice(alphabet) + "]"
    if roll < 0.55:
        return random_pattern(rng, depth - 1, alphabet) + random_pattern(
            rng, depth - 1, alphabet
        )
    if roll < 0.7:
        return (
            "("
            + random_pattern(rng, depth - 1, alphabet)
            + "|"
            + random_pattern(rng, depth - 1, alphabet)
            + ")"
        )
    if roll < 0.85:
        return "(" + random_pattern(rng, depth - 1, alphabet) + ")" + rng.choice("*+?")
    low = rng.randrange(0, 3)
    high = low + rng.randrange(0, 3)
    return "(" + random_pattern(rng, depth - 1, alphabet) + ")" + f"{{{low},{high}}}"


def compiled_random_pattern(rng, depth=3, alphabet="ab", max_states=None):
    """Keep drawing until a pattern compiles (and fits the state bound)."""
    while True:
        pattern = random_pattern(rng, depth, alphabet)
        try:
            fsa = compile_pattern(pattern)
        except (NewlinePatternError, PatternSyntaxError):
            continue
        if max_states is not None and not 0 < fsa.state_count <= max_states:
            continue
        return pattern, fsa


def reference_automaton(ast) -> tuple:
    """``(state_count, rows, matches_empty)`` of the trimmed position
    automaton, built cell by cell, for comparison with the compiler's.

    Positions come from the compiler's walk (``_positions``). A position is
    kept when it is reachable from position 0 and reaches the accept state;
    states number the kept ones in order, the accept state last. Each
    (byte signature, kept position) cell renumbers every kept target it
    reaches and adds the accept state when a target is a last position.
    Bytes with one signature share one row map.
    """
    from zslp.automaton import _positions, iter_bits

    matches_empty, follow, entered, last = _positions(ast)
    accept = len(follow)
    succ = [set(iter_bits(m)) | ({accept} if m & last else set()) for m in follow] + [set()]
    pred = [set() for _ in succ]
    for q, targets in enumerate(succ):
        for t in targets:
            pred[t].add(q)

    def reachable(start, step) -> set:
        seen, todo = {start}, [start]
        while todo:
            for t in step[todo.pop()] - seen:
                seen.add(t)
                todo.append(t)
        return seen

    keep = reachable(0, succ) & reachable(accept, pred)
    if accept not in keep:
        return 0, [{}] * 256, matches_empty
    number = {q: i for i, q in enumerate(sorted(keep))}
    final = 1 << number[accept]
    signature = [0] * 256
    for label, mask in entered.items():
        for byte in label:
            signature[byte] |= mask
    rows = {}
    for sig in set(signature):
        row = rows[sig] = {}
        for q in sorted(keep - {accept}):
            m = follow[q] & sig
            targets = sum(1 << number[t] for t in iter_bits(m) if t in keep)
            targets |= final if m & last else 0
            if targets:
                row[number[q]] = targets
    return len(number), [rows[sig] for sig in signature], matches_empty


def sample_from_pattern(rng: random.Random, pattern: str) -> bytes:
    """A random member of the pattern's language (may contain newlines)."""
    from zslp.automaton import Branch, ByteSet, Repeat, Seq, parse_pattern

    def walk(node) -> bytes:
        if isinstance(node, ByteSet):
            if not node.bytes_:
                return b""
            return bytes([rng.choice(sorted(node.bytes_))])
        if isinstance(node, Seq):
            return b"".join(walk(part) for part in node.parts)
        if isinstance(node, Branch):
            return walk(rng.choice(node.options))
        if isinstance(node, Repeat):
            reps = node.low
            bound = node.high if node.high is not None else node.low + 3
            while reps < bound and rng.random() < 0.4:
                reps += 1
            return b"".join(walk(node.item) for _ in range(reps))
        raise TypeError(node)

    return walk(parse_pattern(pattern))


def random_text(
    rng: random.Random,
    max_len: int,
    alphabet: bytes = b"ab\n",
    seeds: list | None = None,
) -> bytes:
    """Random text over the alphabet, optionally splicing in seed strings."""
    n = rng.randrange(1, max_len + 1)
    body = bytearray(rng.choice(alphabet) for _ in range(n))
    for seed in seeds or ():
        if not seed:
            continue
        pos = rng.randrange(0, len(body) + 1)
        body[pos:pos] = seed
    return bytes(body)


def random_grammar(
    rng: random.Random,
    max_rules: int = 30,
    expansion_cap: int = 120,
    terminals: tuple = (97, 98, 10),
) -> Slp:
    """A random valid grammar with bounded expansion lengths."""
    lengths = {t: 1 for t in terminals}
    pairs = []
    symbols = list(terminals)
    for _ in range(rng.randrange(0, max_rules + 1)):
        for _ in range(20):
            first, second = rng.choice(symbols), rng.choice(symbols)
            if lengths[first] + lengths[second] <= expansion_cap:
                break
        else:
            first, second = rng.choice(terminals), rng.choice(terminals)
        left = 256 + len(pairs)
        pairs.append((first, second))
        lengths[left] = lengths[first] + lengths[second]
        symbols.append(left)
    axiom = [rng.choice(symbols) for _ in range(rng.randrange(1, 6))]
    return Slp(pairs, axiom)


def brute_anchored_pairs(fsa, expansion: bytes) -> set:
    """Transitions a symbol with this expansion u must carry after saturation.

    (q1, q2) is included exactly when the automaton reads some factor
    u[i:j] from q1 to q2 with (i == 0 or q1 == 0) and (j == len(u) or q2 is
    the accept state). The whole expansion, suffixes read from state 0,
    prefixes ending in the accept state, and inner factors from state 0 to
    the accept state are the four shapes this covers.
    """
    pairs = set()
    n = len(expansion)
    accept = fsa.state_count - 1
    # prefix relation sweep: left end anchored at position 0
    rel = {(q, q) for q in range(fsa.state_count)}
    for j in range(1, n + 1):
        byte = expansion[j - 1]
        rel = {(q1, t) for (q1, q) in rel for t in fsa.successors(q, byte)}
        if j == n:
            pairs |= rel
        else:
            pairs |= {(q1, q2) for (q1, q2) in rel if q2 == accept}
    # runs rooted at state 0, any start position
    reach = set()
    for j in range(1, n + 1):
        byte = expansion[j - 1]
        sources = reach | {0}
        reach = {t for q in sources for t in fsa.successors(q, byte)}
        if j == n:
            pairs |= {(0, t) for t in reach}
        else:
            pairs |= {(0, t) for t in reach if t == accept}
    return pairs


def fsa_from_cells(state_count, cells, matches_empty=False):
    """An ``Fsa`` from ``{(source, byte): targets}`` cells, one row map per byte."""
    from zslp.automaton import Fsa

    rows = [{} for _ in range(256)]
    for (source, byte), targets in cells.items():
        rows[byte][source] = sum(1 << q for q in targets)
    return Fsa(state_count, rows, matches_empty)


def relation_pairs(rel: dict) -> set:
    """The (source, target) pairs of a saturated ``{source: bitmask}`` row map."""
    return {
        (q1, q2)
        for q1, mask in rel.items()
        for q2 in range(mask.bit_length())
        if mask >> q2 & 1
    }


def symbol_summaries(saturation) -> tuple[list, list]:
    """Per symbol its counting tuple ``(nl, left, right, count)`` and relation.

    Rebuilt from a ``Saturation``'s per-symbol kinds and counts and its
    per-kind records, for the tests that check per-symbol values. A record
    keeps state 0's row apart from its relation; the relation returned
    holds it again when it is not 0, so whole relations compare.
    """
    kinds, counts, table = saturation
    whole = [{0: row, **rel} if row else rel for rel, row, *_ in table]
    infos, rels = [], []
    for kind, count in zip(kinds, counts):
        _, _, nl, left, right = table[kind]
        infos.append((nl, left, right, count))
        rels.append(whole[kind])
    return infos, rels


def is_deterministic(fsa) -> bool:
    """Whether every transition of the automaton has at most one target."""
    return all(m & (m - 1) == 0 for row in fsa.rows for m in row.values())


def op_budget(stats) -> int:
    """The paper's operation budget of a ``SearchStats``: every rule's and
    axiom symbol's cost, plus one per rule and per axiom symbol."""
    costs = itertools.chain(stats.rule_costs.items(), stats.axiom_costs.items())
    return sum(cost * n for cost, n in costs) + stats.p + stats.axiom_len


def max_row_width(rels, fsa) -> int:
    """Widest row leaving a state other than 0, over all symbols' relations."""
    return max(
        (mask.bit_count() for rel in rels for q, mask in rel.items() if q != 0),
        default=0,
    )


def brute_count_info(fsa, expansion: bytes) -> tuple:
    """Definitional counting tuple computed on the uncompressed expansion."""
    from zslp.oracle import factor_match

    segments = expansion.split(b"\n")
    return (
        b"\n" in expansion,
        factor_match(fsa, segments[0]),
        factor_match(fsa, segments[-1]),
        sum(1 for segment in segments[1:-1] if factor_match(fsa, segment)),
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
            if match:
                number = int(match.group(1))
                outcomes[number] = outcomes.get(number, True) and status == "passed"
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(outcomes):
            verdict = "PASS" if outcomes[number] else "FAIL"
            terminalreporter.write_line(f"criterion {number}: {verdict}")
