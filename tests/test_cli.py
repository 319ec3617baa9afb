import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_AXIOM, EXAMPLE_PAIRS
import zslp.cli
import zslp.repair
from zslp.cli import run_cli
from zslp.oracle import oracle_count, oracle_lines
from zslp.repair import compress
from zslp.slp import Slp, SlpFormatError, decode_slp, encode_slp, expand


@pytest.fixture
def example_file(tmp_path):
    slp = Slp(EXAMPLE_PAIRS, EXAMPLE_AXIOM)
    path = tmp_path / "example1.zslp"
    path.write_bytes(encode_slp(slp))
    return str(path)


def test_count_match(example_file, capsys):
    code = run_cli(["count", "-e", "ab|ba", example_file])
    assert capsys.readouterr().out == "3\n"
    assert code == 0


def test_count_no_match(example_file, capsys):
    code = run_cli(["count", "-e", "zz", example_file])
    assert capsys.readouterr().out == "0\n"
    assert code == 1


def test_count_pattern_error(example_file, capsys):
    code = run_cli(["count", "-e", "ab(", example_file])
    captured = capsys.readouterr()
    assert code == 2
    assert "syntax error" in captured.err
    assert captured.out == ""


def test_bad_magic_reports_format_error(tmp_path, capsys):
    path = tmp_path / "bad.zslp"
    path.write_bytes(b"XXXXjunk")
    code = run_cli(["count", "-e", "a", str(path)])
    assert code == 2
    assert "bad magic" in capsys.readouterr().err


def test_missing_file_reports_io_error(capsys):
    code = run_cli(["count", "-e", "a", "/nonexistent/nowhere.zslp"])
    assert code == 2
    assert "io error" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run_cli(["count"]) == 2  # missing -e
    assert run_cli(["frobnicate"]) == 2


def test_compress_decompress_roundtrip(tmp_path, capsys):
    data = bytes(range(256)) * 3 + b"\nlines\nof\ntext\n"
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    packed = tmp_path / "packed.zslp"
    out = tmp_path / "restored.bin"
    assert run_cli(["compress", str(src), "-o", str(packed)]) == 0
    err = capsys.readouterr().err
    assert "rules=" in err and "ratio=" in err
    assert run_cli(["decompress", str(packed), "-o", str(out)]) == 0
    assert out.read_bytes() == data


def test_compress_encodes_the_grammar_once(tmp_path, monkeypatch, capsys):
    calls = []
    real_encode = zslp.cli.encode_slp

    def counted_encode(slp):
        calls.append(slp)
        return real_encode(slp)

    monkeypatch.setattr(zslp.cli, "encode_slp", counted_encode)
    monkeypatch.setattr(zslp.repair, "encode_slp", counted_encode)
    data = b"one two three two one\n" * 30
    src = tmp_path / "input.txt"
    src.write_bytes(data)
    packed = tmp_path / "packed.zslp"
    assert run_cli(["compress", str(src), "-o", str(packed)]) == 0
    assert len(calls) == 1
    slp = decode_slp(packed.read_bytes())
    assert capsys.readouterr().err == (
        f"rules={len(slp.rules)} axiom_len={len(slp.axiom)} "
        f"ratio={len(data) / packed.stat().st_size:.3f}\n"
    )


def test_compress_input_over_the_limit_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(zslp.cli, "MAX_INPUT_BYTES", 16)
    src = tmp_path / "input.txt"
    packed = tmp_path / "packed.zslp"
    src.write_bytes(b"ab\n" * 5 + b"ab")  # 17 bytes
    assert run_cli(["compress", str(src), "-o", str(packed)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("zslp: input error: ")
    assert captured.err.count("\n") == 1 and "16-byte limit" in captured.err
    assert not packed.exists()
    src.write_bytes(b"ab\n" * 5 + b"a")  # 16 bytes: at the limit
    assert run_cli(["compress", str(src), "-o", str(packed)]) == 0
    assert expand(decode_slp(packed.read_bytes())) == src.read_bytes()


def test_compress_stdin_stdout(tmp_path, monkeypatch, capsysbinary):
    data = b"to be or not to be, that is the question\n" * 4
    monkeypatch.setattr(
        sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1")
    )
    assert run_cli(["compress"]) == 0
    payload = capsysbinary.readouterr().out
    slp = decode_slp(payload)
    from zslp.slp import expand

    assert expand(slp) == data


def test_search_outputs_matching_lines(example_file, capsysbinary):
    code = run_cli(["search", "-e", "ab|ba", example_file])
    assert capsysbinary.readouterr().out == b"ba\nab\naba\n"
    assert code == 0


def test_search_no_match_exit_one(example_file, capsysbinary):
    code = run_cli(["search", "-e", "zz", example_file])
    assert capsysbinary.readouterr().out == b""
    assert code == 1


def test_stats_text_output(example_file, capsys):
    assert run_cli(["stats", "-e", "ab|ba", example_file]) == 0
    out = capsys.readouterr().out
    assert "s=4" in out
    assert "per-rule ops" in out


def test_stats_json_output(example_file, capsys):
    assert run_cli(["stats", "-e", "ab|ba", "--json", example_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["states"] == 4
    assert payload["rules"] == 7
    assert set(payload["rule_percentiles"]) == {"50", "75", "95", "98", "100"}


def test_module_invocation_subprocess(example_file):
    import subprocess

    result = subprocess.run(
        [sys.executable, "-m", "zslp", "count", "-e", "ab|ba", example_file],
        capture_output=True,
    )
    assert result.stdout == b"3\n"
    assert result.returncode == 0
    # compress | decompress is the identity, here over the raw zslp bytes
    piped = subprocess.run(
        f"{sys.executable} -m zslp compress < {example_file} | "
        f"{sys.executable} -m zslp decompress",
        shell=True,
        capture_output=True,
    )
    assert piped.returncode == 0
    assert piped.stdout == open(example_file, "rb").read()


def test_count_equals_decompress_then_oracle(tmp_path, capsys):
    corpus = [
        b"alpha beta\ngamma\n",
        b"no trailing newline",
        b"\n\nempty runs\n\n\n",
        bytes(range(1, 256)),
    ]
    for i, data in enumerate(corpus):
        src = tmp_path / f"c{i}.bin"
        src.write_bytes(data)
        packed = tmp_path / f"c{i}.zslp"
        assert run_cli(["compress", str(src), "-o", str(packed)]) == 0
        capsys.readouterr()
        code = run_cli(["count", "-e", "a", str(packed)])
        out = capsys.readouterr().out
        assert int(out) == oracle_count(data, "a")
        assert code == (0 if int(out) > 0 else 1)


@pytest.mark.parametrize(
    "pattern",
    ["(" * 2000 + "a" + ")" * 2000, "a" + "*" * 3000],
    ids=["nested-groups", "stacked-repeats"],
)
def test_deep_pattern_nesting_is_a_pattern_error(example_file, capsys, pattern):
    code = run_cli(["count", "-e", pattern, example_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "pattern error" in captured.err and "nested deeper" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["count", "-e", "ab"], ["search", "-e", "ab"], ["stats", "-e", "ab"], ["decompress"]],
    ids=["count", "search", "stats", "decompress"],
)
def test_trailing_data_after_axiom_is_a_format_error(tmp_path, capsysbinary, argv):
    packed = tmp_path / "junk.zslp"
    packed.write_bytes(encode_slp(compress(b"ab\nba\n")) + b"JUNK")
    code = run_cli(argv + [str(packed)])
    captured = capsysbinary.readouterr()
    assert code == 2
    assert captured.err.count(b"\n") == 1
    assert b"format error" in captured.err and b"trailing data" in captured.err


def _raw_zslp(pairs, axiom) -> bytes:
    """ZSLP bytes for the rules and axiom as given, valid or not."""
    values = [len(pairs)] + [sym for pair in pairs for sym in pair]
    values += [len(axiom)] + list(axiom)
    out = bytearray(b"ZSLP\x01")
    for value in values:
        while value >= 0x80:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


@pytest.mark.parametrize(
    "pairs, axiom",
    [([(97, 98), (256, 300)], [257]), ([(97, 257)], [256]), ([(97, 98)], [97, 258])],
    ids=["undefined-rule-symbol", "self-reference", "undefined-axiom-symbol"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "-e", "ab"],
        ["count", "-e", "x*"],  # every line matches: counted without the automaton
        ["search", "-e", "ab"],
        ["stats", "-e", "ab"],
        ["decompress"],
    ],
    ids=["count", "count-every-line", "search", "stats", "decompress"],
)
def test_undefined_symbols_are_one_line_errors(tmp_path, capsysbinary, argv, pairs, axiom):
    packed = tmp_path / "bad.zslp"
    packed.write_bytes(_raw_zslp(pairs, axiom))
    assert run_cli(argv + [str(packed)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.count(b"\n") == 1
    assert captured.err.startswith((b"zslp: format error: ", b"zslp: grammar error: "))
    assert b"undefined" in captured.err


def test_wide_bounded_repeat_counts_like_the_oracle(tmp_path, capsys):
    text = b"z\n" + b"a" * 600 + b"z\n" + b"b" * 300 + b"\nzz\n" + b"y" * 513 + b"\n"
    src = tmp_path / "wide.txt"
    src.write_bytes(text)
    packed = tmp_path / "wide.zslp"
    assert run_cli(["compress", str(src), "-o", str(packed)]) == 0
    capsys.readouterr()
    for pattern in (".{0,512}z", "a.{0,512}z", "y{512}"):
        assert run_cli(["count", "-e", pattern, str(packed)]) == 0
        assert int(capsys.readouterr().out) == oracle_count(text, pattern), pattern


@pytest.mark.parametrize(
    "pattern, message",
    [
        ("a((.?){512}){4}z", "too large"),
        ("((" + "()" * 500 + "a){512}){39}", "too large"),
        ("(((\n{512}){512}){512}){512}", "newline"),
    ],
    ids=["pair-budget", "visit-budget", "nested-newline-repeats"],
)
def test_huge_pattern_is_a_pattern_error(example_file, capsys, pattern, message):
    start = time.process_time()
    code = run_cli(["count", "-e", pattern, example_file])
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "pattern error" in captured.err and message in captured.err
    assert elapsed < 10


def test_edge_blow_up_reduces_to_its_core(tmp_path, capsysbinary):
    # Only "z" decides which lines match; the blow-up at the leading edge
    # is not compiled (with "a" in front, the pattern above is too large).
    text = b"z\n" + b"a" * 600 + b"z\n" + b"b" * 300 + b"\nzz\ny\n"
    src = tmp_path / "edge.txt"
    src.write_bytes(text)
    packed = str(tmp_path / "edge.zslp")
    assert run_cli(["compress", str(src), "-o", packed]) == 0
    capsysbinary.readouterr()
    pattern = "((.?){512}){4}z"
    assert run_cli(["count", "-e", pattern, packed]) == 0
    assert capsysbinary.readouterr().out == b"%d\n" % oracle_count(text, "z")
    assert run_cli(["search", "-e", pattern, packed]) == 0
    assert capsysbinary.readouterr().out == b"".join(
        line + b"\n" for line in oracle_lines(text, "z")
    )


@pytest.fixture(scope="module")
def log_file(tmp_path_factory):
    text = "".join(
        f"host-{('alpha', 'beta', 'gamma', 'delta')[i % 4]} - - [10/Aug/2026:"
        f"{i % 24:02d}:{i * 7 % 60:02d}:{i * 13 % 60:02d}] "
        f'"GET /{("index.html", "api/v1/items", "app.js", "favicon.ico")[i % 4]} '
        f'HTTP/1.1" {200 if i % 9 else 404} {1000 + i % 50}\n'
        for i in range(2000)
    )
    packed = tmp_path_factory.mktemp("log") / "log.zslp"
    packed.write_bytes(encode_slp(compress(text.encode())))
    return str(packed)


def test_wide_pattern_matching_empty_prints_every_line(log_file, capsysbinary):
    # Every line matches, since the pattern matches "". Its 8,193 states
    # take no relation rows then; saturating them would overrun the budget
    # (as the next test shows for the same pattern without "?").
    pattern = "((.{512}){16})?"
    assert run_cli(["decompress", log_file]) == 0
    text = capsysbinary.readouterr().out
    assert run_cli(["search", "-e", pattern, log_file]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == text and captured.err == b""
    assert run_cli(["count", "-e", pattern, log_file]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == b"%d\n" % text.count(b"\n") and captured.err == b""


@pytest.mark.parametrize(
    "pattern", [".{0,32}z", "[a-z]{2,20}\\.ico", '1\\.1" [0-9]{3} 10[0-9]{1,8}']
)
def test_edge_reduced_patterns_agree_with_the_oracle(log_file, capsysbinary, pattern):
    with open(log_file, "rb") as stream:
        text = expand(decode_slp(stream.read()))
    lines = oracle_lines(text, pattern)
    code = 0 if lines else 1
    assert run_cli(["count", "-e", pattern, log_file]) == code
    assert capsysbinary.readouterr().out == b"%d\n" % len(lines)
    assert run_cli(["search", "-e", pattern, log_file]) == code
    assert capsysbinary.readouterr().out == b"".join(line + b"\n" for line in lines)


@pytest.mark.parametrize("command", ["count", "search", "stats"])
def test_wide_automaton_over_relation_budget_is_a_pattern_error(log_file, command):
    import resource
    import subprocess

    # (.{512}){16} compiles to 8,193 states. Saturating this log's grammar
    # for it takes over 1 GB without the engine's relation budget.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "zslp", command, "-e", "(.{512}){16}", log_file],
        capture_output=True,
        preexec_fn=limit_memory,
        timeout=120,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1
    assert proc.stderr.startswith(b"zslp: pattern error:")
    assert b"too large" in proc.stderr
    assert cpu < 10


@st.composite
def damaged_zslp(draw):
    """Valid ZSLP bytes of a short text, then mutated, truncated and extended."""
    text = draw(st.binary(min_size=1, max_size=24))
    data = bytearray(encode_slp(compress(text)))
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    del data[draw(st.integers(0, len(data))) :]
    data += draw(st.binary(max_size=4))
    return bytes(data)


def _quiet_cli(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="latin-1")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(argv)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(damaged_zslp())
def test_damaged_zslp_is_decoded_or_rejected(tmp_path, data):
    try:
        slp = decode_slp(data)
    except SlpFormatError:
        slp = None
    packed = tmp_path / "damaged.zslp"
    packed.write_bytes(data)
    for command in ("count", "search"):
        code = _quiet_cli([command, "-e", "a", str(packed)])
        if slp is None:
            assert code == 2
        else:
            assert code == (0 if oracle_count(expand(slp), "a") else 1)


def test_search_into_closed_pipe_exits_quietly(tmp_path):
    import subprocess

    # 2**16 lines of "HTTP\n": far more than a pipe buffer holds
    pairs = [(72, 84), (84, 80), (256, 257), (258, 10)]
    for _ in range(16):
        top = 256 + len(pairs) - 1
        pairs.append((top, top))
    packed = tmp_path / "many.zslp"
    packed.write_bytes(encode_slp(Slp(pairs, [256 + len(pairs) - 1])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "zslp", "search", "-e", "HTTP", str(packed)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(5) == b"HTTP\n"
    proc.stdout.close()  # the reader goes away, like `| head -1`
    assert proc.wait(timeout=60) == 141
    with proc.stderr:
        assert proc.stderr.read() == b""
