import contextlib
import io
import json
import os
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_AXIOM, EXAMPLE_PAIRS, PATTERN_ERRORS, raw_zslp
from test_acceptance import _english_like
from test_engine import charged_rows
import zslp.cli
import zslp.engine
import zslp.repair
from zslp.automaton import compile_line_pattern
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


# The CLI reads a pattern as the bytes it was given, so a non-ASCII
# character is its UTF-8 bytes there, not one character outside the alphabet.
ASCII_PATTERN_ERRORS = [case for case in PATTERN_ERRORS if case[0].isascii()]


@pytest.mark.parametrize(
    "pattern, position, message",
    ASCII_PATTERN_ERRORS,
    ids=[p for p, _, _ in ASCII_PATTERN_ERRORS],
)
def test_each_syntax_error_is_one_line(example_file, capsys, pattern, position, message):
    code = run_cli(["count", "-e", pattern, example_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"zslp: pattern error: syntax error at position {position}: {message}\n"
    )


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["count", "-e", b"caf\xc3\xa9"], 0, b"1\n", b""),  # "café" typed in UTF-8
        (["search", "-e", "€|é".encode()], 0, b"caf\xc3\xa9 au lait\n", b""),
        (["count", "-e", "[é]".encode()], 0, b"2\n", b""),  # a class of two bytes
        (["count", "-e", b"\xe9"], 1, b"0\n", b""),  # a raw byte the text lacks
        (
            ["count", "-e", "é(".encode()],
            2,
            b"",
            b"zslp: pattern error: syntax error at position 3: unclosed '('\n",
        ),
    ],
    ids=["utf8-count", "utf8-search", "utf8-class", "raw-byte", "byte-position"],
)
def test_pattern_is_the_bytes_given(tmp_path, capsysbinary, argv, code, out, err):
    packed = tmp_path / "cafe.zslp"
    packed.write_bytes(encode_slp(compress(b"caf\xc3\xa9 au lait\nx\xa9y\nthe\n")))
    # The interpreter decodes each argument with os.fsdecode, so run_cli
    # gets exactly what a shell would pass for these bytes.
    assert run_cli([os.fsdecode(arg) for arg in argv] + [str(packed)]) == code
    captured = capsysbinary.readouterr()
    assert (captured.out, captured.err) == (out, err)


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


@pytest.mark.parametrize(
    "argv", [["count", "-e", "a"], ["search", "-e", "a"], ["stats", "-e", "a"], ["decompress"]]
)
def test_out_of_memory_is_a_one_line_error(example_file, monkeypatch, capsys, argv):
    # Exit 1 would mean "no match"; running out of memory is an error.
    def exhausted(stream):
        raise MemoryError

    monkeypatch.setattr(zslp.cli, "ZslpReader", exhausted)
    assert run_cli([*argv, example_file]) == 2
    assert capsys.readouterr() == ("", "zslp: out of memory\n")


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


def test_compress_empty_input_is_an_input_error(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_bytes(b"")
    packed = tmp_path / "packed.zslp"
    assert run_cli(["compress", str(src), "-o", str(packed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "zslp: input error: refusing to compress empty input\n"
    assert not packed.exists()


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
    assert piped.stdout == Path(example_file).read_bytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_count_memory_follows_the_stream(tmp_path):
    import subprocess

    # count, search and decompress keep the axiom as the id array read, 2
    # bytes per id here; count checks it a block at a time, and search and
    # decompress read it through read-only views. 4M axiom ids of width 2,
    # each 257 ("a\na\n"), may raise a child's peak RSS over that of a
    # one-id stream by at most 6 bytes per id; a tuple of int objects took
    # about 45 (ids from 257 up are not cached small ints). The child reads
    # its peak as VmHWM: its ru_maxrss would keep this process's peak, which
    # Linux carries across the exec. Its output goes to a file.
    code = (
        "import sys\n"
        "from zslp.cli import run_cli\n"
        "status = run_cli(sys.argv[1:])\n"
        "with open('/proc/self/status') as lines:\n"
        "    peak = next(line for line in lines if line.startswith('VmHWM:'))\n"
        "print(status, peak.split()[1], file=sys.stderr)\n"
    )
    commands = (["count", "-e", "a"], ["search", "-e", "a"], ["decompress"])
    peaks = {}
    for ids in (1, 4 << 20):
        packed = tmp_path / f"{ids}.zslp"
        packed.write_bytes(raw_zslp([(97, 10), (256, 256)], [257] * ids))
        for command in commands:
            written = tmp_path / "out"
            with open(written, "wb") as out:
                proc = subprocess.run(
                    [sys.executable, "-c", code, *command, packed],
                    stdout=out,
                    stderr=subprocess.PIPE,
                    text=True,
                    timeout=120,
                    check=True,
                )
            status, peak_kib = map(int, proc.stderr.split())
            assert status == 0
            if command[0] == "count":
                assert written.read_bytes() == b"%d\n" % (2 * ids)
            else:  # every line matches: the whole text, 4 bytes per id
                assert written.stat().st_size == 4 * ids
                with open(written, "rb") as text:
                    assert text.read(8) == b"a\na\na\na\n"[: 4 * ids]
            peaks[command[0], ids] = peak_kib
    for command in commands:
        name = command[0]
        per_id = (peaks[name, 4 << 20] - peaks[name, 1]) * 1024 / (4 << 20)
        assert per_id < 6, f"{name}: {per_id:.1f} bytes of peak RSS per axiom id"


def test_parser_is_built_once_per_process(example_file, capsys):
    import subprocess

    # Importing the CLI builds nothing; the first run_cli call builds the
    # parser and later calls reuse it.
    code = "import zslp.cli as cli; print(cli._build_parser.cache_info().currsize)"
    imported = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    assert imported.stdout == "0\n"
    zslp.cli._build_parser.cache_clear()
    assert run_cli(["count", "-e", "ab|ba", example_file]) == 0
    assert run_cli(["count", "-e", "ab|ba", example_file]) == 0
    info = zslp.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_shared_parser_answers_like_fresh_processes(example_file, capsysbinary):
    import subprocess

    # A usage error leaves nothing behind in the shared parser: the next
    # call answers as a fresh process does.
    runs = (["count"], ["count", "-e", "ab|ba", example_file])
    fresh = [
        subprocess.run([sys.executable, "-m", "zslp", *argv], capture_output=True)
        for argv in runs
    ]
    for argv, proc in zip(runs, fresh):
        code = run_cli(argv)
        captured = capsysbinary.readouterr()
        assert (code, captured.out, captured.err) == (
            proc.returncode,
            proc.stdout,
            proc.stderr,
        ), argv
    assert [proc.returncode for proc in fresh] == [2, 0]


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


@pytest.mark.parametrize(
    "argv",
    [["count", "-e", "ab"], ["search", "-e", "ab"], ["stats", "-e", "ab"], ["decompress"]],
    ids=["count", "search", "stats", "decompress"],
)
def test_stream_over_the_id_limit_is_a_format_error(tmp_path, capsysbinary, argv):
    # The header states 2**24 rules and 1 axiom symbol over a 10-byte body.
    packed = tmp_path / "huge.zslp"
    packed.write_bytes(b"ZSLP\x02\x80\x80\x80\x08\x01\x02" + b"\x61" * 10)
    assert run_cli(argv + [str(packed)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == (
        b"zslp: format error: header states 33554433 symbol ids, "
        b"over the 16777216-id limit\n"
    )


# The version-1 stream of rule (97, 98) and axiom 256 256: every id a varint.
VERSION_1_ZSLP = bytes.fromhex("5a534c50010161620280028002")


@pytest.mark.parametrize(
    "argv",
    [["count", "-e", "ab"], ["search", "-e", "ab"], ["stats", "-e", "ab"], ["decompress"]],
    ids=["count", "search", "stats", "decompress"],
)
def test_version_1_stream_is_a_format_error(tmp_path, capsysbinary, argv):
    packed = tmp_path / "old.zslp"
    packed.write_bytes(VERSION_1_ZSLP)
    assert run_cli(argv + [str(packed)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == b"zslp: format error: unsupported version 1\n"


@pytest.mark.parametrize(
    "pairs, axiom, message",
    [
        ([(97, 98), (256, 300)], [257], "rule 2 references undefined/later symbol 300"),
        ([(97, 257)], [256], "rule 1 references undefined/later symbol 257"),
        ([(97, 98)], [97, 258], "axiom position 1 references undefined symbol 258"),
    ],
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
def test_undefined_symbols_are_one_line_errors(
    tmp_path, capsysbinary, argv, pairs, axiom, message
):
    # Every command reads the stream through the same check, so each prints
    # the same line for the same fault.
    packed = tmp_path / "bad.zslp"
    packed.write_bytes(raw_zslp(pairs, axiom))
    assert run_cli(argv + [str(packed)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == f"zslp: format error: {message}\n".encode()


@pytest.mark.parametrize(
    "argv",
    [["count", "-e", "ab"], ["search", "-e", "ab"], ["stats", "-e", "ab"], ["decompress"]],
    ids=["count", "search", "stats", "decompress"],
)
def test_many_undefined_symbols_give_a_short_line(tmp_path, capsysbinary, argv):
    # No rules, and a 50,000-symbol axiom of undefined ids: the message names
    # the first three and counts the rest.
    packed = tmp_path / "bad.zslp"
    packed.write_bytes(raw_zslp([], range(256, 256 + 50_000)))
    assert run_cli(argv + [str(packed)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert len(captured.err) < 1024
    assert captured.err == (
        b"zslp: format error: axiom position 0 references undefined symbol 256; "
        b"axiom position 1 references undefined symbol 257; "
        b"axiom position 2 references undefined symbol 258; and 49997 more\n"
    )


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


@pytest.fixture(scope="module")
def prose_file(tmp_path_factory):
    text = _english_like(65536, random.Random(20260809))
    packed = tmp_path_factory.mktemp("prose") / "prose.zslp"
    packed.write_bytes(encode_slp(compress(text)))
    return text, str(packed)


@pytest.mark.parametrize("pattern", ["t.{0,200}g", "a.{0,64}b"])
def test_inner_wide_repeat_agrees_with_the_oracle(prose_file, capsysbinary, pattern):
    # An inner repeat keeps its states (203 for t.{0,200}g), so each rule's
    # relation holds a row for most of them.
    text, packed = prose_file
    lines = oracle_lines(text, pattern)
    assert lines
    assert run_cli(["count", "-e", pattern, packed]) == 0
    assert capsysbinary.readouterr().out == b"%d\n" % len(lines)
    assert run_cli(["search", "-e", pattern, packed]) == 0
    assert capsysbinary.readouterr().out == b"".join(line + b"\n" for line in lines)


@pytest.mark.parametrize(
    "pattern, message",
    [
        ("a((.?){512}){4}z", "pattern too large: over 1000000 transition pairs"),
        ("((" + "()" * 500 + "a){512}){39}", "pattern too large: over 200000 node copies"),
        (
            "(((\n{512}){512}){512}){512}",
            "newline in pattern: it cannot match any newline-free string",
        ),
    ],
    ids=["pair-budget", "visit-budget", "nested-newline-repeats"],
)
def test_huge_pattern_is_a_pattern_error(example_file, capsys, pattern, message):
    # A budget refusal names the budget, not a syntax error at some position.
    start = time.process_time()
    code = run_cli(["count", "-e", pattern, example_file])
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"zslp: pattern error: {message}\n"
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


def test_budget_between_built_and_every_rule_rows_answers(log_file, capsysbinary, monkeypatch):
    # The budget charges the rows saturate builds, each distinct pair of
    # kinds once. Set between those and the rows of every rule, which it
    # charged before, it lets count and search answer as the oracle does.
    pattern = "host-(alpha|gamma) .*(html|js)"
    with open(log_file, "rb") as stream:
        slp = decode_slp(stream.read())
    fsa = compile_line_pattern(pattern)
    assert fsa.state_count < 64  # rows are words
    rule_rows, charged = charged_rows(slp.rules, fsa)
    budget = (sum(charged) + sum(rule_rows)) // 2
    assert sum(charged) <= budget < sum(rule_rows)
    monkeypatch.setattr(zslp.engine, "MAX_RELATION_WORDS", budget)
    lines = oracle_lines(expand(slp), pattern)
    assert lines
    assert run_cli(["count", "-e", pattern, log_file]) == 0
    assert capsysbinary.readouterr().out == b"%d\n" % len(lines)
    assert run_cli(["search", "-e", pattern, log_file]) == 0
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
    assert proc.stderr == (
        b"zslp: pattern error: pattern too large: over 50000000 relation words\n"
    )
    assert cpu < 10


# stats --json on the generated corpora, as recorded before the compiler
# built rows in state space and stats costed pairs from per-kind columns.
PINNED_STATS = {
    ("prose", "t.{0,64}g"): (
        '{"states": 67, "states_cubed": 300763, "states_squared": 4489, "rules": 1795,'
        ' "axiom_len": 9418, "rule_percentiles": {"50": 244, "75": 254, "95": 357,'
        ' "98": 368, "100": 431}, "axiom_percentiles": {"50": 59, "75": 61, "95": 120,'
        ' "98": 123, "100": 127}, "measured_ops": 251418}'
    ),
    ("prose", "(GET|POST) .{0,20}(item|stat)"): (
        '{"states": 36, "states_cubed": 46656, "states_squared": 1296, "rules": 1795,'
        ' "axiom_len": 9418, "rule_percentiles": {"50": 81, "75": 93, "95": 123,'
        ' "98": 133, "100": 157}, "axiom_percentiles": {"50": 15, "75": 17, "95": 31,'
        ' "98": 33, "100": 43}, "measured_ops": 87901}'
    ),
    ("log", "t.{0,64}g"): (
        '{"states": 67, "states_cubed": 300763, "states_squared": 4489, "rules": 1687,'
        ' "axiom_len": 826, "rule_percentiles": {"50": 104, "75": 134, "95": 258,'
        ' "98": 258, "100": 387}, "axiom_percentiles": {"50": 2, "75": 2, "95": 63,'
        ' "98": 63, "100": 91}, "measured_ops": 75060}'
    ),
    ("log", "(GET|POST) .{0,20}(item|stat)"): (
        '{"states": 36, "states_cubed": 46656, "states_squared": 1296, "rules": 1687,'
        ' "axiom_len": 826, "rule_percentiles": {"50": 38, "75": 56, "95": 95,'
        ' "98": 95, "100": 140}, "axiom_percentiles": {"50": 1, "75": 1, "95": 19,'
        ' "98": 19, "100": 19}, "measured_ops": 23877}'
    ),
}


@pytest.mark.parametrize("corpus, pattern", sorted(PINNED_STATS))
def test_stats_json_is_pinned(prose_file, log_file, capsys, corpus, pattern):
    packed = prose_file[1] if corpus == "prose" else log_file
    assert run_cli(["stats", "--json", "-e", pattern, packed]) == 0
    assert capsys.readouterr().out == PINNED_STATS[corpus, pattern] + "\n"


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
