"""Properties of the package source as a whole."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import zslp
import zslp.cli
import zslp.repair
from zslp.cli import run_cli

PACKAGE = Path(zslp.__file__).resolve().parent
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise instead.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_cold_cli_import_leaves_out_heavy_modules():
    # A zslp process pays for every import: the CLI loads no dataclasses
    # (which imports inspect, ast, dis and tokenize), no typing, and json
    # only for stats --json. -S keeps site's own imports out of the picture.
    code = (
        "import sys, zslp.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'typing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_benchmark_tracer_finds_what_it_swaps(tmp_path, capsysbinary):
    # The benchmark's traced runs (perfbench/run.py --trace 1) swap names of
    # zslp.cli and zslp.repair for timing wrappers; a rename here breaks them.
    tree = ast.parse(TRACING.read_text())
    modules = {"cli": zslp.cli, "repair": zslp.repair}
    swapped = [
        (node.elts[0].id, node.elts[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 3
        and isinstance(node.elts[0], ast.Name)
        and node.elts[0].id in modules
    ]
    assert len(swapped) >= 8
    assert [s for s in swapped if not hasattr(modules[s[0]], s[1])] == []

    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    src = tmp_path / "text.txt"
    src.write_bytes(b"alpha beta\ngamma\nbeta delta\n" * 20)
    packed = str(tmp_path / "text.zslp")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert run_cli(["compress", str(src), "-o", packed]) == 0
        assert run_cli(["count", "-e", "beta", packed]) == 0
        assert run_cli(["search", "-e", "gamma", packed]) == 0
        assert run_cli(["decompress", packed]) == 0
    out = capsysbinary.readouterr().out
    assert out == b"40\n" + b"gamma\n" * 20 + src.read_bytes()
    assert {span.name for span in tracer.spans} == {
        "repair.compress",
        "slp.encode",
        "automaton.compile",
        "engine.saturate",
        "engine.fold",
        "slp.decode",
        "reporter.report",
        "slp.expand",
    }
