"""Properties of the package source as a whole."""

import ast
from pathlib import Path

import zslp

PACKAGE = Path(zslp.__file__).resolve().parent


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
