"""Rules the package's source keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "forestae"


def test_no_runtime_check_is_an_assert():
    # python -O strips assert statements, and a failing one reaches CLI users
    # as a bare AssertionError; checks raise the package's own errors instead
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
