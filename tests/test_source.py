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


def _scipy_imports(tree: ast.AST, scope: tuple[str, ...] = ()):
    """The dotted scope (class and function names) of each import of SciPy."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scipy_imports(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield ".".join(scope)
        yield from _scipy_imports(node, scope)


def test_scipy_is_imported_only_by_the_oracle_methods():
    # SciPy is a test dependency: the package runs on numpy alone, and only the
    # CSR oracle that tests and perfbench's traced run read imports it
    found = sorted(f"{path.name}:{scope}" for path in sorted(SRC.glob("*.py"))
                   for scope in _scipy_imports(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == ["kernel.py:LeafFactor.tocsr", "kernel.py:SparseKernelMatrix.matrix"]
