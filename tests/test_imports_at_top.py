"""Every import in the package sits at module level: a function body holds
no ``import`` statement, so what a module depends on is read off its top
and no call pays for an import."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "branchpolar"


def imports_in_functions(tree: ast.Module) -> list[int]:
    """Line numbers of the import statements inside a function body."""
    return sorted({
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_src_imports_only_at_module_level():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules found under {SRC}"
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in imports_in_functions(tree)]
    assert not found, found


def test_guard_sees_function_level_imports():
    tree = ast.parse(
        "import json\n"
        "def load():\n"
        "    import random\n"
        "    return random\n"
        "class Codec:\n"
        "    def encode(self):\n"
        "        from fractions import Fraction\n"
        "        return Fraction\n"
    )
    assert imports_in_functions(tree) == [3, 7]
