"""The package has no runtime dependencies beyond the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "branchpolar"


def _imported_packages(tree: ast.AST):
    """(line, top-level package) of every absolute import in a module,
    including imports inside functions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules found under {SRC}"
    allowed = set(sys.stdlib_module_names) | {"branchpolar"}
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name in _imported_packages(tree):
            if name not in allowed:
                foreign.append(f"{path.name}:{line} imports {name}")
    assert not foreign, foreign


def test_guard_sees_a_foreign_import():
    tree = ast.parse("import os\nfrom numpy import array\n\ndef f():\n    import scipy\n")
    names = [name for _line, name in _imported_packages(tree)]
    assert names == ["os", "numpy", "scipy"]
