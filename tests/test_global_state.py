"""The package keeps no process-global mutable state: no ``global``
statement and no module-level ``itertools.count``, so a result never depends
on what ran before it in the same process."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "branchpolar"


def _import_time_nodes(tree: ast.Module):
    """Every node evaluated when the module is imported: the module and
    class bodies, without function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _is_count_call(node: ast.AST, count_names: set) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Attribute):
        return f.attr == "count" and isinstance(f.value, ast.Name) and f.value.id == "itertools"
    return isinstance(f, ast.Name) and f.id in count_names


def hidden_state(tree: ast.Module) -> list[str]:
    """``global`` statements anywhere, and ``itertools.count(...)`` calls run
    at import time, as ``"<line>: <what>"``."""
    found = [
        f"{node.lineno}: global {', '.join(node.names)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
    ]
    count_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
        if alias.name == "count"
    }
    found += [
        f"{node.lineno}: itertools.count at import time"
        for node in _import_time_nodes(tree)
        if _is_count_call(node, count_names)
    ]
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


def test_src_keeps_no_global_state():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules found under {SRC}"
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{hit}" for hit in hidden_state(tree)]
    assert not found, found


def test_guard_sees_global_state():
    tree = ast.parse(
        "import itertools\n"
        "from itertools import count as fresh\n"
        "_ids = itertools.count(1)\n"
        "class Namer:\n"
        "    ids = fresh()\n"
        "_n = 0\n"
        "def bump():\n"
        "    global _n\n"
        "    _n += 1\n"
        "def local_counter():\n"
        "    return itertools.count()\n"
    )
    assert hidden_state(tree) == [
        "3: itertools.count at import time",
        "5: itertools.count at import time",
        "8: global _n",
    ]
