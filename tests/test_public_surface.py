"""Every name in ``branchpolar.__all__``, and every module-level function and
class of ``src/``, is used by the program itself: some module of ``src/``,
``bench/`` or ``demos/`` refers to it besides its own definition and the
package's re-export, so helpers that only tests use stay out of ``src/``
(they live in ``tests/oracles.py``)."""

import ast
from pathlib import Path

import branchpolar

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "branchpolar" / "__init__.py"


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a module uses: loaded names, attributes, imported names and
    string constants equal to a name (the bench tracer names its targets
    as strings).  A ``def`` or ``class`` statement defines its name without
    referring to it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _used(sources) -> set[str]:
    used = set()
    for path in sources:
        if path != INIT:
            used |= referenced_names(_parse(path))
    return used


def unused_public_names(exported, sources) -> list[str]:
    return sorted(set(exported) - _used(sources))


def unused_definitions(modules, sources) -> list[str]:
    """``module.name`` for each module-level function or class of
    ``modules`` that no file of ``sources`` refers to."""
    used = _used(sources)
    return sorted(
        f"{path.stem}.{node.name}"
        for path in modules
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    )


def _sources():
    return [p for d in ("src", "bench", "demos") for p in sorted((ROOT / d).rglob("*.py"))]


def test_every_public_name_is_used_outside_tests():
    assert _sources()
    assert unused_public_names(branchpolar.__all__, _sources()) == []


def test_every_src_definition_is_used_outside_tests():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert modules
    assert unused_definitions(modules, _sources()) == []


def test_guard_sees_a_test_only_name(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def used():\n    return 1\n\n"
        "def test_only():\n    return used()\n\n"
        "class Kept:\n    pass\n\n"
        "TRACED = ('lib', 'traced')\n\n"
        "def traced():\n    return Kept()\n"
    )
    assert unused_public_names(["used", "test_only", "Kept", "traced"], [lib]) == ["test_only"]
    assert unused_definitions([lib], [lib]) == ["lib.test_only"]
