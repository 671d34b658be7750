"""One zero test: every value and polynomial in the package is falsy
exactly when it is zero, so no ``.is_zero`` attribute is asked for in
``src/``.  ``TruncatedSeries.is_zero_mod_trunc`` and ``is_exact_zero``
answer different questions (zero up to the truncation, zero with no
truncation left) and are not matched by the guard."""

import ast
from fractions import Fraction as F
from pathlib import Path

from branchpolar.families import SQRT6
from branchpolar.poly import ZX, BivariatePolynomial
from branchpolar.unipoly import umonic

SRC = Path(__file__).resolve().parents[1] / "src" / "branchpolar"


def is_zero_lookups(tree: ast.Module) -> list[int]:
    """Line numbers of the ``.is_zero`` attribute accesses in a module."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "is_zero"
    })


def test_src_asks_no_is_zero_attribute():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules found under {SRC}"
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in is_zero_lookups(tree)]
    assert not found, found


def test_guard_sees_is_zero_lookups():
    tree = ast.parse(
        "if p.is_zero:\n"
        "    pass\n"
        "ok = s.is_zero_mod_trunc or s.is_exact_zero\n"
        "q = [c for c in row if not c.is_zero]\n"
    )
    assert is_zero_lookups(tree) == [1, 4]


def test_polynomials_are_falsy_exactly_when_zero():
    assert not BivariatePolynomial()
    assert not BivariatePolynomial({(1, 2): F(0)})
    assert bool(BivariatePolynomial.one())
    assert BivariatePolynomial.monomial(0, 1, SQRT6)
    x = BivariatePolynomial.monomial(1, 0)
    assert not (x - x)
    assert not ZX()
    assert ZX((0, 3))


def test_umonic_returns_the_monic_list():
    assert umonic([F(1), F(-2), F(4)]) == [F(1, 4), F(-1, 2), F(1)]
    monic = umonic([F(3), F(0), 2 * SQRT6, F(0)])
    assert monic == [SQRT6 / 4, F(0), F(1)]
    assert isinstance(monic, list) and monic[-1] == 1
    already = [F(5), F(1)]
    assert umonic(already) == already and umonic(already) is not already
