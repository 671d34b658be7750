"""A small textual format for branch parametrizations.

Grammar (whitespace free-form)::

    spec     := 'x' '=' 't' '^' INT ';' 'y' '=' terms [where]
    terms    := term (('+' | '-') term)*
    term     := [coeff ['*']] 't' ['^' INT]
    coeff    := rational | NAME
    rational := ['-'] INT ['/' INT]
    where    := 'where' NAME '=' rational (',' NAME '=' rational)*

Exponents must be strictly increasing and at least the multiplicity (the
paper's normal forms always have the y-order above x's); parameters are
resolved from the where-clause.  Printing a resolved spec and re-parsing it
yields an identical branch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .branch import PuiseuxBranch
from .errors import DSLError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[=^;+\-*/,]))"
)


@dataclass(frozen=True)
class BranchSpec:
    """A parsed branch: source text, resolved branch, recorded parameters."""

    source: str
    branch: PuiseuxBranch
    parameters: dict = field(default_factory=dict)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            m = _TOKEN.match(text, self.pos)
            if not m or m.end() == self.pos:
                if text[self.pos :].strip():
                    raise DSLError(
                        f"unexpected character {text[self.pos]!r}", self.pos
                    )
                break
            self.pos = m.end()
            for kind in ("num", "name", "op"):
                if m.group(kind) is not None:
                    self.tokens.append((kind, m.group(kind), m.start(kind)))
                    break
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self, kind=None, value=None):
        k, v, pos = self.peek()
        if k is None:
            raise DSLError("unexpected end of input", pos)
        if kind is not None and k != kind:
            raise DSLError(f"expected {kind}, found {v!r}", pos)
        if value is not None and v != value:
            raise DSLError(f"expected {value!r}, found {v!r}", pos)
        self.i += 1
        return k, v, pos

    def accept(self, kind=None, value=None):
        k, v, _ = self.peek()
        if k is None:
            return None
        if kind is not None and k != kind:
            return None
        if value is not None and v != value:
            return None
        return self.next()


def _parse_rational(sc: _Scanner, sign: int = 1) -> Fraction:
    while sc.accept("op", "-"):
        sign = -sign
    _, num, pos = sc.next("num")
    val = Fraction(int(num))
    if sc.accept("op", "/"):
        _, den, dpos = sc.next("num")
        if int(den) == 0:
            raise DSLError("zero denominator", dpos)
        val /= int(den)
    return sign * val


def parse_branch(text: str) -> BranchSpec:
    """Parse a branch spec, resolving parameters from its where-clause."""
    sc = _Scanner(text)
    sc.next("name", "x")
    sc.next("op", "=")
    sc.next("name", "t")
    sc.next("op", "^")
    _, nstr, npos = sc.next("num")
    n = int(nstr)
    if n < 1:
        raise DSLError("multiplicity must be positive", npos)
    sc.next("op", ";")
    sc.next("name", "y")
    sc.next("op", "=")

    raw_terms: list[tuple[int, object, int]] = []  # (exp, coeff or (sign, name), pos)
    sign = 1
    while True:
        while sc.accept("op", "-"):
            sign = -sign
        k, v, pos = sc.peek()
        coeff: object = Fraction(sign)
        if k == "num":
            coeff = sign * _parse_rational(sc)
            sc.accept("op", "*")
        elif k == "name" and v != "t":
            _, pname, _ = sc.next("name")
            coeff = (sign, pname)
            sc.accept("op", "*")
        sc.next("name", "t")
        if sc.accept("op", "^"):
            _, estr, epos = sc.next("num")
            exp = int(estr)
        else:
            exp, epos = 1, pos
        raw_terms.append((exp, coeff, epos))
        if sc.accept("op", "+"):
            sign = 1
            continue
        if sc.accept("op", "-"):
            sign = -1
            continue
        break

    bindings: dict[str, Fraction] = {}
    if sc.accept("name", "where"):
        while True:
            _, pname, _ = sc.next("name")
            sc.next("op", "=")
            bindings[pname] = _parse_rational(sc)
            if not sc.accept("op", ","):
                break
    k, v, pos = sc.peek()
    if k is not None:
        raise DSLError(f"trailing input {v!r}", pos)

    terms: dict[int, Fraction] = {}
    last = 0
    for exp, coeff, pos in raw_terms:
        if exp == last:
            raise DSLError(f"duplicate exponent t^{exp}", pos)
        if exp < last:
            raise DSLError("exponents must be strictly increasing", pos)
        last = exp
        if isinstance(coeff, tuple):
            sign, pname = coeff
            if pname not in bindings:
                raise DSLError(f"parameter {pname!r} has no where-binding", pos)
            value = sign * bindings[pname]
        else:
            value = coeff
        if exp < n:
            raise DSLError(
                f"y-order below multiplicity: t^{exp} with x = t^{n}", pos
            )
        if value:
            terms[exp] = value
    branch = PuiseuxBranch.from_terms(n, terms)
    return BranchSpec(source=text, branch=branch, parameters=bindings)


def format_branch(b: PuiseuxBranch) -> str:
    """Canonical text for a resolved branch; parses back to the same branch."""
    bits = []
    for i, (e, c) in enumerate(b.y_terms):
        if not isinstance(c, Fraction):
            raise ValueError("only rational-coefficient branches have DSL text")
        neg = c < 0
        mag = -c if neg else c
        coeff = "" if mag == 1 else f"{mag} "
        term = f"{coeff}t^{e}"
        if i == 0:
            bits.append(f"-{term}" if neg else term)
        else:
            bits.append(f"- {term}" if neg else f"+ {term}")
    y = " ".join(bits) if bits else "0 t^1"
    return f"x=t^{b.n}; y={y}"
