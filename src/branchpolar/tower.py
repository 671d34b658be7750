"""Dynamic-evaluation towers of algebraic extensions (D5 style).

A tower is an ordered list of levels; level ``k`` adjoins a generator
satisfying a monic squarefree polynomial over the ring below.  Because the
defining polynomials are only squarefree (never factored), the quotient is a
product of fields rather than a field.  Whenever an operation needs to invert
an element that is a zero divisor, the tower is split along the discovered
factorization and a :class:`TowerSplit` is raised carrying the component
towers; the caller re-runs its computation in each component.  This is the
classical D5 scheme: arithmetic plus zero tests on roots of squarefree
polynomials, with no polynomial factorization anywhere.

Element representations are nested tuples: a stage-0 element is a
``Fraction``; a stage-k element is a tuple of stage-(k-1) elements (dense
coefficients in the k-th generator, reduced modulo its minimal polynomial,
trailing zeros stripped, so ``()`` is zero).  Representations are canonical:
an element is ring-zero iff its representation is empty.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Value = Union[Fraction, "TowerElement"]


class TowerSplit(Exception):
    """A zero divisor was met: the tower splits into two components.

    Attributes
    ----------
    stage : int
        1-based level index whose minimal polynomial factored.
    components : tuple[Tower, Tower]
        The two component towers; their level-``stage`` minimal polynomials
        multiply to the original one.
    """

    def __init__(self, stage: int, components: tuple["Tower", "Tower"]):
        super().__init__(f"tower split at level {stage}")
        self.stage = stage
        self.components = components


class Level:
    """One extension step: a named generator and its monic minimal polynomial.

    ``minpoly`` is a tuple of stage-(k-1) representations of length deg+1
    whose last entry is one.
    """

    __slots__ = ("name", "minpoly")

    def __init__(self, name: str, minpoly: tuple):
        self.name = name
        self.minpoly = minpoly

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def __eq__(self, other):
        return (
            isinstance(other, Level)
            and self.name == other.name
            and self.minpoly == other.minpoly
        )

    def __hash__(self):
        return hash((self.name, self.minpoly))

    def __repr__(self):
        return f"Level({self.name!r}, deg={self.degree})"


def _zero(stage: int):
    return Fraction(0) if stage == 0 else ()


def _one(stage: int):
    one = Fraction(1)
    for _ in range(stage):
        one = (one,)
    return one


def _from_rational(q: Fraction, stage: int):
    if q == 0:
        return _zero(stage)
    rep = q
    for _ in range(stage):
        rep = (rep,)
    return rep


def _is_zero_rep(rep, stage: int) -> bool:
    return rep == 0 if stage == 0 else rep == ()


def _strip(coeffs: list, stage: int) -> tuple:
    n = len(coeffs)
    while n and _is_zero_rep(coeffs[n - 1], stage):
        n -= 1
    return tuple(coeffs[:n])


class Tower:
    """An extension tower over the rationals.

    Immutable; all arithmetic is through module functions or
    :class:`TowerElement`.  ``levels`` is a tuple of :class:`Level`.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: tuple = ()):
        self.levels = tuple(levels)

    # -- basic structure ---------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.levels)

    def degree(self) -> int:
        d = 1
        for lv in self.levels:
            d *= lv.degree
        return d

    def degree_above(self, stage: int) -> int:
        """Product of level degrees strictly above ``stage`` levels."""
        d = 1
        for lv in self.levels[stage:]:
            d *= lv.degree
        return d

    def __eq__(self, other):
        return isinstance(other, Tower) and self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        names = ",".join(f"{lv.name}^{lv.degree}" for lv in self.levels)
        return f"Tower({names or 'QQ'})"

    def is_prefix_of(self, other: "Tower") -> bool:
        h = self.height
        return h <= other.height and other.levels[:h] == self.levels

    # -- element constructors ----------------------------------------------

    def zero(self) -> "TowerElement":
        return TowerElement(self, _zero(self.height))

    def one(self) -> "TowerElement":
        return TowerElement(self, _one(self.height))

    def from_rational(self, q) -> "TowerElement":
        return TowerElement(self, _from_rational(Fraction(q), self.height))

    def generator(self, stage: int) -> "TowerElement":
        """The generator adjoined at 1-based level ``stage``."""
        if not 1 <= stage <= self.height:
            raise ValueError(f"no level {stage} in {self!r}")
        rep = (_zero(stage - 1), _one(stage - 1))
        for _ in range(self.height - stage):
            rep = (rep,)
        return TowerElement(self, rep)

    def lift_rep(self, rep, from_stage: int):
        """Pad a stage-``from_stage`` representation up to the full height."""
        for _ in range(self.height - from_stage):
            rep = (rep,)
        return rep

    def lift(self, v: Value) -> "TowerElement":
        """Coerce a rational or an element of a prefix tower into this one."""
        if isinstance(v, TowerElement):
            if v.tower is self or v.tower == self:
                return TowerElement(self, v.rep)
            if v.tower.is_prefix_of(self):
                return TowerElement(self, self.lift_rep(v.rep, v.tower.height))
            raise ValueError(f"cannot lift element of {v.tower!r} into {self!r}")
        return self.from_rational(Fraction(v))

    # -- adjoining ----------------------------------------------------------

    def adjoin(self, name: str, monic_minpoly: Iterable) -> "Tower":
        """Extend by one level; ``monic_minpoly`` is a list of stage-height
        representations with leading coefficient one (squarefreeness is the
        caller's responsibility)."""
        mp = tuple(monic_minpoly)
        if len(mp) < 3:
            raise ValueError("adjoined minimal polynomial must have degree >= 2")
        if mp[-1] != _one(self.height):
            raise ValueError("minimal polynomial must be monic")
        return Tower(self.levels + (Level(name, mp),))

    # -- projection after splits ---------------------------------------------

    def project_rep(self, rep, stage: int | None = None):
        """Re-reduce a representation from an ancestor tower of the same
        height (whose level minimal polynomials are multiples of ours)."""
        if stage is None:
            stage = self.height
        if stage == 0:
            return rep
        reduced = [self.project_rep(c, stage - 1) for c in rep]
        return _reduce(self, stage, reduced)

    def project_value(self, v: Value) -> Value:
        if isinstance(v, TowerElement):
            if v.tower.height != self.height:
                if v.tower.is_prefix_of(self):
                    return self.lift(v)
                raise ValueError("projection requires towers of equal height")
            return TowerElement(self, self.project_rep(v.rep))
        return v


# -- stage arithmetic on raw representations --------------------------------


def _add(tw: Tower, stage: int, a, b):
    if stage == 0:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = _add(tw, stage - 1, out[i], c)
    return _strip(out, stage - 1)


def _neg(tw: Tower, stage: int, a):
    if stage == 0:
        return -a
    return tuple(_neg(tw, stage - 1, c) for c in a)


def _sub(tw: Tower, stage: int, a, b):
    return _add(tw, stage, a, _neg(tw, stage, b))


def _mul_rat(tw: Tower, stage: int, a, q: Fraction):
    if q == 0:
        return _zero(stage)
    if stage == 0:
        return a * q
    return tuple(_mul_rat(tw, stage - 1, c, q) for c in a)


def _reduce(tw: Tower, stage: int, coeffs: list):
    """Reduce a dense coefficient list modulo the stage's minimal polynomial
    (monic, so no inversions are needed)."""
    mp = tw.levels[stage - 1].minpoly
    d = len(mp) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, d - 1, -1):
        lead = coeffs[i]
        if _is_zero_rep(lead, stage - 1):
            continue
        for k in range(d):
            coeffs[i - d + k] = _sub(
                tw, stage - 1, coeffs[i - d + k], _mul(tw, stage - 1, lead, mp[k])
            )
        coeffs[i] = _zero(stage - 1)
    return _strip(coeffs[:d] if len(coeffs) > d else coeffs, stage - 1)


def _mul(tw: Tower, stage: int, a, b):
    if stage == 0:
        return a * b
    if a == () or b == ():
        return ()
    prod = [_zero(stage - 1)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if _is_zero_rep(ca, stage - 1):
            continue
        for j, cb in enumerate(b):
            if _is_zero_rep(cb, stage - 1):
                continue
            prod[i + j] = _add(tw, stage - 1, prod[i + j], _mul(tw, stage - 1, ca, cb))
    return _reduce(tw, stage, prod)


def _pow(tw: Tower, stage: int, a, n: int):
    out = _one(stage)
    base = a
    while n:
        if n & 1:
            out = _mul(tw, stage, out, base)
        base = _mul(tw, stage, base, base)
        n >>= 1
    return out


# -- classification, inversion and splitting --------------------------------


def _poly_monic_divmod(tw: Tower, stage: int, num: list, den: list):
    """Divide coefficient lists at ``stage`` (entries are stage reps) by a
    monic ``den``; returns (quotient, remainder)."""
    num = list(num)
    dd = len(den) - 1
    q = [_zero(stage)] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if _is_zero_rep(c, stage):
            continue
        q[i - dd] = c
        for k in range(dd + 1):
            num[i - dd + k] = _sub(tw, stage, num[i - dd + k], _mul(tw, stage, c, den[k]))
    r = list(_strip(num, stage))
    return q, r


def _split_at(tw: Tower, stage: int, g: list, h: list) -> TowerSplit:
    """Build the two component towers with level ``stage`` replaced by the
    monic factors ``g`` and ``h`` and all higher levels re-reduced."""
    components = []
    for fac in (g, h):
        levels = list(tw.levels[: stage - 1])
        levels.append(Level(tw.levels[stage - 1].name, tuple(fac)))
        comp = Tower(tuple(levels))
        for lv in tw.levels[stage:]:
            new_mp = tuple(comp.project_rep(c, comp.height) for c in lv.minpoly)
            comp = Tower(comp.levels + (Level(lv.name, new_mp),))
        components.append(comp)
    return TowerSplit(stage, (components[0], components[1]))


def _classify(tw: Tower, stage: int, rep):
    """Decide whether a stage element is zero or a unit.

    Returns ``("zero", None)`` or ``("unit", inverse_rep)``.  Zero divisors
    raise :class:`TowerSplit` instead of returning.
    """
    if stage == 0:
        if rep == 0:
            return ("zero", None)
        return ("unit", Fraction(1) / rep)
    if rep == ():
        return ("zero", None)
    mp = list(tw.levels[stage - 1].minpoly)
    # Extended Euclid tracking s with r = s*rep + t*minpoly.
    r0, s0 = mp, [_zero(stage - 1)]
    r1, s1 = list(rep), [_one(stage - 1)]
    while True:
        # normalize r1 to be monic, stripping zero leading coefficients
        while r1:
            kind, inv = _classify(tw, stage - 1, r1[-1])
            if kind == "zero":
                r1.pop()
                continue
            if inv != _one(stage - 1):
                r1 = [_mul(tw, stage - 1, c, inv) for c in r1]
                s1 = [_mul(tw, stage - 1, c, inv) for c in s1]
            break
        if not r1:
            g = r0
            break
        q, r2 = _poly_monic_divmod(tw, stage - 1, r0, r1)
        s2 = list(s0)
        # s2 = s0 - q*s1
        prod = [_zero(stage - 1)] * (len(q) + len(s1))
        for i, qc in enumerate(q):
            if _is_zero_rep(qc, stage - 1):
                continue
            for j, sc in enumerate(s1):
                prod[i + j] = _add(
                    tw, stage - 1, prod[i + j], _mul(tw, stage - 1, qc, sc)
                )
        if len(s2) < len(prod):
            s2 += [_zero(stage - 1)] * (len(prod) - len(s2))
        for i in range(len(prod)):
            s2[i] = _sub(tw, stage - 1, s2[i], prod[i])
        r0, s0, r1, s1 = r1, s1, list(r2), s2
    # g is monic (last normalization made r1 monic before it became r0)
    if len(g) == 1:
        inv_rep = _reduce(tw, stage, s0) if len(s0) >= 1 else _zero(stage)
        return ("unit", inv_rep)
    if len(g) - 1 >= len(mp) - 1:
        # rep was reduced, so gcd degree < deg(minpoly); this means rep == 0
        return ("zero", None)
    h, rem = _poly_monic_divmod(tw, stage - 1, mp, g)
    if rem:
        raise AssertionError("gcd does not divide the minimal polynomial")
    raise _split_at(tw, stage, g, h)


class TowerElement:
    """An element of a :class:`Tower`; immutable, supports ring arithmetic
    with other elements of the same (or a prefix) tower and with rationals."""

    __slots__ = ("tower", "rep")

    def __init__(self, tower: Tower, rep):
        self.tower = tower
        self.rep = rep

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return _is_zero_rep(self.rep, self.tower.height)

    def __bool__(self) -> bool:
        return not self.is_zero

    def classify(self):
        """("zero"|"unit", inverse or None); may raise :class:`TowerSplit`."""
        kind, inv = _classify(self.tower, self.tower.height, self.rep)
        if kind == "unit":
            return kind, TowerElement(self.tower, inv)
        return kind, None

    def inverse(self) -> "TowerElement":
        kind, inv = self.classify()
        if kind == "zero":
            raise ZeroDivisionError("inversion of zero tower element")
        return inv

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            if other.tower is self.tower or other.tower == self.tower:
                return self, other
            if other.tower.is_prefix_of(self.tower):
                return self, self.tower.lift(other)
            if self.tower.is_prefix_of(other.tower):
                return other.tower.lift(self), other
            raise ValueError("elements of unrelated towers")
        if isinstance(other, (int, Fraction)):
            return self, self.tower.from_rational(other)
        return self, NotImplemented

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.tower, _add(a.tower, a.tower.height, a.rep, b.rep))

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(self.tower, _neg(self.tower, self.tower.height, self.rep))

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.tower, _sub(a.tower, a.tower.height, a.rep, b.rep))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.tower, _mul(a.tower, a.tower.height, a.rep, b.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return TowerElement(self.tower, _pow(self.tower, self.tower.height, self.rep, n))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.tower.from_rational(other)
        if not isinstance(other, TowerElement):
            return NotImplemented
        if other.tower is not self.tower and other.tower != self.tower:
            a, b = self._coerce(other)
            return a.rep == b.rep
        return self.rep == other.rep

    __hash__ = None  # mutable-tower comparisons make hashing a trap

    def __repr__(self):
        return f"TowerElement({self.tower!r}, {self.rep!r})"


# -- value-level helpers (rational or tower element) --------------------------


def value_is_zero(v: Value) -> bool:
    """Ring-zero test; never splits (representations are canonical)."""
    if isinstance(v, TowerElement):
        return v.is_zero
    return v == 0


def classify_value(v: Value):
    """("zero"|"unit", inverse) for a rational or tower element.

    Raises :class:`TowerSplit` on zero divisors.
    """
    if isinstance(v, TowerElement):
        return v.classify()
    v = Fraction(v)
    if v == 0:
        return ("zero", None)
    return ("unit", Fraction(1) / v)


def invert_value(v: Value) -> Value:
    kind, inv = classify_value(v)
    if kind == "zero":
        raise ZeroDivisionError("inversion of zero")
    return inv


def project_value(v: Value, tower: Tower | None) -> Value:
    """Project a value into a component tower (identity on rationals)."""
    if tower is None or not isinstance(v, TowerElement):
        return v
    return tower.project_value(v)


def rep_monomials(rep, stage: int):
    """Yield (exponent_tuple, Fraction) monomials of a representation; the
    exponent tuple lists generator exponents bottom level first."""
    if stage == 0:
        if rep != 0:
            yield ((), rep)
        return
    for i, child in enumerate(rep):
        for exps, q in rep_monomials(child, stage - 1):
            yield exps + (i,), q


def compose_element(target: Tower, gens: list["TowerElement"], rep, stage: int) -> "TowerElement":
    """Evaluate a stage-``stage`` representation at images ``gens`` of its
    generators inside ``target`` (generator i of the source maps to
    ``gens[i]``).  This is how elements move between towers whose levels
    have been reordered or partially identified."""
    out = target.zero()
    cache: dict[tuple[int, int], TowerElement] = {}

    def power(i: int, e: int) -> TowerElement:
        key = (i, e)
        if key not in cache:
            cache[key] = gens[i] ** e
        return cache[key]

    for exps, q in rep_monomials(rep, stage):
        term = target.from_rational(q)
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        out = out + term
    return out


def over_components(tower: Tower, payload, project, compute, min_stage: int = 0):
    """Run ``compute(tower, payload)``, forking on D5 splits.

    ``project(component, payload)`` maps the payload into a component tower.
    Splits at stages <= ``min_stage`` are re-raised (the caller considers
    those levels part of its base field).  Returns a list of
    ``(component_tower, result)`` pairs covering the whole component tree.
    """
    out = []
    stack = [(tower, payload)]
    while stack:
        tw, data = stack.pop()
        try:
            out.append((tw, compute(tw, data)))
        except TowerSplit as sp:
            if sp.stage <= min_stage:
                raise
            for comp in sp.components:
                stack.append((comp, project(comp, data)))
    return out
