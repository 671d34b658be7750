"""Dynamic-evaluation towers of algebraic extensions (D5 style).

A tower is an ordered list of levels; level k adjoins a generator a_k with a
monic squarefree minimal polynomial over the ring below.  The polynomials
are never factored, so the quotient is a product of fields.  Inverting a
zero divisor splits the tower along the factorization it reveals: a
:class:`TowerSplit` carries the component towers, and the caller re-runs its
computation in each (the classical D5 scheme).

Elements are flat.  With level degrees d_1, ..., d_h a tower has dimension
D = d_1 * ... * d_h and the monomial basis a_1^e_1 * ... * a_h^e_h
(e_k < d_k), bottom level first: index e_1 + d_1 e_2 + d_1 d_2 e_3 + ....
An element is D integer coordinates over one positive denominator, kept
canonical (gcd(den, *coords) == 1; zero is all zeros over 1), so equality is
tuple equality and the zero test never splits.  A stage-k element is the
concatenation of its d_k coefficients in the prefix tower of height k - 1;
lifting from a prefix tower pads with zeros.

Each tower builds one integer table on first use: every monomial of an
unreduced product (e_k <= 2 d_k - 2) reduced by the minimal polynomials,
over one common denominator.  A product is D^2 integer multiplications into
those monomials, one pass through the table and one gcd.

Inversion is per level: an extended Euclid of the top-level coefficients
(prefix-tower elements) against the top minimal polynomial, inverting
leading coefficients one level down.  A proper gcd splits the tower at the
lowest level where a zero divisor shows, and every level above it is
re-reduced in each component.  :func:`unit_inverse` is the one question
every caller asks -- is this value invertible? -- and its answer is data:
the inverse, ``None`` for zero, or a :class:`TowerSplit` for a zero
divisor.  The zero test is ``bool``: a rational or a tower element is
falsy exactly when it is zero.  :func:`tower_of` finds the tower a set of
values lives in, and :func:`over_components` carries a payload of values
into each split component with :func:`project_value`, the one map of values
and payloads from a parent or prefix tower into another.

``Level.minpoly`` and ``TowerElement.rep`` keep the nested form for report
JSON and :func:`compose_element`: a stage-0 representation is a
``Fraction``, a stage-k one the tuple of its stage-(k-1) coefficients with
trailing zeros stripped, so ``()`` is zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, NamedTuple, Union

Value = Union[Fraction, "TowerElement"]


class TowerSplit(Exception):
    """A zero divisor was met: the tower splits into two components.

    ``stage`` is the 1-based level whose minimal polynomial factored;
    ``components`` are the two component towers, whose level-``stage``
    minimal polynomials multiply to the original one.
    """

    def __init__(self, stage: int, components: tuple["Tower", "Tower"]):
        super().__init__(f"tower split at level {stage}")
        self.stage = stage
        self.components = components


class Level(NamedTuple):
    """One extension step: a named generator and its monic minimal polynomial.

    ``minpoly`` is a tuple of stage-(k-1) representations of length deg+1
    whose last entry is one.
    """

    name: str
    minpoly: tuple

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def __repr__(self):
        return f"Level({self.name!r}, deg={self.degree})"


def _nested(num, den: int, degrees: tuple):
    """Nested representation of flat coordinates over ``den``."""
    if not degrees:
        return Fraction(num[0], den)
    size = len(num) // degrees[-1]
    out = [_nested(num[j : j + size], den, degrees[:-1]) for j in range(0, len(num), size)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class Tower:
    """An extension tower over the rationals: a tuple of :class:`Level`,
    of dimension ``dim`` over Q.  Immutable; the prefix tower one level down
    and the multiplication table are built on first use and kept.
    """

    __slots__ = ("levels", "degrees", "dim", "_parent", "_top_mp", "_table")

    def __init__(self, levels: tuple = (), parent: "Tower | None" = None):
        self.levels = tuple(levels)
        self.degrees = tuple(lv.degree for lv in self.levels)
        self.dim = prod(self.degrees)
        self._parent = parent
        self._top_mp = None
        self._table = None

    @property
    def height(self) -> int:
        return len(self.levels)

    def degree_above(self, stage: int) -> int:
        """Product of level degrees strictly above ``stage`` levels."""
        return prod(self.degrees[stage:])

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

    def prefix(self, height: int) -> "Tower":
        """The tower of the lowest ``height`` levels."""
        tw = self
        while tw.height > height:
            if tw._parent is None:
                tw._parent = Tower(tw.levels[:-1])
            tw = tw._parent
        return tw

    def _extend(self, level: Level) -> "Tower":
        return Tower(self.levels + (level,), self)

    def _top_minpoly(self) -> list["TowerElement"]:
        """The top level's minimal polynomial over the prefix tower."""
        if self._top_mp is None:
            below = self.prefix(self.height - 1)
            self._top_mp = [below.from_rep(c) for c in self.levels[-1].minpoly]
        return self._top_mp

    def zero(self) -> "TowerElement":
        return TowerElement(self, (0,) * self.dim)

    def one(self) -> "TowerElement":
        return TowerElement(self, (1,) + (0,) * (self.dim - 1))

    def from_rational(self, q) -> "TowerElement":
        q = Fraction(q)
        return TowerElement(self, (q.numerator,) + (0,) * (self.dim - 1), q.denominator)

    def generator(self, stage: int) -> "TowerElement":
        """The generator adjoined at 1-based level ``stage``."""
        if not 1 <= stage <= self.height:
            raise ValueError(f"no level {stage} in {self!r}")
        below = self.prefix(stage - 1)
        return self.lift(self.prefix(stage)._from_coeffs([below.zero(), below.one()]))

    def from_rep(self, rep) -> "TowerElement":
        """The element with nested representation ``rep``.  Coefficient
        lists longer than a level's degree are reduced, so this also
        projects representations from an ancestor tower of the same height
        (whose level minimal polynomials are multiples of ours)."""
        if not self.levels:
            q = Fraction(rep)
            return TowerElement(self, (q.numerator,), q.denominator)
        below = self.prefix(self.height - 1)
        return self._from_coeffs([below.from_rep(c) for c in rep])

    def _from_coeffs(self, coeffs: list["TowerElement"]) -> "TowerElement":
        """sum coeffs[j] * a_top^j for prefix-tower elements ``coeffs``,
        reduced by the top minimal polynomial."""
        mp = self._top_minpoly()
        if len(coeffs) >= len(mp):
            _, coeffs = _monic_divmod(coeffs, mp)
        den = lcm(*(c.den for c in coeffs))
        num = [x * (den // c.den) for c in coeffs for x in c.num]
        num.extend([0] * (self.dim - len(num)))
        return TowerElement(self, num, den)

    def lift(self, v: Value) -> "TowerElement":
        """Coerce a rational or an element of a prefix tower into this one."""
        if isinstance(v, TowerElement):
            tw = v.tower
            if tw is self:
                return v
            if tw.is_prefix_of(self):
                return TowerElement(self, v.num + (0,) * (self.dim - tw.dim), v.den)
            raise ValueError(f"cannot lift element of {v.tower!r} into {self!r}")
        return self.from_rational(v)

    def adjoin(self, name: str, monic_minpoly: Iterable) -> "Tower":
        """Extend by one level; ``monic_minpoly`` is a list of stage-height
        representations with leading coefficient one (squarefreeness is the
        caller's responsibility)."""
        mp = tuple(monic_minpoly)
        if len(mp) < 3:
            raise ValueError("adjoined minimal polynomial must have degree >= 2")
        if mp[-1] != self.one().rep:
            raise ValueError("minimal polynomial must be monic")
        return self._extend(Level(name, mp))

    def _mul_table(self):
        """``(pos, red, q, monos)``: ``monos`` lists the reductions of the
        unreduced product monomials as elements, bottom level first;
        ``pos[i]`` is where basis monomial i sits among them, so the product
        of basis monomials i and j is monomial ``pos[i] + pos[j]``; ``red``
        pairs every other monomial m with its reduction as (index, integer)
        pairs over the common denominator ``q``."""
        if self._table is None:
            if not self.levels:
                monos, pos = [self.one()], [0]
            else:
                below = self.prefix(self.height - 1)
                bpos, _, _, bmonos = below._mul_table()
                mp = self._top_minpoly()
                d = len(mp) - 1
                # a_top^k for k <= 2d - 2 as coefficient lists over the prefix
                powers = []
                cur = [below.one()] + [below.zero()] * (d - 1)
                for _ in range(2 * d - 1):
                    powers.append(cur)
                    lead = cur[-1]
                    shifted = [below.zero()] + cur[:-1]
                    cur = [_sub(low, _mul(lead, m)) for low, m in zip(shifted, mp)]
                monos = [
                    self._from_coeffs([_mul(b, c) for c in pw]) for pw in powers for b in bmonos
                ]
                pos = [p + len(bmonos) * j for j in range(d) for p in bpos]
            q = lcm(*(m.den for m in monos))
            basis = set(pos)
            red = [
                (m, [(k, c * (q // x.den)) for k, c in enumerate(x.num) if c])
                for m, x in enumerate(monos)
                if m not in basis
            ]
            self._table = (pos, red, q, monos)
        return self._table


# -- ring arithmetic on elements of one tower -----------------------------------


def _add(a: "TowerElement", b: "TowerElement") -> "TowerElement":
    da, db = a.den, b.den
    if da == db:
        return TowerElement(a.tower, [x + y for x, y in zip(a.num, b.num)], da)
    return TowerElement(a.tower, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)


def _sub(a: "TowerElement", b: "TowerElement") -> "TowerElement":
    da, db = a.den, b.den
    if da == db:
        return TowerElement(a.tower, [x - y for x, y in zip(a.num, b.num)], da)
    return TowerElement(a.tower, [x * db - y * da for x, y in zip(a.num, b.num)], da * db)


def _mul(a: "TowerElement", b: "TowerElement") -> "TowerElement":
    tw = a.tower
    pos, red, q, monos = tw._table or tw._mul_table()
    nzb = [(pj, y) for pj, y in zip(pos, b.num) if y]
    acc = [0] * len(monos)
    for p, x in zip(pos, a.num):
        if x:
            for pj, y in nzb:
                acc[p + pj] += x * y
    out = [acc[p] * q for p in pos]
    for m, row in red:
        s = acc[m]
        if s:
            for k, c in row:
                out[k] += s * c
    return TowerElement(tw, out, a.den * b.den * q)


def _sub_product(s: list, p: list, r: list) -> list:
    """s - p*r for coefficient lists over one tower (lowest degree first,
    r not empty)."""
    out = s + [r[0].tower.zero()] * (len(p) + len(r) - 1 - len(s))
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] = _sub(out[i + j], _mul(a, b))
    return out


def _monic_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of coefficient lists by a monic ``den``; the
    remainder has its trailing zeros stripped."""
    num = list(num)
    dd = len(den) - 1
    quo = [None] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = quo[i - dd] = num[i]
        if c:
            for k in range(dd):
                num[i - dd + k] = _sub(num[i - dd + k], _mul(c, den[k]))
    rem = num[:dd]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


# -- inversion and splitting -------------------------------------------------------


def _split_at(tw: Tower, stage: int, g: list, h: list) -> TowerSplit:
    """Build the two component towers with level ``stage`` replaced by the
    monic factors ``g`` and ``h`` and all higher levels re-reduced."""
    components = []
    for fac in (g, h):
        comp = tw.prefix(stage - 1)._extend(
            Level(tw.levels[stage - 1].name, tuple(c.rep for c in fac))
        )
        for lv in tw.levels[stage:]:
            comp = comp._extend(Level(lv.name, tuple(comp.from_rep(c).rep for c in lv.minpoly)))
        components.append(comp)
    return TowerSplit(stage, (components[0], components[1]))


def _inverse(tw: Tower, stage: int, x: "TowerElement") -> "TowerElement | None":
    """Inverse of ``x``, an element of the height-``stage`` prefix of
    ``tw``, or None when x is zero.  Zero divisors raise a
    :class:`TowerSplit` of ``tw`` instead of returning."""
    if not x:
        return None
    if stage == 0:
        n = x.num[0]
        return TowerElement(x.tower, (x.den if n > 0 else -x.den,), abs(n))
    mp = x.tower._top_minpoly()
    one = mp[-1]
    below, size = one.tower, one.tower.dim
    # extended Euclid tracking s with r = s*x + t*minpoly
    r0, s0 = mp, []
    r1 = [TowerElement(below, x.num[j : j + size], x.den) for j in range(0, len(x.num), size)]
    s1 = [one]
    while True:
        # make r1 monic, stripping zero leading coefficients
        while r1:
            inv = _inverse(tw, stage - 1, r1[-1])
            if inv is None:
                r1.pop()
                continue
            if inv != one:
                r1 = [_mul(c, inv) for c in r1]
                s1 = [_mul(c, inv) for c in s1]
            break
        if not r1:
            break
        quo, r2 = _monic_divmod(r0, r1)
        r0, s0, r1, s1 = r1, s1, r2, _sub_product(s0, quo, s1)
    # r0 is the monic gcd of x and the minimal polynomial
    if len(r0) == 1:
        return x.tower._from_coeffs(s0)
    h, rem = _monic_divmod(mp, r0)
    if rem:
        raise AssertionError("gcd does not divide the minimal polynomial")
    raise _split_at(tw, stage, r0, h)


class TowerElement:
    """An element of a :class:`Tower`: integer coordinates ``num`` over the
    positive denominator ``den``, kept canonical.  Immutable; supports ring
    arithmetic with other elements of the same (or a prefix) tower and with
    rationals."""

    __slots__ = ("tower", "num", "den")

    def __init__(self, tower: Tower, num, den: int = 1):
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        self.tower = tower
        self.num = tuple(num)
        self.den = den

    @property
    def rep(self):
        """The nested representation (see the module docstring)."""
        return _nested(self.num, self.den, self.tower.degrees)

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        """False exactly for zero; never splits."""
        return any(self.num)

    def inverse(self) -> "TowerElement":
        return invert_value(self)

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            if other.tower is self.tower:
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
        return _add(a, b)

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(self.tower, [-x for x in self.num], self.den)

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return _sub(a, b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return TowerElement(
                self.tower, [x * q.numerator for x in self.num], self.den * q.denominator
            )
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return _mul(a, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.tower.one()
        base = self
        while n:
            if n & 1:
                out = _mul(out, base)
            base = _mul(base, base)
            n >>= 1
        return out

    def __eq__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a.den == b.den and a.num == b.num

    __hash__ = None  # mutable-tower comparisons make hashing a trap

    def __repr__(self):
        return f"TowerElement({self.tower!r}, {self.rep!r})"


# -- value-level helpers (rational or tower element) --------------------------


def unit_inverse(v: Value) -> Value | None:
    """The inverse of a rational or tower element, or None when it is zero.

    Raises :class:`TowerSplit` on a zero divisor.
    """
    if isinstance(v, TowerElement):
        return _inverse(v.tower, v.tower.height, v)
    v = Fraction(v)
    return Fraction(1) / v if v else None


def invert_value(v: Value) -> Value:
    inv = unit_inverse(v)
    if inv is None:
        raise ZeroDivisionError("inversion of zero")
    return inv


def project_value(v, tower: Tower):
    """Map a payload into a component tower: an element of an ancestor tower
    (a split parent) or of a prefix tower is projected, a tuple or list
    entrywise, anything with a ``project(tower)`` method projects itself,
    and everything else (rationals, None) is unchanged."""
    if isinstance(v, TowerElement):
        if v.tower is tower:
            return v
        if v.tower.height != tower.height:
            return tower.lift(v)
        return tower.from_rep(v.rep)
    if isinstance(v, tuple):
        return tuple(project_value(x, tower) for x in v)
    if isinstance(v, list):
        return [project_value(x, tower) for x in v]
    project = getattr(v, "project", None)
    return v if project is None else project(tower)


def tower_of(values: Iterable) -> Tower | None:
    """The tower of the first tower element among ``values``, or None when
    every value is rational."""
    return next((v.tower for v in values if isinstance(v, TowerElement)), None)


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
    powers: dict[tuple[int, int], TowerElement] = {}
    for exps, q in rep_monomials(rep, stage):
        term = target.from_rational(q)
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = gens[i] ** e
                term = term * powers[i, e]
        out = out + term
    return out


def over_components(tower: Tower, payload, compute, min_stage: int = 0):
    """Run ``compute(tower, payload)``, forking on D5 splits.

    Each component reruns ``compute`` on the payload mapped into it by
    :func:`project_value`.  Splits at stages <= ``min_stage`` are re-raised
    (the caller considers those levels part of its base field).  Returns a
    list of ``(component_tower, result)`` pairs covering the whole component
    tree.
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
                stack.append((comp, project_value(data, comp)))
    return out
