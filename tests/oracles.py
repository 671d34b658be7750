"""Independent reference implementations that tests compare the library
against."""

import random
from fractions import Fraction
from math import prod

from branchpolar.branch import DifferentialValues, PuiseuxBranch, semigroup_of_branch
from branchpolar.eqtype import EquisingularityType
from branchpolar.equising import pair_intersection_values
from branchpolar.errors import AmbiguousPairingError, NonIsolatedSingularityError, PrecisionError
from branchpolar.families import SQRT6, FamilyError, _mult4_g1_exponents
from branchpolar.poly import BivariatePolynomial, _prem, prs_resultant, resultant_y
from branchpolar.puiseux import puiseux_expand
from branchpolar.series import TruncatedSeries, evaluate_bivariate
from branchpolar.tower import (
    Tower,
    TowerElement,
    compose_element,
    invert_value,
    over_components,
    tower_of,
    unit_inverse,
)
from branchpolar.unipoly import UPoly, ucyclotomic, udeg, uneg, ustrip


PRIMES = (10007, 10009, 10037, 99991, 1000003, 1000033)


def sylvester_resultant_y(f: BivariatePolynomial, g: BivariatePolynomial) -> BivariatePolynomial:
    """Resultant with respect to y via fraction-free Bareiss elimination of
    the Sylvester matrix; an independent route kept as an oracle for the
    subresultant PRS."""
    F, G = f.y_coefficients(), g.y_coefficients()
    n, m = len(F) - 1, len(G) - 1
    if n < 0 or m < 0:
        return BivariatePolynomial.zero()
    size = n + m
    zero = BivariatePolynomial.zero()
    M = [[zero] * size for _ in range(size)]
    for r in range(m):
        for k in range(n + 1):
            M[r][r + k] = F[n - k]
    for r in range(n):
        for k in range(m + 1):
            M[m + r][r + k] = G[m - k]
    # Bareiss: exact-division fraction-free Gaussian elimination
    sign = 1
    prev = BivariatePolynomial.one()
    for k in range(size - 1):
        if not M[k][k]:
            for r in range(k + 1, size):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return BivariatePolynomial.zero()
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                num = M[r][c] * M[k][k] - M[r][k] * M[k][c]
                M[r][c] = num.exact_div(prev)
            M[r][k] = zero
        prev = M[k][k]
    det = M[size - 1][size - 1]
    return det if sign == 1 else -det


def brown_prs_resultant(f: list, g: list):
    """``poly.prs_resultant`` by Brown's subresultant PRS, which divides each
    pseudo-remainder by -lc * c^d and forms the next scalar subresultant
    from full powers; a reference for Ducos's algorithm there."""
    f, g = ustrip(f), ustrip(g)
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    n, m = udeg(f), udeg(g)
    if n == 0 and m == 0:
        raise ValueError("resultant of two constants is not defined here")
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    negate = n < m and (n * m) % 2
    if n < m:
        f, g, n, m = g, f, m, n
    d = n - m
    h = _prem(f, g)
    if d % 2 == 0:
        h = uneg(h)
    lc = g[-1]
    c = -(lc**d)  # minus the last scalar subresultant
    while h:
        k = udeg(h)
        f, g, m, d = g, h, k, m - k
        b = -(lc * (c**d))
        h = [hi.exact_div(b) if hi else hi for hi in _prem(f, g)]
        lc = g[-1]
        if d > 1:
            c = ((-lc) ** d).exact_div(c ** (d - 1))
        else:
            c = -lc
    if udeg(g) > 0:
        return g[-1].zero()
    return c if negate else -c


def sieve_semigroup(gens) -> tuple[tuple[int, ...], int, frozenset[int]]:
    """(minimal generators, conductor, gaps) of the semigroup generated by
    ``gens`` (gcd 1) by a coin-problem sieve over [0, max(gens) * m]: the
    reference for the Apéry-set construction."""
    gens = sorted(set(gens))
    m = gens[0]
    if m == 1:
        return (1,), 0, frozenset()
    bound = max(gens) * m + 1
    member = bytearray(bound)
    member[0] = 1
    for v in gens:
        for i in range(v, bound):
            if member[i - v]:
                member[i] = 1
    run, conductor = 0, None
    for i in range(bound):
        run = run + 1 if member[i] else 0
        if run == m:  # m consecutive members close the semigroup upward
            conductor = i - m + 1
            break
    assert conductor is not None, "sieve bound too small"
    gaps = frozenset(i for i in range(conductor) if not member[i])
    minimal = tuple(v for v in gens if not _representable(v, [w for w in gens if w != v]))
    return minimal, conductor, gaps


def _representable(v: int, gens: list[int]) -> bool:
    reach = bytearray(v + 1)
    reach[0] = 1
    for g in gens:
        for i in range(g, v + 1):
            if reach[i - g]:
                reach[i] = 1
    return bool(reach[v])


def implicitize_resultant(b: PuiseuxBranch) -> BivariatePolynomial:
    """Implicitization as the t-resultant Res_t(t^n - x, y - y(t)) by a
    subresultant PRS over Q[x, y] coefficients, normalized to be monic in
    y; an independent route kept as an oracle for the power sums of
    ``implicit.implicitize``."""
    if b.trunc is not None:
        raise ValueError("implicitization needs an exact polynomial parametrization")
    n = b.n
    # A = t^n - x, B = y - y(t) as polynomials in t over Q[x, y] (or a tower)
    A = [BivariatePolynomial.zero()] * (n + 1)
    A[0] = BivariatePolynomial.monomial(1, 0, Fraction(-1))
    A[n] = BivariatePolynomial.one()
    deg_t = max((e for e, _ in b.y_terms), default=0)
    B = [BivariatePolynomial.zero()] * (deg_t + 1)
    B[0] = BivariatePolynomial.monomial(0, 1)
    for e, c in b.y_terms:
        B[e] = B[e] + BivariatePolynomial.constant(-c)
    f = prs_resultant(A, B)
    lead = f.coefficient_of_y(n)
    if lead.support() != [(0, 0)]:
        raise AssertionError("the t-resultant is not a Weierstrass polynomial")
    return f * BivariatePolynomial.constant(invert_value(lead.terms[(0, 0)]))


def shift_y(f: BivariatePolynomial, rho) -> BivariatePolynomial:
    """f(x, y + rho x)."""
    y_sheared = BivariatePolynomial({(0, 1): Fraction(1), (1, 0): rho})
    out = BivariatePolynomial.zero()
    for (i, j), c in f.terms.items():
        out = out + BivariatePolynomial.monomial(i, 0, c) * y_sheared**j
    return out


def milnor_number_two_shears(f: BivariatePolynomial, rng: random.Random | None = None) -> int:
    """mu = ord_x Res_y(g_x, g_y) for g = f(x + sigma y, y + rho x), made
    y-general by random sigma and certified by agreement of two random
    rho; an independent route kept as an oracle for
    ``implicit.milnor_number``.  The two rho give the same sum over the
    points of x = 0, so a germ with another critical point on that line gets
    a wrong answer here."""
    if rng is None:
        rng = random.Random(20260810)
    g0 = f
    lead = g0.coefficient_of_y(g0.degree_y())
    tries = 0
    while lead.support() != [(0, 0)]:
        sigma = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        g0 = f.shift_x(sigma)
        lead = g0.coefficient_of_y(g0.degree_y())
        tries += 1
        if tries > 5:
            raise NonIsolatedSingularityError("cannot make f y-general by shearing")
    orders = []
    for _ in range(2):
        rho = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        if rng.randint(0, 1):
            rho = -rho
        g = shift_y(g0, rho)
        gx, gy = g.derivative_x(), g.derivative_y()
        if not gx or not gy:
            return 0
        if gy.degree_y() <= 0 and gx.degree_y() <= 0:
            return 0
        res = resultant_y(gx, gy)
        orders.append(res.x_order() if res else None)
    if orders[0] is None and orders[1] is None:
        raise NonIsolatedSingularityError("Res_y(f_x, f_y) vanishes identically for two shears")
    if orders[0] != orders[1]:
        raise NonIsolatedSingularityError(f"shear orders disagree: {orders}")
    return orders[0]


def regular_solve_full(f: BivariatePolynomial, budget: int) -> tuple[dict, int | None]:
    """Newton solve of f(x, y(x)) = 0, y(0) = 0, at a simple root, doing the
    full work at every step: f_y inverted to the full doubled precision,
    the iteration stopped at w = budget + 1, and the exactness of the result
    always decided by evaluating f at it with no truncation.  A reference
    for ``puiseux._regular_solve``, which must return the same terms and
    validity order."""
    w = budget + 1
    fy = f.derivative_y()
    if unit_inverse(fy.terms.get((0, 0), Fraction(0))) is None:
        raise AssertionError("regular solve called at a non-simple root")
    y = TruncatedSeries.zero(1)
    prec = 1
    while prec < w:
        prec = min(2 * prec, w)
        ycur = y.declare_trunc(prec)
        num = evaluate_bivariate(f, 1, ycur).truncate(prec)
        if num.is_zero_mod_trunc:
            y = ycur
            continue
        den = evaluate_bivariate(fy, 1, ycur).truncate(prec)
        y = (ycur - num * den.inverse(prec)).truncate(prec).declare_trunc(prec)
    exact = evaluate_bivariate(f, 1, y.declare_trunc(None)).is_exact_zero
    return dict(y.terms), None if exact else w


def umul(p: UPoly, q: UPoly) -> UPoly:
    """Product of dense univariate coefficient lists."""
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return ustrip(out)


def series_product(a: TruncatedSeries, b: TruncatedSeries) -> tuple[dict, int | None]:
    """(terms, trunc) of a * b by the generic pair loop: every product of
    two stored coefficients added into its exponent's running sum."""
    if a.is_exact_zero or b.is_exact_zero:
        return {}, None
    cands = []
    if a.trunc is not None:
        cands.append(a.trunc + (min(b.terms) if b.terms else (b.trunc or 0)))
    if b.trunc is not None:
        cands.append(b.trunc + (min(a.terms) if a.terms else (a.trunc or 0)))
    trunc = min(cands) if cands else None
    terms: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = e1 + e2
            if trunc is None or e < trunc:
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in terms.items() if c}, trunc


# -- nested-Fraction tower arithmetic ------------------------------------------
#
# A stage-0 representation is a Fraction; a stage-k one is a tuple of
# stage-(k-1) representations, the coefficients in the k-th generator reduced
# modulo its minimal polynomial, trailing zeros stripped (so () is zero).
# Recursive Fraction arithmetic on these is the reference that the flat
# integer ``TowerElement`` results are compared with.


def nested_zero(stage: int):
    return Fraction(0) if stage == 0 else ()


def nested_one(stage: int):
    one = Fraction(1)
    for _ in range(stage):
        one = (one,)
    return one


def _is_zero(rep, stage: int) -> bool:
    return rep == 0 if stage == 0 else rep == ()


def _strip(coeffs: list, stage: int) -> tuple:
    n = len(coeffs)
    while n and _is_zero(coeffs[n - 1], stage):
        n -= 1
    return tuple(coeffs[:n])


def nested_add(tw: Tower, stage: int, a, b):
    if stage == 0:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = nested_add(tw, stage - 1, out[i], c)
    return _strip(out, stage - 1)


def nested_neg(tw: Tower, stage: int, a):
    if stage == 0:
        return -a
    return tuple(nested_neg(tw, stage - 1, c) for c in a)


def nested_sub(tw: Tower, stage: int, a, b):
    return nested_add(tw, stage, a, nested_neg(tw, stage, b))


def nested_reduce(tw: Tower, stage: int, coeffs: list):
    """Reduce a dense coefficient list modulo the stage's monic minimal
    polynomial."""
    mp = tw.levels[stage - 1].minpoly
    d = len(mp) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, d - 1, -1):
        lead = coeffs[i]
        if _is_zero(lead, stage - 1):
            continue
        for k in range(d):
            coeffs[i - d + k] = nested_sub(
                tw, stage - 1, coeffs[i - d + k], nested_mul(tw, stage - 1, lead, mp[k])
            )
        coeffs[i] = nested_zero(stage - 1)
    return _strip(coeffs[:d] if len(coeffs) > d else coeffs, stage - 1)


def nested_mul(tw: Tower, stage: int, a, b):
    if stage == 0:
        return a * b
    if a == () or b == ():
        return ()
    prod = [nested_zero(stage - 1)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if _is_zero(ca, stage - 1):
            continue
        for j, cb in enumerate(b):
            if _is_zero(cb, stage - 1):
                continue
            prod[i + j] = nested_add(tw, stage - 1, prod[i + j], nested_mul(tw, stage - 1, ca, cb))
    return nested_reduce(tw, stage, prod)


def nested_pow(tw: Tower, stage: int, a, n: int):
    out = nested_one(stage)
    base = a
    while n:
        if n & 1:
            out = nested_mul(tw, stage, out, base)
        base = nested_mul(tw, stage, base, base)
        n >>= 1
    return out


# -- self-pairs by carved towers -------------------------------------------------


def _div_linear(coeffs: list, alpha: TowerElement) -> list:
    """Synthetic division of a monic polynomial by (z - alpha); the remainder
    must vanish (alpha is a root by construction)."""
    d = len(coeffs) - 1
    q = [None] * d
    q[d - 1] = coeffs[d]
    for i in range(d - 1, 0, -1):
        q[i - 1] = coeffs[i] + alpha * q[i]
    rem = coeffs[0] + alpha * q[0]
    if rem:
        raise AssertionError("linear division by a non-root")
    return q


def lift_rep(rep, levels: int):
    """Pad a nested representation by ``levels`` tower levels."""
    for _ in range(levels):
        rep = (rep,)
    return rep


def _self_pair_setup(tower: Tower, j: int):
    """Pair tower for two conjugate tuples agreeing below level j and
    differing there: level j of the second tuple is a root of
    minpoly_j / (z - alpha_j), the levels above it are fresh copies.
    Returns (pair_tower, images of tower's generators for the second tuple)."""
    gens = [tower.generator(s) for s in range(1, tower.height + 1)]
    cur = tower
    mp = tower.levels[j - 1].minpoly
    alpha = cur.generator(j)
    coeffs = [cur.from_rep(lift_rep(c, cur.height - j + 1)) for c in mp]
    q = _div_linear(coeffs, alpha)
    if len(q) == 2:  # linear quotient: the second root is explicit
        beta = -q[0]
    else:
        cur = cur.adjoin(f"p{cur.height + 1}", [c.rep for c in q])
        beta = cur.generator(cur.height)
        gens = [cur.lift(g) for g in gens]
    gens[j - 1] = cur.lift(beta)
    for s in range(j + 1, tower.height + 1):
        mp_s = tower.levels[s - 1].minpoly
        imgs = [cur.lift(g) for g in gens[: s - 1]]
        new_coeffs = [compose_element(cur, imgs, c, s - 1) for c in mp_s]
        cur = cur.adjoin(f"q{cur.height + 1}", [cur.lift(c).rep for c in new_coeffs])
        gens = [cur.lift(g) for g in gens]
        gens[s - 1] = cur.generator(cur.height)
    return cur, gens


def self_pair_values_carved(
    b: PuiseuxBranch, base_height: int = 0, max_contact: int | None = None
) -> dict[int, int]:
    """{intersection value: ordered geometric pairs} over distinct conjugate
    pairs of b, one carved pair tower per level j above the base (the tuples
    first differ at level j), with a sheet sum over the n-th roots of unity;
    pairs of one geometric branch (t -> zeta t) are dropped by ``max_contact``
    or an exact zero difference.  A reference for
    ``equising.pair_intersection_values(b, None)``, which splits the diagonal
    off one pair tower instead."""
    t = b.tower()
    n = b.n
    d = t.degree_above(base_height)
    red = (d // b.conjugacy) ** 2
    out: dict[int, int] = {}
    for j in range(base_height + 1, t.height + 1):
        cur, gens = _self_pair_setup(t, j)
        zeta_stage = None
        zeta = Fraction(1 if n == 1 else -1)
        if n > 2:
            cur = cur.adjoin("zeta", [cur.from_rational(c).rep for c in ucyclotomic(n)])
            zeta_stage = cur.height
            zeta = cur.generator(zeta_stage)
            gens = [cur.lift(g) for g in gens]
        y1 = b.y_series().map_values(cur.lift)
        y2 = []
        for e, c in b.y_terms:
            if isinstance(c, TowerElement):
                c = compose_element(cur, gens[: c.tower.height], c.rep, c.tower.height)
            y2.append((e, cur.lift(c)))

        def compute(tw, data):
            yy1, yy2, zz = data
            total = 0
            for k in range(n):
                sheet = TruncatedSeries({e: c * zz ** ((k * e) % n) for e, c in yy2}, b.trunc)
                diff = yy1 - sheet
                try:
                    o = diff.order()
                except PrecisionError:
                    if max_contact is not None and diff.trunc > max_contact:
                        return None
                    raise
                if o is None:
                    return None
                total += o
            return total

        for tw, value in over_components(cur, (y1, y2, zeta), compute, base_height):
            if value is None:
                continue
            deg = prod(
                dk for k, dk in enumerate(tw.degrees, 1) if k > base_height and k != zeta_stage
            )
            if deg % red:
                raise AssertionError("pair degree not divisible by the redundancy")
            out[value] = out.get(value, 0) + deg // red
    return out


# -- branches and their differential values ----------------------------------


def mult4_g1_wall(m: int, j: int, sign: int = 1, tail: dict | None = None) -> PuiseuxBranch:
    """A second-normal-form branch on the sqrt6 wall a_1 = sign * 4 sqrt6 / 9
    (the case 2/(m-j) = 1/([m/4]+k) with k = 1); ``tail`` maps higher moduli
    indices i >= 2 to values, with sqrt6-tower values allowed."""
    exps = _mult4_g1_exponents(m, j)
    if not exps:
        raise FamilyError("no moduli at these (m, j)")
    terms = {m: Fraction(1), 3 * m - 4 * j: Fraction(1), exps[0]: Fraction(4 * sign, 9) * SQRT6}
    for i, v in (tail or {}).items():
        if v:
            terms[exps[i - 1]] = v
    return PuiseuxBranch.from_terms(4, terms)


def differential_values_echelon(b: PuiseuxBranch) -> DifferentialValues:
    """Values of monomial differentials closed under elimination: the
    candidate-list echelon that ``branch.differential_values`` replaced.

    Pullbacks of x^i y^j dx and x^i y^j dy with value below W = conductor + n
    are reduced against a valuation-echelon basis (pivot = lowest order,
    ties broken by generation order); every pivot order + 1 is an achieved
    value.  Since all integers >= conductor already lie in the semigroup,
    the extra set is contained in [0, conductor) and the computation is
    complete at this truncation, so every pullback is cut at t^W: y^j dx and
    y^j dy are built once per j, and x^i = t^(i*n) is an exponent shift.
    """
    gamma = semigroup_of_branch(b)
    c = gamma.conductor
    if c == 0:  # a smooth branch: the extra set lies in [0, c) = {}
        return DifferentialValues(gamma, frozenset())
    n = b.n
    W = c + n
    if b.trunc is not None and b.trunc < W:
        raise PrecisionError(
            f"truncation t^{b.trunc} too small for differential values (need t^{W})"
        )
    ys = b.y_series(W)
    dx = TruncatedSeries.monomial(n - 1, Fraction(n), W)
    dy = ys.derivative()
    m = b.y_order()

    def shifted(s: TruncatedSeries, k: int) -> TruncatedSeries:  # t^k * s mod t^W
        return TruncatedSeries({e + k: v for e, v in s.terms.items()}, min(s.trunc + k, W))

    candidates = []
    yj = TruncatedSeries.constant(Fraction(1), W)
    for j in range(W // m + 1):
        ydx, ydy = (yj * dx).truncate(W), (yj * dy).truncate(W)
        for i in range((W - j * m) // n + 1):
            candidates.append((i * n + j * m + n, 0, i, j, shifted(ydx, i * n)))
            candidates.append((i * n + j * m + m, 1, i, j, shifted(ydy, i * n)))
        yj = (yj * ys).truncate(W)
    candidates.sort(key=lambda r: r[:4])

    echelon: dict[int, TruncatedSeries] = {}
    values = set()
    for _, _, _, _, s in candidates:
        while True:
            if s.is_zero_mod_trunc:
                break
            o = min(s.terms)
            if o in echelon:
                s = s - echelon[o].scale(s.terms[o])
            else:
                echelon[o] = s.scale(unit_inverse(s.terms[o]))
                values.add(o + 1)
                break
    extra = frozenset(v for v in values if v < c and v not in gamma)
    return DifferentialValues(gamma, extra)


# -- types by pairwise sheet sums ---------------------------------------------


def branch_intersection(b1: PuiseuxBranch, b2: PuiseuxBranch, base_height: int = 0) -> int:
    """Intersection multiplicity of two distinct branches by sheet sums (a
    single number; conjugate families whose pairs differ raise
    AmbiguousPairingError)."""
    values = pair_intersection_values(b1, b2, base_height)
    if not values:
        raise ValueError("branches coincide (no distinct pairs)")
    if len(values) > 1:
        raise AmbiguousPairingError(f"pairwise values differ: {sorted(values)}")
    return next(iter(values))


def _assemble_type(branches: list[PuiseuxBranch], base_height: int) -> EquisingularityType:
    """The canonical type of a germ from its tower-valued expansion branches,
    by pairwise sheet sums; a reference for ``equising.equisingularity_type``,
    which reads the type off the Newton-polygon tree instead."""

    def values(bi, bj):
        try:
            return pair_intersection_values(bi, bj, base_height)
        except PrecisionError as exc:
            # an expansion truncates each branch after the term that
            # determines it, so no two of them agree to their truncation
            raise AssertionError(f"expansion branches agree to their truncation: {exc}") from exc

    groups = branches
    sgs = [semigroup_of_branch(b) for b in groups]
    sizes = [b.conjugacy for b in groups]
    offs = []
    pos = 0
    for c in sizes:
        offs.append(pos)
        pos += c
    n_geo = pos
    semis = []
    for sg, c in zip(sgs, sizes):
        semis.extend([sg] * c)
    mat = [[0] * n_geo for _ in range(n_geo)]

    nonuniform_hits: dict[int, int] = {}
    for i, bi in enumerate(groups):
        ci = sizes[i]
        if ci >= 2:
            vals = values(bi, None)
            if len(vals) != 1:
                raise AmbiguousPairingError(
                    f"conjugates of one branch family meet at different orders: {vals}"
                )
            v = next(iter(vals))
            for a in range(ci):
                for bq in range(a + 1, ci):
                    mat[offs[i] + a][offs[i] + bq] = v
                    mat[offs[i] + bq][offs[i] + a] = v
        for j in range(i + 1, len(groups)):
            bj = groups[j]
            cj = sizes[j]
            vals = values(bi, bj)
            if len(vals) == 1:
                v = next(iter(vals))
                for a in range(ci):
                    for bq in range(cj):
                        mat[offs[i] + a][offs[j] + bq] = v
                        mat[offs[j] + bq][offs[i] + a] = v
            elif ci == 1 or cj == 1:
                single, multi = (i, j) if ci == 1 else (j, i)
                nonuniform_hits[multi] = nonuniform_hits.get(multi, 0) + 1
                if nonuniform_hits[multi] > 1:
                    raise AmbiguousPairingError(
                        "multiple non-uniform pairings touch one conjugate family; "
                        "assignment is undetermined from component data"
                    )
                expanded = []
                for v, cnt in sorted(vals.items()):
                    expanded.extend([v] * cnt)
                for k, v in enumerate(expanded):
                    mat[offs[single]][offs[multi] + k] = v
                    mat[offs[multi] + k][offs[single]] = v
            else:
                raise AmbiguousPairingError(
                    f"non-uniform pairing between conjugate families: {vals}"
                )
    return EquisingularityType.of(semis, mat)


def expansion_type(f: BivariatePolynomial, mu: int) -> EquisingularityType:
    """The type of a reduced germ f of Milnor number ``mu``, none of whose
    branches is tangent to x = 0, by the expansion path: every branch
    expanded to mu + deg_y + 4 and assembled by :func:`_assemble_type`.  A
    reference for ``equising.equisingularity_type``, which reads the type
    off the Newton-polygon tree."""
    roots = min(j for (i, j) in f.terms if i == 0)
    if roots != min(i + j for (i, j) in f.terms):
        raise ValueError("a branch is tangent to x = 0")
    base = tower_of(f.terms.values())
    branches = puiseux_expand(f, target_order=mu + f.degree_y() + 4)
    return _assemble_type(branches, base.height if base is not None else 0)
