"""Independent reference implementations that tests compare the library
against."""

import random
from fractions import Fraction
from math import prod

from branchpolar.branch import PuiseuxBranch, semigroup_of_branch
from branchpolar.eqtype import EquisingularityType
from branchpolar.equising import pair_intersection_values
from branchpolar.errors import AmbiguousPairingError, NonIsolatedSingularityError, PrecisionError
from branchpolar.poly import BivariatePolynomial, prs_resultant, resultant_y
from branchpolar.puiseux import _base_tower, puiseux_expand
from branchpolar.series import TruncatedSeries, evaluate_bivariate
from branchpolar.tower import (
    Tower,
    TowerElement,
    classify_value,
    compose_element,
    invert_value,
    over_components,
    project_value,
)
from branchpolar.unipoly import ucyclotomic


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
        if M[k][k].is_zero:
            for r in range(k + 1, size):
                if not M[r][k].is_zero:
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
        if gx.is_zero or gy.is_zero:
            return 0
        if gy.degree_y() <= 0 and gx.degree_y() <= 0:
            return 0
        res = resultant_y(gx, gy)
        orders.append(None if res.is_zero else res.x_order())
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
    kind, _ = classify_value(fy.terms.get((0, 0), Fraction(0)))
    if kind != "unit":
        raise AssertionError("regular solve called at a non-simple root")
    xs = TruncatedSeries.monomial(1)
    y = TruncatedSeries.zero(1)
    prec = 1
    while prec < w:
        prec = min(2 * prec, w)
        ycur = y.declare_trunc(prec)
        num = evaluate_bivariate(f, xs, ycur).truncate(prec)
        if num.is_zero_mod_trunc:
            y = ycur
            continue
        den = evaluate_bivariate(fy, xs, ycur).truncate(prec)
        y = (ycur - num * den.inverse(prec)).truncate(prec).declare_trunc(prec)
    exact = evaluate_bivariate(f, xs, y.declare_trunc(None)).is_exact_zero
    return dict(y.terms), None if exact else w


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

        def proj(tw, data):
            yy1, yy2, zz = data
            return (
                yy1.project(tw),
                [(e, project_value(c, tw)) for e, c in yy2],
                project_value(zz, tw),
            )

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

        for tw, value in over_components(cur, (y1, y2, zeta), proj, compute, base_height):
            if value is None:
                continue
            deg = prod(
                dk for k, dk in enumerate(tw.degrees, 1) if k > base_height and k != zeta_stage
            )
            if deg % red:
                raise AssertionError("pair degree not divisible by the redundancy")
            out[value] = out.get(value, 0) + deg // red
    return out


# -- types by pairwise sheet sums ---------------------------------------------


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
    base = _base_tower(f)
    branches = puiseux_expand(f, target_order=mu + f.degree_y() + 4)
    return _assemble_type(branches, base.height if base is not None else 0)
