"""Newton-Puiseux expansion of a reduced germ, and its Newton-polygon tree.

Both walk the same tree.  At a node, each compact side of the Newton polygon
with inclination d = m/n = q/e in lowest terms has a side polynomial
p(z) = P(z^e); it is squarefree-factored over the current tower (Yun's
algorithm under dynamic evaluation), and where a root of a factor of degree
>= 2 is needed, one root is adjoined as a new level.  Fractional exponents never appear: the
ramifications e multiply up into the final substitution x = t^N.  A level
is named after its position, r<height>, so expanding one germ twice gives
equal towers; a level is identified by its name and minimal polynomial.

:func:`puiseux_expand` recenters by x = x1^e, y = x1^q (z + y1) at a root z
of p.  Simple roots continue as regular implicit-function solutions by a
quadratically convergent Newton iteration on truncated series; multiple
roots recurse on the transformed germ.  Conjugate branches are never
separated: a finished branch whose tower has relative degree D over the
expansion base represents D / N geometric branches (N its ramification),
since the side polynomial is invariant under z -> zeta z for zeta^e = 1 and
each geometric branch occurs once per reparametrization t -> zeta t.

:func:`puiseux_tree` reads the type data off the tree alone: the
characteristic exponents and the intersection numbers of the branches.
A root w of a simple factor of P is one branch of multiplicity e; a
repeated factor adjoins one root w and recenters by Duval's substitution
x = w^a x1^e, y = x1^q (w^b + y1) with b e - a q = 1 (Duval, "Rational
Puiseux expansions", Compositio Math. 70, 1989), so each root of P is
exactly one cluster of branches, with no t -> zeta t redundancy.  Every
polygon-vertex coefficient is classified, so a zero divisor splits the
tower before it can distort a polygon.

Each node that adjoins a level catches the splits of that level
(``over_components`` with ``min_stage`` its base height) and reruns its
child in the component's prefix tower; splits of lower levels propagate to
the node that adjoined them.

Every germ in the recursion carries its known precision K: it is correct
modulo x^K, and K = None means exact.  The input germ is exact.  Recentering
by x = lambda x1^e, y = x1^q (z + y1) sends the unknown terms x^i y^j,
i >= K, to x1^(e*K - lvl) and above (lvl the x1-order divided out), and
dropping the terms above x1^budget caps K at budget + 1.  A simple root of a
germ known modulo x^K is determined modulo x^K, so the Newton solve claims
validity at most K; a y-axis root likewise.  A tree node needs its whole
Newton polygon, so its last vertex must lie below x^K.  A precision
shortfall doubles the budget, at most ``_DOUBLINGS`` times.

The Newton solve follows two precision rules.  A step to t^prec inverts
f_y only mod t^(prec - h), where h is the measured order of the residual.
The solve runs one term past its validity order w, and a nonzero t^w term
refutes exactness without evaluating f at the solution again.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .branch import PuiseuxBranch, characteristic_exponents
from .errors import NotReducedError, PrecisionError
from .implicit import milnor_number
from .newton import join_clusters, newton_polygon
from .poly import BivariatePolynomial, resultant_y
from .series import TruncatedSeries, evaluate_bivariate
from .tower import Tower, over_components, project_value, unit_inverse, value_is_zero
from .unipoly import uyun


def _base_tower(f: BivariatePolynomial) -> Tower | None:
    for c in f.terms.values():
        tw = getattr(c, "tower", None)
        if tw is not None:
            return tw
    return None


_DOUBLINGS = 3  # budget doublings before a precision shortfall is final


def _doubling(run, budget: int):
    """run(budget), doubling the budget on each precision shortfall."""
    last_exc: Exception | None = None
    for _attempt in range(_DOUBLINGS + 1):
        try:
            return run(budget)
        except PrecisionError as exc:
            last_exc = exc
            budget *= 2
    raise PrecisionError(f"truncation exhausted after {_DOUBLINGS} doublings: {last_exc}")


def _over_root(tower: Tower | None, g: list, child):
    """child(tw, w) for a root w of the monic squarefree g, as a list of
    (roots of g that the result stands for, result).  A linear g has its
    root in ``tower``; otherwise one root is adjoined as a new level, whose
    splits are caught here and each component reruns ``child`` in its
    prefix tower."""
    if len(g) == 2:
        return [(1, child(tower, -g[0]))]
    host = tower if tower is not None else Tower()
    h = host.height
    top = host.adjoin(f"r{h + 1}", [host.lift(c).rep for c in g])

    def compute(comp, _):
        tw = comp.prefix(h + 1)
        return child(tw, tw.generator(h + 1))

    results = over_components(top, None, lambda _comp, _: None, compute, min_stage=h)
    return [(comp.degrees[h], res) for comp, res in results]


# -- the Newton-polygon tree ---------------------------------------------------


def puiseux_tree(f: BivariatePolynomial, budget: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The geometric branches of a reduced germ f through the origin, x not
    dividing f, as characteristic exponents (n, beta_1, ..., beta_g) of
    x = t^n, y = y(t), with their intersection matrix, read off the
    Newton-polygon tree (see the module docstring).  Recentered germs are
    truncated above x1^budget; a shortfall doubles the budget."""
    if f.x_power_divisor() > 0:
        raise ValueError("x divides f: the vertical axis branch has no x = t^n form")
    base = _base_tower(f) or Tower()
    return _doubling(lambda b: _tree_node(f, base, b, None), budget)


def _tree_node(f, tower, budget, known):
    """:func:`puiseux_tree` of f over ``tower``, f known modulo x^known
    (None = exact)."""
    q, f = f.strip_y_power()
    if q >= 2:
        if known is not None:
            raise PrecisionError("y^2 divides the truncated germ")
        raise NotReducedError("y^2 divides the germ")
    np_f = newton_polygon(f)
    for v in np_f.vertices:
        unit_inverse(f.terms[v])  # a zero divisor splits the tower here
    if known is not None and np_f.vertices and np_f.vertices[-1][0] >= known:
        raise PrecisionError("the Newton polygon is undetermined at this truncation")
    clusters = []
    if q == 1:
        if known is not None:
            _axis_validity(f, np_f.sides, known)
        clusters.append((None, [(1,)], [[0]]))
    for side in np_f.sides:
        e, qx = side.newton_pair()
        s = side.inclination
        child_budget = max(budget - qx, 4)
        b = pow(e, -1, qx) if qx > 1 else 1
        a = (b * e - 1) // qx

        def child(tw, w):
            f2, known2 = _recenter(f, e, qx, w**b, child_budget, known, w**a)
            return _tree_node(f2, tw, child_budget, known2)

        def lift(n, *betas):
            # a branch (n', beta') one node down is (e n', [q n' if e > 1] + [q n' + beta'])
            head = (e * n, qx * n) if e > 1 else (n,)
            return head + tuple(qx * n + x for x in betas)

        for g, mult in uyun(list(side.side_polynomial)[::e]):
            if mult == 1:  # each root is one branch, smooth one node down
                clusters.extend([(s, [lift(1)], [[0]])] * (len(g) - 1))
                continue
            for copies, (branches, inner) in _over_root(tower, g, child):
                clusters.extend([(s, [lift(*c) for c in branches], inner)] * copies)
    return join_clusters(clusters)


# -- tower-valued expansions ----------------------------------------------------


def puiseux_expand(f: BivariatePolynomial, target_order: int | None = None) -> list[PuiseuxBranch]:
    """All branches of a reduced germ f through the origin, as
    :class:`PuiseuxBranch` values expanded at least to ``target_order``
    and until every branch's semigroup is resolved; a precision shortfall
    doubles the budget, at most ``_DOUBLINGS`` times.

    Raises NotReducedError for germs with multiple components, ValueError
    for x-axis factors (those cannot be written as x = t^n) and for germs
    not vanishing at the origin.
    """
    if f.is_zero:
        raise ValueError("cannot expand the zero polynomial")
    if f.x_power_divisor() > 0:
        raise ValueError("x divides f: the vertical axis branch has no x = t^n form")
    if (0, 0) in f.terms:
        raise ValueError("f(0,0) != 0: no germ at the origin")
    if resultant_y(f, f.derivative_y()).is_zero:
        raise NotReducedError("f and f_y share a y-factor")
    base = _base_tower(f)
    base_height = base.height if base is not None else 0
    deg = f.degree_y()
    if target_order is None:
        mu = milnor_number(f)
        # pairwise contacts are bounded by (mu + r - 1)/2, so mu + deg + a
        # small margin resolves semigroups and contacts
        target_order = mu + deg + 4
        max_depth = (mu + deg) // 2 + 2
    else:
        max_depth = target_order  # explicit budgets trust the caller

    def run(budget):
        branches = _expand_all(f, base, base_height, budget, max_depth)
        for b in branches:
            if b.trunc is not None:
                characteristic_exponents(b)  # semigroup stabilized?
        _post_check(f, branches, budget)
        return branches

    return _doubling(run, target_order)


def _expand_all(f, base, base_height, budget, max_depth) -> list[PuiseuxBranch]:
    out = []
    for stw, n, terms, valid in _expand_germ(f, base, budget, 0, max_depth, None):
        degree_above = stw.degree_above(base_height)
        if degree_above % n:
            raise AssertionError(
                f"conjugate count {degree_above} not divisible by ramification {n}"
            )
        out.append(PuiseuxBranch.from_terms(n, terms, valid, conjugacy=degree_above // n))
    return out


def _expand_germ(f, tower, budget, depth, max_depth, known):
    """Recursive side expansion; yields states (tower, N, terms, valid_order)
    where the terms parametrize y(t) with x = t^N correct modulo
    t^valid_order (None = exact).  f is known modulo x^known (None = exact);
    no state of an inexact germ is claimed exact."""
    states = []
    q, f = f.strip_y_power()
    if q >= 2:
        if known is not None:
            # puiseux_expand certified f reduced: the truncation dropped the
            # terms that keep y^2 from dividing the germ
            raise PrecisionError("y^2 divides the truncated germ")
        raise NotReducedError("y^2 divides the germ")
    sides = ()
    if not (f.is_zero or (0, 0) in f.terms):
        if f.x_power_divisor() > 0:
            raise NotReducedError("x-power appeared inside the expansion")
        sides = newton_polygon(f).sides
    if q == 1:
        valid = None if known is None else _axis_validity(f, sides, known)
        states.append((tower if tower is not None else Tower(), 1, {}, valid))
    for side in sides:
        states.extend(_expand_side(f, side, tower, budget, depth, max_depth, known))
    return states


def _axis_validity(f, sides, known) -> int:
    """Validity order of the root y = 0 of y*f when y*f is known only
    modulo x^known.  The unknown terms add at worst x^known to the
    coefficient of y^0, so the true root is O(x^(known-k)) with
    k = ord_x f(x, 0), as long as that order exceeds the inclination of
    every side of f (the y-axis side then stays a side of the true germ)."""
    k = BivariatePolynomial({(i, 0): c for (i, j), c in f.terms.items() if j == 0}).x_order()
    valid = known - k
    if any(side.inclination >= valid for side in sides):
        raise PrecisionError("the y-axis root is undetermined at this truncation")
    return valid


def _expand_side(f, side, tower, budget, depth, max_depth, known):
    e, qx = side.newton_pair()
    # the recentering raises every final validity by q*N_child >= qx, so
    # the child only needs the budget shrunk by qx
    child_budget = max(budget - qx, 4)

    def child(tw, root, mult):
        unit_inverse(root)  # a zero divisor splits the tower here
        f2, known2 = _recenter(f, e, qx, root, child_budget, known)
        if mult == 1:
            terms, valid = _regular_solve(f2, child_budget, known2)
            for c in terms.values():
                unit_inverse(c)
            children = [(tw if tw is not None else Tower(), 1, terms, valid)]
        else:
            if depth + 1 > max_depth:
                raise NotReducedError(
                    "repeated side-polynomial root persists beyond the delta bound"
                )
            children = _expand_germ(f2, tw, child_budget, depth + 1, max_depth, known2)
        out = []
        for tw3, n_c, terms_c, valid in children:
            root3 = project_value(root, tw3 if tw3.height else None)
            terms = {qx * n_c + k: v for k, v in terms_c.items()}
            terms[qx * n_c] = root3
            # the recentering y = x1^q (root + y1) shifts validity upward
            valid_total = None if valid is None else qx * n_c + valid
            out.append((tw3, e * n_c, terms, valid_total))
        return out

    out = []
    for g, mult in uyun(list(side.side_polynomial)):
        for _copies, states in _over_root(tower, g, lambda tw, root: child(tw, root, mult)):
            out.extend(states)
    return out


def _recenter(f, e, q, root, budget, known, scale=1):
    """f(scale * x1^e, x1^q (root + y1)) divided by its x1-power, truncated
    in x1 above x1^budget; also returns the known precision of the result,
    from that of f (``known``, None = exact) and from the dropped terms."""
    lvl = min(e * i + q * j for (i, j) in f.terms)
    known2 = None if known is None else e * known - lvl
    maxj = f.degree_y()
    rpow = [Fraction(1)]
    for _ in range(maxj):
        rpow.append(rpow[-1] * root)
    spow = None
    if scale != 1:
        spow = [Fraction(1)]
        for _ in range(max(i for i, _ in f.terms)):
            spow.append(spow[-1] * scale)
    terms: dict = {}
    for (i, j), c in f.terms.items():
        base = e * i + q * j - lvl
        if base > budget:
            known2 = budget + 1 if known2 is None else min(known2, budget + 1)
            continue
        if spow is not None:
            c = c * spow[i]
        for k in range(j + 1):
            key = (base, k)
            add = c * (comb(j, k) * rpow[j - k])
            if key in terms:
                add = terms[key] + add
            if value_is_zero(add):
                terms.pop(key, None)
            else:
                terms[key] = add
    return BivariatePolynomial(terms), known2


def _regular_solve(f, budget, known) -> tuple[dict, int | None]:
    """Solve f(x, y(x)) = 0 with y(0) = 0 at a simple root: f(0,0) = 0 and
    d f/d y (0,0) a unit.  Newton iteration with precision doubling; the
    quadratic convergence certifies each doubled validity order.  Returns
    the terms below w = budget + 1 and the validity order w (None when
    those terms are an exact solution).  When f is known only modulo
    x^known, so is its root: the budget is capped at known - 1, and the
    solution is never claimed exact.

    Two precision rules keep the work to what the certificate needs:

    * When the residual f(y) mod t^prec has order h, the correction
      f(y) / f_y(y) is needed only mod t^prec, so f_y(y) and its inverse
      are needed only mod t^(prec - h).  h is measured, not assumed, so a
      shortfall costs time and never correctness.
    * The solution is unique, so a nonzero t^w term of it proves that its
      truncation below w is not a polynomial root.  The iteration runs to
      t^(w+1), and f is evaluated exactly only when that term vanishes.
    """
    if known is not None:
        if known < 2:
            raise PrecisionError("the germ is known to too low an order")
        budget = min(budget, known - 1)
    w = budget + 1
    fy = f.derivative_y()
    d0 = fy.terms.get((0, 0), Fraction(0))
    if unit_inverse(d0) is None:
        raise AssertionError("regular solve called at a non-simple root")
    y = TruncatedSeries.zero(1)
    prec = 1
    while prec <= w:
        prec = min(2 * prec, w + 1)
        ycur = y.declare_trunc(prec)
        num = evaluate_bivariate(f, 1, ycur).truncate(prec)
        if num.is_zero_mod_trunc:
            y = ycur
            continue
        k = prec - num.min_exponent()
        den = evaluate_bivariate(fy, 1, ycur.truncate(k)).truncate(k)
        y = (ycur - num * den.inverse(k)).truncate(prec).declare_trunc(prec)
    if w in y.terms or known is not None:
        return dict(y.truncate(w).terms), w
    exact = evaluate_bivariate(f, 1, y.declare_trunc(None)).is_exact_zero
    return dict(y.terms), None if exact else w


def _post_check(f, branches, budget):
    for b in branches:
        val = evaluate_bivariate(f, b.n, b.y_series())
        if val.is_exact_zero:
            continue
        if val.min_exponent() is not None:
            raise AssertionError(
                f"branch does not annihilate the germ to its truncation: {b!r}"
            )
    # the ramification orders sum to the number of y-roots through the
    # origin: the polygon height plus a stripped y-axis factor
    total = sum(b.n * b.conjugacy for b in branches)
    np_f = newton_polygon(f)
    height = (np_f.vertices[0][1] if np_f.vertices else 0) + np_f.y_mult
    if total != height:
        raise AssertionError(f"ramification sum {total} != y-root count {height}")
