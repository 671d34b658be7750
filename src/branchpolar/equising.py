"""Equisingularity types of reduced germs and of general polar curves.

The type of a germ is read off its Newton-polygon tree
(:func:`~branchpolar.puiseux.puiseux_tree`): the branches' characteristic
exponents give their semigroups, and the tree gives their intersection
numbers.  Three checks certify it: the multiplicities add up to the number
of y-roots through the origin, every semigroup passes the conductor
formula, and the type's Milnor number equals the one from the resultant.
:func:`intersection_multiplicity` of a branch with a curve serves the
Teissier check of the general polar.

The pair towers below are not on the type path.  They stay as the
reference the tests compare the tree against and as a name the benchmark
traces (:func:`pair_intersection_values`).  Intersection multiplicities of
two expanded branches are computed by sheet sums on a common ramification
cover:

    I(b1, b2) = (n1 / L) * sum_{j < n2} ord_u( Y1(u^(L/n1)) - Y2(zeta^j u^(L/n2)) ),

with L = lcm(n1, n2) and zeta a primitive n2-th root of unity.  Conjugate
branches share one tower-valued parametrization, so pairing needs a tower
holding two independent tuples of roots: b1's tower with a copy of b2's
levels above the base adjoined on top, and zeta, when it is irrational, in
one more level.  A conjugate family paired with itself uses the same tower,
b2 = b1; D5 splitting on the differences copy - original of its generators
splits off the diagonal, the one component where every difference is zero,
and that component is dropped.  Because x = t^n is kept monic, an expanded
branch holds each geometric branch once per reparametrization t -> zeta t
(n times); the pair counts divide by that redundancy and by the degree of
zeta, wherever zeta's level splits.

A Puiseux root is determined by its terms up to its first simple
side-polynomial root (implicit function theorem), and an expansion truncates
every branch after that term, so two tuples whose difference vanishes to its
truncation are one geometric branch.  The pair count certifies this rule: it
must be c1 * c2 for families of c1 and c2 conjugates, c1 * (c1 - 1) for a
family with itself; a short count (distinct branches agreeing to their
truncation) raises PrecisionError, an excess AssertionError.

The general-polar pipeline certifies genericity by agreement across sampled
directions, never symbolically: the exceptional direction set is finite, so
rational directions of bounded height collide with it with probability zero,
and any disagreement is reported rather than hidden.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .branch import PuiseuxBranch, characteristic_semigroup, semigroup_of_branch
from .eqtype import EquisingularityType
from .errors import (
    AmbiguousPairingError,
    BranchPolarError,
    GenericityError,
    NotReducedError,
    PrecisionError,
)
from .implicit import implicitize, milnor_number, polar, shears
from .poly import BivariatePolynomial
from .puiseux import puiseux_tree
from .series import TruncatedSeries, evaluate_bivariate
from .tower import (
    Tower,
    TowerElement,
    compose_element,
    over_components,
    project_value,
    tower_of,
    unit_inverse,
)
from .unipoly import ucyclotomic


def intersection_multiplicity(b: PuiseuxBranch, g: BivariatePolynomial) -> int:
    """ord_t g(x(t), y(t)); PrecisionError when undetermined at the
    branch truncation."""
    s = evaluate_bivariate(g, b.n, b.y_series())
    tower = tower_of(s.terms.values()) or Tower()
    results = over_components(tower, s, lambda _tw, ss: ss.order())
    orders = {o for _tw, o in results}
    if None in orders:
        raise ValueError("the curve vanishes identically on the branch")
    if len(orders) > 1:
        raise AmbiguousPairingError(
            f"intersection order differs between conjugates: {sorted(orders)}"
        )
    return orders.pop()


# -- pair towers ---------------------------------------------------------------


def _cross_pair_setup(t1: Tower | None, t2: Tower | None, base_height: int):
    """Combined tower holding b1's tuple and an independent copy of b2's;
    returns (pair_tower, images of t2's generators)."""
    if t1 is not None and t2 is not None:
        if t1.levels[:base_height] != t2.levels[:base_height]:
            raise ValueError("branches do not share the base tower")
    if t1 is None and base_height > 0:
        host = Tower((t2.levels[:base_height]) if t2 is not None else ())
    else:
        host = t1 if t1 is not None else Tower()
    if t2 is None or t2.height <= base_height:
        gens = [host.generator(s) for s in range(1, (t2.height if t2 else 0) + 1)]
        return host, gens
    cur = host
    gens = [cur.generator(s) for s in range(1, base_height + 1)]
    gens += [None] * (t2.height - base_height)
    for s in range(base_height + 1, t2.height + 1):
        mp_s = t2.levels[s - 1].minpoly
        imgs = [cur.lift(g) for g in gens[: s - 1]]
        new_coeffs = [compose_element(cur, imgs, c, s - 1) for c in mp_s]
        if len(new_coeffs) == 2:  # a split can leave a level linear: its root is explicit
            gens[s - 1] = -new_coeffs[0]
            continue
        cur = cur.adjoin(f"c{cur.height + 1}", [cur.lift(c).rep for c in new_coeffs])
        gens = [cur.lift(g) if g is not None else None for g in gens]
        gens[s - 1] = cur.generator(cur.height)
    return cur, gens


def _off_diagonal(pair: Tower, gens: list, base_height: int) -> list[Tower]:
    """Components of a self-pair tower that hold no pair of equal tuples.

    D5 splitting on the differences copy - original of the generators above
    the base leaves each difference zero or a unit in every component; the
    one component where all of them are zero is the diagonal."""
    diffs = [g - pair.generator(s) for s, g in enumerate(gens, 1) if s > base_height]
    results = over_components(
        pair,
        diffs,
        lambda _tw, ds: all(unit_inverse(d) is None for d in ds),
        min_stage=base_height,
    )
    return [tw for tw, diagonal in results if not diagonal]


def _adjoin_zeta(tower: Tower, n: int):
    """A primitive n-th root of unity over the tower (rational for n <= 2);
    returns (tower, zeta)."""
    if n <= 2:
        return tower, Fraction(1 if n == 1 else -1)
    stage = tower.height + 1
    cur = tower.adjoin(f"zeta{stage}", [tower.from_rational(c).rep for c in ucyclotomic(n)])
    return cur, cur.generator(stage)


def _redundancy(b: PuiseuxBranch, base_height: int) -> int:
    """Tuples per geometric branch in b's representation: the tower of an
    expansion-produced branch holds all n reparametrizations t -> zeta t,
    while a directly constructed branch holds one tuple."""
    t = b.tower()
    d = t.degree_above(base_height) if t is not None else 1
    if d % b.conjugacy:
        raise AssertionError("tower degree not divisible by conjugacy")
    return d // b.conjugacy


def pair_intersection_values(
    b1: PuiseuxBranch,
    b2: PuiseuxBranch | None = None,
    base_height: int = 0,
) -> dict[int, int]:
    """Multiset {intersection value: number of ordered geometric pairs} over
    all pairs (conjugate of b1, conjugate of b2), or over distinct conjugate
    pairs of b1 when ``b2`` is None; its total is checked against the
    conjugacies (PrecisionError when short, see the module docstring)."""
    self_pair = b2 is None
    if self_pair:
        t = b1.tower()
        if t is None or t.height <= base_height:
            raise ValueError("self-pairing needs conjugates (nontrivial tower)")
        b2 = b1
    n1, n2 = b1.n, b2.n
    # every pair-tower component holds each geometric pair once per tuple of
    # b1, per tuple of b2 and per embedding of zeta, however zeta's level splits
    phi = sum(gcd(k, n2) == 1 for k in range(1, n2 + 1))
    red = _redundancy(b1, base_height) * _redundancy(b2, base_height) * phi
    big_l = lcm(n1, n2)
    s1, s2 = big_l // n1, big_l // n2
    tr_u = None if b2.trunc is None else (b2.trunc - 1) * s2 + 1

    pair, gens = _cross_pair_setup(b1.tower(), b2.tower(), base_height)
    comps = _off_diagonal(pair, gens, base_height) if self_pair else [pair]

    def compute(tw, data):
        yy1, yy2, zz = data
        total = 0
        for j in range(n2):
            terms = {}
            zpow: dict[int, object] = {}
            for e, c in yy2:
                ze = (j * e) % n2
                if ze not in zpow:
                    zpow[ze] = zz ** ze
                terms[e * s2] = c * zpow[ze]
            diff = yy1 - TruncatedSeries(terms, tr_u)
            try:
                o = diff.order()
            except PrecisionError:
                return None  # agrees to its truncation: one geometric branch
            if o is None:
                if not self_pair:
                    raise AssertionError("distinct branches produced an identical pair")
                return None
            total += o
        if total % s1:
            raise AssertionError("sheet sum not divisible by the cover degree")
        return total // s1

    degrees: dict[int, int] = {}
    for comp in comps:
        cur, zeta = _adjoin_zeta(comp, n2)
        gens2 = [cur.lift(project_value(g, comp)) for g in gens]
        y1u = b1.y_series().stretch(s1)
        if cur.height:
            y1u = y1u.map_values(cur.lift)
        # second tuple: remap coefficients through the generator images
        y2_terms = []
        for e, c in b2.y_terms:
            if isinstance(c, TowerElement):
                c2 = compose_element(cur, gens2[: c.tower.height], c.rep, c.tower.height)
            else:
                c2 = cur.from_rational(c) if cur.height else c
            y2_terms.append((e, c2))
        results = over_components(
            cur, (y1u, tuple(y2_terms), zeta), compute, min_stage=base_height
        )
        for tw, value in results:
            if value is not None:
                degrees[value] = degrees.get(value, 0) + tw.degree_above(base_height)
    if any(d % red for d in degrees.values()):
        raise AssertionError("pair degree not divisible by representation redundancy")
    out = {value: d // red for value, d in degrees.items()}
    total = sum(out.values())
    want = b1.conjugacy * (b1.conjugacy - 1 if self_pair else b2.conjugacy)
    if total < want:
        raise PrecisionError(f"{want - total} of {want} pairs agree to their truncation")
    if total > want:
        raise AssertionError(f"pair count {total} > {want}")
    return out


# -- the type of a reduced germ -------------------------------------------------------


def equisingularity_type(f: BivariatePolynomial) -> EquisingularityType:
    """Canonical equisingularity type of a reduced germ, read off its
    Newton-polygon tree and certified as the module docstring says.

    The tree is built for the first germ of :func:`~branchpolar.implicit.shears`
    -- f itself, then f(x + sigma*y, y) for a fixed sequence of sigma --
    with no branch tangent to x = 0, that is with ord_y f(0, y) equal to
    the order of f; a shear changes nothing topologically.  A germ with
    f(0,0) != 0 has no curve at the origin and gets the empty type.
    """
    if (0, 0) in f.terms:
        return EquisingularityType.of([], [])
    for work in shears(f):
        if work.x_power_divisor() >= 2:
            raise NotReducedError("x^2 divides the germ")
        if work.y_power_divisor() >= 2:
            raise NotReducedError("y^2 divides the germ")
        # ord_y f(0, y), the number of y-roots through the origin
        roots = min((j for (i, j) in work.terms if i == 0), default=None)
        if roots == min(i + j for (i, j) in work.terms):
            break
    else:
        raise GenericityError("could not shear away branches tangent to x = 0")

    mu = milnor_number(work)
    branches, mat = puiseux_tree(work, mu + work.degree_y() + 4)
    t = EquisingularityType.of([characteristic_semigroup(b) for b in branches], mat)
    # the ramification sum: the Newton polygon's height plus a y-factor
    total = sum(b[0] for b in branches)
    if total != roots:
        raise AssertionError(f"ramification sum {total} != y-root count {roots}")
    if t.milnor_number() != mu:
        raise AssertionError(
            f"tree type has mu = {t.milnor_number()}, resultant gives {mu}"
        )
    return t


# -- general polar orchestration -----------------------------------------------------


@dataclass(frozen=True)
class PolarReport:
    """Outcome of sampling polar directions for one branch."""

    polar_type: EquisingularityType
    directions: tuple[tuple[Fraction, Fraction], ...]
    milnor: int
    teissier_ok: bool
    certified: bool
    dissent: tuple[tuple[tuple[Fraction, Fraction], EquisingularityType], ...] = ()


def random_direction(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A random direction (a : b) with both entries nonzero of height <= 100
    (b != 0 keeps the polar y-general for Weierstrass forms)."""
    def pick():
        v = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        return -v if rng.randint(0, 1) else v

    return pick(), pick()


def generic_polar_type(
    b: PuiseuxBranch,
    samples: int = 3,
    rng: random.Random | None = None,
) -> PolarReport:
    """Equisingularity type of the general polar of ``b``: its implicit
    equation f and mu(f) by resultant, handed to :func:`sample_polars`."""
    f = implicitize(b)
    return sample_polars(b, f, milnor_number(f), samples, rng)


def sample_polars(
    b: PuiseuxBranch,
    f: BivariatePolynomial,
    mu: int,
    samples: int = 3,
    rng: random.Random | None = None,
) -> PolarReport:
    """Type of the general polar of ``b``, certified by agreement over
    sampled directions; disagreement returns the majority type (the first
    one seen among equal counts) flagged uncertified with the dissenting
    directions listed.  Trusts that ``f`` is the implicit equation of ``b``
    and ``mu`` = mu(f) by resultant; still checks ``mu`` against the
    conductor (Milnor's formula), and each polar's type against its own
    resultant and the Teissier identity (``teissier_ok``)."""
    if samples < 2:
        raise ValueError("genericity certification needs samples >= 2")
    if rng is None:
        rng = random.Random(1729)
    conductor = semigroup_of_branch(b).conductor
    if mu != conductor:  # Milnor's formula for a branch: mu = 2 delta = c
        raise AssertionError(f"Milnor number {mu} by resultant, conductor {conductor}")
    picked: list[tuple[Fraction, Fraction]] = []
    types: list[EquisingularityType] = []
    teissier = True
    attempts = 0
    while len(types) < samples:
        attempts += 1
        if attempts > samples + 12:
            raise GenericityError("too many degenerate polar directions sampled")
        a, bb = random_direction(rng)
        if (a, bb) in picked:
            continue
        pf = polar(f, a, bb)
        try:
            t = equisingularity_type(pf)
        except NotReducedError:
            continue  # direction in the finite bad set; resample
        ram = intersection_multiplicity(b, pf)
        if ram != mu + b.n - 1:
            teissier = False
        picked.append((a, bb))
        types.append(t)
    counts = Counter(types)
    majority = max(counts, key=counts.__getitem__)
    return PolarReport(
        polar_type=majority,
        directions=tuple(picked),
        milnor=mu,
        teissier_ok=teissier,
        certified=len(counts) == 1,
        dissent=tuple((d, t) for d, t in zip(picked, types) if t != majority),
    )


@dataclass(frozen=True)
class SweepGroup:
    polar_type: EquisingularityType
    count: int
    polar_milnor: tuple[int, ...]
    examples: tuple[dict, ...]


@dataclass(frozen=True)
class SweepReport:
    groups: tuple[SweepGroup, ...]
    trials: int
    errors: tuple[str, ...]
    uncertified: int
    teissier_failures: int


def _sweep_trial(job) -> tuple[dict, object]:
    """One sweep trial; module-level so process pools can pickle it.  The
    per-trial seed is derived from (sweep seed, index), which makes the
    sweep's result independent of the worker count.

    A library error of one sample is data; a failed internal verification
    (``AssertionError``) or any other exception propagates.
    """
    family, params, samples, trial_seed = job
    try:
        b = family.branch(params)
        rep = generic_polar_type(b, samples=samples, rng=random.Random(trial_seed))
        return params, rep
    except BranchPolarError as exc:
        return params, f"{type(exc).__name__}: {exc}"


def stratum_sweep(
    family,
    trials: int,
    seed: int = 2029,
    samples: int = 2,
    include_walls: bool = True,
    mapper=map,
) -> SweepReport:
    """Sample parameter tuples from a branch family, compute the generic
    polar type of each, and group the tuples by resulting type with the
    polar Milnor number per group.

    ``mapper`` may be a parallel map (trials are independent); results are
    deterministic for a fixed seed regardless of the mapper.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    jobs = []
    walls = list(getattr(family, "walls", ())) if include_walls else []
    for params in walls[:trials]:
        jobs.append(dict(params))
    while len(jobs) < trials:
        jobs.append(family.sample_params(rng))
    work = [
        (family, params, samples, seed * 1_000_003 + i)
        for i, params in enumerate(jobs)
    ]
    groups: dict[EquisingularityType, list[dict]] = {}
    errors: list[str] = []
    uncertified = 0
    teissier_failures = 0
    for params, rep in mapper(_sweep_trial, work):
        if isinstance(rep, str):
            errors.append(f"{params}: {rep}")
            continue
        if not rep.certified:
            uncertified += 1
        if not rep.teissier_ok:
            teissier_failures += 1
        groups.setdefault(rep.polar_type, []).append(params)
    # a stable sort: the first type seen leads among equal counts
    ordered = sorted(groups.items(), key=lambda tp: -len(tp[1]))
    return SweepReport(
        groups=tuple(
            SweepGroup(
                polar_type=t,
                count=len(ps),
                polar_milnor=(t.milnor_number(),),
                examples=tuple(ps[:3]),
            )
            for t, ps in ordered
        ),
        trials=trials,
        errors=tuple(errors),
        uncertified=uncertified,
        teissier_failures=teissier_failures,
    )
