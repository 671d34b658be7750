"""Parametrized branch families for the classified equisingularity strata.

Each family instantiates one normal-form row with supplied or sampled
parameter values, enforcing the row's side conditions, and knows the wall
values where the general-polar type changes (used by sweeps to exercise the
non-generic loci).  Family names:

    gamma-5-12/<row>   rows 1..18 of the <5,12> classification
    mult3              (t^3, t^beta + t^(beta+eps+3k)), params beta, k
    mult3-monomial     (t^3, t^beta)
    mult4-g1/<form>    multiplicity four, genus one, forms 1..3
    mult4-g2           multiplicity four, genus two, params v1, v2
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .branch import PuiseuxBranch
from .errors import BranchPolarError
from .tower import Tower

SQRT6_TOWER = Tower().adjoin("sqrt6", (Fraction(-6), Fraction(0), Fraction(1)))
SQRT6 = SQRT6_TOWER.generator(1)


class FamilyError(BranchPolarError):
    """Unknown family or a parameter violating a side condition."""


def _rand_rational(rng: random.Random, nonzero: bool = True) -> Fraction:
    while True:
        v = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        if v or not nonzero:
            return v


@dataclass(frozen=True)
class BranchFamily:
    """A named family: parameter names, side conditions, walls, builder."""

    name: str
    parameters: tuple[str, ...]
    builder: Callable[[dict], PuiseuxBranch]
    conditions: tuple[tuple[str, Callable[[dict], bool]], ...] = ()
    walls: tuple[dict, ...] = ()
    sampler: Callable[[random.Random], dict] | None = None
    # predicates for the hyperplanes holding the walls: random draws avoid them,
    # explicit parameters may lie on them
    wall_loci: tuple[Callable[[dict], bool], ...] = ()

    def validate(self, params: dict) -> None:
        for label, cond in self.conditions:
            if not cond(params):
                raise FamilyError(f"{self.name}: side condition violated: {label}")

    def branch(self, params: dict) -> PuiseuxBranch:
        self.validate(params)
        return self.builder(params)

    def sample_params(self, rng: random.Random) -> dict:
        for _ in range(100):
            if self.sampler is not None:
                params = self.sampler(rng)
            else:
                params = {p: _rand_rational(rng) for p in self.parameters}
            try:
                self.validate(params)
            except FamilyError:
                continue
            if not any(on_wall(params) for on_wall in self.wall_loci):
                return params
        raise FamilyError(f"{self.name}: could not sample admissible parameters")

    def __reduce__(self):
        # builders are closures; pickle by registry name instead (needed so
        # sweeps can run in process pools)
        return (family, (self.name,))


def _terms_gamma_5_12(row: int, p: dict) -> dict:
    c = p.get("c", Fraction(0))
    d = p.get("d", Fraction(0))
    e = p.get("e", Fraction(0))
    one = Fraction(1)
    rows = {
        1: {12: one},
        2: {12: one, 38: one},
        3: {12: one, 33: one},
        4: {12: one, 28: one},
        5: {12: one, 26: one, 28: c},
        6: {12: one, 26: one, 33: c},
        7: {12: one, 23: one, 26: c},
        8: {12: one, 21: one, 23: c, 28: d},
        9: {12: one, 18: one, 21: c, 26: d},
        10: {12: one, 16: one, 18: c, 23: d},
        11: {12: one, 14: one, 16: c, 18: d, 23: e},
        12: {12: one, 14: one, 16: c, 18: (4 * c * c - 1) / 3, 23: d, 28: e},
        13: {12: one, 14: one, 16: Fraction(13, 12), 18: c, 21: d},
        14: {12: one, 14: one, 16: Fraction(13, 12), 18: Fraction(133, 108), 21: c, 23: d},
        15: {
            12: one, 14: one, 16: Fraction(13, 12), 18: Fraction(133, 108),
            21: c, 23: Fraction(34, 11) * c, 28: d,
        },
        16: {
            12: one, 14: one, 16: Fraction(13, 12), 18: Fraction(133, 108),
            21: c, 23: Fraction(34, 11) * c,
            28: Fraction(81, 32) * c * c + Fraction(5225, 559872), 33: d,
        },
        17: {12: one, 13: one, 14: Fraction(-1, 2), 16: c, 21: d, 26: e},
        18: {12: one, 13: one, 14: c, 16: d, 21: e},
    }
    return rows[row]


_GAMMA_5_12_PARAMS = {
    1: (), 2: (), 3: (), 4: (),
    5: ("c",), 6: ("c",), 7: ("c",),
    8: ("c", "d"), 9: ("c", "d"), 10: ("c", "d"),
    11: ("c", "d", "e"), 12: ("c", "d", "e"), 13: ("c", "d"),
    14: ("c", "d"), 15: ("c", "d"), 16: ("c", "d"),
    17: ("c", "d", "e"), 18: ("c", "d", "e"),
}

_GAMMA_5_12_CONDITIONS: dict[int, tuple] = {
    5: (("c != 0", lambda p: p["c"] != 0),),
    11: (
        ("c != 13/12", lambda p: p["c"] != Fraction(13, 12)),
        ("d != (4c^2-1)/3", lambda p: p["d"] != (4 * p["c"] ** 2 - 1) / 3),
    ),
    12: (("c != 13/12", lambda p: p["c"] != Fraction(13, 12)),),
    13: (("c != 133/108", lambda p: p["c"] != Fraction(133, 108)),),
    14: (("d != 34c/11", lambda p: p["d"] != Fraction(34, 11) * p["c"]),),
    15: (
        (
            "d != 81c^2/32 + 5225/559872",
            lambda p: p["d"] != Fraction(81, 32) * p["c"] ** 2 + Fraction(5225, 559872),
        ),
    ),
    18: (("c != -1/2", lambda p: p["c"] != Fraction(-1, 2)),),
}

# stratum 18 is the one stratum whose polar type depends on the parameters:
# the walls below realize every non-generic polar type of the family
_GAMMA_18_WALLS = (
    {"c": Fraction(-5, 4), "d": Fraction(2, 7), "e": Fraction(1)},
    {"c": Fraction(-5, 4), "d": Fraction(-5, 16), "e": Fraction(1)},
    {"c": Fraction(1), "d": Fraction(3, 5), "e": Fraction(2)},
)
_GAMMA_18_WALL_LOCI = (lambda p: p["c"] == Fraction(-5, 4), lambda p: p["c"] == 1)


def gamma_5_12(row: int) -> BranchFamily:
    if row not in _GAMMA_5_12_PARAMS:
        raise FamilyError(f"gamma-5-12 has rows 1..18, not {row}")

    def build(params: dict) -> PuiseuxBranch:
        return PuiseuxBranch.from_terms(5, _terms_gamma_5_12(row, params))

    return BranchFamily(
        name=f"gamma-5-12/{row}",
        parameters=_GAMMA_5_12_PARAMS[row],
        builder=build,
        conditions=_GAMMA_5_12_CONDITIONS.get(row, ()),
        walls=_GAMMA_18_WALLS if row == 18 else (),
        wall_loci=_GAMMA_18_WALL_LOCI if row == 18 else (),
    )


def mult3(monomial: bool = False) -> BranchFamily:
    """(t^3, t^beta [+ t^(beta+eps+3k)]) with beta = 3q + eps, 0 <= k <= q-2."""

    def build(params: dict) -> PuiseuxBranch:
        beta = int(params["beta"])
        if beta < 4 or beta % 3 == 0:
            raise FamilyError("beta must be >= 4 and coprime to 3")
        terms = {beta: Fraction(1)}
        if not monomial:
            eps = beta % 3
            q = (beta - eps) // 3
            k = int(params["k"])
            if not 0 <= k <= q - 2:
                raise FamilyError(f"k must satisfy 0 <= k <= {q - 2}")
            terms[beta + eps + 3 * k] = Fraction(1)
        return PuiseuxBranch.from_terms(3, terms)

    def sample(rng: random.Random) -> dict:
        beta = rng.choice([7, 8, 10, 11, 13, 14])
        if monomial:
            return {"beta": beta}
        q = (beta - beta % 3) // 3
        return {"beta": beta, "k": rng.randint(0, q - 2)}

    return BranchFamily(
        name="mult3-monomial" if monomial else "mult3",
        parameters=("beta",) if monomial else ("beta", "k"),
        builder=build,
        sampler=sample,
    )


def _mult4_g1_exponents(m: int, j: int) -> list[int]:
    """Exponents carrying the moduli a_1, a_2, ... of the second normal form."""
    q4 = m // 4
    count = j - q4 - 2
    return [2 * m - 4 * (j - q4 - i) for i in range(1, count + 1)]


def mult4_g1(form: int) -> BranchFamily:
    """Multiplicity four, genus one: three normal forms over <4, m>.

    Form 1 is the monomial (t^4, t^m).  Form 2 takes integer parameters m
    (odd), j with 2 <= j <= m//2 and moduli a1, a2, ... (rational, or
    sqrt6-tower elements at the walls).  Form 3 takes m, j with
    2 <= j <= m//4: leading exponent 2m-4j and a sampled tail at 3m-8j, with
    polars governed by gcd(3, m-j).
    """
    if form not in (1, 2, 3):
        raise FamilyError("mult4-g1 forms are 1..3")

    def build(params: dict) -> PuiseuxBranch:
        m = int(params["m"])
        if m < 5 or m % 2 == 0:
            raise FamilyError("m must be odd and >= 5 for genus one")
        if form == 1:
            return PuiseuxBranch.from_terms(4, {m: Fraction(1)})
        j = int(params["j"])
        q4 = m // 4
        terms: dict = {m: Fraction(1)}
        if form == 2:
            if not 2 <= j <= m // 2:
                raise FamilyError(f"form 2 needs 2 <= j <= {m // 2}")
            terms[3 * m - 4 * j] = Fraction(1)
            for i, exp in enumerate(_mult4_g1_exponents(m, j), start=1):
                v = params.get(f"a{i}", Fraction(0))
                if v:
                    terms[exp] = v
        else:
            if not 2 <= j <= q4:
                raise FamilyError(f"form 3 needs 2 <= j <= {q4}")
            terms[2 * m - 4 * j] = Fraction(1)
            # a tail exponent in the allowed range keeps the stratum generic
            tail = params.get("tail", Fraction(0))
            if tail:
                terms[3 * m - 8 * j] = tail
        return PuiseuxBranch.from_terms(4, terms)

    def sample(rng: random.Random) -> dict:
        m = rng.choice([11, 13, 17, 19])
        if form == 1:
            return {"m": m}
        if form == 2:
            j = rng.randint(2, m // 2)
            params = {"m": m, "j": j}
            for i in range(1, len(_mult4_g1_exponents(m, j)) + 1):
                if rng.randint(0, 1):
                    params[f"a{i}"] = _rand_rational(rng)
            return params
        return {"m": m, "j": rng.randint(2, m // 4), "tail": _rand_rational(rng)}

    return BranchFamily(
        name=f"mult4-g1/{form}",
        parameters=("m",) if form == 1 else ("m", "j"),
        builder=build,
        sampler=sample,
    )


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


def mult4_g2() -> BranchFamily:
    """Multiplicity four, genus two: semigroup <4, v1, v2> with v1 = 2 k1,
    k1 odd, v2 odd, v2 > 2 v1; moduli at the exponents v2 - 4s lying
    strictly between v2 - v1 and v2."""

    def build(params: dict) -> PuiseuxBranch:
        v1, v2 = int(params["v1"]), int(params["v2"])
        k1 = v1 // 2
        if v1 % 2 or k1 % 2 == 0:
            raise FamilyError("v1 must be 2*k1 with k1 odd")
        if v2 % 2 == 0 or v2 <= 2 * v1:
            raise FamilyError("v2 must be odd and exceed 2*v1")
        terms = {v1: Fraction(1), v2 - v1: Fraction(1)}
        s = 1
        while v2 - 4 * s > v2 - v1:
            v = params.get(f"a{s}", Fraction(0))
            if v:
                terms[v2 - 4 * s] = v
            s += 1
        return PuiseuxBranch.from_terms(4, terms)

    def sample(rng: random.Random) -> dict:
        v1 = rng.choice([6, 10])
        v2 = 2 * v1 + rng.choice([1, 3, 5])
        params = {"v1": v1, "v2": v2}
        s = 1
        while v2 - 4 * s > v2 - v1:
            params[f"a{s}"] = _rand_rational(rng)
            s += 1
        return params

    return BranchFamily(
        name="mult4-g2",
        parameters=("v1", "v2"),
        builder=build,
        sampler=sample,
    )


def family(name: str) -> BranchFamily:
    """Look up a family by its CLI-style name (e.g. 'gamma-5-12/10')."""
    if name not in FAMILY_NAMES:
        raise FamilyError(f"unknown family {name!r}")
    if name.startswith("gamma-5-12/"):
        return gamma_5_12(int(name.split("/", 1)[1]))
    if name == "mult3":
        return mult3()
    if name == "mult3-monomial":
        return mult3(monomial=True)
    if name.startswith("mult4-g1/"):
        return mult4_g1(int(name.split("/", 1)[1]))
    return mult4_g2()


FAMILY_NAMES = tuple(
    [f"gamma-5-12/{r}" for r in range(1, 19)]
    + ["mult3", "mult3-monomial", "mult4-g1/1", "mult4-g1/2", "mult4-g1/3", "mult4-g2"]
)
