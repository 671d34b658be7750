"""Family instantiation with side conditions, and the branch DSL."""

import pickle
from fractions import Fraction as F

import pytest

from branchpolar.branch import PuiseuxBranch, differential_values
from branchpolar.dsl import format_branch, parse_branch
from branchpolar.errors import DSLError
from branchpolar.families import (
    FAMILY_NAMES,
    FamilyError,
    family,
    gamma_5_12,
    mult4_g2,
)
from oracles import mult4_g1_wall


def test_family_row10_instantiation():
    fam = family("gamma-5-12/10")
    b = fam.branch({"c": F(7), "d": F(2, 3)})
    assert dict(b.y_terms) == {12: F(1), 16: F(1), 18: F(7), 23: F(2, 3)}


def test_family_side_conditions_enforced():
    with pytest.raises(FamilyError):
        gamma_5_12(5).branch({"c": F(0)})
    with pytest.raises(FamilyError):
        gamma_5_12(11).branch({"c": F(13, 12), "d": F(1), "e": F(1)})
    with pytest.raises(FamilyError):
        gamma_5_12(11).branch({"c": F(1), "d": F(1), "e": F(1)})  # d = (4c^2-1)/3
    with pytest.raises(FamilyError):
        gamma_5_12(18).branch({"c": F(-1, 2), "d": F(1), "e": F(1)})
    with pytest.raises(FamilyError):
        family("nonsense")


def test_family_sampling_respects_conditions(rng):
    fam = gamma_5_12(11)
    for _ in range(20):
        params = fam.sample_params(rng)
        fam.validate(params)


def test_row18_draws_avoid_its_walls():
    # draws on the wall hyperplanes c = 1 and c = -5/4 are redrawn whole, so
    # the draws off them come in the order they came without the redraws
    import dataclasses
    import random

    fam = gamma_5_12(18)
    unfiltered = dataclasses.replace(fam, wall_loci=())
    rng = random.Random(912018)
    draws = [unfiltered.sample_params(rng) for _ in range(400)]
    on_wall = [p for p in draws if p["c"] in (F(1), F(-5, 4))]
    assert on_wall  # seed 912018 draws c = 1, d = 5 among its first four
    rng = random.Random(912018)
    kept = [fam.sample_params(rng) for _ in range(400 - len(on_wall))]
    assert kept == [p for p in draws if p not in on_wall]
    fam.branch({"c": F(1), "d": F(3, 5), "e": F(2)})  # walls stay admissible


def test_family_lambda_matches_row(rng):
    # the row's differential values certify the family hits its stratum
    fam = gamma_5_12(8)
    params = fam.sample_params(rng)
    d = differential_values(fam.branch(params))
    assert set(d.extra) == {26, 31, 38, 43}


def test_mult3_family():
    b = family("mult3").branch({"beta": 7, "k": 0})
    assert dict(b.y_terms) == {7: F(1), 8: F(1)}
    with pytest.raises(FamilyError):
        family("mult3").branch({"beta": 7, "k": 1})  # k > q-2


def test_mult4_families():
    b = family("mult4-g1/2").branch({"m": 13, "j": 2})
    assert dict(b.y_terms) == {13: F(1), 31: F(1)}
    w = mult4_g1_wall(29, 13)
    assert 38 in dict(w.y_terms)
    g2 = mult4_g2().branch({"v1": 6, "v2": 13, "a1": F(2)})
    assert dict(g2.y_terms) == {6: F(1), 7: F(1), 9: F(2)}
    with pytest.raises(FamilyError):
        mult4_g2().branch({"v1": 8, "v2": 17})  # k1 even
    # forms 3, 4 and 5 built identical branches: one name remains
    family("mult4-g1/3").branch({"m": 13, "j": 2, "tail": F(1)})
    for gone in ("mult4-g1/4", "mult4-g1/5"):
        with pytest.raises(FamilyError):
            family(gone)


def test_dsl_examples():
    s = parse_branch("x=t^5; y=t^12+t^21")
    assert s.branch == PuiseuxBranch.from_terms(5, {12: F(1), 21: F(1)})
    s2 = parse_branch(
        "x=t^5; y=t^12+t^14+13/12 t^16+133/108 t^18+c t^21 where c=2"
    )
    assert dict(s2.branch.y_terms)[21] == F(2)
    assert s2.parameters == {"c": F(2)}


@pytest.mark.parametrize(
    "text, want",
    [
        ("x=t^5; y=t^12 - c t^21 where c=2", F(-2)),
        ("x=t^5; y=t^12 - - c t^21 where c=-3", F(-3)),
        ("x=t^5; y=t^12 + c t^21 where c=-3", F(-3)),
    ],
)
def test_dsl_signed_parameter_terms(text, want):
    s = parse_branch(text)
    assert dict(s.branch.y_terms) == {12: F(1), 21: want}


def test_family_names_are_one_table():
    for name in FAMILY_NAMES:
        fam = family(name)
        assert fam.name == name
        assert pickle.loads(pickle.dumps(fam)).name == name
    assert family("gamma-5-12/7").parameters == gamma_5_12(7).parameters


def test_dsl_rejections():
    with pytest.raises(DSLError):
        parse_branch("x=t^3; y=t^2")  # y-order below multiplicity
    with pytest.raises(DSLError):
        parse_branch("x=t^0; y=t^2")
    with pytest.raises(DSLError):
        parse_branch("x=t^2; y=t^3+t^3")  # duplicate exponent
    with pytest.raises(DSLError):
        parse_branch("x=t^2; y=c t^3")  # unbound parameter
    err = None
    try:
        parse_branch("x=t^2; y=t^3 + !")
    except DSLError as exc:
        err = exc
    assert err is not None and err.position is not None


def test_dsl_roundtrip_random(rng):
    for _ in range(1000):
        n = rng.randint(2, 6)
        terms = {}
        e = n + rng.randint(0, 4)
        for _ in range(rng.randint(1, 6)):
            terms[e] = F(rng.randint(-30, 30) or 1, rng.randint(1, 30))
            e += rng.randint(1, 5)
        b = PuiseuxBranch.from_terms(n, terms)
        assert parse_branch(format_branch(b)).branch == b
