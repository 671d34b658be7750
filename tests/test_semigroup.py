"""The Apéry-set semigroup against the coin-problem sieve, and its cost on
large generators."""

import random
import time
from math import gcd

import pytest

from branchpolar.semigroup import semigroup_from_generators

from oracles import sieve_semigroup


def _random_generator_sets(count: int, seed: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = [rng.randint(1, 60) for _ in range(rng.randint(1, 4))]
        if gcd(*gens) == 1:
            out.append(gens)
    return out


@pytest.mark.parametrize("gens", _random_generator_sets(60, seed=2009))
def test_apery_set_matches_sieve(gens):
    sg = semigroup_from_generators(gens)
    minimal, conductor, gaps = sieve_semigroup(gens)
    assert sg.generators == minimal
    assert sg.conductor == conductor
    assert set(sg.gaps) == gaps and list(sg.gaps) == sorted(gaps)
    for n in range(-1, conductor + sg.multiplicity + 1):
        assert (n in sg) == (n >= 0 and n not in gaps), n


def test_large_generators_are_sized_by_the_multiplicity():
    # the sieve would allocate max(gens) * m bytes, about 10 GB here
    t0 = time.perf_counter()
    sg = semigroup_from_generators((99999, 100000))
    assert time.perf_counter() - t0 < 1.0
    assert sg.generators == (99999, 100000)
    assert sg.conductor == 99998 * 99999
    assert sg.conductor - 1 not in sg and sg.conductor in sg


def test_generator_sets_are_validated():
    with pytest.raises(ValueError):
        semigroup_from_generators([4, 6])
    with pytest.raises(ValueError):
        semigroup_from_generators([0, 3])
    with pytest.raises(ValueError):
        semigroup_from_generators([])
