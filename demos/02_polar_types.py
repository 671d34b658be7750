"""From a parametrized branch to the equisingularity type of its polar.

The pipeline: implicitize (exact, by power sums), form a f_x + b f_y, read the
Newton polygon, and either use polygon combinatorics (non-degenerate case)
or run the full Newton-Puiseux factorization.  The <5,12> strata all give
one answer each except the last; its walls are shown explicitly.
"""

import random
from fractions import Fraction as F

from branchpolar import (
    generic_polar_type,
    implicitize,
    milnor_number,
    newton_polygon,
    polar,
)
from branchpolar.families import gamma_5_12

rng = random.Random(2)

print("one stratum, one polar type:")
for row in (1, 8, 10, 11, 17):
    fam = gamma_5_12(row)
    b = fam.branch(fam.sample_params(rng))
    rep = generic_polar_type(b, samples=3, rng=rng)
    print(f"  row {row:>2}: {rep.polar_type}  (polar mu = {rep.polar_type.milnor_number()},"
          f" Teissier {'ok' if rep.teissier_ok else 'FAILS'})")

print()
print("row 18 is the exception; its type depends on the parameters:")
cases = [
    ("generic  (c, d, e) ", {"c": F(3, 4), "d": F(2), "e": F(5)}),
    ("c = -5/4           ", {"c": F(-5, 4), "d": F(2), "e": F(5)}),
    ("c = -5/4, d = -5/16", {"c": F(-5, 4), "d": F(-5, 16), "e": F(5)}),
    ("c = 1              ", {"c": F(1), "d": F(2), "e": F(5)}),
]
fam18 = gamma_5_12(18)
for label, params in cases:
    b = fam18.branch(params)
    rep = generic_polar_type(b, samples=2, rng=rng)
    print(f"  {label}: {rep.polar_type}")

print()
print("a polar seen through its Newton polygon (row 10):")
fam = gamma_5_12(10)
b = fam.branch(fam.sample_params(rng))
f = implicitize(b)
p = polar(f, F(1), F(1))
np = newton_polygon(p)
print(f"  vertices {list(np.vertices)}")
for s in np.sides:
    print(f"  side {s.start} -> {s.end}: inclination {s.inclination},"
          f" p_L = {list(s.side_polynomial)}")
print(f"  Milnor number of the polar: {milnor_number(p)}")
