"""Exact invariants of plane branch singularities and their general polars.

The package computes, from a Newton-Puiseux parametrization x = t^n,
y = sum c_i t^i with exact coefficients:

* the semigroup of values, conductor and gaps;
* the set of differential values and the Zariski invariant;
* the implicit Weierstrass equation, polar curves and Milnor numbers;
* Newton polygons, non-degeneracy, and the equisingularity type of the
  general polar, read off the Newton-polygon tree over dynamic-evaluation
  towers (Duval's substitution).

``puiseux_expand``, ``pair_intersection_values`` and ``nondegenerate_type``
are not on the type path: they stay as the reference the tests compare the
tree against and as names the benchmark traces.

Everything is exact: rationals throughout, algebraic numbers as roots of
squarefree polynomials in extension towers that split on demand (D5).
"""

from .branch import (
    DifferentialValues,
    PuiseuxBranch,
    differential_values,
    normal_form_equivalent,
    semigroup_of_branch,
    zariski_invariant,
)
from .dsl import BranchSpec, format_branch, parse_branch
from .eqtype import EquisingularityType
from .equising import (
    PolarReport,
    SweepReport,
    equisingularity_type,
    generic_polar_type,
    intersection_multiplicity,
    pair_intersection_values,
    stratum_sweep,
)
from .errors import (
    AmbiguousPairingError,
    BranchPolarError,
    DSLError,
    GenericityError,
    NonIsolatedSingularityError,
    NormalFormMismatchError,
    PrecisionError,
    NotReducedError,
)
from .families import BranchFamily, FamilyError, family
from .implicit import implicitize, milnor_number, polar
from .newton import NewtonPolygon, Side, is_newton_nondegenerate, newton_polygon, nondegenerate_type
from .poly import BivariatePolynomial, resultant_y
from .puiseux import puiseux_expand
from .report import AnalysisReport, analyze
from .semigroup import NumericalSemigroup, semigroup_from_generators
from .series import TruncatedSeries
from .tower import Tower, TowerElement, TowerSplit
from .unipoly import is_squarefree

__all__ = [
    "AmbiguousPairingError",
    "AnalysisReport",
    "BivariatePolynomial",
    "BranchFamily",
    "BranchPolarError",
    "BranchSpec",
    "DSLError",
    "DifferentialValues",
    "EquisingularityType",
    "FamilyError",
    "GenericityError",
    "NewtonPolygon",
    "NonIsolatedSingularityError",
    "NormalFormMismatchError",
    "NotReducedError",
    "NumericalSemigroup",
    "PolarReport",
    "PrecisionError",
    "PuiseuxBranch",
    "Side",
    "SweepReport",
    "Tower",
    "TowerElement",
    "TowerSplit",
    "TruncatedSeries",
    "analyze",
    "differential_values",
    "equisingularity_type",
    "family",
    "format_branch",
    "generic_polar_type",
    "implicitize",
    "intersection_multiplicity",
    "is_newton_nondegenerate",
    "is_squarefree",
    "milnor_number",
    "newton_polygon",
    "nondegenerate_type",
    "normal_form_equivalent",
    "pair_intersection_values",
    "parse_branch",
    "polar",
    "puiseux_expand",
    "resultant_y",
    "semigroup_from_generators",
    "semigroup_of_branch",
    "stratum_sweep",
    "zariski_invariant",
]

__version__ = "0.1.0"
