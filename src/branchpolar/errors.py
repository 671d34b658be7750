"""Exception types shared across the package."""

from __future__ import annotations


class BranchPolarError(Exception):
    """Base class for all library errors."""


class PrecisionError(BranchPolarError):
    """A quantity is undetermined at the current truncation order.

    Callers are expected to retry with a larger working order; the
    message records which computation ran out of terms.
    """


class NotReducedError(BranchPolarError):
    """The input germ has a multiple component."""


class NonIsolatedSingularityError(BranchPolarError):
    """f_x and f_y share a component, so the Milnor number is infinite."""


class NormalFormMismatchError(BranchPolarError):
    """Normal forms are trivially inequivalent (different discrete data).

    Raised instead of returning False so that callers can distinguish
    "same stratum, different coefficients" from "not even comparable".
    """


class AmbiguousPairingError(BranchPolarError):
    """Conjugate branches could not be assigned a consistent intersection
    matrix from component data alone."""


class GenericityError(BranchPolarError):
    """A sampled datum landed in a degenerate locus too many times."""


class DSLError(BranchPolarError):
    """Syntax or validation error in the branch DSL.

    Attributes
    ----------
    position : int or None
        Character offset into the source text, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
