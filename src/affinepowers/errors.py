"""Typed failures shared across the package.

Every algorithmic routine either returns a verified result or raises one of
these.  Plain ValueError/TypeError are reserved for programming errors
(malformed arguments), not for inputs the algorithms legitimately reject.
"""

from __future__ import annotations


class ExactAlgebraError(Exception):
    """Base class for every typed failure raised by this package."""


class ZeroPolynomial(ExactAlgebraError):
    """An operation that requires a nonzero polynomial received zero."""


class DuplicateAbscissa(ExactAlgebraError):
    """Interpolation points contain a repeated x-coordinate."""


class DimensionMismatch(ExactAlgebraError):
    """Matrix/vector shapes are incompatible."""


class Inconsistent(ExactAlgebraError):
    """A linear system has no solution."""


class FieldExtensionRequired(ExactAlgebraError):
    """The computation would have to leave the rationals to continue."""


class IrrationalNodeDetected(FieldExtensionRequired):
    """A node polynomial has a nonconstant factor without rational roots.

    Signals that a decomposition exists only over an extension field; the
    package reports this instead of computing with algebraic numbers.
    exponent is the exponent of the node condition, when there is one.
    """

    def __init__(self, message: str, exponent: int | None = None):
        super().__init__(message)
        self.exponent = exponent


class ReconstructionFailed(ExactAlgebraError):
    """No verified decomposition was produced (input may be out of regime)."""


class DeltaExhausted(ReconstructionFailed):
    """Automatic interval-width search ran out of widths to try."""


class UnsatisfiableSpec(ExactAlgebraError):
    """An instance-generation request cannot be met within its regime."""
