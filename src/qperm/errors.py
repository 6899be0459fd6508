"""Exception types shared across the package."""


class QpermError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionMismatch(QpermError, ValueError):
    """Operands disagree on the problem size."""


class NonSquareLength(QpermError, ValueError):
    """Vector length is not a positive perfect square."""


class NotAPermutation(QpermError, ValueError):
    """State does not encode a permutation matrix."""


class InvalidSize(QpermError, ValueError):
    """Requested size is outside the supported domain."""


class UnsupportedBranching(QpermError, ValueError):
    """Tree operation is not defined for this branching factor."""


class DomainError(QpermError, ValueError):
    """An entry lies outside the expected alphabet or value domain."""


class NonZeroDiagonal(DomainError):
    """Bipolar substitution needs a zero quadratic diagonal; fold it first."""


class MaxStepsExceeded(QpermError, RuntimeError):
    """Descent did not reach a stable state within its flip budget."""


class SizeBudgetExceeded(QpermError, ValueError):
    """Problem is too large for exhaustive enumeration."""
