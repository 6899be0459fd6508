"""Exception types shared across the package."""


class QpermError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionMismatch(QpermError, ValueError):
    """Operands disagree on the problem size."""


class NotAPermutation(QpermError, ValueError):
    """State does not encode a permutation matrix."""


class InvalidSize(QpermError, ValueError):
    """Requested size is outside the supported domain."""


class DomainError(QpermError, ValueError):
    """An entry lies outside the expected alphabet or value domain."""


class MaxStepsExceeded(QpermError, RuntimeError):
    """Descent did not reach a stable state within its flip budget."""
