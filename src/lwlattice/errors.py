"""Exception hierarchy.

Every exception carries an ``exit_code`` used by the CLI:
1 = validation error, 2 = non-convergence, 3 = numerical failure.
"""


class LwlatticeError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ValidationError(LwlatticeError):
    """Input violates a documented precondition or invariant."""

    exit_code = 1


class ParseError(ValidationError):
    """Model file is not valid JSON or misses required fields."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class SingularMap(ValidationError):
    """Linear map is not invertible within tolerance."""


class UnsupportedOrder(ValidationError):
    """Diagrammatic order outside the implemented range {1, 2}."""


class UnsupportedInteraction(ValidationError):
    """Operation requires a diagonal-quartic interaction."""


class BoundaryTooClose(ValidationError):
    """Green's function too close to the boundary of the SPD cone."""


class DimensionCap(ValidationError):
    """Requested quadrature dimension exceeds the tensor-grid cap."""


class NoConvergence(LwlatticeError):
    """Iteration budget exhausted before reaching tolerance."""

    exit_code = 2

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IterateLeftCone(NoConvergence):
    """A Dyson iterate left the SPD cone with the mixing at its floor.

    The Anderson-mixed fixed point halves its mixing parameter and clears its
    history whenever A - Sigma[G] or the mixed G leaves the cone; this is
    raised once the mixing falls below the floor, or when A - Sigma[G] is
    not SPD at the initial iterate.
    """


class NotPositiveDefinite(LwlatticeError):
    """Cholesky pivot at or below tolerance: matrix is not SPD."""


class DivergentIntegral(LwlatticeError):
    """Partition function diverges: A not SPD and growth of U unverified."""


class NonFinite(LwlatticeError):
    """Non-finite value in a numerical kernel (envelope misconfiguration)."""
