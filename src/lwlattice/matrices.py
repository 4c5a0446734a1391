"""Symmetric / SPD matrix core: validated wrappers and congruence transforms.

Dense storage only; dimensions are expected to stay below ~64. All wrapper
objects are immutable after construction (the underlying arrays are marked
read-only), so they are safe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, SingularMap, ValidationError

#: Cholesky pivots at or below this value count as "not positive definite".
SPD_TOLERANCE = 1e-12
#: Max |S - S^T| entry accepted for silent symmetrization.
SYM_TOLERANCE = 1e-9
#: |det T| below this value counts as singular.
INV_TOLERANCE = 1e-12


def _square_array(entries, what: str) -> np.ndarray:
    try:
        arr = np.array(entries, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{what} must have positive dimension")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} has non-finite entries")
    return arr


def cholesky_factor(arr: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = arr; raises NotPositiveDefinite.

    Pivots (squared diagonal of L) must exceed SPD_TOLERANCE, which separates
    genuine boundary cases from roundoff at the dimensions we target.
    """
    try:
        low = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky failed: {exc}") from None
    pivots = np.diag(low) ** 2
    if pivots.min() <= SPD_TOLERANCE:
        raise NotPositiveDefinite(
            f"Cholesky pivot {pivots.min():.3e} at or below {SPD_TOLERANCE:.0e}"
        )
    return low


class SymMatrix:
    """Real symmetric matrix.

    Construction symmetrizes inputs whose asymmetry is at most ``sym_tol``
    (tolerates file-I/O roundoff) and rejects anything worse (catches user
    error).
    """

    __slots__ = ("mat",)

    def __init__(self, entries, sym_tol: float = SYM_TOLERANCE):
        arr = _square_array(entries, "symmetric matrix")
        asym = np.abs(arr - arr.T).max()
        if asym > sym_tol:
            raise ValidationError(
                f"matrix not symmetric: max asymmetry {asym:.3e} exceeds {sym_tol:.1e}"
            )
        arr = 0.5 * (arr + arr.T)
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def coerce(cls, value) -> "SymMatrix":
        if isinstance(value, SymMatrix):
            return value
        return cls(value)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.mat, dtype=dtype)

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and np.array_equal(self.mat, other.mat)

    def __hash__(self):
        return hash((type(self).__name__, self.mat.tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}({self.mat.tolist()!r})"


class SpdMatrix(SymMatrix):
    """Symmetric positive definite matrix with a cached Cholesky factor."""

    __slots__ = ("chol",)

    def __init__(self, entries, sym_tol: float = SYM_TOLERANCE):
        super().__init__(entries, sym_tol=sym_tol)
        object.__setattr__(self, "chol", cholesky_factor(self.mat))
        self.chol.setflags(write=False)

    @classmethod
    def coerce(cls, value) -> "SpdMatrix":
        if isinstance(value, SpdMatrix):
            return value
        if isinstance(value, SymMatrix):
            return cls(value.mat)
        return cls(value)

    def inverse(self) -> np.ndarray:
        """Dense inverse computed from the cached factor."""
        eye = np.eye(self.n)
        low_inv = np.linalg.solve(self.chol, eye)
        return low_inv.T @ low_inv


class LinearMap:
    """Invertible n x n matrix acting as a change of basis."""

    __slots__ = ("mat",)

    def __init__(self, entries, inv_tol: float = INV_TOLERANCE):
        arr = _square_array(entries, "linear map")
        det = np.linalg.det(arr)
        if abs(det) < inv_tol:
            raise SingularMap(f"|det T| = {abs(det):.3e} below {inv_tol:.0e}")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LinearMap is immutable")

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(np.eye(n))

    @classmethod
    def coerce(cls, value) -> "LinearMap":
        if isinstance(value, LinearMap):
            return value
        return cls(value)

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.mat)

    def __eq__(self, other):
        return isinstance(other, LinearMap) and np.array_equal(self.mat, other.mat)

    def __hash__(self):
        return hash(("LinearMap", self.mat.tobytes()))

    def __repr__(self):
        return f"LinearMap({self.mat.tolist()!r})"


def logdet_spd(s: SpdMatrix) -> float:
    """log det of an SPD matrix, from its Cholesky factor."""
    s = SpdMatrix.coerce(s)
    return float(2.0 * np.sum(np.log(np.diag(s.chol))))


def congruence(t: LinearMap, g: SpdMatrix) -> SpdMatrix:
    """T G T^T, the congruence transform of G by the invertible map T."""
    t = LinearMap.coerce(t)
    g = SpdMatrix.coerce(g)
    if t.n != g.n:
        raise DimensionMismatch(f"map dimension {t.n} != matrix dimension {g.n}")
    return SpdMatrix(t.mat @ g.mat @ t.mat.T)


def min_eigenvalue(s: SymMatrix) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(SymMatrix.coerce(s).mat)[0])
