"""Symmetric / SPD matrix core: validated wrappers and congruence transforms.

Dense storage only; dimensions are expected to stay below ~64. The matrix
classes are values: immutable after construction (the underlying arrays are
marked read-only), so they are safe to share between threads, and they pickle
and copy. Equality and hash go by the entries within a family, so an
SpdMatrix equals (and hashes like) the SymMatrix with the same entries, while
a LinearMap never equals a SymMatrix.

Values are checked at the public doors: the constructors, and ``coerce`` in
every public function that takes a matrix, turn any input into a float array
and check its shape, its entries, its symmetry and, for an SpdMatrix, its
Cholesky pivots. The library builds the values of its own arrays (the
oracle's G, Newton trials, Sigma) through the same constructors, so a
computed array that overflowed, lost its symmetry or a pivot fails as an
input would.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, SingularMap, ValidationError

#: Cholesky pivots at or below this value count as "not positive definite".
SPD_TOLERANCE = 1e-12
#: Max |S - S^T| entry accepted for silent symmetrization, relative to the
#: matrix's largest |entry| when that exceeds 1.
SYM_TOLERANCE = 1e-9
#: Reciprocal condition number below which a map counts as singular (unlike
#: |det T|, it does not change when T is scaled).
INV_TOLERANCE = 1e-12
#: Largest |entry| of a matrix value: half the float range, so that the sum
#: of two entries (symmetrization) stays finite.
ENTRY_LIMIT = 0.5 * np.finfo(float).max


def float_array(entries, what: str) -> np.ndarray:
    """A float copy of a rectangular array of ints or floats, never of strings or bools."""
    try:
        arr = np.asarray(entries)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be a rectangular array of numbers")
    return arr.astype(float)


def _square_array(entries, what: str):
    """(arr, largest |entry|) of a square, finite, non-empty float matrix."""
    arr = float_array(entries, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{what} must have positive dimension")
    largest = np.abs(arr).max()
    if not largest <= ENTRY_LIMIT:
        raise ValidationError(f"{what} has non-finite entries or entries above {ENTRY_LIMIT:.2e}")
    return arr, float(largest)


def cholesky_factor(arr: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = arr; raises NotPositiveDefinite.

    Pivots (squared diagonal of L) must exceed SPD_TOLERANCE, which separates
    genuine boundary cases from roundoff at the dimensions we target.
    """
    try:
        low = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky failed: {exc}") from None
    pivots = low.diagonal() ** 2
    if pivots.min() <= SPD_TOLERANCE:
        raise NotPositiveDefinite(
            f"Cholesky pivot {pivots.min():.3e} at or below {SPD_TOLERANCE:.0e}"
        )
    return low


class _Frozen:
    """Immutable after construction: constructors set attributes through
    ``_freeze``, which marks arrays read-only; later writes and deletes raise."""

    __slots__ = ()

    def _freeze(self, **attrs):
        for name, value in attrs.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _FrozenMatrix(_Frozen):
    """A square matrix as a value: read-only entries, equality and hash by
    ``_family`` (symmetric or map) and entries, copies rebuilt by the constructor."""

    __slots__ = ("mat",)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def coerce(cls, value):
        """value itself when it is already a cls, else cls(value)."""
        return value if isinstance(value, cls) else cls(value)

    def __eq__(self, other):
        return (
            isinstance(other, _FrozenMatrix)
            and other._family == self._family
            and np.array_equal(self.mat, other.mat)
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which == already equates
        return hash((self._family, (self.mat + 0.0).tobytes()))

    def __reduce__(self):
        return type(self), (self.mat,)

    def __repr__(self):
        return f"{type(self).__name__}({self.mat.tolist()!r})"


def plain(value):
    """A result as the builtins json prints: the one rule of every JSON output.

    A dataclass becomes a dict of its fields in declaration order, with None
    fields left out; a matrix value, numpy array or numpy scalar becomes
    nested lists or a Python number; lists, tuples and dicts are converted
    element by element. Anything else is returned as it is.
    """
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {name: plain(item) for name, item in items if item is not None}
    if isinstance(value, _FrozenMatrix):
        return value.mat.tolist()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


class SymMatrix(_FrozenMatrix):
    """Real symmetric matrix.

    Construction symmetrizes inputs whose asymmetry is at most
    ``SYM_TOLERANCE * max(1, largest |entry|)`` (tolerates file-I/O and
    arithmetic roundoff at any scale) and rejects anything worse (catches
    user error).
    """

    __slots__ = ()
    _family = "symmetric"

    def __init__(self, entries):
        arr, largest = _square_array(entries, "symmetric matrix")
        asym = np.abs(arr - arr.T).max()
        bound = SYM_TOLERANCE * max(1.0, largest)
        if asym > bound:
            raise ValidationError(
                f"matrix not symmetric: max asymmetry {asym:.3e} exceeds {bound:.1e}"
            )
        self._freeze(mat=0.5 * (arr + arr.T))

    def __array__(self, dtype=None, copy=None):
        # numpy 2's copy protocol: True a fresh array, False none or ValueError;
        # numpy 1 passes no copy and rejects np.array(..., copy=None)
        arr = np.asarray(self.mat, dtype=dtype)
        if copy is False and arr is not self.mat:
            raise ValueError("a dtype change needs a copy of the matrix")
        return arr.copy() if copy and arr is self.mat else arr


class SpdMatrix(SymMatrix):
    """Symmetric positive definite matrix with a cached Cholesky factor."""

    __slots__ = ("chol",)

    def __init__(self, entries):
        super().__init__(entries)
        self._freeze(chol=cholesky_factor(self.mat))

    def inverse(self) -> np.ndarray:
        """Dense inverse computed from the cached factor."""
        eye = np.eye(self.n)
        low_inv = np.linalg.solve(self.chol, eye)
        return low_inv.T @ low_inv


class LinearMap(_FrozenMatrix):
    """Invertible n x n matrix acting as a change of basis."""

    __slots__ = ()
    _family = "map"

    def __init__(self, entries):
        arr = _square_array(entries, "linear map")[0]
        rcond = 1.0 / np.linalg.cond(arr)
        if rcond < INV_TOLERANCE:
            raise SingularMap(f"reciprocal condition number {rcond:.3e} below {INV_TOLERANCE:.0e}")
        self._freeze(mat=arr)

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(np.eye(n))

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.mat)


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
