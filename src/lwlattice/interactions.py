"""Interaction terms U(x): quartic couplings, composition, restriction, growth.

All interactions evaluate pointwise on single vectors or on (m, n) batches of
points; batch evaluation is what the moment oracle feeds with quadrature nodes
and Monte Carlo samples, so the batched path is the hot one.
"""

from __future__ import annotations

import itertools
import sys
from enum import Enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatch, ParseError, UnsupportedInteraction, ValidationError
from .matrices import LinearMap, SymMatrix, _Frozen, float_array

#: Deviation from full index-permutation symmetry accepted for symmetrization,
#: relative to the tensor's largest entry.
TENSOR_SYM_TOLERANCE = 1e-9
#: Direction-grid size for the quartic-form positivity screen.
GROWTH_GRID_SIZE = 4096
#: Philox key of the Gaussian direction draws (fixed: the screen is deterministic).
GROWTH_GRID_SEED = 1723


class Growth(Enum):
    """Growth classification of an interaction term."""

    SUPERQUADRATIC = "super_quadratic"
    ZERO_INTERACTION = "zero_interaction"
    UNVERIFIED = "unverified"


@dataclass(frozen=True)
class GrowthReport:
    """Classification plus provenance: ``screened`` marks the advisory
    direction-grid check rather than the exact entrywise condition."""

    kind: Growth
    screened: bool = False


def _as_batch(x, n: int):
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != n:
            raise DimensionMismatch(f"point has dimension {arr.shape[0]}, expected {n}")
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != n:
            raise DimensionMismatch(f"points have dimension {arr.shape[1]}, expected {n}")
        return arr, False
    raise DimensionMismatch(f"expected a vector or a batch of vectors, got ndim={arr.ndim}")


class Interaction(_Frozen):
    """Base class; concrete variants implement ``_evaluate`` on batches.

    ``_evaluate`` must be even, U(-x) = U(x): every variant is a homogeneous
    quartic form, and the quadrature backend relies on it by summing each
    grid point and its mirror image as one point of twice the weight.

    An interaction is a value, like the matrices: a new subclass sets its
    attributes through ``_freeze``. It is what its model file stores: two are
    equal when they have the same type and the same ``to_dict()``, and copies
    and pickles are rebuilt from that dict through the validating constructors.
    Each library class decides its ``growth`` (see ``validate_growth``) in its
    constructor. A class outside the library keeps the UNVERIFIED default; it
    can be evaluated, but not materialized or restricted: those raise
    UnsupportedInteraction.
    """

    n: int
    growth: GrowthReport = GrowthReport(Growth.UNVERIFIED)

    def __eq__(self, other):
        return type(other) is type(self) and other.to_dict() == self.to_dict()

    def __reduce__(self):
        return interaction_from_dict, (self.to_dict(),)

    def evaluate(self, x):
        """U(x) for a single point (n,) or a batch (m, n) of points."""
        batch, single = _as_batch(x, self.n)
        out = self._evaluate(batch)
        return float(out[0]) if single else out

    def _evaluate(self, batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    @cached_property
    def _quartic_forms(self):
        """(W, W over pair products, S), or None: built on first use, once per value.

        W is ``quartic_tensor``'s and S ``quartic_scale``'s, both read by the
        oracle's grid screen, as is the second, W[., ., a, b] over the pairs
        a <= b of ``pair_basis``, off-diagonal pairs counted twice: an
        (n n, P) matrix. Built only when asked for, so a value at Monte Carlo
        sizes never does the n^4 work; kept in the instance dict, outside
        ``to_dict``, so that equality, copies and pickles do not see it. Both
        arrays are read-only.
        """
        factor, base, t, stretch = _unwound(self)
        if factor == 0.0:
            return None
        n = self.n
        if isinstance(base, DiagonalQuartic):
            eye = np.eye(n)
            v = factor * base.v.mat
            w = _symmetrize_quartic_tensor(np.einsum("ik,ij,kl->ijkl", 0.125 * v, eye, eye))
            coefficients = base.v.mat / 8.0
        elif isinstance(base, GeneralQuartic):
            w = factor * base.w
            coefficients = base.w
        else:
            return None
        scale = factor * stretch * np.abs(coefficients).max()
        if t is not None:
            # W'_abcd = W_ijkl t_ia t_jb t_kc t_ld, one axis at a time: each step
            # contracts the leading axis and appends the new one, O(n^5) in all
            for _ in range(4):
                w = np.tensordot(w, t, axes=(0, 0))
        rows, cols, mult = pair_basis(n)
        w_pairs = w.reshape(n * n, n * n)[:, rows * n + cols] * mult
        for arr in (w, w_pairs):
            arr.setflags(write=False)
        return w, w_pairs, scale


class ZeroInteraction(Interaction):
    """U identically zero (the non-interacting theory)."""

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise ValidationError(f"dimension must be a positive integer, got {n!r}")
        self._freeze(n=int(n), growth=GrowthReport(Growth.ZERO_INTERACTION))

    def _evaluate(self, batch):
        return np.zeros(batch.shape[0])

    def to_dict(self):
        return {"type": "zero", "n": self.n}

    def __repr__(self):
        return f"ZeroInteraction({self.n})"


def _quadratic_form(mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """s' M s for every column s of the (k, m) array cols.

    One BLAS product and a sum over k rows. The moment oracle hands over
    F-ordered (m, n) points, so cols, built from their transpose, is C-ordered
    and every row of the sum is contiguous.
    """
    out = mat @ cols
    out *= cols
    return out.sum(axis=0)


class DiagonalQuartic(Interaction):
    """U(x) = (1/8) sum_ij v_ij x_i^2 x_j^2 with symmetric coupling v."""

    def __init__(self, v):
        v = SymMatrix.coerce(v)
        # U(x) >= (1/8) sum_i v_ii x_i^4 when v_ii > 0 and v_ij >= 0
        confining = np.all(np.diag(v.mat) > 0.0) and np.all(v.mat >= 0.0)
        growth = GrowthReport(Growth.SUPERQUADRATIC if confining else Growth.UNVERIFIED)
        self._freeze(v=v, n=v.n, _v8=v.mat / 8.0, growth=growth)

    def _evaluate(self, batch):
        return _quadratic_form(self._v8, (batch * batch).T)

    def to_dict(self):
        return {"type": "diagonal_quartic", "v": self.v.mat.tolist()}

    def __repr__(self):
        return f"DiagonalQuartic({self.v.mat.tolist()!r})"


@lru_cache(maxsize=16)
def pair_basis(n: int):
    """(rows, cols, multiplicity) of the pairs i <= j in ``np.triu_indices(n)``
    order; an off-diagonal pair stands for both (i, j) and (j, i), so its
    multiplicity is 2. Built once per dimension, read-only because shared."""
    rows, cols = np.triu_indices(n)
    mult = np.where(rows == cols, 1.0, 2.0)
    for arr in (rows, cols, mult):
        arr.setflags(write=False)
    return rows, cols, mult


def pair_products(x: np.ndarray, out=None) -> np.ndarray:
    """x_i x_j over the pairs of ``pair_basis(n)``, per point.

    Returns an F-ordered (m, P) array, P = n(n+1)/2, filled column by column
    from the columns of the (m, n) batch x; or fills the (m, P) array ``out``
    and returns it.
    """
    rows, cols, _ = pair_basis(x.shape[1])
    out = np.empty((x.shape[0], rows.size), order="F") if out is None else out
    for p, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(x[:, i], x[:, j], out=out[:, p])
    return out


def _symmetrize_quartic_tensor(w: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(w)
    for perm in itertools.permutations(range(4)):
        acc += w.transpose(perm)
    return acc / 24.0


@lru_cache(maxsize=16)
def _direction_grid(n: int) -> np.ndarray:
    """Unit directions of the growth screen, built once per dimension, read-only because shared."""
    rng = np.random.Generator(np.random.Philox(key=GROWTH_GRID_SEED))
    z = rng.standard_normal((GROWTH_GRID_SIZE, n))
    dirs = z / np.linalg.norm(z, axis=1, keepdims=True)
    dirs.setflags(write=False)
    return dirs


class GeneralQuartic(Interaction):
    """U(x) = sum_ijkl W_ijkl x_i x_j x_k x_l with fully symmetric W."""

    def __init__(self, w):
        arr = float_array(w, "quartic tensor")
        if arr.ndim != 4 or len(set(arr.shape)) != 1 or arr.size == 0:
            raise ValidationError(f"quartic tensor must be n^4, n >= 1, got shape {arr.shape}")
        # 1/24 of the float range, so that the sum of the 24 permutations stays finite
        limit = np.finfo(float).max / 24.0
        if not np.all(np.abs(arr) <= limit):
            raise ValidationError(
                f"quartic tensor has non-finite entries or entries above {limit:.2e}"
            )
        sym = _symmetrize_quartic_tensor(arr)
        dev = np.abs(arr - sym).max()
        if dev > TENSOR_SYM_TOLERANCE * np.abs(arr).max():
            raise ValidationError(
                f"quartic tensor not permutation symmetric: deviation {dev:.3e}"
            )
        # the average of the 24 permutations is symmetric only up to rounding:
        # every entry W_ijkl takes its value at the sorted index, which keeps
        # an exactly symmetric input as given
        index = tuple(np.sort(np.indices(arr.shape).reshape(4, -1), axis=0))
        w = arr[index].reshape(arr.shape)
        if not np.array_equal(w, arr):
            w = sym[index].reshape(arr.shape)
        # U = sum_pq s_p M_pq s_q over the pair products s_p = x_i x_j, i <= j
        rows, cols, mult = pair_basis(w.shape[0])
        pair_weights = w[rows, cols][:, rows, cols] * np.outer(mult, mult)
        # the advisory screen: the form's minimum over fixed unit directions
        dirs = _direction_grid(w.shape[0])
        if _quadratic_form(pair_weights, pair_products(dirs).T).min() > 0.0:
            growth = GrowthReport(Growth.SUPERQUADRATIC, screened=True)
        else:
            growth = GrowthReport(Growth.UNVERIFIED)
        self._freeze(w=w, n=w.shape[0], _pair_weights=pair_weights, growth=growth)

    def _evaluate(self, batch):
        return _quadratic_form(self._pair_weights, pair_products(batch).T)

    def to_dict(self):
        return {"type": "general_quartic", "n": self.n, "w": self.w.ravel().tolist()}

    def __repr__(self):
        return f"GeneralQuartic(n={self.n})"


def _interaction(inner):
    if not isinstance(inner, Interaction):
        raise ValidationError(f"inner must be an Interaction, got {inner!r}")
    return inner


class ScaledInteraction(Interaction):
    """factor * U(x) with factor >= 0 (interaction-strength dial)."""

    def __init__(self, factor: float, inner: Interaction):
        real = isinstance(factor, Real) and not isinstance(factor, bool)
        if not (real and 0.0 <= factor <= sys.float_info.max):
            raise ValidationError(f"scale factor must be a finite number >= 0, got {factor!r}")
        inner = _interaction(inner)
        growth = GrowthReport(Growth.ZERO_INTERACTION) if factor == 0.0 else inner.growth
        self._freeze(factor=float(factor), inner=inner, n=inner.n, growth=growth)

    def _evaluate(self, batch):
        return self.factor * self.inner._evaluate(batch)

    def to_dict(self):
        return {"type": "scaled", "factor": self.factor, "inner": self.inner.to_dict()}

    def __repr__(self):
        return f"ScaledInteraction({self.factor!r}, {self.inner!r})"


class ComposedInteraction(Interaction):
    """U(T x): the inner interaction precomposed with an invertible map."""

    def __init__(self, inner: Interaction, linmap: LinearMap):
        inner = _interaction(inner)
        linmap = LinearMap.coerce(linmap)
        if linmap.n != inner.n:
            raise DimensionMismatch(
                f"map dimension {linmap.n} != interaction dimension {inner.n}"
            )
        self._freeze(inner=inner, map=linmap, n=inner.n, growth=inner.growth)

    def _evaluate(self, batch):
        # (T x')' is F-ordered, the layout the moment oracle hands over
        return self.inner._evaluate((self.map.mat @ batch.T).T)

    def to_dict(self):
        return {
            "type": "composed",
            "map": self.map.mat.tolist(),
            "inner": self.inner.to_dict(),
        }

    def __repr__(self):
        return f"ComposedInteraction({self.inner!r}, {self.map!r})"


def compose(u: Interaction, t: LinearMap) -> Interaction:
    """Interaction x -> U(T x). Kept lazy; ``materialize`` expands it."""
    return ComposedInteraction(u, t)


def _unwound(u: Interaction):
    """(factor, base, t, stretch) with U(x) = factor * base(t x), t None without
    a map: the wrappers peeled off from the outside in, down to a Zero-,
    Diagonal- or GeneralQuartic (or an interaction of a class outside the
    library). stretch is the product of sum|T|^4 over the maps T."""
    factor, t, stretch = 1.0, None, 1.0
    while isinstance(u, (ScaledInteraction, ComposedInteraction)):
        if isinstance(u, ScaledInteraction):
            factor *= u.factor
        else:
            t = u.map.mat if t is None else u.map.mat @ t
            stretch *= np.abs(u.map.mat).sum() ** 4
        u = u.inner
    return factor, u, t, stretch


def quartic_tensor(u: Interaction):
    """The symmetric tensor W with U(x) = W[x, x, x, x], or None when there is none to build.

    None for a zero interaction (a ZeroInteraction or a zero factor) and for a
    base class outside the library. A diagonal quartic's tensor is
    W_iijj = v_ij / 8, symmetrized; a map T is contracted into every axis.
    Builds no interaction: the tensor is not checked or screened. Built once
    per value and shared read-only.
    """
    forms = u._quartic_forms
    return None if forms is None else forms[0]


def quartic_scale(u: Interaction):
    """S such that U's terms at x sum to at most S ||x||_1^4 in magnitude, as evaluated.

    None where ``quartic_tensor`` is None. The base sums terms of at most
    c ||z||_1^4 at its argument z, where c is max|v| / 8 for a diagonal
    quartic and max|W| for a general one; each wrapper scales that by its
    factor, or by sum|T|^4 for a map T, which bounds ||T x||_1 / ||x||_1 as
    evaluated, one map at a time. The entries of ``quartic_tensor(u)`` are
    at most S too. Read off the record that holds the tensor, built once
    per value.
    """
    forms = u._quartic_forms
    return None if forms is None else forms[2]


def materialize(u: Interaction) -> Interaction:
    """Expand lazy wrappers into Zero / DiagonalQuartic / GeneralQuartic form.

    Needed only when explicit tensor coefficients are required (restriction);
    evaluation never requires it. A composed interaction becomes the
    GeneralQuartic of its ``quartic_tensor``, whose constructor symmetrizes
    the transformed tensor and checks it.
    """
    factor, base, t, _ = _unwound(u)
    if factor == 0.0 or isinstance(base, ZeroInteraction):
        return ZeroInteraction(u.n)
    if isinstance(base, DiagonalQuartic) and t is None:
        return DiagonalQuartic(factor * base.v.mat)
    w = quartic_tensor(u)
    if w is None:
        raise UnsupportedInteraction(f"cannot materialize {type(base).__name__}")
    return GeneralQuartic(w)


def restrict(u: Interaction, p: int) -> Interaction:
    """p-dimensional interaction x -> U(x_1..x_p, 0..0), in materialized form.

    Zero-padding does not commute with a general map, so the coefficients are
    truncated after ``materialize``, never wrapper by wrapper. Raises
    DimensionMismatch unless p is an integer in 1..n.
    """
    if isinstance(p, bool) or not isinstance(p, Integral) or not 1 <= p <= u.n:
        raise DimensionMismatch(f"cannot restrict dimension {u.n} to {p!r}")
    dense = materialize(u)
    if isinstance(dense, ZeroInteraction):
        return ZeroInteraction(p)
    if isinstance(dense, DiagonalQuartic):
        return DiagonalQuartic(dense.v.mat[:p, :p])
    return GeneralQuartic(dense.w[:p, :p, :p, :p])


def as_diagonal_quartic(u: Interaction):
    """(scale, v) for interactions of the form scale * diagonal-quartic(v).

    Raises UnsupportedInteraction otherwise, for a composed diagonal quartic
    too; the closed-form diagram expressions are only valid for this family.
    """
    factor, base, t, _ = _unwound(u)
    if isinstance(base, DiagonalQuartic) and t is None:
        return factor, base.v
    name = type(base).__name__ if t is None else ComposedInteraction.__name__
    raise UnsupportedInteraction(f"{name} is not a (scaled) diagonal quartic interaction")


def validate_growth(u: Interaction) -> GrowthReport:
    """Classify whether U grows faster than any quadratic: ``u.growth``.

    Each library interaction decides its class once, in its constructor.
    Diagonal quartics use the sufficient entrywise condition v_ii > 0 and
    v_ij >= 0, which gives U(x) >= (1/8) sum_i v_ii x_i^4. General quartics
    get an advisory screen: the quartic form is minimized over
    GROWTH_GRID_SIZE fixed random unit directions (normalised Gaussian draws
    from a Philox stream keyed by GROWTH_GRID_SEED). A strictly positive
    minimum is taken for U(x) >= c |x|^4, which the draws cannot prove: the
    form may still dip below zero between them, hence ``screened``. A scaled
    interaction is ZERO_INTERACTION at factor 0 and otherwise takes its
    inner's class, as does a composed one (``LinearMap`` accepts only
    well-conditioned maps, so c1 |x| <= |T x| <= c2 |x|). The report is not
    part of ``to_dict``, so equality and pickling do not see it.

    Anything else, including an object that is not an Interaction, is
    UNVERIFIED.
    """
    return u.growth if isinstance(u, Interaction) else GrowthReport(Growth.UNVERIFIED)


def interaction_from_dict(obj: dict, n: int | None = None) -> Interaction:
    """Build an interaction from its JSON dict representation.

    ``n`` supplies the dimension for variants that do not carry one
    internally (zero without "n", flat general-quartic tensors).
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("interaction must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "zero":
        dim = obj.get("n", n)
        if dim is None:
            raise ParseError("zero interaction needs a dimension ('n')")
        return ZeroInteraction(_numeric(int, dim, "n"))
    if kind == "diagonal_quartic":
        return DiagonalQuartic(_require(obj, "v"))
    if kind == "general_quartic":
        flat = float_array(_require(obj, "w"), "general_quartic field 'w'").ravel()
        dim = obj.get("n", n)
        if dim is None:
            dim = round(len(flat) ** 0.25)
        dim = _numeric(int, dim, "n")
        if dim**4 != flat.size:
            raise ParseError(
                f"general_quartic tensor has {flat.size} entries, not a fourth power of {dim}"
            )
        return GeneralQuartic(flat.reshape((dim,) * 4))
    if kind == "scaled":
        inner = interaction_from_dict(_require(obj, "inner"), n)
        return ScaledInteraction(_numeric(float, _require(obj, "factor"), "factor"), inner)
    if kind == "composed":
        inner = interaction_from_dict(_require(obj, "inner"), n)
        return ComposedInteraction(inner, LinearMap(_require(obj, "map")))
    raise ParseError(f"unknown interaction type {kind!r}")


def _require(obj: dict, key: str):
    if key not in obj:
        raise ParseError(f"interaction of type {obj.get('type')!r} misses field {key!r}")
    return obj[key]


def _numeric(convert, value, key: str):
    """convert(value) for a field that must be a JSON number: a dimension n >= 1
    for int, a number within the float range for float (a JSON integer may not be)."""
    if convert is int:
        noun, ok = "a dimension n >= 1", isinstance(value, Integral) and value >= 1
    else:
        noun, ok = "a finite number", isinstance(value, Real) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not ok:
        raise ParseError(f"interaction field {key!r} must be {noun}, got {value!r}")
    return convert(value)
