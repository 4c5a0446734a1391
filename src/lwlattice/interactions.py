"""Interaction terms U(x): quartic couplings, composition, restriction, growth.

All interactions evaluate pointwise on single vectors or on (m, n) batches of
points; batch evaluation is what the moment oracle feeds with quadrature nodes
and Monte Carlo samples, so the batched path is the hot one.
"""

from __future__ import annotations

import itertools
from enum import Enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParseError, UnsupportedInteraction, ValidationError
from .matrices import LinearMap, SymMatrix

#: Deviation from full index-permutation symmetry accepted for symmetrization.
TENSOR_SYM_TOLERANCE = 1e-9
#: Direction-grid size for the quartic-form positivity screen.
GROWTH_GRID_SIZE = 4096
#: Seed of the quasi-random direction grid (fixed: the screen is deterministic).
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


class Interaction:
    """Base class; concrete variants implement ``_evaluate`` on batches."""

    n: int

    def evaluate(self, x):
        """U(x) for a single point (n,) or a batch (m, n) of points."""
        batch, single = _as_batch(x, self.n)
        out = self._evaluate(batch)
        return float(out[0]) if single else out

    def _evaluate(self, batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def restricted(self, p: int) -> "Interaction":
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _check_restriction(self, p: int):
        if not 1 <= p <= self.n:
            raise DimensionMismatch(f"cannot restrict dimension {self.n} to {p}")


class ZeroInteraction(Interaction):
    """U identically zero (the non-interacting theory)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError("dimension must be positive")
        self.n = int(n)

    def _evaluate(self, batch):
        return np.zeros(batch.shape[0])

    def restricted(self, p):
        self._check_restriction(p)
        return ZeroInteraction(p)

    def to_dict(self):
        return {"type": "zero", "n": self.n}

    def __eq__(self, other):
        return isinstance(other, ZeroInteraction) and other.n == self.n

    def __repr__(self):
        return f"ZeroInteraction({self.n})"


class DiagonalQuartic(Interaction):
    """U(x) = (1/8) sum_ij v_ij x_i^2 x_j^2 with symmetric coupling v."""

    def __init__(self, v):
        self.v = SymMatrix.coerce(v)
        self.n = self.v.n

    def _evaluate(self, batch):
        sq = batch * batch
        return 0.125 * np.einsum("mi,ij,mj->m", sq, self.v.mat, sq)

    def restricted(self, p):
        self._check_restriction(p)
        return DiagonalQuartic(self.v.mat[:p, :p])

    def to_dict(self):
        return {"type": "diagonal_quartic", "v": self.v.mat.tolist()}

    def __eq__(self, other):
        return isinstance(other, DiagonalQuartic) and np.array_equal(self.v.mat, other.v.mat)

    def __repr__(self):
        return f"DiagonalQuartic({self.v.mat.tolist()!r})"


def _symmetrize_quartic_tensor(w: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(w)
    for perm in itertools.permutations(range(4)):
        acc += np.transpose(w, perm)
    return acc / 24.0


class GeneralQuartic(Interaction):
    """U(x) = sum_ijkl W_ijkl x_i x_j x_k x_l with fully symmetric W."""

    def __init__(self, w):
        arr = np.array(w, dtype=float)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise ValidationError(f"quartic tensor must be n^4, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("quartic tensor has non-finite entries")
        sym = _symmetrize_quartic_tensor(arr)
        dev = np.abs(arr - sym).max()
        if dev > TENSOR_SYM_TOLERANCE:
            raise ValidationError(
                f"quartic tensor not permutation symmetric: deviation {dev:.3e}"
            )
        sym.setflags(write=False)
        self.w = sym
        self.n = sym.shape[0]

    def _evaluate(self, batch):
        # pair the indices once: s_ij = x_i x_j, then contract the n^2 x n^2 form
        m = batch.shape[0]
        pairs = np.einsum("mi,mj->mij", batch, batch).reshape(m, -1)
        wmat = self.w.reshape(self.n * self.n, self.n * self.n)
        return np.einsum("mp,pq,mq->m", pairs, wmat, pairs)

    def restricted(self, p):
        self._check_restriction(p)
        return GeneralQuartic(self.w[:p, :p, :p, :p])

    def to_dict(self):
        return {"type": "general_quartic", "n": self.n, "w": self.w.ravel().tolist()}

    def __eq__(self, other):
        return isinstance(other, GeneralQuartic) and np.array_equal(self.w, other.w)

    def __repr__(self):
        return f"GeneralQuartic(n={self.n})"


class ScaledInteraction(Interaction):
    """factor * U(x) with factor >= 0 (interaction-strength dial)."""

    def __init__(self, factor: float, inner: Interaction):
        factor = float(factor)
        if not np.isfinite(factor) or factor < 0.0:
            raise ValidationError(f"scale factor must be finite and >= 0, got {factor}")
        self.factor = factor
        self.inner = inner
        self.n = inner.n

    def _evaluate(self, batch):
        return self.factor * self.inner._evaluate(batch)

    def restricted(self, p):
        self._check_restriction(p)
        return ScaledInteraction(self.factor, self.inner.restricted(p))

    def to_dict(self):
        return {"type": "scaled", "factor": self.factor, "inner": self.inner.to_dict()}

    def __eq__(self, other):
        return (
            isinstance(other, ScaledInteraction)
            and other.factor == self.factor
            and other.inner == self.inner
        )

    def __repr__(self):
        return f"ScaledInteraction({self.factor!r}, {self.inner!r})"


class ComposedInteraction(Interaction):
    """U(T x): the inner interaction precomposed with an invertible map."""

    def __init__(self, inner: Interaction, linmap: LinearMap):
        linmap = LinearMap.coerce(linmap)
        if linmap.n != inner.n:
            raise DimensionMismatch(
                f"map dimension {linmap.n} != interaction dimension {inner.n}"
            )
        self.inner = inner
        self.map = linmap
        self.n = inner.n

    def _evaluate(self, batch):
        return self.inner._evaluate(batch @ self.map.mat.T)

    def restricted(self, p):
        # zero-padding does not commute with a general map; go through the
        # materialized tensor
        self._check_restriction(p)
        return materialize(self).restricted(p)

    def to_dict(self):
        return {
            "type": "composed",
            "map": self.map.mat.tolist(),
            "inner": self.inner.to_dict(),
        }

    def __eq__(self, other):
        return (
            isinstance(other, ComposedInteraction)
            and other.map == self.map
            and other.inner == self.inner
        )

    def __repr__(self):
        return f"ComposedInteraction({self.inner!r}, {self.map!r})"


def compose(u: Interaction, t: LinearMap) -> Interaction:
    """Interaction x -> U(T x). Kept lazy; ``materialize`` expands it."""
    return ComposedInteraction(u, t)


def restrict(u: Interaction, p: int) -> Interaction:
    """p-dimensional interaction x -> U(x_1..x_p, 0..0)."""
    return u.restricted(p)


def _diagonal_to_general(v: np.ndarray) -> np.ndarray:
    n = v.shape[0]
    w = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            w[i, i, j, j] += 0.125 * v[i, j]
    return _symmetrize_quartic_tensor(w)


def materialize(u: Interaction) -> Interaction:
    """Expand lazy wrappers into Zero / DiagonalQuartic / GeneralQuartic form.

    Needed only when explicit tensor coefficients are required (restriction of
    a composed interaction); evaluation never requires it.
    """
    if isinstance(u, (ZeroInteraction, DiagonalQuartic, GeneralQuartic)):
        return u
    if isinstance(u, ScaledInteraction):
        inner = materialize(u.inner)
        if isinstance(inner, ZeroInteraction) or u.factor == 0.0:
            return ZeroInteraction(u.n)
        if isinstance(inner, DiagonalQuartic):
            return DiagonalQuartic(u.factor * inner.v.mat)
        return GeneralQuartic(u.factor * inner.w)
    if isinstance(u, ComposedInteraction):
        inner = materialize(u.inner)
        if isinstance(inner, ZeroInteraction):
            return ZeroInteraction(u.n)
        if isinstance(inner, DiagonalQuartic):
            w = _diagonal_to_general(inner.v.mat)
        else:
            w = inner.w
        t = u.map.mat
        w2 = np.einsum("ijkl,ia,jb,kc,ld->abcd", w, t, t, t, t)
        return GeneralQuartic(_symmetrize_quartic_tensor(w2))
    raise UnsupportedInteraction(f"cannot materialize {type(u).__name__}")


def as_diagonal_quartic(u: Interaction):
    """(scale, v) for interactions of the form scale * diagonal-quartic(v).

    Raises UnsupportedInteraction otherwise; the closed-form diagram
    expressions are only valid for this family.
    """
    factor = 1.0
    while isinstance(u, ScaledInteraction):
        factor *= u.factor
        u = u.inner
    if isinstance(u, DiagonalQuartic):
        return factor, u.v
    raise UnsupportedInteraction(
        f"{type(u).__name__} is not a (scaled) diagonal quartic interaction"
    )


def _direction_grid(n: int) -> np.ndarray:
    from scipy.stats import norm, qmc  # here, not at module load: it takes ~1 s to import
    engine = qmc.Sobol(d=n, scramble=True, seed=GROWTH_GRID_SEED)
    u01 = engine.random(GROWTH_GRID_SIZE)
    z = norm.ppf(np.clip(u01, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return z / norms


def validate_growth(u: Interaction) -> GrowthReport:
    """Classify whether U grows faster than any quadratic.

    Sufficient entrywise condition for diagonal quartics: v_ii > 0 and
    v_ij >= 0 gives U(x) >= (1/8) sum_i v_ii x_i^4. General quartics get an
    advisory screen: the quartic form is minimized over a deterministic
    quasi-random direction grid; a strictly positive minimum implies
    U(x) >= c |x|^4. Composition with an invertible map preserves the class.
    """
    if isinstance(u, ZeroInteraction):
        return GrowthReport(Growth.ZERO_INTERACTION)
    if isinstance(u, ScaledInteraction):
        if u.factor == 0.0:
            return GrowthReport(Growth.ZERO_INTERACTION)
        return validate_growth(u.inner)
    if isinstance(u, ComposedInteraction):
        # invertible T: c1 |x| <= |T x| <= c2 |x|, so the growth class carries over
        return validate_growth(u.inner)
    if isinstance(u, DiagonalQuartic):
        v = u.v.mat
        if np.all(np.diag(v) > 0.0) and np.all(v >= 0.0):
            return GrowthReport(Growth.SUPERQUADRATIC)
        return GrowthReport(Growth.UNVERIFIED)
    if isinstance(u, GeneralQuartic):
        dirs = _direction_grid(u.n)
        if u._evaluate(dirs).min() > 0.0:
            return GrowthReport(Growth.SUPERQUADRATIC, screened=True)
        return GrowthReport(Growth.UNVERIFIED)
    return GrowthReport(Growth.UNVERIFIED)


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
        flat = _numeric(lambda w: np.asarray(w, dtype=float), _require(obj, "w"), "w").ravel()
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
    """convert(value) for an interaction field; a non-number is a ParseError."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ParseError(f"interaction field {key!r} is not numeric") from None
