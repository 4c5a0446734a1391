"""Ground-truth moments of the lattice measure exp(-x'Ax/2 - U(x)) / Z.

Two backends share one Gaussian envelope exp(-x'Bx/2) and one accumulation
kernel. Each backend only supplies point sets for N(0, I), as chunks of points
y with their probabilities p (summing to one over the whole set):

* tensor-product Gauss-Hermite quadrature (exact for the non-interacting
  theory, exponentially convergent for quartic tails, n small);
* self-normalized importance sampling with proposal N(0, B^-1), 64 batches of
  equally weighted draws and batch-means standard errors.

The kernel maps y to x = L^-T y (B = L L') and accumulates log-weighted sums
over the chunks; fourth moments come from the n(n+1)/2 pair products x_i x_j.

The envelope matrix is B = A when lambda_min(A) >= tau and
B = A + (tau - lambda_min(A)) I otherwise: A may be indefinite as long as the
interaction grows super-quadratically, so the envelope must be repaired before
it can serve as a node/proposal generator. The leftover factor
exp(-x'(A-B)x/2 - U(x)) multiplies the integrand and is handled in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import (
    DimensionCap,
    DimensionMismatch,
    DivergentIntegral,
    NonFinite,
    ValidationError,
)
from .interactions import Growth, Interaction, validate_growth
from .matrices import SpdMatrix, SymMatrix

QUAD_DIM_CAP = 6
DEFAULT_NODES_PER_DIM = 64
DEFAULT_SAMPLES = 1_000_000
DEFAULT_ENVELOPE_FLOOR = 0.5
MC_BATCHES = 64
#: Hard cap on tensor-grid size (nodes_per_dim ** n). The grid is evaluated
#: in chunks, so memory does not bound it; time does: at 64^4 = 16.7M points
#: one G-only evaluation takes 4.4 s (6.0 s with fourth moments) on a 2-core
#: Xeon, and a Newton solve makes about a dozen evaluations.
QUAD_POINT_CAP = 20_000_000
#: Grid points per quadrature chunk; bounds the working set (points, pair
#: products, the interaction's intermediates) whatever the grid size.
QUAD_CHUNK = 1 << 15
#: Statistical errors cannot resolve below float rounding; they are floored
#: at a few ulps so that reported errors stay strictly positive.
_SE_FLOOR_ULPS = 4.0

MODES = ("quadrature", "monte_carlo")


@dataclass(frozen=True)
class OracleConfig:
    """Evaluation backend settings.

    seed and the fixed 64-batch partition make Monte Carlo results
    bit-reproducible: each batch owns a counter-based random stream and the
    reduction order never changes.
    """

    mode: str = "quadrature"
    nodes_per_dim: int = DEFAULT_NODES_PER_DIM
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    envelope_floor: float = DEFAULT_ENVELOPE_FLOOR
    want_fourth_moments: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("nodes_per_dim", "samples", "seed"):
            if not isinstance(getattr(self, name), Integral):
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.nodes_per_dim < 1:
            raise ValidationError("nodes_per_dim must be positive")
        if self.samples < MC_BATCHES:
            raise ValidationError(f"samples must be at least {MC_BATCHES}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")
        if not (
            isinstance(self.envelope_floor, Real)
            and np.isfinite(self.envelope_floor)
            and self.envelope_floor > 0.0
        ):
            raise ValidationError("envelope_floor must be a positive number")


@dataclass(frozen=True)
class StdErrors:
    """Per-entry batch-means standard errors (Monte Carlo only)."""

    z: float
    omega: float
    green: np.ndarray
    fourth_moments: np.ndarray | None = None


@dataclass(frozen=True)
class MomentReport:
    """Partition function, free energy and moments of one (A, U) instance."""

    z: float
    omega: float
    green: SpdMatrix
    mean_interaction: float
    fourth_moments: np.ndarray | None = None
    std_errors: StdErrors | None = None

    def to_dict(self) -> dict:
        out = {
            "z": self.z,
            "omega": self.omega,
            "green": self.green.mat.tolist(),
            "mean_interaction": self.mean_interaction,
        }
        if self.fourth_moments is not None:
            out["fourth_moments"] = self.fourth_moments.ravel().tolist()
        if self.std_errors is not None:
            out["std_errors"] = {
                "z": self.std_errors.z,
                "omega": self.std_errors.omega,
                "green": self.std_errors.green.tolist(),
            }
            if self.std_errors.fourth_moments is not None:
                out["std_errors"]["fourth_moments"] = (
                    self.std_errors.fourth_moments.ravel().tolist()
                )
        return out


@lru_cache(maxsize=32)
def _hermgauss(nodes: int):
    """Gauss-Hermite rule for N(0, 1): nodes sqrt(2) t, log-probabilities log(w / sqrt(pi))."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    return np.sqrt(2.0) * t, np.log(w) - 0.5 * np.log(np.pi)


def _envelope(a: np.ndarray, tau: float, confining: bool):
    """Envelope matrix B and its Cholesky factor.

    The floor repair presumes a confining (super-quadratic) interaction that
    keeps the leftover factor integrable and narrow; without one, A is SPD by
    precondition and is itself the exact envelope, so repairing it would only
    push the nodes off a wide Gaussian.
    """
    lam_min = np.linalg.eigvalsh(a)[0]
    if confining and lam_min < tau:
        b = a + (tau - lam_min) * np.eye(a.shape[0])
    else:
        b = a
    return b, np.linalg.cholesky(b)


def _check_preconditions(a: SymMatrix, u: Interaction) -> bool:
    """Validate integrability; returns whether the interaction confines."""
    if a.n != u.n:
        raise DimensionMismatch(f"A has dimension {a.n}, interaction has {u.n}")
    growth = validate_growth(u)
    if growth.kind is Growth.SUPERQUADRATIC:
        return True
    if np.linalg.eigvalsh(a.mat)[0] <= 0.0:
        raise DivergentIntegral(
            "A is not positive definite and the interaction growth is "
            f"{growth.kind.value}; the partition function may diverge"
        )
    return False


def evaluate_moments(a: SymMatrix, u: Interaction, cfg: OracleConfig) -> MomentReport:
    """Z, Omega = -log Z, G = <x x'> and optionally <x_i x_j x_k x_l>.

    Parameters
    ----------
    a : SymMatrix
        Quadratic coefficient matrix; may be indefinite when the interaction
        grows super-quadratically.
    u : Interaction
        Interaction term.
    cfg : OracleConfig
        Backend selection and accuracy knobs.

    Raises
    ------
    DivergentIntegral
        A not SPD while growth of U is unverified.
    DimensionCap
        Quadrature requested beyond the tensor-grid cap.
    NonFinite
        Overflow or NaN in the integrand (envelope misconfiguration).
    """
    a = SymMatrix.coerce(a)
    confining = _check_preconditions(a, u)
    n = a.n
    if cfg.mode == "monte_carlo":
        return _moments(a, u, cfg, confining, _sample_chunks(n, cfg))
    if n > QUAD_DIM_CAP:
        raise DimensionCap(f"quadrature limited to n <= {QUAD_DIM_CAP}, got {n}")
    if cfg.nodes_per_dim**n > QUAD_POINT_CAP:
        raise DimensionCap(
            f"tensor grid of {cfg.nodes_per_dim}^{n} points exceeds the "
            f"{QUAD_POINT_CAP:.0e} cap; lower nodes_per_dim"
        )
    return _moments(a, u, cfg, confining, _grid_chunks(n, cfg.nodes_per_dim))


def green_of_a(a: SymMatrix, u: Interaction, cfg: OracleConfig) -> SpdMatrix:
    """Green's function <x x'> of the measure defined by (A, U)."""
    return evaluate_moments(a, u, replace(cfg, want_fourth_moments=False)).green


def _grid_chunks(n: int, nodes: int):
    """Tensor Gauss-Hermite grid for N(0, I) as (y, log p) chunks of QUAD_CHUNK points."""
    y1, logp1 = _hermgauss(nodes)
    total = nodes**n
    for start in range(0, total, QUAD_CHUNK):
        index = np.unravel_index(np.arange(start, min(start + QUAD_CHUNK, total)), (nodes,) * n)
        yield np.stack([y1[i] for i in index], axis=-1), sum(logp1[i] for i in index)


def _sample_chunks(n: int, cfg: OracleConfig):
    """The MC_BATCHES counter-based batches of N(0, I) draws, each with p = 1/N."""
    per_batch = cfg.samples // MC_BATCHES
    logp = -np.log(per_batch * MC_BATCHES)
    for batch in range(MC_BATCHES):
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, batch]))
        yield rng.standard_normal((per_batch, n)), logp


def _moments(
    a: SymMatrix, u: Interaction, cfg: OracleConfig, confining: bool, chunks
) -> MomentReport:
    """Log-weighted sums over (y, log p) chunks; the one kernel of both backends.

    With x = L^-T y and the leftover log factor phi(x) = -x'(A-B)x/2 - U(x),
    Z = (2 pi)^{n/2} / det(L) * sum_m p_m exp(phi_m). Each chunk keeps its own
    shift; the chunks are reduced in a fixed order under one global shift.
    """
    n = a.n
    b, low = _envelope(a.mat, cfg.envelope_floor, confining)
    diff = a.mat - b
    rows, cols = np.triu_indices(n)
    shifts, s0, s2, su, s4 = [], [], [], [], []
    for y, logp in chunks:
        x = np.linalg.solve(low.T, y.T).T
        uvals = u.evaluate(x)
        phi = -0.5 * np.einsum("mi,ij,mj->m", x, diff, x) - uvals
        if not np.all(np.isfinite(phi)):
            raise NonFinite(f"non-finite integrand value in {cfg.mode} mode")
        logw = phi + logp
        shifts.append(logw.max())
        w = np.exp(logw - shifts[-1])
        s0.append(w.sum())
        s2.append((w[:, None] * x).T @ x)
        su.append(w @ uvals)
        if cfg.want_fourth_moments:
            pairs = x[:, rows] * x[:, cols]
            s4.append((w[:, None] * pairs).T @ pairs)
    shifts, s0, s2, su = np.array(shifts), np.array(s0), np.array(s2), np.array(su)

    # fixed-order reduction with one global shift: deterministic and stable
    log_front = 0.5 * n * np.log(2.0 * np.pi) - np.sum(np.log(np.diag(low)))
    shift = shifts.max()
    scale = np.exp(shifts - shift)
    tot0 = float(scale @ s0)
    log_z = log_front + shift + np.log(tot0)
    if not np.isfinite(log_z):
        raise NonFinite("partition function overflowed or vanished")
    green = np.einsum("b,bij->ij", scale, s2) / tot0
    mean_u = float(scale @ su) / tot0
    m4_pairs = None
    if cfg.want_fourth_moments:
        s4 = np.array(s4)
        m4_pairs = np.einsum("b,bpq->pq", scale, s4) / tot0

    errors = None
    if cfg.mode == "monte_carlo":
        # batch-means errors from per-batch self-normalized estimates; each
        # batch carries probability 1 / MC_BATCHES
        log_z_b = log_front + shifts + np.log(s0 * MC_BATCHES)
        root = np.sqrt(MC_BATCHES)
        errors = StdErrors(
            z=_floor_se(np.exp(log_z_b).std(ddof=1) / root, float(np.exp(log_z))),
            omega=_floor_se(log_z_b.std(ddof=1) / root, float(-log_z)),
            green=_floor_se((s2 / s0[:, None, None]).std(axis=0, ddof=1) / root, green),
            fourth_moments=(
                _dense_fourth(
                    _floor_se((s4 / s0[:, None, None]).std(axis=0, ddof=1) / root, m4_pairs), n
                )
                if m4_pairs is not None
                else None
            ),
        )
    return MomentReport(
        z=float(np.exp(log_z)),
        omega=float(-log_z),
        green=SpdMatrix(green),
        mean_interaction=mean_u,
        fourth_moments=_dense_fourth(m4_pairs, n) if m4_pairs is not None else None,
        std_errors=errors,
    )


def _dense_fourth(block: np.ndarray, n: int) -> np.ndarray:
    """Dense [i, j, k, l] tensor scattered from a block over the pairs of triu_indices(n)."""
    rows, cols = np.triu_indices(n)
    index = np.empty((n, n), dtype=int)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return block[index[:, :, None, None], index[None, None, :, :]]


def _floor_se(se, value):
    floor = _SE_FLOOR_ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(value))
    out = np.maximum(se, floor)
    return float(out) if np.ndim(out) == 0 else out
