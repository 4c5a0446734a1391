"""Ground-truth moments of the lattice measure exp(-x'Ax/2 - U(x)) / Z.

Two backends share one Gaussian envelope exp(-x'Bx/2) and one accumulation
kernel. Each backend only supplies point sets for N(0, I), as chunks of points
y with their probabilities p (summing to one over the whole set):

* tensor-product Gauss-Hermite quadrature (exact for the non-interacting
  theory, exponentially convergent for quartic tails, n small);
* self-normalized importance sampling with proposal N(0, B^-1), 64 batches of
  equally weighted draws and batch-means standard errors.

The kernel maps y to x = L^-T y (B = L L') with one matrix product per chunk,
L^-T being formed once per call, and accumulates log-weighted sums over the
chunks; fourth moments are the block over the n(n+1)/2 pair products x_i x_j
(i <= j), the statistics behind the duality solver's Newton Jacobian.

The envelope matrix is B = A when lambda_min(A) >= tau and
B = A + (tau - lambda_min(A)) I otherwise: A may be indefinite as long as the
interaction grows super-quadratically, so the envelope must be repaired before
it can serve as a node/proposal generator. Since A - B = -lift I, the leftover
factor exp(lift |x|^2 / 2 - U(x)) multiplies the integrand and is handled in
log space.
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
from .interactions import Growth, Interaction, pair_products, validate_growth
from .matrices import SpdMatrix, SymMatrix

QUAD_DIM_CAP = 6
DEFAULT_NODES_PER_DIM = 64
DEFAULT_SAMPLES = 1_000_000
DEFAULT_ENVELOPE_FLOOR = 0.5
MC_BATCHES = 64
#: Hard cap on tensor-grid size (nodes_per_dim ** n). The grid is evaluated
#: in chunks, so memory does not bound it; time does: at 64^4 = 16.7M points
#: one G-only evaluation takes 1.1 s (2.5 s with fourth moments) on a 2-core
#: Xeon, and a Newton solve makes about a dozen evaluations.
QUAD_POINT_CAP = 20_000_000
#: Hard cap on Gauss-Hermite nodes per dimension, checked before the rule is
#: built (hermgauss forms a dense nodes x nodes matrix). With numpy 2.4.6
#: hermgauss overflows from 371 nodes on and its smallest weights underflow to
#: zero soon after, so log p turns infinite; the cap keeps a margin below that
#: and keeps nodes <= QUAD_CHUNK, which the slab split of _grid_chunks needs.
QUAD_NODE_CAP = 360
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.nodes_per_dim < 1:
            raise ValidationError("nodes_per_dim must be positive")
        if self.samples < MC_BATCHES:
            raise ValidationError(f"samples must be at least {MC_BATCHES}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")
        if not (
            isinstance(self.envelope_floor, Real)
            and not isinstance(self.envelope_floor, bool)
            and np.isfinite(self.envelope_floor)
            and self.envelope_floor > 0.0
        ):
            raise ValidationError("envelope_floor must be a positive number")


@dataclass(frozen=True)
class StdErrors:
    """Per-entry batch-means standard errors (Monte Carlo only)."""

    omega: float
    green: np.ndarray
    pair_moments: np.ndarray | None = None


@dataclass(frozen=True)
class MomentReport:
    """Free energy Omega = -log Z and moments of one (A, U) instance.

    Z itself is not reported: it overflows a float where log Z does not.
    ``pair_moments`` (on request) is <x_i x_j x_k x_l> over the pairs i <= j
    of ``np.triu_indices(n)``: a P x P block, P = n(n+1)/2."""

    omega: float
    green: SpdMatrix
    mean_interaction: float
    pair_moments: np.ndarray | None = None
    std_errors: StdErrors | None = None

    def to_dict(self) -> dict:
        out = {
            "omega": self.omega,
            "green": self.green.mat.tolist(),
            "mean_interaction": self.mean_interaction,
        }
        if self.std_errors is not None:
            out["std_errors"] = {
                "omega": self.std_errors.omega,
                "green": self.std_errors.green.tolist(),
            }
        return out


@lru_cache(maxsize=32)
def _hermgauss(nodes: int):
    """Gauss-Hermite rule for N(0, 1): nodes sqrt(2) t, log-probabilities log(w / sqrt(pi))."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    return np.sqrt(2.0) * t, np.log(w) - 0.5 * np.log(np.pi)


def _envelope(a: np.ndarray, tau: float, confining: bool):
    """Scalar lift and the Cholesky factor of the envelope B = A + lift I.

    The floor repair presumes a confining (super-quadratic) interaction that
    keeps the leftover factor integrable and narrow; without one, A is SPD by
    precondition and is itself the exact envelope, so repairing it would only
    push the nodes off a wide Gaussian.
    """
    lam_min = np.linalg.eigvalsh(a)[0]
    lift = tau - lam_min if confining and lam_min < tau else 0.0
    try:
        return lift, np.linalg.cholesky(a + lift * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        # the lift is lost to rounding when |A| dwarfs tau
        raise NonFinite(
            f"envelope A + {lift:.3e} I is not numerically positive definite"
        ) from None


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
    """Omega = -log Z, G = <x x'> and optionally the pair block of <x_i x_j x_k x_l>.

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
        Overflow or NaN in the integrand, or an envelope matrix that is not
        numerically positive definite.
    """
    a = SymMatrix.coerce(a)
    confining = _check_preconditions(a, u)
    n = a.n
    if cfg.mode == "monte_carlo":
        return _moments(a, u, cfg, confining, _sample_chunks(n, cfg))
    if n > QUAD_DIM_CAP:
        raise DimensionCap(f"quadrature limited to n <= {QUAD_DIM_CAP}, got {n}")
    if cfg.nodes_per_dim > QUAD_NODE_CAP:
        raise DimensionCap(
            f"quadrature limited to {QUAD_NODE_CAP} nodes per dimension, "
            f"got {cfg.nodes_per_dim}"
        )
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
    """Tensor Gauss-Hermite grid for N(0, I) as (y, log p) chunks of QUAD_CHUNK points.

    A grid that fits in one chunk is built once and reused. A larger grid is
    streamed in row-major order as slabs: the first ``lead`` axes are the
    fewest that leave a tail of at most QUAD_CHUNK points (nodes <= QUAD_CHUNK
    must hold), the tail is the cached one-chunk grid of the other axes, and a
    chunk pairs QUAD_CHUNK // tail consecutive leading indices with the whole
    tail. The chunks are filled into one buffer per call, so a yielded chunk
    is valid only until the next one is requested.
    """
    total = nodes**n
    if total <= QUAD_CHUNK:
        yield _one_chunk_grid(n, nodes)
        return
    lead = 1
    while nodes ** (n - lead) > QUAD_CHUNK:
        lead += 1
    tail_y, _ = _one_chunk_grid(n - lead, nodes)
    tail = len(tail_y)
    heads = nodes**lead
    step = QUAD_CHUNK // tail
    logp1 = _hermgauss(nodes)[1]
    buf = np.empty((n, step, tail))
    buf[lead:] = tail_y.T[:, None, :]
    for start in range(0, heads, step):
        k = min(step, heads - start)
        head_y, logp = _grid_block(lead, nodes, start, start + k)
        buf[:lead, :k] = head_y.T[:, :, None]
        for _ in range(n - lead):  # ((l0 + l1) + l2) as in _grid_block
            logp = np.add.outer(logp, logp1)
        yield buf[:, :k].reshape(n, -1).T, logp.ravel()


@lru_cache(maxsize=16)
def _one_chunk_grid(n: int, nodes: int):
    """The whole grid as one (y, log p) chunk, read-only because it is shared."""
    y, logp = _grid_block(n, nodes, 0, nodes**n)
    y.setflags(write=False)
    logp.setflags(write=False)
    return y, logp


def _grid_block(n: int, nodes: int, start: int, stop: int):
    """Grid points start..stop-1 in row-major index order, with their log p."""
    y1, logp1 = _hermgauss(nodes)
    index = np.unravel_index(np.arange(start, stop), (nodes,) * n)
    return np.stack([y1[i] for i in index], axis=-1), sum(logp1[i] for i in index)


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

    With x = L^-T y and the leftover log factor phi(x) = lift |x|^2 / 2 - U(x),
    Z = (2 pi)^{n/2} / det(L) * sum_m p_m exp(phi_m). Each chunk keeps its own
    shift; the chunks are reduced in a fixed order under one global shift.
    """
    n = a.n
    lift, low = _envelope(a.mat, cfg.envelope_floor, confining)
    linv_t = np.linalg.inv(low).T
    shifts, s0, s2, su, s4 = [], [], [], [], []
    for y, logp in chunks:
        x = (linv_t @ y.T).T  # F-ordered: the column reads below stay contiguous
        uvals = u.evaluate(x)
        phi = -uvals
        if lift:
            phi += 0.5 * lift * np.einsum("mi,mi->m", x, x)
        if not np.all(np.isfinite(phi)):
            raise NonFinite(f"non-finite integrand value in {cfg.mode} mode")
        logw = phi + logp
        shifts.append(logw.max())
        w = np.exp(logw - shifts[-1])
        s0.append(w.sum())
        s2.append((w[:, None] * x).T @ x)
        su.append(w @ uvals)
        if cfg.want_fourth_moments:
            pairs = pair_products(x)
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
    # the weighted GEMM leaves rounding asymmetry relative to |G|, which the
    # absolute tolerance of SymMatrix would reject for large G
    green = 0.5 * (green + green.T)
    mean_u = float(scale @ su) / tot0
    pair_moments = None
    if cfg.want_fourth_moments:
        s4 = np.array(s4)
        pair_moments = np.einsum("b,bpq->pq", scale, s4) / tot0

    errors = None
    if cfg.mode == "monte_carlo":
        # batch-means errors from per-batch self-normalized estimates; each
        # batch carries probability 1 / MC_BATCHES
        log_z_b = log_front + shifts + np.log(s0 * MC_BATCHES)
        root = np.sqrt(MC_BATCHES)
        errors = StdErrors(
            omega=_floor_se(log_z_b.std(ddof=1) / root, float(-log_z)),
            green=_floor_se((s2 / s0[:, None, None]).std(axis=0, ddof=1) / root, green),
            pair_moments=(
                _floor_se((s4 / s0[:, None, None]).std(axis=0, ddof=1) / root, pair_moments)
                if pair_moments is not None
                else None
            ),
        )
    return MomentReport(
        omega=float(-log_z),
        green=SpdMatrix(green),
        mean_interaction=mean_u,
        pair_moments=pair_moments,
        std_errors=errors,
    )


def _floor_se(se, value):
    floor = _SE_FLOOR_ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(value))
    out = np.maximum(se, floor)
    return float(out) if np.ndim(out) == 0 else out
