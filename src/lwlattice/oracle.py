"""Ground-truth moments of the lattice measure exp(-x'Ax/2 - U(x)) / Z.

Two backends share one Gaussian envelope exp(-x'Bx/2) and one accumulation
kernel. Each backend only supplies point sets for N(0, I), as chunks of points
y with their probabilities p (summing to one over the whole set):

* tensor-product Gauss-Hermite quadrature (exact for the non-interacting
  theory, exponentially convergent for quartic tails, n small), folded on
  its first axis: the grid is symmetric under y -> -y and every interaction
  is even, so axis 0 keeps its nodes y <= 0 and each point with y_0 < 0
  stands for its mirror image with twice its weight;
* self-normalized importance sampling with proposal N(0, B^-1), 64 batches of
  equally weighted draws and batch-means standard errors.

The kernel maps y to x = L^-T y (B = L L') with one matrix product per chunk,
L^-T being formed once per call, and accumulates log-weighted sums over the
chunks; fourth moments are the block over the n(n+1)/2 pair products x_i x_j
(i <= j), the statistics behind the duality solver's Newton Jacobian.

The envelope matrix is B = A when lambda_min(A) >= tau and
B = A + (tau - lambda_min(A)) I otherwise, with the constant tau =
ENVELOPE_FLOOR: A may be indefinite as long as the interaction grows
super-quadratically, so the envelope must be repaired before it can serve as
a node/proposal generator. Since A - B = -lift I, the leftover
factor exp(lift |x|^2 / 2 - U(x)) multiplies the integrand and is handled in
log space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral
from typing import ClassVar

import numpy as np

from .errors import (
    DimensionCap,
    DimensionMismatch,
    DivergentIntegral,
    NonFinite,
    ValidationError,
)
from .interactions import Growth, Interaction, pair_products, validate_growth
from .matrices import SpdMatrix, SymMatrix, plain

QUAD_DIM_CAP = 6
DEFAULT_NODES_PER_DIM = 64
DEFAULT_SAMPLES = 1_000_000
#: The floor tau of the repaired envelope: lambda_min(B) >= tau.
ENVELOPE_FLOOR = 0.5
MC_BATCHES = 64
#: Hard cap on Monte Carlo samples, checked before any draw. Memory and time
#: grow linearly with the count: each of the MC_BATCHES batches holds its
#: samples // 64 points (and their pair products) at once. On a 2-core Xeon,
#: at A = I + J / 10 and U = DiagonalQuartic(I), one call at 8e5 and 3.2e6
#: samples peaked (tracemalloc) at 2.8 and 11 MiB in 0.19-0.24 and 0.86-0.89 s
#: for n = 6 G-only, at 8.3 and 33 MiB in 0.64-0.75 and 2.7 s for n = 20
#: G-only (three calls each). With pair moments the peak is a fixed part (the
#: 64 batch sums of the pair block) plus a slope: 0.3 MiB + 7.3 B per sample
#: at n = 6, 24 MiB + 57 B at n = 20 (fitted at 8e5, 1.6e6 and 3.2e6; 1.2 and
#: 12.5 s at 3.2e6), and at n = 20 never below about 50 MiB. Extrapolated to
#: the cap: n = 6 at about 70 MiB and 4 s, n = 20 at about 0.55 GiB and 40 s.
MC_SAMPLE_CAP = 10_000_000
#: Hard cap on tensor-grid size (nodes_per_dim ** n). The grid is evaluated
#: in chunks, so memory does not bound it; time does: at 64^4 = 16.7M points
#: (8.4M evaluated once the first axis is folded) one G-only evaluation takes
#: 0.65-0.7 s (0.72 s with fourth moments) on a 2-core Xeon, at A = I + J / 10
#: and U = DiagonalQuartic(I). A Newton solve
#: makes up to two G-only start probes, stops there when one lies within its
#: tolerance, and otherwise makes one evaluation with fourth moments for its
#: start point and for each line-search trial: six to eight in all for a
#: solve of three to five steps without rejections.
QUAD_POINT_CAP = 20_000_000
#: Hard cap on Gauss-Hermite nodes per dimension, checked before the rule is
#: built (hermgauss forms a dense nodes x nodes matrix). With numpy 2.4.6
#: hermgauss overflows from 371 nodes on and its smallest weights underflow to
#: zero soon after, so log p turns infinite; the cap keeps a margin below that
#: and keeps nodes <= QUAD_CHUNK: the tail of a streamed grid (see _grid_chunks)
#: must still hold at least one whole axis.
QUAD_NODE_CAP = 360
#: Grid points per quadrature chunk; bounds the working set (points, pair
#: products, the interaction's intermediates) whatever the grid size. On a
#: 2-core Xeon host with 2 MiB of L2 per core, with negligible points left
#: out of the sums, lw-quad's wall_ref was 12.4 at 1 << 14 against 13.9 at
#: 1 << 15 (medians of five interleaved benchmark runs, seed 3); in three
#: more pairs 12.0 against 13.0 at 1 << 13, and dyson-exact's 4.3 against
#: 5.0. An n = 3 chunk's arrays are 384-768 KiB each.
QUAD_CHUNK = 1 << 14
#: Points whose log-weight lies more than this below their chunk's largest
#: are left out of exp and the weighted sums. The largest point of a chunk has
#: weight 1 and every point weight at most 1, so a chunk of m points drops at
#: most m e^-80 of its own s0, and of its s2 and pair block at most that
#: times the chunk's largest |x|^2 and |x|^4. With m <= QUAD_CHUNK = 2^14 (a
#: Monte Carlo batch at 1e6 samples is smaller), m e^-80 < 3.1e-31 of the
#: total mass: below 2^-53 even after the factor |x|^4 while the points stay
#: within |x| < 4e3. U and the finiteness check still see every point.
_NEGLIGIBLE_LOGW = 80.0
#: Statistical errors cannot resolve below float rounding; they are floored
#: at a few ulps so that reported errors stay strictly positive.
_SE_FLOOR_ULPS = 4.0

MODES = ("quadrature", "monte_carlo")


@dataclass(frozen=True)
class OracleConfig:
    """Evaluation backend settings.

    seed and the fixed 64-batch partition make Monte Carlo results
    bit-reproducible: each batch owns a counter-based random stream and the
    reduction order never changes. Each batch draws ``samples // MC_BATCHES``
    points, so ``samples`` is rounded down to a multiple of MC_BATCHES = 64:
    ``samples=100`` draws 64 points. ``samples`` is capped at MC_SAMPLE_CAP.
    ``envelope_floor`` reads the constant ENVELOPE_FLOOR; it is not a field,
    only a name kept for perfbench's lw-quad gate.
    """

    mode: str = "quadrature"
    nodes_per_dim: int = DEFAULT_NODES_PER_DIM
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    want_fourth_moments: bool = False
    envelope_floor: ClassVar[float] = ENVELOPE_FLOOR

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("nodes_per_dim", "samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        # one node is the single point y = 0, where G = 0
        if self.nodes_per_dim < 2:
            raise ValidationError("nodes_per_dim must be at least 2")
        if self.samples < MC_BATCHES:
            raise ValidationError(f"samples must be at least {MC_BATCHES}")
        if self.samples > MC_SAMPLE_CAP:
            raise ValidationError(
                f"samples must be at most {MC_SAMPLE_CAP:.0e}, got {self.samples}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class StdErrors:
    """Batch-means standard errors of omega and of each entry of G (Monte Carlo only)."""

    omega: float
    green: np.ndarray


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
        return plain(self)


def _envelope_lift(a: SymMatrix, u: Interaction) -> float:
    """Validate integrability; returns the scalar lift of the envelope B = A + lift I.

    The floor repair presumes a confining (super-quadratic) interaction that
    keeps the leftover factor integrable and narrow; without one, A must be
    SPD and is itself the exact envelope, so repairing it would only push
    the nodes off a wide Gaussian.
    """
    if a.n != u.n:
        raise DimensionMismatch(f"A has dimension {a.n}, interaction has {u.n}")
    growth = validate_growth(u)
    lam_min = np.linalg.eigvalsh(a.mat)[0]
    if growth.kind is Growth.SUPERQUADRATIC:
        return ENVELOPE_FLOOR - lam_min if lam_min < ENVELOPE_FLOOR else 0.0
    if lam_min <= 0.0:
        raise DivergentIntegral(
            "A is not positive definite and the interaction growth is "
            f"{growth.kind.value}; the partition function may diverge"
        )
    return 0.0


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
    lift = _envelope_lift(a, u)
    n = a.n
    if cfg.mode == "monte_carlo":
        return _moments(a, u, cfg, lift, _sample_chunks(n, cfg))
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
    return _moments(a, u, cfg, lift, _grid_chunks(n, cfg.nodes_per_dim))


def green_of_a(a: SymMatrix, u: Interaction, cfg: OracleConfig) -> SpdMatrix:
    """Green's function <x x'> of the measure defined by (A, U)."""
    return evaluate_moments(a, u, replace(cfg, want_fourth_moments=False)).green


def _grid_chunks(n: int, nodes: int):
    """Tensor Gauss-Hermite grid for N(0, I), folded on its first axis, as (y, log p) chunks.

    The nodes and weights are symmetric and every U is even, so a point with
    y_0 < 0 stands for its mirror -y too (see _tensor_grid).

    A folded grid of at most QUAD_CHUNK points is one cached chunk. A larger
    one streams as slabs: the first ``lead`` axes are the fewest that leave a
    tail of at most QUAD_CHUNK points (nodes <= QUAD_CHUNK must hold), and a
    chunk pairs QUAD_CHUNK // tail consecutive points of the folded head grid
    with the whole cached tail grid. The chunks are filled into one buffer per
    call, so a yielded chunk is valid only until the next one is requested.
    """
    size = (nodes + 1) // 2 * nodes ** (n - 1)
    if size <= QUAD_CHUNK:
        yield _tensor_grid(n, nodes, fold=True)
        return
    lead = 1
    while nodes ** (n - lead) > QUAD_CHUNK:
        lead += 1
    # the folded head grid is the start of the whole one, whose log p have no log 2 yet
    head_y, head_logp = _tensor_grid(lead, nodes, fold=False)
    tail_y = _tensor_grid(n - lead, nodes, fold=False)[0]
    tail = len(tail_y)
    heads = size // tail
    step = QUAD_CHUNK // tail
    logp1 = _rule(nodes)[1]
    buf = np.empty((n, step, tail))
    buf[lead:] = tail_y.T[:, None, :]
    for start in range(0, heads, step):
        stop = min(start + step, heads)
        y = buf[:, : stop - start]
        y[:lead] = head_y[start:stop].T[:, :, None]
        logp = head_logp[start:stop]
        for _ in range(n - lead):  # ((l0 + l1) + l2) as in _tensor_grid
            logp = np.add.outer(logp, logp1)
        logp = logp.reshape(y[0].shape) + np.where(y[0] < 0.0, np.log(2.0), 0.0)
        yield y.reshape(n, -1).T, logp.ravel()


@lru_cache(maxsize=32)
def _rule(nodes: int):
    """Gauss-Hermite rule for N(0, 1): nodes sqrt(2) t, log-probabilities log(w / sqrt(pi))."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    return np.sqrt(2.0) * t, np.log(w) - 0.5 * np.log(np.pi)


@lru_cache(maxsize=32)
def _tensor_grid(n: int, nodes: int, fold: bool):
    """Row-major tensor product of n 1-D rules as (y, log p), read-only because it is shared.

    log p sums the axes in order, ((l0 + l1) + l2). With ``fold``, axis 0
    keeps its nodes y <= 0, and log 2 is added last to every point with
    y_0 < 0, which stands for its mirror too.
    """
    y1, logp1 = _rule(nodes)
    keep = (nodes + 1) // 2 if fold else nodes
    index = np.indices((keep,) + (nodes,) * (n - 1)).reshape(n, -1)
    y = np.stack([y1[i] for i in index], axis=-1)
    logp = sum(logp1[i] for i in index)
    if fold:
        logp = logp + np.where(y[:, 0] < 0.0, np.log(2.0), 0.0)
    y.setflags(write=False)
    logp.setflags(write=False)
    return y, logp


def _sample_chunks(n: int, cfg: OracleConfig):
    """The MC_BATCHES counter-based batches of N(0, I) draws, each with p = 1/N."""
    per_batch = cfg.samples // MC_BATCHES
    logp = -np.log(per_batch * MC_BATCHES)
    for batch in range(MC_BATCHES):
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, batch]))
        yield rng.standard_normal((per_batch, n)), logp


def _moments(
    a: SymMatrix, u: Interaction, cfg: OracleConfig, lift: float, chunks
) -> MomentReport:
    """Log-weighted sums over (y, log p) chunks; the one kernel of both backends.

    With x = L^-T y and the leftover log factor phi(x) = lift |x|^2 / 2 - U(x),
    Z = (2 pi)^{n/2} / det(L) * sum_m p_m exp(phi_m). Each chunk keeps its own
    shift and sums only its points within _NEGLIGIBLE_LOGW of it; the chunks
    are reduced in a fixed order under one global shift.
    """
    n = a.n
    try:
        low = np.linalg.cholesky(a.mat + lift * np.eye(n))
    except np.linalg.LinAlgError:
        # the lift is lost to rounding when |A| dwarfs ENVELOPE_FLOOR
        raise NonFinite(
            f"envelope A + {lift:.3e} I is not numerically positive definite"
        ) from None
    linv_t = np.linalg.inv(low).T
    shifts, s0, s2, su, s4 = [], [], [], [], []
    for y, logp in chunks:
        x = (linv_t @ y.T).T  # F-ordered: the column reads below stay contiguous
        # an overflow or NaN is reported once, as NonFinite, and not also as a
        # numpy warning, which a warning filter would turn into another error;
        # the scope is this narrow because ufuncs run slower inside errstate
        with np.errstate(over="ignore", invalid="ignore"):
            uvals = u.evaluate(x)
            phi = -uvals
            if lift:
                phi += 0.5 * lift * np.einsum("mi,mi->m", x, x)
        if not np.all(np.isfinite(phi)):
            raise NonFinite(f"non-finite integrand value in {cfg.mode} mode")
        logw = phi + logp
        shifts.append(logw.max())
        # compared after the shift: shift - _NEGLIGIBLE_LOGW rounds to shift
        # once |shift| passes about 3.6e17, which would drop the largest point
        logw -= shifts[-1]
        keep = logw > -_NEGLIGIBLE_LOGW
        if not keep.all():  # a Monte Carlo batch usually keeps every draw: no copy
            # compressing the rows of x.T keeps x F-ordered
            x, uvals, logw = x.T.compress(keep, axis=1).T, uvals[keep], logw[keep]
        w = np.exp(logw)
        s0.append(w.sum())
        s2.append((w[:, None] * x).T @ x)
        # not w @ uvals: OpenBLAS threads a dot product of more than 10000
        # elements, which can stall for milliseconds on a loaded host
        su.append(np.einsum("m,m->", w, uvals))
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
    green = SpdMatrix(np.einsum("b,bij->ij", scale, s2) / tot0)
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
            green=_floor_se((s2 / s0[:, None, None]).std(axis=0, ddof=1) / root, green.mat),
        )
    return MomentReport(
        omega=float(-log_z),
        green=green,
        mean_interaction=mean_u,
        pair_moments=pair_moments,
        std_errors=errors,
    )


def _floor_se(se, value):
    floor = _SE_FLOOR_ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(value))
    out = np.maximum(se, floor)
    return float(out) if np.ndim(out) == 0 else out
