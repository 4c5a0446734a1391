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

Each call builds its envelope once, as one value (_Envelope): the lift, L^-T
for B = L L' and the envelope's log normalizer. The point source takes it and
yields the mapped points x = L^-T y: a Monte Carlo batch or a one-chunk grid
with one matrix product, a streamed grid as sums of its head and tail
coordinates mapped once per call (see _grid_chunks), pre-screened so that it
yields only the points where weight can remain. The kernel only sums: it
accumulates log-weighted sums over the chunks under the envelope it is
handed; fourth moments are the block over the n(n+1)/2 pair products
x_i x_j (i <= j), the statistics behind the duality solver's Newton Jacobian.

The envelope matrix is B = A when lambda_min(A) >= tau and
B = A + (tau - lambda_min(A)) I otherwise, with the constant tau =
ENVELOPE_FLOOR: A may be indefinite as long as the interaction grows
super-quadratically, so the envelope must be repaired before it can serve as
a node/proposal generator. Since A - B = -lift I, the leftover
factor exp(lift |x|^2 / 2 - U(x)) multiplies the integrand and is handled in
log space. A PointSet keeps the points one grid evaluation summed and sums
them again at another A, with the leftover factor exp(x'(B - A)x / 2 - U(x)):
a Newton solve on a streamed grid of few dimensions steps on its start's
points.
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
from .interactions import (
    Growth,
    Interaction,
    pair_basis,
    pair_products,
    quartic_scale,
    quartic_tensor,
    validate_growth,
)
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
#: 0.30-0.46 s (0.32-0.52 s with fourth moments) on a noisy 2-core Xeon host,
#: at A = I + J / 10 and U = DiagonalQuartic(I). A Newton solve
#: makes up to two G-only start probes, stops there when one lies within its
#: tolerance, and otherwise makes one evaluation with fourth moments for its
#: start point and for each line-search trial: six to eight in all for a
#: solve of three to five steps without rejections (where keeps_points
#: holds, the steps reweight the start's points and one or two fresh
#: evaluations follow).
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
#: 5.0. An n = 3 chunk's arrays are 384-768 KiB each. A streamed chunk's
#: log p (128 KiB at most) is kept in the 8-entry _chunk_logp cache, 1 MiB
#: at most: it serves every call on a streamed grid of up to 8 chunks.
QUAD_CHUNK = 1 << 14
#: A Newton solve in quadrature keeps its start's points (PointSet, see
#: keeps_points) only on a streamed grid of at most this many dimensions.
#: Timed by lw_evaluate on n-dimensional analogues of the lw-quad benchmark's
#: three inputs (medians of three to five calls, 2-core Xeon host), steps on
#: stored points took 12-62% less time than fresh steps at n = 3 on grids of
#: 2 to 247 chunks (40 to 200 nodes), and 10-25% less at n = 2 on 250 nodes;
#: every n = 3 round ended within tol at its first fresh evaluation, and max
#: RSS rose by at most 1 MiB on 8 chunks, 3 MiB on 64 and 10 MiB on 247. The
#: grids that larger n affords are coarser, and there a round ends outside
#: tol more often: n = 4 at 14 nodes took up to 13% longer, n = 5 at 10 and
#: 12 nodes up to 36%, n = 6 at 7 and 8 nodes up to 23%. Finer n = 4 grids
#: (16 to 48 nodes) gained up to 61%, but from 12 chunks on max RSS rose by
#: 5 to 36 MiB, and n = 5 at 16 and 20 nodes by 30 and 84 MiB.
POINT_SET_DIM_CAP = 3
#: Points whose log-weight lies more than this below their chunk's largest
#: are left out of exp and the weighted sums. The largest point of a chunk has
#: weight 1 and every point weight at most 1, so a chunk of m points drops at
#: most m e^-80 of its own s0, and of its s2 and pair block at most that
#: times the chunk's largest |x|^2 and |x|^4. With m <= QUAD_CHUNK = 2^14 (a
#: Monte Carlo batch at 1e6 samples is smaller), m e^-80 < 3.1e-31 of the
#: total mass: below 2^-53 even after the factor |x|^4 while the points stay
#: within |x| < 4e3. A streamed grid's source drops most such points before
#: U is evaluated (see _grid_screen); U and the finiteness check see every
#: point of a one-chunk grid, of a Monte Carlo batch and of a grid that is
#: streamed whole.
_NEGLIGIBLE_LOGW = 80.0
#: A PointSet keeps the points whose log-weight lies within this of the
#: largest of the set. The others, fewer than QUAD_POINT_CAP points of
#: weight below e^-40 = 4.2e-18 of the largest, carry less than 8.5e-11 of
#: the mass: far inside what a solve's steps on the set need, since its
#: answer comes from a fresh evaluation, and on the lw-quad benchmark's
#: inputs the set's moments matched fresh ones to 2e-15. There a set holds
#: 38-46% of the points the kernel keeps by its per-chunk rule (7-16
#: thousand), which cuts every step on it and the heap a solve holds while
#: it compares two starts. While the grid streams, each chunk's points are
#: already cut to this below the largest log-weight so far, so the heap
#: never holds the kernel's whole per-chunk set.
_KEPT_LOGW = 40.0
#: Rounding allowance of the streamed-grid screen, in units of the float
#: epsilon times the summed magnitudes of phi's terms (see _grid_screen).
_SCREEN_ULPS = 1024.0
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


@dataclass(frozen=True)
class _Envelope:
    """The Gaussian envelope exp(-x'Bx/2) of one call, B = A + lift I = L L'.

    ``linv_t`` = L^-T maps the N(0, I) points y of a point source to
    x = L^-T y, and ``log_front`` = log((2 pi)^{n/2} / det L) is the log of
    the envelope's own integral. ``rest`` is the matrix B - A when the
    points are summed at an A other than the one B was built for (a
    PointSet's); None when B - A = lift I.
    """

    lift: float
    linv_t: np.ndarray
    log_front: float
    rest: np.ndarray | None = None

    @classmethod
    def of(cls, a: SymMatrix, lift: float) -> "_Envelope":
        """A + lift I factored; NonFinite when it is not numerically positive definite."""
        try:
            low = np.linalg.cholesky(a.mat + lift * np.eye(a.n))
        except np.linalg.LinAlgError:
            # the lift is lost to rounding when |A| dwarfs ENVELOPE_FLOOR
            raise NonFinite(
                f"envelope A + {lift:.3e} I is not numerically positive definite"
            ) from None
        log_front = 0.5 * a.n * np.log(2.0 * np.pi) - np.sum(np.log(np.diag(low)))
        return cls(lift, np.linalg.inv(low).T, log_front)


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
    env = _checked_envelope(a, u, cfg)
    if cfg.mode == "monte_carlo":
        return _moments(env, u, cfg, _sample_chunks(cfg, env))
    return _moments(env, u, cfg, _grid_chunks(cfg.nodes_per_dim, u, env))


def _checked_envelope(a: SymMatrix, u: Interaction, cfg: OracleConfig) -> _Envelope:
    """The envelope of an evaluation, after its checks in their order: mismatch,
    divergence, the quadrature caps, then NonFinite from the factor."""
    lift = _envelope_lift(a, u)
    n = a.n
    if cfg.mode == "quadrature":
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
    return _Envelope.of(a, lift)


def green_of_a(a: SymMatrix, u: Interaction, cfg: OracleConfig) -> SpdMatrix:
    """Green's function <x x'> of the measure defined by (A, U)."""
    return evaluate_moments(a, u, replace(cfg, want_fourth_moments=False)).green


def _grid_chunks(nodes: int, u: Interaction, env: _Envelope):
    """Gauss-Hermite tensor grid y for N(0, I), folded on axis 0, as (L^-T y, log p) chunks.

    The nodes and weights are symmetric and every U is even, so a point with
    y_0 < 0 stands for its mirror -y too (see _tensor_grid).

    A folded grid of at most QUAD_CHUNK points is one chunk: the cached grid
    mapped with one matrix product. A larger one streams as slabs: the first
    ``lead`` axes are the fewest that leave a tail of at most QUAD_CHUNK
    points (nodes <= QUAD_CHUNK must hold), and a chunk pairs
    QUAD_CHUNK // tail consecutive points of the folded head grid with the
    whole cached tail grid. A grid point is a head point and a tail point
    side by side, so x = h + t with h = L^-T[:, :lead] y_head and
    t = L^-T[:, lead:] y_tail: both terms are mapped once per call. A chunk's
    log p does not depend on the map and comes from _chunk_logp, shared
    read-only.

    A streamed chunk yields only the points that may keep weight in the
    kernel, in grid order: those whose log-weight, approximated by
    _grid_screen for the interaction ``u`` under the envelope ``env``, lies
    within _NEGLIGIBLE_LOGW plus twice the approximation's error bound of the
    chunk's largest. They include every point the kernel keeps and the
    chunk's largest, so the kernel takes the same shift and sums the same
    points as over the whole chunk. Each x is a fresh coordinate-major array
    of h + t. Without a screen (U zero or of a class outside the library, an
    error bound above 1), and for a chunk whose largest approximate
    log-weight is not finite, the whole chunk is yielded, as one broadcast
    sum.
    """
    n = len(env.linv_t)
    layout = _stream_layout(n, nodes)
    if layout is None:
        y, logp = _tensor_grid(n, nodes, fold=True)
        yield (env.linv_t @ y.T).T, logp
        return
    lead, step = layout
    # the folded head grid is the start of the whole one (see _chunk_logp)
    head_x = env.linv_t[:, :lead] @ _tensor_grid(lead, nodes, fold=True)[0].T
    tail_x = env.linv_t[:, lead:] @ _tensor_grid(n - lead, nodes, fold=False)[0].T
    heads, tail = head_x.shape[1], tail_x.shape[1]
    screen = _grid_screen(u, env, nodes, lead, head_x, tail_x)
    if screen is not None:
        head_logw, tail_logw, margin = screen
        # one buffer for every chunk's approximate log-weights
        buf = np.empty((step, tail))
    for start in range(0, heads, step):
        stop = min(start + step, heads)
        logp = _chunk_logp(n, nodes, lead, start, stop)
        if screen is not None:
            logw = np.matmul(head_logw[start:stop], tail_logw, out=buf[: stop - start]).ravel()
            top = logw.max()
            if np.isfinite(top):
                index = np.flatnonzero(logw > top - margin)
                h, t = np.divmod(index, tail)
                x = np.empty((len(index), n), order="F")
                np.add(head_x.take(start + h, axis=1), tail_x.take(t, axis=1), out=x.T)
                yield x, logp[index]
                continue
        x = (head_x[:, start:stop, None] + tail_x[:, None, :]).reshape(n, -1).T
        yield x, logp


def _stream_layout(n: int, nodes: int):
    """(lead, step) of the streamed grid of n axes (see _grid_chunks), or None for one chunk."""
    if (nodes + 1) // 2 * nodes ** (n - 1) <= QUAD_CHUNK:
        return None
    # nodes <= QUAD_CHUNK: a tail of one axis at least fits
    lead = next(k for k in range(1, n) if nodes ** (n - k) <= QUAD_CHUNK)
    return lead, QUAD_CHUNK // nodes ** (n - lead)


def _grid_screen(u: Interaction, env: _Envelope, nodes: int, lead: int, head_x, tail_x):
    """(Fh, Ft, margin) with log p + phi at grid point (h, t) ~ Fh[h] @ Ft[:, t], or None.

    With the symmetric tensor W of U = W[x, x, x, x] (quartic_tensor),
    phi(h + t) = lift |h + t|^2 / 2 - sum_k C(4, k) W[h^k, t^(4-k)], with
    the envelope's ``lift``, and log p is the head point's plus the tail
    point's (with the fold's log 2). _screen_features gives the terms of
    either side. The features of a head point h (the rows of Fh) are
    log p_h + lift |h|^2 / 2 - W[h^4], -4 W[h^3, .], -6 W[h^2, ., .] over the
    pairs i <= j (off-diagonal ones twice), h and 1; those of a tail point t
    (the columns of Ft) are 1, t, the pair products t_i t_j,
    lift t - 4 W[., t^3] and log p_t + lift |t|^2 / 2 - W[t^4]:
    2 + 2n + P of them.

    The terms of this expansion, like those of the kernel's own phi, sum in
    magnitude to at most S r^4 + lift r^2 / 2, where S = quartic_scale(u)
    covers a map that the kernel applies before U and the expansion has
    contracted into W, r = max|y| sum|L^-T| bounds the largest ||h||_1 plus
    the largest ||t||_1, and each sum takes at most a few hundred roundings
    at n <= 6; log p, summed in another order than _chunk_logp's, and the
    kernel's shift add at most n max|log p_1| + log 2 and _NEGLIGIBLE_LOGW.
    So delta = _SCREEN_ULPS eps (S r^4 + lift r^2 + those two) bounds the
    difference of the two log-weights and their rounding around the chunk's
    largest: on grids of n = 2 to 6 and up to 360 nodes, diagonal and
    composed quartics, it was at least about 1e4 times the largest
    difference. The margin is _NEGLIGIBLE_LOGW + 2 delta. None when U is
    zero or of a class outside the library, and when delta is not at most 1:
    U may then overflow on the grid, and the kernel must see every point to
    report it. Built under errstate, so that such a call warns of nothing
    here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        forms = u._quartic_forms
        if forms is None:
            return None
        w, w_pairs = forms
        y1, logp1 = _rule(nodes)
        n = len(w)
        reach = np.abs(y1).max() * np.abs(env.linv_t).sum()
        logs = n * np.abs(logp1).max() + np.log(2.0) + _NEGLIGIBLE_LOGW
        delta = _SCREEN_ULPS * np.finfo(float).eps * (
            quartic_scale(u) * reach**4 + env.lift * reach**2 + logs
        )
        if not delta <= 1.0:
            return None
        rows, cols, mult = pair_basis(n)
        head_logp = _tensor_grid(lead, nodes, fold=True)[1]
        head, head_w3, head_w2 = _screen_features(w_pairs, env.lift, head_x, head_logp)
        head_w2 = -6.0 * mult * head_w2[rows * n + cols].T
        head_logw = np.column_stack([head[-1], -4.0 * head_w3.T, head_w2, head_x.T, head[0]])
        tail_logp = _tensor_grid(n - lead, nodes, fold=False)[1]
        # W[., ., t, t] is not kept: a tail's is up to n^2 QUAD_CHUNK floats
        tail_logw, tail_w3 = _screen_features(w_pairs, env.lift, tail_x, tail_logp)[:2]
        tail_w3 *= -4.0
        tail_w3 += env.lift * tail_x
    return head_logw, tail_logw, _NEGLIGIBLE_LOGW + 2.0 * delta


def _screen_features(w_pairs: np.ndarray, lift: float, z: np.ndarray, logp: np.ndarray):
    """The terms of _grid_screen's expansion at the columns of the (n, m) array z.

    Returns (F, F's rows W[., z, z, z], W[., ., z, z]), the last with rows ij
    (i and j in 0..n-1), from W[., ., a, b] over the pairs a <= b in
    ``w_pairs``. The 2 + 2n + P rows of F are 1, z, the pair products z_a z_b
    (a <= b), W[., z, z, z] and log p + lift |z|^2 / 2 - W[z^4], written into
    one array: a tail of up to QUAD_CHUNK points then allocates about what
    its features need. With more temporaries alive, glibc trims its heap
    after each call, and a plain process faults the pages in again (about
    300 minor faults per n = 3, 64-node call).
    """
    n, m = z.shape
    feats = np.empty((2 + 2 * n + w_pairs.shape[1], m))
    feats[0] = 1.0
    feats[1 : n + 1] = z
    pair_products(z.T, out=feats[n + 1 : -n - 1].T)
    w2 = w_pairs @ feats[n + 1 : -n - 1]
    w3 = np.einsum("ijm,jm->im", w2.reshape(n, n, m), z, out=feats[-n - 1 : -1])
    feats[-1] = logp + 0.5 * lift * np.einsum("im,im->m", z, z) - np.einsum("im,im->m", z, w3)
    return feats, w3, w2


#: One entry is one streamed chunk's log p, at most QUAD_CHUNK floats
#: (128 KiB), so the cache holds at most 1 MiB: one whole grid of up to 8
#: chunks, such as the default n = 3, 64-node grid. A grid of more chunks
#: (n = 3 at 80 nodes, n = 4 at 32) cycles through it, rebuilding each
#: chunk as it streams.
@lru_cache(maxsize=8)
def _chunk_logp(n: int, nodes: int, lead: int, start: int, stop: int):
    """Folded log p of head points start:stop times the whole tail; read-only because shared.

    The order of _tensor_grid, ((l0 + l1) + l2), then the fold's log 2 for
    the head points with y_0 < 0; the folded head grid is the start of the
    whole one, whose log p have no log 2 yet.
    """
    head_y, head_logp = _tensor_grid(lead, nodes, fold=False)
    logp1 = _rule(nodes)[1]
    logp = head_logp[start:stop]
    for _ in range(n - lead):
        logp = np.add.outer(logp, logp1)
    logp = logp.reshape(stop - start, -1)  # a fresh array: the fold goes in last
    logp += np.where(head_y[start:stop, 0] < 0.0, np.log(2.0), 0.0)[:, None]
    logp = logp.ravel()
    logp.setflags(write=False)
    return logp


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


def _sample_chunks(cfg: OracleConfig, env: _Envelope):
    """The MC_BATCHES counter-based batches of N(0, I) draws y as x = L^-T y, each with p = 1/N."""
    per_batch = cfg.samples // MC_BATCHES
    logp = -np.log(per_batch * MC_BATCHES)
    for batch in range(MC_BATCHES):
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, batch]))
        yield (env.linv_t @ rng.standard_normal((per_batch, len(env.linv_t))).T).T, logp


def _moments(
    env: _Envelope, u: Interaction, cfg: OracleConfig, chunks, on_kept=None
) -> MomentReport:
    """Log-weighted sums over ``chunks`` under ``env``; the one kernel of both backends.

    ``chunks`` yields (x, log p) with x = L^-T y coordinate-major
    (F-ordered), so that the column reads below stay contiguous, or, from a
    PointSet, (x, log p, U(x)), whose U is not evaluated again. With the
    leftover log factor phi(x) = x'(B - A)x / 2 - U(x), which is
    lift |x|^2 / 2 - U(x) unless ``env.rest`` gives B - A,
    Z = exp(env.log_front) * sum_m p_m exp(phi_m). Each chunk keeps its own
    shift and sums only its points within _NEGLIGIBLE_LOGW of it; the chunks
    are reduced in a fixed order under one global shift. The envelope is
    built and factored by its caller: this kernel only sums. A callable
    ``on_kept`` is handed each chunk's kept points as (x, log p, U(x), their
    log-weights less the chunk's shift, that shift).
    """
    shifts, s0, s2, su, s4 = [], [], [], [], []
    for x, logp, *stored in chunks:
        # an overflow or NaN is reported once, as NonFinite, and not also as a
        # numpy warning, which a warning filter would turn into another error;
        # the scope is this narrow because ufuncs run slower inside errstate
        with np.errstate(over="ignore", invalid="ignore"):
            uvals = stored[0] if stored else u.evaluate(x)
            phi = -uvals
            if env.rest is not None:
                phi += 0.5 * np.einsum("mi,mi->m", x @ env.rest, x)
            elif env.lift:
                phi += 0.5 * env.lift * np.einsum("mi,mi->m", x, x)
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
            logp = logp if on_kept is None else logp[keep]
        if on_kept is not None:
            on_kept(x, logp, uvals, logw, shifts[-1])
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
    shift = shifts.max()
    scale = np.exp(shifts - shift)
    tot0 = float(scale @ s0)
    log_z = env.log_front + shift + np.log(tot0)
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
        log_z_b = env.log_front + shifts + np.log(s0 * MC_BATCHES)
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


def keeps_points(u: Interaction, cfg: OracleConfig) -> bool:
    """Whether a Newton solve under (u, cfg) takes its steps on its start's points (PointSet).

    Only in quadrature, on a streamed grid of at most POINT_SET_DIM_CAP
    dimensions (measured there), and for a U that the grid screen expands:
    a nonzero library quartic. The stored points cost more than the calls
    they save on one-chunk grids, which are cheap to evaluate afresh: with
    them, dyson-exact's wall_ref went 3.31 -> 4.26 and verify-all's 38.4 ->
    41.4.
    """
    n, nodes = u.n, cfg.nodes_per_dim
    if cfg.mode != "quadrature" or n > POINT_SET_DIM_CAP or nodes > QUAD_NODE_CAP:
        return False
    return _stream_layout(n, nodes) is not None and quartic_tensor(u) is not None


@dataclass(frozen=True)
class PointSet:
    """The points that one quadrature evaluation kept, reweighted to moments at another A.

    An evaluation at A sums over the points x = L^-T y of its envelope
    B = A + lift I = L L'. The set holds the points whose log-weight lies
    within _KEPT_LOGW of the largest (see _moments), with their log p and
    U(x), the matrix ``outer`` = B, the envelope ``env`` and ``cfg``, the
    evaluation's settings with pair moments asked for.
    At another A' the same points give the moments of (A', U) with the
    leftover factor x'(B - A')x / 2 - U(x): the kernel sums them as it
    summed the fresh ones, with no map and no evaluation of U. The rule is
    the one built for B, not for A''s own envelope, so the moments differ
    from a fresh evaluation at A' by the difference of the two rules'
    quadrature errors, which grows as A' leaves A. Built for a grid only.
    """

    u: Interaction
    outer: np.ndarray
    env: _Envelope
    chunks: tuple
    cfg: OracleConfig

    @classmethod
    def evaluate(cls, a: SymMatrix, u: Interaction, cfg: OracleConfig):
        """(evaluate_moments(a, u, cfg), the PointSet of the points it kept), in quadrature.

        Raises ValidationError for a Monte Carlo cfg, before any grid is built.
        """
        if cfg.mode != "quadrature":
            raise ValidationError(f"a PointSet keeps quadrature points; got mode {cfg.mode!r}")
        a = SymMatrix.coerce(a)
        env = _checked_envelope(a, u, cfg)
        parts, top = [], -np.inf

        def keep(x, logp, uvals, logw, shift):
            # within _KEPT_LOGW of the largest log-weight so far
            nonlocal top
            top = max(top, shift)
            kept = logw > top - _KEPT_LOGW - shift
            parts.append((x.T.compress(kept, axis=1), logp[kept], uvals[kept], logw[kept] + shift))

        report = _moments(env, u, cfg, _grid_chunks(cfg.nodes_per_dim, u, env), keep)
        # of those, the points within _KEPT_LOGW of the largest of all,
        # regrouped into as few chunks of at most QUAD_CHUNK points as they
        # fill: a step on the set then runs the kernel's per-chunk work a few
        # times, not once for every chunk of the grid
        xt, logp, uvals, logw = (np.concatenate(part, axis=-1) for part in zip(*parts))
        del parts
        kept = logw > top - _KEPT_LOGW
        xt, logp, uvals = xt.compress(kept, axis=1), logp[kept], uvals[kept]
        chunks = tuple(
            (xt[:, i : i + QUAD_CHUNK].T, logp[i : i + QUAD_CHUNK], uvals[i : i + QUAD_CHUNK])
            for i in range(0, len(logp), QUAD_CHUNK)
        )
        outer = a.mat + env.lift * np.eye(a.n)
        return report, cls(u, outer, env, chunks, replace(cfg, want_fourth_moments=True))

    def moments(self, a: SymMatrix) -> MomentReport:
        """The moments at ``a``, with the pair block, from the stored points.

        Raises what a fresh evaluation raises before its grid (dimension
        mismatch, DivergentIntegral for an A that is not positive definite
        under a U of unverified growth) and NonFinite for non-finite weights.
        """
        a = SymMatrix.coerce(a)
        _envelope_lift(a, self.u)
        return _moments(replace(self.env, rest=self.outer - a.mat), self.u, self.cfg, self.chunks)


def _floor_se(se, value):
    floor = _SE_FLOOR_ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(value))
    out = np.maximum(se, floor)
    return float(out) if np.ndim(out) == 0 else out
