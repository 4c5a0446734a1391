"""Legendre duality on the SPD cone: A[G], F[G], Phi[G] and the exact
self-energy.

F is evaluated through its dual route: solve G[A] = G_target for A by a damped
Newton iteration, then F = 1/2 Tr[A G] - Omega[A]. The Newton Jacobian is the
second-moment sensitivity dG/dA = -1/2 Cov(x_i x_j, x_k x_l), the covariance
of the n(n+1)/2 pair statistics x_i x_j (i <= j), on the symmetric-matrix
basis {E_ii} u {E_ij + E_ji}. The oracle reports exactly that block of fourth
moments (``MomentReport.pair_moments``), in the same pair order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .diagrams import BoldSeries
from .errors import (
    BoundaryTooClose,
    DimensionMismatch,
    LwlatticeError,
    NoConvergence,
    NonFinite,
    ValidationError,
)
from .interactions import Interaction, as_diagonal_quartic, pair_basis
from .matrices import SpdMatrix, SymMatrix, logdet_spd, min_eigenvalue, plain
from .oracle import MomentReport, OracleConfig, PointSet, evaluate_moments, keeps_points

#: Minimum eigenvalue of a target Green's function accepted by the solver;
#: F diverges logarithmically at the cone boundary and Newton conditioning
#: degrades there.
BOUNDARY_GUARD = 1e-6
DEFAULT_TOL_QUADRATURE = 1e-8
DEFAULT_MAX_ITER = 60
MAX_STEP_HALVINGS = 30


@dataclass(frozen=True)
class LwReport:
    """Output bundle of one duality evaluation at fixed G."""

    a_of_g: SymMatrix
    universal_f: float
    phi: float
    phi0: float
    sigma_exact: SymMatrix
    entropy: float
    mean_interaction: float
    solver_iterations: int
    residual: float

    def to_dict(self) -> dict:
        return plain(self)


def _newton_step(report: MomentReport, g_target: np.ndarray) -> np.ndarray:
    """Solve the linearized moment-matching equation for a symmetric update.

    Unknowns and equations run over the pairs i <= j; an off-diagonal unknown
    moves both A_kl and A_lk, so its Jacobian column is doubled.
    """
    green = report.green.mat
    n = green.shape[0]
    rows, cols, mult = pair_basis(n)
    g_pairs = green[rows, cols]
    cov = report.pair_moments - np.outer(g_pairs, g_pairs)
    jac = -0.5 * cov * mult
    rhs = g_pairs - g_target[rows, cols]
    try:
        delta = np.linalg.solve(jac, -rhs)
    except np.linalg.LinAlgError:
        raise NoConvergence(
            "singular moment-sensitivity Jacobian (degenerate fourth moments)",
            residual=float(np.linalg.norm(rhs)),
        ) from None
    step = np.zeros((n, n))
    step[rows, cols] = step[cols, rows] = delta
    return step


def _start(
    g_target: SpdMatrix,
    u: Interaction,
    full_cfg: OracleConfig,
    tol: float | None,
    a_init: SymMatrix | None,
):
    """Where a solve begins: (A, answer, points). It asks only for G-only evaluations.

    full_cfg is the solve's configuration with pair moments asked for. The
    candidates, and so A, are SymMatrix values, each built once.

    The candidates are a_init alone when given; else, for a (scaled) diagonal
    quartic, G^-1 corrected by the first bold diagram and then plain G^-1:
    A[G] = G^-1 + Sigma[G] and Sigma = eps Sigma^(1) + O(eps^2), so the
    corrected guess is off by O(eps^2), but at strong coupling or large G it
    can land farther from the solution than G^-1. Each candidate with a rival
    left is evaluated G-only, in order; the first within tol (when tol is None,
    its own default_tolerance) is the answer, and ``answer`` is then its
    (G-only report, residual), None otherwise. So a corrected start within
    tol is returned even when G^-1 would be closer. Otherwise A is the
    candidate of least residual (the earlier on a tie), where the first Newton
    round opens. A candidate whose evaluation raises is passed over; one with
    no rival left is not evaluated here.

    When keeps_points(u, full_cfg), every candidate, a lone one too, is
    evaluated G-only and keeps its points; ``points`` is then the PointSet of
    the returned A, and None otherwise. A losing candidate's points are
    dropped as soon as it loses.
    """
    if a_init is not None:
        candidates = [a_init]
    else:
        g_inv = g_target.inverse()
        try:
            factor, v = as_diagonal_quartic(u)
        except LwlatticeError:
            candidates = [SymMatrix(g_inv)]
        else:
            sigma = BoldSeries.build(g_target, v, 1).truncated_sigma(factor)
            candidates = [SymMatrix(g_inv + sigma.mat), SymMatrix(g_inv)]
    keep = keeps_points(u, full_cfg)
    probe = replace(full_cfg, want_fourth_moments=False)
    # (report, points or None), one kind of evaluation for every candidate
    evaluate = PointSet.evaluate if keep else lambda *args: (evaluate_moments(*args), None)
    best = None  # (residual, index, points) of the closest candidate so far
    for k, a in enumerate(candidates):
        alone = best is None and k == len(candidates) - 1
        if alone and not keep:
            break
        try:
            report, points = evaluate(a, u, probe)
        except LwlatticeError:
            if alone:
                raise
            continue
        residual = float(np.linalg.norm(report.green.mat - g_target.mat))
        if residual <= (default_tolerance(report) if tol is None else tol):
            return a, (report, residual), None
        if best is None or residual < best[0]:
            best = (residual, k, points)
    _, k, points = best or (None, len(candidates) - 1, None)
    return candidates[k], None, points


def _newton(evaluate, g_target, a, tol, steps):
    """One Newton round from the SymMatrix ``a`` on the moments ``evaluate`` gives.

    ``evaluate`` maps a SymMatrix to its report with pair moments:
    PointSet.moments on stored points, or evaluate_moments. The round opens
    with the evaluation at ``a``; a tol of None is resolved from that report
    (default_tolerance). Then up to ``steps`` damped steps, stopping early
    once the residual is within tol or a line search stalls. The backend is
    read off each report: Monte Carlo reports carry standard errors. Returns
    (A, its report, residual, tol, steps taken, stalled).
    """
    report = evaluate(a)
    residual = float(np.linalg.norm(report.green.mat - g_target))
    tol = default_tolerance(report) if tol is None else tol
    for taken in range(steps):
        if residual <= tol:
            return a, report, residual, tol, taken, False
        step = _newton_step(report, g_target)
        # halving stops once a trial can no longer move G measurably: in Monte
        # Carlo when the share of the residual it targets drops below one
        # standard error (tol / 3), in quadrature when the step drops below
        # roundoff in A (a norm past the float range reads inf)
        if report.std_errors is None:
            with np.errstate(over="ignore"):
                reach, floor = float(np.linalg.norm(step)), 1e-12 * float(np.linalg.norm(a.mat))
        else:
            reach, floor = residual, tol / 3.0
        scale = 1.0
        for _ in range(MAX_STEP_HALVINGS):
            # one evaluation per trial, with pair moments: an accepted trial
            # is the next Newton point and its report gives the next Jacobian;
            # a trial whose entries overflow fails its value's checks and is
            # rejected like one whose evaluation fails
            try:
                with np.errstate(over="ignore"):
                    mat = a.mat + scale * step
                trial = SymMatrix(mat)
                trial_report = evaluate(trial)
                trial_res = float(np.linalg.norm(trial_report.green.mat - g_target))
            except LwlatticeError:
                trial_res = np.inf
            if trial_res < residual:
                break
            scale *= 0.5
            if scale * reach < floor:
                break
        if not trial_res < residual:
            return a, report, residual, tol, taken, True
        # trials must lower the residual, so the last point is the best one
        a, report, residual = trial, trial_report, trial_res
    return a, report, residual, tol, steps, False


def solver_controls(tol, max_iter, default=None):
    """tol, or default when tol is None, once both controls are checked.

    Called before any oracle call: tol must be a finite positive number (or
    None when the default is computed later) and max_iter an integer >= 0;
    max_iter 0 only checks the start.
    """
    tol = default if tol is None else tol
    finite_positive = isinstance(tol, Real) and not isinstance(tol, bool) and 0 < tol < np.inf
    if tol is not None and not finite_positive:
        raise ValidationError(f"tol must be a finite positive number, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral) or max_iter < 0:
        raise ValidationError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    return tol


def default_tolerance(report: MomentReport) -> float:
    """1e-8 for a quadrature report; three standard errors for a Monte Carlo one."""
    if report.std_errors is None:
        return DEFAULT_TOL_QUADRATURE
    return 3.0 * float(np.linalg.norm(report.std_errors.green))


def _solve_inverse(
    g_target: SpdMatrix,
    u: Interaction,
    cfg: OracleConfig,
    tol: float | None,
    max_iter: int,
    a_init: SymMatrix | None = None,
):
    tol = solver_controls(tol, max_iter)
    g_target = _guarded(g_target)
    if g_target.n != u.n:
        raise DimensionMismatch(f"G has dimension {g_target.n}, interaction has {u.n}")
    if a_init is not None:
        a_init = SymMatrix.coerce(a_init)
        if a_init.n != g_target.n:
            raise DimensionMismatch(f"a_init has dimension {a_init.n}, G has {g_target.n}")
    full_cfg = replace(cfg, want_fourth_moments=True)
    gt = g_target.mat

    a, answer, points = _start(g_target, u, full_cfg, tol, a_init)
    if answer is not None:
        return a, answer[0], 0, answer[1]
    done = 0
    if points is not None:
        # a round on the start's points, which are dropped before the fresh
        # round opens with its evaluation at the point this one reaches
        a, _, _, tol, done, _ = _newton(points.moments, gt, a, tol, max_iter)
        points = None
    a, report, residual, tol, taken, stalled = _newton(
        lambda t: evaluate_moments(t, u, full_cfg), gt, a, tol, max_iter - done
    )
    _require_within(residual, tol, stalled, max_iter)
    return a, report, done + taken, residual


def _guarded(g: SpdMatrix) -> SpdMatrix:
    """G coerced; BoundaryTooClose when it lies within BOUNDARY_GUARD of the cone boundary."""
    g = SpdMatrix.coerce(g)
    if min_eigenvalue(g) < BOUNDARY_GUARD:
        raise BoundaryTooClose(
            f"lambda_min(G) = {min_eigenvalue(g):.3e} below {BOUNDARY_GUARD:.0e}"
        )
    return g


def _require_within(residual: float, tol: float, stalled: bool, max_iter: int):
    """Raise NoConvergence, with the residual, unless a solve's last round ended within tol."""
    if residual <= tol:
        return
    how = "line search stalled at" if stalled else f"no convergence in {max_iter} iterations; best"
    raise NoConvergence(f"{how} residual {residual:.3e} (tol {tol:.1e})", residual=residual)


def inverse_map(
    g_target: SpdMatrix,
    u: Interaction,
    cfg: OracleConfig,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    a_init: SymMatrix | None = None,
) -> SymMatrix:
    """The unique A with <x x'>_{A,U} = G_target.

    A solve is a start plus Newton rounds. The start (see _start) is a_init,
    or else the first of G^-1 + eps Sigma^(1)[G] (for a scaled diagonal
    quartic) and G^-1 that lies within tol, which is then the answer, or
    failing that the closer of the two; it asks only for G-only evaluations.
    A round (see _newton) opens with the evaluation at its A, with pair
    moments, and takes damped steps (residual-decreasing line search, up to
    30 halvings, fewer once a halved step can no longer move G measurably).
    When oracle.keeps_points(u, cfg) (quadrature on a streamed grid of at
    most POINT_SET_DIM_CAP = 3 dimensions, a nonzero library quartic), a
    first round runs on the start's stored points (PointSet), until the
    residual there is within tol or the line search stalls. The fresh round,
    on evaluate_moments, comes last: its opening evaluation is the answer
    when within tol. Iterations count the steps of both rounds. Raises
    NoConvergence with the best residual seen, or BoundaryTooClose when
    G_target sits within BOUNDARY_GUARD of the cone boundary.
    """
    a, _, _, _ = _solve_inverse(g_target, u, cfg, tol, max_iter, a_init)
    return a


def lw_evaluate(
    g: SpdMatrix,
    u: Interaction,
    cfg: OracleConfig,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    a_init: SymMatrix | None = None,
) -> LwReport:
    """A[G], F[G], Phi[G], exact self-energy and the entropy split at G.

    F[G] = 1/2 Tr[A[G] G] - Omega[A[G]] by Legendre duality;
    Phi[G] = 2 F[G] - Tr[log G] - n log(2 pi e);
    Sigma[G] = A[G] - G^-1 (satisfies the Dyson equation by construction);
    entropy is the differential entropy of the maximizing density, so that
    F = entropy - <U> up to solver tolerance.
    """
    g = SpdMatrix.coerce(g)
    return _lw_report(g, *_solve_inverse(g, u, cfg, tol, max_iter, a_init))


def lw_evaluate_on(points: PointSet, g: SpdMatrix, tol, max_iter, a_init: SymMatrix):
    """lw_evaluate on the stored points of one quadrature evaluation, from the SymMatrix a_init.

    One Newton round (see _newton) on ``points.moments`` solves the discrete
    moment match of the set's rule, from a_init, in up to max_iter steps; a
    tol of None is 1e-8, as in lw_evaluate.
    On a fixed point set log Z is exactly convex in A, so F is the exact
    Legendre transform of the set's Omega and Sigma = dPhi/dG holds to tol.
    Raises BoundaryTooClose as lw_evaluate does, and NoConvergence with the
    messages of inverse_map when the round ends outside tol.
    """
    g = _guarded(g)
    a, report, residual, tol, taken, stalled = _newton(points.moments, g.mat, a_init, tol, max_iter)
    _require_within(residual, tol, stalled, max_iter)
    return _lw_report(g, a, report, taken, residual)


def _lw_report(g: SpdMatrix, a: SymMatrix, report: MomentReport, iterations, residual) -> LwReport:
    """The LwReport at G of a solve that reached A, with the oracle's report at A."""
    omega = report.omega
    universal_f = 0.5 * float(np.trace(a.mat @ g.mat)) - omega
    phi0 = g.n * np.log(2.0 * np.pi * np.e)
    phi = 2.0 * universal_f - logdet_spd(g) - phi0
    sigma = SymMatrix(a.mat - g.inverse())
    # entropy of rho_G computed from the oracle's own moments at A[G]
    entropy = (
        0.5 * float(np.trace(a.mat @ report.green.mat))
        + report.mean_interaction
        - omega
    )
    return LwReport(
        a_of_g=a,
        universal_f=universal_f,
        phi=phi,
        phi0=phi0,
        sigma_exact=sigma,
        entropy=entropy,
        mean_interaction=report.mean_interaction,
        solver_iterations=iterations,
        residual=residual,
    )


def exact_self_energy(
    g: SpdMatrix,
    u: Interaction,
    cfg: OracleConfig,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    a_init: SymMatrix | None = None,
) -> SymMatrix:
    """Sigma[G] = A[G] - G^-1, the ``sigma_exact`` of ``lw_evaluate``."""
    return lw_evaluate(g, u, cfg, tol, max_iter, a_init).sigma_exact


def rho_g_logdensity(
    g: SpdMatrix,
    u: Interaction,
    x,
    cfg: OracleConfig,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """log rho_G(x) of the maximizing density at G.

    rho_G(x) = exp(-1/2 x'A[G]x - U(x)) / Z[A[G]]; its exponential integrates
    to one by construction. Raises NonFinite, naming x, where the value
    overflows (x far out in the tails).
    """
    g = SpdMatrix.coerce(g)
    xv = np.asarray(x, dtype=float)
    if xv.shape != (g.n,):
        raise DimensionMismatch(f"x has shape {xv.shape}, expected ({g.n},)")
    if not np.all(np.isfinite(xv)):
        raise ValidationError(f"x must be finite, got {xv.tolist()}")
    a, report, _, _ = _solve_inverse(g, u, cfg, tol, max_iter)
    with np.errstate(over="ignore", invalid="ignore"):
        # -log Z = Omega
        value = -0.5 * float(xv @ a.mat @ xv) - float(u.evaluate(xv)) + report.omega
    if not np.isfinite(value):
        raise NonFinite(f"log rho_G overflows at x = {xv.tolist()}")
    return value
