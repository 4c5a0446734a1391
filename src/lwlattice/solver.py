"""Self-consistent Dyson solver and direct free-energy minimization.

The free energy of a trial Green's function is

    f(G) = 1/2 (Tr[A G] - log det G - Phi_model[G] - n log(2 pi e))

whose stationarity condition is the Dyson equation G^-1 = A - Sigma_model[G].
Phi_model is zero (no self-energy), a truncated bold series, or the exact
duality route. In quadrature a solve's exact route evaluates once at the
given A and solves every iterate on the points that evaluation kept
(oracle.PointSet): on that fixed set log Z is exactly convex, its F is the
exact Legendre transform, and Sigma = dPhi/dG holds to the inner tolerance,
so the minimizer is the forward G of that rule at A (Boyd and Vandenberghe,
Convex Optimization, sec. 3.3). dyson_solve reaches it as an Anderson-mixed
fixed point (Walker and Ni, SIAM J. Numer. Anal. 49, 2011);
minimize_free_energy descends on f directly. Non-convergence is a
reportable outcome (trace flag), not an exception; only leaving the SPD
cone or an overflowing residual aborts a run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from numbers import Real

import numpy as np

from .diagrams import BoldSeries
from .duality import lw_evaluate, lw_evaluate_on, solver_controls
from .errors import (
    DimensionMismatch,
    IterateLeftCone,
    LwlatticeError,
    NonFinite,
    NotPositiveDefinite,
    UnsupportedInteraction,
    ValidationError,
)
from .interactions import Interaction, as_diagonal_quartic
from .matrices import SpdMatrix, SymMatrix, cholesky_factor, logdet_spd, min_eigenvalue, plain
from .oracle import ENVELOPE_FLOOR, OracleConfig, PointSet

DEFAULT_DAMPING = 0.5
DAMPING_FLOOR = 1.0 / 64.0
#: Residual differences an Anderson step mixes (Walker-Ni's m).
ANDERSON_DEPTH = 3
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
#: Line-search acceptance slack: descent is enforced up to this tolerance.
DESCENT_SLACK = 1e-12
#: Trial iterates beyond this Frobenius norm are treated as divergence of an
#: unbounded (truncated) objective and rejected; dyson_solve doubles a start
#: outside the cone only while it stays within this norm.
GREEN_NORM_GUARD = 1e8


class SigmaModel(Enum):
    """Self-energy model used by the solver.

    EXACT_ORACLE takes Sigma and Phi from the duality route. In a quadrature
    solve every iterate reweights the points of one evaluation at the given
    A, from G^-1 plus the previous Sigma: the model is the discrete
    functional of the rule placed at A. In Monte Carlo, and in free_energy,
    each call runs a fresh duality solve (lw_evaluate).
    """

    NONE = "none"
    BOLD1 = "bold1"
    BOLD12 = "bold12"
    EXACT_ORACLE = "exact"


@dataclass(frozen=True)
class IterateRecord:
    iteration: int
    residual: float
    free_energy: float


@dataclass(frozen=True)
class SolveTrace:
    """Iteration history of a Dyson or minimization run."""

    iterates: tuple
    converged: bool
    final_green: SpdMatrix

    def to_dict(self) -> dict:
        return plain(self)


def _norm(mat: np.ndarray) -> float:
    """Frobenius norm; inf, with no numpy warning, where its square overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(mat))


def _free_energy_value(a_mat: np.ndarray, g: SpdMatrix, phi: float) -> float:
    return 0.5 * (
        float(np.trace(a_mat @ g.mat)) - logdet_spd(g) - phi - g.n * np.log(2.0 * np.pi * np.e)
    )


def _model_terms(u: Interaction, model: SigmaModel, cfg: OracleConfig, solver_tol=None, a=None):
    """G -> (Sigma_model[G], Phi_model[G]) for one model, picked once per solve.

    Each model's function holds only its own state. The bold models check
    their interaction here, before any iterate. A solve passes its A: the
    exact model in quadrature then evaluates once at A, keeps the points
    (PointSet) and solves every iterate on them, from G^-1 plus the
    previous iterate's Sigma (zero at the first), in up to 100 Newton steps.
    """
    if not isinstance(model, SigmaModel):
        raise ValidationError(f"model must be a SigmaModel, got {model!r}")
    if model is SigmaModel.NONE:
        return lambda g: (SymMatrix(np.zeros((g.n, g.n))), 0.0)
    if model is SigmaModel.EXACT_ORACLE:
        # the exact model must resolve Sigma well below the outer tolerance;
        # in Monte Carlo mode the duality solve keeps its statistical default
        inner_tol, points, warm_sigma = None, None, None
        if a is not None and cfg.mode == "quadrature":
            inner_tol = min(max(solver_tol / 100.0, 1e-13), 1e-8)
            # A[G] = A at the solution, so every iterate solves on the points
            # of one evaluation at A; the first starts from G^-1
            points = PointSet.evaluate(a, u, replace(cfg, want_fourth_moments=False))[1]
            warm_sigma = np.zeros((a.n, a.n))

        def exact_terms(g: SpdMatrix):
            # A[G] = G^-1 + Sigma[G], and Sigma moves slowly between iterates:
            # G^-1 is exact at the new point, only Sigma is carried over
            nonlocal warm_sigma
            a_init = None if warm_sigma is None else SymMatrix(g.inverse() + warm_sigma)
            if points is None:
                report = lw_evaluate(g, u, cfg, tol=inner_tol, max_iter=100, a_init=a_init)
            else:
                report = lw_evaluate_on(points, g, inner_tol, 100, a_init)
            warm_sigma = report.sigma_exact.mat
            return report.sigma_exact, report.phi

        return exact_terms
    try:
        scale, v = as_diagonal_quartic(u)
    except UnsupportedInteraction:
        raise UnsupportedInteraction(
            "bold self-energy models require a (scaled) diagonal quartic interaction"
        ) from None
    order = 1 if model is SigmaModel.BOLD1 else 2

    def bold_terms(g: SpdMatrix):
        series = BoldSeries.build(g, v, order)
        return series.truncated_sigma(scale), series.truncated_phi(scale)

    return bold_terms


def free_energy(
    a: SymMatrix,
    g: SpdMatrix,
    u: Interaction,
    model: SigmaModel,
    cfg: OracleConfig = OracleConfig(),
) -> float:
    """Variational free energy of the trial G under the chosen model."""
    a = SymMatrix.coerce(a)
    g = SpdMatrix.coerce(g)
    _check_dimensions(a, U=u, G=g)
    phi = _model_terms(u, model, cfg)(g)[1]
    return _free_energy_value(a.mat, g, phi)


def _check_dimensions(a: SymMatrix, **operands):
    """Raise DimensionMismatch unless each named operand (None skipped) has A's dimension."""
    for name, operand in operands.items():
        if operand is not None and operand.n != a.n:
            raise DimensionMismatch(f"A has dimension {a.n}, {name} has {operand.n}")


def _setup(a, u, model, cfg, tol, max_iter, g_init=None):
    """(tol, A, model terms, first G) of a solve, every input checked before any iterate.

    The controls go first, then the dimensions of U and g_init against A,
    then the model. Without a self-energy the free energy is bounded below
    only for SPD A. The first G is g_init, or else ``_initial_green(A)``.
    """
    tol = solver_controls(tol, max_iter, DEFAULT_TOL)
    a = SymMatrix.coerce(a)
    green = None if g_init is None else SpdMatrix.coerce(g_init)
    _check_dimensions(a, U=u, G=green)
    model_terms = _model_terms(u, model, cfg, solver_tol=tol, a=a)
    if model is SigmaModel.NONE and min_eigenvalue(a) <= 0.0:
        raise ValidationError("the non-interacting Green's function requires A to be SPD")
    return tol, a, model_terms, _initial_green(a) if green is None else green


def _record(records: list, residual: float, free_energy: float, tol: float, quantity: str) -> bool:
    """Append the next IterateRecord; whether its residual is within tol.

    Raises NonFinite, naming ``quantity`` and the iteration, when the
    residual overflows.
    """
    iteration = len(records) + 1
    if not np.isfinite(residual):
        raise NonFinite(f"{quantity} overflows at iteration {iteration}")
    records.append(IterateRecord(iteration, residual, free_energy))
    return residual <= tol


def _trace(records: list, tol: float, green: SpdMatrix) -> SolveTrace:
    """The trace of a run: converged when its last record lies within tol."""
    return SolveTrace(tuple(records), bool(records and records[-1].residual <= tol), green)


def _initial_green(a: SymMatrix) -> SpdMatrix:
    """A^-1, or the inverse of A repaired to ENVELOPE_FLOOR when A is not SPD."""
    lam = min_eigenvalue(a)
    mat = a.mat if lam > 0.0 else a.mat + (ENVELOPE_FLOOR - lam) * np.eye(a.n)
    return SpdMatrix(np.linalg.inv(SpdMatrix(mat).mat))


def _anderson_mix(history, alpha: float) -> np.ndarray:
    """Walker-Ni type II Anderson step from the stored (G, T(G) - G) pairs.

    The newest residual is fitted by least squares over the differences of
    the stored residuals; the same combination of iterate differences is
    taken out of the damped step G + alpha (T(G) - G). One stored pair gives
    the damped step itself.
    """
    greens = np.array([g for g, _ in history])
    residuals = np.array([f for _, f in history])
    green, residual = greens[-1], residuals[-1]
    mixed = green + alpha * residual
    if len(history) > 1:
        k = len(history) - 1
        d_green = np.diff(greens, axis=0).reshape(k, -1).T
        d_residual = np.diff(residuals, axis=0).reshape(k, -1).T
        gamma = np.linalg.lstsq(d_residual, residual.ravel(), rcond=None)[0]
        mixed -= ((d_green + alpha * d_residual) @ gamma).reshape(green.shape)
    return mixed


def dyson_solve(
    a: SymMatrix,
    u: Interaction,
    model: SigmaModel,
    damping: float = DEFAULT_DAMPING,
    tol: float | None = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    cfg: OracleConfig = OracleConfig(),
    g_init: SpdMatrix | None = None,
) -> SolveTrace:
    """Anderson-mixed fixed point of G = T(G) = (A - Sigma[G])^-1.

    Each accepted iterate stores (G, T(G) - G); the next G is the Walker-Ni
    type II combination of the last ANDERSON_DEPTH + 1 of them with mixing
    parameter ``damping``, symmetrized. With one stored pair this is the
    damped step (1 - damping) G + damping T(G). When A - Sigma[G] or the
    mixed G leaves the SPD cone, the history is cleared and a damped step is
    retaken from the last accepted iterate with the mixing halved (it stays
    halved); at the floor of 1/64 the run aborts with IterateLeftCone. The
    default start is A^-1 (repaired when A is not SPD); g_init overrides it.
    A start where A - Sigma[G] leaves the cone is retried from 2 G, with no
    record and no iteration spent, while 2 |G| stays within GREEN_NORM_GUARD;
    past it the run aborts with IterateLeftCone. The bold-1 Sigma is linear
    in G, so where -Sigma1[G] is positive definite (a repulsive v) doubling
    G moves A - Sigma[G] into the cone, as on a double-well ring.
    """
    # before _setup, which may already evaluate the exact model's points
    if isinstance(damping, bool) or not isinstance(damping, Real) or not 0.0 < damping <= 1.0:
        raise ValidationError(f"damping must be a number in (0, 1], got {damping!r}")
    tol, a, model_terms, green = _setup(a, u, model, cfg, tol, max_iter, g_init)

    alpha = damping
    history = deque(maxlen=ANDERSON_DEPTH + 1)  # (G, T(G) - G) of accepted iterates
    last = None  # the newest accepted pair, kept across history resets
    records = []

    def damped_retry() -> SpdMatrix:
        nonlocal alpha
        alpha *= 0.5
        if alpha < DAMPING_FLOOR:
            raise IterateLeftCone(
                f"Dyson iterate left the SPD cone at damping floor {DAMPING_FLOOR}"
            ) from None
        history.clear()
        old_green, old_residual = last
        return SpdMatrix(old_green + alpha * old_residual)

    while len(records) < max_iter:
        sigma, phi = model_terms(green)
        m = a.mat - sigma.mat
        try:
            cholesky_factor(m)
        except NotPositiveDefinite:
            if last is not None:
                green = damped_retry()
            elif _norm(2.0 * green.mat) <= GREEN_NORM_GUARD:
                green = SpdMatrix(2.0 * green.mat)  # a start outside the cone: retry from 2 G
            else:
                raise IterateLeftCone("A - Sigma[G] not SPD at the initial iterate") from None
            continue
        target = np.linalg.inv(m)
        residual = _norm(green.inverse() - m)
        if _record(records, residual, _free_energy_value(a.mat, green, phi), tol, "Dyson residual"):
            break
        last = (green.mat, target - green.mat)
        history.append(last)
        try:
            green = SpdMatrix(_anderson_mix(history, alpha))
        except NotPositiveDefinite:
            green = damped_retry()

    return _trace(records, tol, green)


def _trial(a_mat: np.ndarray, model_terms, low: np.ndarray):
    """(L, G, Sigma, Phi, f) at the trial factor L, or None for a rejected step.

    A step is rejected when L leaves the cone, G passes GREEN_NORM_GUARD, the
    model raises or f is not finite: truncated models can be unbounded below,
    and diverging or overflowing trial points fail like any other step.
    """
    if np.any(np.diag(low) <= 0.0):
        return None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            green = SpdMatrix(low @ low.T)
            if np.linalg.norm(green.mat) > GREEN_NORM_GUARD:
                return None
            sigma, phi = model_terms(green)
            fe = _free_energy_value(a_mat, green, phi)
    except LwlatticeError:
        return None
    return (low, green, sigma, phi, fe) if np.isfinite(fe) else None


def minimize_free_energy(
    a: SymMatrix,
    u: Interaction,
    model: SigmaModel,
    cfg: OracleConfig = OracleConfig(),
    tol: float | None = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveTrace:
    """Gradient descent on the free energy over the SPD cone.

    G is parameterized as L L^T with L lower-triangular (positive diagonal),
    which keeps every iterate inside the cone; the gradient with respect to L
    is the lower triangle of (A - G^-1 - Sigma[G]) L. Step sizes follow a
    Barzilai-Borwein estimate with a backtracking safeguard. The free energy
    is non-increasing along the trace up to DESCENT_SLACK; once its changes
    fall below float resolution, steps are accepted on Dyson-residual
    decrease instead, which is what convergence is measured by.
    """
    tol, a, model_terms, green = _setup(a, u, model, cfg, tol, max_iter)
    low = cholesky_factor(green.mat)

    sigma, phi = model_terms(green)
    fe = _free_energy_value(a.mat, green, phi)
    step_size = 0.1
    prev_low = prev_grad = None
    records = []

    for _ in range(max_iter):
        gradient_g = a.mat - green.inverse() - sigma.mat
        residual = _norm(gradient_g)
        if _record(records, residual, fe, tol, "free-energy gradient"):
            break
        gradient_low = np.tril(gradient_g @ low)
        if prev_low is not None:
            dl = low - prev_low
            dg = gradient_low - prev_grad
            curvature = float(np.sum(dl * dg))
            if curvature > 0.0:
                step_size = min(float(np.sum(dl * dl)) / curvature, 1e3)
        prev_low, prev_grad = low, gradient_low

        trial_step = step_size
        for _ in range(60):
            trial = _trial(a.mat, model_terms, low - trial_step * gradient_low)
            if trial is not None:
                _, trial_green, trial_sigma, _, trial_fe = trial
                # free-energy changes below resolution: require residual progress
                if trial_fe < fe - DESCENT_SLACK or (
                    trial_fe <= fe + DESCENT_SLACK
                    and _norm(a.mat - trial_green.inverse() - trial_sigma.mat) < residual
                ):
                    low, green, sigma, phi, fe = trial
                    break
            trial_step *= 0.5
        else:
            break  # stalled line search: report the best point reached

    return _trace(records, tol, green)
