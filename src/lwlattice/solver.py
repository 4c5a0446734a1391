"""Self-consistent Dyson solver and direct free-energy minimization.

The free energy of a trial Green's function is

    f(G) = 1/2 (Tr[A G] - log det G - Phi_model[G] - n log(2 pi e))

whose stationarity condition is the Dyson equation G^-1 = A - Sigma_model[G].
Phi_model is zero (no self-energy), a truncated bold series, or the exact
duality route. dyson_solve reaches it as an Anderson-mixed fixed point
(Walker and Ni, SIAM J. Numer. Anal. 49, 2011); minimize_free_energy descends
on f directly. Non-convergence is a reportable outcome (trace flag), not an
exception; only leaving the SPD cone aborts a run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from numbers import Real

import numpy as np

from .diagrams import BoldSeries
from .duality import lw_evaluate, solver_controls
from .errors import (
    DimensionMismatch,
    IterateLeftCone,
    LwlatticeError,
    NotPositiveDefinite,
    UnsupportedInteraction,
    ValidationError,
)
from .interactions import Interaction, as_diagonal_quartic
from .matrices import SpdMatrix, SymMatrix, cholesky_factor, logdet_spd, min_eigenvalue, plain
from .oracle import ENVELOPE_FLOOR, OracleConfig

DEFAULT_DAMPING = 0.5
DAMPING_FLOOR = 1.0 / 64.0
#: Residual differences an Anderson step mixes (Walker-Ni's m).
ANDERSON_DEPTH = 3
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
#: Line-search acceptance slack: descent is enforced up to this tolerance.
DESCENT_SLACK = 1e-12
#: Trial iterates beyond this Frobenius norm are treated as divergence of an
#: unbounded (truncated) objective and rejected.
GREEN_NORM_GUARD = 1e8


class SigmaModel(Enum):
    """Self-energy model used by the solver.

    EXACT_ORACLE runs a full duality solve per iterate and is intended for
    small verification instances (n <= 3).
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


def _free_energy_value(a_mat: np.ndarray, g: SpdMatrix, phi: float) -> float:
    return 0.5 * (
        float(np.trace(a_mat @ g.mat)) - logdet_spd(g) - phi - g.n * np.log(2.0 * np.pi * np.e)
    )


def _model_terms(u: Interaction, model: SigmaModel, cfg: OracleConfig, solver_tol=None):
    """G -> (Sigma_model[G], Phi_model[G]) for one model, picked once per solve.

    Each model's function holds only its own state. The bold models check
    their interaction here, before any iterate.
    """
    if not isinstance(model, SigmaModel):
        raise ValidationError(f"model must be a SigmaModel, got {model!r}")
    if model is SigmaModel.NONE:
        return lambda g: (SymMatrix(np.zeros((g.n, g.n))), 0.0)
    if model is SigmaModel.EXACT_ORACLE:
        # the exact model must resolve Sigma well below the outer tolerance;
        # in Monte Carlo mode the duality solve keeps its statistical default
        inner_tol = None
        if solver_tol is not None and cfg.mode == "quadrature":
            inner_tol = min(max(solver_tol / 100.0, 1e-13), 1e-8)
        warm_sigma = None

        def exact_terms(g: SpdMatrix):
            # A[G] = G^-1 + Sigma[G], and Sigma moves slowly between iterates:
            # G^-1 is exact at the new point, only Sigma is carried over
            nonlocal warm_sigma
            a_init = None if warm_sigma is None else SymMatrix(g.inverse() + warm_sigma.mat)
            report = lw_evaluate(g, u, cfg, tol=inner_tol, max_iter=100, a_init=a_init)
            warm_sigma = report.sigma_exact
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
    if a.n != g.n:
        raise DimensionMismatch(f"A has dimension {a.n}, G has {g.n}")
    phi = _model_terms(u, model, cfg)(g)[1]
    return _free_energy_value(a.mat, g, phi)


def _check_solvable(a: SymMatrix, model: SigmaModel):
    """Without a self-energy the free energy is bounded below only for SPD A."""
    if model is SigmaModel.NONE and min_eigenvalue(a) <= 0.0:
        raise ValidationError("the non-interacting Green's function requires A to be SPD")


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
    """
    tol = solver_controls(tol, max_iter, DEFAULT_TOL)
    a = SymMatrix.coerce(a)
    if isinstance(damping, bool) or not isinstance(damping, Real) or not 0.0 < damping <= 1.0:
        raise ValidationError(f"damping must be a number in (0, 1], got {damping!r}")
    model_terms = _model_terms(u, model, cfg, solver_tol=tol)
    _check_solvable(a, model)

    green = SpdMatrix.coerce(g_init) if g_init is not None else _initial_green(a)
    alpha = damping
    history = deque(maxlen=ANDERSON_DEPTH + 1)  # (G, T(G) - G) of accepted iterates
    last = None  # the newest accepted pair, kept across history resets
    records = []
    converged = False

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
            if last is None:
                raise IterateLeftCone(
                    "A - Sigma[G] not SPD at the initial iterate"
                ) from None
            green = damped_retry()
            continue
        target = np.linalg.inv(m)
        residual = float(np.linalg.norm(green.inverse() - m))
        records.append(
            IterateRecord(len(records) + 1, residual, _free_energy_value(a.mat, green, phi))
        )
        if residual <= tol:
            converged = True
            break
        last = (green.mat, target - green.mat)
        history.append(last)
        try:
            green = SpdMatrix(_anderson_mix(history, alpha))
        except NotPositiveDefinite:
            green = damped_retry()

    return SolveTrace(iterates=tuple(records), converged=converged, final_green=green)


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
    tol = solver_controls(tol, max_iter, DEFAULT_TOL)
    a = SymMatrix.coerce(a)
    model_terms = _model_terms(u, model, cfg, solver_tol=tol)
    _check_solvable(a, model)
    green = _initial_green(a)
    low = cholesky_factor(green.mat)

    sigma, phi = model_terms(green)
    fe = _free_energy_value(a.mat, green, phi)
    step_size = 0.1
    prev_low = None
    prev_grad = None
    records = []
    converged = False

    for iteration in range(1, max_iter + 1):
        gradient_g = a.mat - green.inverse() - sigma.mat
        residual = float(np.linalg.norm(gradient_g))
        records.append(IterateRecord(iteration, residual, fe))
        if residual <= tol:
            converged = True
            break
        gradient_low = np.tril(gradient_g @ low)
        if prev_low is not None:
            dl = low - prev_low
            dg = gradient_low - prev_grad
            curvature = float(np.sum(dl * dg))
            if curvature > 0.0:
                step_size = min(float(np.sum(dl * dl)) / curvature, 1e3)
        prev_low, prev_grad = low, gradient_low

        accepted = False
        trial_step = step_size
        for _ in range(60):
            trial_low = low - trial_step * gradient_low
            if np.any(np.diag(trial_low) <= 0.0):
                trial_step *= 0.5
                continue
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    trial_green = SpdMatrix(trial_low @ trial_low.T)
                    if np.linalg.norm(trial_green.mat) > GREEN_NORM_GUARD:
                        raise ValidationError("trial iterate diverged")
                    trial_sigma, trial_phi = model_terms(trial_green)
                    trial_fe = _free_energy_value(a.mat, trial_green, trial_phi)
            except LwlatticeError:
                # truncated models can be unbounded below; diverging or
                # overflowing trial points are rejected like any failed step
                trial_step *= 0.5
                continue
            if not np.isfinite(trial_fe):
                trial_step *= 0.5
                continue
            if trial_fe < fe - DESCENT_SLACK:
                accepted = True
            elif trial_fe <= fe + DESCENT_SLACK:
                # free-energy changes below resolution: require residual progress
                trial_residual = float(
                    np.linalg.norm(a.mat - trial_green.inverse() - trial_sigma.mat)
                )
                accepted = trial_residual < residual
            if accepted:
                low, green = trial_low, trial_green
                sigma, phi, fe = trial_sigma, trial_phi, trial_fe
                break
            trial_step *= 0.5
        if not accepted:
            break  # stalled line search: report the best point reached

    return SolveTrace(iterates=tuple(records), converged=converged, final_green=green)
