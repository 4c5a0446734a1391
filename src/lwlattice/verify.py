"""Executable theorem checks: gradient identities, bijection, asymptotic
order, transformation rule, boundary continuity, truncation consistency.

Every check is deterministic given its config and returns a CheckReport;
``run_suite`` executes named groups over a fixed case matrix. Pass bounds
live in THRESHOLDS, a tight set for quadrature and a looser one for Monte
Carlo; the config's mode picks the set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .diagrams import BoldSeries
from .duality import inverse_map, lw_evaluate
from .errors import ValidationError
from .interactions import (
    DiagonalQuartic,
    Interaction,
    ScaledInteraction,
    ZeroInteraction,
    compose,
    restrict,
)
from .matrices import LinearMap, SpdMatrix, SymMatrix, congruence
from .oracle import OracleConfig, evaluate_moments, green_of_a

#: Per-check pass thresholds. "asymptotic_margin" and "truncation_margin"
#: are slope margins (fitted slope must exceed N + margin); the rest bound the
#: metric from above. The mc set excludes the slope checks: their residuals
#: sit far below the statistical noise floor at any affordable sample count.
THRESHOLDS = {
    "quadrature": {
        "gradient_omega": 1e-5,
        "selfenergy_gradient": 1e-4,
        "bijection": 1e-6,
        "asymptotic_margin": 0.8,
        "transformation": 1e-5,
        "boundary": 1e-3,
        "truncation_margin": 0.8,
    },
    "mc": {
        "gradient_omega": 2e-2,
        "selfenergy_gradient": 5e-2,
        "bijection": 2e-2,
        "transformation": 2e-2,
        "boundary": 5e-2,
    },
}

#: Coupling grids of the slope checks (ascending) and boundary distances of
#: the continuity check (descending).
EPS_GRID = tuple(np.logspace(-3, -1, 9))
LEMMA_EPS_GRID = (2e-3, 5e-3, 1e-2, 2e-2, 5e-2)
DELTA_GRID = (1e-1, 3e-2, 1e-2, 3e-3)
#: Residuals below this value are quadrature-noise dominated and dropped
#: before slope fitting.
SLOPE_NOISE_FLOOR = 1e-12
SLOPE_FIT_POINTS = 4
#: Scale floor for relative errors of directional derivatives.
DERIVATIVE_SCALE_FLOOR = 1e-3
FD_STEP = 1e-4
#: The coupled n=2 quartic coupling v shared by the suites.
_V2 = SymMatrix([[1.0, 0.5], [0.5, 1.0]])


@dataclass(frozen=True)
class CheckReport:
    """One named check: the compared metric, its threshold and diagnostics."""

    name: str
    passed: bool
    metric: float
    threshold: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _bound(cfg: OracleConfig, key: str) -> float:
    """The pass bound of one check in the THRESHOLDS set of cfg's mode."""
    bounds = THRESHOLDS["quadrature" if cfg.mode == "quadrature" else "mc"]
    if key not in bounds:
        raise ValidationError(
            f"no Monte Carlo bound for {key!r}: slope checks fit residuals below "
            "the Monte Carlo noise floor; run them in quadrature mode"
        )
    return bounds[key]


def _report(name, metric, threshold, details, at_least=False) -> CheckReport:
    """The one pass rule: metric <= threshold, or metric >= threshold for the
    slope checks (``at_least``); a NaN metric fails either way."""
    passed = metric >= threshold if at_least else metric <= threshold
    return CheckReport(name, bool(passed), metric, threshold, details)


def _directional_check(name, value, x, gradient, seed, threshold) -> CheckReport:
    """Central differences of the scalar function ``value`` at the matrix ``x``
    against Tr[gradient D].

    Step FD_STEP along 6 random symmetric unit directions D drawn from
    ``seed``; metric = max error over the directions, relative to the largest
    analytic derivative floored at DERIVATIVE_SCALE_FLOOR.
    """
    rng = np.random.default_rng(seed)
    analytic, fd = [], []
    for _ in range(6):
        r = rng.standard_normal(x.shape)
        direction = 0.5 * (r + r.T)
        direction = direction / np.linalg.norm(direction)
        analytic.append(float(np.sum(gradient * direction)))
        plus = value(x + FD_STEP * direction)
        minus = value(x - FD_STEP * direction)
        fd.append((plus - minus) / (2.0 * FD_STEP))
    scale = max(np.abs(analytic).max(), DERIVATIVE_SCALE_FLOOR)
    metric = float(np.abs(np.subtract(fd, analytic)).max() / scale)
    details = {"analytic": analytic, "finite_difference": fd, "step": FD_STEP}
    return _report(name, metric, threshold, details)


def check_gradient_omega(a: SymMatrix, u: Interaction, cfg: OracleConfig) -> CheckReport:
    """Directional derivatives of Omega against 1/2 Tr[G dA]."""
    threshold = _bound(cfg, "gradient_omega")
    a = SymMatrix.coerce(a)
    green = evaluate_moments(a, u, cfg).green.mat
    return _directional_check(
        "gradient_omega",
        lambda mat: evaluate_moments(SymMatrix(mat), u, cfg).omega,
        a.mat,
        0.5 * green,
        101,
        threshold,
    )


def check_bijection(a: SymMatrix, u: Interaction, cfg: OracleConfig) -> CheckReport:
    """Round trip A -> G[A] -> A via the duality solver, in max norm."""
    threshold = _bound(cfg, "bijection")
    a = SymMatrix.coerce(a)
    tol = 1e-9 if cfg.mode == "quadrature" else None
    green = green_of_a(a, u, cfg)
    recovered = inverse_map(green, u, cfg, tol=tol)
    metric = float(np.abs(recovered.mat - a.mat).max())
    details = {"green": green.mat.tolist(), "recovered": recovered.mat.tolist()}
    return _report("bijection", metric, threshold, details)


def _fit_slope(eps_values: np.ndarray, residuals: np.ndarray) -> float:
    """Log-log least-squares slope on the smallest usable grid points."""
    mask = np.isfinite(residuals) & (residuals > SLOPE_NOISE_FLOOR)
    eps_used = eps_values[mask][:SLOPE_FIT_POINTS]
    res_used = residuals[mask][:SLOPE_FIT_POINTS]
    if len(eps_used) < 2:
        return float("nan")
    return float(np.polyfit(np.log(eps_used), np.log(res_used), 1)[0])


def bold_residuals(g, v, order, couplings, cfg, tol, max_iter) -> list:
    """Exact-versus-bold residuals of the interaction eps U_v along ``couplings``.

    At each coupling eps, in the given order, a ``lw_evaluate`` warm-started
    from the previous A[G] gives the exact Sigma and Phi at G; returns
    (report, |Sigma - Sigma_N|_F, |Phi - Phi_N|) per coupling, against the
    order-N bold partial sums.
    """
    g = SpdMatrix.coerce(g)
    v = SymMatrix.coerce(v)
    series = BoldSeries.build(g, v, order)
    rows, warm = [], None
    for eps in couplings:
        u_eps = ScaledInteraction(eps, DiagonalQuartic(v))
        report = lw_evaluate(g, u_eps, cfg, tol=tol, max_iter=max_iter, a_init=warm)
        warm = report.a_of_g
        sigma_res = np.linalg.norm(report.sigma_exact.mat - series.truncated_sigma(eps).mat)
        phi_res = abs(report.phi - series.truncated_phi(eps))
        rows.append((report, float(sigma_res), float(phi_res)))
    return rows


def check_asymptotic_order(
    g: SpdMatrix, v: SymMatrix, order: int, cfg: OracleConfig
) -> CheckReport:
    """Fitted log-log slopes of the truncation residuals of Sigma and Phi.

    The N-term partial sums must leave O(eps^{N+1}) residuals, so both fitted
    slopes must exceed N + margin.
    """
    threshold = order + _bound(cfg, "asymptotic_margin")
    eps_values = np.asarray(EPS_GRID)
    rows = bold_residuals(g, v, order, eps_values, cfg, tol=1e-12, max_iter=100)
    sigma_res, phi_res = np.array([row[1:] for row in rows]).T
    slope_sigma = _fit_slope(eps_values, sigma_res)
    slope_phi = _fit_slope(eps_values, phi_res)
    details = {
        "slope_sigma": slope_sigma,
        "slope_phi": slope_phi,
        "eps": eps_values.tolist(),
        "sigma_residuals": sigma_res.tolist(),
        "phi_residuals": phi_res.tolist(),
    }
    metric = float(min(slope_sigma, slope_phi))
    return _report(f"asymptotic_order_n{order}", metric, threshold, details, at_least=True)


def check_transformation_rule(
    g: SpdMatrix, u: Interaction, t: LinearMap, cfg: OracleConfig
) -> CheckReport:
    """Phi[T G T'; U] against Phi[G; U o T]."""
    threshold = _bound(cfg, "transformation")
    g = SpdMatrix.coerce(g)
    t = LinearMap.coerce(t)
    tol = None
    if cfg.mode == "quadrature":
        tol = 1e-9
        # anisotropic maps stretch G and drive A[G] deep into the
        # repaired-envelope regime, where 64 nodes leave ~1e-5 bias
        cfg = replace(cfg, nodes_per_dim=max(cfg.nodes_per_dim, 96))
    lhs = float(lw_evaluate(congruence(t, g), u, cfg, tol=tol).phi)
    rhs = float(lw_evaluate(g, compose(u, t), cfg, tol=tol).phi)
    details = {"phi_transformed_g": lhs, "phi_composed_u": rhs}
    return _report("transformation_rule", abs(lhs - rhs), threshold, details)


def _polynomial_extrapolation(xs: np.ndarray, ys: np.ndarray) -> float:
    """Neville extrapolation to x = 0 through all points, smallest x first."""
    idx = np.argsort(xs)
    x = xs[idx]
    q = ys[idx].astype(float).copy()
    for k in range(1, len(x)):
        for i in range(len(x) - k):
            q[i] = ((0.0 - x[i + k]) * q[i] - (0.0 - x[i]) * q[i + 1]) / (x[i] - x[i + k])
    return float(q[0])


def check_boundary_continuity(
    g_p: SpdMatrix, u: Interaction, cfg: OracleConfig
) -> CheckReport:
    """Continuity of Phi at the cone boundary via rank-deficient limits.

    Phi_n at diag(G_p, delta I) is extrapolated to delta = 0 by polynomial
    (Neville) extrapolation in delta; coupled quartics approach the boundary
    with a genuine O(delta) term, so the extrapolation is polynomial in delta
    rather than delta^2. The limit must match Phi_p of the restricted
    interaction.
    """
    threshold = _bound(cfg, "boundary")
    g_p = SpdMatrix.coerce(g_p)
    p, n = g_p.n, u.n
    if p >= n:
        raise ValidationError(f"restricted dimension {p} must be below {n}")
    deltas = np.asarray(DELTA_GRID)
    phis = np.empty(len(deltas))
    for k, delta in enumerate(deltas):
        full = np.zeros((n, n))
        full[:p, :p] = g_p.mat
        full[range(p, n), range(p, n)] = delta
        phis[k] = lw_evaluate(SpdMatrix(full), u, cfg).phi
    limit = _polynomial_extrapolation(deltas, phis)
    target = float(lw_evaluate(g_p, restrict(u, p), cfg).phi)
    details = {
        "deltas": deltas.tolist(),
        "phi_values": phis.tolist(),
        "extrapolated": limit,
        "restricted_phi": target,
    }
    return _report("boundary_continuity", abs(limit - target), threshold, details)


def check_selfenergy_gradient(g: SpdMatrix, u: Interaction, cfg: OracleConfig) -> CheckReport:
    """Directional derivatives of Phi against Tr[Sigma dG]."""
    threshold = _bound(cfg, "selfenergy_gradient")
    g = SpdMatrix.coerce(g)
    sigma = lw_evaluate(g, u, cfg, tol=1e-10).sigma_exact.mat
    return _directional_check(
        "selfenergy_gradient",
        lambda mat: lw_evaluate(SpdMatrix(mat), u, cfg, tol=1e-10).phi,
        g.mat,
        sigma,
        202,
        threshold,
    )


def check_truncation_lemma(
    g: SpdMatrix, v: SymMatrix, order: int, cfg: OracleConfig
) -> CheckReport:
    """Truncated self-energy as the exact one of a shifted bare problem.

    The bare coefficient G^-1 + (truncated Sigma)(eps) must regenerate the
    bold G under interaction eps U up to O(eps^{N+1}); the fitted slope of
    the regeneration residual must exceed N + margin.
    """
    threshold = order + _bound(cfg, "truncation_margin")
    g = SpdMatrix.coerce(g)
    v = SymMatrix.coerce(v)
    series = BoldSeries.build(g, v, order)
    eps_values = np.asarray(LEMMA_EPS_GRID)
    residuals = np.empty(len(eps_values))
    for k, eps in enumerate(eps_values):
        bare = SymMatrix(g.inverse() + series.truncated_sigma(eps).mat)
        u_eps = ScaledInteraction(eps, DiagonalQuartic(v))
        regenerated = green_of_a(bare, u_eps, cfg)
        residuals[k] = np.linalg.norm(regenerated.mat - g.mat)
    slope = _fit_slope(eps_values, residuals)
    details = {"eps": eps_values.tolist(), "residuals": residuals.tolist()}
    return _report("truncation_lemma", slope, threshold, details, at_least=True)


def _rotation(angle: float) -> LinearMap:
    c, s = np.cos(angle), np.sin(angle)
    return LinearMap([[c, s], [-s, c]])


def _random_spd(n: int, rng) -> SpdMatrix:
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = rng.uniform(0.5, 2.5, n)
    return SpdMatrix(q @ np.diag(lam) @ q.T)


def _suite_gaussian(cfg):
    rng = np.random.default_rng(11)
    zero2 = ZeroInteraction(2)
    reports = [
        check_gradient_omega(SymMatrix(np.eye(2)), zero2, cfg),
        check_bijection(_random_spd(2, rng), zero2, cfg),
        check_bijection(_random_spd(3, rng), ZeroInteraction(3), cfg),
    ]
    third = _random_spd(2, rng)
    if cfg.mode == "quadrature":
        # zero interaction means both derivative routes vanish; under Monte
        # Carlo this compares noise against noise, so it is quadrature-only
        reports.append(check_selfenergy_gradient(third, zero2, cfg))
    reports += [
        check_transformation_rule(_random_spd(2, rng), zero2, _rotation(np.pi / 4), cfg),
        check_boundary_continuity(SpdMatrix([[1.0]]), zero2, cfg),
    ]
    return reports


def _suite_gradients(cfg):
    return [
        check_gradient_omega(SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), cfg),
        check_gradient_omega(SymMatrix([[1.0, 0.0], [0.0, -0.2]]), DiagonalQuartic(_V2), cfg),
        check_selfenergy_gradient(SpdMatrix([[1.0]]), DiagonalQuartic([[1.0]]), cfg),
        check_selfenergy_gradient(SpdMatrix([[1.0, 0.2], [0.2, 0.8]]), DiagonalQuartic(_V2), cfg),
    ]


def _suite_bijection(cfg):
    rng = np.random.default_rng(23)
    quartic1 = DiagonalQuartic([[1.0]])
    quartic2 = DiagonalQuartic(_V2)
    return [
        check_bijection(SymMatrix([[1.0]]), quartic1, cfg),
        check_bijection(SymMatrix([[-0.3]]), quartic1, cfg),
        check_bijection(_random_spd(2, rng), quartic2, cfg),
        check_bijection(SymMatrix([[1.0, 0.3], [0.3, -0.2]]), quartic2, cfg),
    ]


def _suite_theorem3(cfg):
    return [
        check_asymptotic_order(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 1, cfg),
        check_asymptotic_order(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 2, cfg),
        check_asymptotic_order(SpdMatrix(np.eye(2)), _V2, 2, cfg),
    ]


def _suite_transformation(cfg):
    g = SpdMatrix([[1.0, 0.2], [0.2, 0.7]])
    u = DiagonalQuartic(_V2)
    # strong stretching degenerates the importance weights at fixed sample
    # count, so the Monte Carlo matrix uses a milder anisotropy
    stretch = [[2.0, 0.0], [0.0, 0.5]] if cfg.mode == "quadrature" else [[1.25, 0.0], [0.0, 0.8]]
    return [
        check_transformation_rule(g, u, LinearMap.identity(2), cfg),
        check_transformation_rule(g, u, _rotation(np.pi / 4), cfg),
        check_transformation_rule(g, u, LinearMap(stretch), cfg),
    ]


def _suite_boundary(cfg):
    coupled = DiagonalQuartic(_V2)
    decoupled = DiagonalQuartic([[1.0, 0.0], [0.0, 0.8]])
    return [
        check_boundary_continuity(SpdMatrix([[1.0]]), coupled, cfg),
        check_boundary_continuity(SpdMatrix([[1.0]]), decoupled, cfg),
    ]


def _suite_lemma1(cfg):
    return [check_truncation_lemma(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 2, cfg)]


_SUITES = {
    "gaussian": _suite_gaussian,
    "gradients": _suite_gradients,
    "bijection": _suite_bijection,
    "theorem3": _suite_theorem3,
    "transformation": _suite_transformation,
    "boundary": _suite_boundary,
    "lemma1": _suite_lemma1,
}
#: Slope-based suites are meaningless under Monte Carlo noise; "all" skips
#: them there, and run alone their first check raises.
_QUADRATURE_ONLY_SUITES = ("theorem3", "lemma1")


def suite_names():
    return ("all",) + tuple(_SUITES)


def run_suite(suite: str = "all", cfg: OracleConfig | None = None) -> list:
    """Run a named check suite; every report is deterministic given cfg."""
    if cfg is None:
        cfg = OracleConfig()
    if suite == "all":
        names = [
            name
            for name in _SUITES
            if cfg.mode == "quadrature" or name not in _QUADRATURE_ONLY_SUITES
        ]
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ValidationError(
            f"unknown suite {suite!r}; choose from {suite_names()}"
        )
    reports = []
    for name in names:
        reports.extend(_SUITES[name](cfg))
    return reports
