"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s); stated runtime
budgets are asserted. All randomness is seeded, so the suite is deterministic.
"""

import time

import numpy as np
import pytest

import oracles
from lwlattice.diagrams import phi_term
from lwlattice.duality import inverse_map, lw_evaluate
from lwlattice.interactions import DiagonalQuartic, ZeroInteraction
from lwlattice.matrices import LinearMap, SpdMatrix, SymMatrix
from lwlattice.oracle import OracleConfig, evaluate_moments, green_of_a
from lwlattice.solver import SigmaModel, dyson_solve, free_energy, minimize_free_energy
from lwlattice.verify import (
    check_asymptotic_order,
    check_boundary_continuity,
    check_gradient_omega,
    check_selfenergy_gradient,
    check_transformation_rule,
)

QUAD = OracleConfig()
V2 = np.array([[1.0, 0.5], [0.5, 1.0]])


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {number:02d} {name}: {detail}"


def random_spd(n, rng, lo=0.5, hi=2.5):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def random_coupling(n, rng, lo=0.2, hi=1.5):
    v = rng.uniform(lo, hi, (n, n))
    return 0.5 * (v + v.T)


def test_criterion_01_gaussian_closed_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_omega = worst_green = 0.0
    for case in range(25):
        n = 1 + case % 3
        a = random_spd(n, rng)
        rep = evaluate_moments(SymMatrix(a), ZeroInteraction(n), QUAD)
        sign, logdet = np.linalg.slogdet(a)
        expected = 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)
        worst_omega = max(worst_omega, abs(rep.omega - expected) / abs(expected))
        worst_green = max(worst_green, np.abs(rep.green.mat - np.linalg.inv(a)).max())
    elapsed = time.perf_counter() - start
    report(
        1,
        "gaussian closed forms",
        worst_omega <= 1e-10 and worst_green <= 1e-10 and elapsed < 10.0,
        f"max rel omega err {worst_omega:.2e}, max green err {worst_green:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_noninteracting_lw():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(10):
        n = 1 + case % 3
        g = SpdMatrix(random_spd(n, rng))
        rep = lw_evaluate(g, ZeroInteraction(n), QUAD)
        worst = max(worst, abs(rep.phi))
    elapsed = time.perf_counter() - start
    report(
        2,
        "non-interacting LW functional vanishes",
        worst <= 1e-8 and elapsed < 30.0,
        f"max |phi| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_bijection_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    cases = []
    for k in range(7):
        n = 1 + k % 2
        cases.append((random_spd(n, rng), random_coupling(n, rng)))
    # three indefinite quadratic parts, confined by the quartic growth
    cases.append((np.array([[-0.3]]), np.array([[1.0]])))
    cases.append((np.array([[1.0, 0.3], [0.3, -0.2]]), V2))
    cases.append((np.diag([0.8, -0.35]), random_coupling(2, rng)))
    worst = 0.0
    for a, v in cases:
        u = DiagonalQuartic(v)
        g = green_of_a(SymMatrix(a), u, QUAD)
        recovered = inverse_map(g, u, QUAD, tol=1e-9)
        worst = max(worst, np.abs(recovered.mat - a).max())
    elapsed = time.perf_counter() - start
    report(
        3,
        "bijection round trip",
        worst <= 1e-6 and elapsed < 120.0,
        f"{len(cases)} cases, max err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_gradient_identities():
    start = time.perf_counter()
    omega_cases = [
        (np.eye(2), ZeroInteraction(2)),
        (np.array([[1.0]]), DiagonalQuartic([[1.0]])),
        (np.diag([1.0, -0.2]), DiagonalQuartic(V2)),
    ]
    sigma_cases = [
        (np.eye(2), ZeroInteraction(2)),
        (np.array([[1.0]]), DiagonalQuartic([[1.0]])),
        (np.array([[1.0, 0.2], [0.2, 0.8]]), DiagonalQuartic(V2)),
    ]
    worst_omega = max(
        check_gradient_omega(SymMatrix(a), u, QUAD).metric
        for a, u in omega_cases
    )
    worst_sigma = max(
        check_selfenergy_gradient(SpdMatrix(g), u, QUAD).metric
        for g, u in sigma_cases
    )
    elapsed = time.perf_counter() - start
    report(
        4,
        "gradient identities",
        worst_omega <= 1e-5 and worst_sigma <= 1e-4 and elapsed < 120.0,
        f"omega metric {worst_omega:.2e} (<=1e-5), sigma metric {worst_sigma:.2e} (<=1e-4), {elapsed:.1f}s",
    )


def test_criterion_05_asymptotic_series_order():
    start = time.perf_counter()
    slopes = {}
    for label, g, v in (
        ("n=1", np.array([[1.0]]), np.array([[1.0]])),
        ("n=2", np.eye(2), V2),
    ):
        for order in (1, 2):
            rep = check_asymptotic_order(SpdMatrix(g), SymMatrix(v), order, QUAD)
            slopes[f"{label},N={order}"] = (
                rep.details["slope_sigma"],
                rep.details["slope_phi"],
            )
    passed = all(
        min(pair) >= (1.8 if key.endswith("N=1") else 2.8)
        for key, pair in slopes.items()
    )
    elapsed = time.perf_counter() - start
    detail = "; ".join(
        f"{key}: sigma {pair[0]:.2f}, phi {pair[1]:.2f}" for key, pair in slopes.items()
    )
    report(5, "asymptotic series order", passed and elapsed < 300.0, f"{detail}, {elapsed:.1f}s")


def test_criterion_06_phi_sigma_trace_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        g = SpdMatrix(random_spd(n, rng))
        raw = rng.uniform(-1.0, 1.5, (n, n)) * 0.5
        v = SymMatrix(0.5 * (raw + raw.T))
        for order in (1, 2):
            wick = oracles.vacuum_phi(g.mat, v.mat, order)
            worst = max(worst, abs(phi_term(g, v, order) - wick))
    report(
        6,
        "phi/sigma trace identity",
        worst <= 1e-12,
        f"max deviation from the Wick vacuum diagrams {worst:.2e} over 20 cases x 2 orders",
    )


def test_criterion_07_transformation_rule():
    start = time.perf_counter()
    g = SpdMatrix([[1.0, 0.2], [0.2, 0.7]])
    u = DiagonalQuartic(V2)
    c = s = np.sqrt(0.5)
    maps = {
        "identity": LinearMap.identity(2),
        "rotation": LinearMap([[c, s], [-s, c]]),
        "anisotropic": LinearMap([[2.0, 0.0], [0.0, 0.5]]),
    }
    metrics = {
        name: check_transformation_rule(g, u, t, QUAD).metric
        for name, t in maps.items()
    }
    elapsed = time.perf_counter() - start
    passed = all(m <= 1e-5 for m in metrics.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in metrics.items())
    report(7, "transformation rule", passed and elapsed < 180.0, f"{detail}, {elapsed:.1f}s")


def test_criterion_08_boundary_continuity():
    start = time.perf_counter()
    coupled = check_boundary_continuity(SpdMatrix([[1.0]]), DiagonalQuartic(V2), QUAD)
    decoupled = check_boundary_continuity(
        SpdMatrix([[1.0]]), DiagonalQuartic([[1.0, 0.0], [0.0, 0.8]]), QUAD
    )
    elapsed = time.perf_counter() - start
    passed = (
        coupled.metric <= 1e-3 and decoupled.metric <= 1e-4 and elapsed < 180.0
    )
    report(
        8,
        "boundary continuity",
        passed,
        f"coupled err {coupled.metric:.2e} (<=1e-3), decoupled err "
        f"{decoupled.metric:.2e} (<=1e-4), {elapsed:.1f}s",
    )


def test_criterion_09_dyson_variational_consistency():
    start = time.perf_counter()
    a = SymMatrix([[1.0]])
    u = DiagonalQuartic([[1.0]])
    tol = 1e-7

    reference = green_of_a(a, u, QUAD).mat[0, 0]
    dyson = dyson_solve(a, u, SigmaModel.EXACT_ORACLE, tol=tol, cfg=QUAD)
    dyson_err = abs(dyson.final_green.mat[0, 0] - reference)

    minimized = minimize_free_energy(a, u, SigmaModel.EXACT_ORACLE, QUAD, tol=tol)
    final_residual = minimized.iterates[-1].residual

    fe = free_energy(a, minimized.final_green, u, SigmaModel.EXACT_ORACLE, QUAD)
    omega = evaluate_moments(a, u, QUAD).omega
    fe_err = abs(fe - omega)

    bold = dyson_solve(a, u, SigmaModel.BOLD1, tol=1e-13, cfg=QUAD)
    bold_err = abs(bold.final_green.mat[0, 0] - (np.sqrt(7.0) - 1.0) / 3.0)

    elapsed = time.perf_counter() - start
    passed = (
        dyson.converged
        and dyson_err <= 1e-6
        and minimized.converged
        and final_residual <= 10 * tol
        and fe_err <= 1e-6
        and bold_err <= 1e-10
    )
    report(
        9,
        "dyson/variational consistency",
        passed,
        f"dyson err {dyson_err:.2e}, stationarity residual {final_residual:.2e}, "
        f"free-energy err {fe_err:.2e}, bold1 root err {bold_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_mc_estimator_honesty():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    hits = total = 0
    per_case_fail = 0
    cases = [("gaussian", k) for k in range(50)] + [("quartic", k) for k in range(20)]
    for kind, k in cases:
        n = 1 + k % 3
        a = random_spd(n, rng, lo=0.3, hi=3.0)
        u = ZeroInteraction(n) if kind == "gaussian" else DiagonalQuartic(random_coupling(n, rng))
        quad = evaluate_moments(SymMatrix(a), u, QUAD)
        mc = evaluate_moments(
            SymMatrix(a),
            u,
            OracleConfig(mode="monte_carlo", samples=1_000_000, seed=7000 + k * 13),
        )
        checks = [abs(mc.omega - quad.omega) <= 3.0 * mc.std_errors.omega]
        checks.extend(
            (np.abs(mc.green.mat - quad.green.mat) <= 3.0 * mc.std_errors.green).ravel().tolist()
        )
        hits += sum(checks)
        total += len(checks)
        per_case_fail += int(not all(checks))
    fraction = hits / total
    elapsed = time.perf_counter() - start
    report(
        10,
        "MC estimator honesty",
        fraction >= 0.95,
        f"{hits}/{total} estimates within 3 SE ({100 * fraction:.1f}%), "
        f"{per_case_fail} cases with any outlier, {elapsed:.1f}s",
    )
