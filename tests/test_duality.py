import itertools

import numpy as np
import pytest

import oracles
from lwlattice.diagrams import sigma1
from lwlattice.duality import (
    _initial_guess,
    exact_self_energy,
    inverse_map,
    lw_evaluate,
    rho_g_logdensity,
)
from lwlattice.errors import BoundaryTooClose, NoConvergence
from lwlattice.interactions import DiagonalQuartic, ScaledInteraction, ZeroInteraction
from lwlattice.matrices import SpdMatrix, SymMatrix
from lwlattice.oracle import OracleConfig, evaluate_moments, green_of_a

QUAD = OracleConfig()
QUAD_TIGHT = OracleConfig(nodes_per_dim=192)
V2 = np.array([[1.0, 0.5], [0.5, 1.0]])


def random_spd(n, rng, lo=0.5, hi=2.5):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


class TestInverseMap:
    def test_gaussian_is_matrix_inverse(self):
        g = SpdMatrix(np.diag([0.5, 0.25]))
        a = inverse_map(g, ZeroInteraction(2), QUAD)
        assert np.abs(a.mat - np.diag([2.0, 4.0])).max() <= 1e-10

    def test_quartic_round_trip(self):
        u = DiagonalQuartic([[1.0]])
        g = green_of_a(SymMatrix([[1.0]]), u, QUAD)
        a = inverse_map(g, u, QUAD)
        assert abs(a.mat[0, 0] - 1.0) <= 1e-6

    def test_recovers_independent_reference(self):
        # frozen root-solve value from the scipy/mpmath oracle
        u = DiagonalQuartic([[1.0]])
        a = inverse_map(SpdMatrix([[1.0]]), u, QUAD_TIGHT, tol=1e-12)
        assert a.mat[0, 0] == pytest.approx(oracles.A_OF_UNIT_G, abs=1e-9)

    def test_large_g_goes_indefinite(self):
        u = DiagonalQuartic([[1.0]])
        a = inverse_map(SpdMatrix([[10.0]]), u, QUAD, tol=1e-7)
        assert a.mat[0, 0] < 0.0
        forward = green_of_a(a, u, QUAD)
        assert abs(forward.mat[0, 0] - 10.0) <= 1e-6 * 10.0

    def test_boundary_guard(self):
        with pytest.raises(BoundaryTooClose):
            inverse_map(SpdMatrix([[1e-7]]), ZeroInteraction(1), QUAD)

    def test_no_convergence_carries_best_residual(self):
        u = DiagonalQuartic([[1.0]])
        with pytest.raises(NoConvergence) as excinfo:
            inverse_map(SpdMatrix([[3.0]]), u, QUAD, tol=1e-13, max_iter=1)
        assert excinfo.value.residual is not None
        assert excinfo.value.residual > 0.0
        assert "residual" in str(excinfo.value)

    def test_monte_carlo_mode_statistical_tolerance(self):
        # common random numbers make the noisy forward map Newton-solvable;
        # default tolerance is three standard errors
        u = DiagonalQuartic([[1.0]])
        cfg = OracleConfig(mode="monte_carlo", samples=200_000, seed=21)
        g = green_of_a(SymMatrix([[1.0]]), u, cfg)
        recovered = inverse_map(g, u, cfg)
        assert abs(recovered.mat[0, 0] - 1.0) <= 0.05

    @pytest.mark.parametrize(
        "a0, n",
        [
            (np.array([[0.7]]), 1),
            (np.array([[1.0, 0.3], [0.3, 1.4]]), 2),
            (np.array([[1.0, 0.3], [0.3, -0.2]]), 2),
        ],
    )
    def test_bijection_round_trip(self, a0, n):
        u = DiagonalQuartic(V2[:n, :n])
        g = green_of_a(SymMatrix(a0), u, QUAD)
        recovered = inverse_map(g, u, QUAD, tol=1e-9)
        assert np.abs(recovered.mat - a0).max() <= 1e-6

    def test_second_moment_consistency(self):
        # the defining constraint: moments at A[G] reproduce G
        u = DiagonalQuartic(V2)
        g = SpdMatrix([[0.8, 0.1], [0.1, 1.1]])
        a = inverse_map(g, u, QUAD, tol=1e-9)
        again = green_of_a(a, u, QUAD)
        assert np.linalg.norm(again.mat - g.mat) <= 1e-9

    def test_three_dimensional_round_trip(self):
        # n = 3 stays affordable at a reduced node count
        cfg = OracleConfig(nodes_per_dim=32)
        rng = np.random.default_rng(12)
        a0 = random_spd(3, rng)
        v = rng.uniform(0.2, 1.0, (3, 3))
        u = DiagonalQuartic(0.5 * (v + v.T))
        g = green_of_a(SymMatrix(a0), u, cfg)
        recovered = inverse_map(g, u, cfg, tol=1e-9)
        assert np.abs(recovered.mat - a0).max() <= 1e-6


class TestInitialGuess:
    def test_first_order_guess_at_weak_coupling(self):
        # A[G] = G^-1 + eps Sigma^(1) + O(eps^2): the corrected guess wins its
        # comparison with G^-1, and halving eps quarters its distance to A[G]
        g = SpdMatrix([[0.8, 0.1], [0.1, 0.6]])
        dist = []
        for eps in (0.02, 0.01):
            u = ScaledInteraction(eps, DiagonalQuartic(V2))
            guess = _initial_guess(g, u, QUAD)
            assert np.array_equal(guess, g.inverse() + eps * sigma1(g, SymMatrix(V2)).mat)
            a = inverse_map(g, u, QUAD, tol=1e-12).mat
            dist.append(np.abs(guess - a).max())
            assert dist[-1] <= eps**2
        assert dist[1] / dist[0] == pytest.approx(0.25, abs=0.03)


class TestJacobian:
    """The covariance-based sensitivity against finite differences."""

    @pytest.mark.parametrize(
        "a0, u",
        [
            (np.array([[1.0]]), DiagonalQuartic([[1.0]])),
            (np.array([[1.2, 0.2], [0.2, 0.9]]), DiagonalQuartic(V2)),
        ],
    )
    def test_fourth_moment_sensitivity(self, a0, u):
        n = a0.shape[0]
        cfg = OracleConfig(want_fourth_moments=True)
        rep = evaluate_moments(SymMatrix(a0), u, cfg)
        pair = {}
        for p, (i, j) in enumerate(zip(*np.triu_indices(n))):
            pair[i, j] = pair[j, i] = p
        m4 = np.empty((n, n, n, n))
        for i, j, k, l in itertools.product(range(n), repeat=4):
            m4[i, j, k, l] = rep.pair_moments[pair[i, j], pair[k, l]]
        cov = m4 - np.einsum("ij,kl->ijkl", rep.green.mat, rep.green.mat)
        h = 1e-4
        rng = np.random.default_rng(5)
        d = rng.standard_normal((n, n))
        d = 0.5 * (d + d.T)
        d /= np.linalg.norm(d)
        plus = evaluate_moments(SymMatrix(a0 + h * d), u, QUAD).green.mat
        minus = evaluate_moments(SymMatrix(a0 - h * d), u, QUAD).green.mat
        fd = (plus - minus) / (2.0 * h)
        analytic = -0.5 * np.einsum("ijkl,kl->ij", cov, d)
        assert np.abs(fd - analytic).max() <= 1e-4 * max(1.0, np.abs(analytic).max())


class TestLwEvaluate:
    def test_non_interacting_closed_form(self):
        rng = np.random.default_rng(2)
        g = random_spd(2, rng)
        report = lw_evaluate(SpdMatrix(g), ZeroInteraction(2), QUAD)
        sign, logdet = np.linalg.slogdet(g)
        expected_f = 0.5 * (2.0 * np.log(2.0 * np.pi * np.e) + logdet)
        assert report.universal_f == pytest.approx(expected_f, abs=1e-9)
        assert abs(report.phi) <= 1e-8

    def test_identity_green(self):
        report = lw_evaluate(SpdMatrix(np.eye(2)), ZeroInteraction(2), QUAD)
        assert report.universal_f == pytest.approx(np.log(2.0 * np.pi * np.e), abs=1e-10)
        assert abs(report.phi) <= 1e-10

    def test_quartic_frozen_values(self):
        u = DiagonalQuartic([[1.0]])
        report = lw_evaluate(SpdMatrix([[1.0]]), u, QUAD_TIGHT, tol=1e-12)
        assert report.phi < 0.0
        assert report.phi == pytest.approx(oracles.PHI_AT_UNIT_G, abs=1e-9)
        assert report.universal_f == pytest.approx(oracles.F_AT_UNIT_G, abs=1e-9)
        assert report.a_of_g.mat[0, 0] == pytest.approx(oracles.A_OF_UNIT_G, abs=1e-9)
        assert report.sigma_exact.mat[0, 0] == pytest.approx(
            oracles.SIGMA_AT_UNIT_G, abs=1e-9
        )
        assert report.mean_interaction == pytest.approx(
            oracles.MEAN_U_AT_UNIT_G, abs=1e-9
        )
        assert report.entropy == pytest.approx(oracles.ENTROPY_AT_UNIT_G, abs=1e-9)

    def test_coupled_indefinite_against_entropy_integrals(self):
        """A[G], S, <U> and F at the dblquad G of (A_2D, V_2D) against
        references integrated directly (S = -int rho log rho, F = S - <U>).

        Measured at 192 nodes: A 3.0e-11, S 1.1e-10, <U> 1.1e-10, F 6.1e-12.
        """
        u = DiagonalQuartic(oracles.V_2D)
        report = lw_evaluate(SpdMatrix(oracles.GREEN_QUARTIC_2D), u, QUAD_TIGHT, tol=1e-12)
        assert np.abs(report.a_of_g.mat - np.array(oracles.A_2D)).max() <= 2e-10
        assert report.entropy == pytest.approx(oracles.ENTROPY_QUARTIC_2D, abs=5e-10)
        assert report.mean_interaction == pytest.approx(oracles.MEAN_U_QUARTIC_2D, abs=5e-10)
        assert report.universal_f == pytest.approx(oracles.F_QUARTIC_2D, abs=5e-11)


class TestExactSelfEnergy:
    def test_zero_interaction(self):
        rng = np.random.default_rng(3)
        g = random_spd(2, rng)
        sigma = exact_self_energy(SpdMatrix(g), ZeroInteraction(2), QUAD)
        assert np.linalg.norm(sigma.mat) <= 1e-8

    def test_small_eps_matches_first_diagram(self):
        u = ScaledInteraction(0.01, DiagonalQuartic([[1.0]]))
        sigma = exact_self_energy(SpdMatrix([[1.0]]), u, QUAD_TIGHT, tol=1e-12)
        assert sigma.mat[0, 0] == pytest.approx(oracles.SIGMA_AT_UNIT_G_EPS001, abs=1e-10)
        # first-order form: eps * (-3/2), correct up to O(eps^2)
        assert sigma.mat[0, 0] == pytest.approx(-0.015, abs=3e-4)

    def test_gradient_identity(self):
        u = DiagonalQuartic([[1.0]])
        g0 = 1.0
        sigma = exact_self_energy(SpdMatrix([[g0]]), u, QUAD_TIGHT, tol=1e-12).mat[0, 0]
        h = 1e-4
        phi_p = lw_evaluate(SpdMatrix([[g0 + h]]), u, QUAD_TIGHT, tol=1e-12).phi
        phi_m = lw_evaluate(SpdMatrix([[g0 - h]]), u, QUAD_TIGHT, tol=1e-12).phi
        assert (phi_p - phi_m) / (2 * h) == pytest.approx(sigma, rel=1e-5)


class TestRhoG:
    def test_standard_normal_at_origin(self):
        val = rho_g_logdensity(SpdMatrix([[1.0]]), ZeroInteraction(1), [0.0], QUAD)
        assert val == pytest.approx(-0.5 * np.log(2.0 * np.pi), abs=1e-10)

    def test_standard_normal_off_origin(self):
        val = rho_g_logdensity(SpdMatrix([[1.0]]), ZeroInteraction(1), [1.0], QUAD)
        assert val == pytest.approx(-0.5 - 0.5 * np.log(2.0 * np.pi), abs=1e-10)

    def test_quartic_at_origin(self):
        u = DiagonalQuartic([[1.0]])
        gstar = green_of_a(SymMatrix([[1.0]]), u, QUAD_TIGHT)
        val = rho_g_logdensity(gstar, u, [0.0], QUAD_TIGHT, tol=1e-11)
        assert val == pytest.approx(oracles.OMEGA_QUARTIC_1D, abs=1e-9)

    def test_normalization(self):
        # exp(log rho) integrates to one on a dense grid
        u = DiagonalQuartic([[1.0]])
        g = SpdMatrix([[0.8]])
        xs = np.linspace(-8.0, 8.0, 4001)
        a = inverse_map(g, u, QUAD_TIGHT, tol=1e-11)
        vals = [rho_g_logdensity(g, u, [x], QUAD_TIGHT, tol=1e-11) for x in xs[::400]]
        # spot values against the direct formula, then integrate the formula
        rep = evaluate_moments(a, u, QUAD_TIGHT)
        direct = -0.5 * a.mat[0, 0] * xs**2 - u.evaluate(xs[:, None]) + rep.omega
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        assert trapezoid(np.exp(direct), xs) == pytest.approx(1.0, abs=1e-9)
        for x, v in zip(xs[::400], vals):
            k = np.searchsorted(xs, x)
            assert v == pytest.approx(direct[k], abs=1e-9)
