import itertools
from dataclasses import replace

import numpy as np
import pytest

import oracles
from lwlattice import duality
from lwlattice.diagrams import sigma1
from lwlattice.duality import (
    MAX_STEP_HALVINGS,
    _newton_step,
    _start,
    exact_self_energy,
    inverse_map,
    lw_evaluate,
    rho_g_logdensity,
)
from lwlattice.errors import (
    BoundaryTooClose,
    DimensionMismatch,
    DivergentIntegral,
    LwlatticeError,
    NoConvergence,
    NonFinite,
    ValidationError,
)
from lwlattice.interactions import (
    DiagonalQuartic,
    Growth,
    ScaledInteraction,
    ZeroInteraction,
    pair_basis,
    validate_growth,
)
from lwlattice.matrices import SpdMatrix, SymMatrix
from lwlattice.oracle import MomentReport, OracleConfig, evaluate_moments, green_of_a

QUAD = OracleConfig()
QUAD_TIGHT = OracleConfig(nodes_per_dim=192)
QUAD_32 = OracleConfig(nodes_per_dim=32)
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


def no_oracle(*args, **kwargs):
    raise AssertionError("the oracle was called")


class TestSolverControls:
    """Controls no solve can honour are rejected before the first oracle call."""

    G2 = SpdMatrix([[1.0, 0.2], [0.2, 0.8]])

    @pytest.mark.parametrize(
        "controls",
        [
            {"tol": -1.0},
            {"tol": 0.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": True},
            {"tol": "1e-8"},
            {"max_iter": -1},
            {"max_iter": 2.5},
            {"max_iter": True},
        ],
    )
    def test_rejected_before_the_solve(self, monkeypatch, controls):
        monkeypatch.setattr(duality, "evaluate_moments", no_oracle)
        u = DiagonalQuartic(V2)
        for entry in (inverse_map, lw_evaluate, exact_self_energy):
            with pytest.raises(ValidationError, match="tol must|max_iter must"):
                entry(self.G2, u, QUAD, **controls)
        with pytest.raises(ValidationError, match="tol must|max_iter must"):
            rho_g_logdensity(self.G2, u, [0.0, 0.0], QUAD, **controls)

    def test_a_init_coerced_like_every_matrix(self):
        u = DiagonalQuartic(V2)
        report = lw_evaluate(self.G2, u, QUAD, a_init=[[1, 0], [0, 1]])
        assert report == lw_evaluate(self.G2, u, QUAD, a_init=SymMatrix(np.eye(2)))

    def test_a_init_dimension_checked(self, monkeypatch):
        monkeypatch.setattr(duality, "evaluate_moments", no_oracle)
        with pytest.raises(DimensionMismatch):
            lw_evaluate(self.G2, DiagonalQuartic(V2), QUAD, a_init=np.eye(3))

    def test_dimension_mismatch_before_the_solve(self, monkeypatch):
        monkeypatch.setattr(duality, "evaluate_moments", no_oracle)
        u = DiagonalQuartic(np.eye(3))
        message = "G has dimension 2, interaction has 3"
        for entry in (inverse_map, lw_evaluate, exact_self_energy):
            with pytest.raises(DimensionMismatch, match=message):
                entry(self.G2, u, QUAD)
        with pytest.raises(DimensionMismatch, match=message):
            rho_g_logdensity(self.G2, u, [0.0, 0.0], QUAD)

    def test_converges_at_exactly_its_budget(self):
        u = DiagonalQuartic(V2)
        free = lw_evaluate(self.G2, u, QUAD)
        assert free.solver_iterations >= 1
        assert lw_evaluate(self.G2, u, QUAD, max_iter=free.solver_iterations) == free
        with pytest.raises(NoConvergence):
            lw_evaluate(self.G2, u, QUAD, max_iter=free.solver_iterations - 1)


class TestInitialGuess:
    def test_first_order_guess_at_weak_coupling(self):
        # A[G] = G^-1 + eps Sigma^(1) + O(eps^2): the corrected guess wins its
        # comparison with G^-1, and halving eps quarters its distance to A[G]
        g = SpdMatrix([[0.8, 0.1], [0.1, 0.6]])
        dist = []
        for eps in (0.02, 0.01):
            u = ScaledInteraction(eps, DiagonalQuartic(V2))
            guess = _start(g, u, replace(QUAD, want_fourth_moments=True), None, None)[0]
            assert np.array_equal(guess, g.inverse() + eps * sigma1(g, SymMatrix(V2)).mat)
            a = inverse_map(g, u, QUAD, tol=1e-12).mat
            dist.append(np.abs(guess - a).max())
            assert dist[-1] <= eps**2
        assert dist[1] / dist[0] == pytest.approx(0.25, abs=0.03)


def logged_oracle(monkeypatch, g):
    """Replace duality's oracle by a pass-through that logs, per call, A, whether
    pair moments were asked for, and the residual |G[A] - g| or the error class."""
    calls = []

    def spy(a, u, cfg):
        entry = {"a": a.mat.copy(), "pairs": cfg.want_fourth_moments, "outcome": None}
        calls.append(entry)
        try:
            report = evaluate_moments(a, u, cfg)
        except LwlatticeError as exc:
            entry["outcome"] = type(exc)
            raise
        entry["outcome"] = float(np.linalg.norm(report.green.mat - g))
        return report

    monkeypatch.setattr(duality, "evaluate_moments", spy)
    return calls


class TestNewtonEvaluations:
    """What the solve asks of the oracle, logged from outside."""

    def test_one_evaluation_per_newton_point(self, monkeypatch):
        # strong enough coupling that the line search rejects full steps
        g = np.array([[3.0, 0.9], [0.9, 2.1]])
        calls = logged_oracle(monkeypatch, g)
        rep = lw_evaluate(SpdMatrix(g), DiagonalQuartic(V2), QUAD)
        # the start comparison: two G-only probes, the loser thrown away
        assert [c["pairs"] for c in calls[:2]] == [False, False]
        newton = calls[2:]
        assert all(c["pairs"] for c in newton)
        for prev, cur in zip(newton, newton[1:]):
            assert not np.array_equal(prev["a"], cur["a"])
        # replay the line search: a trial is accepted when it lowers the
        # residual of the current point, and every accepted trial is one step
        current = newton[0]["outcome"]
        accepted = rejected = 0
        for c in newton[1:]:
            if isinstance(c["outcome"], float) and c["outcome"] < current:
                accepted += 1
                current = c["outcome"]
            else:
                rejected += 1
        assert accepted == rep.solver_iterations
        assert rejected >= 1
        assert len(newton) == 1 + accepted + rejected
        assert current == rep.residual

    def test_unverified_coupling_survives_divergent_points(self, monkeypatch):
        # v is positive definite, so U confines, but v_12 < 0 keeps the
        # entrywise growth test from certifying it: the oracle then refuses
        # every A that is not positive definite as a divergent integral, and
        # the corrected start and the first full Newton step are such points
        u = DiagonalQuartic([[1.0, -0.6], [-0.6, 1.0]])
        assert validate_growth(u).kind is Growth.UNVERIFIED
        g = np.array([[1.0, 0.1], [0.1, 1.0]])
        calls = logged_oracle(monkeypatch, g)
        rep = lw_evaluate(SpdMatrix(g), u, QUAD)
        # corrected start probe diverges, so the start falls back to G^-1
        assert calls[0]["outcome"] is DivergentIntegral
        assert np.array_equal(calls[1]["a"], SpdMatrix(g).inverse())
        # the first trial diverges and is rejected, not fatal
        assert calls[2]["outcome"] is DivergentIntegral
        assert rep.solver_iterations == 8
        assert np.linalg.eigvalsh(rep.a_of_g.mat).min() == pytest.approx(0.1998, abs=1e-4)
        forward = evaluate_moments(rep.a_of_g, u, QUAD).green.mat
        assert np.abs(forward - g).max() <= 1e-8


class TestStartRule:
    """A start candidate within tol is the answer, at the cost of one G-only call."""

    def test_bold_start_inside_the_noise_is_one_g_only_call(self, monkeypatch):
        # the inverse_map of the invert-mc benchmark, unjittered
        g = SpdMatrix(0.6 * np.eye(6) + 0.1 * (np.eye(6, k=1) + np.eye(6, k=-1)))
        v = SymMatrix(0.3 * np.ones((6, 6)) + 0.7 * np.eye(6))
        u = ScaledInteraction(0.2, DiagonalQuartic(v))
        cfg = OracleConfig(mode="monte_carlo", samples=200_000, seed=1)
        calls = logged_oracle(monkeypatch, g.mat)
        a = inverse_map(g, u, cfg)
        assert [c["pairs"] for c in calls] == [False]
        assert np.array_equal(a.mat, g.inverse() + 0.2 * sigma1(g, v).mat)
        report = evaluate_moments(a, u, cfg)
        residual = np.linalg.norm(report.green.mat - g.mat)
        assert residual <= 3.0 * np.linalg.norm(report.std_errors.green)

    def test_lw_evaluate_at_its_start_reads_the_g_only_report(self, monkeypatch):
        g = SpdMatrix([[0.8, 0.1], [0.1, 0.6]])
        u = ScaledInteraction(0.05, DiagonalQuartic(V2))
        calls = logged_oracle(monkeypatch, g.mat)
        rep = lw_evaluate(g, u, QUAD, tol=1e-2)
        assert [c["pairs"] for c in calls] == [False]
        assert rep.solver_iterations == 0
        assert np.array_equal(rep.a_of_g.mat, g.inverse() + 0.05 * sigma1(g, SymMatrix(V2)).mat)
        again = evaluate_moments(rep.a_of_g, u, replace(QUAD, want_fourth_moments=True))
        a, omega = rep.a_of_g.mat, again.omega
        f = 0.5 * np.trace(a @ g.mat) - omega
        assert rep.phi == pytest.approx(2.0 * f - np.linalg.slogdet(g.mat)[1] - rep.phi0, abs=1e-13)
        entropy = 0.5 * np.trace(a @ again.green.mat) + again.mean_interaction - omega
        assert rep.entropy == pytest.approx(entropy, abs=1e-13)
        assert rep.mean_interaction == pytest.approx(again.mean_interaction, abs=1e-15)

    def test_raising_candidate_falls_through_to_g_inverse(self, monkeypatch):
        # the coupling of test_unverified_coupling_survives_divergent_points:
        # the oracle refuses the indefinite corrected start
        u = DiagonalQuartic([[1.0, -0.6], [-0.6, 1.0]])
        g = SpdMatrix([[1.0, 0.1], [0.1, 1.0]])
        calls = logged_oracle(monkeypatch, g.mat)
        a = inverse_map(g, u, QUAD, tol=0.6)
        assert calls[0]["outcome"] is DivergentIntegral
        # G^-1 has no rival left: one evaluation, with pair moments, and it is within tol
        assert len(calls) == 2 and calls[1]["pairs"]
        assert calls[1]["outcome"] <= 0.6
        assert np.array_equal(a.mat, g.inverse())


class TestStalledLineSearch:
    """A line search stops halving once a trial cannot move G measurably."""

    @pytest.mark.parametrize(
        "g, v, cfg, tol",
        [
            # quadrature: a tolerance below roundoff in G
            (np.array([[0.8, 0.1], [0.1, 1.1]]), V2, QUAD, 1e-17),
            # Monte Carlo: strong coupling at few samples, a noisy Jacobian
            (
                6.0 * (0.6 * np.eye(4) + 0.1 * (np.eye(4, k=1) + np.eye(4, k=-1))),
                np.eye(4),
                OracleConfig(mode="monte_carlo", samples=640, seed=5),
                None,
            ),
        ],
        ids=["quadrature", "monte_carlo"],
    )
    def test_last_line_search_is_cut_short(self, monkeypatch, g, v, cfg, tol):
        calls = logged_oracle(monkeypatch, g)
        with pytest.raises(NoConvergence) as excinfo:
            inverse_map(SpdMatrix(g), DiagonalQuartic(v), cfg, tol=tol)
        newton = [c for c in calls if c["pairs"]]
        current, last_search = newton[0]["outcome"], 0
        for c in newton[1:]:
            if isinstance(c["outcome"], float) and c["outcome"] < current:
                current, last_search = c["outcome"], 0
            else:
                last_search += 1
        assert 1 <= last_search < MAX_STEP_HALVINGS
        assert excinfo.value.residual == current


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


class TestNewtonStep:
    def test_zero_covariance_raises_with_the_residual(self):
        # a pair block equal to the outer product of G's pairs has no covariance
        g = np.array([[1.0, 0.2], [0.2, 0.5]])
        rows, cols, _ = pair_basis(2)
        pairs = g[rows, cols]
        report = MomentReport(0.0, SpdMatrix(g), 0.0, pair_moments=np.outer(pairs, pairs))
        with pytest.raises(NoConvergence, match="singular moment-sensitivity Jacobian") as excinfo:
            _newton_step(report, g + np.diag([0.3, 0.4]))
        assert excinfo.value.residual == pytest.approx(0.5)


class TestSecondOrderIdentity:
    """dA/dG two ways: finite differences of the duality solve, and the inverse
    of the oracle's pair-covariance Jacobian dG/dA at A[G]. dF/dG = A[G]/2, so
    this is twice the Hessian of F.

    Measured at 192 nodes and h = 1e-4: at most 1.3e-8 over both points and
    three directions each (2e-4 at 64 nodes, where the derivative of the
    quadrature error itself shows).
    """

    @pytest.mark.parametrize(
        "g", [np.array([[0.8, 0.1], [0.1, 1.1]]), np.array([[3.0, 0.9], [0.9, 2.1]])]
    )
    def test_finite_differences_match_inverse_jacobian(self, g):
        u = DiagonalQuartic(V2)
        centre = lw_evaluate(SpdMatrix(g), u, QUAD_TIGHT, tol=1e-12).a_of_g
        moments = evaluate_moments(
            centre, u, OracleConfig(nodes_per_dim=192, want_fourth_moments=True)
        )
        h = 1e-4
        rng = np.random.default_rng(7)
        for _ in range(3):
            d = rng.standard_normal((2, 2))
            d = 0.5 * (d + d.T)
            d /= np.linalg.norm(d)
            plus, minus = [
                lw_evaluate(SpdMatrix(g + s * h * d), u, QUAD_TIGHT, tol=1e-12, a_init=centre)
                .a_of_g.mat
                for s in (1.0, -1.0)
            ]
            # the Newton step towards green + d solves (dG/dA) dA = d
            analytic = _newton_step(moments, moments.green.mat + d)
            assert np.abs((plus - minus) / (2.0 * h) - analytic).max() <= 5e-8


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

    @pytest.mark.parametrize("x", [[0.1, 0.2, 0.3], [[0.1, 0.2]], 0.5])
    def test_malformed_point_rejected_before_solve(self, monkeypatch, x):
        calls = logged_oracle(monkeypatch, np.eye(2))
        with pytest.raises(DimensionMismatch):
            rho_g_logdensity(SpdMatrix(np.eye(2)), DiagonalQuartic(V2), x, QUAD)
        assert calls == []

    @pytest.mark.parametrize("x", [[np.nan], [np.inf], [-np.inf]])
    def test_non_finite_point_rejected_before_solve(self, monkeypatch, x):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle was called")

        monkeypatch.setattr(duality, "evaluate_moments", no_oracle)
        with pytest.raises(ValidationError, match="x must be finite"):
            rho_g_logdensity(SpdMatrix([[0.5]]), DiagonalQuartic([[1.0]]), x, QUAD)

    @pytest.mark.parametrize("x", [1e100, 1e155], ids=["U-overflows", "quadratic-overflows"])
    def test_far_point_raises_non_finite(self, x):
        # U(x) = x^4 / 8 overflows at 1e100; x'Ax overflows at 1e155
        with pytest.raises(NonFinite, match="x = "):
            rho_g_logdensity(SpdMatrix([[0.5]]), DiagonalQuartic([[1.0]]), [x], QUAD_32)

    def test_distant_finite_point_keeps_its_value(self):
        # -U(x) = -1e200 / 8 dominates; x'Ax and Omega are below its resolution
        val = rho_g_logdensity(SpdMatrix([[0.5]]), DiagonalQuartic([[1.0]]), [1e50], QUAD_32)
        assert val == pytest.approx(-1.25e199, rel=1e-14)

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
