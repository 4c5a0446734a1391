import numpy as np
import pytest

import oracles
from lwlattice import solver
from lwlattice.diagrams import BoldSeries
from lwlattice.duality import lw_evaluate
from lwlattice.errors import (
    DimensionMismatch,
    DivergentIntegral,
    IterateLeftCone,
    UnsupportedInteraction,
    ValidationError,
)
from lwlattice.interactions import DiagonalQuartic, ScaledInteraction, ZeroInteraction
from lwlattice.matrices import SpdMatrix, SymMatrix
from lwlattice.oracle import OracleConfig, green_of_a, evaluate_moments
from lwlattice.solver import (
    SigmaModel,
    dyson_solve,
    free_energy,
    minimize_free_energy,
)

QUAD = OracleConfig()
BOLD1_ROOT = (np.sqrt(7.0) - 1.0) / 3.0  # g solving 1/g = 1 + (3/2) g
V2 = np.array([[1.0, 0.5], [0.5, 1.0]])
A2 = np.array([[1.1, 0.1], [0.1, 0.9]])
# the base instance of the dyson-exact benchmark workload
A3 = np.array([[1.0, 0.2, 0.1], [0.2, 1.2, 0.2], [0.1, 0.2, 0.9]])
V3 = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]])


def bold_sigma(v, order, scale=1.0):
    """G array -> truncated bold Sigma array, for the damped reference loop."""
    return lambda g: BoldSeries.build(SpdMatrix(g), SymMatrix(v), order).truncated_sigma(scale).mat


class TestDysonSolve:
    def test_gaussian_single_iteration(self):
        a = SymMatrix(np.diag([2.0, 4.0]))
        trace = dyson_solve(a, ZeroInteraction(2), SigmaModel.NONE)
        assert trace.converged
        assert len(trace.iterates) == 1
        assert np.allclose(trace.final_green.mat, np.diag([0.5, 0.25]), atol=1e-12)

    def test_bold1_closed_form(self):
        trace = dyson_solve(
            SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), SigmaModel.BOLD1, tol=1e-12
        )
        assert trace.converged
        assert trace.final_green.mat[0, 0] == pytest.approx(BOLD1_ROOT, abs=1e-10)

    def test_exact_oracle_matches_forward_map(self):
        u = DiagonalQuartic([[1.0]])
        trace = dyson_solve(SymMatrix([[1.0]]), u, SigmaModel.EXACT_ORACLE, tol=1e-8, cfg=QUAD)
        assert trace.converged
        reference = green_of_a(SymMatrix([[1.0]]), u, QUAD)
        assert abs(trace.final_green.mat[0, 0] - reference.mat[0, 0]) <= 1e-6

    def test_non_spd_a_rejected_without_interaction(self):
        with pytest.raises(ValidationError):
            dyson_solve(SymMatrix([[-1.0]]), ZeroInteraction(1), SigmaModel.NONE)

    def test_minimize_rejects_non_spd_a_without_interaction(self):
        # the free energy is unbounded below along the negative direction of A
        a = SymMatrix([[-0.5, 0.1], [0.1, 1.0]])
        with pytest.raises(ValidationError, match="requires A to be SPD"):
            minimize_free_energy(a, ZeroInteraction(2), SigmaModel.NONE)

    def test_bold_requires_diagonal_quartic(self):
        with pytest.raises(UnsupportedInteraction):
            dyson_solve(SymMatrix([[1.0]]), ZeroInteraction(1), SigmaModel.BOLD1)

    def test_non_convergence_reported_not_raised(self):
        trace = dyson_solve(
            SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), SigmaModel.BOLD1,
            tol=1e-12, max_iter=3,
        )
        assert not trace.converged
        assert len(trace.iterates) == 3

    def test_residuals_recorded(self):
        trace = dyson_solve(
            SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), SigmaModel.BOLD1, tol=1e-10
        )
        residuals = [rec.residual for rec in trace.iterates]
        assert residuals[-1] <= 1e-10
        assert residuals[0] > residuals[-1]

    def test_uniqueness_probe(self):
        # Theorem: the Dyson solution is the unique free-energy minimizer
        u = DiagonalQuartic(V2)
        a = SymMatrix([[1.0, 0.2], [0.2, 1.3]])
        tol = 1e-7
        baseline = dyson_solve(a, u, SigmaModel.EXACT_ORACLE, tol=tol, cfg=QUAD)
        assert baseline.converged
        rng = np.random.default_rng(77)
        for _ in range(10):
            q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            g0 = SpdMatrix(q @ np.diag(rng.uniform(0.3, 2.0, 2)) @ q.T)
            trace = dyson_solve(
                a, u, SigmaModel.EXACT_ORACLE, tol=tol, cfg=QUAD, g_init=g0
            )
            assert trace.converged
            assert (
                np.abs(trace.final_green.mat - baseline.final_green.mat).max()
                <= 100 * tol
            )

    def test_cone_exit_raises(self):
        # strong coupling pushes A - Sigma out of the cone immediately:
        # Sigma^(1) is negative, so use a negative coupling with SPD A
        u = DiagonalQuartic([[-40.0]])
        with pytest.raises(IterateLeftCone):
            dyson_solve(SymMatrix([[0.5]]), u, SigmaModel.BOLD1, tol=1e-10)

    def test_damping_floor_raises(self, monkeypatch):
        # after the first iterate A - Sigma[G] is pushed out of the cone, so
        # every retry halves the mixing until it falls below the floor
        model_terms = solver._model_terms
        evaluations = []

        def leaving_terms(*args, **kwargs):
            terms = model_terms(*args, **kwargs)

            def shifted(g):
                evaluations.append(g)
                sigma, phi = terms(g)
                shift = 0.0 if len(evaluations) == 1 else 10.0
                return SymMatrix(sigma.mat + shift * np.eye(g.n)), phi

            return shifted

        monkeypatch.setattr(solver, "_model_terms", leaving_terms)
        with pytest.raises(IterateLeftCone, match="damping floor"):
            dyson_solve(SymMatrix(A2), DiagonalQuartic(V2), SigmaModel.BOLD1)
        # one accepted iterate, then mixing 1/4, 1/8, ..., 1/64 and 1/128 < DAMPING_FLOOR
        assert len(evaluations) == 1 + 6


class TestAndersonMixing:
    """dyson_solve against the plain damped fixed point of tests/oracles.py."""

    @pytest.mark.parametrize(
        "model, u, sigma_of",
        [
            (SigmaModel.NONE, ZeroInteraction(2), lambda g: np.zeros_like(g)),
            (SigmaModel.BOLD1, ScaledInteraction(0.5, DiagonalQuartic(V2)), bold_sigma(V2, 1, 0.5)),
            (
                SigmaModel.BOLD12,
                ScaledInteraction(0.5, DiagonalQuartic(V2)),
                bold_sigma(V2, 2, 0.5),
            ),
        ],
        ids=["none", "bold1", "bold12"],
    )
    def test_agrees_with_damped_iteration(self, model, u, sigma_of):
        trace = dyson_solve(SymMatrix(A2), u, model, tol=1e-10)
        assert trace.converged
        reference, steps = oracles.damped_dyson(A2, sigma_of, np.linalg.inv(A2), tol=1e-10)
        assert np.abs(trace.final_green.mat - reference).max() <= 1e-8
        assert len(trace.iterates) <= steps

    def test_exact_model_in_half_the_outer_steps(self):
        cfg = OracleConfig(nodes_per_dim=32)
        u = DiagonalQuartic(V3)
        trace = dyson_solve(SymMatrix(A3), u, SigmaModel.EXACT_ORACLE, cfg=cfg)
        assert trace.converged
        reference, steps = oracles.damped_dyson(
            A3,
            lambda g: lw_evaluate(SpdMatrix(g), u, cfg, tol=1e-10).sigma_exact.mat,
            np.linalg.inv(A3),
            tol=1e-8,
        )
        assert np.abs(trace.final_green.mat - reference).max() <= 1e-8
        assert steps == 25
        assert len(trace.iterates) <= 13

    def test_cone_exits_clear_the_history_and_the_run_recovers(self, monkeypatch):
        # from a large start, A - Sigma[G] leaves the cone at the third
        # iterate and a later Anderson mix is not SPD; both are retaken as
        # shorter damped steps, and the run still reaches the damped solution
        a, v, g0 = [[1.733]], [[-0.279]], [[3.099]]
        cone_margins, mixes = [], []
        model_terms = solver._model_terms
        anderson_mix = solver._anderson_mix

        def logged_terms(*args, **kwargs):
            terms = model_terms(*args, **kwargs)

            def logged_sigma(g):
                sigma, phi = terms(g)
                cone_margins.append(np.linalg.eigvalsh(np.asarray(a) - sigma.mat).min())
                return sigma, phi

            return logged_sigma

        def logged_mix(history, alpha):
            mixed = anderson_mix(history, alpha)
            mixes.append(np.linalg.eigvalsh(mixed).min())
            return mixed

        monkeypatch.setattr(solver, "_model_terms", logged_terms)
        monkeypatch.setattr(solver, "_anderson_mix", logged_mix)
        trace = dyson_solve(
            SymMatrix(a), DiagonalQuartic(v), SigmaModel.BOLD1, tol=1e-10, g_init=SpdMatrix(g0)
        )
        assert trace.converged
        assert cone_margins[0] > 0.0 and min(cone_margins) < 0.0
        assert min(mixes) < 0.0
        # every cone exit costs an evaluation but no iterate record
        assert len(cone_margins) == len(trace.iterates) + sum(m <= 0.0 for m in cone_margins)
        reference, _ = oracles.damped_dyson(a, bold_sigma(v, 1), g0, tol=1e-10)
        assert np.abs(trace.final_green.mat - reference).max() <= 1e-8


class TestFreeEnergy:
    def test_gaussian_minimum_value(self):
        value = free_energy(
            SymMatrix([[1.0]]), SpdMatrix([[1.0]]), ZeroInteraction(1), SigmaModel.NONE, QUAD
        )
        assert value == pytest.approx(-0.5 * np.log(2.0 * np.pi), abs=1e-12)

    def test_off_minimum_exceeds_minimum(self):
        at_min = free_energy(
            SymMatrix([[1.0]]), SpdMatrix([[1.0]]), ZeroInteraction(1), SigmaModel.NONE, QUAD
        )
        off = free_energy(
            SymMatrix([[1.0]]), SpdMatrix([[2.0]]), ZeroInteraction(1), SigmaModel.NONE, QUAD
        )
        assert off == pytest.approx(0.5 * (2.0 - np.log(2.0) - np.log(2 * np.pi * np.e)), abs=1e-12)
        assert off > at_min

    def test_exact_oracle_equals_omega_at_optimum(self):
        u = DiagonalQuartic([[1.0]])
        a = SymMatrix([[1.0]])
        g = green_of_a(a, u, QUAD)
        value = free_energy(a, g, u, SigmaModel.EXACT_ORACLE, QUAD)
        omega = evaluate_moments(a, u, QUAD).omega
        assert value == pytest.approx(omega, abs=1e-6)

    def test_exact_oracle_is_upper_bound_off_optimum(self):
        # minimum principle: any trial G gives a free energy above Omega[A]
        u = DiagonalQuartic([[1.0]])
        a = SymMatrix([[1.0]])
        omega = evaluate_moments(a, u, QUAD).omega
        for g_trial in (0.3, 0.58, 1.2, 2.5):
            value = free_energy(a, SpdMatrix([[g_trial]]), u, SigmaModel.EXACT_ORACLE, QUAD)
            assert value >= omega - 1e-8


class TestSolverControls:
    @pytest.mark.parametrize("solve", [dyson_solve, minimize_free_energy])
    @pytest.mark.parametrize(
        "controls", [{"tol": -1.0}, {"tol": float("nan")}, {"max_iter": -1}, {"max_iter": 2.5}]
    )
    def test_rejected_before_the_first_iterate(self, monkeypatch, solve, controls):
        def no_iterate(g):
            raise AssertionError("an iterate was evaluated")

        monkeypatch.setattr(solver, "_model_terms", lambda *args, **kwargs: no_iterate)
        with pytest.raises(ValidationError, match="tol must|max_iter must"):
            solve(SymMatrix(A2), DiagonalQuartic(V2), SigmaModel.EXACT_ORACLE, **controls)

    @pytest.mark.parametrize("solve", [dyson_solve, minimize_free_energy])
    def test_none_keeps_the_default_tolerance(self, solve):
        u = DiagonalQuartic(V2)
        assert solve(A2, u, SigmaModel.BOLD1, tol=None) == solve(A2, u, SigmaModel.BOLD1)

    @pytest.mark.parametrize("damping", ["0.5", True])
    def test_damping_must_be_a_number(self, damping):
        # "0.5" raised a TypeError from the range check, True was taken as 1
        with pytest.raises(ValidationError, match="damping must"):
            dyson_solve(SymMatrix(A2), DiagonalQuartic(V2), SigmaModel.BOLD1, damping=damping)

    @pytest.mark.parametrize("solve", [dyson_solve, minimize_free_energy])
    def test_model_must_be_a_sigma_model(self, solve):
        with pytest.raises(ValidationError, match="SigmaModel"):
            solve(SymMatrix(A2), DiagonalQuartic(V2), "bold1")

    def test_free_energy_dimensions_checked(self):
        with pytest.raises(DimensionMismatch):
            free_energy(
                SymMatrix(np.eye(2)), SpdMatrix(np.eye(3)), ZeroInteraction(3), SigmaModel.NONE
            )


class TestDimensionChecks:
    """U and g_init are checked against A before the model is built."""

    @pytest.mark.parametrize("model", list(SigmaModel))
    def test_dyson_rejects_g_init_of_another_dimension(self, model):
        with pytest.raises(DimensionMismatch, match="A has dimension 2, G has 3"):
            dyson_solve(SymMatrix(A2), DiagonalQuartic(V2), model, g_init=SpdMatrix(np.eye(3)))

    @pytest.mark.parametrize("model", list(SigmaModel))
    @pytest.mark.parametrize("solve", [dyson_solve, minimize_free_energy])
    def test_solvers_reject_u_of_another_dimension(self, solve, model):
        # without a self-energy nothing else reads U, so only this check can catch it
        with pytest.raises(DimensionMismatch, match="A has dimension 2, U has 3"):
            solve(SymMatrix(A2), DiagonalQuartic(V3), model)

    @pytest.mark.parametrize("model", list(SigmaModel))
    def test_free_energy_rejects_u_of_another_dimension(self, model):
        with pytest.raises(DimensionMismatch, match="A has dimension 2, U has 3"):
            free_energy(SymMatrix(A2), SpdMatrix(A2), DiagonalQuartic(V3), model)

    @pytest.mark.parametrize(
        "solve, u, kwargs",
        [
            (dyson_solve, V3, {}),
            (minimize_free_energy, V3, {}),
            (dyson_solve, V2, {"g_init": SpdMatrix(np.eye(3))}),
        ],
        ids=["dyson-U", "minimize-U", "dyson-g_init"],
    )
    def test_checked_before_the_model_is_built(self, monkeypatch, solve, u, kwargs):
        def no_model(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(solver, "_model_terms", no_model)
        with pytest.raises(DimensionMismatch):
            solve(SymMatrix(A2), DiagonalQuartic(u), SigmaModel.EXACT_ORACLE, **kwargs)


class TestMinimize:
    def test_gaussian(self):
        trace = minimize_free_energy(
            SymMatrix(np.eye(2)), ZeroInteraction(2), SigmaModel.NONE, QUAD, tol=1e-10
        )
        assert trace.converged
        assert np.abs(trace.final_green.mat - np.eye(2)).max() <= 1e-9

    def test_bold1_matches_dyson(self):
        trace = minimize_free_energy(
            SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), SigmaModel.BOLD1, QUAD, tol=1e-10
        )
        assert trace.converged
        assert trace.final_green.mat[0, 0] == pytest.approx(BOLD1_ROOT, abs=1e-9)

    def test_exact_oracle_matches_forward_map(self):
        u = DiagonalQuartic([[1.0]])
        trace = minimize_free_energy(
            SymMatrix([[1.0]]), u, SigmaModel.EXACT_ORACLE, QUAD, tol=1e-6
        )
        assert trace.converged
        reference = green_of_a(SymMatrix([[1.0]]), u, QUAD)
        assert abs(trace.final_green.mat[0, 0] - reference.mat[0, 0]) <= 1e-5

    def test_exact_oracle_indefinite_a(self):
        # the variational principle covers indefinite A once the quartic
        # confines the measure; starts from the repaired inverse
        u = DiagonalQuartic([[1.0]])
        a = SymMatrix([[-0.3]])
        trace = minimize_free_energy(a, u, SigmaModel.EXACT_ORACLE, QUAD, tol=1e-6)
        assert trace.converged
        reference = green_of_a(a, u, QUAD)
        assert abs(trace.final_green.mat[0, 0] - reference.mat[0, 0]) <= 1e-5

    def test_monotone_descent(self):
        trace = minimize_free_energy(
            SymMatrix([[1.0, 0.2], [0.2, 1.4]]),
            ScaledInteraction(0.4, DiagonalQuartic(V2)),
            SigmaModel.BOLD12,
            QUAD,
            tol=1e-9,
        )
        values = [rec.free_energy for rec in trace.iterates]
        assert all(values[k + 1] <= values[k] + 1e-12 for k in range(len(values) - 1))

    def test_unbounded_truncated_objective_fails_cleanly(self):
        # at full coupling the second-order truncated free energy is
        # unbounded below; the run must stop and report, never overflow
        a = SymMatrix([[1.0, 0.25], [0.25, 0.8]])
        u = DiagonalQuartic(V2)
        trace = minimize_free_energy(a, u, SigmaModel.BOLD12, QUAD, tol=1e-9, max_iter=40)
        assert not trace.converged
        assert all(np.isfinite(rec.free_energy) for rec in trace.iterates)
        with pytest.raises(IterateLeftCone):
            dyson_solve(a, u, SigmaModel.BOLD12, tol=1e-9, cfg=QUAD)

    def test_stationarity_matches_dyson_residual(self):
        u = ScaledInteraction(0.3, DiagonalQuartic(V2))
        a = SymMatrix([[1.1, 0.1], [0.1, 0.9]])
        tol = 1e-9
        trace = minimize_free_energy(a, u, SigmaModel.BOLD12, QUAD, tol=tol)
        assert trace.converged
        dyson = dyson_solve(a, u, SigmaModel.BOLD12, tol=tol, cfg=QUAD)
        assert np.abs(trace.final_green.mat - dyson.final_green.mat).max() <= 10 * tol


class TestTrialRejections:
    """minimize_free_energy's trial point (solver._trial) rejects a step instead of failing the run."""

    LOW = np.array([[1.0, 0.0], [0.3, 0.8]])

    @staticmethod
    def model(phi):
        return lambda g: (SymMatrix(np.zeros((g.n, g.n))), phi)

    @pytest.mark.parametrize("diagonal", [[1.0, 0.0], [-0.5, 0.8]], ids=["zero", "negative"])
    def test_a_factor_with_a_nonpositive_diagonal_is_rejected_before_the_model(self, diagonal):
        def no_model(g):
            raise AssertionError("the model was evaluated")

        low = np.array([[diagonal[0], 0.0], [0.3, diagonal[1]]])
        assert solver._trial(A2, no_model, low) is None

    @pytest.mark.parametrize("phi", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_free_energy_is_rejected(self, phi):
        assert solver._trial(A2, self.model(phi), self.LOW) is None
        # the same factor under a finite Phi is a trial point
        low, green, _, _, fe = solver._trial(A2, self.model(0.0), self.LOW)
        assert np.array_equal(green.mat, self.LOW @ self.LOW.T) and np.isfinite(fe)


class TestMonteCarloMode:
    def test_exact_oracle_under_sampling_noise(self):
        # common random numbers keep the noisy fixed point solvable; the
        # answer is only good to the statistical tolerance
        u = DiagonalQuartic([[1.0]])
        cfg = OracleConfig(mode="monte_carlo", samples=200_000, seed=31)
        trace = dyson_solve(SymMatrix([[1.0]]), u, SigmaModel.EXACT_ORACLE, tol=5e-3, cfg=cfg)
        assert trace.converged
        reference = green_of_a(SymMatrix([[1.0]]), u, QUAD)
        assert abs(trace.final_green.mat[0, 0] - reference.mat[0, 0]) <= 0.02


class TestModelConsistency:
    @pytest.mark.parametrize("model", [SigmaModel.BOLD1, SigmaModel.BOLD12, SigmaModel.EXACT_ORACLE])
    def test_small_coupling_limit(self, model):
        # all models collapse onto A^-1 as the interaction is switched off
        a = SymMatrix([[1.2, 0.2], [0.2, 0.9]])
        deviations = []
        for eps in (0.1, 0.01):
            u = ScaledInteraction(eps, DiagonalQuartic(V2))
            trace = dyson_solve(a, u, model, tol=1e-9, cfg=QUAD)
            assert trace.converged
            deviations.append(
                np.abs(trace.final_green.mat - np.linalg.inv(a.mat)).max()
            )
        assert deviations[1] < deviations[0]
        assert deviations[1] <= 0.05


class TestFrozenExactModel:
    """The exact model in quadrature solves every iterate on the points of one
    evaluation at the given A (oracle.PointSet): on that fixed set log Z is
    exactly convex and Sigma = dPhi/dG holds to the inner tolerance, so both
    solvers reach the forward G of that rule at A."""

    def test_minimize_converges_on_the_dyson_exact_inputs(self):
        # when each iterate placed its own rule, the run stopped unconverged
        # after 200 iterations; measured 20 iterations, 6.7e-10 from the forward G
        cfg = OracleConfig(nodes_per_dim=32)
        u = DiagonalQuartic(V3)
        trace = minimize_free_energy(SymMatrix(A3), u, SigmaModel.EXACT_ORACLE, cfg, tol=1e-8)
        assert trace.converged
        assert len(trace.iterates) <= 40
        reference = green_of_a(SymMatrix(A3), u, cfg).mat
        assert np.abs(trace.final_green.mat - reference).max() <= 1e-8

    @pytest.mark.parametrize("solve", [dyson_solve, minimize_free_energy])
    @pytest.mark.parametrize("a_site", [1.0, -0.5], ids=["spd", "indefinite"])
    def test_n4_rings_reach_the_forward_green(self, solve, a_site):
        # measured: within 8.8e-8 of the forward G; against the transfer
        # matrices as far off as the forward G is (3.2e-5 and 1.2e-3 at 24 nodes)
        a, v = oracles.ring_matrices(4, a_site, -0.3, 1.0, 0.2)
        a, u, cfg = SymMatrix(a), DiagonalQuartic(v), OracleConfig(nodes_per_dim=24)
        trace = solve(a, u, SigmaModel.EXACT_ORACLE, cfg=cfg, tol=1e-7)
        assert trace.converged
        forward = green_of_a(a, u, cfg).mat
        ring = oracles.ring_moments(a.mat, v)[1]
        assert np.abs(trace.final_green.mat - forward).max() <= 1e-6
        quadrature_error = np.abs(forward - ring).max()
        assert np.abs(trace.final_green.mat - ring).max() <= quadrature_error + 1e-6

    @pytest.mark.parametrize("solve", [dyson_solve, minimize_free_energy])
    def test_divergent_integral_at_a_raised_before_any_iterate(self, monkeypatch, solve):
        # A is not SPD and v is not copositive: the integral at A itself may
        # diverge, so the evaluation that keeps the points refuses it
        def no_iterate(*args):
            raise AssertionError("an iterate was evaluated")

        monkeypatch.setattr(solver, "lw_evaluate_on", no_iterate)
        a = SymMatrix([[-0.2, 0.1], [0.1, 0.5]])
        u = DiagonalQuartic([[1.0, -1.2], [-1.2, 1.0]])
        with pytest.raises(DivergentIntegral, match="may diverge"):
            solve(a, u, SigmaModel.EXACT_ORACLE)
