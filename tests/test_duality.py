import itertools
from dataclasses import replace

import numpy as np
import pytest

import oracles
from lwlattice import duality, oracle
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
    compose,
    materialize,
    pair_basis,
    validate_growth,
)
from lwlattice.matrices import LinearMap, SpdMatrix, SymMatrix
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

    V3 = [[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]]
    G3 = [[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]]

    @pytest.mark.parametrize(
        "g, u, cfg, a_init, expected",
        [
            # two candidates, compared G-only; neither is within tol
            ([[3.0, 0.9], [0.9, 2.1]], DiagonalQuartic(V2), QUAD, None, [("fresh", False)] * 2),
            # a lone candidate that keeps no points is not evaluated at all:
            # a_init, or G^-1 for an interaction that is no diagonal quartic
            ([[3.0, 0.9], [0.9, 2.1]], DiagonalQuartic(V2), QUAD, np.eye(2), []),
            (
                G3,
                materialize(compose(DiagonalQuartic(V3), LinearMap(np.eye(3) + np.eye(3, k=1)))),
                OracleConfig(mode="monte_carlo", samples=6400, seed=4),
                None,
                [],
            ),
            # both candidates keep their points; none is stepped on here
            (G3, DiagonalQuartic(V3), QUAD, None, [("kept", False)] * 2),
        ],
        ids=["two-candidates", "a-init", "lone-monte-carlo", "kept-points"],
    )
    def test_the_start_asks_only_for_g(self, monkeypatch, g, u, cfg, a_init, expected):
        calls = spied_grids(monkeypatch)
        stored = oracle.PointSet.moments

        def spy_stored(points, a):
            calls.append(("stored", points.cfg.want_fourth_moments))
            return stored(points, a)

        monkeypatch.setattr(oracle.PointSet, "moments", spy_stored)
        a_init = None if a_init is None else SymMatrix(a_init)
        start = _start(SpdMatrix(g), u, replace(cfg, want_fourth_moments=True), None, a_init)
        assert calls == expected
        a, answer, _ = start
        assert answer is None
        if a_init is not None:
            assert np.array_equal(a, a_init.mat)

    def test_a_lone_candidate_that_keeps_points_raises_what_its_evaluation_raises(self, monkeypatch):
        # -I is not positive definite and v_12 < 0 leaves the growth
        # unverified, so the lone candidate's evaluation, which keeps its
        # points, refuses it; no candidate is left to fall back on
        u = DiagonalQuartic([[1.0, -0.6, 0.0], [-0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert oracle.keeps_points(u, QUAD)
        calls = spied_grids(monkeypatch)
        with pytest.raises(DivergentIntegral):
            lw_evaluate(SpdMatrix(self.G3), u, QUAD, a_init=SymMatrix(-np.eye(3)))
        assert calls == [("kept", False)]


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


class TestAnswerBuiltOnce:
    """Each A of a solve is one SymMatrix: the answer is the value the last evaluation received."""

    G3, V3 = TestInitialGuess.G3, TestInitialGuess.V3

    @pytest.mark.parametrize(
        "g, u, cfg, tol",
        [
            # fresh Newton steps with rejected trials
            ([[3.0, 0.9], [0.9, 2.1]], DiagonalQuartic(V2), QUAD, None),
            # the corrected start is the answer
            ([[0.8, 0.1], [0.1, 0.6]], ScaledInteraction(0.05, DiagonalQuartic(V2)), QUAD, 1e-2),
            # a round on the start's stored points, then a fresh one
            (G3, DiagonalQuartic(V3), QUAD, None),
            (G3, DiagonalQuartic(V3), OracleConfig(mode="monte_carlo", samples=64_000, seed=4), None),
        ],
        ids=["newton", "start", "stored-points", "monte-carlo"],
    )
    def test_inverse_map_returns_what_its_last_oracle_call_received(self, monkeypatch, g, u, cfg, tol):
        received = []
        fresh = duality.evaluate_moments

        def spy(a, u, cfg):
            received.append(a)
            return fresh(a, u, cfg)

        monkeypatch.setattr(duality, "evaluate_moments", spy)
        a = inverse_map(SpdMatrix(g), u, cfg, tol=tol)
        assert a is received[-1]


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


def spied_grids(monkeypatch):
    """Log every fresh evaluation a solve makes, as (kind, pair moments asked for):
    kind "kept" for one that keeps its points (PointSet.evaluate), "fresh" for
    one through duality's evaluate_moments. Steps on stored points are not logged."""
    calls = []
    fresh, kept = duality.evaluate_moments, oracle.PointSet.evaluate.__func__

    def spy_fresh(a, u, cfg):
        calls.append(("fresh", cfg.want_fourth_moments))
        return fresh(a, u, cfg)

    def spy_kept(cls, a, u, cfg):
        calls.append(("kept", cfg.want_fourth_moments))
        return kept(cls, a, u, cfg)

    monkeypatch.setattr(duality, "evaluate_moments", spy_fresh)
    monkeypatch.setattr(oracle.PointSet, "evaluate", classmethod(spy_kept))
    return calls


class TestStoredPointSolves:
    """On a streamed grid of at most 3 dimensions a solve steps on its start's points."""

    # the seed-1 inputs of the lw-quad benchmark (n = 3, 64 nodes), and the
    # A[G] that the solve found before it stepped on stored points
    V_SPD = [[1.0023643249400513, 0.3269733943038954, 0.19943724413080152],
             [0.3269733943038954, 0.9623662904020971, 0.2949757675602521],
             [0.19943724413080152, 0.2949757675602521, 1.009918737534612]]
    V_IND = [[0.094069104813523, 0.02862816629528367, 0.021424043732587682],
             [0.02862816629528367, 0.09970381948863272, 0.03211658142172432],
             [0.021424043732587682, 0.03211658142172432, 0.10082453711094869]]
    V_GEN = [[1.001899176304302, 0.28976432760754467, 0.2108025429851396],
             [0.28976432760754467, 1.0639253438238554, 0.29624709495070173],
             [0.2108025429851396, 0.29624709495070173, 1.060472832226906]]
    SHEAR = [[1.0, 0.5028589263260022, -0.004066411711459626],
             [0.0, 1.0, 0.3352632838480657],
             [0.0, 0.0, 1.0]]
    CASES = {
        "diag-spd": (
            [[0.36220472905944545, 0.08066595860139118, 0.03996656481079972],
             [0.08066595860139118, 0.5076891555291267, 0.07549789221231049],
             [0.03996656481079972, 0.07549789221231049, 0.3530241350241933]],
            lambda cls: DiagonalQuartic(cls.V_SPD),
            [[2.271259175749, -0.440071641825, -0.241190664877],
             [-0.440071641825, 1.357467133567, -0.415183418696],
             [-0.241190664877, -0.415183418696, 2.349156206725]],
        ),
        "diag-indefinite": (
            [[4.888445602022685, 1.8692884564606853, 1.0373304263779215],
             [1.8692884564606853, 1.730855810244739, 0.5059123264147635],
             [1.0373304263779215, 0.5059123264147635, 0.9896432819551356]],
            lambda cls: DiagonalQuartic(cls.V_IND),
            [[-0.072269654601, -0.362189685024, -0.230950309579],
             [-0.362189685024, 0.703028838977, -0.150996629906],
             [-0.230950309579, -0.150996629906, 1.105273633235]],
        ),
        "general-sheared": (
            [[0.37530591408457603, 0.07954268890832945, 0.04051710145160316],
             [0.07954268890832945, 0.5161475612559917, 0.07583201238369565],
             [0.04051710145160316, 0.07583201238369565, 0.37049190448139624]],
            lambda cls: materialize(compose(DiagonalQuartic(cls.V_GEN), LinearMap(cls.SHEAR))),
            [[1.925511482135, -0.861699890995, -0.241155551671],
             [-0.861699890995, 0.879333351995, -0.724968576932],
             [-0.241155551671, -0.724968576932, 2.002000029345]],
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_benchmark_solves_make_few_fresh_evaluations(self, monkeypatch, name):
        g, make_u, a_pinned = self.CASES[name]
        u = make_u(type(self))
        calls = spied_grids(monkeypatch)
        rep = lw_evaluate(SpdMatrix(g), u, QUAD)
        # 6, 9 and 7 evaluations each before
        assert calls[0][0] == "kept"
        assert sum(1 for _, pairs in calls if not pairs) <= 2
        assert sum(1 for _, pairs in calls if pairs) <= 2
        # the solve returns a fresh report: the last evaluation, at its A
        assert calls[-1] == ("fresh", True)
        fresh = evaluate_moments(rep.a_of_g, u, QUAD)
        assert rep.residual <= 1e-8
        assert np.linalg.norm(fresh.green.mat - np.asarray(g)) <= 1e-8
        assert np.abs(rep.a_of_g.mat - np.asarray(a_pinned)).max() <= 1e-8

    @pytest.mark.parametrize(
        "name, g, u, cfg, pattern, a_pinned",
        [
            # 32^3 folds to one chunk of QUAD_CHUNK points
            (
                "one-chunk",
                [[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]],
                DiagonalQuartic([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]]),
                QUAD_32,
                [False, False, True, True, True, True],
                [[1.95736003474, -0.415583705711, -0.205339376948],
                 [-0.415583705711, 1.489984987391, -0.46594092984],
                 [-0.205339376948, -0.46594092984, 2.299491967868]],
            ),
            # 32^4 streams as 32 chunks, but n = 4 lies above POINT_SET_DIM_CAP
            (
                "n4-32-nodes",
                0.5 * np.eye(4) + 0.05 * (np.eye(4, k=1) + np.eye(4, k=-1)),
                DiagonalQuartic(np.eye(4) + 0.2),
                QUAD_32,
                [False, False, True, True, True, True],
                [[1.112121236975, -0.209703296024, 0.020642717039, -0.002060558847],
                 [-0.209703296024, 1.132917973582, -0.211755242233, 0.020642614506],
                 [0.020642717039, -0.211755242233, 1.132917060979, -0.2097017921],
                 [-0.002060558847, 0.020642614506, -0.2097017921, 1.112107603447]],
            ),
            (
                "zero",
                [[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]],
                ZeroInteraction(3),
                QUAD,
                [True],
                [[2.6, -0.4, -0.2], [-0.4, 2.225, -0.45], [-0.2, -0.45, 2.9]],
            ),
            (
                "monte-carlo",
                [[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]],
                DiagonalQuartic([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]]),
                OracleConfig(mode="monte_carlo", samples=64_000, seed=4),
                [False, False, True, True],
                [[1.937327715475, -0.419043104757, -0.20197529627],
                 [-0.419043104757, 1.484729183119, -0.467620922256],
                 [-0.20197529627, -0.467620922256, 2.296269036037]],
            ),
            # G^-1 is the lone start candidate: no G-only probe, and the
            # statistical tol comes from the first evaluation with pair moments
            (
                "monte-carlo-lone-start",
                [[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]],
                materialize(
                    compose(
                        DiagonalQuartic([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]]),
                        LinearMap([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]]),
                    )
                ),
                OracleConfig(mode="monte_carlo", samples=64_000, seed=4),
                [True, True, True, True],
                [[1.728415958015, -0.877393796069, -0.22142280754],
                 [-0.877393796069, 1.132504088304, -0.745280169167],
                 [-0.22142280754, -0.745280169167, 2.182912272136]],
            ),
        ],
    )
    def test_other_solves_keep_their_calls(self, monkeypatch, name, g, u, cfg, pattern, a_pinned):
        # the oracle calls and A from before stored points, and the same A
        # bit for bit with the stored-point path switched off
        calls = spied_grids(monkeypatch)
        a = inverse_map(SpdMatrix(g), u, cfg)
        assert calls == [("fresh", pairs) for pairs in pattern]
        assert np.abs(a.mat - np.asarray(a_pinned)).max() <= 1e-11
        monkeypatch.setattr(duality, "keeps_points", lambda u, cfg: False)
        assert np.array_equal(inverse_map(SpdMatrix(g), u, cfg).mat, a.mat)

    @pytest.mark.parametrize(
        "g, u, nodes",
        [
            # 80^3 streams as 20 chunks, more than the log p cache holds
            (
                [[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]],
                DiagonalQuartic([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]]),
                80,
            ),
            # 200^2 streams as 2 chunks
            ([[0.4, 0.08], [0.08, 0.48]], DiagonalQuartic([[1.0, 0.3], [0.3, 1.0]]), 200),
        ],
    )
    def test_every_streamed_grid_of_few_dimensions_keeps_points(self, monkeypatch, g, u, nodes):
        cfg = OracleConfig(nodes_per_dim=nodes)
        calls = spied_grids(monkeypatch)
        rep = lw_evaluate(SpdMatrix(g), u, cfg)
        assert calls == [("kept", False), ("kept", False), ("fresh", True)]
        assert rep.residual <= 1e-8
        monkeypatch.setattr(duality, "keeps_points", lambda u, cfg: False)
        fresh_steps = lw_evaluate(SpdMatrix(g), u, cfg)
        assert np.abs(rep.a_of_g.mat - fresh_steps.a_of_g.mat).max() <= 1e-8

    def test_iterations_count_steps_on_stored_points(self, monkeypatch):
        # diag-spd takes three steps, all on its start's points; a budget of
        # two leaves the fresh evaluation outside tol
        g, make_u, _ = self.CASES["diag-spd"]
        u = make_u(type(self))
        rep = lw_evaluate(SpdMatrix(g), u, QUAD)
        assert rep.solver_iterations == 3
        assert lw_evaluate(SpdMatrix(g), u, QUAD, max_iter=3) == rep
        calls = spied_grids(monkeypatch)
        with pytest.raises(NoConvergence, match="no convergence in 2 iterations"):
            lw_evaluate(SpdMatrix(g), u, QUAD, max_iter=2)
        assert calls == [("kept", False), ("kept", False), ("fresh", True)]


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


class TestLwEvaluateOn:
    """lw_evaluate as one Newton round on the points of one evaluation (oracle.PointSet)."""

    A = SymMatrix([[1.1, 0.1], [0.1, -0.3]])  # indefinite: the envelope is lifted
    U = DiagonalQuartic([[1.0, 0.5], [0.5, 1.0]])

    def kept(self):
        report, points = oracle.PointSet.evaluate(self.A, self.U, QUAD)
        return report.green, points

    def test_at_its_own_green_the_set_returns_its_a_and_lw_evaluate_values(self):
        # measured: A within 1.3e-15, every value within 9e-16 of lw_evaluate's
        g, points = self.kept()
        on = duality.lw_evaluate_on(points, g, 1e-12, 60, SymMatrix(g.inverse()))
        fresh = lw_evaluate(g, self.U, QUAD, tol=1e-12)
        assert np.abs(on.a_of_g.mat - self.A.mat).max() <= 1e-12
        assert on.residual <= 1e-12
        for name in ("universal_f", "phi", "entropy", "mean_interaction"):
            assert getattr(on, name) == pytest.approx(getattr(fresh, name), abs=1e-12)
        assert np.abs(on.sigma_exact.mat - fresh.sigma_exact.mat).max() <= 1e-12

    def test_sigma_is_the_gradient_of_phi_on_a_fixed_set(self):
        # away from A's own G, fresh rules placed at each A[G] put the
        # difference quotient 7.8e-6 off Sigma; on one set it is 3.3e-11 off
        g, points = self.kept()
        g = SpdMatrix(1.3 * g.mat)
        step, h = np.array([[0.3, 0.2], [0.2, -0.1]]), 1e-4
        start = SymMatrix(g.inverse())

        def on(green):
            return duality.lw_evaluate_on(points, SpdMatrix(green), 1e-12, 60, start)

        quotient = (on(g.mat + h * step).phi - on(g.mat - h * step).phi) / (2.0 * h)
        assert quotient == pytest.approx(np.sum(on(g.mat).sigma_exact.mat * step), abs=1e-9)

    def test_a_round_outside_tol_raises_with_its_residual(self):
        g, points = self.kept()
        g = SpdMatrix(1.3 * g.mat)
        with pytest.raises(NoConvergence, match="no convergence in 0 iterations") as info:
            duality.lw_evaluate_on(points, g, 1e-12, 0, SymMatrix(g.inverse()))
        assert info.value.residual > 0.1

    def test_the_report_holds_the_value_its_last_step_received(self, monkeypatch):
        g, points = self.kept()
        g = SpdMatrix(1.3 * g.mat)
        received = []
        moments = oracle.PointSet.moments

        def spy(points, a):
            received.append(a)
            return moments(points, a)

        monkeypatch.setattr(oracle.PointSet, "moments", spy)
        on = duality.lw_evaluate_on(points, g, 1e-12, 60, SymMatrix(g.inverse()))
        assert len(received) > 1
        assert on.a_of_g is received[-1]

    def test_boundary_guard(self):
        _, points = self.kept()
        g = SpdMatrix(np.diag([1.0, 1e-8]))
        with pytest.raises(BoundaryTooClose):
            duality.lw_evaluate_on(points, g, 1e-12, 60, SymMatrix(g.inverse()))


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
