import numpy as np
import pytest

from lwlattice import verify
from lwlattice.errors import ValidationError
from lwlattice.interactions import DiagonalQuartic, ZeroInteraction
from lwlattice.matrices import LinearMap, SpdMatrix, SymMatrix
from lwlattice.oracle import OracleConfig
from lwlattice.verify import (
    DELTA_GRID,
    THRESHOLDS,
    check_asymptotic_order,
    check_bijection,
    check_boundary_continuity,
    check_gradient_omega,
    check_selfenergy_gradient,
    check_transformation_rule,
    check_truncation_lemma,
    run_suite,
    suite_names,
)

QUAD = OracleConfig()
V2 = np.array([[1.0, 0.5], [0.5, 1.0]])


class TestThresholdTable:
    def test_two_profiles_shipped(self):
        assert set(THRESHOLDS) == {"quadrature", "mc"}

    def test_quadrature_values_pinned(self):
        t = THRESHOLDS["quadrature"]
        assert t["gradient_omega"] == 1e-5
        assert t["selfenergy_gradient"] == 1e-4
        assert t["bijection"] == 1e-6
        assert t["transformation"] == 1e-5
        assert t["boundary"] == 1e-3
        assert t["asymptotic_margin"] == 0.8


class TestGradientOmega:
    def test_gaussian(self):
        report = check_gradient_omega(SymMatrix(np.eye(2)), ZeroInteraction(2), QUAD)
        assert report.passed and report.metric <= 1e-8

    def test_quartic(self):
        report = check_gradient_omega(SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), QUAD)
        assert report.passed

    def test_indefinite_a(self):
        report = check_gradient_omega(
            SymMatrix(np.diag([1.0, -0.2])), DiagonalQuartic(V2), QUAD
        )
        assert report.passed


class TestBijection:
    def test_gaussian_tight(self):
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        a = SymMatrix(q @ np.diag(rng.uniform(0.5, 2.0, 2)) @ q.T)
        report = check_bijection(a, ZeroInteraction(2), QUAD)
        assert report.passed and report.metric <= 1e-10

    def test_quartic_indefinite(self):
        report = check_bijection(
            SymMatrix([[1.0, 0.3], [0.3, -0.2]]), DiagonalQuartic(V2), QUAD
        )
        assert report.passed


class TestAsymptoticOrder:
    def test_first_order_scalar(self):
        report = check_asymptotic_order(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 1, QUAD)
        assert report.passed
        assert report.metric == pytest.approx(2.0, abs=0.2)

    def test_second_order_scalar(self):
        report = check_asymptotic_order(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 2, QUAD)
        assert report.passed
        assert report.metric == pytest.approx(3.0, abs=0.2)

    def test_second_order_coupled(self):
        report = check_asymptotic_order(SpdMatrix(np.eye(2)), SymMatrix(V2), 2, QUAD)
        assert report.passed
        assert report.metric >= 2.8


class TestTransformationRule:
    def test_identity(self):
        g = SpdMatrix([[1.0, 0.2], [0.2, 0.7]])
        report = check_transformation_rule(g, DiagonalQuartic(V2), LinearMap.identity(2), QUAD)
        assert report.passed

    def test_rotation(self):
        c = s = np.sqrt(0.5)
        g = SpdMatrix([[1.0, 0.2], [0.2, 0.7]])
        report = check_transformation_rule(
            g, DiagonalQuartic(V2), LinearMap([[c, s], [-s, c]]), QUAD
        )
        assert report.passed

    def test_anisotropic(self):
        g = SpdMatrix([[1.0, 0.2], [0.2, 0.7]])
        report = check_transformation_rule(
            g, DiagonalQuartic(V2), LinearMap([[2.0, 0.0], [0.0, 0.5]]), QUAD
        )
        assert report.passed


class TestBoundaryContinuity:
    def test_non_interacting(self):
        report = check_boundary_continuity(SpdMatrix([[1.0]]), ZeroInteraction(2), QUAD)
        assert report.passed
        assert abs(report.details["extrapolated"]) <= 1e-8

    def test_coupled_quartic(self):
        report = check_boundary_continuity(SpdMatrix([[1.0]]), DiagonalQuartic(V2), QUAD)
        assert report.passed

    def test_decoupled_quartic_tight(self):
        u = DiagonalQuartic([[1.0, 0.0], [0.0, 0.8]])
        report = check_boundary_continuity(SpdMatrix([[1.0]]), u, QUAD)
        assert report.passed and report.metric <= 1e-4

    def test_requires_lower_dimension(self):
        with pytest.raises(ValidationError):
            check_boundary_continuity(SpdMatrix(np.eye(2)), DiagonalQuartic(V2), QUAD)


class TestSelfEnergyGradient:
    def test_zero_interaction(self):
        report = check_selfenergy_gradient(SpdMatrix(np.eye(2)), ZeroInteraction(2), QUAD)
        assert report.passed

    def test_quartic_scalar(self):
        report = check_selfenergy_gradient(SpdMatrix([[1.0]]), DiagonalQuartic([[1.0]]), QUAD)
        assert report.passed

    def test_quartic_coupled(self):
        report = check_selfenergy_gradient(
            SpdMatrix([[1.0, 0.2], [0.2, 0.8]]), DiagonalQuartic(V2), QUAD
        )
        assert report.passed

    def test_difference_solves_start_from_the_centre(self, monkeypatch):
        calls = []
        solve = verify.lw_evaluate

        def recorded(g, u, cfg, **kwargs):
            result = solve(g, u, cfg, **kwargs)
            calls.append((kwargs.get("a_init"), result))
            return result

        monkeypatch.setattr(verify, "lw_evaluate", recorded)
        check_selfenergy_gradient(SpdMatrix([[1.0, 0.2], [0.2, 0.8]]), DiagonalQuartic(V2), QUAD)
        (first, center), *steps = calls
        assert first is None and len(steps) == 12
        assert all(a_init is center.a_of_g for a_init, _ in steps)


class TestSharedPieces:
    X = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])

    @staticmethod
    def logdet(mat):
        return np.linalg.slogdet(mat)[1]

    def test_directional_check_on_log_det(self):
        inv = np.linalg.inv(self.X)
        report = verify._directional_check("logdet", self.logdet, self.X, inv, 7, 1e-7)
        assert report.passed and report.metric <= 1e-7
        assert list(report.details) == ["analytic", "finite_difference", "step"]
        wrong = verify._directional_check("logdet", self.logdet, self.X, 2.0 * inv, 7, 1e-7)
        assert not wrong.passed and wrong.metric >= 0.4

    def test_pass_rule_directions(self):
        nan = float("nan")
        assert verify._report("bound", 1.0, 1.0, {}).passed
        assert not verify._report("bound", 1.5, 1.0, {}).passed
        assert not verify._report("bound", nan, 1.0, {}).passed
        assert verify._report("slope", 2.8, 2.8, {}, at_least=True).passed
        assert not verify._report("slope", 2.5, 2.8, {}, at_least=True).passed
        assert not verify._report("slope", nan, 2.8, {}, at_least=True).passed

    def test_report_dict_key_order(self):
        report = verify._report("bound", 0.5, 1.0, {"b": 1, "a": 2})
        assert list(report.to_dict()) == ["name", "passed", "metric", "threshold", "details"]
        assert list(report.to_dict()["details"]) == ["b", "a"]


class TestTruncationLemma:
    def test_second_order_scalar(self):
        report = check_truncation_lemma(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 2, QUAD)
        assert report.passed
        assert report.metric >= 2.8


class TestSuites:
    def test_names(self):
        assert "all" in suite_names() and "gaussian" in suite_names()

    def test_gaussian_suite_passes(self):
        reports = run_suite("gaussian", QUAD)
        assert reports and all(r.passed for r in reports)

    def test_theorem3_suite_passes(self):
        reports = run_suite("theorem3", QUAD)
        assert len(reports) == 3 and all(r.passed for r in reports)

    def test_all_suite_passes(self):
        reports = run_suite("all", QUAD)
        assert len(reports) >= 20 and all(r.passed for r in reports)

    def test_deterministic(self):
        first = run_suite("gaussian", QUAD)
        second = run_suite("gaussian", QUAD)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_unknown_suite(self):
        with pytest.raises(ValidationError):
            run_suite("nonsense", QUAD)

    def test_mc_rejects_slope_suites(self):
        cfg = OracleConfig(mode="monte_carlo", samples=1000)
        with pytest.raises(ValidationError):
            run_suite("theorem3", cfg)

    def test_mc_suite_uses_mc_bounds(self):
        cfg = OracleConfig(mode="monte_carlo", samples=50_000, seed=3)
        reports = run_suite("boundary", cfg)
        assert reports and all(r.passed for r in reports)
        assert all(r.threshold == THRESHOLDS["mc"]["boundary"] for r in reports)

    def test_mc_slope_check_raises_before_oracle_work(self, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle called")

        monkeypatch.setattr(verify, "lw_evaluate", no_oracle)
        cfg = OracleConfig(mode="monte_carlo", samples=1000)
        with pytest.raises(ValidationError):
            check_asymptotic_order(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 1, cfg)

    def test_default_delta_grid(self):
        assert DELTA_GRID == (1e-1, 3e-2, 1e-2, 3e-3)
