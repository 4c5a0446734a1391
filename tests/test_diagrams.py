import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lwlattice.diagrams import BoldSeries, sigma1, sigma2
from lwlattice.errors import DimensionMismatch, NonFinite, UnsupportedOrder
from lwlattice.matrices import SpdMatrix, SymMatrix


def random_case(seed, n=2):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    g = SpdMatrix(q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T)
    v = rng.uniform(-1.0, 1.5, (n, n))
    return g, SymMatrix(0.5 * (v + v.T))


class TestSigma1:
    def test_scalar(self):
        assert sigma1(SpdMatrix([[1.0]]), SymMatrix([[1.0]])).mat[0, 0] == pytest.approx(-1.5)

    def test_linear_in_g(self):
        assert sigma1(SpdMatrix([[2.0]]), SymMatrix([[1.0]])).mat[0, 0] == pytest.approx(-3.0)

    def test_decoupled_sites(self):
        out = sigma1(SpdMatrix(np.eye(2)), SymMatrix(np.eye(2)))
        assert np.allclose(out.mat, np.diag([-1.5, -1.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sigma1(SpdMatrix(np.eye(2)), SymMatrix([[1.0]]))


class TestSigma2:
    def test_scalar(self):
        assert sigma2(SpdMatrix([[1.0]]), SymMatrix([[1.0]])).mat[0, 0] == pytest.approx(1.5)

    def test_cubic_in_g(self):
        assert sigma2(SpdMatrix([[2.0]]), SymMatrix([[1.0]])).mat[0, 0] == pytest.approx(12.0)

    def test_decoupled_sites(self):
        out = sigma2(SpdMatrix(np.eye(2)), SymMatrix(np.eye(2)))
        assert np.allclose(out.mat, np.diag([1.5, 1.5]))


class TestPhiTerm:
    def test_first_order(self):
        series = BoldSeries.build(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 1)
        assert series.phi_terms[-1] == pytest.approx(-0.75)

    def test_second_order(self):
        series = BoldSeries.build(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 2)
        assert series.phi_terms[-1] == pytest.approx(0.375)

    def test_first_order_scaling(self):
        series = BoldSeries.build(SpdMatrix([[2.0]]), SymMatrix([[1.0]]), 1)
        assert series.phi_terms[-1] == pytest.approx(-3.0)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            BoldSeries.build(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 3)


class TestTruncation:
    def test_zero_strength(self):
        out = BoldSeries.build(SpdMatrix(np.eye(2)), SymMatrix(np.eye(2)), 2).truncated_sigma(0.0)
        assert np.all(out.mat == 0.0)

    def test_first_order(self):
        out = BoldSeries.build(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 1).truncated_sigma(0.1)
        assert out.mat[0, 0] == pytest.approx(-0.15)

    def test_second_order(self):
        out = BoldSeries.build(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 2).truncated_sigma(0.1)
        assert out.mat[0, 0] == pytest.approx(-0.135)

    # 1e200 squared overflows as a Python float (OverflowError) and as a numpy
    # one (inf); 1e154 squared is finite, its products with the second-order
    # terms at G = 2 (12 and 6) are not
    @pytest.mark.parametrize(
        "g, eps, shown",
        [(1.0, 1e200, "1e+200"), (1.0, np.float64(1e200), "1e+200"), (2.0, 1e154, "1e+154")],
    )
    def test_overflowing_coupling_is_nonfinite(self, g, eps, shown):
        series = BoldSeries.build(SpdMatrix([[g]]), SymMatrix([[1.0]]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for truncated in (series.truncated_sigma, series.truncated_phi):
                message = re.escape(f"bold coupling {shown} overflows at order 2")
                with pytest.raises(NonFinite, match=message):
                    truncated(eps)
            # the first order alone stays finite
            first = BoldSeries.build(SpdMatrix([[g]]), SymMatrix([[1.0]]), 1)
            assert first.truncated_sigma(eps).mat[0, 0] == -1.5 * g * eps
            assert first.truncated_phi(eps) == -0.75 * g * g * eps

    @pytest.mark.parametrize(
        "g, v, order",
        [
            (1.0, 1e200, 2),  # the ring term's v^2 overflows
            (1.0, -8e307, 1),  # finite, but past the range of a matrix value
            (3.0, 3e307, 1),  # -1.5 G v overflows
        ],
    )
    def test_overflowing_coefficient_is_nonfinite(self, g, v, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=f"bold self-energy overflows at order {order}$"):
                BoldSeries.build(SpdMatrix([[g]]), SymMatrix([[v]]), 2)
            if order == 2:  # the first order alone stays finite
                first = BoldSeries.build(SpdMatrix([[g]]), SymMatrix([[v]]), 1)
                assert first.sigma_terms[0].mat[0, 0] == -1.5 * v

    def test_overflowing_phi_is_reported_by_the_sum(self):
        # Sigma^(1) = -8.55e307 is in range; Phi^(1) = G Sigma^(1) / 2 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = BoldSeries.build(SpdMatrix([[3.0]]), SymMatrix([[1.9e307]]), 1)
            assert series.phi_terms == (-np.inf,)
            with pytest.raises(NonFinite, match="bold coupling 1 overflows at order 1$"):
                series.truncated_phi(1.0)


class TestAlgebraicProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_outputs_symmetric(self, seed):
        g, v = random_case(seed)
        for op in (sigma1, sigma2):
            out = op(g, v).mat
            assert np.abs(out - out.T).max() <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.5, 2.0, 4.0, 0.25]))
    def test_scaling_covariance_exact_for_pow2(self, seed, c):
        g, v = random_case(seed)
        assert np.array_equal(sigma1(g, SymMatrix(c * v.mat)).mat, c * sigma1(g, v).mat)
        assert np.array_equal(sigma2(g, SymMatrix(c * v.mat)).mat, c * c * sigma2(g, v).mat)

    def test_scaling_covariance_general(self):
        g, v = random_case(3)
        c = 0.7318
        assert np.allclose(sigma1(g, SymMatrix(c * v.mat)).mat, c * sigma1(g, v).mat, rtol=1e-14)
        assert np.allclose(sigma2(g, SymMatrix(c * v.mat)).mat, c * c * sigma2(g, v).mat, rtol=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_permutation_equivariance(self, seed):
        g, v = random_case(seed, n=3)
        perm = np.eye(3)[[2, 0, 1]]
        for op in (sigma1, sigma2):
            lhs = op(SpdMatrix(perm @ g.mat @ perm.T), SymMatrix(perm @ v.mat @ perm.T)).mat
            rhs = perm @ op(g, v).mat @ perm.T
            assert np.abs(lhs - rhs).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_phi_sigma_trace_identity(self, seed):
        g, v = random_case(seed)
        for k in (1, 2):
            phi = BoldSeries.build(g, v, k).phi_terms[-1]
            assert abs(phi - oracles.vacuum_phi(g.mat, v.mat, k)) <= 1e-12


class TestBoldSeries:
    def test_build_and_truncate(self):
        series = BoldSeries.build(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 2)
        assert series.phi_terms[0] == pytest.approx(-0.75)
        assert series.phi_terms[1] == pytest.approx(0.375)
        assert series.truncated_sigma(0.1).mat[0, 0] == pytest.approx(-0.135)
        assert series.truncated_phi(0.1) == pytest.approx(-0.075 + 0.00375)

    def test_order_validation(self):
        with pytest.raises(UnsupportedOrder):
            BoldSeries.build(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 3)

    @pytest.mark.parametrize("order", [True, 1.0])
    def test_order_must_be_an_integer(self, order):
        # True == 1 and 1.0 == 1, yet neither is an order
        with pytest.raises(UnsupportedOrder):
            BoldSeries.build(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), order)

    @pytest.mark.parametrize("seed", range(5))
    def test_phi_gradient_is_sigma(self, seed):
        # independent route: along G + tD, Phi^(k) is a polynomial of degree
        # 2k <= 4 in t, so the five-point stencil derivative is exact up to
        # roundoff and must equal Tr[Sigma^(k) D]
        g, v = random_case(seed, n=3)
        rng = np.random.default_rng(100 + seed)
        series = BoldSeries.build(g, v, 2)
        h = 0.05
        for _ in range(3):
            d = rng.standard_normal((3, 3))
            d = 0.5 * (d + d.T)
            d /= np.linalg.norm(d)
            phis = [
                BoldSeries.build(SpdMatrix(g.mat + t * h * d), v, 2).phi_terms
                for t in (-2, -1, 1, 2)
            ]
            for k in (1, 2):
                m2, m1, p1, p2 = (p[k - 1] for p in phis)
                stencil = (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)
                exact = float(np.sum(series.sigma_terms[k - 1].mat * d))
                assert abs(stencil - exact) <= 1e-10
