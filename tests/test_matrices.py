import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwlattice.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    SingularMap,
    ValidationError,
)
from lwlattice.matrices import (
    LinearMap,
    SpdMatrix,
    SymMatrix,
    cholesky_factor,
    congruence,
    logdet_spd,
    min_eigenvalue,
)


def random_spd(n, rng, lo=0.5, hi=2.5):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


@st.composite
def spd_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return SpdMatrix(random_spd(n, rng))


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky_factor(SymMatrix(np.eye(2)).mat), np.eye(2))

    def test_two_by_two(self):
        low = cholesky_factor(SymMatrix([[4.0, 2.0], [2.0, 5.0]]).mat)
        assert np.allclose(low, [[2.0, 0.0], [1.0, 2.0]])
        assert np.allclose(low @ low.T, [[4.0, 2.0], [2.0, 5.0]], rtol=1e-12)

    def test_negative_pivot(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(SymMatrix(np.diag([1.0, -1.0])).mat)

    def test_tiny_pivot_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix(np.diag([1.0, 1e-14]))

    def test_factor_reproduces_input(self):
        rng = np.random.default_rng(0)
        s = random_spd(4, rng)
        low = cholesky_factor(SymMatrix(s).mat)
        assert np.linalg.norm(low @ low.T - s) <= 1e-12 * np.linalg.norm(s)


class TestLogDet:
    def test_identity(self):
        assert logdet_spd(SpdMatrix(np.eye(3))) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal(self):
        assert logdet_spd(SpdMatrix(np.diag([2.0, 3.0]))) == pytest.approx(
            np.log(6.0), abs=1e-14
        )

    def test_against_eigenvalue_oracle(self):
        # independent route: sum of logs of eigenvalues
        rng = np.random.default_rng(7)
        s = random_spd(3, rng)
        expected = float(np.sum(np.log(np.linalg.eigvalsh(s))))
        assert logdet_spd(SpdMatrix(s)) == pytest.approx(expected, abs=1e-12)

    def test_matches_direct_determinant(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            s = random_spd(n, rng)
            direct = np.log(np.linalg.det(s))
            assert logdet_spd(SpdMatrix(s)) == pytest.approx(direct, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(spd_matrices())
    def test_inverse_negates(self, s):
        inv = SpdMatrix(np.linalg.inv(s.mat))
        assert abs(logdet_spd(inv) + logdet_spd(s)) <= 1e-10


class TestCongruence:
    def test_identity_map(self):
        g = SpdMatrix([[1.0, 0.2], [0.2, 2.0]])
        out = congruence(LinearMap.identity(2), g)
        assert np.allclose(out.mat, g.mat)

    def test_scalar_scaling(self):
        out = congruence(LinearMap([[2.0]]), SpdMatrix([[1.0]]))
        assert out.mat[0, 0] == pytest.approx(4.0)

    def test_rotation(self):
        c = s = np.sqrt(0.5)
        t = np.array([[c, s], [-s, c]])
        g = np.diag([1.0, 2.0])
        out = congruence(LinearMap(t), SpdMatrix(g))
        assert np.allclose(out.mat, t @ g @ t.T, atol=1e-15)
        assert np.allclose(out.mat, [[1.5, 0.5], [0.5, 1.5]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            congruence(LinearMap.identity(3), SpdMatrix(np.eye(2)))

    @settings(max_examples=25, deadline=None)
    @given(spd_matrices(max_n=3), st.integers(0, 2**32 - 1))
    def test_composition(self, g, seed):
        rng = np.random.default_rng(seed)
        t1 = rng.standard_normal((g.n, g.n)) + 2.0 * np.eye(g.n)
        t2 = rng.standard_normal((g.n, g.n)) + 2.0 * np.eye(g.n)
        lhs = congruence(LinearMap(t1), congruence(LinearMap(t2), g))
        rhs = congruence(LinearMap(t1 @ t2), g)
        assert np.linalg.norm(lhs.mat - rhs.mat) <= 1e-10 * max(
            1.0, np.linalg.norm(rhs.mat)
        )


class TestConstruction:
    def test_small_asymmetry_symmetrized(self):
        s = SymMatrix([[1.0, 1.0 + 1e-12], [1.0, 2.0]])
        assert s.mat[0, 1] == s.mat[1, 0]

    def test_large_asymmetry_rejected(self):
        with pytest.raises(ValidationError, match="not symmetric"):
            SymMatrix([[1.0, 0.5], [0.0, 2.0]])

    def test_rounding_asymmetry_judged_by_scale(self):
        # one rounding step at 1e8 is 1.5e-8, above an absolute 1e-9
        s = SymMatrix([[1e8, 1e8 * (1 + 1e-15)], [1e8, 2e8]])
        assert s.mat[0, 1] == s.mat[1, 0] == 0.5 * (1e8 + 1e8 * (1 + 1e-15))

    def test_relative_asymmetry_at_scale_rejected(self):
        with pytest.raises(ValidationError, match="not symmetric"):
            SymMatrix([[1e8, 1e8 * (1 + 1e-6)], [1e8, 2e8]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            SymMatrix([[np.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("cls", [SymMatrix, LinearMap])
    def test_entries_beyond_half_the_float_range_rejected(self, cls):
        # 0.5 * (1e308 + 1e308) overflowed to an infinite stored entry
        with pytest.raises(ValidationError, match="above"):
            cls([[1e308, 0.0], [0.0, 1.0]])
        assert cls([[8e307, 0.0], [0.0, 8e307]]).mat[0, 0] == 8e307

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            SymMatrix([[1.0, 0.0]])

    def test_immutability(self):
        s = SymMatrix(np.eye(2))
        with pytest.raises((ValueError, AttributeError)):
            s.mat[0, 0] = 5.0
        with pytest.raises(AttributeError):
            s.mat = np.zeros((2, 2))

    def test_spd_caches_factor(self):
        g = SpdMatrix([[4.0, 2.0], [2.0, 5.0]])
        assert np.allclose(g.chol @ g.chol.T, g.mat)

    def test_spd_inverse(self):
        rng = np.random.default_rng(3)
        g = SpdMatrix(random_spd(3, rng))
        assert np.allclose(g.inverse() @ g.mat, np.eye(3), atol=1e-12)


class TestLinearMap:
    def test_singular_rejected(self):
        with pytest.raises(SingularMap):
            LinearMap([[1.0, 1.0], [1.0, 1.0]])

    def test_small_scale_is_not_singular(self):
        # |det| = 1e-16, condition number 1
        t = LinearMap(1e-4 * np.eye(4))
        assert np.allclose(t.inverse(), 1e4 * np.eye(4))

    def test_ill_conditioned_rejected(self):
        # |det| = 1e-12, condition number 4.0e12
        with pytest.raises(SingularMap, match="reciprocal condition number"):
            LinearMap([[1.0, 1.0], [1.0, 1.0 + 1e-12]])

    def test_inverse_identity(self):
        rng = np.random.default_rng(5)
        t = LinearMap(rng.standard_normal((3, 3)) + 2.0 * np.eye(3))
        assert np.abs(t.mat @ t.inverse() - np.eye(3)).max() <= 1e-10


def test_min_eigenvalue():
    assert min_eigenvalue(SymMatrix(np.diag([3.0, -1.0]))) == pytest.approx(-1.0)


@pytest.mark.parametrize("cls", [SymMatrix, LinearMap])
def test_hash_agrees_with_equality_on_signed_zeros(cls):
    plus, minus = cls([[0.0, 1.0], [1.0, 0.0]]), cls([[-0.0, 1.0], [1.0, 0.0]])
    assert plus == minus
    assert hash(plus) == hash(minus)
    assert len({plus, minus}) == 1
