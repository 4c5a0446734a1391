import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from lwlattice import oracle
from lwlattice.errors import DimensionCap, DimensionMismatch, DivergentIntegral, NonFinite
from lwlattice.interactions import DiagonalQuartic, ScaledInteraction, ZeroInteraction
from lwlattice.matrices import SymMatrix
from lwlattice.oracle import (
    MC_BATCHES,
    QUAD_CHUNK,
    QUAD_NODE_CAP,
    OracleConfig,
    _check_preconditions,
    _grid_block,
    _grid_chunks,
    _moments,
    evaluate_moments,
    green_of_a,
)

QUAD = OracleConfig()
QUAD_TIGHT = OracleConfig(nodes_per_dim=192)


def random_spd(n, rng, lo=0.5, hi=2.5):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def gaussian_omega(a):
    sign, logdet = np.linalg.slogdet(a)
    return 0.5 * logdet - 0.5 * a.shape[0] * np.log(2.0 * np.pi)


def wick(g):
    """Gaussian fourth moments by Wick pairing."""
    return (
        np.einsum("ij,kl->ijkl", g, g)
        + np.einsum("ik,jl->ijkl", g, g)
        + np.einsum("il,jk->ijkl", g, g)
    )


def at_pairs(m4):
    """The [ij, kl] block of a dense fourth-moment tensor over the pairs i <= j."""
    rows, cols = np.triu_indices(m4.shape[0])
    return m4[rows, cols][:, rows, cols]


def pairings(n):
    """Block indices of (ij, kl), (ik, jl), (il, jk) and (kl, ij) for every i, j, k, l.

    The four entries are the same moment <x_i x_j x_k x_l>, accumulated as
    separate weighted sums.
    """
    index = {}
    for p, (i, j) in enumerate(zip(*np.triu_indices(n))):
        index[i, j] = index[j, i] = p
    quads = list(itertools.product(range(n), repeat=4))
    return [
        tuple(np.array([index[q[a], q[b]] for q in quads]) for a, b in pair)
        for pair in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)), ((2, 3), (0, 1)))
    ]


def assert_pairings_agree(block, n, rel):
    first, *others = (block[rows, cols] for rows, cols in pairings(n))
    for other in others:
        assert np.abs(first - other).max() <= rel * np.abs(block).max()


A3 = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 1.5]])


class TestGaussianClosedForm:
    def test_scalar(self):
        rep = evaluate_moments(SymMatrix([[1.0]]), ZeroInteraction(1), QUAD)
        assert rep.omega == pytest.approx(-0.5 * np.log(2.0 * np.pi), abs=1e-12)
        assert rep.green.mat[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_two_by_two(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        rep = evaluate_moments(SymMatrix(a), ZeroInteraction(2), QUAD)
        assert rep.omega == pytest.approx(0.5 * np.log(1.75) - np.log(2 * np.pi), abs=1e-12)
        assert np.abs(rep.green.mat - np.linalg.inv(a)).max() <= 1e-10

    def test_tiny_a_huge_green(self):
        # G ~ 1e10: the weighted GEMM leaves an asymmetry (6e-8 here) above the
        # absolute 1e-9 tolerance of SymMatrix unless G is symmetrized first
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        a = SymMatrix(1e-10 * q @ np.diag([1.0, 2.0, 3.0]) @ q.T)
        rep = evaluate_moments(a, ZeroInteraction(3), OracleConfig(nodes_per_dim=16))
        inv = np.linalg.inv(a.mat)
        # measured 1.2e-15 relative
        assert np.abs(rep.green.mat - inv).max() <= 1e-12 * np.abs(inv).max()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exactness_random(self, n):
        rng = np.random.default_rng(n)
        a = random_spd(n, rng)
        rep = evaluate_moments(SymMatrix(a), ZeroInteraction(n), QUAD)
        assert rep.omega == pytest.approx(gaussian_omega(a), abs=1e-10)
        assert np.abs(rep.green.mat - np.linalg.inv(a)).max() <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_exactness_property(self, n, seed):
        # a matched envelope makes the quadrature exact for any SPD A
        a = random_spd(n, np.random.default_rng(seed))
        rep = evaluate_moments(SymMatrix(a), ZeroInteraction(n), QUAD)
        assert rep.omega == pytest.approx(gaussian_omega(a), abs=1e-10)
        assert np.abs(rep.green.mat - np.linalg.inv(a)).max() <= 1e-10

    def test_exactness_below_envelope_floor(self):
        # without a confining interaction the envelope is A itself, so wide
        # Gaussians (lambda_min far below the floor) stay exact
        a = np.diag([0.02, 1.5])
        rep = evaluate_moments(SymMatrix(a), ZeroInteraction(2), QUAD)
        assert rep.omega == pytest.approx(gaussian_omega(a), abs=1e-12)
        assert np.abs(rep.green.mat - np.linalg.inv(a)).max() <= 1e-10 * 50.0

    @pytest.mark.parametrize("eigenvalues", [(1e-3, 1e3), (1e-3, 1.0, 1e3)])
    def test_high_conditioning(self, eigenvalues):
        # cond(A) = 1e6, rotated so that the Cholesky factor is dense; the
        # matched envelope B = A keeps the quadrature exact up to rounding in
        # the map x = L^-T y (measured: 8.5e-12 on omega, 1.7e-11 relative on G)
        n = len(eigenvalues)
        q = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))[0]
        a = q @ np.diag(eigenvalues) @ q.T
        a = 0.5 * (a + a.T)
        rep = evaluate_moments(SymMatrix(a), ZeroInteraction(n), QUAD)
        g = np.linalg.inv(a)
        assert rep.omega == pytest.approx(gaussian_omega(a), abs=5e-11)
        assert np.abs(rep.green.mat - g).max() <= 1e-10 * np.abs(g).max()


class TestQuarticDerived:
    """Frozen values from the independent adaptive-quadrature oracle."""

    def test_partition_function(self):
        rep = evaluate_moments(SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), QUAD_TIGHT)
        assert rep.omega == pytest.approx(oracles.OMEGA_QUARTIC_1D, abs=1e-12)
        assert rep.green.mat[0, 0] == pytest.approx(oracles.GREEN_QUARTIC_1D, abs=1e-12)

    def test_default_nodes_accuracy(self):
        rep = evaluate_moments(SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), QUAD)
        # measured 9.0e-10
        assert rep.omega == pytest.approx(oracles.OMEGA_QUARTIC_1D, abs=4e-9)

    def test_mean_interaction(self):
        rep = evaluate_moments(SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), QUAD_TIGHT)
        expected = oracles.quartic_moment(1.0, 4) / 8.0
        assert rep.mean_interaction == pytest.approx(expected, abs=1e-11)

    def test_indefinite_a_with_quartic(self):
        a = SymMatrix([[oracles.A_OF_UNIT_G]])
        rep = evaluate_moments(a, DiagonalQuartic([[1.0]]), QUAD_TIGHT)
        assert rep.omega == pytest.approx(oracles.OMEGA_AT_A_OF_UNIT_G, abs=1e-10)
        assert rep.green.mat[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_indefinite_two_dim_reference(self):
        # lambda_min(A) < 0 with a non-diagonal Cholesky factor: the lifted
        # envelope against nested adaptive quadrature (measured agreement at
        # 192 nodes: 6e-12 on omega, 1.6e-11 on G)
        u = DiagonalQuartic(oracles.V_2D)
        rep = evaluate_moments(SymMatrix(oracles.A_2D), u, QUAD_TIGHT)
        assert rep.omega == pytest.approx(oracles.OMEGA_QUARTIC_2D, abs=5e-11)
        assert np.abs(rep.green.mat - np.array(oracles.GREEN_QUARTIC_2D)).max() <= 1e-10


class TestGreenOfA:
    def test_diagonal_gaussian(self):
        g = green_of_a(SymMatrix(np.diag([2.0, 4.0])), ZeroInteraction(2), QUAD)
        assert np.allclose(g.mat, np.diag([0.5, 0.25]), atol=1e-12)

    def test_zero_scale_reduces_to_gaussian(self):
        u = ScaledInteraction(0.0, DiagonalQuartic([[1.0]]))
        g = green_of_a(SymMatrix([[1.0]]), u, QUAD)
        assert g.mat[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_quartic_tightens(self):
        g = green_of_a(SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), QUAD_TIGHT)
        assert g.mat[0, 0] < 1.0
        assert g.mat[0, 0] == pytest.approx(oracles.GREEN_QUARTIC_1D, abs=1e-12)


class TestGradientIdentity:
    """Directional derivative of Omega equals 1/2 Tr[G dA]."""

    @pytest.mark.parametrize(
        "a, u",
        [
            (np.eye(2), ZeroInteraction(2)),
            (np.array([[1.0]]), DiagonalQuartic([[1.0]])),
            (np.diag([1.0, -0.2]), DiagonalQuartic([[1.0, 0.5], [0.5, 1.0]])),
        ],
    )
    def test_central_differences(self, a, u):
        n = a.shape[0]
        rng = np.random.default_rng(42)
        rep = evaluate_moments(SymMatrix(a), u, QUAD)
        h = 1e-4
        for _ in range(3):
            d = rng.standard_normal((n, n))
            d = 0.5 * (d + d.T)
            d /= np.linalg.norm(d)
            plus = evaluate_moments(SymMatrix(a + h * d), u, QUAD).omega
            minus = evaluate_moments(SymMatrix(a - h * d), u, QUAD).omega
            fd = (plus - minus) / (2.0 * h)
            exact = 0.5 * float(np.sum(rep.green.mat * d))
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)


class TestFourthMoments:
    def test_pairings_agree(self):
        cfg = OracleConfig(want_fourth_moments=True)
        u = DiagonalQuartic([[1.0, 0.3], [0.3, 1.0]])
        m4 = evaluate_moments(SymMatrix(np.eye(2)), u, cfg).pair_moments
        assert m4.shape == (3, 3)
        assert_pairings_agree(m4, 2, 1e-10)

    def test_gaussian_wick(self):
        # independent oracle: Wick pairing of Gaussian fourth moments
        cfg = OracleConfig(want_fourth_moments=True)
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        rep = evaluate_moments(SymMatrix(a), ZeroInteraction(2), cfg)
        assert np.abs(rep.pair_moments - at_pairs(wick(np.linalg.inv(a)))).max() <= 1e-10

    def test_gaussian_across_chunks(self):
        # the grid spans several chunks and ends in a partial one
        nodes = 50
        assert nodes**3 > QUAD_CHUNK and nodes**3 % QUAD_CHUNK != 0
        cfg = OracleConfig(nodes_per_dim=nodes, want_fourth_moments=True)
        rep = evaluate_moments(SymMatrix(A3), ZeroInteraction(3), cfg)
        g = np.linalg.inv(A3)
        assert rep.omega == pytest.approx(gaussian_omega(A3), abs=1e-10)
        assert np.abs(rep.green.mat - g).max() <= 1e-10
        assert np.abs(rep.pair_moments - at_pairs(wick(g))).max() <= 1e-10

    def test_absent_unless_requested(self):
        rep = evaluate_moments(SymMatrix([[1.0]]), ZeroInteraction(1), QUAD)
        assert rep.pair_moments is None


class TestOneChunkGrid:
    def test_built_once_and_read_only(self):
        nodes = 16
        assert nodes**2 <= QUAD_CHUNK
        (y, logp), = _grid_chunks(2, nodes)
        (y_again, _), = _grid_chunks(2, nodes)
        assert y_again is y
        with pytest.raises(ValueError):
            y[0, 0] = 0.0
        with pytest.raises(ValueError):
            logp[0] = 0.0

    def test_repeated_calls_bit_identical(self):
        cfg = OracleConfig(nodes_per_dim=24, want_fourth_moments=True)
        u = DiagonalQuartic([[1.0, 0.5], [0.5, 1.0]])
        a = SymMatrix([[1.0, 0.3], [0.3, -0.2]])
        r1 = evaluate_moments(a, u, cfg)
        r2 = evaluate_moments(a, u, cfg)
        assert r1.to_dict() == r2.to_dict()
        assert np.array_equal(r1.pair_moments, r2.pair_moments)


def streamed_grid(n, nodes):
    """Copies of the chunks of _grid_chunks, concatenated, and the chunk sizes."""
    ys, logps = [], []
    for y, logp in _grid_chunks(n, nodes):
        ys.append(y.copy())
        logps.append(logp.copy())
    return np.concatenate(ys), np.concatenate(logps), [len(logp) for logp in logps]


class TestGridChunks:
    """A multi-chunk grid streams as whole slabs: leading indices times the full tail."""

    @staticmethod
    def assert_slabs(n, nodes):
        y, logp, sizes = streamed_grid(n, nodes)
        ref_y, ref_logp = _grid_block(n, nodes, 0, nodes**n)
        assert np.array_equal(y, ref_y)
        assert np.array_equal(logp, ref_logp)
        chunk = oracle.QUAD_CHUNK
        total = nodes**n
        tail = total if total <= chunk else max(nodes**j for j in range(n) if nodes**j <= chunk)
        assert all(size <= chunk and size % tail == 0 for size in sizes)
        assert len(set(sizes[:-1])) <= 1

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        nodes=st.integers(2, 12),
        chunk=st.sampled_from([7, 16, 100]),
    )
    def test_stream_is_the_row_major_grid(self, n, nodes, chunk):
        assume(nodes <= chunk)  # what QUAD_NODE_CAP guarantees at the real chunk size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "QUAD_CHUNK", chunk)
            self.assert_slabs(n, nodes)

    # (4, 32): the tail is exactly one chunk; (3, 50) ends in a partial chunk
    @pytest.mark.parametrize("n, nodes", [(3, 64), (3, 80), (4, 32), (3, 50)])
    def test_stream_at_the_real_chunk_size(self, n, nodes):
        self.assert_slabs(n, nodes)

    def test_default_grid_boundaries(self):
        assert streamed_grid(3, 64)[2] == [QUAD_CHUNK] * 8


class TestChunkBufferReuse:
    """One buffer per _grid_chunks call is rewritten chunk after chunk."""

    A = SymMatrix([[1.0, 0.3, 0.1], [0.3, -0.2, 0.2], [0.1, 0.2, 0.8]])
    U = DiagonalQuartic([[1.0, 0.2, 0.1], [0.2, 0.8, 0.3], [0.1, 0.3, 1.2]])

    # (50, QUAD_CHUNK): 4 chunks, the last partial; (11, 100): 14 chunks, the last partial
    @pytest.mark.parametrize("nodes, chunk", [(50, QUAD_CHUNK), (11, 100)])
    def test_stream_matches_one_whole_grid_chunk(self, monkeypatch, nodes, chunk):
        monkeypatch.setattr(oracle, "QUAD_CHUNK", chunk)
        cfg = OracleConfig(nodes_per_dim=nodes, want_fourth_moments=True)
        confining = _check_preconditions(self.A, self.U)
        streamed = _moments(self.A, self.U, cfg, confining, _grid_chunks(3, nodes))
        whole = _moments(self.A, self.U, cfg, confining, [_grid_block(3, nodes, 0, nodes**3)])
        assert streamed.omega == pytest.approx(whole.omega, rel=1e-14, abs=0.0)
        for got, want in [
            (streamed.green.mat, whole.green.mat),
            (streamed.pair_moments, whole.pair_moments),
        ]:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_repeated_calls_bit_identical(self):
        cfg = OracleConfig(nodes_per_dim=50, want_fourth_moments=True)
        assert 50**3 > QUAD_CHUNK
        r1 = evaluate_moments(self.A, self.U, cfg)
        r2 = evaluate_moments(self.A, self.U, cfg)
        assert r1.to_dict() == r2.to_dict()
        assert np.array_equal(r1.pair_moments, r2.pair_moments)

    def test_interleaved_streams_are_independent(self):
        nodes = 50
        ref_y, ref_logp = _grid_block(3, nodes, 0, nodes**3)
        ahead = _grid_chunks(3, nodes)
        next(ahead)
        start = 0
        for y, logp in _grid_chunks(3, nodes):
            # the other stream fills its next chunk while this one is alive
            other = next(ahead, None)
            stop = start + len(y)
            assert np.array_equal(y, ref_y[start:stop])
            assert np.array_equal(logp, ref_logp[start:stop])
            if other is not None:
                assert np.array_equal(other[0], ref_y[stop : stop + len(other[0])])
            start = stop
        assert start == nodes**3


class TestConcavity:
    def test_spot_check(self):
        rng = np.random.default_rng(11)
        u = DiagonalQuartic([[1.0, 0.4], [0.4, 1.0]])
        for _ in range(5):
            a1 = random_spd(2, rng)
            a2 = random_spd(2, rng)
            lam = rng.uniform(0.2, 0.8)
            mid = evaluate_moments(SymMatrix(lam * a1 + (1 - lam) * a2), u, QUAD).omega
            o1 = evaluate_moments(SymMatrix(a1), u, QUAD).omega
            o2 = evaluate_moments(SymMatrix(a2), u, QUAD).omega
            assert mid >= lam * o1 + (1 - lam) * o2 - 1e-9


class TestMonteCarlo:
    MC = OracleConfig(mode="monte_carlo", samples=200_000, seed=9)

    def test_deterministic(self):
        u = DiagonalQuartic([[1.0]])
        r1 = evaluate_moments(SymMatrix([[1.0]]), u, self.MC)
        r2 = evaluate_moments(SymMatrix([[1.0]]), u, self.MC)
        assert r1.omega == r2.omega
        assert np.array_equal(r1.green.mat, r2.green.mat)
        assert np.array_equal(r1.std_errors.green, r2.std_errors.green)

    def test_std_errors_positive(self):
        rep = evaluate_moments(SymMatrix([[1.0]]), DiagonalQuartic([[1.0]]), self.MC)
        assert rep.std_errors.omega > 0.0
        assert np.all(rep.std_errors.green > 0.0)

    def test_fourth_moment_errors_symmetric_positive(self):
        cfg = OracleConfig(mode="monte_carlo", samples=200_000, seed=9, want_fourth_moments=True)
        u = DiagonalQuartic([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        se = evaluate_moments(SymMatrix(A3), u, cfg).std_errors.pair_moments
        assert se.shape == (6, 6)
        assert np.all(se > 0.0)
        assert_pairings_agree(se, 3, 1e-10)

    def test_gaussian_fourth_moments_within_errors(self):
        # independent oracle: Wick pairing; plain sampling of N(0, A^-1)
        cfg = OracleConfig(mode="monte_carlo", samples=200_000, seed=9, want_fourth_moments=True)
        rep = evaluate_moments(SymMatrix(A3), ZeroInteraction(3), cfg)
        err = np.abs(rep.pair_moments - at_pairs(wick(np.linalg.inv(A3))))
        assert np.all(err <= 4.0 * rep.std_errors.pair_moments)

    def test_quadrature_has_no_std_errors(self):
        rep = evaluate_moments(SymMatrix([[1.0]]), ZeroInteraction(1), QUAD)
        assert rep.std_errors is None

    def test_agreement_with_quadrature(self):
        rng = np.random.default_rng(17)
        hits = total = 0
        for case in range(8):
            n = int(rng.integers(1, 4))
            a = random_spd(n, rng)
            if case % 2 == 0:
                u = ZeroInteraction(n)
            else:
                v = rng.uniform(0.2, 1.2, (n, n))
                u = DiagonalQuartic(0.5 * (v + v.T))
            quad = evaluate_moments(SymMatrix(a), u, QUAD)
            mc = evaluate_moments(
                SymMatrix(a), u, OracleConfig(mode="monte_carlo", samples=200_000, seed=case)
            )
            total += 1 + n * n
            hits += int(abs(mc.omega - quad.omega) <= 3 * mc.std_errors.omega)
            hits += int(
                np.sum(np.abs(mc.green.mat - quad.green.mat) <= 3 * mc.std_errors.green)
            )
        assert hits / total >= 0.95

    def test_gaussian_matched_envelope_is_exact(self):
        # proposal equals target: weights are unity, Omega is exact
        a = np.eye(2)
        mc = evaluate_moments(SymMatrix(a), ZeroInteraction(2), self.MC)
        assert mc.omega == pytest.approx(gaussian_omega(a), abs=1e-13)
        assert abs(mc.omega - gaussian_omega(a)) <= 3 * mc.std_errors.omega


class TestErrors:
    def test_divergent_integral(self):
        with pytest.raises(DivergentIntegral):
            evaluate_moments(SymMatrix([[-1.0]]), ZeroInteraction(1), QUAD)

    def test_unverified_growth_needs_spd(self):
        u = DiagonalQuartic([[1.0, -2.0], [-2.0, 1.0]])
        with pytest.raises(DivergentIntegral):
            evaluate_moments(SymMatrix(np.diag([1.0, -1.0])), u, QUAD)

    def test_unverified_growth_with_spd_ok(self):
        u = DiagonalQuartic([[1.0, -0.1], [-0.1, 1.0]])
        rep = evaluate_moments(SymMatrix(np.eye(2)), u, QUAD)
        assert np.isfinite(rep.omega)

    def test_envelope_lost_to_rounding_is_numerical_failure(self):
        # the lift 0.5 + 1e17 rounds to 1e17, so A + lift I is singular
        a = SymMatrix([[1e17, 0.0], [0.0, -1e17]])
        with pytest.raises(NonFinite):
            evaluate_moments(a, DiagonalQuartic(np.eye(2)), QUAD)

    def test_dimension_cap(self):
        n = 7
        with pytest.raises(DimensionCap):
            evaluate_moments(SymMatrix(np.eye(n)), ZeroInteraction(n), QUAD)

    def test_node_cap(self):
        assert QUAD_NODE_CAP <= QUAD_CHUNK  # the slab split keeps a tail axis
        cfg = OracleConfig(nodes_per_dim=QUAD_NODE_CAP + 1)
        with pytest.raises(DimensionCap):
            evaluate_moments(SymMatrix([[1.0]]), ZeroInteraction(1), cfg)

    def test_node_cap_itself_is_warning_free(self):
        # warnings fail this suite; hermgauss overflows a few nodes above the cap
        a, u = SymMatrix([[-0.5]]), DiagonalQuartic([[1.0]])
        rep = evaluate_moments(a, u, OracleConfig(nodes_per_dim=QUAD_NODE_CAP))
        ref = evaluate_moments(a, u, QUAD_TIGHT)
        assert rep.omega == pytest.approx(ref.omega, rel=1e-9)
        assert rep.green.mat[0, 0] == pytest.approx(ref.green.mat[0, 0], rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate_moments(SymMatrix(np.eye(2)), ZeroInteraction(3), QUAD)

    def test_samples_floor(self):
        with pytest.raises(Exception):
            OracleConfig(mode="monte_carlo", samples=MC_BATCHES - 1)
