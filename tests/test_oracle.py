import dataclasses
import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from lwlattice import duality, interactions, oracle
from lwlattice.diagrams import sigma1
from lwlattice.errors import (
    DimensionCap,
    DimensionMismatch,
    DivergentIntegral,
    NonFinite,
    ValidationError,
)
from lwlattice.interactions import (
    DiagonalQuartic,
    Interaction,
    ScaledInteraction,
    ZeroInteraction,
    compose,
    materialize,
    quartic_tensor,
)
from lwlattice.matrices import LinearMap, SpdMatrix, SymMatrix, plain
from lwlattice.oracle import (
    ENVELOPE_FLOOR,
    MC_BATCHES,
    MC_SAMPLE_CAP,
    QUAD_CHUNK,
    QUAD_NODE_CAP,
    OracleConfig,
    PointSet,
    _chunk_logp,
    _checked_envelope,
    _Envelope,
    _grid_chunks,
    _moments,
    _sample_chunks,
    _tensor_grid,
    evaluate_moments,
    green_of_a,
    keeps_points,
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
        # G ~ 1e10: the weighted GEMM leaves an asymmetry (6e-8 here) that is
        # rounding relative to |G|, which SymMatrix accepts and symmetrizes
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
        # the folded grid spans several chunks and ends in a partial one
        nodes = 50
        assert nodes**3 // 2 > QUAD_CHUNK and nodes**3 // 2 % QUAD_CHUNK != 0
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
        y, logp = _tensor_grid(2, nodes, fold=True)
        y_again, _ = _tensor_grid(2, nodes, fold=True)
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


def envelope(linv_t, lift=0.0):
    """An envelope with L^-T = ``linv_t`` for the point sources, which read no log_front."""
    return _Envelope(np.linalg.inv(linv_t @ linv_t.T), lift, linv_t, 0.0)


def streamed_grid(n, nodes, linv_t=None):
    """The chunks of _grid_chunks concatenated, and the chunk sizes.

    Without ``linv_t`` the map is the identity, under which every chunk holds
    the grid points y themselves, bit for bit.
    """
    linv_t = np.eye(n) if linv_t is None else linv_t
    chunks = list(_grid_chunks(nodes, ZeroInteraction(n), envelope(linv_t)))
    xs, logps = zip(*chunks)
    return np.concatenate(xs), np.concatenate(logps), [len(logp) for logp in logps]


@functools.lru_cache(maxsize=8)
def whole_grid(n, nodes):
    """The independent reference grid, built once per test run and read-only."""
    y, logp = oracles.hermite_grid(n, nodes)
    y.setflags(write=False)
    logp.setflags(write=False)
    return y, logp


class TestGridChunks:
    """The stream is the grid folded on its first axis: each point with y_0 < 0 stands for its mirror.

    A multi-chunk grid streams as whole slabs, consecutive points of the
    folded head grid times the whole tail; only the last slab may be shorter.
    """

    @staticmethod
    def assert_folded(n, nodes):
        y, logp, sizes = streamed_grid(n, nodes)
        ref_y, ref_logp = whole_grid(n, nodes)
        mirrored = nodes // 2 * nodes ** (n - 1)
        assert np.all(y[:mirrored, 0] < 0.0) and np.all(y[mirrored:, 0] == 0.0)
        # the stream followed by the mirrors of its y_0 < 0 points is the grid
        assert np.array_equal(np.concatenate([y, -y[:mirrored][::-1]]), ref_y)
        # a mirrored pair is one point carrying both probabilities
        folded = ref_logp + np.where(ref_y[:, 0] != 0.0, np.log(2.0), 0.0)
        assert np.array_equal(np.concatenate([logp, logp[:mirrored][::-1]]), folded)
        assert np.exp(logp).sum() == pytest.approx(1.0, rel=0.0, abs=1e-14)
        if nodes % 2 == 0:
            # an even grid is exactly the first half of the row-major grid
            assert len(y) == nodes**n // 2
        chunk = oracle.QUAD_CHUNK
        if len(y) <= chunk:
            assert sizes == [len(y)]
            return
        tail = max(nodes**j for j in range(n) if nodes**j <= chunk)
        *slabs, last = sizes
        assert slabs == [chunk // tail * tail] * len(slabs)
        assert 0 < last <= chunk // tail * tail and last % tail == 0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        nodes=st.integers(1, 12),
        chunk=st.sampled_from([7, 16, 100]),
    )
    def test_stream_is_the_row_major_grid(self, n, nodes, chunk):
        assume(nodes <= chunk)  # what QUAD_NODE_CAP guarantees at the real chunk size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "QUAD_CHUNK", chunk)
            self.assert_folded(n, nodes)

    # even grids of one to four axes stream the first half of the row-major
    # grid, in one chunk or several; (4, 32): the tail is exactly one chunk;
    # (3, 50) ends in a partial chunk; (3, 65) is odd, so its slab y_0 = 0 is
    # kept whole
    @pytest.mark.parametrize(
        "n, nodes",
        [(1, 64), (2, 64), (2, 96), (2, 192), (3, 32), (3, 50), (3, 64), (3, 80), (4, 16), (4, 32)]
        + [(3, 65)],
    )
    def test_stream_at_the_real_chunk_size(self, n, nodes):
        self.assert_folded(n, nodes)

    def test_default_grid_boundaries(self):
        assert streamed_grid(3, 64)[2] == [QUAD_CHUNK] * 8

    def test_single_node_grid_is_its_centre(self):
        # the one point y = 0 is its own mirror: it keeps p = 1
        (y, logp), = _grid_chunks(1, ZeroInteraction(3), envelope(np.eye(3)))
        assert np.array_equal(y, np.zeros((1, 3)))
        assert np.array_equal(logp, whole_grid(3, 1)[1])
        assert np.exp(logp).sum() == pytest.approx(1.0, rel=0.0, abs=1e-15)


class TestChunkLogpCache:
    """A streamed chunk's log p is built once per (n, nodes, chunk) and shared read-only."""

    @staticmethod
    def logps(n, nodes):
        return [logp for _, logp in _grid_chunks(nodes, ZeroInteraction(n), envelope(np.eye(n)))]

    def test_calls_share_read_only_chunks(self):
        first, second = self.logps(3, 64), self.logps(3, 64)
        assert len(first) == 8
        assert all(a is b for a, b in zip(first, second))
        for logp in first:
            with pytest.raises(ValueError):
                logp[0] = 0.0

    def test_chunks_match_the_reference_after_eviction(self):
        first = self.logps(3, 64)
        # 80^3 streams as 20 chunks, more than the cache holds: (3, 64) is evicted
        assert len(self.logps(3, 80)) > _chunk_logp.cache_info().maxsize
        again = self.logps(3, 64)
        assert not any(a is b for a, b in zip(first, again))
        ref_y, ref_logp = whole_grid(3, 64)
        half = 64**3 // 2
        folded = ref_logp[:half] + np.log(2.0)  # every point of an even grid has y_0 < 0
        assert np.all(ref_y[:half, 0] < 0.0)
        start = 0
        for logp in again:
            assert np.array_equal(logp, folded[start : start + len(logp)])
            start += len(logp)
        assert start == half


class TestChunkBufferReuse:
    """A streamed grid yields its chunks as fresh arrays that match the whole grid."""

    A = SymMatrix([[1.0, 0.3, 0.1], [0.3, -0.2, 0.2], [0.1, 0.2, 0.8]])
    U = DiagonalQuartic([[1.0, 0.2, 0.1], [0.2, 0.8, 0.3], [0.1, 0.3, 1.2]])
    # lambda_min above the envelope floor: B = A, no lift
    A_SPD = SymMatrix([[1.5, 0.3, 0.1], [0.3, 1.2, 0.2], [0.1, 0.2, 0.9]])
    SHEAR = LinearMap([[1.0, 0.4, 0.0], [0.0, 1.0, -0.3], [0.2, 0.0, 1.0]])
    SHEARED = materialize(compose(U, SHEAR))

    @staticmethod
    def assert_stream_matches_whole_grid(a, u, nodes):
        """The folded stream against _moments over the whole unfolded grid."""
        cfg = OracleConfig(nodes_per_dim=nodes, want_fourth_moments=True)
        env = _checked_envelope(a, u, cfg)
        streamed = _moments(env, u, cfg, _grid_chunks(nodes, ZeroInteraction(3), env))
        y, logp = whole_grid(3, nodes)
        whole = _moments(env, u, cfg, [((env.linv_t @ y.T).T, logp)])
        assert streamed.omega == pytest.approx(whole.omega, rel=1e-14, abs=0.0)
        for got, want in [
            (streamed.green.mat, whole.green.mat),
            (streamed.pair_moments, whole.pair_moments),
        ]:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    # (50, QUAD_CHUNK): 5 chunks, the last partial; (11, 100): 8 chunks, the last
    # partial and the slab y_0 = 0 whole
    @pytest.mark.parametrize("nodes, chunk", [(50, QUAD_CHUNK), (11, 100)])
    def test_stream_matches_one_whole_grid_chunk(self, monkeypatch, nodes, chunk):
        monkeypatch.setattr(oracle, "QUAD_CHUNK", chunk)
        self.assert_stream_matches_whole_grid(self.A, self.U, nodes)

    @pytest.mark.parametrize(
        "case, nodes",
        [
            ("sheared", 24),  # GeneralQuartic, repaired envelope, one chunk
            ("unrepaired", 24),  # lift = 0, one chunk
            ("sheared", 65),  # odd: the slab y_0 = 0 whole, several chunks
            ("unrepaired", 65),
        ],
    )
    def test_other_integrands_match_the_whole_grid(self, case, nodes):
        a, u = {"sheared": (self.A, self.SHEARED), "unrepaired": (self.A_SPD, self.U)}[case]
        if case == "unrepaired":
            assert np.linalg.eigvalsh(a.mat)[0] >= ENVELOPE_FLOOR
        self.assert_stream_matches_whole_grid(a, u, nodes)

    def test_repeated_calls_bit_identical(self):
        cfg = OracleConfig(nodes_per_dim=50, want_fourth_moments=True)
        assert 50**3 > 2 * QUAD_CHUNK
        r1 = evaluate_moments(self.A, self.U, cfg)
        r2 = evaluate_moments(self.A, self.U, cfg)
        assert r1.to_dict() == r2.to_dict()
        assert np.array_equal(r1.pair_moments, r2.pair_moments)

    def test_interleaved_streams_are_independent(self):
        nodes = 50
        half = nodes**3 // 2
        ref_y, ref_logp = whole_grid(3, nodes)
        ref_y, ref_logp = ref_y[:half], ref_logp[:half] + np.log(2.0)
        ahead = _grid_chunks(nodes, ZeroInteraction(3), envelope(np.eye(3)))
        next(ahead)
        start = 0
        for y, logp in _grid_chunks(nodes, ZeroInteraction(3), envelope(np.eye(3))):
            # the other stream fills its next chunk while this one is alive
            other = next(ahead, None)
            stop = start + len(y)
            assert np.array_equal(y, ref_y[start:stop])
            assert np.array_equal(logp, ref_logp[start:stop])
            if other is not None:
                assert np.array_equal(other[0], ref_y[stop : stop + len(other[0])])
            start = stop
        assert start == half


class TestMappedPoints:
    """Point sources yield x = L^-T y: a streamed grid as sums of its mapped
    head and tail coordinates, a one-chunk grid and a Monte Carlo batch with
    one matrix product."""

    @staticmethod
    def linv_t(n):
        """L^-T of a dense SPD envelope B = L L'."""
        low = np.linalg.cholesky(random_spd(n, np.random.default_rng(n)))
        return np.linalg.inv(low).T

    # (2, 192): one lead axis and a 192-point tail; (3, 50) ends in a partial
    # chunk; (3, 65) is odd; (4, 32) has two lead axes
    @pytest.mark.parametrize("n, nodes", [(2, 192), (3, 50), (3, 64), (3, 65), (4, 32)])
    def test_streamed_chunks_match_the_whole_grid_product(self, n, nodes):
        linv_t = self.linv_t(n)
        x, logp, sizes = streamed_grid(n, nodes, linv_t)
        assert len(sizes) > 1
        # the stream is the start of the row-major grid (see TestGridChunks)
        ref_x = (linv_t @ whole_grid(n, nodes)[0][: len(x)].T).T
        # measured: at most 1 ulp of the largest coordinate (2.1e-16 relative)
        assert np.abs(x - ref_x).max() <= 1e-14 * np.abs(ref_x).max()
        # the log-probabilities do not depend on the map
        assert np.array_equal(logp, streamed_grid(n, nodes)[1])

    def test_streamed_chunks_are_coordinate_major(self):
        chunks = list(_grid_chunks(64, ZeroInteraction(3), envelope(self.linv_t(3))))
        assert len(chunks) == 8
        for x, _ in chunks:
            assert x.shape == (QUAD_CHUNK, 3) and x.flags.f_contiguous

    def test_one_chunk_grid_is_one_product(self):
        linv_t = self.linv_t(2)
        (x, logp), = _grid_chunks(16, ZeroInteraction(2), envelope(linv_t))
        y, grid_logp = _tensor_grid(2, 16, fold=True)
        assert np.array_equal(x, (linv_t @ y.T).T)
        assert logp is grid_logp

    def test_monte_carlo_batches_are_one_product(self):
        n, samples = 3, 6400
        cfg = OracleConfig(mode="monte_carlo", samples=samples, seed=7)
        linv_t = self.linv_t(n)
        batches = list(_sample_chunks(cfg, envelope(linv_t)))
        assert len(batches) == MC_BATCHES
        for batch, (x, logp) in enumerate(batches):
            rng = np.random.Generator(np.random.Philox(key=[cfg.seed, batch]))
            y = rng.standard_normal((samples // MC_BATCHES, n))
            assert np.array_equal(x, (linv_t @ y.T).T)
            assert logp == -np.log(samples)


def kernel_rows(u, lift, x, logp):
    """The shift of one chunk and the rows (x, log p) that _moments sums, computed as it does."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi = -u.evaluate(x)
        if lift:
            phi += 0.5 * lift * np.einsum("mi,mi->m", x, x)
    logw = phi + logp
    shift = logw.max()
    logw -= shift
    keep = logw > -oracle._NEGLIGIBLE_LOGW
    return shift, x[keep], logp[keep]


class TestScreenedGrid:
    """A streamed grid yields only the points where the kernel can keep weight.

    The screen approximates every point's log-weight by the quartic expanded
    over head and tail coordinates; what it yields must leave the kernel the
    same shift and the same summed rows as the whole chunk.
    """

    # leads 1 ((3, 64), (3, 128), (4, 20)), 2 ((3, 200), (4, 32), (5, 16), (6, 10))
    # and 3 ((6, 12)); (3, 50) ends in a partial chunk
    GRIDS = [(3, 50), (3, 64), (3, 80), (3, 128), (3, 200), (4, 20), (4, 32), (4, 48)]
    GRIDS += [(5, 12), (5, 16), (6, 10), (6, 12)]

    @staticmethod
    def interactions(n):
        """A diagonal quartic and a scaled, lazily composed one in dimension n."""
        rng = np.random.default_rng(n)
        v = rng.uniform(0.2, 1.0, (n, n))
        v = (v + v.T) / 2.0 + np.eye(n)
        shear = LinearMap(np.eye(n) + 0.3 * np.triu(rng.standard_normal((n, n)), 1))
        return DiagonalQuartic(v), compose(ScaledInteraction(0.5, DiagonalQuartic(v)), shear)

    @staticmethod
    def lead(n, nodes):
        return next(k for k in range(1, n) if nodes ** (n - k) <= QUAD_CHUNK)

    def test_grids_cover_every_lead(self):
        assert {self.lead(n, nodes) for n, nodes in self.GRIDS} == {1, 2, 3}

    @staticmethod
    def yielded(n, nodes, u, lift, linv_t):
        """Points the screened stream yields, asserting that every chunk
        leaves the kernel the rows of the whole chunk."""
        whole = _grid_chunks(nodes, ZeroInteraction(n), envelope(linv_t))
        count = 0
        for (x, logp), (x_all, logp_all) in zip(
            _grid_chunks(nodes, u, envelope(linv_t, lift)), whole, strict=True
        ):
            assert x.flags.f_contiguous and len(x) == len(logp)
            shift, rows, row_logp = kernel_rows(u, lift, x, logp)
            shift_all, rows_all, row_logp_all = kernel_rows(u, lift, x_all, logp_all)
            assert shift == shift_all
            assert np.array_equal(rows, rows_all) and np.array_equal(row_logp, row_logp_all)
            count += len(x)
        return count

    @pytest.mark.parametrize("n, nodes", GRIDS)
    def test_kernel_sums_the_same_rows(self, n, nodes):
        linv_t = TestMappedPoints.linv_t(n)
        # lift 0 and lift > 0, each interaction with one of them
        lifts = (0.0, 0.7) if self.GRIDS.index((n, nodes)) % 2 else (0.7, 0.0)
        size = (nodes + 1) // 2 * nodes ** (n - 1)
        for u, lift in zip(self.interactions(n), lifts):
            assert self.yielded(n, nodes, u, lift, linv_t) < size

    def test_reports_match_the_whole_stream_bit_for_bit(self):
        cfg = OracleConfig(nodes_per_dim=64, want_fourth_moments=True)
        spd = SymMatrix(np.linalg.inv(random_spd(3, np.random.default_rng(1))))
        indefinite = SymMatrix([[1.0, 0.3, 0.1], [0.3, -0.2, 0.2], [0.1, 0.2, 0.8]])
        for a in (spd, indefinite):
            for u in self.interactions(3):
                env = _checked_envelope(a, u, cfg)
                whole = _moments(env, u, cfg, _grid_chunks(64, ZeroInteraction(3), env))
                screened = evaluate_moments(a, u, cfg)
                assert screened.to_dict() == whole.to_dict()
                assert np.array_equal(screened.pair_moments, whole.pair_moments)

    @pytest.fixture
    def yielded_share(self, monkeypatch):
        """Points yielded over grid points streamed, across every streamed oracle call."""
        counts = [0, 0]
        grid_chunks = oracle._grid_chunks

        def counting(nodes, u, env):
            for x, logp in grid_chunks(nodes, u, env):
                counts[0] += len(x)
                yield x, logp
            counts[1] += (nodes + 1) // 2 * nodes ** (len(env.linv_t) - 1)

        monkeypatch.setattr(oracle, "_grid_chunks", counting)
        return lambda: counts[0] / counts[1]

    def test_the_benchmark_inversions_stream_a_quarter_of_their_grids_at_most(self, yielded_share):
        # the n = 3, 64-node inversions of the lw-quad benchmark, unjittered:
        # 11%, 27% and 9% of their grids remain, 17% in all
        v = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]])
        g_small = [[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]]
        g_large = [[5.0, 1.9, 1.0], [1.9, 1.8, 0.5], [1.0, 0.5, 0.95]]
        shear = LinearMap([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
        for g, u in [
            (g_small, DiagonalQuartic(v)),
            (g_large, DiagonalQuartic(0.1 * v)),
            (g_small, materialize(compose(DiagonalQuartic(v), shear))),
        ]:
            duality.lw_evaluate(SpdMatrix(g), u, QUAD)
        assert 0.0 < yielded_share() <= 0.25

    def test_zero_and_custom_interactions_stream_the_whole_grid(self, yielded_share):
        class Custom(Interaction):
            def __init__(self):
                self._freeze(n=3)

            def _evaluate(self, batch):
                return np.sum(batch**4, axis=1) / 8.0

        a = SymMatrix(np.eye(3) + 0.1)
        for u in (ZeroInteraction(3), Custom()):
            evaluate_moments(a, u, QUAD)
        assert yielded_share() == 1.0

    # the screen's error bound delta is about 0.45 at factor 4e6, so the
    # margin is tightest there; it is 1.13 at 1e7, just above the switch, and
    # overflows at 1e300 and 1e303: those grids stream whole
    @pytest.mark.parametrize("factor, screened", [(4e6, True), (1e7, False), (1e300, False), (1e303, False)])
    def test_large_couplings_give_the_whole_streams_values(self, yielded_share, factor, screened):
        a, u = SymMatrix(np.eye(3)), ScaledInteraction(factor, DiagonalQuartic(np.eye(3)))
        cfg = OracleConfig(nodes_per_dim=64, want_fourth_moments=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_moments(a, u, cfg)
        assert (yielded_share() < 1.0) == screened
        env = _Envelope.of(a.mat, 0.0)
        whole = _moments(env, u, cfg, oracle._grid_chunks(64, ZeroInteraction(3), env))
        assert got.to_dict() == whole.to_dict()
        assert np.array_equal(got.pair_moments, whole.pair_moments)

    @staticmethod
    def quartics(n):
        """Diagonal, general, scaled and lazily composed quartics in dimension n."""
        diagonal, composed = TestScreenedGrid.interactions(n)
        shear = LinearMap(np.eye(n) + 0.2 * np.tril(np.ones((n, n)), -1))
        general = materialize(compose(diagonal, shear))
        return [diagonal, general, ScaledInteraction(3.0, diagonal), composed]

    # leads 1, 2 and 3; measured: the expansion lies within 3e-11 of the
    # kernel's log-weight, and delta is 2e-5 to 4e-4
    @pytest.mark.parametrize("n, nodes", [(3, 64), (4, 32), (6, 12)])
    def test_expansion_is_the_kernels_log_weight(self, n, nodes):
        linv_t = TestMappedPoints.linv_t(n)
        lead = self.lead(n, nodes)
        tail_y = _tensor_grid(n - lead, nodes, fold=False)[0]
        heads = (nodes + 1) // 2 * nodes ** (n - 1) // len(tail_y)
        head_x = linv_t[:, :lead] @ _tensor_grid(lead, nodes, fold=False)[0][:heads].T
        tail_x = linv_t[:, lead:] @ tail_y.T
        for u in self.quartics(n):
            screens = {
                lift: oracle._grid_screen(u, envelope(linv_t, lift), nodes, lead, head_x, tail_x)
                for lift in (0.0, 0.7)
            }
            start = 0
            for x, logp in _grid_chunks(nodes, ZeroInteraction(n), envelope(linv_t)):
                stop = start + len(x) // len(tail_y)
                uvals = u.evaluate(x)
                for lift, (head_logw, tail_logw, margin) in screens.items():
                    # the log-weight as the kernel computes it
                    phi = -uvals
                    if lift:
                        phi = phi + 0.5 * lift * np.einsum("mi,mi->m", x, x)
                    approx = (head_logw[start:stop] @ tail_logw).ravel()
                    delta = (margin - oracle._NEGLIGIBLE_LOGW) / 2.0
                    assert 0.0 < delta <= 1.0
                    assert np.abs(approx - (phi + logp)).max() <= delta
                start = stop
            assert start == heads

    def test_ill_conditioned_maps_keep_the_kernels_rows(self):
        # maps that cancel exactly, so that the tensor is the inner one's; but
        # the kernel evaluates U through every map, where a coordinate grows
        # to 2.7e13 times its size and rounds accordingly, moving U by up to
        # about 5 near the kept points
        base = DiagonalQuartic(np.eye(3) + 0.2)
        maps = [np.diag([3e4, 1.0, 1.0]), np.eye(3), np.eye(3)]
        maps[1][1, 0] = maps[2][2, 1] = 3e4
        u = base
        for t in maps:  # applied last, innermost
            u = compose(u, LinearMap(np.linalg.inv(t)))
        for t in maps[::-1]:
            u = compose(u, LinearMap(t))
        assert np.array_equal(quartic_tensor(u), quartic_tensor(base))
        self.yielded(3, 64, u, 0.0, TestMappedPoints.linv_t(3))

    def test_overflow_on_a_streamed_grid_is_nonfinite(self):
        # U overflows on the far tail of the 64^3 grid: the kernel sees every point
        u = ScaledInteraction(1e305, DiagonalQuartic(np.eye(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="non-finite integrand value"):
                evaluate_moments(SymMatrix(np.eye(3)), u, QUAD)

    def test_scale_is_read_off_the_cached_record(self, monkeypatch):
        # the screen's S comes with the tensor: a second streamed call on the
        # same value walks its wrappers no more
        a, u = SymMatrix(np.eye(3) + 0.1), self.interactions(3)[1]
        first = evaluate_moments(a, u, QUAD)
        calls = []
        unwound = interactions._unwound
        monkeypatch.setattr(interactions, "_unwound", lambda v: calls.append(v) or unwound(v))
        again = evaluate_moments(a, u, QUAD)
        assert calls == []
        assert again.to_dict() == first.to_dict()


class TestTransferMatrixRings:
    """Streamed grids against tests/oracles.ring_moments, an independent route.

    Nearest-neighbour rings with A_{i,i+1} = -0.3 and v_ii = 1. n = 3 at 64
    nodes is the cached streamed grid, n = 4 at 64 nodes a grid beyond the
    cache; at A_ii = -0.5, A is not SPD and the envelope is repaired. The
    bounds are about twice the measured difference (in brackets), which is
    the library's quadrature error: it falls with the node count.
    """

    @pytest.mark.parametrize(
        "n, a_site, v_bond, nodes, omega_bound, green_bound",
        [
            (3, 1.0, 0.3, 64, 1e-8, 1e-8),  # (4.4e-9, 4.8e-9)
            (3, -0.5, 0.2, 64, 2e-7, 5e-7),  # (7.7e-8, 2.2e-7)
            (3, 1.0, 0.3, 128, 1e-13, 1e-12),  # (4.9e-14, 5.1e-13)
            (3, -0.5, 0.2, 128, 1e-11, 1e-10),  # (2.7e-12, 3.4e-11)
            (4, 1.0, 0.3, 64, 5e-9, 3e-8),  # (1.7e-9, 1.3e-8)
            (4, -0.5, 0.2, 64, 1e-7, 5e-7),  # (3.0e-8, 2.0e-7)
        ],
    )
    def test_forward_moments(self, n, a_site, v_bond, nodes, omega_bound, green_bound):
        a, v = oracles.ring_matrices(n, a_site, -0.3, 1.0, v_bond)
        omega, green = oracles.ring_moments(a, v)
        cfg = OracleConfig(nodes_per_dim=nodes)
        report = evaluate_moments(SymMatrix(a), DiagonalQuartic(v), cfg)
        assert abs(report.omega - omega) <= omega_bound
        assert np.abs(report.green.mat - green).max() <= green_bound


class TestNegligiblePoints:
    """Points far below their chunk's largest log-weight are left out of the sums."""

    V = [[1.0, 0.5], [0.5, 1.0]]
    CASES = {
        "spd-diagonal": (SymMatrix([[1.2, 0.2], [0.2, 0.9]]), DiagonalQuartic(V)),
        # the repaired envelope: lambda_min(A) < 0
        "repaired": (SymMatrix(oracles.A_2D), DiagonalQuartic(oracles.V_2D)),
        "general": (
            SymMatrix([[1.0, 0.3], [0.3, -0.4]]),
            materialize(compose(DiagonalQuartic(V), LinearMap([[1.0, 0.4], [-0.2, 1.0]]))),
        ),
        # n = 3 at 64 nodes: eight chunks
        "streamed": (TestChunkBufferReuse.A, TestChunkBufferReuse.U),
    }

    # measured: |d omega| <= 4.5e-16, and G and the pair block within 1.7e-15
    # and 5.1e-15 of their largest entry; with points left out below e^-5 of
    # their chunk's largest weight, omega moves by 2e-3
    @pytest.mark.parametrize("case", CASES)
    def test_sums_match_every_point_of_the_grid(self, case):
        a, u = self.CASES[case]
        cfg = OracleConfig(nodes_per_dim=64, want_fourth_moments=True)
        rep = evaluate_moments(a, u, cfg)
        omega, green, block = oracles.grid_moments(a.mat, u, 64, ENVELOPE_FLOOR)
        assert abs(rep.omega - omega) <= 1e-14
        assert np.abs(rep.green.mat - green).max() <= 2e-14 * np.abs(green).max()
        assert np.abs(rep.pair_moments - block).max() <= 2e-14 * np.abs(block).max()

    @staticmethod
    def rows_of_pair_block(monkeypatch):
        rows = []
        pair_products = oracle.pair_products
        monkeypatch.setattr(
            oracle, "pair_products", lambda x, out=None: rows.append(len(x)) or pair_products(x, out)
        )
        return rows

    def test_pair_block_sees_a_fraction_of_the_grid(self, monkeypatch):
        # the three lw_evaluate targets of the lw-quad benchmark, unjittered
        v = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]])
        small = SpdMatrix([[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]])
        large = SpdMatrix([[5.0, 1.9, 1.0], [1.9, 1.8, 0.5], [1.0, 0.5, 0.95]])
        shear = LinearMap([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
        rows = self.rows_of_pair_block(monkeypatch)
        stored = []  # the rows of steps on stored points, moved out of rows
        moments = oracle.PointSet.moments

        def on_stored_points(points, a):
            start = len(rows)
            try:
                return moments(points, a)
            finally:
                stored.extend(rows[start:])
                del rows[start:]

        monkeypatch.setattr(oracle.PointSet, "moments", on_stored_points)
        cfg = OracleConfig(nodes_per_dim=64)

        def solve():
            for g, u in [
                (small, DiagonalQuartic(v)),
                (large, DiagonalQuartic(0.1 * v)),  # A[G] indefinite
                (small, materialize(compose(DiagonalQuartic(v), shear))),
            ]:
                duality.lw_evaluate(g, u, cfg)

        solve()
        # every chunk of the folded 64^3 grid holds QUAD_CHUNK points; 17% reach it
        assert 64**3 // 2 % QUAD_CHUNK == 0
        assert rows and sum(rows) < 0.25 * len(rows) * QUAD_CHUNK
        # a stored chunk holds only points that reach the pair block, so its
        # rows are not a share of the grid; the steps on stored points must
        # sum fewer rows in all than the same solves with fresh steps only
        assert stored
        total = sum(rows) + sum(stored)
        rows.clear()
        monkeypatch.setattr(duality, "keeps_points", lambda u, cfg: False)
        solve()
        assert total < sum(rows)

    def test_monte_carlo_keeps_every_draw(self, monkeypatch):
        # the start of the invert-mc benchmark's inverse_map, unjittered
        g = SpdMatrix(0.6 * np.eye(6) + 0.1 * (np.eye(6, k=1) + np.eye(6, k=-1)))
        u = ScaledInteraction(0.2, DiagonalQuartic(0.3 * np.ones((6, 6)) + 0.7 * np.eye(6)))
        cfg = OracleConfig(mode="monte_carlo", samples=200_000, seed=1, want_fourth_moments=True)
        start = SymMatrix(g.inverse() + 0.2 * sigma1(g, u.inner.v).mat)
        rows = self.rows_of_pair_block(monkeypatch)
        evaluate_moments(start, u, cfg)
        assert rows and set(rows) == {200_000 // MC_BATCHES}

    def test_overflow_in_the_far_tail_is_still_caught(self):
        # U overflows only where |x| > 10.9; the finiteness check sees every point
        inner = DiagonalQuartic(np.eye(2))
        (y, _), = _grid_chunks(64, ZeroInteraction(2), envelope(np.eye(2)))
        overflows = inner.evaluate(y) > np.finfo(float).max / 1e305
        assert 0 < overflows.sum() < len(y) // 2
        assert np.sqrt((y[overflows] ** 2).sum(axis=1)).min() > 10.9
        # NonFinite is the one report: no overflow warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="non-finite integrand value"):
                evaluate_moments(SymMatrix(np.eye(2)), ScaledInteraction(1e305, inner), QUAD)

    # omega / v at 1e20 (quadrature) and 1e26 (Monte Carlo): the points with
    # the least U carry all the weight, so omega is linear in v from there on
    @pytest.mark.parametrize(
        "cfg, v, v_ref",
        [
            (OracleConfig(nodes_per_dim=64), 1e24, 1e20),
            (OracleConfig(mode="monte_carlo", samples=6400, seed=1), 1e30, 1e26),
        ],
    )
    def test_largest_point_kept_at_huge_log_weights(self, cfg, v, v_ref):
        # some chunk's largest log-weight lies far past -3.6e17, where
        # shift - _NEGLIGIBLE_LOGW rounds to shift itself
        a = SymMatrix([[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = evaluate_moments(a, DiagonalQuartic([[v]]), cfg)
            ref = evaluate_moments(a, DiagonalQuartic([[v_ref]]), cfg)
        assert np.isfinite(rep.omega) and np.all(np.isfinite(rep.green.mat))
        assert rep.omega / v == pytest.approx(ref.omega / v_ref, rel=1e-6)
        assert rep.green.mat[0, 0] == pytest.approx(ref.green.mat[0, 0], rel=1e-6)


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

    def test_gaussian_fourth_moments_within_errors(self):
        # independent oracle: Wick pairing; plain sampling of N(0, A^-1). The
        # error of the mean over eight seeds is their spread over sqrt(8).
        blocks = np.array(
            [
                evaluate_moments(
                    SymMatrix(A3),
                    ZeroInteraction(3),
                    OracleConfig(
                        mode="monte_carlo", samples=200_000, seed=seed, want_fourth_moments=True
                    ),
                ).pair_moments
                for seed in range(8)
            ]
        )
        se = blocks.std(axis=0, ddof=1) / np.sqrt(len(blocks))
        err = np.abs(blocks.mean(axis=0) - at_pairs(wick(np.linalg.inv(A3))))
        assert np.all(err <= 4.0 * se)

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

    def test_non_finite_integrand(self):
        # U overflows to inf at the outer nodes
        with pytest.raises(NonFinite, match="non-finite integrand value"):
            evaluate_moments(
                SymMatrix([[1.0]]), DiagonalQuartic([[1e306]]), OracleConfig(nodes_per_dim=16)
            )

    def test_unverified_growth_needs_spd(self):
        u = DiagonalQuartic([[1.0, -2.0], [-2.0, 1.0]])
        with pytest.raises(DivergentIntegral):
            evaluate_moments(SymMatrix(np.diag([1.0, -1.0])), u, QUAD)

    def test_unverified_growth_with_spd_ok(self):
        u = DiagonalQuartic([[1.0, -0.1], [-0.1, 1.0]])
        rep = evaluate_moments(SymMatrix(np.eye(2)), u, QUAD)
        assert np.isfinite(rep.omega)

    @pytest.mark.parametrize(
        "solve",
        [
            # G near 1e310 overflows in the second moments
            lambda: evaluate_moments(SymMatrix([[1e-310]]), ZeroInteraction(1), QUAD),
            # the pair block near 3e600 overflows, G near 1e300 does not
            lambda: evaluate_moments(
                SymMatrix([[1e-300]]), ZeroInteraction(1), OracleConfig(want_fourth_moments=True)
            ),
            # 64 batch sums near 1e307 overflow in the reduction
            lambda: evaluate_moments(
                SymMatrix([[1e-305]]), ZeroInteraction(1), OracleConfig(mode="monte_carlo", samples=6400)
            ),
            # the solve's pair block near 3e600, at A near 1e-300
            lambda: duality.inverse_map(SpdMatrix([[1e300]]), ZeroInteraction(1), QUAD),
        ],
        ids=["green", "pair-block", "monte-carlo", "inverse-map"],
    )
    def test_overflowing_moments_are_nonfinite(self, solve):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="moments overflowed"):
                solve()

    def test_envelope_lost_to_rounding_is_numerical_failure(self):
        # the lift 0.5 + 1e17 rounds to 1e17, so A + lift I is singular
        a = SymMatrix([[1e17, 0.0], [0.0, -1e17]])
        with pytest.raises(NonFinite):
            evaluate_moments(a, DiagonalQuartic(np.eye(2)), QUAD)

    @pytest.mark.parametrize(
        "a, u, error",
        [
            (SymMatrix(-np.eye(7)), ZeroInteraction(6), DimensionMismatch),
            (SymMatrix(-np.eye(7)), ZeroInteraction(7), DivergentIntegral),
            # the envelope of this A is singular (NonFinite), but n = 7 is over the cap
            (
                SymMatrix(np.diag([1e17, -1e17, 1, 1, 1, 1, 1])),
                DiagonalQuartic(np.eye(7)),
                DimensionCap,
            ),
        ],
    )
    def test_error_order(self, a, u, error):
        with pytest.raises(error):
            evaluate_moments(a, u, QUAD)

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        u = DiagonalQuartic([[1.0, -0.1], [-0.1, 1.0]])  # uncertified: A must be SPD
        evaluate_moments(SymMatrix(np.eye(2)), u, QUAD)
        assert len(calls) == 1

    def test_dimension_cap(self):
        n = 7
        with pytest.raises(DimensionCap):
            evaluate_moments(SymMatrix(np.eye(n)), ZeroInteraction(n), QUAD)

    def test_grid_cap_before_any_node(self, monkeypatch):
        # n = 5 and 30 nodes are each within their caps, 30^5 points are not
        monkeypatch.setattr(oracle, "_grid_chunks", lambda *args: pytest.fail("grid built"))
        with pytest.raises(DimensionCap, match=r"tensor grid of 30\^5 points"):
            evaluate_moments(SymMatrix(np.eye(5)), ZeroInteraction(5), OracleConfig(nodes_per_dim=30))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"mode": "exact"}, "mode must be one of"),
            ({"seed": 2**64}, "seed must fit in 64 unsigned bits"),
        ],
    )
    def test_config_rejected(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            OracleConfig(**fields)

    def test_envelope_floor_is_a_constant(self):
        assert "envelope_floor" not in {f.name for f in dataclasses.fields(OracleConfig)}
        assert OracleConfig().envelope_floor == ENVELOPE_FLOOR == 0.5
        with pytest.raises(TypeError):
            OracleConfig(envelope_floor=1.0)

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

    def test_samples_cap(self):
        OracleConfig(mode="monte_carlo", samples=MC_SAMPLE_CAP)
        with pytest.raises(ValidationError, match="samples must be at most"):
            OracleConfig(mode="monte_carlo", samples=MC_SAMPLE_CAP + MC_BATCHES)

    def test_samples_rounded_down_to_whole_batches(self):
        a, u = SymMatrix([[1.0]]), DiagonalQuartic([[1.0]])
        reports = [
            evaluate_moments(a, u, OracleConfig(mode="monte_carlo", samples=s, seed=4))
            for s in (100, MC_BATCHES)
        ]
        assert reports[0].to_dict() == reports[1].to_dict()


class TestPointSet:
    """Moments on a PointSet's stored points against fresh evaluations, two routes.

    The inputs are those of the lw-quad benchmark, unjittered, at n = 3 and
    64 nodes (a streamed grid of 8 chunks): a diagonal quartic at an SPD A,
    whose envelope is A itself, a weak one at an indefinite A, whose
    envelope is lifted, and a sheared general quartic.
    """

    V3 = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]])
    A_SPD = np.linalg.inv([[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]])
    A_INDEFINITE = np.array([[-0.07, -0.36, -0.23], [-0.36, 0.7, -0.15], [-0.23, -0.15, 1.1]])
    SHEAR = LinearMap([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
    FULL = OracleConfig(want_fourth_moments=True)

    @classmethod
    def cases(cls):
        return {
            "diagonal-spd": (cls.A_SPD, DiagonalQuartic(cls.V3)),
            "diagonal-lifted": (cls.A_INDEFINITE, DiagonalQuartic(0.1 * cls.V3)),
            "general": (cls.A_SPD, materialize(compose(DiagonalQuartic(cls.V3), cls.SHEAR))),
        }

    @staticmethod
    def assert_reports_agree(got, want, rel):
        for name in ("omega", "green", "mean_interaction", "pair_moments"):
            x, y = np.asarray(plain(getattr(got, name))), np.asarray(plain(getattr(want, name)))
            assert np.abs(x - y).max() <= rel * np.abs(y).max(), name

    @pytest.mark.parametrize("name", ["diagonal-spd", "diagonal-lifted", "general"])
    def test_at_its_own_a_the_set_is_the_fresh_evaluation(self, name):
        a, u = self.cases()[name]
        a = SymMatrix(a)
        assert keeps_points(u, QUAD)
        report, points = PointSet.evaluate(a, u, QUAD)
        # the evaluation that keeps the points is a fresh one, bit for bit
        assert report.to_dict() == evaluate_moments(a, u, QUAD).to_dict()
        assert (points.env.lift > 0.0) == (name == "diagonal-lifted")
        self.assert_reports_agree(points.moments(a), evaluate_moments(a, u, self.FULL), 1e-13)

    @pytest.mark.parametrize("name", ["diagonal-spd", "diagonal-lifted", "general"])
    def test_at_a_moved_a_the_set_matches_a_fresh_evaluation(self, name):
        # a move of 1e-2 changes G by 1e-3 to 1e-2 relative; the stored rule
        # matched the fresh one to about 1e-15 on these inputs
        a, u = self.cases()[name]
        e = np.random.default_rng(8).uniform(-1.0, 1.0, (3, 3))
        moved = SymMatrix(a + 0.5e-2 * (e + e.T))
        _, points = PointSet.evaluate(SymMatrix(a), u, QUAD)
        fresh = evaluate_moments(moved, u, self.FULL)
        assert np.abs(fresh.green.mat - evaluate_moments(SymMatrix(a), u, QUAD).green.mat).max() > 1e-4
        self.assert_reports_agree(points.moments(moved), fresh, 1e-8)

    def test_divergent_a_under_unverified_growth(self):
        # v is positive definite, but v_12 < 0 keeps the growth unverified
        u = DiagonalQuartic([[1.0, -0.6, 0.0], [-0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
        _, points = PointSet.evaluate(SymMatrix(self.A_SPD), u, QUAD)
        indefinite = SymMatrix(self.A_SPD - 3.0 * np.eye(3))
        with pytest.raises(DivergentIntegral):
            evaluate_moments(indefinite, u, QUAD)
        with pytest.raises(DivergentIntegral):
            points.moments(indefinite)

    def test_a_step_under_a_confining_u_runs_no_eigendecomposition(self, monkeypatch):
        # v >= 0 entrywise: U is superquadratic, so no A can make the sum diverge
        u = DiagonalQuartic(self.V3)
        _, points = PointSet.evaluate(SymMatrix(self.A_SPD), u, QUAD)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        report = points.moments(SymMatrix(self.A_SPD - 0.1 * np.eye(3)))
        assert np.isfinite(report.omega)
        assert calls == []
        with pytest.raises(DimensionMismatch):
            points.moments(SymMatrix(np.eye(2)))

    def test_non_finite_weights(self):
        # B - A' of 1e307 overflows x'(B - A')x / 2 on the stored points
        u = DiagonalQuartic(self.V3)
        _, points = PointSet.evaluate(SymMatrix(self.A_SPD), u, QUAD)
        with pytest.raises(NonFinite, match="non-finite integrand value"):
            points.moments(SymMatrix(self.A_SPD - 1e307 * np.eye(3)))

    def test_monte_carlo_config_is_refused_before_any_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(oracle, "_grid_chunks", no_grid)
        cfg = OracleConfig(mode="monte_carlo", samples=6400)
        with pytest.raises(ValidationError, match="quadrature"):
            PointSet.evaluate(SymMatrix(np.eye(3)), DiagonalQuartic(np.eye(3)), cfg)


class TestKeepsPoints:
    """Which solves take their steps on stored points: streamed grids of at most POINT_SET_DIM_CAP dimensions."""

    @pytest.mark.parametrize(
        "n, nodes, keeps",
        # 64^3 streams as 8 chunks, 200^3 as 247, 250^2 as 2 and 16^4 as 2;
        # 32^3 and 64^2 are one chunk each
        [
            (3, 64, True),
            (3, 200, True),
            (2, 250, True),
            (4, 16, False),
            (6, 8, False),
            (3, 32, False),
            (2, 64, False),
        ],
    )
    def test_grid_sizes(self, n, nodes, keeps):
        u = DiagonalQuartic(np.eye(n) + 0.2)
        assert keeps_points(u, OracleConfig(nodes_per_dim=nodes)) is keeps
        assert not keeps_points(u, OracleConfig(mode="monte_carlo", nodes_per_dim=nodes))

    def test_zero_and_custom_interactions(self):
        class Custom(Interaction):
            def __init__(self):
                self._freeze(n=3)

            def _evaluate(self, batch):
                return np.sum(batch**4, axis=1)

        for u in (ZeroInteraction(3), ScaledInteraction(0.0, DiagonalQuartic(np.eye(3))), Custom()):
            assert not keeps_points(u, QUAD)

    def test_monte_carlo_sizes_build_no_tensor(self):
        u = DiagonalQuartic(np.eye(8) + 0.1)
        for cfg in (QUAD, OracleConfig(mode="monte_carlo")):
            assert not keeps_points(u, cfg)
        assert "_quartic_forms" not in vars(u)
