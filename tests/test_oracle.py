import dataclasses
import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from lwlattice import duality, oracle
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
    ScaledInteraction,
    ZeroInteraction,
    compose,
    materialize,
)
from lwlattice.matrices import LinearMap, SpdMatrix, SymMatrix
from lwlattice.oracle import (
    ENVELOPE_FLOOR,
    MC_BATCHES,
    MC_SAMPLE_CAP,
    QUAD_CHUNK,
    QUAD_NODE_CAP,
    OracleConfig,
    _envelope_lift,
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
        (y, logp), = _grid_chunks(3, 1)
        assert np.array_equal(y, np.zeros((1, 3)))
        assert np.array_equal(logp, whole_grid(3, 1)[1])
        assert np.exp(logp).sum() == pytest.approx(1.0, rel=0.0, abs=1e-15)


class TestChunkBufferReuse:
    """One buffer per _grid_chunks call is rewritten chunk after chunk."""

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
        lift = _envelope_lift(a, u)
        streamed = _moments(a, u, cfg, lift, _grid_chunks(3, nodes))
        whole = _moments(a, u, cfg, lift, [whole_grid(3, nodes)])
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
        assert start == half


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
        monkeypatch.setattr(oracle, "pair_products", lambda x: rows.append(len(x)) or pair_products(x))
        return rows

    def test_pair_block_sees_a_fraction_of_the_grid(self, monkeypatch):
        # the three lw_evaluate targets of the lw-quad benchmark, unjittered
        v = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]])
        small = SpdMatrix([[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]])
        large = SpdMatrix([[5.0, 1.9, 1.0], [1.9, 1.8, 0.5], [1.0, 0.5, 0.95]])
        shear = LinearMap([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
        rows = self.rows_of_pair_block(monkeypatch)
        cfg = OracleConfig(nodes_per_dim=64)
        for g, u in [
            (small, DiagonalQuartic(v)),
            (large, DiagonalQuartic(0.1 * v)),  # A[G] indefinite
            (small, materialize(compose(DiagonalQuartic(v), shear))),
        ]:
            duality.lw_evaluate(g, u, cfg)
        # every chunk of the folded 64^3 grid holds QUAD_CHUNK points; 17% reach it
        assert 64**3 // 2 % QUAD_CHUNK == 0
        assert sum(rows) < 0.25 * len(rows) * QUAD_CHUNK

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
        (y, _), = _grid_chunks(2, 64)
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
