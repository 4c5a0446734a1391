import itertools
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lwlattice
from lwlattice import interactions
from lwlattice.errors import DimensionMismatch, ParseError, UnsupportedInteraction, ValidationError
from lwlattice.interactions import (
    GROWTH_GRID_SIZE,
    ComposedInteraction,
    DiagonalQuartic,
    GeneralQuartic,
    Growth,
    GrowthReport,
    Interaction,
    ScaledInteraction,
    ZeroInteraction,
    _direction_grid,
    pair_basis,
    pair_products,
    as_diagonal_quartic,
    compose,
    interaction_from_dict,
    materialize,
    quartic_scale,
    quartic_tensor,
    restrict,
    validate_growth,
)
from lwlattice.matrices import LinearMap, SymMatrix
from lwlattice.oracle import OracleConfig, evaluate_moments


def random_points(n, count, seed=0):
    return np.random.default_rng(seed).standard_normal((count, n))


class TestEvaluate:
    def test_zero(self):
        assert ZeroInteraction(2).evaluate([5.0, -3.0]) == 0.0

    def test_scalar_quartic(self):
        u = DiagonalQuartic([[1.0]])
        assert u.evaluate([2.0]) == pytest.approx(2.0)

    def test_coupled_quartic(self):
        u = DiagonalQuartic([[1.0, 1.0], [1.0, 1.0]])
        assert u.evaluate([1.0, 1.0]) == pytest.approx(0.5)

    def test_batch_matches_pointwise(self):
        u = DiagonalQuartic([[1.0, 0.3], [0.3, 2.0]])
        pts = random_points(2, 50, seed=1)
        batch = u.evaluate(pts)
        for k, p in enumerate(pts):
            assert batch[k] == pytest.approx(u.evaluate(p), rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DiagonalQuartic([[1.0]]).evaluate([1.0, 2.0])

    @pytest.mark.parametrize(
        "shape, message",
        [((4, 3), "points have dimension 3, expected 2"), ((2, 4, 2), "ndim=3")],
    )
    def test_points_of_the_wrong_shape(self, shape, message):
        with pytest.raises(DimensionMismatch, match=message):
            DiagonalQuartic(np.eye(2)).evaluate(np.ones(shape))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 8.0), st.integers(0, 2**31))
    def test_scaled_is_exact_multiple(self, factor, seed):
        u = DiagonalQuartic([[1.0, 0.5], [0.5, 2.0]])
        scaled = ScaledInteraction(factor, u)
        x = np.random.default_rng(seed).standard_normal(2)
        assert scaled.evaluate(x) == factor * u.evaluate(x)


def direct_quartic(w, x):
    """sum_ijkl W_ijkl x_i x_j x_k x_l per point, with no pairing of indices."""
    return np.einsum("ijkl,mi,mj,mk,ml->m", w, x, x, x, x)


class TestGeneralQuarticPairs:
    """The P x P contraction over pairs i <= j against the full n^4 sum."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_symmetric_tensor(self, n):
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((n,) * 4)
        w = sum(np.transpose(raw, perm) for perm in itertools.permutations(range(4))) / 24.0
        pts = random_points(n, 200, seed=n)
        direct = direct_quartic(w, pts)
        assert np.abs(GeneralQuartic(w).evaluate(pts) - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_materialized_composition(self):
        u = DiagonalQuartic([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]])
        t = LinearMap([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
        dense = materialize(compose(u, t))
        pts = random_points(3, 200, seed=6)
        direct = direct_quartic(dense.w, pts)
        assert np.abs(dense.evaluate(pts) - direct).max() <= 1e-12 * np.abs(direct).max()


def symmetric_tensor(n, seed):
    raw = np.random.default_rng(seed).standard_normal((n,) * 4)
    return sum(np.transpose(raw, perm) for perm in itertools.permutations(range(4))) / 24.0


def quartic_cases(n, seed):
    """One interaction of each library quartic class in dimension n."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(-0.5, 1.0, (n, n))
    shear = LinearMap(np.eye(n) + np.triu(rng.uniform(-0.5, 0.5, (n, n)), 1))
    general = GeneralQuartic(symmetric_tensor(n, seed))
    return [
        DiagonalQuartic(v + v.T),
        general,
        ScaledInteraction(0.7, general),
        ComposedInteraction(DiagonalQuartic(v + v.T), shear),
    ]


class TestEveryQuarticAgainstDirectSum:
    """Batch evaluation against the n^4 sum over the materialized tensor."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_batch_in_either_layout(self, n):
        pts = random_points(n, 300, seed=n) * 1.5
        for u in quartic_cases(n, seed=10 + n):
            # composing with the identity expands every class to a full tensor
            direct = direct_quartic(materialize(compose(u, LinearMap(np.eye(n)))).w, pts)
            scale = np.abs(direct).max()
            rows = u.evaluate(pts)
            columns = u.evaluate(np.asfortranarray(pts))
            assert np.abs(rows - direct).max() <= 1e-12 * scale, u
            assert np.abs(columns - rows).max() <= 1e-14 * scale, u

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_point_is_its_row(self, n):
        pts = random_points(n, 40, seed=20 + n)
        for u in quartic_cases(n, seed=30 + n):
            batch = u.evaluate(np.asfortranarray(pts))
            single = [u.evaluate(p) for p in pts]
            assert np.abs(batch - single).max() <= 1e-14 * np.abs(batch).max(), u

    def test_diagonal_quartic_at_twenty_sites(self):
        n = 20
        rng = np.random.default_rng(5)
        v = rng.uniform(-0.2, 1.0, (n, n))
        v = v + v.T
        pts = np.asfortranarray(random_points(n, 500, seed=5))
        sq = pts * pts
        direct = sum(v[i, j] * sq[:, i] * sq[:, j] for i in range(n) for j in range(n)) / 8.0
        got = DiagonalQuartic(v).evaluate(pts)
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()


def library_subclasses(cls):
    """Every subclass of cls defined in the library, at any depth."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("lwlattice."):
            found.add(sub)
        found |= library_subclasses(sub)
    return found


class TestEvenness:
    """U(-x) == U(x) bit for bit: the folded quadrature grid relies on it."""

    N = 3
    SHEAR = LinearMap([[1.0, 0.5, 0.0], [-0.2, 1.0, 0.3], [0.1, 0.0, 1.2]])
    V = [[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]]
    CASES = [
        ZeroInteraction(N),
        DiagonalQuartic(V),
        GeneralQuartic(symmetric_tensor(N, 11)),
        ScaledInteraction(0.7, DiagonalQuartic(V)),
        compose(ScaledInteraction(0.7, GeneralQuartic(symmetric_tensor(N, 12))), SHEAR),
        materialize(compose(DiagonalQuartic(V), SHEAR)),
    ]

    def test_every_library_class_is_covered(self):
        assert library_subclasses(Interaction) == {type(u) for u in self.CASES}

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_mirror_point_has_the_same_value(self, m, seed):
        x = np.random.default_rng(seed).normal(scale=2.0, size=(m, self.N))
        for u in self.CASES:
            assert np.array_equal(u.evaluate(-x), u.evaluate(x))


class TestCompose:
    def test_map_of_another_dimension(self):
        with pytest.raises(DimensionMismatch, match="map dimension 3 != interaction dimension 2"):
            ComposedInteraction(DiagonalQuartic(np.eye(2)), LinearMap.identity(3))

    def test_identity_map(self):
        u = DiagonalQuartic([[1.0, 0.4], [0.4, 1.0]])
        composed = compose(u, LinearMap.identity(2))
        pts = random_points(2, 100, seed=2)
        assert np.abs(composed.evaluate(pts) - u.evaluate(pts)).max() <= 1e-14

    def test_scalar_map(self):
        u = DiagonalQuartic([[1.0]])
        composed = compose(u, LinearMap([[2.0]]))
        # (c^4 / 8) x^4 at c=2, x=1
        assert composed.evaluate([1.0]) == pytest.approx(2.0)

    def test_rotation_pointwise(self):
        u = DiagonalQuartic([[1.0, 0.5], [0.5, 1.0]])
        c = s = np.sqrt(0.5)
        t = LinearMap([[c, s], [-s, c]])
        composed = compose(u, t)
        assert composed.evaluate([1.0, 0.0]) == pytest.approx(
            u.evaluate([c, -s]), rel=1e-14
        )

    def test_composition_evaluates_through_map(self):
        u = DiagonalQuartic([[1.0, 0.2], [0.2, 0.7]])
        rng = np.random.default_rng(3)
        t = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        composed = compose(u, LinearMap(t))
        pts = random_points(2, 100, seed=4)
        direct = u.evaluate(pts @ t.T)
        rel = np.abs(composed.evaluate(pts) - direct) / np.maximum(np.abs(direct), 1e-30)
        assert rel.max() <= 1e-12

    def test_materialized_matches_lazy(self):
        u = DiagonalQuartic([[1.0, 0.5], [0.5, 1.0]])
        t = LinearMap([[1.0, 0.3], [-0.2, 1.1]])
        lazy = compose(u, t)
        dense = materialize(lazy)
        assert isinstance(dense, GeneralQuartic)
        pts = random_points(2, 200, seed=5)
        assert np.abs(dense.evaluate(pts) - lazy.evaluate(pts)).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_materialized_tensor_matches_the_five_operand_einsum(self, seed):
        # a composed general quartic at n = 8, where the einsum reference is
        # an O(n^8) loop; against an 80-bit einsum the four-step contraction
        # was within 2.8e-16 of the largest entry and this einsum within
        # 7.4e-15, so the bound is the reference's own rounding
        n = 8
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.2, 1.0, (n, n))
        t1, t2 = (np.eye(n) + 0.2 * rng.standard_normal((n, n)) for _ in range(2))
        base = materialize(compose(DiagonalQuartic(0.5 * (v + v.T)), LinearMap(t1)))
        assert isinstance(base, GeneralQuartic)
        dense = materialize(compose(base, LinearMap(t2)))
        ref = GeneralQuartic(np.einsum("ijkl,ia,jb,kc,ld->abcd", base.w, t2, t2, t2, t2))
        assert np.abs(dense.w - ref.w).max() <= 5e-14 * np.abs(ref.w).max()


def _dense_shear():
    return materialize(compose(DiagonalQuartic(TestEvenness.V), TestEvenness.SHEAR))


class TestWrapperUnwinding:
    """Scaled and composed wrappers, nested too: the expanded tensor, the
    restriction, the growth class and the diagonal form all agree with the
    lazy interaction."""

    V = TestEvenness.V
    SHEAR = TestEvenness.SHEAR
    TWIST = LinearMap([[0.9, 0.0, 0.4], [0.2, 1.1, 0.0], [0.0, -0.3, 1.0]])
    # (interaction, materialized type, growth class, screened, diagonal factor or None)
    CASES = {
        "scaled-diagonal": (
            ScaledInteraction(0.7, DiagonalQuartic(V)),
            DiagonalQuartic, Growth.SUPERQUADRATIC, False, 0.7,
        ),
        "scaled-general": (
            ScaledInteraction(0.7, _dense_shear()),
            GeneralQuartic, Growth.SUPERQUADRATIC, True, None,
        ),
        "zero-factor": (
            ScaledInteraction(0.0, DiagonalQuartic(V)),
            ZeroInteraction, Growth.ZERO_INTERACTION, False, 0.0,
        ),
        "composed-zero": (
            compose(ZeroInteraction(3), SHEAR),
            ZeroInteraction, Growth.ZERO_INTERACTION, False, None,
        ),
        "composed-general": (
            compose(GeneralQuartic(symmetric_tensor(3, 13)), SHEAR),
            GeneralQuartic, Growth.UNVERIFIED, False, None,
        ),
        "composed-positive-general": (
            compose(_dense_shear(), TWIST),
            GeneralQuartic, Growth.SUPERQUADRATIC, True, None,
        ),
        "nested": (
            compose(ScaledInteraction(0.5, compose(DiagonalQuartic(V), SHEAR)), TWIST),
            GeneralQuartic, Growth.SUPERQUADRATIC, False, None,
        ),
    }

    @pytest.fixture(params=list(CASES), ids=list(CASES))
    def case(self, request):
        return self.CASES[request.param]

    def test_materialized_matches_lazy(self, case):
        u, kind = case[:2]
        dense = materialize(u)
        assert type(dense) is kind
        pts = random_points(3, 200, seed=14)
        lazy = u.evaluate(pts)
        assert np.abs(dense.evaluate(pts) - lazy).max() <= 1e-12 * max(np.abs(lazy).max(), 1.0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_restriction_matches_padded_points(self, case, p):
        u = case[0]
        pts = random_points(p, 100, seed=15)
        padded = np.hstack([pts, np.zeros((100, 3 - p))])
        full = u.evaluate(padded)
        assert np.abs(restrict(u, p).evaluate(pts) - full).max() <= 1e-12 * max(
            np.abs(full).max(), 1.0
        )

    def test_growth_and_diagonal_form(self, case):
        u, _, kind, screened, factor = case
        rep = validate_growth(u)
        assert rep.kind is kind and rep.screened is screened
        if factor is None:
            with pytest.raises(UnsupportedInteraction):
                as_diagonal_quartic(u)
        else:
            scale, v = as_diagonal_quartic(u)
            assert scale == factor and np.array_equal(v.mat, np.asarray(self.V))

    def test_composed_tensor_symmetrized_once(self, monkeypatch):
        calls = []
        symmetrize = interactions._symmetrize_quartic_tensor
        monkeypatch.setattr(
            interactions, "_symmetrize_quartic_tensor", lambda w: calls.append(1) or symmetrize(w)
        )
        general = GeneralQuartic(symmetric_tensor(3, 16))
        calls.clear()
        materialize(compose(general, self.SHEAR))
        assert len(calls) == 1


class TestQuarticTensor:
    """quartic_tensor(u) is the symmetric W with U(x) = W[x, x, x, x]; materialize builds on it."""

    # every case with a nonzero U
    CASES = {
        **{f"{type(u).__name__}-{k}": u for k, u in enumerate(TestEvenness.CASES[1:])},
        **{name: c[0] for name, c in TestWrapperUnwinding.CASES.items() if c[1] is not ZeroInteraction},
    }

    def test_every_library_class_is_covered(self):
        assert library_subclasses(Interaction) - {ZeroInteraction} == {
            type(u) for u in self.CASES.values()
        }

    @pytest.mark.parametrize("name", list(CASES))
    def test_contracted_four_times_is_u(self, name):
        u = self.CASES[name]
        w = quartic_tensor(u)
        assert w.shape == (3,) * 4
        pts = random_points(3, 300, seed=18) * 1.5
        want = u.evaluate(pts)
        assert np.abs(direct_quartic(w, pts) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize(
        "name", ["scaled-general", "composed-general", "composed-positive-general", "nested"]
    )
    def test_materialize_holds_the_tensor(self, name):
        u = self.CASES[name]
        w, dense = quartic_tensor(u), materialize(u).w
        if isinstance(u, ComposedInteraction):
            # the constructor symmetrizes the transformed tensor, which is
            # symmetric only up to rounding
            assert np.abs(w - dense).max() <= 1e-14 * np.abs(dense).max()
        else:
            assert np.array_equal(w, dense)

    @pytest.mark.parametrize("name", list(CASES))
    def test_scale_bounds_the_terms(self, name):
        # the entries of the tensor, and U at points of ||x||_1 = 1
        u = self.CASES[name]
        scale = quartic_scale(u)
        assert np.abs(quartic_tensor(u)).max() <= scale
        pts = random_points(3, 300, seed=19)
        pts /= np.abs(pts).sum(axis=1, keepdims=True)
        assert np.abs(u.evaluate(pts)).max() <= scale

    def test_built_once_per_value_and_shared_read_only(self, monkeypatch):
        # a diagonal quartic's tensor takes 24 transposed additions; two
        # streamed oracle calls on one value build it once
        calls = []
        symmetrize = interactions._symmetrize_quartic_tensor
        monkeypatch.setattr(
            interactions, "_symmetrize_quartic_tensor", lambda w: calls.append(1) or symmetrize(w)
        )
        u = DiagonalQuartic(TestEvenness.V)
        for _ in range(2):
            evaluate_moments(SymMatrix(np.eye(3)), u, OracleConfig())
        assert len(calls) == 1
        w = quartic_tensor(u)
        assert w is quartic_tensor(u)
        with pytest.raises(ValueError):
            w[0, 0, 0, 0] = 1.0
        # equality, copies and pickles do not see the built tensor
        again = pickle.loads(pickle.dumps(u))
        assert again == u and "_quartic_forms" not in vars(again)
        assert np.array_equal(quartic_tensor(again), w)

    def test_none_without_a_tensor(self):
        class Custom(Interaction):
            def __init__(self):
                self._freeze(n=3)

            def _evaluate(self, batch):
                return np.sum(batch**4, axis=1)

        for u in [
            ZeroInteraction(3),
            ScaledInteraction(0.0, DiagonalQuartic(TestEvenness.V)),
            compose(ZeroInteraction(3), TestEvenness.SHEAR),
            Custom(),
            ScaledInteraction(2.0, Custom()),
        ]:
            assert quartic_tensor(u) is None
        with pytest.raises(UnsupportedInteraction, match="cannot materialize Custom"):
            materialize(ScaledInteraction(2.0, Custom()))


class TestRestrict:
    def test_full_restriction_is_noop(self):
        u = DiagonalQuartic([[1.0, 0.5], [0.5, 1.0]])
        pts = random_points(2, 50, seed=6)
        assert np.allclose(restrict(u, 2).evaluate(pts), u.evaluate(pts))

    def test_diagonal_quartic_drops_cross_terms(self):
        u = DiagonalQuartic([[1.0, 0.5], [0.5, 2.0]])
        r = restrict(u, 1)
        pts = random_points(1, 50, seed=7)
        padded = np.hstack([pts, np.zeros_like(pts)])
        assert np.allclose(r.evaluate(pts), u.evaluate(padded))
        assert np.allclose(r.v.mat, [[1.0]])

    def test_general_quartic_pointwise(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((3, 3, 3, 3))
        w = sum(np.transpose(w, p) for p in __import__("itertools").permutations(range(4))) / 24
        u = GeneralQuartic(w)
        r = restrict(u, 2)
        pts = random_points(2, 100, seed=9)
        padded = np.hstack([pts, np.zeros((100, 1))])
        assert np.abs(r.evaluate(pts) - u.evaluate(padded)).max() <= 1e-12

    def test_restriction_chain(self):
        u = DiagonalQuartic(np.eye(3) + 0.25)
        once = restrict(u, 1)
        chained = restrict(restrict(u, 2), 1)
        pts = random_points(1, 20, seed=10)
        assert np.allclose(once.evaluate(pts), chained.evaluate(pts))

    def test_too_large_p(self):
        with pytest.raises(DimensionMismatch):
            restrict(DiagonalQuartic([[1.0]]), 2)

    @pytest.mark.parametrize("p", [True, 1.0])
    def test_p_must_be_an_integer(self, p):
        # True == 1 and 1.0 == 1, yet neither is a dimension
        with pytest.raises(DimensionMismatch):
            restrict(DiagonalQuartic(np.eye(2)), p)

    def test_class_outside_the_library(self):
        class Custom(Interaction):
            def __init__(self):
                self._freeze(n=2)

            def _evaluate(self, batch):
                return np.sum(batch**4, axis=1)

        u = Custom()
        assert u.evaluate([1.0, 2.0]) == 17.0
        with pytest.raises(UnsupportedInteraction):
            restrict(u, 1)

    def test_scaled_comes_back_expanded(self):
        v = np.array([[1.0, 0.5, 0.2], [0.5, 2.0, 0.3], [0.2, 0.3, 1.5]])
        r = restrict(ScaledInteraction(0.7, DiagonalQuartic(v)), 2)
        assert type(r) is DiagonalQuartic
        assert np.array_equal(r.v.mat, 0.7 * v[:2, :2])


class TestGrowth:
    def test_positive_diagonal_quartic(self):
        rep = validate_growth(DiagonalQuartic([[1.0]]))
        assert rep.kind is Growth.SUPERQUADRATIC and not rep.screened

    def test_zero(self):
        assert validate_growth(ZeroInteraction(3)).kind is Growth.ZERO_INTERACTION

    def test_negative_coupling_unverified(self):
        rep = validate_growth(DiagonalQuartic([[1.0, -2.0], [-2.0, 1.0]]))
        assert rep.kind is Growth.UNVERIFIED

    def test_scaled_propagates(self):
        u = ScaledInteraction(0.5, DiagonalQuartic([[1.0]]))
        assert validate_growth(u).kind is Growth.SUPERQUADRATIC

    def test_zero_scale_is_zero_interaction(self):
        u = ScaledInteraction(0.0, DiagonalQuartic([[1.0]]))
        assert validate_growth(u).kind is Growth.ZERO_INTERACTION

    def test_composed_inherits_class(self):
        u = compose(DiagonalQuartic([[1.0, 0.5], [0.5, 1.0]]), LinearMap([[2.0, 0.1], [0.0, 1.0]]))
        assert validate_growth(u).kind is Growth.SUPERQUADRATIC

    def test_general_quartic_screen(self):
        dense = materialize(
            compose(DiagonalQuartic([[1.0, 0.5], [0.5, 1.0]]), LinearMap([[1.0, 0.2], [-0.3, 1.0]]))
        )
        rep = validate_growth(dense)
        assert rep.kind is Growth.SUPERQUADRATIC and rep.screened

    def test_general_quartic_indefinite_unverified(self):
        w = np.zeros((2, 2, 2, 2))
        w[0, 0, 0, 0] = 1.0
        w[1, 1, 1, 1] = -1.0  # negative along e_2
        assert validate_growth(GeneralQuartic(w)).kind is Growth.UNVERIFIED

    def test_screen_runs_once_per_interaction(self, monkeypatch):
        screened = []
        grid = interactions._direction_grid
        monkeypatch.setattr(interactions, "_direction_grid", lambda n: screened.append(n) or grid(n))
        u = materialize(compose(DiagonalQuartic(np.eye(2)), LinearMap([[1.0, 0.2], [-0.3, 1.0]])))
        a = SymMatrix([[0.5, 0.1], [0.1, -0.2]])  # indefinite: the report decides the envelope
        for _ in range(3):
            evaluate_moments(a, u, OracleConfig(nodes_per_dim=8))
        assert screened == [2]
        report = validate_growth(u)
        assert report.kind is Growth.SUPERQUADRATIC and report.screened
        # the report is kept outside the value: a copy equals u and screens anew
        again = pickle.loads(pickle.dumps(u))
        assert again == u and again.to_dict() == u.to_dict()
        assert validate_growth(again) == report and screened == [2, 2]

    def test_report_is_decided_at_construction(self):
        diag = DiagonalQuartic([[1.0, 0.5], [0.5, 1.0]])
        shear = LinearMap([[1.0, 0.2], [-0.3, 1.0]])
        superquadratic = GrowthReport(Growth.SUPERQUADRATIC)
        assert ZeroInteraction(2).growth == GrowthReport(Growth.ZERO_INTERACTION)
        assert diag.growth == superquadratic
        assert materialize(compose(diag, shear)).growth == GrowthReport(
            Growth.SUPERQUADRATIC, screened=True
        )
        assert ScaledInteraction(2.0, diag).growth == superquadratic
        assert ScaledInteraction(0.0, diag).growth == GrowthReport(Growth.ZERO_INTERACTION)
        assert ComposedInteraction(diag, shear).growth == superquadratic

        class Custom(Interaction):
            n = 2

        assert Custom().growth == validate_growth(Custom()) == GrowthReport(Growth.UNVERIFIED)
        with pytest.raises(AttributeError):
            diag.growth = GrowthReport(Growth.UNVERIFIED)

    def test_object_that_cannot_hold_the_report(self):
        class Slotted:
            __slots__ = ("n",)

            def __init__(self):
                self.n = 2

        u = Slotted()
        assert validate_growth(u) == validate_growth(u) == GrowthReport(Growth.UNVERIFIED)

    def test_direction_grid_built_once_and_read_only(self):
        dirs = _direction_grid(3)
        assert _direction_grid(3) is dirs
        assert dirs.shape == (GROWTH_GRID_SIZE, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0

    def test_import_does_not_load_scipy_stats(self):
        # the runtime is numpy only: neither the import nor the growth screen
        # of an oracle call at indefinite A may load any part of scipy
        src = os.path.dirname(os.path.dirname(lwlattice.__file__))
        code = (
            "import sys, numpy as np, lwlattice\n"
            "from lwlattice.interactions import GeneralQuartic, validate_growth\n"
            "from lwlattice.oracle import OracleConfig, evaluate_moments\n"
            "w = np.zeros((2, 2, 2, 2)); w[0, 0, 0, 0] = w[1, 1, 1, 1] = 1.0\n"
            "u = GeneralQuartic(w)\n"
            "assert validate_growth(u).screened\n"
            "evaluate_moments(lwlattice.SymMatrix(-np.eye(2)), u, OracleConfig(nodes_per_dim=8))\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, sorted(loaded)[:5]\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestTensorValidation:
    def test_asymmetric_tensor_rejected(self):
        w = np.zeros((2, 2, 2, 2))
        w[0, 1, 0, 0] = 1.0  # not permutation symmetric
        with pytest.raises(ValidationError, match="permutation"):
            GeneralQuartic(w)

    def test_relative_asymmetry_rejected(self):
        w = np.full((2, 2, 2, 2), 3e300)
        w[0, 1, 0, 0] *= 1.0 + 1e-6
        with pytest.raises(ValidationError, match="permutation"):
            GeneralQuartic(w)

    def test_rounding_in_large_tensors_accepted(self):
        GeneralQuartic(np.full((2, 2, 2, 2), 3e300))
        # at this scale about two draws in three leave an absolute rounding
        # asymmetry above 1e-9 in the composed tensor
        rng = np.random.default_rng(50)
        for _ in range(100):
            t = 50.0 * (np.eye(3) + 0.5 * rng.standard_normal((3, 3)))
            v = rng.uniform(0.0, 2.0, (3, 3))
            materialize(compose(DiagonalQuartic(0.5 * (v + v.T)), LinearMap(t)))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValidationError):
            ScaledInteraction(-0.5, DiagonalQuartic([[1.0]]))

    @pytest.mark.parametrize(
        "factor", ["0.5", True, "abc", 10**400], ids=["string", "bool", "word", "huge-int"]
    )
    def test_scale_must_be_a_real_number(self, factor):
        # "0.5" and True were taken as 0.5 and 1.0, "abc" raised a bare ValueError
        with pytest.raises(ValidationError, match="scale factor"):
            ScaledInteraction(factor, DiagonalQuartic([[1.0]]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ScaledInteraction(0.5, "x"),
            lambda: ComposedInteraction("x", LinearMap.identity(1)),
        ],
        ids=["scaled", "composed"],
    )
    def test_inner_must_be_an_interaction(self, build):
        with pytest.raises(ValidationError, match="inner must be an Interaction"):
            build()

    def test_zero_dimension_tensor_rejected(self):
        with pytest.raises(ValidationError, match="n >= 1"):
            GeneralQuartic(np.zeros((0, 0, 0, 0)))
        with pytest.raises(ValidationError, match="n >= 1"):
            interaction_from_dict({"type": "general_quartic", "w": []})

    @pytest.mark.parametrize("n", [2.5, True, 0, -1, "2"])
    def test_zero_interaction_needs_a_positive_integer(self, n):
        with pytest.raises(ValidationError, match="positive integer"):
            ZeroInteraction(n)

    def test_stored_tensor_is_exactly_symmetric(self):
        # the 24-term permutation average of 0.1 is 0.10000000000000003
        assert np.all(GeneralQuartic(np.full((2, 2, 2, 2), 0.1)).w == 0.1)
        noisy = symmetric_tensor(3, 5) + 1e-12 * random_points(81, 1, seed=5).reshape((3,) * 4)
        w = GeneralQuartic(noisy).w
        for perm in itertools.permutations(range(4)):
            assert np.array_equal(np.transpose(w, perm), w)

    @pytest.mark.parametrize("entry", [1e308, np.inf, np.nan])
    def test_entries_beyond_a_24th_of_the_float_range_rejected(self, entry):
        # the 24 permutations of such an entry sum beyond the float range
        limit = np.finfo(float).max / 24.0
        with pytest.raises(ValidationError, match=re.escape(f"entries above {limit:.2e}")):
            GeneralQuartic(np.full((1, 1, 1, 1), entry))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetric_tensor_kept_bit_for_bit(self, n):
        for seed in range(25):
            w = GeneralQuartic(symmetric_tensor(n, seed)).w
            assert GeneralQuartic(w).w.tobytes() == w.tobytes()


def test_pair_basis_built_once_and_read_only():
    for n in (1, 2, 5):
        rows, cols, mult = pair_basis(n)
        assert pair_basis(n)[0] is rows
        want_rows, want_cols = np.triu_indices(n)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert np.array_equal(mult, np.where(want_rows == want_cols, 1.0, 2.0))
        assert not any(arr.flags.writeable for arr in (rows, cols, mult))


def test_pair_products_fill_a_given_array():
    x = np.random.default_rng(3).standard_normal((7, 3))
    rows, cols, _ = pair_basis(3)
    want = x[:, rows] * x[:, cols]
    assert np.array_equal(pair_products(x), want) and pair_products(x).flags.f_contiguous
    # the rows of a C-ordered (P, m) block, as a streamed grid's screen passes them
    block = np.empty((rows.size, len(x)))
    out = block.T
    assert pair_products(x, out=out) is out
    assert np.array_equal(block, want.T)


class TestDiagonalExtraction:
    def test_unwraps_nested_scales(self):
        u = ScaledInteraction(2.0, ScaledInteraction(0.25, DiagonalQuartic([[3.0]])))
        factor, v = as_diagonal_quartic(u)
        assert factor == pytest.approx(0.5)
        assert v.mat[0, 0] == 3.0

    def test_rejects_general(self):
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 1.0
        with pytest.raises(UnsupportedInteraction):
            as_diagonal_quartic(GeneralQuartic(w))


class TestJson:
    @pytest.mark.parametrize(
        "u",
        [
            ZeroInteraction(2),
            DiagonalQuartic([[1.0, 0.5], [0.5, 2.0]]),
            ScaledInteraction(0.1, DiagonalQuartic([[1.0]])),
            ComposedInteraction(DiagonalQuartic([[1.0]]), LinearMap([[2.0]])),
        ],
    )
    def test_round_trip(self, u):
        assert interaction_from_dict(u.to_dict()) == u

    def test_general_round_trip(self):
        dense = materialize(compose(DiagonalQuartic([[1.0]]), LinearMap([[1.5]])))
        again = interaction_from_dict(dense.to_dict())
        assert again == dense

    def test_materialized_shear_round_trips_bit_for_bit(self):
        dense = materialize(
            compose(DiagonalQuartic([[1, 0.3], [0.3, 0.7]]), LinearMap([[1, 0.5], [0, 1]]))
        )
        again = interaction_from_dict(dense.to_dict())
        assert again.w.tobytes() == dense.w.tobytes()

    def test_unknown_type(self):
        with pytest.raises(ParseError):
            interaction_from_dict({"type": "sextic"})

    def test_missing_field(self):
        with pytest.raises(ParseError):
            interaction_from_dict({"type": "diagonal_quartic"})

    def test_not_an_object(self):
        with pytest.raises(ParseError, match="object with a 'type' field"):
            interaction_from_dict([["zero"]])

    def test_zero_without_a_dimension(self):
        with pytest.raises(ParseError, match="needs a dimension"):
            interaction_from_dict({"type": "zero"})
        assert interaction_from_dict({"type": "zero"}, 2) == ZeroInteraction(2)

    def test_flat_tensor_length_checked(self):
        with pytest.raises(ParseError):
            interaction_from_dict({"type": "general_quartic", "w": [1.0, 2.0, 3.0]})
