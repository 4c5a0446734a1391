"""The value contract of the matrix and interaction classes.

Equal values hash alike, pickle and deep-copy round trips return equal values
whose arrays stay read-only, and interactions survive their constructors and
their model files unchanged. Every public entry point checks the matrices it
is handed before the oracle runs.
"""

import copy
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwlattice import oracle, verify
from lwlattice.duality import exact_self_energy, inverse_map, lw_evaluate, rho_g_logdensity
from lwlattice.errors import LwlatticeError, ValidationError
from lwlattice.interactions import (
    ComposedInteraction,
    DiagonalQuartic,
    GeneralQuartic,
    Interaction,
    ScaledInteraction,
    ZeroInteraction,
    compose,
    materialize,
)
from lwlattice.matrices import LinearMap, SpdMatrix, SymMatrix, _FrozenMatrix
from lwlattice.modelio import ModelFile, load_model, save_model
from lwlattice.oracle import OracleConfig, PointSet, evaluate_moments, green_of_a
from lwlattice.solver import SigmaModel, dyson_solve, free_energy, minimize_free_energy
from test_interactions import library_subclasses, symmetric_tensor

#: Every matrix class, each built from the same entries in the contract test.
MATRIX_CLASSES = (SymMatrix, SpdMatrix, LinearMap)

#: Finite floats of every size, with both zeros drawn often.
entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def symmetric_arrays(draw, max_n=4):
    """Exactly symmetric arrays; a strictly dominant diagonal makes every other one SPD."""
    n = draw(st.integers(1, max_n))
    raw = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    sym = np.where(np.triu(np.ones((n, n), dtype=bool)), raw, raw.T)
    if draw(st.booleans()):
        off = np.clip(sym, -1.0, 1.0)
        sym = np.where(np.eye(n, dtype=bool), n + np.abs(np.diag(sym)).clip(max=1e3), off)
    return sym


def flip_zeros(arr):
    """arr with the sign of every zero entry flipped: equal under ==, not bitwise."""
    return np.where(arr == 0.0, -arr, arr)


def build(cls, arr):
    """cls(arr), or None when the constructor rejects arr as it should."""
    try:
        return cls(arr)
    except LwlatticeError:
        return None


def assert_read_only(value):
    for name in ("mat", "chol", "w", "_pair_weights", "_v8"):
        arr = getattr(value, name, None)
        if arr is not None:
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0


def assert_round_trips(value):
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(again) is type(value)
        assert again == value
        assert_read_only(again)
        if isinstance(value, _FrozenMatrix):
            assert hash(again) == hash(value)


def interaction_cases(seed):
    """One interaction per library class; the general quartics come from random tensors."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    v = rng.uniform(0.0, 1.0, (n, n))
    shear = LinearMap(np.eye(n) + np.triu(rng.uniform(-0.5, 0.5, (n, n)), 1))
    general = GeneralQuartic(symmetric_tensor(n, seed))
    return [
        ZeroInteraction(n),
        DiagonalQuartic(v + v.T),
        general,
        # the tensor symmetrized within the constructor
        GeneralQuartic(general.w + 1e-12 * rng.standard_normal(general.w.shape)),
        materialize(compose(DiagonalQuartic(v + v.T), shear)),
        ScaledInteraction(float(rng.uniform(0.0, 2.0)), general),
        ComposedInteraction(ScaledInteraction(0.5, DiagonalQuartic(v + v.T)), shear),
    ]


class TestValueContract:
    def test_every_library_class_is_covered(self):
        assert library_subclasses(_FrozenMatrix) == set(MATRIX_CLASSES)
        assert library_subclasses(Interaction) == {type(u) for u in interaction_cases(0)}

    @settings(max_examples=200, deadline=None)
    @given(symmetric_arrays())
    def test_matrices(self, arr):
        built = {cls: build(cls, arr) for cls in MATRIX_CLASSES}
        flipped = {cls: build(cls, flip_zeros(arr)) for cls in MATRIX_CLASSES}
        for cls, value in built.items():
            if value is None:
                assert flipped[cls] is None
                continue
            assert value == flipped[cls] and hash(value) == hash(flipped[cls])
            assert_round_trips(value)
            assert_read_only(value)
            with pytest.raises(AttributeError):
                value.mat = value.mat
            with pytest.raises(AttributeError):
                value.extra = 1.0
            with pytest.raises(AttributeError):
                del value.mat
        sym, spd, lin = (built[cls] for cls in MATRIX_CLASSES)
        if spd is not None:
            assert spd == sym and sym == spd and hash(spd) == hash(sym)
            assert len({spd, sym, flipped[SymMatrix]}) == 1
        if lin is not None and sym is not None:
            assert lin != sym and sym != lin

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_interactions(self, tmp_path_factory, seed):
        path = tmp_path_factory.mktemp("values") / "model.json"
        for u in interaction_cases(seed):
            assert_round_trips(u)
            assert_read_only(u)
            with pytest.raises(AttributeError):
                u.n = 5
            with pytest.raises(AttributeError):
                u.extra = 1.0
            with pytest.raises(AttributeError):
                del u.n
            if isinstance(u, GeneralQuartic):
                assert GeneralQuartic(u.w).w.tobytes() == u.w.tobytes()
            save_model(ModelFile(u.n, SymMatrix(np.eye(u.n)), u, OracleConfig()), path)
            again = load_model(path).interaction
            assert type(again) is type(u) and again == u

    def test_equality_is_type_and_model_dict(self):
        u = DiagonalQuartic([[1.0]])
        assert u == DiagonalQuartic([[1.0]])
        assert u != DiagonalQuartic([[2.0]])
        assert u != ScaledInteraction(1.0, u)
        assert GeneralQuartic([[[[0.125]]]]) != u


#: Matrices that no public entry point may accept in the place of a 2 x 2 value.
UNCHECKED = {
    "non-symmetric": [[1.0, 0.5], [0.0, 1.0]],
    "nan": [[np.nan, 0.0], [0.0, 1.0]],
    "non-square": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
}
U2 = DiagonalQuartic([[1.0, 0.5], [0.5, 1.0]])
I2 = SymMatrix(np.eye(2))
QUAD = OracleConfig()
EXACT = SigmaModel.EXACT_ORACLE


@functools.cache
def _point_set():
    """A set at I2; its own evaluation runs the oracle, so it is built before the spy."""
    return PointSet.evaluate(I2, U2, QUAD)[1]


#: Each public entry point that takes a matrix value, as a function of the
#: unchecked matrix.
DOORS = {
    "evaluate_moments": lambda m: evaluate_moments(m, U2, QUAD),
    "green_of_a": lambda m: green_of_a(m, U2, QUAD),
    "PointSet.evaluate": lambda m: PointSet.evaluate(m, U2, QUAD),
    "PointSet.moments": lambda m: _point_set().moments(m),
    "inverse_map": lambda m: inverse_map(m, U2, QUAD),
    "lw_evaluate": lambda m: lw_evaluate(m, U2, QUAD),
    "exact_self_energy": lambda m: exact_self_energy(m, U2, QUAD),
    "rho_g_logdensity": lambda m: rho_g_logdensity(m, U2, [0.0, 0.0], QUAD),
    "free_energy(A)": lambda m: free_energy(m, I2, U2, EXACT, QUAD),
    "free_energy(G)": lambda m: free_energy(I2, m, U2, EXACT, QUAD),
    "dyson_solve(A)": lambda m: dyson_solve(m, U2, EXACT, cfg=QUAD),
    "dyson_solve(g_init)": lambda m: dyson_solve(I2, U2, EXACT, cfg=QUAD, g_init=m),
    # minimize_free_energy takes no g_init
    "minimize_free_energy(A)": lambda m: minimize_free_energy(m, U2, EXACT, QUAD),
    "check_gradient_omega": lambda m: verify.check_gradient_omega(m, U2, QUAD),
    "check_bijection": lambda m: verify.check_bijection(m, U2, QUAD),
    "check_asymptotic_order": lambda m: verify.check_asymptotic_order(m, U2.v, 1, QUAD),
    "check_transformation_rule": lambda m: verify.check_transformation_rule(
        m, U2, LinearMap.identity(2), QUAD
    ),
    "check_boundary_continuity": lambda m: verify.check_boundary_continuity(
        m, DiagonalQuartic(np.eye(3)), QUAD
    ),
    "check_selfenergy_gradient": lambda m: verify.check_selfenergy_gradient(m, U2, QUAD),
    "check_truncation_lemma": lambda m: verify.check_truncation_lemma(m, U2.v, 2, QUAD),
}


class TestPublicDoors:
    """Every public entry point rejects an unchecked matrix before the oracle sums a point."""

    def test_every_check_is_a_door(self):
        checks = {name for name in dir(verify) if name.startswith("check_")}
        assert checks <= set(DOORS)

    @pytest.mark.parametrize("kind", UNCHECKED)
    @pytest.mark.parametrize("door", DOORS)
    def test_rejected_before_the_oracle(self, monkeypatch, door, kind):
        _point_set()
        sums = []
        moments = oracle._moments
        monkeypatch.setattr(oracle, "_moments", lambda *args, **kw: sums.append(args) or moments(*args, **kw))
        with pytest.raises(ValidationError):
            DOORS[door](np.array(UNCHECKED[kind]))
        assert sums == []
