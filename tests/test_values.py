"""The value contract of the matrix and interaction classes.

Equal values hash alike, pickle and deep-copy round trips return equal values
whose arrays stay read-only, and interactions survive their constructors and
their model files unchanged.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwlattice.errors import LwlatticeError
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
from lwlattice.oracle import OracleConfig
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
