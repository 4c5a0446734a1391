import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from lwlattice import verify
from lwlattice.duality import lw_evaluate
from lwlattice.errors import ParseError, ValidationError
from lwlattice.interactions import DiagonalQuartic, ZeroInteraction
from lwlattice.matrices import SpdMatrix, SymMatrix, plain
from lwlattice.modelio import (
    ModelFile,
    dumps,
    load_matrix,
    load_model,
    model_from_dict,
    save_model,
    write_csv,
)
from lwlattice.oracle import OracleConfig, evaluate_moments
from lwlattice.solver import SigmaModel, dyson_solve


#: Values a lossless format must read back as floats of the same sign.
EXACT_FLOATS = [-0.0, 0.0, 1.0, 2.0**60, 1e-300, math.inf, -math.inf]


def assert_same_floats(got, want):
    for g, w in zip(got, want, strict=True):
        assert type(g) is float, g
        assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w), (g, w)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestLoadModel:
    def test_minimal_gaussian(self, tmp_path):
        path = write(tmp_path, "m.json", {"n": 1, "A": [[1.0]], "interaction": {"type": "zero"}})
        model = load_model(path)
        assert model.n == 1
        assert isinstance(model.interaction, ZeroInteraction)
        assert model.oracle == OracleConfig()

    def test_asymmetric_a_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "m.json",
            {"n": 2, "A": [[1.0, 0.5], [0.0, 1.0]], "interaction": {"type": "zero"}},
        )
        with pytest.raises(ValidationError, match="not symmetric"):
            load_model(path)

    def test_negative_diagonal_coupling_loads(self, tmp_path):
        # validation split: the file is legal, divergence surfaces at the oracle
        path = write(
            tmp_path,
            "m.json",
            {"n": 1, "A": [[1.0]], "interaction": {"type": "diagonal_quartic", "v": [[-1.0]]}},
        )
        model = load_model(path)
        assert isinstance(model.interaction, DiagonalQuartic)

    def test_dimension_consistency(self, tmp_path):
        path = write(
            tmp_path,
            "m.json",
            {"n": 2, "A": [[1.0]], "interaction": {"type": "zero"}},
        )
        with pytest.raises(ValidationError, match="dimension"):
            load_model(path)

    def test_bad_json_has_position(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 1,,}')
        with pytest.raises(ParseError, match="line 1"):
            load_model(path)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_model(tmp_path / "absent.json")

    def test_missing_field(self, tmp_path):
        path = write(tmp_path, "m.json", {"n": 1, "A": [[1.0]]})
        with pytest.raises(ParseError, match="interaction"):
            load_model(path)

    def test_oracle_overrides(self, tmp_path):
        path = write(
            tmp_path,
            "m.json",
            {
                "n": 1,
                "A": [[1.0]],
                "interaction": {"type": "zero"},
                "oracle": {"mode": "monte_carlo", "samples": 4096, "seed": 7},
            },
        )
        model = load_model(path)
        assert model.oracle.mode == "monte_carlo"
        assert model.oracle.samples == 4096
        assert model.oracle.seed == 7

    def test_numpy_integer_dimension(self):
        obj = {"n": np.int64(2), "A": np.eye(2).tolist(), "interaction": {"type": "zero"}}
        model = model_from_dict(obj)
        assert type(model.n) is int and model.n == 2
        assert json.loads(dumps(model.to_dict()))["n"] == 2
        with pytest.raises(ValidationError, match="positive integer"):
            model_from_dict({**obj, "n": np.True_})
        with pytest.raises(ValidationError, match="positive integer"):
            model_from_dict({**obj, "n": True})

    def test_not_an_object(self):
        with pytest.raises(ParseError, match="JSON object"):
            model_from_dict([1, 2])

    def test_interaction_of_another_dimension(self):
        inner = {"type": "zero", "n": 3}
        with pytest.raises(ValidationError, match="interaction has dimension 3"):
            model_from_dict({"n": 2, "A": np.eye(2).tolist(), "interaction": inner})

    @pytest.mark.parametrize("floor", [1.0, 0.25, "0.5", None])
    def test_envelope_floor_is_not_a_model_setting(self, tmp_path, floor):
        gauss = {"n": 1, "A": [[1.0]], "interaction": {"type": "zero"}}
        path = write(tmp_path, "m.json", {**gauss, "oracle": {"envelope_floor": floor}})
        with pytest.raises(ParseError, match="envelope_floor"):
            load_model(path)

    def test_file_saved_with_the_envelope_floor_field_loads(self, tmp_path):
        # as save_model wrote every file while the floor was an OracleConfig field
        saved = {
            "n": 2,
            "A": [[1.0, 0.25], [0.25, 2.0]],
            "interaction": {"type": "diagonal_quartic", "v": [[0.1, 0.0], [0.0, 0.2]]},
            "oracle": {
                "mode": "quadrature",
                "nodes_per_dim": 64,
                "samples": 1000000,
                "seed": 0,
                "envelope_floor": 0.5,
            },
        }
        model = load_model(write(tmp_path, "m.json", saved))
        assert model.oracle == OracleConfig(samples=1000000)
        assert "envelope_floor" not in model.to_dict()["oracle"]

    def test_unknown_oracle_field(self, tmp_path):
        path = write(
            tmp_path,
            "m.json",
            {"n": 1, "A": [[1.0]], "interaction": {"type": "zero"}, "oracle": {"bogus": 1}},
        )
        with pytest.raises(ParseError, match="bogus"):
            load_model(path)


class TestRoundTrip:
    def test_fourth_moments_not_a_model_setting(self, tmp_path):
        gauss = {"n": 1, "A": [[1.0]], "interaction": {"type": "zero"}}
        path = write(tmp_path, "m.json", {**gauss, "oracle": {"want_fourth_moments": True}})
        with pytest.raises(ParseError, match="want_fourth_moments"):
            load_model(path)
        assert "want_fourth_moments" not in model_from_dict(gauss).to_dict()["oracle"]

    def test_save_load_identity(self, tmp_path):
        model = ModelFile(
            n=2,
            a=SymMatrix([[1.0, 1.0 / 3.0], [1.0 / 3.0, 2.0]]),
            interaction=DiagonalQuartic([[0.1, 0.05], [0.05, np.pi]]),
            oracle=OracleConfig(nodes_per_dim=48, seed=3),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n == model.n
        assert np.array_equal(loaded.a.mat, model.a.mat)
        assert loaded.interaction == model.interaction
        assert loaded.oracle == model.oracle

    def test_signed_zeros_and_float_fields_survive(self, tmp_path):
        model = ModelFile(
            n=2,
            a=SymMatrix([[1.0, -0.0], [-0.0, 2.0**60]]),
            interaction=DiagonalQuartic([[1e-300, 0.0], [0.0, 1.0]]),
            oracle=OracleConfig(),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert_same_floats(loaded.a.mat.ravel().tolist(), [1.0, -0.0, -0.0, 2.0**60])
        assert np.array_equal(loaded.interaction.v.mat, model.interaction.v.mat)


class TestFloatFormat:
    def test_floats_read_back_exactly(self):
        values = [1.0 / 3.0, np.pi, 6.02214076e23, -0.1, *EXACT_FLOATS]
        text = dumps({"values": values})
        assert_same_floats(json.loads(text)["values"], values)

    def test_small_integers_stay_clean(self):
        assert '"x": 1' in dumps({"x": 1})

    def test_numpy_scalars_serialized(self):
        text = dumps({"a": np.float64(0.5), "b": np.int64(3), "c": np.bool_(True)})
        assert json.loads(text) == {"a": 0.5, "b": 3, "c": True}


def assert_builtins(value):
    """Only the exact builtin types json prints, at every depth."""
    assert type(value) in (dict, list, str, bool, int, float), type(value)
    if type(value) is dict:
        assert all(type(key) is str for key in value)
        value = list(value.values())
    if type(value) is list:
        for item in value:
            assert_builtins(item)


class TestResultJson:
    QUAD = OracleConfig(nodes_per_dim=16)

    def records(self):
        u = DiagonalQuartic([[1.0, 0.3], [0.3, 1.0]])
        mc = OracleConfig(mode="monte_carlo", samples=640, seed=1, want_fourth_moments=True)
        return {
            "moments": evaluate_moments(SymMatrix(np.eye(2)), u, self.QUAD),
            "moments_mc": evaluate_moments(SymMatrix(np.eye(2)), u, mc),
            "lw": lw_evaluate(SpdMatrix([[0.8, 0.1], [0.1, 0.9]]), u, self.QUAD),
            "trace": dyson_solve(SymMatrix(np.eye(2)), u, SigmaModel.BOLD1, cfg=self.QUAD),
            "check": verify.check_gradient_omega(SymMatrix(np.eye(2)), u, self.QUAD),
        }

    def test_field_order_and_keys(self):
        out = {name: record.to_dict() for name, record in self.records().items()}
        # fields in declaration order, None fields left out
        assert list(out["moments"]) == ["omega", "green", "mean_interaction"]
        assert list(out["moments_mc"]) == [
            "omega", "green", "mean_interaction", "pair_moments", "std_errors"
        ]
        assert list(out["moments_mc"]["std_errors"]) == ["omega", "green"]
        assert np.shape(out["moments_mc"]["pair_moments"]) == (3, 3)
        assert list(out["lw"]) == [
            "a_of_g", "universal_f", "phi", "phi0", "sigma_exact", "entropy",
            "mean_interaction", "solver_iterations", "residual",
        ]
        assert list(out["trace"]) == ["iterates", "converged", "final_green"]
        assert list(out["trace"]["iterates"][0]) == ["iteration", "residual", "free_energy"]
        assert list(out["check"]) == ["name", "passed", "metric", "threshold", "details"]

    def test_values_are_builtins_and_dumps_agrees(self):
        for record in self.records().values():
            out = record.to_dict()
            assert_builtins(out)
            assert json.loads(dumps(record)) == out
            assert dumps(record) == dumps(out)

    def test_plain_rule(self):
        @dataclass
        class Inner:
            x: object
            gone: object = None

        value = {"t": (np.int64(2), Inner(np.float64(0.5))), "kept": None, "m": SymMatrix([[1.0]])}
        out = plain(value)
        assert out == {"t": [2, {"x": 0.5}], "kept": None, "m": [[1.0]]}
        assert_builtins(out["t"])
        assert plain(np.arange(3)) == [0, 1, 2] and plain("s") == "s"


class TestMatrixFile:
    def test_bare_matrix(self, tmp_path):
        path = write(tmp_path, "g.json", [[1.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(load_matrix(path), np.diag([1.0, 2.0]))

    def test_keyed_matrix(self, tmp_path):
        path = write(tmp_path, "g.json", {"G": [[0.5]]})
        assert load_matrix(path)[0, 0] == 0.5

    def test_bad_shape(self, tmp_path):
        path = write(tmp_path, "g.json", [1.0, 2.0])
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_object_without_a_matrix_key(self, tmp_path):
        path = write(tmp_path, "g.json", {"green": [[1.0]]})
        with pytest.raises(ParseError, match="no 'G', 'A' or 'matrix' field"):
            load_matrix(path)


class TestCsv:
    def test_floats_read_back_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        values = [1.0 / 3.0, *EXACT_FLOATS]
        write_csv(path, ["eps", "value"], [(0.1, v) for v in values])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eps,value"
        assert_same_floats([float(line.split(",")[1]) for line in lines[1:]], values)
