import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lwlattice
from lwlattice import cli, duality
from lwlattice.cli import dispatch
from lwlattice.diagrams import BoldSeries
from lwlattice.duality import lw_evaluate
from lwlattice.interactions import DiagonalQuartic, ScaledInteraction
from lwlattice.matrices import SpdMatrix, SymMatrix
from lwlattice.modelio import ORACLE_FIELDS
from lwlattice.oracle import QUAD_NODE_CAP, OracleConfig

GAUSS_1D = {"n": 1, "A": [[1.0]], "interaction": {"type": "zero"}}
QUARTIC_1D = {"n": 1, "A": [[1.0]], "interaction": {"type": "diagonal_quartic", "v": [[1.0]]}}


@pytest.fixture
def model_path(tmp_path):
    def make(obj, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return make


def run_json(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFlagSurface:
    """Every subcommand's options, in the order usage lists them:
    (option string, dest, default, choices, type, required)."""

    MODEL = [("--model", "model", None, None, None, True)]
    GREEN = [("--G", "green", None, None, None, True)]
    OUT = [("--out", "out", None, None, None, False)]
    ORACLE = [
        ("--mode", "mode", None, ["quadrature", "mc"], None, False),
        ("--quad-nodes", "nodes_per_dim", None, None, int, False),
        ("--mc-samples", "samples", None, None, int, False),
        ("--seed", "seed", None, None, int, False),
    ]
    SIGMA_MODEL = [
        ("--sigma-model", "sigma_model", "exact", ["none", "bold1", "bold12", "exact"], None, False)
    ]
    TRACE_CSV = [("--trace-csv", "trace_csv", None, None, None, False)]

    @staticmethod
    def solver(tol, max_iter):
        return [
            ("--tol", "tol", tol, None, float, False),
            ("--max-iter", "max_iter", max_iter, None, int, False),
        ]

    def surface(self):
        return {
            "oracle": self.MODEL + self.OUT + self.ORACLE,
            "invert": self.MODEL + self.GREEN + self.OUT + self.ORACLE + self.solver(None, 60),
            "lw": self.MODEL + self.GREEN + self.OUT + self.ORACLE + self.solver(None, 60),
            "sigma": self.MODEL
            + self.GREEN
            + [("--order", "order", None, None, int, True)]
            + self.OUT,
            "dyson": self.MODEL
            + self.SIGMA_MODEL
            + [("--damping", "damping", 0.5, None, float, False)]
            + self.TRACE_CSV
            + self.OUT
            + self.ORACLE
            + self.solver(1e-8, 200),
            "minimize": self.MODEL
            + self.SIGMA_MODEL
            + self.TRACE_CSV
            + self.OUT
            + self.ORACLE
            + self.solver(1e-8, 200),
            "verify": [
                (
                    "--suite",
                    "suite",
                    "all",
                    ["all", "gaussian", "gradients", "bijection", "theorem3",
                     "transformation", "boundary", "lemma1"],
                    None,
                    False,
                )
            ]
            + self.OUT
            + self.ORACLE,
            "sweep": self.MODEL
            + self.GREEN
            + [
                ("--quantity", "quantity", "phi", ["phi", "sigma"], None, False),
                ("--eps", "eps", None, None, None, True),
                ("--order", "order", 2, None, int, False),
            ]
            + self.OUT
            + self.ORACLE
            + self.solver(None, 80),
        }

    def test_every_subcommand_option(self):
        (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        got = {
            name: [
                (*action.option_strings, action.dest, action.default, action.choices,
                 action.type, action.required)
                for action in parser._actions
                if action.dest != "help"
            ]
            for name, parser in sub.choices.items()
        }
        assert got == self.surface()

    def test_option_types_are_exact(self):
        # == above equates 60 with 60.0; the defaults' own types are pinned here
        (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        for name, rows in self.surface().items():
            actions = [a for a in sub.choices[name]._actions if a.dest != "help"]
            for action, row in zip(actions, rows):
                assert type(action.default) is type(row[2]), (name, row[0])


class TestOracleCommand:
    def test_gaussian_model(self, capsys, model_path):
        code, payload = run_json(capsys, ["oracle", "--model", model_path(GAUSS_1D)])
        assert code == 0
        assert payload["omega"] == pytest.approx(-0.91893853320467274, abs=1e-12)
        assert payload["green"] == [[pytest.approx(1.0)]]
        assert "std_errors" not in payload

    def test_flags_override_every_model_file_field(self):
        # the flags and the model file set the one list of OracleConfig fields
        assert set(ORACLE_FIELDS) == {"mode", "nodes_per_dim", "samples", "seed"}
        from_file = OracleConfig(nodes_per_dim=8)
        argv = ["oracle", "--model", "m.json"]
        flags = ["--mode", "mc", "--quad-nodes", "12", "--mc-samples", "640", "--seed", "3"]
        args = cli.build_parser().parse_args(argv + flags)
        want = OracleConfig(mode="monte_carlo", nodes_per_dim=12, samples=640, seed=3)
        assert cli._resolve_cfg(from_file, args) == want
        assert cli._resolve_cfg(from_file, cli.build_parser().parse_args(argv)) == from_file

    def test_out_file(self, tmp_path, model_path):
        out = tmp_path / "report.json"
        code = dispatch(["oracle", "--model", model_path(GAUSS_1D), "--out", str(out)])
        assert code == 0
        assert np.isfinite(json.loads(out.read_text())["omega"])

    def test_mc_byte_identical(self, capsys, model_path):
        argv = [
            "oracle", "--model", model_path(GAUSS_1D),
            "--mode", "mc", "--mc-samples", "65536", "--seed", "5",
        ]
        code1 = dispatch(argv)
        first = capsys.readouterr().out
        code2 = dispatch(argv)
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second
        assert json.loads(first)["std_errors"]["omega"] > 0

    def test_validation_exit_code(self, capsys, model_path):
        bad = {"n": 1, "A": [[-1.0]], "interaction": {"type": "zero"}}
        code = dispatch(["oracle", "--model", model_path(bad)])
        assert code == 3  # divergent integral is a numerical failure
        assert "error" in capsys.readouterr().err

    def test_envelope_failure_exit_code(self, capsys, model_path):
        huge = {
            "n": 2,
            "A": [[1e17, 0.0], [0.0, -1e17]],
            "interaction": {"type": "diagonal_quartic", "v": [[1.0, 0.0], [0.0, 1.0]]},
        }
        code = dispatch(["oracle", "--model", model_path(huge)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_non_finite_integrand_exit_three(self, capsys, model_path):
        steep = {"n": 1, "A": [[1.0]], "interaction": {"type": "diagonal_quartic", "v": [[1e306]]}}
        code = dispatch(["oracle", "--model", model_path(steep), "--quad-nodes", "16"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: non-finite integrand value")

    def test_overflow_in_the_far_tail_exit_three(self, capsys, model_path):
        # U overflows only at grid points of negligible weight
        inner = {"type": "diagonal_quartic", "v": [[1.0, 0.0], [0.0, 1.0]]}
        steep = {
            "n": 2,
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "interaction": {"type": "scaled", "factor": 1e305, "inner": inner},
        }
        path = model_path(steep)
        # NonFinite is the one report: no overflow warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(["oracle", "--model", path])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: non-finite integrand value")
        # nor in a fresh interpreter that turns every warning into an error
        src = os.path.dirname(os.path.dirname(lwlattice.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lwlattice.cli", "oracle", "--model", path],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 3
        assert done.stderr.startswith("error: non-finite integrand value")

    def test_huge_coupling_exit_zero_under_warnings_as_errors(self, model_path):
        # log-weights near -1e20: the negligible-point screen keeps each chunk's largest
        steep = {"n": 1, "A": [[1.0]], "interaction": {"type": "diagonal_quartic", "v": [[1e24]]}}
        path = model_path(steep)
        src = os.path.dirname(os.path.dirname(lwlattice.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lwlattice.cli", "oracle", "--model", path],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert np.isfinite(json.loads(done.stdout)["omega"])

    def test_deep_well_reports_omega_not_z(self, capsys, model_path):
        # Z = exp(-Omega) overflows a float here; warnings fail this suite
        deep = {"n": 1, "A": [[-40.0]], "interaction": {"type": "diagonal_quartic", "v": [[1.0]]}}
        code, payload = run_json(capsys, ["oracle", "--model", model_path(deep)])
        assert code == 0 and "z" not in payload
        assert np.log(np.finfo(float).max) < -payload["omega"] < np.inf
        mc_flags = ["--mode", "mc", "--mc-samples", "6400"]
        code, payload = run_json(capsys, ["oracle", "--model", model_path(deep), *mc_flags])
        assert code == 0 and "z" not in payload and "z" not in payload["std_errors"]
        assert np.isfinite(payload["omega"])

    def test_missing_model_file(self, capsys, tmp_path):
        code = dispatch(["oracle", "--model", str(tmp_path / "none.json")])
        assert code == 1

    def test_usage_error_is_validation(self, capsys):
        code = dispatch(["oracle"])  # --model missing
        assert code == 1

    def test_node_count_above_cap_rejected(self, capsys, model_path):
        nodes = str(QUAD_NODE_CAP + 1)
        code = dispatch(["oracle", "--model", model_path(GAUSS_1D), "--quad-nodes", nodes])
        assert code == 1
        assert "error: quadrature limited to" in capsys.readouterr().err

    def test_single_node_rule_rejected(self, capsys, model_path):
        # one node is the point x = 0, where G = 0: a usage error, not exit 3
        model = {"n": 2, "A": [[1.0, 0.2], [0.2, 0.8]],
                 "interaction": {"type": "diagonal_quartic", "v": [[1.0, 0.5], [0.5, 1.0]]}}
        code = dispatch(["oracle", "--model", model_path(model), "--quad-nodes", "1"])
        assert code == 1
        assert "error: nodes_per_dim must be at least 2" in capsys.readouterr().err

    def test_zero_sample_count_rejected(self, capsys, model_path):
        code = dispatch(
            ["oracle", "--model", model_path(GAUSS_1D), "--mode", "mc", "--mc-samples", "0"]
        )
        assert code == 1
        assert "error: samples" in capsys.readouterr().err

    def test_sample_count_above_cap_rejected(self, capsys, model_path):
        # 10**30 samples once ended in a TypeError traceback from np.log
        model = dict(QUARTIC_1D, oracle={"mode": "monte_carlo", "samples": 10**30})
        code = dispatch(["oracle", "--model", model_path(model)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: samples must be at most")


class TestInvertAndLw:
    def test_invert_gaussian(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[0.5]]))
        code, payload = run_json(
            capsys, ["invert", "--model", model_path(GAUSS_1D), "--G", str(g)]
        )
        assert code == 0
        assert payload["a_of_g"][0][0] == pytest.approx(2.0, abs=1e-9)

    def test_lw_quartic(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        code, payload = run_json(
            capsys,
            [
                "lw", "--model", model_path(QUARTIC_1D), "--G", str(g),
                "--quad-nodes", "160", "--tol", "1e-11",
            ],
        )
        assert code == 0
        assert payload["phi"] == pytest.approx(-0.61015233527279275, abs=1e-8)
        assert payload["sigma_exact"][0][0] == pytest.approx(-1.0785281441273579, abs=1e-8)

    def test_zero_node_count_rejected(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        code = dispatch(
            ["lw", "--model", model_path(QUARTIC_1D), "--G", str(g), "--quad-nodes", "0"]
        )
        assert code == 1
        assert "error: nodes_per_dim" in capsys.readouterr().err

    def test_zero_iteration_budget_is_kept(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        code = dispatch(
            ["lw", "--model", model_path(QUARTIC_1D), "--G", str(g), "--max-iter", "0"]
        )
        assert code == 2
        assert "no convergence in 0 iterations" in capsys.readouterr().err

    def test_boundary_too_close_exit(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1e-8]]))
        code = dispatch(["lw", "--model", model_path(QUARTIC_1D), "--G", str(g)])
        assert code == 1


class TestSolverControls:
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("lw", ["--tol", "-1"], "tol must"),
            ("lw", ["--tol", "nan"], "tol must"),
            ("invert", ["--max-iter", "-1"], "max_iter must"),
            ("dyson", ["--tol", "-1"], "tol must"),
            ("dyson", ["--tol", "nan"], "tol must"),
        ],
    )
    def test_rejected_before_the_solve(
        self, capsys, model_path, tmp_path, monkeypatch, command, flags, message
    ):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle was called")

        monkeypatch.setattr(duality, "evaluate_moments", no_oracle)
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        argv = [command, "--model", model_path(QUARTIC_1D), *flags]
        if command != "dyson":
            argv += ["--G", str(g)]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestSigmaCommand:
    def test_first_order(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        code, payload = run_json(
            capsys,
            ["sigma", "--model", model_path(QUARTIC_1D), "--G", str(g), "--order", "1"],
        )
        assert code == 0
        assert payload["sigma"][0][0] == pytest.approx(-1.5)

    def test_scaled_interaction_folds_strength(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        scaled = {
            "n": 1,
            "A": [[1.0]],
            "interaction": {
                "type": "scaled",
                "factor": 0.1,
                "inner": {"type": "diagonal_quartic", "v": [[1.0]]},
            },
        }
        code, payload = run_json(
            capsys, ["sigma", "--model", model_path(scaled), "--G", str(g), "--order", "1"]
        )
        assert code == 0
        assert payload["sigma"][0][0] == pytest.approx(-0.15)

    def test_unsupported_order(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        code = dispatch(
            ["sigma", "--model", model_path(QUARTIC_1D), "--G", str(g), "--order", "3"]
        )
        assert code == 1


class TestBoldOverflow:
    """A bold coupling, a bold coefficient or a solver residual that overflows
    is a numerical failure (exit 3) with one error line and no output, not a
    traceback, whether numpy warnings are errors or shown."""

    HUGE = {
        "n": 1,
        "A": [[1.0]],
        "interaction": {"type": "scaled", "factor": 1e200, "inner": QUARTIC_1D["interaction"]},
    }
    UNSCALED = {"n": 1, "A": [[1.0]], "interaction": {"type": "diagonal_quartic", "v": [[1e200]]}}
    COUPLING = "bold coupling 1e+200 overflows at order 2"
    COEFFICIENT = "bold self-energy overflows at order 2"
    CASES = [
        (["sigma", "--order", "2"], HUGE, COUPLING),
        (["dyson", "--sigma-model", "bold12"], HUGE, COUPLING),
        (["minimize", "--sigma-model", "bold12"], HUGE, COUPLING),
        (["dyson", "--sigma-model", "bold1"], HUGE, "Dyson residual overflows at iteration 1"),
        (
            ["minimize", "--sigma-model", "bold1"], HUGE, "free-energy gradient overflows at iteration 1"
        ),
        (["sigma", "--order", "2"], UNSCALED, COEFFICIENT),
        (["dyson", "--sigma-model", "bold12"], UNSCALED, COEFFICIENT),
        (["minimize", "--sigma-model", "bold12"], UNSCALED, COEFFICIENT),
    ]
    PARAMS = [
        pytest.param(argv, model, message, id=f"argv{k}")
        for k, (argv, model, message) in enumerate(CASES)
    ]

    def run(self, model_path, tmp_path, argv, model, warning_flags):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        if argv[0] == "sigma":
            argv = [*argv, "--G", str(g)]
        src = os.path.dirname(os.path.dirname(lwlattice.__file__))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        return subprocess.run(
            [sys.executable, *warning_flags, "-m", "lwlattice.cli", *argv]
            + ["--model", model_path(model)],
            env={**env, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )

    @pytest.mark.parametrize("argv, model, message", PARAMS)
    def test_exit_three_under_warnings_as_errors(self, model_path, tmp_path, argv, model, message):
        done = self.run(model_path, tmp_path, argv, model, ["-W", "error"])
        assert (done.returncode, done.stderr, done.stdout) == (3, f"error: {message}\n", "")

    @pytest.mark.parametrize("argv, model, message", PARAMS)
    def test_exit_three_with_warnings_shown(self, model_path, tmp_path, argv, model, message):
        done = self.run(model_path, tmp_path, argv, model, ["-W", "default"])
        assert (done.returncode, done.stderr, done.stdout) == (3, f"error: {message}\n", "")

    def test_first_order_stays_finite(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        argv = ["sigma", "--model", model_path(self.HUGE), "--G", str(g), "--order", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run_json(capsys, argv)
        assert code == 0 and payload["sigma"] == [[-1.5e200]]


class TestSolverCommands:
    def test_dyson_bold1(self, capsys, model_path):
        code, payload = run_json(
            capsys,
            [
                "dyson", "--model", model_path(QUARTIC_1D),
                "--sigma-model", "bold1", "--tol", "1e-10",
            ],
        )
        assert code == 0
        assert payload["converged"] is True
        root = (np.sqrt(7.0) - 1.0) / 3.0
        assert payload["final_green"][0][0] == pytest.approx(root, abs=1e-9)

    def test_trace_csv(self, tmp_path, model_path):
        trace = tmp_path / "trace.csv"
        code = dispatch(
            [
                "dyson", "--model", model_path(QUARTIC_1D),
                "--sigma-model", "bold1", "--trace-csv", str(trace), "--out",
                str(tmp_path / "o.json"),
            ]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,residual,free_energy"
        assert len(lines) > 2

    @pytest.mark.parametrize("command", ["dyson", "minimize"])
    def test_converged_free_energy_is_last_record(self, capsys, model_path, monkeypatch, command):
        def no_second_solve(*args, **kwargs):
            raise AssertionError("free_energy recomputed after a converged run")

        monkeypatch.setattr(cli, "free_energy", no_second_solve)
        code, payload = run_json(
            capsys, [command, "--model", model_path(QUARTIC_1D), "--sigma-model", "bold1"]
        )
        assert code == 0
        assert payload["converged"] is True
        assert payload["free_energy"] == payload["iterates"][-1]["free_energy"]

    def test_non_convergence_exit_two(self, capsys, model_path):
        code = dispatch(
            [
                "dyson", "--model", model_path(QUARTIC_1D),
                "--sigma-model", "bold1", "--tol", "1e-12", "--max-iter", "2",
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_minimize_has_no_damping(self, capsys, model_path):
        code = dispatch(
            [
                "minimize", "--model", model_path(QUARTIC_1D),
                "--sigma-model", "bold1", "--damping", "0.3",
            ]
        )
        assert code == 1
        assert "--damping" in capsys.readouterr().err

    def test_minimize_matches(self, capsys, model_path):
        code, payload = run_json(
            capsys,
            [
                "minimize", "--model", model_path(QUARTIC_1D),
                "--sigma-model", "bold1", "--tol", "1e-9",
            ],
        )
        assert code == 0
        root = (np.sqrt(7.0) - 1.0) / 3.0
        assert payload["final_green"][0][0] == pytest.approx(root, abs=1e-8)


    @pytest.mark.parametrize("command", ["dyson", "minimize"])
    def test_non_spd_a_without_interaction_exit_one(self, capsys, model_path, command):
        model = {"n": 2, "A": [[-0.5, 0.1], [0.1, 1.0]], "interaction": {"type": "zero"}}
        code = dispatch([command, "--model", model_path(model), "--sigma-model", "none"])
        assert code == 1
        assert "requires A to be SPD" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dyson", "minimize"])
    def test_exact_model_on_a_divergent_integral_exit_three(self, capsys, model_path, command):
        # the exact model evaluates once at A, so the possibly divergent
        # integral there is reported before any inner solve could stall (exit 2)
        model = {
            "n": 2,
            "A": [[-0.2, 0.1], [0.1, 0.5]],
            "interaction": {"type": "diagonal_quartic", "v": [[1.0, -1.2], [-1.2, 1.0]]},
        }
        code = dispatch([command, "--model", model_path(model), "--sigma-model", "exact"])
        assert code == 3
        assert "may diverge" in capsys.readouterr().err


class TestNonDiagonalModels:
    def test_composed_interaction_oracle(self, capsys, model_path):
        c = s = float(np.sqrt(0.5))
        model = {
            "n": 2,
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "interaction": {
                "type": "composed",
                "map": [[c, s], [-s, c]],
                "inner": {"type": "diagonal_quartic", "v": [[1.0, 0.5], [0.5, 1.0]]},
            },
        }
        code, payload = run_json(capsys, ["oracle", "--model", model_path(model)])
        assert code == 0
        assert np.isfinite(payload["omega"])

    @pytest.mark.parametrize(
        "linmap, code", [([[1.0, 1.0], [1.0, 1.0 + 1e-12]], 1), ([[1e-4, 0.0], [0.0, 1e-4]], 0)]
    )
    def test_composed_map_judged_by_condition_number(self, capsys, model_path, linmap, code):
        model = {
            "n": 2,
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "interaction": {
                "type": "composed",
                "map": linmap,
                "inner": {"type": "diagonal_quartic", "v": [[1.0, 0.0], [0.0, 1.0]]},
            },
        }
        assert dispatch(["oracle", "--model", model_path(model)]) == code
        captured = capsys.readouterr()
        if code:
            assert "reciprocal condition number" in captured.err

    def test_general_quartic_model(self, capsys, model_path):
        # x^4 with unit coefficient, flat row-major tensor of one entry
        model = {
            "n": 1,
            "A": [[1.0]],
            "interaction": {"type": "general_quartic", "w": [0.125]},
        }
        code, payload = run_json(capsys, ["oracle", "--model", model_path(model)])
        assert code == 0
        # same theory as diagonal_quartic v=[[1]]
        assert payload["omega"] == pytest.approx(-np.log(2.1019609161655169959), abs=4e-9)

    def test_sigma_rejects_general_quartic(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        model = {
            "n": 1,
            "A": [[1.0]],
            "interaction": {"type": "general_quartic", "w": [0.125]},
        }
        code = dispatch(
            ["sigma", "--model", model_path(model), "--G", str(g), "--order", "1"]
        )
        assert code == 1


class TestVerifyCommand:
    def test_gaussian_suite(self, capsys):
        code = dispatch(["verify", "--suite", "gaussian"])
        captured = capsys.readouterr()
        assert code == 0
        reports = json.loads(captured.out)
        assert all(r["passed"] for r in reports)
        assert "PASS" in captured.err

    def test_unknown_suite_usage_error(self, capsys):
        code = dispatch(["verify", "--suite", "bogus"])
        assert code == 1


class TestSweepCommand:
    def test_phi_sweep_rows(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        code = dispatch(
            [
                "sweep", "--model", model_path(QUARTIC_1D), "--G", str(g),
                "--quantity", "phi", "--eps", "1e-3:1e-1:log:10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eps,phi,residual_vs_series"
        assert len(lines) == 11
        eps, phi, residual = (float(x) for x in lines[1].split(","))
        assert eps == pytest.approx(1e-3)
        assert phi < 0.0
        assert residual <= 1e-6

    def test_sigma_sweep(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        out = tmp_path / "sweep.csv"
        code = dispatch(
            [
                "sweep", "--model", model_path(QUARTIC_1D), "--G", str(g),
                "--quantity", "sigma", "--eps", "1e-2:1e-1:log:4",
                "--order", "1", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eps,sigma,residual_vs_series"
        assert len(lines) == 5
        # first-order truncation leaves an O(eps^2) residual
        first = float(lines[1].split(",")[2])
        last = float(lines[4].split(",")[2])
        assert first < last

    @pytest.mark.parametrize("quantity", ["phi", "sigma"])
    def test_scaled_coupled_matches_cold_start(self, capsys, model_path, tmp_path, quantity):
        # the eps column is the dial on the model's own scale: the coupling is 0.7 eps
        v = [[1.0, 0.5], [0.5, 1.0]]
        model = {
            "n": 2,
            "A": [[1.0, 0.2], [0.2, 0.8]],
            "interaction": {
                "type": "scaled", "factor": 0.7, "inner": {"type": "diagonal_quartic", "v": v}
            },
        }
        green = [[0.9, 0.1], [0.1, 0.7]]
        g = tmp_path / "g.json"
        g.write_text(json.dumps(green))
        argv = ["sweep", "--model", model_path(model), "--G", str(g), "--quantity", quantity]
        code = dispatch([*argv, "--eps", "1e-3:1e-1:log:6"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 6
        series = BoldSeries.build(SpdMatrix(green), SymMatrix(v), 2)
        for row in rows:
            eps, value, residual = (float(x) for x in row.split(","))
            coupling = 0.7 * eps
            cold = lw_evaluate(
                SpdMatrix(green), ScaledInteraction(coupling, DiagonalQuartic(v)), OracleConfig()
            )
            if quantity == "phi":
                expected = cold.phi
                expected_residual = abs(cold.phi - series.truncated_phi(coupling))
            else:
                expected = np.linalg.norm(cold.sigma_exact.mat)
                expected_residual = np.linalg.norm(
                    cold.sigma_exact.mat - series.truncated_sigma(coupling).mat
                )
            # warm and cold Newton solves stop at different points inside the
            # solver tolerance: measured at most 8.9e-16 (phi), 7.9e-9 (sigma)
            assert value == pytest.approx(expected, abs=1e-8)
            assert residual == pytest.approx(expected_residual, abs=1e-8)

    def test_linear_grid(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        code = dispatch(
            [
                "sweep", "--model", model_path(QUARTIC_1D), "--G", str(g),
                "--eps", "0.01:0.05:lin:5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        eps_column = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert eps_column == pytest.approx([0.01, 0.02, 0.03, 0.04, 0.05])

    def test_bad_grid_spec(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        code = dispatch(
            [
                "sweep", "--model", model_path(QUARTIC_1D), "--G", str(g),
                "--eps", "oops",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("a:b:log:3", "malformed eps grid"),
            ("0:1e-1:log:3", "bounds must be positive"),
            ("1e-3:1e-1:cubic:3", "kind must be 'log' or 'lin'"),
            ("1e-3:1e-1:log:0", "count must be at least 1"),
            ("1e-3:inf:lin:3", "bounds must be finite"),
            ("1e-3:1e400:log:3", "bounds must be finite"),
            ("1e-3:nan:log:3", "bounds must be finite"),
            ("nan:1:lin:2", "bounds must be finite"),
            ("1e-3:-inf:lin:2", "bounds must be finite"),
        ],
    )
    def test_rejected_grid_values(
        self, capsys, model_path, tmp_path, monkeypatch, spec, message
    ):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle was called")

        monkeypatch.setattr(duality, "evaluate_moments", no_oracle)
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        argv = ["sweep", "--model", model_path(QUARTIC_1D), "--G", str(g), "--eps", spec]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


    def test_coupling_overflow_is_rejected_before_any_oracle_call(
        self, capsys, model_path, tmp_path, monkeypatch
    ):
        # each bound is finite, but eps times the model's factor 1e300 is not
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle was called")

        monkeypatch.setattr(duality, "evaluate_moments", no_oracle)
        model = {
            "n": 1,
            "A": [[1.0]],
            "interaction": {"type": "scaled", "factor": 1e300, "inner": QUARTIC_1D["interaction"]},
        }
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0]]))
        argv = ["sweep", "--model", model_path(model), "--G", str(g), "--eps", "1e10:1e11:log:2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scale factor 1e+300 overflows" in err


class TestMalformedInput:
    """Malformed numbers in input files are usage errors, not tracebacks."""

    @pytest.mark.parametrize(
        "model",
        [
            {"n": 1, "A": [["x"]], "interaction": {"type": "zero"}},
            {**GAUSS_1D, "oracle": {"nodes_per_dim": "64"}},
            {
                "n": 1,
                "A": [[1.0]],
                "interaction": {
                    "type": "scaled",
                    "factor": "abc",
                    "inner": {"type": "diagonal_quartic", "v": [[1.0]]},
                },
            },
            # numbers given as strings or bools load as numbers nowhere
            {"n": 1, "A": [["1.0"]], "interaction": {"type": "zero"}},
            {**GAUSS_1D, "interaction": {"type": "diagonal_quartic", "v": [["1"]]}},
            {**GAUSS_1D, "interaction": {"type": "general_quartic", "w": ["1.0"]}},
            {
                **GAUSS_1D,
                "interaction": {
                    "type": "composed",
                    "map": [["1.0"]],
                    "inner": {"type": "diagonal_quartic", "v": [[1.0]]},
                },
            },
            {
                **GAUSS_1D,
                "interaction": {
                    "type": "scaled",
                    "factor": "0.5",
                    "inner": {"type": "diagonal_quartic", "v": [[1.0]]},
                },
            },
            {**GAUSS_1D, "n": True},
            {**GAUSS_1D, "oracle": {"seed": True}},
            {"n": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "interaction": {"type": "zero", "n": 2.7}},
            # the duality solver asks for fourth moments; a model file does not
            {**GAUSS_1D, "oracle": {"want_fourth_moments": True}},
            {**GAUSS_1D, "oracle": 5},
            # (-2)^4 entries pass the length check, then reshape fails
            {
                "n": 2,
                "A": [[1.0, 0.0], [0.0, 1.0]],
                "interaction": {"type": "general_quartic", "n": -2, "w": [0.0] * 16},
            },
            # a JSON integer with no float value
            {
                **GAUSS_1D,
                "interaction": {
                    "type": "scaled",
                    "factor": 10**400,
                    "inner": {"type": "diagonal_quartic", "v": [[1.0]]},
                },
            },
        ],
        ids=[
            "matrix-entry", "oracle-field", "scaled-factor",
            "matrix-string", "coupling-string", "tensor-string", "map-string",
            "factor-string", "n-bool", "seed-bool", "zero-n-fraction",
            "want-fourth-moments", "oracle-not-object",
            "tensor-negative-n", "factor-beyond-float",
        ],
    )
    def test_model_file(self, capsys, model_path, model):
        code = dispatch(["oracle", "--model", model_path(model)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_ragged_green_file(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0], [2.0, 3.0]]))
        code = dispatch(["lw", "--model", model_path(QUARTIC_1D), "--G", str(g)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_boolean_green_file(self, capsys, model_path, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[True]]))
        code = dispatch(["lw", "--model", model_path(QUARTIC_1D), "--G", str(g)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestFileSystemErrors:
    """Unreadable inputs and unwritable outputs end in ``error:``, not a traceback."""

    @pytest.mark.parametrize("flag", ["--model", "--G"])
    def test_input_is_a_directory(self, capsys, model_path, tmp_path, flag):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[0.5]]))
        argv = ["lw", "--model", model_path(QUARTIC_1D), "--G", str(g)]
        argv[argv.index(flag) + 1] = str(tmp_path)
        code = dispatch(argv)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_model_and_green_files_name_the_model(self, capsys, tmp_path):
        model, green = str(tmp_path / "m.json"), str(tmp_path / "g.json")
        code = dispatch(["lw", "--G", green, "--model", model])
        assert code == 1
        assert capsys.readouterr().err == f"error: model file not found: {model}\n"

    @pytest.mark.parametrize("flag", ["--out", "--trace-csv"])
    def test_output_in_missing_directory(self, capsys, model_path, tmp_path, flag):
        argv = [
            "dyson", "--model", model_path(QUARTIC_1D), "--sigma-model", "bold1",
            "--out", str(tmp_path / "o.json"), "--trace-csv", str(tmp_path / "trace.csv"),
        ]
        argv[argv.index(flag) + 1] = str(tmp_path / "missing" / "x")
        code = dispatch(argv)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
