"""The library names that the benchmark under perfbench/ reads still exist.

This suite runs only tests/, so a name that only the benchmark reads could be
deleted or renamed with every test here still passing, and every traced
benchmark run would then fail. The benchmark's tracer and workloads are
loaded by path: a plain ``import tracing`` would read as an undeclared
third-party import.

    python -m pytest -q tests/test_benchmark_contract.py
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lwlattice import cli, duality, oracle, solver, verify
from lwlattice.diagrams import BoldSeries
from lwlattice.interactions import DiagonalQuartic
from lwlattice.matrices import SpdMatrix, SymMatrix
from lwlattice.oracle import OracleConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


def test_one_traced_call_is_counted(tracing):
    original = oracle.evaluate_moments
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        # the benchmark's own tests read the oracle through these modules
        for module in (duality, verify, cli):
            assert module.evaluate_moments is oracle.evaluate_moments is not original
        assert solver.lw_evaluate is duality.lw_evaluate
        oracle.evaluate_moments(
            SymMatrix(np.eye(2)), DiagonalQuartic(np.eye(2)), OracleConfig(nodes_per_dim=8)
        )
    assert oracle.evaluate_moments is original
    metrics = tracing.layer_metrics(tracer.spans, 1.0)
    assert set(metrics) == set(tracing.UNITS)
    assert metrics["oracle.calls"] == 1 and metrics["oracle.points"] == 64
    assert metrics["interactions.growth_calls"] == 1
    assert metrics["interactions.calls"] >= 1


def test_bold_series_coefficients_are_traced(tracing):
    # the series looks sigma1 and sigma2 up when it runs, so the wrappers that
    # replace the module attributes record them inside the series' own span
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        BoldSeries.build(SpdMatrix([[1.0]]), SymMatrix([[1.0]]), 2)
    names = [span.name for span in tracer.spans]
    build = names.index("diagrams.BoldSeries.build")
    inner = [span.name for span in tracer.spans if span.parent == build]
    assert inner == ["diagrams.sigma1", "diagrams.sigma2"]


def test_every_workload_builds():
    workloads = load("workloads")
    for name, build in workloads.WORKLOADS.items():
        workload = build(1)
        assert workload.items, name
        assert all(callable(item.run) and callable(item.gate) for item in workload.items)
    # read by the lw-quad gate, which building does not run
    assert OracleConfig().envelope_floor > 0.0


def test_every_suite_report_is_one_traced_check(tracing):
    # the benchmark counts verify.checks from the spans on the public check_*
    # functions, so a report must not come from a private helper
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        reports = verify.run_suite("all", OracleConfig())
    (run,) = [i for i, span in enumerate(tracer.spans) if span.name == "verify.run_suite"]
    checks = [span for span in tracer.spans if span.name.startswith("verify.check_")]
    assert len(checks) == len(reports) == 23
    for span, report in zip(checks, reports):
        assert report.name.startswith(span.name[len("verify.check_"):])
        assert span.parent == run and span.info == {"passed": report.passed}
    metrics = tracing.layer_metrics(tracer.spans, 1.0)
    assert metrics["verify.checks"] == metrics["verify.checks_passed"] == len(reports)
