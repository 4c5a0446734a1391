"""Tests of the benchmark itself: inputs, gates and the timing wrappers.

    python3 -m pytest -q perfbench/tests
"""

import json
import signal
import statistics
import time

import pytest

import lwlattice
from lwlattice import cli, duality, oracle, solver, verify
from lwlattice.diagrams import BoldSeries
from lwlattice.interactions import Interaction

import reference
import run
import tracing
import workloads


#: A metric each workload's traced pass must move off zero.
REACHES = {
    "lw-quad": "duality.solves",
    "invert-mc": "duality.solves",
    "dyson-exact": "solver.outer_iters",
    "verify-all": "verify.checks",
}


def _inputs_json(name, seed):
    return json.dumps(workloads.WORKLOADS[name](seed).inputs, sort_keys=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    assert _inputs_json(name, 7) == _inputs_json(name, 7)
    assert _inputs_json(name, 7) != _inputs_json(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_are_bit_identical_and_counts_repeat(name):
    wl = workloads.WORKLOADS[name](1)
    wl.items = wl.items[:1] if name == "verify-all" else wl.items
    failed, plain = run.gate_outputs(wl, run.run_items(wl)[1])
    assert failed == 0
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            wall, outputs = run.run_items(wl, tracer)
        failed, traced = run.gate_outputs(wl, outputs)
        assert failed == 0
        assert traced == plain
        counts.append(tracing.layer_metrics(tracer.spans, wall))
    for key in ("oracle.calls", "oracle.calls_m4", "duality.newton_iters", "solver.outer_iters"):
        assert counts[0][key] == counts[1][key]
    assert counts[0]["oracle.calls"] > 0
    assert counts[0][REACHES[name]] > 0
    assert counts[0]["trace.coverage"] == pytest.approx(1.0, abs=0.05)


def test_host_sampler_is_transparent_and_taken_out_of_the_wall_time():
    wl = workloads.build_verify_all(1)
    wl.items = wl.items[:1]
    plain = run.gate_outputs(wl, run.run_items(wl)[1])
    host = reference.HostSpeed(*wl.reference_shape)
    before = signal.getsignal(signal.SIGALRM)
    with host:
        start = time.perf_counter()
        wall, outputs = run.run_items(wl, host=host)
        elapsed = time.perf_counter() - start
    assert run.gate_outputs(wl, outputs) == plain
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    during = [took for at, took in host.samples if start <= at <= start + elapsed]
    assert len(during) >= 3
    assert wall == pytest.approx(elapsed - sum(during), abs=1e-3)
    assert host.rate() == pytest.approx(statistics.fmean(1.0 / t for t in host.times()))


def test_newton_iterations_counted_from_outside_match_the_solver():
    wl = workloads.build_lw_quad(2)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        reports = [wl.items[0].run()]
    m = tracing.layer_metrics(tracer.spans, 1.0)
    assert m["duality.solves"] == 1
    assert m["duality.newton_iters"] == sum(r.solver_iterations for r in reports)
    assert m["duality.full_evals_per_solve"] == reports[0].solver_iterations + 1


def _references():
    return (
        oracle.evaluate_moments,
        duality.evaluate_moments,
        verify.evaluate_moments,
        cli.evaluate_moments,
        lwlattice.lw_evaluate,
        solver.lw_evaluate,
        Interaction.__dict__["evaluate"],
        BoldSeries.__dict__["build"],
    )


def test_instrumentation_is_restored():
    originals = _references()
    with tracing.instrumented(tracing.Tracer()):
        swapped = _references()
        assert not any(a is b for a, b in zip(originals, swapped))
        assert duality.evaluate_moments is cli.evaluate_moments
    assert all(a is b for a, b in zip(originals, _references()))


def test_self_time_subtracts_direct_children():
    spans = []
    for name, start, end, parent in [
        ("duality.lw_evaluate", 0.0, 10.0, -1),
        ("oracle.evaluate_moments", 2.0, 5.0, 0),
        ("interactions.evaluate", 3.0, 4.0, 1),
    ]:
        span = tracing.Span(name, start, parent, 0)
        span.end = end
        spans.append(span)
    spans[1].info = {"m4": True, "points": 8}
    spans[2].info = {"points": 8}
    m = tracing.layer_metrics(spans, 10.0)
    assert m["duality.self_s"] == 7.0
    assert m["oracle.self_s"] == m["oracle.m4_s"] == 2.0
    assert m["interactions.self_s"] == 1.0
    assert m["duality.oracle_wait_s"] == 3.0
    assert m["trace.coverage"] == 1.0
