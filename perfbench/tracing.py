"""Per-layer spans for lwlattice, recorded from outside the library.

``instrumented`` swaps each layer's public functions for timing wrappers:
every loaded ``lwlattice`` module that holds a reference to a wrapped function
gets the wrapper, class attributes are swapped on the class, and everything is
restored on exit. A span has a name, start, end, parent and item id; a
layer's self time is its spans' durations minus the time their direct
children cover. The library itself is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict

from lwlattice import diagrams, interactions, oracle

CHECKS = (
    "gradient_omega",
    "bijection",
    "asymptotic_order",
    "transformation_rule",
    "boundary_continuity",
    "selfenergy_gradient",
    "truncation_lemma",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "error", "info")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.error = False
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.item, self.error]


class Tracer:
    """In-memory span recorder for one single-threaded caller."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, self.item)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if info is not None:
                    # result is None when the call raised
                    span.info = info(result, *args, **kwargs)

        return traced


def _oracle_info(result, a, u, cfg):
    n = len(a.mat) if hasattr(a, "mat") else len(a)
    if cfg.mode == "quadrature":
        points = cfg.nodes_per_dim**n
    else:
        points = cfg.samples // oracle.MC_BATCHES * oracle.MC_BATCHES
    return {"m4": bool(cfg.want_fourth_moments), "points": points}


def _evaluate_info(result, self, x):
    shape = getattr(x, "shape", None)
    return {"points": shape[0] if shape is not None and len(shape) == 2 else 1}


def _check_info(result, *args, **kwargs):
    return {"passed": result is not None and bool(result.passed)}


def _solve_info(result, *args, **kwargs):
    if result is None:
        return {"outer_iters": 0, "converged": False}
    return {"outer_iters": len(result.iterates), "converged": bool(result.converged)}


def _dumps_info(result, *args, **kwargs):
    return {"bytes": 0 if result is None else len(result.encode("utf-8"))}


# (span name, module holding the original, attribute, info, swap everywhere)
_MODULE_TARGETS = [
    ("oracle.evaluate_moments", "lwlattice.oracle", "evaluate_moments", _oracle_info, True),
    # only the oracle's reference, so that one screen is one span: the
    # screen recurses through its own module's name
    ("interactions.validate_growth", "lwlattice.oracle", "validate_growth", None, False),
    ("duality.inverse_map", "lwlattice.duality", "inverse_map", None, True),
    ("duality.lw_evaluate", "lwlattice.duality", "lw_evaluate", None, True),
    ("duality.exact_self_energy", "lwlattice.duality", "exact_self_energy", None, True),
    ("duality.rho_g_logdensity", "lwlattice.duality", "rho_g_logdensity", None, True),
    ("diagrams.sigma1", "lwlattice.diagrams", "sigma1", None, True),
    ("diagrams.sigma2", "lwlattice.diagrams", "sigma2", None, True),
    ("solver.dyson_solve", "lwlattice.solver", "dyson_solve", _solve_info, True),
    ("solver.minimize_free_energy", "lwlattice.solver", "minimize_free_energy", _solve_info, True),
    # a single variational evaluation, no iterates
    ("solver.free_energy", "lwlattice.solver", "free_energy", None, True),
    ("verify.run_suite", "lwlattice.verify", "run_suite", None, True),
    *[
        (f"verify.check_{check}", "lwlattice.verify", f"check_{check}", _check_info, True)
        for check in CHECKS
    ],
    ("cli.dispatch", "lwlattice.cli", "dispatch", None, True),
    ("modelio.dumps", "lwlattice.modelio", "dumps", _dumps_info, True),
]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Swap in timing wrappers for the duration of the block."""
    restore = []
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "lwlattice"]
    try:
        for name, owner, attr, info, everywhere in _MODULE_TARGETS:
            original = getattr(sys.modules[owner], attr)
            wrapper = tracer.wrap(name, original, info)
            for module in modules if everywhere else [sys.modules[owner]]:
                if module.__dict__.get(attr) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        evaluate = interactions.Interaction.__dict__["evaluate"]
        restore.append((interactions.Interaction, "evaluate", evaluate))
        interactions.Interaction.evaluate = tracer.wrap(
            "interactions.evaluate", evaluate, _evaluate_info
        )
        build = diagrams.BoldSeries.__dict__["build"]
        restore.append((diagrams.BoldSeries, "build", build))
        diagrams.BoldSeries.build = classmethod(tracer.wrap("diagrams.BoldSeries.build", build.__func__))
        yield tracer
    finally:
        for target, attr, original in reversed(restore):
            setattr(target, attr, original)


#: Every per-layer metric of one pass, with its unit.
UNITS = {
    "oracle.calls": "count",
    "oracle.calls_m4": "count",
    "oracle.points": "count",
    "oracle.self_s": "s",
    "oracle.m4_s": "s",
    "oracle.g_s": "s",
    "oracle.errors": "count",
    "interactions.calls": "count",
    "interactions.points": "count",
    "interactions.self_s": "s",
    "interactions.growth_calls": "count",
    "interactions.growth_s": "s",
    "duality.solves": "count",
    "duality.newton_iters": "count",
    "duality.full_evals_per_solve": "count",
    "duality.probe_evals_per_solve": "count",
    "duality.self_s": "s",
    "duality.oracle_wait_s": "s",
    "duality.failures": "count",
    "diagrams.calls": "count",
    "diagrams.self_s": "s",
    "solver.outer_iters": "count",
    "solver.inner_solves": "count",
    "solver.self_s": "s",
    "solver.converged": "count",
    "verify.checks": "count",
    "verify.checks_passed": "count",
    "verify.self_s": "s",
    **{f"verify.{check}_s": "s" for check in CHECKS},
    "cli.self_s": "s",
    "modelio.dumps_s": "s",
    "modelio.bytes_out": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
COUNT_METRICS = tuple(name for name, unit in UNITS.items() if unit in ("count", "B"))


def _self_times(spans):
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds.

    ``trace.overhead_s`` needs an untraced pass to compare with and is left
    at 0 here.
    """
    self_s = _self_times(spans)
    oracle_children = defaultdict(list)
    duality_children = defaultdict(int)
    for span in spans:
        if span.parent >= 0 and span.layer == "oracle":
            oracle_children[span.parent].append(span)
        elif span.parent >= 0 and span.layer == "duality":
            duality_children[span.parent] += 1
    m = {name: 0 if name in COUNT_METRICS else 0.0 for name in UNITS}
    layer_self = defaultdict(float)
    full_evals = probe_evals = 0
    for index, (span, own) in enumerate(zip(spans, self_s)):
        layer = span.layer
        layer_self[layer] += own
        if layer == "oracle":
            m["oracle.calls"] += 1
            m["oracle.calls_m4"] += span.info["m4"]
            m["oracle.points"] += span.info["points"]
            m["oracle.m4_s" if span.info["m4"] else "oracle.g_s"] += own
            m["oracle.errors"] += span.error
        elif span.name == "interactions.evaluate":
            m["interactions.calls"] += 1
            m["interactions.points"] += span.info["points"]
        elif span.name == "interactions.validate_growth":
            m["interactions.growth_calls"] += 1
            m["interactions.growth_s"] += own
        elif layer == "duality":
            calls = oracle_children[index]
            full = sum(1 for c in calls if c.info["m4"])
            m["duality.solves"] += 1
            m["duality.failures"] += span.error
            # one full evaluation at the start, then one per Newton step
            m["duality.newton_iters"] += max(full - 1, 0)
            m["duality.oracle_wait_s"] += sum(c.duration for c in calls)
            full_evals += full
            probe_evals += len(calls) - full
        elif layer == "diagrams":
            m["diagrams.calls"] += 1
        elif layer == "solver":
            m["solver.inner_solves"] += duality_children[index]
            if span.info is not None:
                m["solver.outer_iters"] += span.info["outer_iters"]
                m["solver.converged"] += span.info["converged"]
        elif span.name.startswith("verify.check_"):
            m["verify.checks"] += 1
            m["verify.checks_passed"] += span.info["passed"]
            m["verify." + span.name[len("verify.check_"):] + "_s"] += span.duration
        elif span.name == "modelio.dumps":
            m["modelio.bytes_out"] += span.info["bytes"]
            m["modelio.dumps_s"] += span.duration
    if m["duality.solves"]:
        m["duality.full_evals_per_solve"] = full_evals / m["duality.solves"]
        m["duality.probe_evals_per_solve"] = probe_evals / m["duality.solves"]
    for layer in ("oracle", "interactions", "duality", "diagrams", "solver", "verify", "cli"):
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.wall_s"] = wall_s
    m["trace.coverage"] = sum(layer_self.values()) / wall_s
    return m


def aggregate(per_pass: list) -> tuple:
    """Counts of the first traced pass and the median of every time.

    Returns (metrics, counts_repeat): the counts of a deterministic workload
    must agree exactly between passes.
    """
    counts_repeat = all(p[name] == per_pass[0][name] for p in per_pass for name in COUNT_METRICS)
    metrics = {
        name: per_pass[0][name] if name in COUNT_METRICS else statistics.median(p[name] for p in per_pass)
        for name in UNITS
    }
    return metrics, counts_repeat
