"""Seeded workloads of the lwlattice benchmark.

Each workload turns a seed into library inputs (``SymMatrix``, ``SpdMatrix``,
``Interaction`` and ``OracleConfig`` values only), names the items one pass
runs back to back, and gates every item's output by a route independent of
the timed one. The seed changes the inputs by small relative jitter around
fixed base instances, so that every seed does about the same work (Newton
iteration counts stay put) and seeds can be compared.

Timed calls look the library function up on its module at call time, so that
the tracer's swapped-in wrappers see them; gates run untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from lwlattice import (
    DiagonalQuartic,
    LinearMap,
    OracleConfig,
    ScaledInteraction,
    SigmaModel,
    SpdMatrix,
    SymMatrix,
    cli,
    compose,
    duality,
    evaluate_moments,
    lw_evaluate,
    solver,
)
from lwlattice.interactions import materialize
from lwlattice.verify import THRESHOLDS

#: Node count of the lw-quad forward gate; differs from the timed 64.
GATE_NODES = 80
#: Dyson residual ||G^-1 - (A - Sigma[G])|| re-evaluated with a cold-start
#: duality solve; the solver stops at 1e-8 with 1e-10 inner solves, a cold
#: solve at the default 1e-8 tolerance moves Sigma by about that much.
DYSON_GATE = 1e-6
#: Suite runs per verify-all pass; one run takes about a second.
VERIFY_RUNS_PER_PASS = 2

# base instances the seed jitters; chosen so that the item stays in its
# regime (SPD or indefinite A[G]) and its Newton iteration count is fixed
_V3 = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]])
_G3_SMALL = np.array([[0.4, 0.08, 0.04], [0.08, 0.48, 0.08], [0.04, 0.08, 0.36]])
# weak coupling and large G: lambda_min(A[G]) is near -0.3; at this coupling
# 64 Gauss-Hermite nodes resolve the repaired envelope to about 1e-9
_G3_LARGE = np.array([[5.0, 1.9, 1.0], [1.9, 1.8, 0.5], [1.0, 0.5, 0.95]])
_A3 = np.array([[1.0, 0.2, 0.1], [0.2, 1.2, 0.2], [0.1, 0.2, 0.9]])
_SHEAR3 = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
_N_MC = 6
_G6 = 0.6 * np.eye(_N_MC) + 0.1 * (np.eye(_N_MC, k=1) + np.eye(_N_MC, k=-1))
_V6 = 0.3 * np.ones((_N_MC, _N_MC)) + 0.7 * np.eye(_N_MC)


def _jitter(rng: np.random.Generator, base: np.ndarray, amp: float) -> np.ndarray:
    """Entrywise relative perturbation of a symmetric matrix, kept symmetric."""
    e = rng.uniform(-amp, amp, base.shape)
    return base * (1.0 + 0.5 * (e + e.T))


@dataclass
class Item:
    """One closed-loop call: ``run`` is timed, ``gate`` checks its output."""

    name: str
    run: Callable[[], object]
    gate: Callable[[object], bool]
    fingerprint: Callable[[object], object]


@dataclass
class Workload:
    """Built inputs of one workload, ready to run."""

    items: list
    warmup: Callable[[], object]
    inputs: dict
    #: (points, dimension) of a typical oracle call, for the host-speed kernel
    reference_shape: tuple


def _to_list(x):
    return np.asarray(x).tolist()


def build_lw_quad(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    cfg = OracleConfig(nodes_per_dim=64)
    gate_cfg = OracleConfig(nodes_per_dim=GATE_NODES)
    bound = THRESHOLDS["quadrature"]["bijection"]

    u_spd = DiagonalQuartic(SymMatrix(_jitter(rng, _V3, 0.1)))
    g_spd = SpdMatrix(_jitter(rng, _G3_SMALL, 0.1))
    u_ind = DiagonalQuartic(SymMatrix(0.1 * _jitter(rng, _V3, 0.1)))
    g_ind = SpdMatrix(_jitter(rng, _G3_LARGE, 0.05))
    shear = LinearMap(_SHEAR3 + np.triu(rng.uniform(-0.05, 0.05, (3, 3)), 1))
    u_gen = materialize(compose(DiagonalQuartic(SymMatrix(_jitter(rng, _V3, 0.1))), shear))
    g_gen = SpdMatrix(_jitter(rng, _G3_SMALL, 0.1))

    def item(name, g, u, regime):
        def gate(report):
            forward = evaluate_moments(report.a_of_g, u, gate_cfg).green.mat
            lam_min = np.linalg.eigvalsh(report.a_of_g.mat)[0]
            return bool(np.abs(forward - g.mat).max() <= bound and regime(lam_min))

        return Item(
            name,
            run=lambda: duality.lw_evaluate(g, u, cfg),
            gate=gate,
            fingerprint=lambda report: report.to_dict(),
        )

    items = [
        # A[G] SPD above the envelope floor: the envelope is A itself
        item("diag-spd", g_spd, u_spd, lambda lam: lam >= cfg.envelope_floor),
        # A[G] indefinite: every oracle call repairs the envelope
        item("diag-indefinite", g_ind, u_ind, lambda lam: lam < 0.0),
        # growth screen and the n^4 U contraction on every oracle call
        item("general-sheared", g_gen, u_gen, lambda lam: True),
    ]
    a_warm = SymMatrix(g_spd.inverse())
    return Workload(
        items,
        warmup=lambda: evaluate_moments(a_warm, u_spd, cfg),
        inputs={
            "config": {"nodes_per_dim": cfg.nodes_per_dim},
            "targets": {
                "diag-spd": {"G": _to_list(g_spd.mat), "v": _to_list(u_spd.v.mat)},
                "diag-indefinite": {"G": _to_list(g_ind.mat), "v": _to_list(u_ind.v.mat)},
                "general-sheared": {"G": _to_list(g_gen.mat), "shear": _to_list(shear.mat)},
            },
        },
        reference_shape=(cfg.nodes_per_dim**3, 3),
    )


def build_invert_mc(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    cfg = OracleConfig(mode="monte_carlo", samples=200_000, seed=seed)
    gate_cfg = replace(cfg, seed=seed + 1)
    bound = THRESHOLDS["mc"]["bijection"]
    u = ScaledInteraction(0.2, DiagonalQuartic(SymMatrix(_jitter(rng, _V6, 0.1))))
    g = SpdMatrix(_jitter(rng, _G6, 0.1))

    def gate(a):
        forward = evaluate_moments(a, u, gate_cfg).green.mat
        return bool(np.abs(forward - g.mat).max() <= bound)

    a_warm = SymMatrix(g.inverse())
    return Workload(
        [Item("inverse-map", lambda: duality.inverse_map(g, u, cfg), gate, lambda a: a.mat)],
        warmup=lambda: evaluate_moments(a_warm, u, cfg),
        inputs={
            "config": {"mode": cfg.mode, "samples": cfg.samples, "seed": cfg.seed},
            "coupling": u.factor,
            "G": _to_list(g.mat),
            "v": _to_list(u.inner.v.mat),
        },
        # the sampler draws its samples in 64 batches
        reference_shape=(cfg.samples // 64, _N_MC),
    )


def build_dyson_exact(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    cfg = OracleConfig(nodes_per_dim=32)
    u = DiagonalQuartic(SymMatrix(_jitter(rng, _V3, 0.1)))
    a = SymMatrix(_jitter(rng, _A3, 0.1))

    def gate(trace):
        green = trace.final_green
        sigma = lw_evaluate(green, u, cfg).sigma_exact.mat
        residual = np.linalg.norm(green.inverse() - (a.mat - sigma))
        return bool(trace.converged and residual <= DYSON_GATE)

    return Workload(
        [
            Item(
                "dyson-solve",
                lambda: solver.dyson_solve(a, u, SigmaModel.EXACT_ORACLE, cfg=cfg),
                gate,
                lambda trace: trace.to_dict(),
            )
        ],
        warmup=lambda: evaluate_moments(a, u, cfg),
        inputs={"config": {"nodes_per_dim": cfg.nodes_per_dim}, "A": _to_list(a.mat), "v": _to_list(u.v.mat)},
        reference_shape=(cfg.nodes_per_dim**3, 3),
    )


def build_verify_all(seed: int) -> Workload:
    # the case matrix is fixed by the suite; the seed only reaches --seed,
    # which the quadrature profile does not read
    argv = ["verify", "--suite", "all", "--seed", str(seed)]
    warm_cfg = OracleConfig(nodes_per_dim=64)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
        return code, out.getvalue()

    def gate(result):
        code, stdout = result
        reports = json.loads(stdout)
        return code == 0 and len(reports) > 0 and all(r["passed"] for r in reports)

    return Workload(
        [Item(f"suite-{k}", run, gate, lambda result: result) for k in range(VERIFY_RUNS_PER_PASS)],
        warmup=lambda: evaluate_moments(SymMatrix(np.eye(3)), DiagonalQuartic(_V3), warm_cfg),
        inputs={"argv": argv, "runs_per_pass": VERIFY_RUNS_PER_PASS},
        # most of the suite's oracle calls are n=2 on the default 64-node grid
        reference_shape=(64**2, 2),
    )


WORKLOADS = {
    "lw-quad": build_lw_quad,
    "invert-mc": build_invert_mc,
    "dyson-exact": build_dyson_exact,
    "verify-all": build_verify_all,
}
