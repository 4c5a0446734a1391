"""Command-line interface.

Subcommands: oracle, invert, lw, sigma, dyson, minimize, verify, sweep.
Structured results go to stdout (or --out) as JSON whose floats read back
exactly; sweeps and solver traces use CSV. Exit codes: 0 success, 1 validation
error, 2 non-convergence, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import duality, solver
from .diagrams import BoldSeries
from .duality import inverse_map, lw_evaluate
from .errors import LwlatticeError, ValidationError
from .interactions import as_diagonal_quartic
from .matrices import SpdMatrix
from .modelio import ORACLE_FIELDS, dumps, load_matrix, load_model, write_csv
from .oracle import OracleConfig, evaluate_moments
from .solver import SigmaModel, dyson_solve, free_energy, minimize_free_energy
from .verify import bold_residuals, run_suite, suite_names


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError so the CLI exits with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _add_oracle_flags(parser):
    """One flag per modelio.ORACLE_FIELDS entry; each flag's dest is its field."""
    parser.add_argument("--mode", choices=["quadrature", "mc"], help="oracle backend")
    parser.add_argument(
        "--quad-nodes", type=int, dest="nodes_per_dim", help="Gauss-Hermite nodes per dimension"
    )
    parser.add_argument("--mc-samples", type=int, dest="samples", help="Monte Carlo sample count")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed")


def _add_solver_flags(parser, max_iter: int, tol: float | None = None):
    parser.add_argument("--tol", type=float, default=tol, help="convergence tolerance")
    parser.add_argument("--max-iter", type=int, default=max_iter, help="iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lwlattice", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_oracle = sub.add_parser("oracle", help="partition function, free energy, moments")
    p_oracle.add_argument("--model", required=True)
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(run=_cmd_oracle)
    _add_oracle_flags(p_oracle)

    p_invert = sub.add_parser("invert", help="A[G]: invert the moment map at a target G")
    p_invert.add_argument("--model", required=True)
    p_invert.add_argument("--G", required=True, dest="green")
    p_invert.add_argument("--out")
    p_invert.set_defaults(run=_cmd_invert)
    _add_oracle_flags(p_invert)
    _add_solver_flags(p_invert, duality.DEFAULT_MAX_ITER)

    p_lw = sub.add_parser("lw", help="universal functional, LW functional, self-energy at G")
    p_lw.add_argument("--model", required=True)
    p_lw.add_argument("--G", required=True, dest="green")
    p_lw.add_argument("--out")
    p_lw.set_defaults(run=_cmd_lw)
    _add_oracle_flags(p_lw)
    _add_solver_flags(p_lw, duality.DEFAULT_MAX_ITER)

    p_sigma = sub.add_parser("sigma", help="bold self-energy coefficient of one order")
    p_sigma.add_argument("--model", required=True)
    p_sigma.add_argument("--G", required=True, dest="green")
    p_sigma.add_argument("--order", type=int, required=True)
    p_sigma.add_argument("--out")
    p_sigma.set_defaults(run=_cmd_sigma)

    for name, helptext in (
        ("dyson", "Anderson-mixed fixed-point solution of the Dyson equation"),
        ("minimize", "direct free-energy minimization over the SPD cone"),
    ):
        p_solve = sub.add_parser(name, help=helptext)
        p_solve.add_argument("--model", required=True)
        p_solve.add_argument(
            "--sigma-model",
            choices=[m.value for m in SigmaModel],
            default="exact",
            dest="sigma_model",
        )
        if name == "dyson":
            p_solve.add_argument(
                "--damping",
                type=float,
                default=solver.DEFAULT_DAMPING,
                help="Anderson mixing parameter in (0, 1]: the weight of "
                "(A - Sigma[G])^-1 in the damped step",
            )
        p_solve.add_argument("--trace-csv", dest="trace_csv")
        p_solve.add_argument("--out")
        p_solve.set_defaults(run=_cmd_solver)
        _add_oracle_flags(p_solve)
        _add_solver_flags(p_solve, solver.DEFAULT_MAX_ITER, solver.DEFAULT_TOL)

    p_verify = sub.add_parser("verify", help="run theorem-check suites")
    p_verify.add_argument("--suite", default="all", choices=list(suite_names()))
    p_verify.add_argument("--out")
    p_verify.set_defaults(run=_cmd_verify)
    _add_oracle_flags(p_verify)

    p_sweep = sub.add_parser("sweep", help="interaction-strength sweep to CSV")
    p_sweep.add_argument("--model", required=True)
    p_sweep.add_argument("--G", required=True, dest="green")
    p_sweep.add_argument("--quantity", choices=["phi", "sigma"], default="phi")
    p_sweep.add_argument("--eps", required=True, help="grid as start:stop:log:count")
    p_sweep.add_argument("--order", type=int, default=2)
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(run=_cmd_sweep)
    _add_oracle_flags(p_sweep)
    _add_solver_flags(p_sweep, 80)

    return parser


def _resolve_cfg(base: OracleConfig, args) -> OracleConfig:
    overrides = {
        name: getattr(args, name)
        for name in ORACLE_FIELDS
        if getattr(args, name) is not None
    }
    if overrides.get("mode") == "mc":
        overrides["mode"] = "monte_carlo"
    return replace(base, **overrides)


def _emit_json(obj, out_path):
    text = dumps(obj) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_green(path) -> SpdMatrix:
    return SpdMatrix(load_matrix(path))


def _parse_eps_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValidationError(f"eps grid must be start:stop:log:count, got {text!r}")
    start, stop, kind, count = parts
    try:
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValidationError(f"malformed eps grid {text!r}") from None
    if count < 1 or start <= 0 or stop <= 0:
        raise ValidationError(f"eps grid bounds must be positive, got {text!r}")
    if kind == "log":
        return np.logspace(np.log10(start), np.log10(stop), count)
    if kind == "lin":
        return np.linspace(start, stop, count)
    raise ValidationError(f"eps grid kind must be 'log' or 'lin', got {kind!r}")


def _cmd_oracle(args) -> int:
    model = load_model(args.model)
    cfg = _resolve_cfg(model.oracle, args)
    report = evaluate_moments(model.a, model.interaction, cfg)
    _emit_json(report.to_dict(), args.out)
    return 0


def _cmd_invert(args) -> int:
    model = load_model(args.model)
    cfg = _resolve_cfg(model.oracle, args)
    green = _load_green(args.green)
    a = inverse_map(
        green,
        model.interaction,
        cfg,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    _emit_json({"a_of_g": a}, args.out)
    return 0


def _cmd_lw(args) -> int:
    model = load_model(args.model)
    cfg = _resolve_cfg(model.oracle, args)
    green = _load_green(args.green)
    report = lw_evaluate(
        green,
        model.interaction,
        cfg,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    _emit_json(report.to_dict(), args.out)
    return 0


def _cmd_sigma(args) -> int:
    model = load_model(args.model)
    green = _load_green(args.green)
    scale, v = as_diagonal_quartic(model.interaction)
    sig = BoldSeries.build(green, v, args.order).sigma_terms[-1]
    _emit_json({"order": args.order, "sigma": scale**args.order * sig.mat}, args.out)
    return 0


def _cmd_solver(args) -> int:
    model = load_model(args.model)
    cfg = _resolve_cfg(model.oracle, args)
    modelkind = SigmaModel(args.sigma_model)
    if args.command == "minimize":
        trace = minimize_free_energy(
            model.a, model.interaction, modelkind, cfg, tol=args.tol, max_iter=args.max_iter
        )
    else:
        trace = dyson_solve(
            model.a,
            model.interaction,
            modelkind,
            damping=args.damping,
            tol=args.tol,
            max_iter=args.max_iter,
            cfg=cfg,
        )
    payload = trace.to_dict()
    # a converged run's last record was taken at final_green
    payload["free_energy"] = (
        trace.iterates[-1].free_energy
        if trace.converged
        else free_energy(model.a, trace.final_green, model.interaction, modelkind, cfg)
    )
    _emit_json(payload, args.out)
    if args.trace_csv:
        write_csv(
            args.trace_csv,
            ["iter", "residual", "free_energy"],
            [(rec.iteration, rec.residual, rec.free_energy) for rec in trace.iterates],
        )
    return 0 if trace.converged else 2


def _cmd_verify(args) -> int:
    cfg = _resolve_cfg(OracleConfig(), args)
    reports = run_suite(args.suite, cfg)
    widths = max((len(r.name) for r in reports), default=4)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        sys.stderr.write(
            f"{report.name:<{widths}}  {status}  metric={report.metric:.3e}  "
            f"threshold={report.threshold:.3e}\n"
        )
    _emit_json([r.to_dict() for r in reports], args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_sweep(args) -> int:
    model = load_model(args.model)
    cfg = _resolve_cfg(model.oracle, args)
    green = _load_green(args.green)
    scale, v = as_diagonal_quartic(model.interaction)
    eps_grid = _parse_eps_grid(args.eps)
    scan = bold_residuals(
        green, v, args.order, eps_grid * scale, cfg, tol=args.tol, max_iter=args.max_iter
    )
    rows = [
        (float(eps), report.phi, phi_res)
        if args.quantity == "phi"
        else (float(eps), float(np.linalg.norm(report.sigma_exact.mat)), sigma_res)
        for eps, (report, sigma_res, phi_res) in zip(eps_grid, scan)
    ]
    header = ["eps", args.quantity, "residual_vs_series"]
    write_csv(args.out or sys.stdout, header, rows)
    return 0


def dispatch(argv) -> int:
    """Parse argv, run the sub-command, map errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except LwlatticeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        # modelio turns unreadable inputs into ParseError, so this is an output path
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
