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
from .diagrams import BoldSeries, coupled_sum
from .duality import inverse_map, lw_evaluate
from .errors import LwlatticeError, ValidationError
from .interactions import as_diagonal_quartic
from .matrices import SpdMatrix, plain
from .modelio import ORACLE_FIELDS, dumps, load_matrix, load_model, write_csv
from .oracle import OracleConfig, evaluate_moments
from .solver import SigmaModel, dyson_solve, free_energy, minimize_free_energy
from .verify import bold_residuals, run_suite, suite_names


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError so the CLI exits with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _option(*flags, **kwargs):
    """One command-specific option: add_argument's arguments."""
    return flags, kwargs


def _command(sub, name, helptext, run, *options, model=True, green=False, oracle=True, solver=None):
    """Declare one subcommand: its handler, the inputs ``_load`` reads for it, its flags.

    Usage lists --model, --G (dest ``green``), the command's own ``options``,
    --out, the four oracle flags (one per modelio.ORACLE_FIELDS entry, each
    dest its field) and --tol/--max-iter with the defaults ``solver`` =
    (max_iter, tol), in that order.
    """
    parser = sub.add_parser(name, help=helptext)
    parser.set_defaults(run=run, inputs=(model, oracle, green))
    if model:
        parser.add_argument("--model", required=True)
    if green:
        parser.add_argument("--G", required=True, dest="green")
    for flags, kwargs in options:
        parser.add_argument(*flags, **kwargs)
    parser.add_argument("--out")
    if oracle:
        parser.add_argument("--mode", choices=["quadrature", "mc"], help="oracle backend")
        parser.add_argument(
            "--quad-nodes", type=int, dest="nodes_per_dim", help="Gauss-Hermite nodes per dimension"
        )
        parser.add_argument(
            "--mc-samples", type=int, dest="samples", help="Monte Carlo sample count"
        )
        parser.add_argument("--seed", type=int, help="Monte Carlo seed")
    if solver:
        max_iter, tol = solver
        parser.add_argument("--tol", type=float, default=tol, help="convergence tolerance")
        parser.add_argument("--max-iter", type=int, default=max_iter, help="iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lwlattice", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    inversion = (duality.DEFAULT_MAX_ITER, None)
    solve = (solver.DEFAULT_MAX_ITER, solver.DEFAULT_TOL)
    sigma_model = _option("--sigma-model", choices=[m.value for m in SigmaModel], default="exact")
    trace_csv = _option("--trace-csv")

    _command(sub, "oracle", "partition function, free energy, moments", _cmd_oracle)
    _command(
        sub, "invert", "A[G]: invert the moment map at a target G", _cmd_invert,
        green=True, solver=inversion,
    )
    _command(
        sub, "lw", "universal functional, LW functional, self-energy at G", _cmd_lw,
        green=True, solver=inversion,
    )
    _command(
        sub, "sigma", "bold self-energy coefficient of one order", _cmd_sigma,
        _option("--order", type=int, required=True), green=True, oracle=False,
    )
    _command(
        sub, "dyson", "Anderson-mixed fixed-point solution of the Dyson equation", _cmd_solver,
        sigma_model,
        _option(
            "--damping",
            type=float,
            default=solver.DEFAULT_DAMPING,
            help="Anderson mixing parameter in (0, 1]: the weight of "
            "(A - Sigma[G])^-1 in the damped step",
        ),
        trace_csv,
        solver=solve,
    )
    _command(
        sub, "minimize", "direct free-energy minimization over the SPD cone", _cmd_solver,
        sigma_model, trace_csv, solver=solve,
    )
    _command(
        sub, "verify", "run theorem-check suites", _cmd_verify,
        _option("--suite", default="all", choices=list(suite_names())), model=False,
    )
    _command(
        sub, "sweep", "interaction-strength sweep to CSV", _cmd_sweep,
        _option("--quantity", choices=["phi", "sigma"], default="phi"),
        _option("--eps", required=True, help="grid as start:stop:log:count"),
        _option("--order", type=int, default=2),
        green=True, solver=(80, None),
    )
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


def _load(args):
    """(model, cfg, green): the inputs the command declared, None where it
    declared none, read in this order: the model file, its oracle config under
    the flags (OracleConfig() without a model), then the G file."""
    model_file, oracle_flags, green_file = args.inputs
    model = load_model(args.model) if model_file else None
    cfg = _resolve_cfg(model.oracle if model else OracleConfig(), args) if oracle_flags else None
    green = SpdMatrix(load_matrix(args.green)) if green_file else None
    return model, cfg, green


def _emit_json(obj, out_path):
    text = dumps(obj) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_eps_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValidationError(f"eps grid must be start:stop:log:count, got {text!r}")
    start, stop, kind, count = parts
    try:
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValidationError(f"malformed eps grid {text!r}") from None
    if count < 1:
        raise ValidationError(f"eps grid count must be at least 1, got {text!r}")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ValidationError(f"eps grid bounds must be finite, got {text!r}")
    if start <= 0 or stop <= 0:
        raise ValidationError(f"eps grid bounds must be positive, got {text!r}")
    if kind == "log":
        return np.logspace(np.log10(start), np.log10(stop), count)
    if kind == "lin":
        return np.linspace(start, stop, count)
    raise ValidationError(f"eps grid kind must be 'log' or 'lin', got {kind!r}")


def _cmd_oracle(args, model, cfg, green) -> int:
    _emit_json(evaluate_moments(model.a, model.interaction, cfg), args.out)
    return 0


def _cmd_invert(args, model, cfg, green) -> int:
    a = inverse_map(green, model.interaction, cfg, tol=args.tol, max_iter=args.max_iter)
    _emit_json({"a_of_g": a}, args.out)
    return 0


def _cmd_lw(args, model, cfg, green) -> int:
    report = lw_evaluate(green, model.interaction, cfg, tol=args.tol, max_iter=args.max_iter)
    _emit_json(report, args.out)
    return 0


def _cmd_sigma(args, model, cfg, green) -> int:
    scale, v = as_diagonal_quartic(model.interaction)
    sig = BoldSeries.build(green, v, args.order).sigma_terms[-1].mat
    # -0.0 adds nothing, so the coefficient keeps its signed zeros
    sigma = coupled_sum(scale, [sig], args.order, -0.0)
    _emit_json({"order": args.order, "sigma": sigma}, args.out)
    return 0


def _cmd_solver(args, model, cfg, green) -> int:
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
    # a converged run's last record was taken at final_green
    final = (
        trace.iterates[-1].free_energy
        if trace.converged
        else free_energy(model.a, trace.final_green, model.interaction, modelkind, cfg)
    )
    _emit_json({**plain(trace), "free_energy": final}, args.out)
    if args.trace_csv:
        write_csv(
            args.trace_csv,
            ["iter", "residual", "free_energy"],
            [(rec.iteration, rec.residual, rec.free_energy) for rec in trace.iterates],
        )
    return 0 if trace.converged else 2


def _cmd_verify(args, model, cfg, green) -> int:
    reports = run_suite(args.suite, cfg)
    widths = max((len(r.name) for r in reports), default=4)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        sys.stderr.write(
            f"{report.name:<{widths}}  {status}  metric={report.metric:.3e}  "
            f"threshold={report.threshold:.3e}\n"
        )
    _emit_json(reports, args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_sweep(args, model, cfg, green) -> int:
    scale, v = as_diagonal_quartic(model.interaction)
    eps_grid = _parse_eps_grid(args.eps)
    with np.errstate(over="ignore"):
        couplings = eps_grid * scale
    if not np.isfinite(couplings).all():
        raise ValidationError(
            f"eps grid {args.eps!r} times the model's scale factor {scale!r} overflows"
        )
    scan = bold_residuals(
        green, v, args.order, couplings, cfg, tol=args.tol, max_iter=args.max_iter
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
        return args.run(args, *_load(args))
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
