#!/usr/bin/env python3
"""Benchmark of lwlattice: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload lw-quad --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process as a closed loop: one caller runs the
workload's items back to back, and a pass is one round over them. Passes
repeat for about ``--seconds`` seconds. Every item's output is gated after its
pass, outside the timed region, and must also repeat bit for bit between
passes.

With ``--trace 0`` the run reports the median cost of an untraced pass in
reference units (``wall_ref``: net wall time times the host's reference rate
sampled during the pass, see ``reference.py``), set-up time (``setup_s``, the
median of this run's set-up and ``SETUP_PROBES`` more in fresh processes,
spread over the passes) and peak resident memory; the mean raw pass wall time is printed beside them.
With ``--trace 1`` untraced and traced passes alternate and the run reports
per-layer metrics (see ``tracing.py``), tracing overhead and attribution
coverage. ``--workload all`` runs every workload in its own process, in both
modes, and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs and spans are
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: The keys of workloads.WORKLOADS, named here because importing workloads
#: imports lwlattice, which belongs to the timed set-up.
WORKLOADS = ("lw-quad", "invert-mc", "dyson-exact", "verify-all")
#: Set-ups repeated in fresh processes, spread over the run's passes; setup_s
#: is their median with this run's own set-up.
SETUP_PROBES = 8
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 170


def setup(workload: str, seed: int):
    """Import lwlattice, build the seeded inputs, make one untimed warm-up call.

    The imports happen here, inside the timed set-up, on purpose.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import lwlattice

    if not Path(lwlattice.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"lwlattice imported from {lwlattice.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    wl.warmup()
    return wl, time.perf_counter() - start


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=lambda o: o.tolist())
    return hashlib.sha256(text.encode()).hexdigest()


def run_items(wl, tracer=None, host=None):
    """Run every item once, back to back. Returns (wall seconds, outputs).

    With an active ``host`` sampler the time its samples took is not counted.
    """
    outputs = []
    start = time.perf_counter()
    for index, item in enumerate(wl.items):
        if tracer is not None:
            tracer.item = index
        try:
            outputs.append(item.run())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outputs.append(None)
    wall = time.perf_counter() - start
    if host is not None:
        wall -= host.busy_since(start)
    return wall, outputs


def gate_outputs(wl, outputs):
    """Gate every output. Returns (failed item count, output digests)."""
    failed, digests = 0, []
    for item, out in zip(wl.items, outputs):
        ok = out is not None
        if ok:
            try:
                ok = item.gate(out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
        if not ok:
            sys.stderr.write(f"item {item.name} failed its correctness gate\n")
        failed += not ok
        digests.append(_digest(item.fingerprint(out)) if ok else None)
    return failed, digests


def measure(wl, seconds: float, trace: bool, probe=None, probes: int = 0) -> dict:
    """Passes for about ``seconds``; with ``trace`` untraced and traced alternate.

    ``probe`` is called ``probes`` times, spread evenly over the passes (after
    the untraced pass that crosses each share of ``seconds``), so that its
    samples meet the host in as many of its phases as the passes do. Probe
    time is not counted in ``seconds``.
    """
    import reference

    if trace:
        import tracing
    host = reference.HostSpeed(*wl.reference_shape)
    walls, costs, refs, traced_walls, per_pass, spans, probed = [], [], [], [], [], [], []
    failed = attempted = 0
    digests = None
    deterministic = True
    clock = 0.0
    while True:
        step_start = time.perf_counter()
        traced = trace and len(walls) > len(traced_walls)
        if traced:
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer):
                wall, outputs = run_items(wl, tracer)
            traced_walls.append(wall)
            per_pass.append(tracing.layer_metrics(tracer.spans, wall))
            spans.append([s.to_list() for s in tracer.spans])
        else:
            with host:
                wall, outputs = run_items(wl, host=host)
            walls.append(wall)
            costs.append(wall * host.rate())
            refs.extend(host.times())
        bad, out = gate_outputs(wl, outputs)
        failed += bad
        attempted += len(wl.items)
        digests = digests or out
        deterministic &= out == digests
        step = time.perf_counter() - step_start
        clock += step
        while not traced and len(probed) < min(probes, int(probes * clock / seconds)):
            probed.append(probe())
        passes = len(walls) + len(traced_walls)
        enough = passes >= MIN_PASSES and (not trace or len(traced_walls) >= MIN_TRACED_PASSES)
        if enough and clock + step > seconds:
            break
    while len(probed) < probes:
        probed.append(probe())
    result = {
        "walls": walls,
        "costs": costs,
        "refs": refs,
        "probed": probed,
        "failed": failed,
        "attempted": attempted,
        "deterministic": deterministic,
    }
    if trace:
        layers, counts_repeat = tracing.aggregate(per_pass)
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result.update(traced_walls=traced_walls, layers=layers, counts_repeat=counts_repeat, spans=spans)
    return result


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args) -> int:
    load_at_start = os.getloadavg()
    wl, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}), flush=True)
        # skip the interpreter's teardown of numpy and scipy: it is not
        # set-up, and each run waits for SETUP_PROBES of these processes
        os._exit(0)
    # imported only now: they import numpy and lwlattice, which set-up times
    import envinfo

    if args.trace:
        result = measure(wl, args.seconds, trace=True)
    else:
        result = measure(wl, args.seconds, trace=False,
                         probe=lambda: setup_probe(args.workload, args.seed), probes=SETUP_PROBES)
    correct = result["failed"] == 0 and result["deterministic"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.inputs,
        "environment": envinfo.environment(load_at_start),
        "pass_walls_s": result["walls"],
        "pass_costs_ref": result["costs"],
        "reference_walls_s": result["refs"],
    }
    if args.trace:
        import tracing

        correct &= result["counts_repeat"]
        metrics = {
            name: {"value": value, "unit": tracing.UNITS[name]}
            for name, value in result["layers"].items()
        }
        record.update(traced_pass_walls_s=result["traced_walls"], counts_repeat=result["counts_repeat"])
    else:
        setups = [own_setup] + result["probed"]
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_ref": {"value": statistics.median(result["costs"]), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
        }
        record["setups_s"] = setups
    failed_frac = result["failed"] / result["attempted"]
    summary = {
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record.update(summary, failed_frac=failed_frac, deterministic=result["deterministic"])
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if args.trace:
        stem.with_name(stem.name + "-spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "item", "error"], "passes": result["spans"]})
        )
    print(f"environment {json.dumps(record['environment'])}")
    for name, metric in metrics.items():
        print(f"{args.workload:<12} {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload:<12} {'wall_s':<30} {statistics.fmean(result['walls']):>14.6g} s")
        print(f"{args.workload:<12} {'reference_s':<30} {statistics.median(result['refs']):>14.6g} s")
    print(f"{args.workload:<12} {'failed_frac':<30} {failed_frac:>14.6g} ratio")
    print(json.dumps(summary))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    table = {}
    status = 0
    for workload in WORKLOADS:
        table[workload] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[1:-1]))
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            status |= not summary["correct"]
            table[workload][f"trace{trace}"] = summary
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}.json").write_text(json.dumps(table, indent=1))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
