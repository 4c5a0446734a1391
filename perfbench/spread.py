#!/usr/bin/env python3
"""Run-to-run spread and set-to-set agreement of the end-to-end metrics.

    python3 perfbench/spread.py --out perfbench/results/baseline.json

Runs ``run.py --trace 0`` on every workload of ``BENCHMARK.json`` at seeds
1-10 for the spec's ``run_seconds``, twice: two sets of runs of the same code,
interleaved seed by seed (seed 1 of set A on every workload, then seed 1 of
set B, then seed 2 of set A, ...), one process at a time. For every set,
workload and end-to-end metric it reports the median, the quartiles and the
interquartile range as a share of the median; for every workload and metric
it reports how far set B's median moved from set A's. A spread or a shift
that exceeds the metric's bound is flagged; the benchmark is steady when every
spread is below a third of its bound and every shift within its bound.
The exit status is 0 when every spread and every shift is within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = ("A", "B")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"seed": seed, **result, "environment": record["environment"],
            "pass_walls_s": record["pass_walls_s"],
            "pass_costs_ref": record["pass_costs_ref"], "setups_s": record["setups_s"]}


def summarize(runs: list, bounds: dict) -> dict:
    summary = {}
    for name, bound in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    runs = {s: {w: [] for w in workloads} for s in SETS}
    for seed in SEEDS:
        for s in SETS:
            for workload in workloads:
                run = run_once(workload, seed, seconds)
                runs[s][workload].append(run)
                print(s, workload, seed, {k: round(v["value"], 4) for k, v in run["metrics"].items()},
                      "correct" if run["correct"] else "INCORRECT", flush=True)

    ok = all(run["correct"] for s in SETS for w in workloads for run in runs[s][w])
    report = {"seconds": seconds, "seeds": list(SEEDS), "sets": {}, "shift": {}}
    for s in SETS:
        report["sets"][s] = {w: {"summary": summarize(runs[s][w], bounds), "runs": runs[s][w]} for w in workloads}
    print(f"{'workload':<12} {'metric':<12} {'median A':>10} {'median B':>10} {'spread A':>9}"
          f" {'spread B':>9} {'shift':>8} {'bound':>6}")
    for w in workloads:
        report["shift"][w] = {}
        for name, bound in bounds.items():
            a, b = (report["sets"][s][w]["summary"][name] for s in SETS)
            shift = (b["median"] - a["median"]) / a["median"]
            report["shift"][w][name] = shift
            within = max(a["spread"], b["spread"]) <= bound and abs(shift) <= bound
            steady = max(a["spread"], b["spread"]) < bound / 3 and abs(shift) <= bound
            ok &= within
            print(f"{w:<12} {name:<12} {a['median']:>10.4f} {b['median']:>10.4f} {a['spread']:>9.4f}"
                  f" {b['spread']:>9.4f} {shift:>+8.4f} {bound:>6}"
                  f"  {'steady' if steady else 'within bound' if within else 'OUT OF BOUND'}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
