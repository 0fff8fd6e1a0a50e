"""Benchmark entry point.

    python3 perfbench/run.py --workload {eval-modes,train} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src``. With
``--trace 0`` the run measures the end-to-end metrics listed in
BENCHMARK.json. With ``--trace 1`` it makes one untraced and one traced run
of the workload, each with one set-up and a quarter of the measuring time,
and reports the per-layer metrics: span self times, per-step counts, the
tracing overhead and the component micro-benchmark. The spans are written
to ``.perfbench_out/spans-<workload>.npz``. Every run checks its outputs.
The last line of standard output is the JSON result; the lines before it
describe the run.

Times are reference time (see ``calibrate``): the process's CPU time,
scaled piece by piece by how fast two fixed reference kernels ran next to
the work. On a shared virtual machine the processor's speed changes with
what other guests do; here the same code took twice as long for minutes at
a time, in CPU time as much as in wall-clock time. The load runs on one
thread of one process, so a change that moves work onto other threads or
processes is not measured fairly this way. ``wall.eval_steps_per_s``, the
span times of the traced run and the micro-benchmark are not calibrated.

BLAS is pinned to one thread before numpy loads: the load comes from this
one process, and one thread was both faster and steadier than two here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import dynskip  # noqa: E402

if Path(dynskip.__file__).resolve().parent != ROOT / "src" / "dynskip":
    sys.exit(f"dynskip must be imported from {ROOT / 'src'}, found {dynskip.__file__}")

from perfbench import envinfo, micro  # noqa: E402
from perfbench.hooks import Tracer, span_overhead_us  # noqa: E402
from perfbench.workloads import LAYERS, WORKLOADS, Budget, run_workload, span_metrics  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def traced_run(workload: str, seed: int, seconds: float, work_dir: Path,
               budget: Budget) -> tuple[dict, dict, int, int, dict]:
    """Untraced then traced run of one workload; returns per-layer metrics,
    checks, attempted, failed and run notes."""
    budget = dataclasses.replace(budget, setup_repeats=1, setup_seconds=0.0)
    plain = run_workload(workload, seed, seconds / 4, work_dir / "untraced", budget)
    tracer = Tracer(LAYERS, boundaries=("sim.env_step", "numerics.Adam.step"))
    traced = run_workload(workload, seed, seconds / 4, work_dir / "traced", budget, tracer)
    spans = tracer.spans()
    OUT_DIR.mkdir(exist_ok=True)
    np.savez(OUT_DIR / f"spans-{workload}.npz", **spans)

    metrics, missing = span_metrics(spans)
    metrics.update(plain.counters)
    untraced_rate = plain.metrics["eval_steps_per_s"]
    traced_rate = traced.metrics["eval_steps_per_s"]
    metrics["trace.untraced_eval_steps_per_s"] = untraced_rate
    metrics["trace.eval_steps_per_s"] = traced_rate
    metrics["trace.slowdown"] = untraced_rate / traced_rate
    metrics["trace.span_overhead_us"] = span_overhead_us()
    metrics.update(micro.component_latency(seed))

    checks = {**{f"untraced.{k}": v for k, v in plain.checks.items()},
              **{f"traced.{k}": v for k, v in traced.checks.items()}}
    checks["traced_digests_equal_untraced"] = (
        plain.info["reference_trace_digests"] == traced.info["reference_trace_digests"])
    checks["traced_fixture_equals_untraced"] = (
        plain.info["fixture_digest"] == traced.info["fixture_digest"])
    notes = {"untraced": plain.info, "traced": traced.info, "missing": missing,
             "spans": int(spans["name"].size)}
    return (metrics, checks, plain.attempted + traced.attempted,
            plain.failed + traced.failed, notes)


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    budget = Budget()
    try:
        if args.trace:
            metrics, checks, attempted, failed, notes = traced_run(
                args.workload, args.seed, args.seconds, work_dir, budget)
            units = declared_units("per_layer")
        else:
            res = run_workload(args.workload, args.seed, args.seconds, work_dir, budget)
            metrics, checks, attempted, failed = res.metrics, res.checks, res.attempted, res.failed
            notes = {"run": res.info, "per_layer_counters": res.counters, "missing": []}
            units = declared_units("end_to_end")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    notes["missing"] += [name for name in units if name not in metrics]
    notes["unlisted"] = sorted(set(metrics) - set(units))
    notes["checks"] = checks
    notes["environment"] = envinfo.environment(ROOT)
    notes["workload"] = {"name": args.workload, "seed": args.seed,
                         "seconds": args.seconds, "trace": args.trace,
                         "budget": dataclasses.asdict(budget)}
    print(json.dumps(notes, sort_keys=True))
    for name in notes["missing"]:
        print(f"missing metric: {name}")
    for key in ("run", "traced"):
        if "warning" in notes.get(key, {}):
            print("warning:", notes[key]["warning"])
    result = {
        "correct": bool(all(checks.values()) and failed == 0),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
