"""Benchmark of the bchyp CLI: wang-chain, gauss-solve and word-scan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed fixes every input;
they are written under perfbench/out/ before any timing starts and
removed at the end.  Worker processes (worker.py) run with BLAS pinned
to one thread and call bchyp.cli.main in-process, one call per
operation.

--trace 0 runs one worker that measures for the whole budget, then two
that only set up, and prints the end-to-end metrics: the median
operation time, and the median over the three processes of the set-up
time and of the peak RSS.  --trace 1 runs one worker that alternates
untraced and traced rounds; it prints the per-layer metrics
(per-operation medians over the traced operations) and writes every
span to perfbench/out/spans-<workload>-seed<N>.json.

The last line of standard output is the JSON result.  Exit code 0 means
a result was printed; any other code means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

PER_LAYER = (
    ("cli.load_config_s", "s"), ("cli.load_config.calls", "count"),
    ("cli.build_problem_s", "s"), ("cli.run_manifest_s", "s"),
    ("cli.load_generators_s", "s"),
    ("metric.chart_s", "s"),
    ("gauss.GaussProblem_s", "s"),
    ("gauss.solve_newton_s", "s"), ("gauss.solve_newton.self_s", "s"),
    ("gauss.laplacian_matrix_s", "s"),
    ("gauss.residual_background_s", "s"),
    ("gauss.residual_background.calls", "count"),
    ("gauss.newton_steps", "count"),
    ("connection.assemble_s", "s"),
    ("connection.maurer_cartan_residual_s", "s"),
    ("connection.maurer_cartan_residual.calls", "count"),
    ("connection.holonomy_s", "s"), ("connection.holonomy.self_s", "s"),
    ("affine.integrate_frame_s", "s"),
    ("affine.structure_residuals_s", "s"),
    ("affine.blaschke_data_s", "s"), ("affine.blaschke_data.calls", "count"),
    ("replib.Representation_s", "s"),
    ("replib.anosov_scan_s", "s"), ("replib.anosov_scan.self_s", "s"),
    ("replib.loxodromy_s", "s"), ("replib.loxodromy.calls", "count"),
    ("replib.transversality_s", "s"),
    ("replib.transversality.calls", "count"),
    ("replib.centralizer_check_s", "s"),
    ("replib.words", "count"),
    ("op.coverage", "ratio"),
    ("trace.overhead_s", "s"),
)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(plan_path: Path, deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path)],
        env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(results) -> dict:
    times = [t for r in results for t in r["times"]]
    return {
        "op_s.p50": _metric(statistics.median(times), "s"),
        "setup_s": _metric(statistics.median(r["setup_s"] for r in results),
                           "s"),
        "peak_rss_mb": _metric(
            statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


def _per_layer(result, workload, seed) -> dict:
    rows = result["layers"]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.median(result["traced_times"])
                     - statistics.median(result["times"]))
        else:
            value = statistics.median(row.get(name, 0) for row in rows)
        metrics[name] = _metric(value, unit)
    spans = [{"op": s[4], "name": s[0], "start": s[1], "end": s[2],
              "parent": s[3]} for s in result["spans"]]
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps(spans) + "\n")
    return metrics


def main(argv=None) -> int:
    args = _args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "bchyp" / "__init__.py").is_file():
        print(f"perfbench: no bchyp source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import inputs
    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        warmup, ops = inputs.make_round(args.workload, args.seed, work,
                                        ROOT / "configs")
        plan = {"src": str(ROOT / "src"), "configs": str(ROOT / "configs"),
                "warmup": warmup, "ops": ops, "trace": bool(args.trace),
                "budget_s": args.seconds}
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        results = [_worker(plan_path, deadline)]
        if not args.trace:
            plan_path.write_text(json.dumps(dict(plan, budget_s=0)))
            results += [_worker(plan_path, deadline)
                        for _ in range(SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for r in results for e in r["errors"]]
    for line in [f for r in results for f in r["failures"]] + errors:
        print(f"perfbench: {line}", file=sys.stderr)
    metrics = (_per_layer(results[0], args.workload, args.seed)
               if args.trace else _end_to_end(results))
    summary = {"correct": not errors,
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
