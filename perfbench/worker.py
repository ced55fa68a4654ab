"""One benchmark process: set up, then run whole rounds of operations.

    python3 perfbench/worker.py PLAN.json

PLAN.json (written by run.py) names the source tree, the warm-up
operation, the round of operations, the time budget and whether to
trace.  The worker times `import bchyp` plus the warm-up operation (its
set-up time) and reads its peak RSS at that point, the footprint of a
process that runs one CLI operation.  With a budget of 0 it stops there.
Otherwise it runs whole rounds until the budget is spent, timing each
`bchyp.cli.main` call end to end and checking its outputs outside the
timed region.  In traced mode the rounds alternate between untraced and
traced, so one process gives both the per-layer spans and the tracing
overhead.  The result is one JSON line on standard output.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def main():
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    import bchyp
    import bchyp.cli as cli
    import spans

    captures = spans.Captures(bchyp)
    ops = plan["ops"]
    warm = run_op(cli, plan["warmup"]["argv"])
    setup_s = time.perf_counter() - T0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    warm_captured = captures.take()

    import verify
    reference = verify.Reference(cli, plan["configs"], run_op, captures)
    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
              "times": [], "traced_times": [],
              "attempted": 0, "failed": 0, "failures": [], "errors": [],
              "layers": []}

    def record(op, outcome, captured):
        _, code, stdout, stderr = outcome
        result["errors"] += verify.check(op, code, stdout, stderr, captured,
                                         reference)[:3]

    record(plan["warmup"], warm, warm_captured)
    if plan["budget_s"] <= 0:
        print(json.dumps(result))
        return
    tracer = spans.Tracer(bchyp) if plan["trace"] else None
    start = time.perf_counter()
    rounds = 0
    while (rounds == 0 or time.perf_counter() - start < plan["budget_s"]
           or (tracer and rounds % 2)):
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for op in ops:
            result["attempted"] += 1
            if traced:
                tracer.begin_op(result["attempted"])
            try:
                outcome = run_op(cli, op["argv"])
            except Exception as e:       # a raw failure of the program
                result["failed"] += 1
                result["failures"].append(f"{op['argv']}: "
                                          f"{type(e).__name__}: {e}")
                captures.take()
                continue
            finally:
                if traced:
                    tracer.end_op()
            (result["traced_times"] if traced
             else result["times"]).append(outcome[0])
            record(op, outcome, captures.take())
        if traced:
            tracer.remove()
        rounds += 1
    if tracer:
        result["layers"] = list(spans.per_op(tracer.spans).values())
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
