"""Command-line front end.

One binary, eight stages:

    bchyp algebra                    idempotent-splitting checks
    bchyp chtau                      hyperbolic-plane self-checks
    bchyp metric {convergence,stokes}
    bchyp gauss solve [--config F]
    bchyp conn {flatness,holonomy} [--config F]
    bchyp affine {roundtrip,secondvar} [--out DIR]
    bchyp rep anosov [--gens F --len L] | rep goldman
    bchyp pipeline [--config F] [--out DIR]

Run without --config, each stage executes its frozen acceptance
check(s).  gauss, conn and pipeline carry a configured datum along one
route, run_chain: solve -> assemble -> flatness -> holonomy ->
roundtrip (Wang data only).  gauss solve --config asks for the solve,
conn flatness/holonomy --config for their one step, pipeline for all;
each step is checked by the criteria bundle its frozen criterion uses.
bchyp.config reads the config and generator files.
All numeric output is JSON (the run manifest) or
CSV (point clouds); manifests are canonicalized (sorted keys, no
timestamps or timings) so an identical config reproduces identical
bytes.  Wall times and runtime limits show only on the plain-text
result lines.  Exit codes: 0 all checks passed, 1 a stage check failed
or a stage stopped on one of the package's typed numeric failures or
ran out of memory (a one-line "stage failure" message on stderr, no
traceback), 2 configuration error, also an --out that cannot be made a
directory or written into.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, affine, criteria
from .affine import DegenerateFrame, NotDual, NotReal, PathDependent
from .bicomplex import BcVec3
from .chtau import (HyperboloidPoint, para_holo_sectional, project_tangent,
                    q_form, submanifold_membership)
from .config import (ConfigError, build_problem, load_config,
                     load_generators, read)
# maurer_cartan_residual and residual_background stay importable here,
# unused, because perfbench/spans.py wraps them
from .connection import (Loop, Unrepresentable, assemble,  # noqa: F401
                         holonomy, maurer_cartan_residual)
from .gauss import (DidNotConverge, LinearSolveFailure,  # noqa: F401
                    residual_background, solve_newton)
from .replib import NotDiagonalizable, NotUnimodular, anosov_scan

__all__ = ["StageFailure", "main", "run_manifest"]


class StageFailure(Exception):
    """A stage check failed; carries the acceptance-criterion id."""

    def __init__(self, criterion: int, message: str):
        super().__init__(message)
        self.criterion = criterion


#: Typed numeric failures of the package's stages.  main reports each as
#: a stage failure (exit code 1) with a one-line message.
NUMERIC_FAILURES = (LinearSolveFailure, DidNotConverge, PathDependent,
                    NotReal, NotDual, DegenerateFrame, NotUnimodular,
                    NotDiagonalizable, Unrepresentable)

CLOUD_NODES = 64   # point clouds keep at most this many nodes per axis


# ----------------------------------------------------------------------
# manifest

def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canonical(cfg).encode()).hexdigest()


def run_manifest(command: str, cfg: dict, results) -> dict:
    """Deterministic summary: no timestamps, no timings."""
    return {
        "command": command,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "versions": {
            "artifact": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "results": [
            {
                "criterion": r.cid,
                "title": r.title,
                "passed": bool(r.passed),
                "residuals": {k: float(v) for k, v in r.residuals.items()},
                "message": r.message,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }


# ----------------------------------------------------------------------
# stages

def stage_algebra(args):
    return [criteria.criterion_1()]


def stage_chtau(args):
    """Self-checks of the model hyperbolic plane: base-point norm,
    membership tags, constant para-holomorphic sectional curvature."""
    t0 = time.perf_counter()
    p = HyperboloidPoint(BcVec3.from_complex([0, 0, 1]))
    qn = abs(complex((q_form(p.rep, p.rep) + 1.0).z1))
    X = project_tangent(p, BcVec3.from_complex([1, 0, 0]))
    sect = abs(para_holo_sectional(p, X) + 4.0)
    tags = submanifold_membership(p)
    member = 0.0 if "H2tau" in tags else 1.0
    checks = [("base_norm", qn, 1e-12), ("sectional", sect, 1e-9),
              ("membership", member, 0.0)]
    return [criteria._result(0, "hyperbolic-plane self-check", checks, t0)]


def stage_metric(args):
    if args.action == "convergence":
        return [criteria.criterion_2()]
    return [criteria.criterion_3()]


def stage_chain(args):
    """gauss, conn and pipeline: a bare gauss or conn runs the frozen
    criterion of its step, and every other run carries its configured
    datum through run_chain, pipeline through every step."""
    if args.command == "pipeline":
        return run_chain(args.cfg, CHAIN, args.out)
    if args.config is None:
        return [getattr(criteria, f"criterion_{CHAIN[args.action]}")()]
    return run_chain(args.cfg, (args.action,), args.out)


def stage_affine(args):
    if args.action == "secondvar":
        return [criteria.criterion_9()]
    result, pair = criteria.roundtrip_criterion()
    if args.out:
        _write_point_cloud(Path(args.out), pair)
    return [result]


def _write_point_cloud(outdir: Path, pair):
    """CSV point cloud of f+ of an integrated pair, strided down to at
    most CLOUD_NODES x CLOUD_NODES nodes; x, y are the node coordinates."""
    n = pair.n
    stride = -(-n // CLOUD_NODES)
    rows = ["x,y,f1,f2,f3"]
    f = pair.fplus
    for iy in range(0, n, stride):
        for ix in range(0, n, stride):
            rows.append(",".join([repr(ix / n), repr(iy / n)]
                                 + [repr(float(c)) for c in f[iy, ix]]))
    (outdir / "roundtrip_points.csv").write_text("\n".join(rows) + "\n")


def stage_rep(args):
    if args.action == "goldman":
        return [criteria.criterion_7()]
    if args.len < 1:
        raise ConfigError(f"--len must be at least 1, got {args.len}")
    if args.gens is None:
        return [criteria.criterion_10()]
    t0 = time.perf_counter()
    rep = load_generators(args.gens)
    report = anosov_scan(rep, args.len)
    if report.obstruction is not None:
        raise StageFailure(
            10, f"transversality/loxodromy check failed: "
                f"{report.obstruction}")
    checks = [("min_transversality", -report.min_transversality, -0.01),
              ("centralizer_dim", float(report.centralizer_dim), 1.0)]
    r = criteria._result(10, f"scan to length {args.len}", checks, t0)
    return [replace(r, residuals=dict(r.residuals,
                                      min_gap=float(report.min_gap)),
                    message=r.message + f"; claim: {report.claim}")]


# ----------------------------------------------------------------------
# the configured chain

#: The steps of run_chain in order, each the title of its result, with
#: the criterion whose check bundle it runs.
CHAIN = {"solve": 4, "flatness": 5, "holonomy": 6, "roundtrip": 8}


def run_chain(cfg: dict, steps, out) -> list:
    """The results of the asked steps of CHAIN on the configured datum,
    each checked by its criterion's bundle.  The datum is solved once
    and, unless only the solve is asked for, assembled once; the
    roundtrip runs on Wang data only and writes its point cloud into
    out, when given.  A runtime covers the work since the last result."""
    results, t0 = [], time.perf_counter()

    def record(step, checks):
        nonlocal t0
        results.append(criteria._result(CHAIN[step], step, checks, t0))
        t0 = time.perf_counter()

    problem, chart, grid, kind = build_problem(cfg)
    solver = read(cfg, "solver")
    report = solve_newton(problem, **solver)
    if "solve" in steps:
        record("solve", criteria.solve_checks(report, **solver))
    if set(steps) <= {"solve"}:
        return results
    conn = assemble(report.psi, problem.C, chart)
    if "flatness" in steps:
        record("flatness", [criteria.flatness_check(conn)])
    if "holonomy" in steps:
        record("holonomy", criteria.holonomy_checks(
            holonomy(conn, Loop.x_period(grid.n)),
            holonomy(conn, Loop.y_period(grid.n)), grid.spacing))
    if "roundtrip" in steps and kind == "wang":
        pair = affine.integrate_frame(conn)
        record("roundtrip", criteria.roundtrip_checks(pair, report.psi))
        if out:
            _write_point_cloud(Path(out), pair)
    return results


# ----------------------------------------------------------------------
# entry point

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every main() call parses against the same tables."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print the run manifest as JSON")
    common.add_argument("--out", metavar="DIR",
                        help="write manifest (and stage artifacts) here")

    p = argparse.ArgumentParser(
        prog="bchyp",
        description="Numerical toolkit checks: tau-algebra, model "
                    "plane, metric calculus, Gauss solve, flat "
                    "connections, affine roundtrip, representation "
                    "diagnostics.")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("algebra", parents=[common],
                   help="idempotent-splitting checks")
    sub.add_parser("chtau", parents=[common],
                   help="model-plane self-checks")

    m = sub.add_parser("metric", parents=[common],
                       help="Laplacian / Stokes checks")
    m.add_argument("action", choices=["convergence", "stokes"])

    g = sub.add_parser("gauss", parents=[common],
                       help="structure-equation solver")
    g.add_argument("action", choices=["solve"])
    g.add_argument("--config")

    c = sub.add_parser("conn", parents=[common],
                       help="flat connection checks")
    c.add_argument("action", choices=["flatness", "holonomy"])
    c.add_argument("--config")

    a = sub.add_parser("affine", parents=[common],
                       help="affine-sphere roundtrip")
    a.add_argument("action", choices=["roundtrip", "secondvar"])

    r = sub.add_parser("rep", parents=[common],
                       help="representation diagnostics")
    r.add_argument("action", choices=["anosov", "goldman"])
    r.add_argument("--gens", help="JSON list of 3x3 complex matrices")
    r.add_argument("--len", type=int, default=5,
                   help="maximum word length for the scan")

    pl = sub.add_parser("pipeline", parents=[common],
                        help="full end-to-end chain")
    pl.add_argument("--config")
    return p


_STAGES = {
    "algebra": stage_algebra,
    "chtau": stage_chtau,
    "metric": stage_metric,
    "gauss": stage_chain,
    "conn": stage_chain,
    "affine": stage_affine,
    "rep": stage_rep,
    "pipeline": stage_chain,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = args.command + (f" {args.action}"
                              if getattr(args, "action", None) else "")
    try:
        # read once: the stage runs on args.cfg, the manifest records it
        args.cfg = load_config(getattr(args, "config", None))
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        results = _STAGES[args.command](args)
        if args.json or args.out:
            manifest = _canonical(run_manifest(command, args.cfg, results))
        if args.out:
            (Path(args.out) / "manifest.json").write_text(manifest)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:        # the only files a run writes are --out's
        print(f"config error: cannot write --out {args.out}: {e}",
              file=sys.stderr)
        return 2
    except StageFailure as e:
        print(f"stage failure (criterion {e.criterion}): {e}",
              file=sys.stderr)
        return 1
    except NUMERIC_FAILURES as e:
        print(f"stage failure ({type(e).__name__}): {e}", file=sys.stderr)
        return 1
    except MemoryError as e:    # NumPy raises a private subclass
        print(f"stage failure (MemoryError): {e}", file=sys.stderr)
        return 1

    if args.json:
        sys.stdout.write(manifest)
    else:
        for r in results:
            print(r.line)
    failing = [r.cid for r in results if not r.passed]
    if failing:
        print(f"stage failure (criterion {failing[0]})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
