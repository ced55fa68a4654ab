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
check(s); with --config it runs the same measurements over the
configured datum, through the same check bundles for flatness,
holonomy and the roundtrip (criteria.flatness_check, holonomy_checks,
roundtrip_checks).  All numeric output is JSON (the run manifest) or
CSV (point clouds); manifests are canonicalized (sorted keys, no
timestamps or timings) so identical config + seed reproduces identical
bytes.  Wall times and runtime limits show only on the plain-text
result lines.  Exit codes: 0 all checks passed, 1 a stage check failed
or a stage stopped on one of the package's typed numeric failures (a
one-line "stage failure" message on stderr, no traceback), 2
configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, affine, criteria
from .affine import DegenerateFrame, NotIsotropic, NotReal, PathDependent
from .bicomplex import BcVec3
from .chtau import (HyperboloidPoint, para_holo_sectional, project_tangent,
                    q_form, submanifold_membership)
# maurer_cartan_residual is read through conn.flatness_residual(); the
# name stays importable here because perfbench/spans.py wraps it
from .connection import (Loop, assemble, holonomy,  # noqa: F401
                         maurer_cartan_residual)
from .gauss import (DidNotConverge, GaussProblem, LinearSolveFailure,
                    residual_background, solve_newton)
from .metric import (BeltramiChart, ComplexMetric, CubicPair, TorusGrid,
                     symbol_check)
from .replib import (NotDiagonalizable, NotUnimodular, Representation,
                     anosov_scan)

__all__ = ["ConfigError", "StageFailure", "main", "load_config",
           "load_generators", "run_manifest"]


class ConfigError(ValueError):
    """Invalid or unknown configuration content (exit code 2)."""


class StageFailure(Exception):
    """A stage check failed; carries the acceptance-criterion id."""

    def __init__(self, criterion: int, message: str):
        super().__init__(message)
        self.criterion = criterion


#: Typed numeric failures of the package's stages.  main reports each as
#: a stage failure (exit code 1) with a one-line message.
NUMERIC_FAILURES = (LinearSolveFailure, DidNotConverge, PathDependent,
                    NotReal, NotIsotropic, DegenerateFrame, NotUnimodular,
                    NotDiagonalizable)


# ----------------------------------------------------------------------
# configuration

DEFAULTS = {
    "grid": 64,
    "chart": {"kind": "identity"},
    "background": {"kg": 0.0},
    "cubic": {"kind": "wang", "q": [1.2, 0.0]},
    "solver": {"tol": 1e-10, "max_iter": 50},
    "seed": 0,
}

_SCHEMA = {
    "grid": None,
    "chart": {"kind", "mu", "eps"},
    "background": {"kg"},
    "cubic": {"kind", "q", "alpha", "beta", "perturb"},
    "solver": {"tol", "max_iter"},
    "seed": None,
}


def _merge(user: dict) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))
    for key, value in user.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if allowed is None:
            cfg[key] = value
        else:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            bad = set(value) - allowed
            if bad:
                raise ConfigError(
                    f"unknown config key {key!r}.{sorted(bad)[0]!r}")
            cfg[key] = value
    return cfg


def load_config(path: str | None) -> dict:
    """Read, validate, and default-fill an experiment config."""
    if path is None:
        user = {}
    else:
        try:
            user = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
    cfg = _merge(user)
    if not isinstance(cfg["grid"], int):
        raise ConfigError("grid must be an integer")
    return cfg


def _as_complex(v, what):
    if isinstance(v, (int, float)):
        return complex(v)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) for x in v)):
        return complex(v[0], v[1])
    raise ConfigError(f"{what} must be a number or [re, im] pair")


def build_chart(cfg: dict, grid: TorusGrid) -> BeltramiChart:
    section = cfg["chart"]
    kind = section.get("kind", "identity")
    try:
        if kind == "identity":
            return BeltramiChart.identity(grid)
        if kind == "constant":
            mu = _as_complex(section.get("mu", 0.0), "chart.mu")
            if not symbol_check(mu):
                raise ConfigError(
                    "chart fails the ellipticity symbol check")
            return BeltramiChart.constant_mu(grid, mu)
        if kind == "sine":
            return BeltramiChart.sine_perturbed(
                grid, float(section.get("eps", 0.01)))
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"invalid chart: {e}") from e
    raise ConfigError(f"unknown chart kind {kind!r}")


def build_problem(cfg: dict):
    grid = TorusGrid(int(cfg["grid"]))
    chart = build_chart(cfg, grid)
    section = cfg["cubic"]
    kind = section.get("kind", "wang")
    if kind == "wang":
        q = _as_complex(section.get("q", 1.0), "cubic.q")
        alpha = np.full((grid.n, grid.n), q)
        beta = np.full((grid.n, grid.n), np.conj(q))
    elif kind == "pair":
        alpha = np.full((grid.n, grid.n),
                        _as_complex(section.get("alpha", 1.0), "cubic.alpha"))
        beta = np.full((grid.n, grid.n),
                       _as_complex(section.get("beta", 1.0), "cubic.beta"))
    else:
        raise ConfigError(f"unknown cubic kind {kind!r}")
    amp = float(section.get("perturb", 0.0))
    if amp:
        alpha = alpha + amp * np.exp(2j * np.pi * grid.x)
    C = CubicPair(grid, alpha, beta)
    bg = ComplexMetric(chart, 0.0)
    kg = float(cfg["background"].get("kg", 0.0))
    return GaussProblem(bg, C, Kg=kg), chart, grid, kind


def load_generators(path: str) -> Representation:
    """Generator file: a JSON list of 3x3 complex matrices, entries as
    numbers or [re, im] pairs; names assigned a, b, c, ..."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read generators: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"generators are not valid JSON: {e}") from e
    if not isinstance(raw, list) or not raw:
        raise ConfigError("generator file must be a non-empty JSON list")
    gens = {}
    for k, mat in enumerate(raw):
        try:
            M = np.array([[_as_complex(e, "matrix entry") for e in row]
                          for row in mat])
        except (TypeError, ConfigError) as e:
            raise ConfigError(f"generator {k}: {e}") from e
        if M.shape != (3, 3):
            raise ConfigError(f"generator {k} is not 3x3")
        gens[chr(ord("a") + k)] = M
    try:
        return Representation(gens)
    except ValueError as e:
        raise ConfigError(f"invalid generators: {e}") from e


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


def stage_gauss(args):
    if args.config is None:
        return [criteria.criterion_4()]
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    problem, chart, grid, _ = build_problem(cfg)
    tol = float(cfg["solver"]["tol"])
    rep = solve_newton(problem, tol=tol,
                       max_iter=int(cfg["solver"]["max_iter"]))
    res = float(np.abs(residual_background(rep.psi, problem)).max()) \
        if rep.converged else np.inf
    checks = [("converged", 0.0 if rep.converged else 1.0, 0.0),
              ("residual", res, tol),
              ("iterations", float(rep.iterations),
               float(cfg["solver"]["max_iter"]))]
    return [criteria._result(4, "Gauss solve (config)", checks, t0)]


def _solved_from_config(cfg):
    problem, chart, grid, kind = build_problem(cfg)
    rep = solve_newton(problem, tol=float(cfg["solver"]["tol"]),
                       max_iter=int(cfg["solver"]["max_iter"]))
    if not rep.converged:
        raise StageFailure(4, "background solve did not converge")
    return rep, problem, chart, grid, kind


def stage_conn(args):
    if args.config is None:
        if args.action == "flatness":
            return [criteria.criterion_5()]
        return [criteria.criterion_6()]
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    rep, problem, chart, grid, _ = _solved_from_config(cfg)
    conn = assemble(rep.psi, problem.C, chart)
    if args.action == "flatness":
        return [criteria._result(
            5, "flatness (config)",
            [criteria.flatness_check(conn, grid.spacing)], t0)]
    return [criteria._result(
        6, "holonomy (config)",
        criteria.holonomy_checks(*_period_holonomies(conn, grid.n),
                                 grid.spacing), t0)]


def _period_holonomies(conn, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # advisory fires on O(h^2) data
        return (holonomy(conn, Loop.x_period(n)),
                holonomy(conn, Loop.y_period(n)))


def stage_affine(args):
    if args.action == "secondvar":
        return [criteria.criterion_9()]
    result, pair = criteria.roundtrip_criterion()
    if args.out:
        _write_point_cloud(Path(args.out), pair)
    return [result]


def _write_point_cloud(outdir: Path, pair, max_nodes: int = 64):
    """CSV point cloud of f+ of an integrated pair, strided down to at
    most max_nodes x max_nodes nodes; x, y are the node coordinates."""
    n = pair.n
    stride = -(-n // max_nodes)
    outdir.mkdir(parents=True, exist_ok=True)
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


def stage_pipeline(args):
    """solve -> assemble -> flatness -> holonomy -> (Hitchin) roundtrip;
    each result's runtime covers its own step."""
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    rep, problem, chart, grid, kind = _solved_from_config(cfg)
    res = float(np.abs(residual_background(rep.psi, problem)).max())
    results = [criteria._result(
        4, "solve", [("residual", res, float(cfg["solver"]["tol"]))], t0)]

    t0 = time.perf_counter()
    conn = assemble(rep.psi, problem.C, chart)
    results.append(criteria._result(
        5, "flatness", [criteria.flatness_check(conn, grid.spacing)], t0))

    t0 = time.perf_counter()
    results.append(criteria._result(
        6, "holonomy",
        criteria.holonomy_checks(*_period_holonomies(conn, grid.n),
                                 grid.spacing), t0))

    if kind == "wang":
        t0 = time.perf_counter()
        pair = affine.integrate_frame(conn)
        checks = ([("path", float(pair.path_residual), 1e-12)]
                  + criteria.roundtrip_checks(pair, rep.psi))
        results.append(criteria._result(8, "roundtrip", checks, t0))
        if args.out:
            _write_point_cloud(Path(args.out), pair)
    return results


# ----------------------------------------------------------------------
# entry point

def _parser() -> argparse.ArgumentParser:
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
    "gauss": stage_gauss,
    "conn": stage_conn,
    "affine": stage_affine,
    "rep": stage_rep,
    "pipeline": stage_pipeline,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = args.command + (f" {args.action}"
                              if getattr(args, "action", None) else "")
    try:
        results = _STAGES[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except StageFailure as e:
        print(f"stage failure (criterion {e.criterion}): {e}",
              file=sys.stderr)
        return 1
    except NUMERIC_FAILURES as e:
        print(f"stage failure ({type(e).__name__}): {e}", file=sys.stderr)
        return 1

    if args.json or args.out:
        cfg = load_config(getattr(args, "config", None))
        manifest = _canonical(run_manifest(command, cfg, results))
    if args.json:
        sys.stdout.write(manifest)
    else:
        for r in results:
            print(r.line)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "manifest.json").write_text(manifest)
    failing = [r.cid for r in results if not r.passed]
    if failing:
        print(f"stage failure (criterion {failing[0]})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
