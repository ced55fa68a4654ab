"""Readers of every input format: the experiment config (SCHEMA, read,
load_config), the datum it describes (build_problem, the one route from
config values to a GaussProblem, which the frozen criteria take too)
and the generator file (load_generators).  Refused content raises
ConfigError, exit code 2 at the CLI."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .gauss import GaussProblem
from .metric import BeltramiChart, ComplexMetric, CubicPair, TorusGrid
from .replib import Representation

__all__ = ["ConfigError", "SCHEMA", "read", "load_config", "build_chart",
           "build_problem", "load_generators"]


class ConfigError(ValueError):
    """Invalid or unknown configuration content (exit code 2)."""


#: Every config entry with its type and default.  chart and cubic list
#: their keys per kind under "kind"; the first kind is the default.  A
#: complex value is a number or an [re, im] pair, and a bool is no number.
#: seed is recorded in the manifest and never read.
SCHEMA = {
    "grid": (int, 64),
    "chart": {"kind": {"identity": {},
                       "constant": {"mu": (complex, 0.0)},
                       "sine": {"eps": (float, 0.01)}}},
    "background": {"kg": (float, 0.0)},
    "cubic": {"kind": {"wang": {"q": (complex, [1.2, 0.0]),
                                "perturb": (float, 0.0)},
                       "pair": {"alpha": (complex, 1.0),
                                "beta": (complex, 1.0),
                                "perturb": (float, 0.0)}}},
    "solver": {"tol": (float, 1e-10), "max_iter": (int, 50)},
    "seed": (int, 0),
}


def _typed(value, type_, what):
    """value as a type_ (int, float or complex); ConfigError otherwise,
    also for the NaN and infinities that JSON readers accept."""
    parts = (value if type_ is complex and isinstance(value, list)
             and len(value) == 2 else [value])
    if not all(isinstance(v, int if type_ is int else (int, float))
               and not isinstance(v, bool) for v in parts):
        form = {int: "an integer", float: "a number",
                complex: "a number or [re, im] pair"}[type_]
        raise ConfigError(f"{what} must be {form}")
    if type_ is not int:
        try:
            parts = [float(v) for v in parts]
        except OverflowError:               # an integer past the float range
            parts = [math.inf]
        if not all(map(math.isfinite, parts)):
            raise ConfigError(f"{what} must be finite")
    return type_(*parts)


def _section(name: str, given: dict) -> tuple[dict, dict]:
    """(given over the defaults, {key: (type, default)} but "kind") of
    section name; a section with kinds has the keys of the given kind."""
    spec, defaults = SCHEMA[name], {}
    if "kind" in spec:
        kind = ({"kind": next(iter(spec["kind"]))} | given)["kind"]
        if not isinstance(kind, str) or kind not in spec["kind"]:
            raise ConfigError(f"unknown {name} kind {kind!r}")
        spec, defaults = spec["kind"][kind], {"kind": kind}
    defaults |= {key: default for key, (_, default) in spec.items()}
    bad = sorted(set(given) - set(defaults))
    if bad:
        raise ConfigError(f"unknown config key {name!r}.{bad[0]!r}" + (
            f" for {name} kind {kind!r}" if "kind" in defaults else ""))
    return defaults | given, spec


def read(cfg: dict, name: str):
    """Config entry name checked against SCHEMA, defaulted and typed: a
    number for grid and seed, else a dict of every key of the section."""
    spec, given = SCHEMA[name], cfg[name]
    if isinstance(spec, tuple):
        return _typed(given, spec[0], name)
    if not isinstance(given, dict):
        raise ConfigError(f"config key {name!r} must be an object")
    values, spec = _section(name, given)
    values |= {key: _typed(values[key], type_, f"{name}.{key}")
               for key, (type_, _) in spec.items()}
    if name == "solver" and values["tol"] <= 0:
        raise ConfigError("solver.tol must be positive")
    if name == "solver" and values["max_iter"] < 0:
        raise ConfigError("solver.max_iter must not be negative")
    if name == "cubic" and values["kind"] == "wang" and values["perturb"]:
        # perturb is added to alpha alone, which leaves the Hitchin locus
        raise ConfigError("cubic.perturb must be 0 for cubic kind 'wang'")
    return values


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read {what}: {e}") from e


def load_config(path: str | None) -> dict:
    """Read and validate an experiment config; entries it leaves out
    take their SCHEMA defaults, and a given section is merged with the
    defaults of its kind, so the config (and the manifest that records
    it) holds every value the run uses."""
    user = {} if path is None else _read_json(path, "config")
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    bad = sorted(set(user) - set(SCHEMA))
    if bad:
        raise ConfigError(f"unknown config key {bad[0]!r}")
    cfg = {}
    for name, spec in SCHEMA.items():
        scalar = isinstance(spec, tuple)
        cfg[name] = user.get(name, spec[1] if scalar else {})
        read(cfg, name)
        if not scalar:                  # the section with its defaults
            cfg[name] = _section(name, cfg[name])[0]
    # a copy, so no caller can change the defaults through cfg
    return json.loads(json.dumps(cfg))


def build_chart(cfg: dict, grid: TorusGrid) -> BeltramiChart:
    chart = read(cfg, "chart")
    if chart["kind"] == "constant":
        return BeltramiChart.constant_mu(grid, chart["mu"])
    if chart["kind"] == "sine":
        return BeltramiChart.sine_perturbed(grid, chart["eps"])
    return BeltramiChart.identity(grid)


def build_problem(cfg: dict):
    """(GaussProblem, chart, grid, cubic kind) of a config; a datum the
    constructors reject is a ConfigError.  Wang data q is the Hitchin-
    locus pair alpha = beta = q: Wang's normalized cubic is 2q."""
    cubic = read(cfg, "cubic")
    try:
        grid = TorusGrid(read(cfg, "grid"))
        chart = build_chart(cfg, grid)
        if cubic["kind"] == "wang":
            alpha = beta = cubic["q"]
        else:
            alpha, beta = cubic["alpha"], cubic["beta"]
        if cubic["perturb"]:
            alpha = alpha + cubic["perturb"] * np.exp(2j * np.pi * grid.x)
        problem = GaussProblem(ComplexMetric(chart, 0.0),
                               CubicPair(grid, alpha, beta),
                               Kg=read(cfg, "background")["kg"])
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"invalid datum: {e}") from e
    return problem, chart, grid, cubic["kind"]


def load_generators(path: str) -> Representation:
    """Generator file: a JSON list of at most 26 3x3 complex matrices,
    entries as numbers or [re, im] pairs; names assigned a, b, c, ...
    A ragged matrix, or a 27th, is a ConfigError."""
    raw = _read_json(path, "generator file")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("generator file must be a non-empty JSON list")
    gens = {}
    for k, mat in enumerate(raw):
        try:
            M = np.array([[_typed(e, complex, "matrix entry") for e in row]
                          for row in mat])
        except (TypeError, ValueError) as e:     # ragged rows, bad entries
            raise ConfigError(f"generator {k}: {e}") from e
        if M.shape != (3, 3):
            raise ConfigError(f"generator {k} is not 3x3")
        gens[chr(ord("a") + k)] = M
    try:
        return Representation(gens)
    except ValueError as e:
        raise ConfigError(f"invalid generators: {e}") from e
