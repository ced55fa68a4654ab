"""Reads one operation's outputs and hands them to the checks.

The outputs are the exit code, the JSON manifest or the error message
the CLI printed, and the return values the capture hooks kept (see
spans.CAPTURES).  All comparisons live in checks.py.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks
from inputs import read_gens


class Reference:
    """What the word-scan checks compare against: the 2x2 Fuchsian pair
    behind configs/gens_fuchsian.json, and the minimum transversality of
    those unconjugated generators, scanned once outside the timed
    region."""

    def __init__(self, cli, configs, run_op, captures):
        self.base = str(Path(configs) / "gens_fuchsian.json")
        self.pair = {chr(ord("a") + k): checks.sym2_root(M)
                     for k, M in enumerate(read_gens(self.base))}
        self._cli, self._run_op, self._captures = cli, run_op, captures
        self._min_t = None

    def min_transversality(self, length: int) -> float:
        if self._min_t is None:
            self._run_op(self._cli, ["rep", "anosov", "--gens", self.base,
                                     "--len", str(length)])
            (_, report), = self._captures.take()["scan"]
            self._min_t = float(report.min_transversality)
        return self._min_t


def _manifest(code, stdout) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        m = json.loads(stdout)
    except json.JSONDecodeError as e:
        return None, [f"manifest is not JSON: {e}"]
    failing = [r["criterion"] for r in m["results"] if not r["passed"]]
    if not m["passed"] or failing:
        return m, [f"manifest reports failing criteria {failing}"]
    return m, []


def _one(captured, label, count=1):
    got = captured.get(label, [])
    if len(got) != count:
        raise LookupError(f"expected {count} {label} result(s), "
                          f"got {len(got)}")
    return got


def _grid_x(n: int) -> np.ndarray:
    return np.tile(np.arange(n) / n, (n, 1))      # x varies along axis 1


def check(op, code, stdout, stderr, captured, reference) -> list[str]:
    try:
        return _check(op, code, stdout, stderr, captured, reference)
    except (LookupError, TypeError, ValueError) as e:
        return [f"{op['kind']}: output missing or malformed: {e}"]


def _check(op, code, stdout, stderr, captured, reference) -> list[str]:
    kind = op["kind"]
    if kind == "wang":
        manifest, errors = _manifest(code, stdout)
        if manifest is not None:
            ids = sorted(r["criterion"] for r in manifest["results"])
            if ids != [4, 5, 6, 8]:
                errors.append(f"pipeline ran criteria {ids}")
        (_, report), = _one(captured, "solve")
        errors += checks.check_wang_psi(report.psi, op["q"], op["kg"])
        hol = {args[1].steps[0]: H
               for args, H in _one(captured, "holonomy", 2)}
        errors += checks.check_wang_holonomy(hol[(1, 0)], hol[(0, 1)],
                                             op["q"], op["kg"])
        (_, pair), = _one(captured, "pair")
        errors += checks.check_wang_frame(pair.fplus, pair.fminus, op["q"],
                                          op["kg"], op["n"])
        return errors
    if kind == "gauss":
        _, errors = _manifest(code, stdout)
        (args, report), = _one(captured, "solve")
        problem = args[0]
        c = problem.background.chart
        chart = {"mu": c.mu, "dwz": c.dwz, "dzbwb": c.dzbwb, "logB": c.logB}
        n = report.psi.shape[0]
        alpha = op["alpha"] + op["perturb"] * np.exp(2j * np.pi * _grid_x(n))
        beta = np.full((n, n), op["alpha"], dtype=complex)
        summary = {"converged": report.converged,
                   "final_residual": report.residual_history[-1]}
        return errors + checks.check_gauss(summary, op["tol"], report.psi,
                                           alpha, beta, op["kg"], chart)
    (_, report), = _one(captured, "scan")
    length = int(op["argv"][op["argv"].index("--len") + 1])
    if kind == "fuchsian":
        _, errors = _manifest(code, stdout)
        return errors + checks.check_fuchsian(
            code, report.words, report.moduli, report.obstruction,
            float(report.min_transversality), reference.pair, length,
            reference.min_transversality(length))
    if kind == "reducible":
        return checks.check_reducible(code, stderr, report.obstruction,
                                      float(report.min_transversality))
    raise ValueError(f"unknown operation kind {kind!r}")
