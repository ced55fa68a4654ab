"""Seeded inputs of the three workloads.

`make_round(workload, seed, directory, configs)` writes every config
and generator file a workload needs into `directory` and returns the
warm-up operation and the round: the fixed list of operations a run
repeats, in a seeded order.  The warm-up is always the first operation
of the unshuffled list, so set-up time does not depend on the seed's
order.  Each operation is a dict with the CLI argument list and what its
checks need to know.  Nothing here imports bchyp; the program only ever
sees the generated files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("wang-chain", "gauss-solve", "word-scan")

GRID = 128
TOL = 1e-10
SCAN_LENGTH = 5

# Wang q: one draw per stratum, so every round has both signs and both
# halves of 0.3 <= |q| <= 1.6.
WANG_STRATA = ((0.3, 0.95), (0.95, 1.6))

# Corners of the perturbed-pair band (alpha = beta, perturb): the four
# on the identity chart and two on the sine chart with eps = 0.02.  With
# BLAS on one thread each of these solves is bit-for-bit repeatable.
GAUSS_CORNERS = (
    ({"kind": "identity"}, 0.6, 0.05),
    ({"kind": "identity"}, 0.6, 0.1),
    ({"kind": "identity"}, 1.0, 0.05),
    ({"kind": "identity"}, 1.0, 0.1),
    ({"kind": "sine", "eps": 0.02}, 0.6, 0.1),
    ({"kind": "sine", "eps": 0.02}, 1.0, 0.05),
)

FUCHSIAN_CONJUGATES = 4
REDUCIBLE_REPEATS = 3


def _config(chart, cubic, seed):
    return {"grid": GRID, "chart": chart, "background": {"kg": 0.0},
            "cubic": cubic, "solver": {"tol": TOL, "max_iter": 50},
            "seed": seed}


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return str(path)


def read_gens(path) -> list[np.ndarray]:
    """Generator file: a JSON list of 3x3 matrices of [re, im] pairs."""
    raw = json.loads(Path(path).read_text())
    return [np.array([[complex(*e) for e in row] for row in M]) for M in raw]


def _gens_json(mats) -> list:
    return [[[[float(z.real), float(z.imag)] for z in row] for row in M]
            for M in mats]


def _diagonal_su3(rng) -> np.ndarray:
    """diag(e^{i a}, e^{i b}, e^{-i(a+b)}): a seeded element of SU(3)."""
    a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return np.diag(np.exp(1j * np.array([a, b, -a - b])))


def make_round(workload: str, seed: int, directory: Path,
               configs: Path) -> tuple[dict, list[dict]]:
    """Write the inputs for one seed; return (warm-up, round)."""
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    if workload == "wang-chain":
        for k, (lo, hi) in enumerate(WANG_STRATA):
            for sign in (1.0, -1.0):
                q = sign * float(rng.uniform(lo, hi))
                path = _write(directory / f"wang-{k}-{sign:+.0f}.json",
                              _config({"kind": "identity"},
                                      {"kind": "wang", "q": [q, 0.0]}, seed))
                ops.append({"kind": "wang", "q": q, "kg": 0.0, "n": GRID,
                            "argv": ["pipeline", "--config", path, "--json"]})
    elif workload == "gauss-solve":
        for k, (chart, a, p) in enumerate(GAUSS_CORNERS):
            cubic = {"kind": "pair", "alpha": a, "beta": a, "perturb": p}
            path = _write(directory / f"gauss-{k}.json",
                          _config(chart, cubic, seed))
            ops.append({"kind": "gauss", "alpha": a, "perturb": p,
                        "kg": 0.0, "tol": TOL,
                        "argv": ["gauss", "solve", "--config", path,
                                 "--json"]})
    elif workload == "word-scan":
        base = read_gens(configs / "gens_fuchsian.json")
        files = [str(configs / "gens_fuchsian.json")]
        for k in range(FUCHSIAN_CONJUGATES):
            D = _diagonal_su3(rng)
            files.append(_write(directory / f"fuchsian-{k}.json",
                                _gens_json([D @ g @ D.conj().T
                                            for g in base])))
        for path in files:
            ops.append({"kind": "fuchsian",
                        "argv": ["rep", "anosov", "--gens", path,
                                 "--len", str(SCAN_LENGTH), "--json"]})
        reducible = str(configs / "gens_reducible.json")
        ops += [{"kind": "reducible",
                 "argv": ["rep", "anosov", "--gens", reducible,
                          "--len", str(SCAN_LENGTH), "--json"]}
                for _ in range(REDUCIBLE_REPEATS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(ops))
    return ops[0], [ops[i] for i in order]
