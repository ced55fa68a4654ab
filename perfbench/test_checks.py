"""Each benchmark check accepts the program's answer and rejects a planted
wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")     # as in the benchmark's workers

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from inputs import read_gens  # noqa: E402
from bchyp import cli  # noqa: E402
from bchyp.affine import integrate_frame  # noqa: E402
from bchyp.connection import Loop, assemble, holonomy  # noqa: E402
from bchyp.gauss import solve_newton  # noqa: E402
from bchyp.replib import Representation, anosov_scan  # noqa: E402

CONFIGS = HERE.parent / "configs"
N = 32


class _Parts:
    def __init__(self, plus, minus):
        self.plus, self.minus = plus, minus


def _problem(cubic, chart=None, n=N):
    cfg = cli.load_config(None)
    cfg.update({"grid": n, "cubic": cubic,
                "chart": chart or {"kind": "identity"}})
    problem, chart, grid, _ = cli.build_problem(cfg)
    return problem, chart


@pytest.fixture(scope="module", params=[1.2, -0.45])
def wang(request):
    q = request.param
    problem, chart = _problem({"kind": "wang", "q": [q, 0.0]})
    psi = solve_newton(problem).psi
    conn = assemble(psi, problem.C, chart)
    Hx = holonomy(conn, Loop.x_period(N))
    Hy = holonomy(conn, Loop.y_period(N))
    return q, psi, Hx, Hy, integrate_frame(conn)


def test_wang_psi(wang):
    q, psi, *_ = wang
    assert checks.check_wang_psi(psi, q, 0.0) == []
    assert checks.check_wang_psi(psi + 1e-6, q, 0.0)


def test_wang_holonomy(wang):
    q, _, Hx, Hy, _ = wang
    assert checks.check_wang_holonomy(Hx, Hy, q, 0.0) == []
    assert checks.check_wang_holonomy(Hy, Hx, q, 0.0)        # periods swapped
    inv = _Parts(np.linalg.inv(Hx.plus), np.linalg.inv(Hx.minus))
    assert checks.check_wang_holonomy(inv, Hy, q, 0.0)         # loop reversed
    minus_for_plus = _Parts(Hx.minus, Hx.plus)
    assert checks.check_wang_holonomy(minus_for_plus, Hy, q, 0.0)


def test_transposed_wang_holonomy_is_the_same_answer(wang):
    """On constant real data both period holonomies are symmetric
    boosts in the ambient gauge, so a transposed holonomy is not a wrong
    answer there; the test above plants the wrong answers that exist."""
    _, _, Hx, Hy, _ = wang
    for H in (Hx, Hy):
        for M in (H.plus, H.minus):
            assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()


def test_wang_frame(wang):
    q, _, _, _, pair = wang
    assert checks.check_wang_frame(pair.fplus, pair.fminus, q, 0.0, N) == []
    shifted = np.roll(pair.fplus, 1, axis=1)
    assert checks.check_wang_frame(shifted, pair.fminus, q, 0.0, N)
    assert checks.check_wang_frame(pair.fminus, pair.fplus, q, 0.0, N)


@pytest.mark.parametrize("chart, a, p", [({"kind": "identity"}, 1.0, 0.1),
                                         ({"kind": "sine", "eps": 0.02},
                                          0.6, 0.1)])
def test_gauss_residual(chart, a, p):
    tol, n = 1e-10, 128
    problem, c = _problem({"kind": "pair", "alpha": a, "beta": a,
                           "perturb": p}, chart, n)
    report = solve_newton(problem, tol=tol)
    fields = {"mu": c.mu, "dwz": c.dwz, "dzbwb": c.dzbwb, "logB": c.logB}
    alpha = a + p * np.exp(2j * np.pi * np.tile(np.arange(n) / n, (n, 1)))
    beta = np.full((n, n), a, dtype=complex)
    ok = {"converged": True, "final_residual": report.residual_history[-1]}
    args = (alpha, beta, 0.0, fields)
    assert checks.check_gauss(ok, tol, report.psi, *args) == []
    assert checks.check_gauss(ok, tol, report.psi + 3e-5, *args)
    assert checks.check_gauss(ok, tol, problem.initial_guess(), *args)
    assert checks.check_gauss({"converged": False, "final_residual": 1.0},
                              tol, report.psi, *args)


@pytest.fixture(scope="module")
def fuchsian():
    mats = read_gens(CONFIGS / "gens_fuchsian.json")
    pair = {chr(ord("a") + k): checks.sym2_root(M)
            for k, M in enumerate(mats)}
    rep = Representation({name: M for name, M in zip("ab", mats)})
    return pair, anosov_scan(rep, 3)


def test_fuchsian_scan(fuchsian):
    pair, r = fuchsian
    t = float(r.min_transversality)

    def run(code=0, moduli=r.moduli, obstruction=None, words=r.words,
            ref=t):
        return checks.check_fuchsian(code, words, moduli, obstruction, t,
                                     pair, 3, ref)

    assert run() == []
    scaled = np.array(r.moduli)
    scaled[5, 1] *= 1.0 + 1e-6                    # one modulus scaled
    assert run(moduli=scaled)
    assert run(code=1)                            # flipped verdict
    assert run(obstruction="word ab is not loxodromic")
    assert run(words=r.words[:-1], moduli=r.moduli[:-1])
    assert run(ref=t * (1 + 1e-6))


def test_reducible_scan():
    mats = read_gens(CONFIGS / "gens_reducible.json")
    r = anosov_scan(Representation(dict(zip("ab", mats))), 5)
    msg = ("stage failure (criterion 10): transversality/loxodromy check "
           "failed: " + str(r.obstruction))
    t = float(r.min_transversality)
    assert checks.check_reducible(1, msg, r.obstruction, t) == []
    assert checks.check_reducible(1, msg, None, t)        # flipped verdict
    assert checks.check_reducible(0, "", r.obstruction, t)
    assert checks.check_reducible(1, msg, r.obstruction, 1e-3)


def test_word_counts_and_roots():
    assert checks.reduced_word_count(2, 5) == 484
    A = np.array([[2.0, 1.0], [3.0, 2.0]])
    back = checks.sym2_root(checks.sym2(A))
    assert np.allclose(back, A) or np.allclose(back, -A)
    with pytest.raises(ValueError):
        checks.sym2_root(np.eye(3) + np.diag([0.0, 0.5, 0.0]))
