import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bchyp import gauss
from bchyp.metric import (
    TorusGrid, BeltramiChart, ComplexMetric, CubicPair,
    laplacian, curvature, cubic_norm,
)
from bchyp.gauss import (
    GaussProblem, SolveReport,
    residual_background, residual_intrinsic, constant_root,
    solve_newton, wang_specialize, project_discrete_kernel,
    laplacian_matrix, laplacian_symbol,
    ChartMismatch, NoPositiveRoot, DidNotConverge,
)


def flat_problem(n=32, alpha=0.0, beta=0.0, Kg=0.0, mu=0.0, holo=False):
    g = TorusGrid(n)
    bg = ComplexMetric(BeltramiChart.constant_mu(g, mu), 0.0)
    C = CubicPair(g, alpha, beta, holomorphic=holo)
    return GaussProblem(bg, C, Kg=Kg)


def band_problem(n, eps, a, perturb, shift=0):
    """alpha = a + perturb e^{2 pi i (x + shift/n)}, beta = a, Kg = 0,
    on the identity chart (eps = 0) or the sine chart of amplitude eps.
    A whole-cell shift is an exact symmetry of the discrete problem."""
    g = TorusGrid(n)
    chart = (BeltramiChart.identity(g) if eps == 0
             else BeltramiChart.sine_perturbed(g, eps))
    alpha = a + perturb * np.exp(2j * np.pi * (g.x + shift / n))
    return GaussProblem(ComplexMetric(chart, 0.0), CubicPair(g, alpha, a),
                        Kg=0.0)


# ------------------------------------------------------------ constant root

def test_constant_root_examples():
    assert abs(constant_root(0.0, -1.0) - 1.0) < 1e-14
    assert abs(constant_root(1.0 / 8.0, 0.0) - 1.0) < 1e-14
    assert abs(constant_root(1.0, 0.0) - 2.0) < 1e-13


def test_constant_root_no_root():
    with pytest.raises(NoPositiveRoot):
        constant_root(0.0, 0.0)
    with pytest.raises(NoPositiveRoot):
        constant_root(0.0, 2.0)


def test_constant_root_polish_accuracy():
    for c, kg in [(0.3, -0.7), (2.5, 1.2), (1e-6, -2.0), (7.0, 0.0)]:
        u = constant_root(c, kg)
        assert u > 0
        assert abs(u ** 3 + kg * u ** 2 - 8 * c) < 1e-12 * max(1.0, 8 * c)


def test_constant_root_picks_largest():
    # Kg < 0 with small c: roots near 0 and near -Kg; want the largest
    u = constant_root(1e-4, -1.0)
    assert u > 0.9


# -------------------------------------------------------------- residuals

def test_residual_background_hyperbolic_case():
    p = flat_problem(32, Kg=-1.0)
    r = residual_background(0.0, p)
    assert np.abs(r).max() < 1e-14


def test_residual_background_constant_root_oracle():
    p = flat_problem(32, alpha=2.0, beta=2.0, Kg=0.0)
    c = float(np.mean(p.cnorm_g).real)          # = alpha*conj(beta)/8
    assert abs(c - 0.5) < 1e-14
    u = constant_root(c, 0.0)
    r = residual_background(0.5 * np.log(u), p)
    assert np.abs(r).max() < 1e-12


def test_residual_cross_check_exact():
    # background = e^{2 psi} * intrinsic, same stencils -> roundoff only
    rng = np.random.default_rng(4)
    for mu in (0.0, 0.25 + 0.1j):
        g = TorusGrid(32)
        bg = ComplexMetric(BeltramiChart.constant_mu(g, mu), 0.0)
        C = CubicPair(g, 1.1, 0.8 - 0.3j)
        p = GaussProblem(bg, C, Kg=0.0)
        for _ in range(10):
            psi = (0.3 * np.cos(2 * np.pi * g.x)
                   + 0.1j * np.sin(2 * np.pi * g.y)
                   + 0.05 * rng.standard_normal((32, 32)))
            lhs = residual_background(psi, p)
            rhs = np.exp(2 * psi) * residual_intrinsic(psi, p)
            assert np.abs(lhs - rhs).max() < 1e-11


def test_residual_intrinsic_flat_solution():
    p = flat_problem(32, alpha=1.0, beta=1.0)
    assert np.abs(residual_intrinsic(0.0, p)).max() < 1e-14


def test_residual_intrinsic_zero_cubic():
    p = flat_problem(32)
    psi = 0.2 * np.sin(2 * np.pi * p.grid.x)
    h = ComplexMetric(p.background.chart, psi)
    r = residual_intrinsic(psi, p)
    assert np.abs((r + 1.0) - laplacian(h, psi)).max() < 1e-13


def test_residual_intrinsic_chart_mismatch():
    g = TorusGrid(32)
    bg = ComplexMetric(BeltramiChart.identity(g), 0.3)
    p = GaussProblem(bg, CubicPair(g, 0.0, 0.0), Kg=0.0)
    with pytest.raises(ChartMismatch):
        residual_intrinsic(0.0, p)


# ---------------------------------------------------------- problem setup

def test_problem_rejects_degenerate_symbol():
    g = TorusGrid(16)
    bg = ComplexMetric(BeltramiChart.constant_mu(g, 0.9995), 0.0)
    with pytest.raises(ValueError):
        GaussProblem(bg, CubicPair(g, 0.0, 0.0))


def test_holomorphic_projection():
    g = TorusGrid(32)
    f = 1.0 + 0.1 * np.exp(2j * np.pi * g.x)
    proj = project_discrete_kernel(f)
    assert np.abs(proj - 1.0).max() < 1e-13
    # Nyquist mode survives
    nyq = (-1.0) ** np.arange(32)[None, :] * np.ones((32, 1))
    assert np.abs(project_discrete_kernel(nyq) - nyq).max() < 1e-12
    p = flat_problem(32, alpha=f, beta=1.0, holo=True)
    assert np.abs(p.C.alpha - 1.0).max() < 1e-13


def test_laplacian_matrix_matches_operator():
    rng = np.random.default_rng(7)
    for chart_kind in ("const", "perturbed"):
        g = TorusGrid(32)
        if chart_kind == "const":
            chart = BeltramiChart.constant_mu(g, 0.3 * np.exp(1j * np.pi / 5))
        else:
            chart = BeltramiChart.sine_perturbed(g, 0.05)
        h = ComplexMetric(chart, 0.1 * np.sin(2 * np.pi * g.x))
        L = laplacian_matrix(h)
        phi = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        lhs = (L @ phi.ravel()).reshape(32, 32)
        assert np.abs(lhs - laplacian(h, phi)).max() < 1e-10


def test_laplacian_symbol_exact_for_constant_coefficients():
    # constant mu and psi: the FFT diagonalizes laplacian_matrix exactly
    g = TorusGrid(32)
    chart = BeltramiChart.constant_mu(g, 0.3 * np.exp(1j * np.pi / 5))
    h = ComplexMetric(chart, 0.2 - 0.1j)
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    lhs = np.fft.fft2((laplacian_matrix(h) @ phi.ravel()).reshape(32, 32))
    rhs = laplacian_symbol(h) * np.fft.fft2(phi)
    assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(rhs).max()


# ----------------------------------------------------------------- solver

def test_solve_builds_no_laplacian_without_a_newton_step(monkeypatch):
    def refuse(metric):
        raise AssertionError("laplacian_matrix built with no Newton step")

    monkeypatch.setattr(gauss, "laplacian_matrix", refuse)
    rep = solve_newton(wang_specialize(1.2, TorusGrid(32)))
    assert rep.converged
    assert rep.iterations == 0


def test_solve_hyperbolic_background():
    p = flat_problem(32, Kg=-1.0)
    rep = solve_newton(p)
    assert rep.converged
    assert rep.iterations <= 2
    assert np.abs(rep.psi).max() < 1e-12


def test_solve_constant_data_matches_root():
    p = flat_problem(32, alpha=2.0, beta=2.0, Kg=0.0)
    rep = solve_newton(p)
    assert rep.converged and rep.iterations <= 3
    u = constant_root(0.5, 0.0)
    assert np.abs(rep.psi - 0.5 * np.log(u)).max() < 1e-10


def test_solve_perturbed_datum():
    g = TorusGrid(64)
    alpha = 1.0 + 0.1 * np.exp(2j * np.pi * g.x)
    bg = ComplexMetric(BeltramiChart.identity(g), 0.0)
    p = GaussProblem(bg, CubicPair(g, alpha, 1.0), Kg=0.0)
    rep = solve_newton(p)
    assert rep.converged
    assert np.abs(residual_background(rep.psi, p)).max() <= 1e-10
    # intrinsic residual is the exactly rescaled background residual
    assert np.abs(residual_intrinsic(rep.psi, p)).max() < 1e-9
    # history decreasing once moving
    hist = rep.residual_history
    assert all(b < a for a, b in zip(hist[1:], hist[2:]))


def test_newton_quadratic_tail():
    g = TorusGrid(64)
    alpha = 1.0 + 0.1 * np.exp(2j * np.pi * g.x)
    p = GaussProblem(ComplexMetric(BeltramiChart.identity(g), 0.0),
                     CubicPair(g, alpha, 1.0), Kg=0.0)
    hist = solve_newton(p).residual_history
    for a, b in zip(hist, hist[1:]):
        if a < 1e-2:
            assert b <= max(20.0 * a * a, 1e-12), (a, b)


def test_solution_second_differences_bounded():
    # regularity surrogate: D^2 psi stays O(1) as the grid refines
    tops = []
    for n in (32, 64, 128):
        g = TorusGrid(n)
        alpha = 1.0 + 0.1 * np.exp(2j * np.pi * g.x)
        p = GaussProblem(ComplexMetric(BeltramiChart.identity(g), 0.0),
                         CubicPair(g, alpha, 1.0), Kg=0.0)
        psi = solve_newton(p).psi
        tops.append(np.abs(g.dz(g.dzb(psi))).max())
    assert tops[2] < 1.25 * tops[0] + 1e-3, tops


def test_solve_on_nonidentity_chart():
    g = TorusGrid(32)
    chart = BeltramiChart.sine_perturbed(g, 0.05)
    p = GaussProblem(ComplexMetric(chart, 0.0),
                     CubicPair(g, 1.0, 1.0), Kg=0.0)
    rep = solve_newton(p)
    assert rep.converged
    assert np.abs(residual_background(rep.psi, p)).max() <= 1e-10


def test_krylov_iterations_do_not_grow_with_grid():
    counts = []
    for n in (64, 128, 256):
        rep = solve_newton(band_problem(n, 0.0, 1.0, 0.1))
        assert rep.converged
        assert len(rep.krylov_iterations) == rep.iterations
        assert rep.halvings == [0] * rep.iterations
        counts.append(rep.krylov_iterations)
    assert all(len(c) == len(counts[0]) for c in counts), counts
    for steps in zip(*counts):
        assert max(steps) <= 10 and max(steps) - min(steps) <= 1, counts


def _assert_solved(problem):
    rep = solve_newton(problem)
    assert rep.converged
    assert np.abs(residual_background(rep.psi, problem)).max() <= 1e-10


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_solve_strong_sine_chart(eps):
    _assert_solved(band_problem(128, eps, 0.6, 0.1))


@pytest.mark.parametrize("eps", [0.0, 0.02, 0.05, 0.1])
def test_solve_seeded_band(eps):
    # alpha = beta in [0.6, 1.0], perturb in [0.05, 0.1], shifted by
    # whole grid cells; six draws per chart
    rng = np.random.default_rng(round(100 * eps))
    for _ in range(6):
        a = float(rng.uniform(0.6, 1.0))
        p = float(rng.uniform(0.05, 0.1))
        shift = int(rng.integers(128))
        _assert_solved(band_problem(128, eps, a, p, shift))


def test_solve_band_corners_with_two_blas_threads():
    # the outcome of the solve must not depend on the BLAS thread count
    script = (
        "import json, numpy as np, test_gauss as t\n"
        "out = []\n"
        "for a in (0.6, 1.0):\n"
        "    for p in (0.05, 0.1):\n"
        "        prob = t.band_problem(128, 0.02, a, p)\n"
        "        rep = t.solve_newton(prob)\n"
        "        res = np.abs(t.residual_background(rep.psi, prob)).max()\n"
        "        out.append([rep.converged, float(res)])\n"
        "print(json.dumps(out))\n")
    src = str(Path(gauss.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([src, here]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert len(out) == 4
    assert all(ok and res <= 1e-10 for ok, res in out), out


# ------------------------------------------------------------------- wang

def test_wang_zero_datum_reduces():
    g = TorusGrid(32)
    p = wang_specialize(0.0, g)
    assert np.abs(p.C.alpha).max() == 0 and np.abs(p.C.beta).max() == 0
    assert np.abs(p.Kg).max() == 0


def test_wang_constant_one_matches_root():
    g = TorusGrid(32)
    p = wang_specialize(1.0, g)
    rep = solve_newton(p)
    assert rep.converged
    c = float(np.mean(p.cnorm_g).real)          # = 1/32
    assert abs(c - 1 / 32) < 1e-15
    u = constant_root(c, 0.0)
    assert np.abs(rep.psi - 0.5 * np.log(u)).max() < 1e-10


def test_wang_equation_pointwise():
    # K - 2|q|^2 = -1 with 2|q|^2 = 8 |C|^2_h for alpha = beta = q/2
    g = TorusGrid(64)
    p = wang_specialize(2.0, g)
    rep = solve_newton(p)
    h = ComplexMetric(p.background.chart, rep.psi)
    two_q2 = 8.0 * cubic_norm(h, p.C)
    want = (2.0 * 2.0) * np.exp(-6 * rep.psi) / 4.0     # |q|^2 e^{-6psi}/4
    assert np.abs(two_q2 - want).max() < 1e-13
    K = curvature(h)
    assert np.abs(K - two_q2 + 1.0).max() < 1e-10


def test_report_json():
    p = flat_problem(32, Kg=-1.0)
    rep = solve_newton(p)
    d = json.loads(rep.to_json())
    assert d["converged"] is True
    assert d["iterations"] == rep.iterations
    # solver counters stay out of the manifest
    assert set(d) == {"converged", "final_residual", "iterations",
                      "residual_history"}
