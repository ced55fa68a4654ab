import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bchyp import gauss
from bchyp.config import ConfigError
from bchyp.metric import (
    TorusGrid, BeltramiChart, ComplexMetric, CubicPair, LaplaceBeltrami,
    laplacian, cubic_norm,
)
from bchyp.gauss import (
    GaussProblem,
    residual_background, constant_root,
    solve_newton,
    laplacian_matrix, laplacian_symbol,
    LinearSolveFailure, NoPositiveRoot,
)
from oracles import curvature, residual_intrinsic, scipy_gmres, wang_problem


def flat_problem(n=32, alpha=0.0, beta=0.0, mu=0.0):
    g = TorusGrid(n)
    return GaussProblem(BeltramiChart.constant_mu(g, mu),
                        CubicPair(g, alpha, beta))


def band_problem(n, eps, a, perturb, shift=0):
    """alpha = a + perturb e^{2 pi i (x + shift/n)}, beta = a, on the
    identity chart (eps = 0) or the sine chart of amplitude eps.
    A whole-cell shift is an exact symmetry of the discrete problem."""
    g = TorusGrid(n)
    chart = (BeltramiChart.identity(g) if eps == 0
             else BeltramiChart.sine_perturbed(g, eps))
    alpha = a + perturb * np.exp(2j * np.pi * (g.x + shift / n))
    return GaussProblem(chart, CubicPair(g, alpha, a))


# ------------------------------------------------------------ constant root

def test_constant_root_examples():
    assert constant_root(1.0 / 8.0) == 1.0
    assert constant_root(1.0) == 2.0
    assert abs(constant_root(1j) - (np.sqrt(3.0) + 1j)) < 1e-15


def test_constant_root_no_root():
    # c = 0, and a c whose modulus floats cannot hold
    for c in (0.0, complex(0.0, -0.0), np.inf, -np.inf, complex(0.0, np.inf),
              np.nan, complex(1.5e308, 1.5e308)):
        with pytest.raises(NoPositiveRoot):
            constant_root(c)


def test_constant_root_matches_companion_roots():
    # the closed form against the root of u^3 - 8c with the largest real
    # part from np.roots, over seeded moduli and every argument; one
    # Newton step takes the eigenvalue's error of up to ~14 eps down to
    # about 1 eps
    rng = np.random.default_rng(13)
    for r, arg in zip(10.0 ** rng.uniform(-6, 6, 500),
                      rng.uniform(-np.pi, np.pi, 500)):
        c = r * np.exp(1j * arg)
        roots = np.roots([1.0, 0.0, 0.0, -8.0 * c])
        ref = roots[np.argmax(roots.real)]
        ref -= (ref ** 3 - 8.0 * c) / (3.0 * ref ** 2)
        assert abs(constant_root(c) - ref) <= 1e-15 * abs(ref), c


def test_constant_root_is_a_float_exactly_for_real_nonnegative_c():
    assert type(constant_root(0.18)) is float
    assert type(constant_root(np.complex128(0.18))) is float
    assert type(constant_root(-0.18)) is complex
    assert type(constant_root(0.18 + 1e-21j)) is complex


def test_constant_root_follows_the_arc_from_the_positive_root():
    # largest real part = the root continued from the positive root at
    # |c| along the arc to arg c, tracked with np.roots in small steps
    rng = np.random.default_rng(21)
    for _ in range(20):
        r = 10.0 ** rng.uniform(-3.0, 1.4)
        arg = np.deg2rad(rng.uniform(-179.0, 179.0))
        u = constant_root(r)
        for t in np.linspace(0.0, arg, 400)[1:]:
            roots = np.roots([1.0, 0.0, 0.0, -8.0 * r * np.exp(1j * t)])
            u = roots[np.argmin(np.abs(roots - u))]
        got = constant_root(r * np.exp(1j * arg))
        assert abs(got - u) <= 1e-12 * abs(u)
        assert abs(got ** 3 - 8 * r * np.exp(1j * arg)) \
            < 1e-12 * max(1.0, 8 * r)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_constant_root_branch_cut_is_reached_from_above(zero):
    # on c < 0 two roots tie in real part; the one with Im > 0 is taken,
    # the limit from arg c > 0, whatever the sign of the zero imaginary
    # part, and arg c < 0 gives its conjugate
    on_cut = constant_root(complex(-1.0 / 8.0, zero))
    above = constant_root(np.exp(1j * (np.pi - 1e-9)) / 8.0)
    below = constant_root(np.exp(-1j * (np.pi - 1e-9)) / 8.0)
    assert on_cut.imag > 0 and on_cut.real > 0
    assert abs(on_cut - above) < 1e-8
    assert abs(on_cut - below.conjugate()) < 1e-8
    assert abs(on_cut - np.exp(1j * np.pi / 3)) < 1e-15


# -------------------------------------------------------------- residuals

def test_residual_background_constant_root_oracle():
    p = flat_problem(32, alpha=2.0, beta=2.0)
    c = float(np.mean(p.cnorm_g).real)          # = alpha*conj(beta)/8
    assert abs(c - 0.5) < 1e-14
    u = constant_root(c)
    r = residual_background(0.5 * np.log(u), p)
    assert np.abs(r).max() < 1e-12


def test_residual_cross_check_exact():
    # background = e^{2 psi} * intrinsic, same stencils -> roundoff only
    rng = np.random.default_rng(4)
    for mu in (0.0, 0.25 + 0.1j):
        g = TorusGrid(32)
        C = CubicPair(g, 1.1, 0.8 - 0.3j)
        p = GaussProblem(BeltramiChart.constant_mu(g, mu), C)
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


# ---------------------------------------------------------- problem setup

def test_problem_rejects_degenerate_symbol():
    g = TorusGrid(16)
    with pytest.raises(ValueError):
        GaussProblem(BeltramiChart.constant_mu(g, 0.9995),
                     CubicPair(g, 0.0, 0.0))


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
    rhs = laplacian_symbol(LaplaceBeltrami(h)) * np.fft.fft2(phi)
    assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(rhs).max()


# ----------------------------------------------------------------- solver

def test_solve_builds_no_laplacian_without_a_newton_step(monkeypatch):
    # the Newton operator applies the problem's LaplaceBeltrami; no
    # solve, with or without Newton steps, assembles the sparse matrix
    def refuse(metric):
        raise AssertionError("laplacian_matrix built by the solver")

    monkeypatch.setattr(gauss, "laplacian_matrix", refuse)
    rep = solve_newton(wang_problem(0.6, 32))
    assert rep.converged
    assert rep.iterations == 0
    p = band_problem(32, 0.0, 1.0, 0.1)      # the perturbed datum
    rep = solve_newton(p)
    assert rep.converged
    assert rep.iterations >= 2
    assert np.abs(residual_background(rep.psi, p)).max() <= 1e-10


def test_solve_builds_the_coefficient_fields_once(monkeypatch):
    # one LaplaceBeltrami per problem, built with it; the residuals and
    # every GMRES matvec of a 2-step solve reuse it
    built = []
    build = LaplaceBeltrami.__init__

    def counted(self, h):
        built.append(h)
        build(self, h)

    monkeypatch.setattr(LaplaceBeltrami, "__init__", counted)
    p = band_problem(64, 0.0, 1.0, 0.1)
    assert len(built) == 1

    def refuse(self, h):
        raise AssertionError("coefficient fields rebuilt by the solver")

    monkeypatch.setattr(LaplaceBeltrami, "__init__", refuse)
    rep = solve_newton(p)
    assert rep.converged and rep.iterations == 2
    assert sum(rep.krylov_iterations) >= 2


def test_solve_constant_data_matches_root():
    p = flat_problem(32, alpha=2.0, beta=2.0)
    rep = solve_newton(p)
    assert rep.converged and rep.iterations <= 3
    u = constant_root(0.5)
    assert np.abs(rep.psi - 0.5 * np.log(u)).max() < 1e-10


def test_solve_perturbed_datum():
    g = TorusGrid(64)
    alpha = 1.0 + 0.1 * np.exp(2j * np.pi * g.x)
    p = GaussProblem(BeltramiChart.identity(g), CubicPair(g, alpha, 1.0))
    rep = solve_newton(p)
    assert rep.converged
    assert np.abs(residual_background(rep.psi, p)).max() <= 1e-10
    # intrinsic residual is the exactly rescaled background residual
    assert np.abs(residual_intrinsic(rep.psi, p)).max() < 1e-9
    # history decreasing once moving
    hist = rep.residual_history
    assert all(b < a for a, b in zip(hist[1:], hist[2:]))


def test_newton_converged_on_its_last_allowed_step():
    # the perturbed datum converges in 2 steps: max_iter = 2 reports
    # them, max_iter = 1 stops one step short
    p = band_problem(32, 0.0, 1.0, 0.1)
    assert solve_newton(p).iterations == 2
    rep = solve_newton(p, max_iter=2)
    assert rep.converged and rep.iterations == 2
    with pytest.raises(gauss.DidNotConverge,
                       match=r"reached max_iter \(1 iterations\)"):
        solve_newton(p, max_iter=1)


@pytest.mark.parametrize("solver", [
    {"max_iter": -1}, {"max_iter": 2.0}, {"max_iter": True},
    {"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0}, {"tol": -1e-10},
    {"tol": "1e-10"},
], ids=["max_iter_negative", "max_iter_float", "max_iter_bool", "tol_nan",
        "tol_inf", "tol_zero", "tol_negative", "tol_str"])
def test_newton_rejects_solver_settings_the_config_refuses(solver):
    # the constant datum meets any tol at once, so only the check raises
    p = flat_problem(16, 1.0, 1.0)
    assert solve_newton(p, max_iter=0).converged
    with pytest.raises(ValueError, match=next(iter(solver))):
        solve_newton(p, **solver)


def test_newton_quadratic_tail():
    g = TorusGrid(64)
    alpha = 1.0 + 0.1 * np.exp(2j * np.pi * g.x)
    p = GaussProblem(BeltramiChart.identity(g), CubicPair(g, alpha, 1.0))
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
        p = GaussProblem(BeltramiChart.identity(g), CubicPair(g, alpha, 1.0))
        psi = solve_newton(p).psi
        psi_zb = g.dzb(psi)
        tops.append(np.abs(0.5 * (g.dx(psi_zb) - 1j * g.dy(psi_zb))).max())
    assert tops[2] < 1.25 * tops[0] + 1e-3, tops


def test_solve_on_nonidentity_chart():
    g = TorusGrid(32)
    chart = BeltramiChart.sine_perturbed(g, 0.05)
    p = GaussProblem(chart, CubicPair(g, 1.0, 1.0))
    rep = solve_newton(p)
    assert rep.converged
    assert np.abs(residual_background(rep.psi, p)).max() <= 1e-10


# (eps, alpha = beta, perturb): the six corners of the perturbed-pair
# band that the gauss-solve benchmark solves, and the sine chart at
# eps = 0.1, where GMRES takes about 30 iterations per Newton step
NEWTON_SYSTEMS = [(0.0, 0.6, 0.05), (0.0, 0.6, 0.1), (0.0, 1.0, 0.05),
                  (0.0, 1.0, 0.1), (0.02, 0.6, 0.1), (0.02, 1.0, 0.05),
                  (0.1, 0.6, 0.1)]


@pytest.mark.parametrize("eps, a, perturb", NEWTON_SYSTEMS)
def test_gmres_matches_scipy_on_the_newton_systems(monkeypatch, eps, a,
                                                   perturb):
    # every Newton system of the solve goes to both GMRES codes
    kernel, seen = gauss._gmres, []

    def compared(apply, precondition, b):
        x, count = kernel(apply, precondition, b)
        y, oracle_count, info = scipy_gmres(apply, precondition, b)
        seen.append((count, oracle_count, info,
                     np.linalg.norm(x - y) / np.linalg.norm(y)))
        return x, count

    monkeypatch.setattr(gauss, "_gmres", compared)
    rep = solve_newton(band_problem(128, eps, a, perturb))
    assert rep.converged and rep.iterations >= 2
    assert len(seen) == rep.iterations
    for count, oracle_count, info, difference in seen:
        assert info == 0 and count == oracle_count, seen
        assert difference <= 1e-12, seen


def test_gmres_failure_gives_its_iteration_count():
    # the cyclic shift e_k -> e_{k+1} on C^51 with b = e_0: each cycle's
    # 50 Krylov vectors e_0..e_49 leave the residual at |b|, so all 20
    # cycles run, as SciPy's gmres does (info 20 after 1000 iterations);
    # on C^50 the 50th vector closes the space and the solve is exact
    def shift(x):
        return np.roll(x, 1)

    def identity(r):
        return r

    b = np.zeros(51, dtype=complex)
    b[0] = 1.0
    assert scipy_gmres(shift, identity, b)[1:] == (1000, 20)
    with pytest.raises(LinearSolveFailure, match=r"after 1000 iterations "):
        gauss._gmres(shift, identity, b)
    x, count = gauss._gmres(shift, identity, b[:50])
    assert count == 50 and np.abs(shift(x) - b[:50]).max() <= 1e-15
    # a zero operator breaks down at once, above the tolerance
    assert scipy_gmres(np.zeros_like, identity, b)[1:] == (1, 20)
    with pytest.raises(LinearSolveFailure, match=r"after 1 iterations "):
        gauss._gmres(np.zeros_like, identity, b)


def test_krylov_solve_of_a_residual_near_the_float_range():
    # the norms of an F this size overflow, so _solve_krylov hands GMRES
    # F scaled by a power of two; on constant data the preconditioner is
    # the exact inverse, and one iteration solves the system
    p = flat_problem(16, alpha=1.0, beta=1.0)
    _, weight = gauss._residual_and_weight(p.initial_guess(), p)
    rng = np.random.default_rng(3)
    F = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    F *= 1e300 / np.abs(F).max()
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError):
            np.linalg.norm(F)
        d, count = gauss._solve_krylov(p, weight, F)
    s = 2.0 ** -1000                    # residual norms in the float range
    r = p.laplacian(s * d) - weight * (s * d) + s * F
    assert count == 1
    assert np.linalg.norm(r) <= gauss.GMRES_RTOL * np.linalg.norm(s * F)


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


@pytest.mark.parametrize("eps", [0.0, 0.05], ids=["identity", "sine"])
@pytest.mark.parametrize("theta", [0, 15, 90, 135, 165, 180])
def test_constant_pair_off_the_hitchin_locus_starts_solved(eps, theta):
    # alpha = 1, beta = e^{-i theta}: alpha conj(beta) = e^{i theta}, and
    # the complex constant root of the mean is the solution
    g = TorusGrid(64)
    chart = (BeltramiChart.identity(g) if eps == 0
             else BeltramiChart.sine_perturbed(g, eps))
    beta = np.exp(-1j * np.deg2rad(theta))
    p = GaussProblem(chart, CubicPair(g, 1.0, beta))
    rep = solve_newton(p)
    assert rep.converged and rep.iterations == 0
    assert rep.residual_history[-1] <= 1e-14


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
    # q = 0 is the pair alpha = beta = 0, whose Gauss equation over the
    # flat background has no solution
    with pytest.raises(ConfigError, match="zero everywhere"):
        wang_problem(0.0, 32)


def test_wang_constant_one_matches_root():
    p = wang_problem(0.5, 32)
    rep = solve_newton(p)
    assert rep.converged
    c = float(np.mean(p.cnorm_g).real)          # = 1/32
    assert abs(c - 1 / 32) < 1e-15
    u = constant_root(c)
    assert np.abs(rep.psi - 0.5 * np.log(u)).max() < 1e-10


def test_wang_equation_pointwise():
    # K - 2|q_W|^2 = -1 with 2|q_W|^2 = 8 |C|^2_h for Wang's q_W = 2q,
    # the config's q giving alpha = beta = q
    q = 1.0
    p = wang_problem(q, 64)
    rep = solve_newton(p)
    h = ComplexMetric(p.background.chart, rep.psi)
    two_q2 = 8.0 * cubic_norm(h, p.C)
    q_w = 2.0 * q
    want = (q_w * q_w) * np.exp(-6 * rep.psi) / 4.0   # |q_W|^2 e^{-6psi}/4
    assert np.abs(two_q2 - want).max() < 1e-13
    K = curvature(h)
    assert np.abs(K - two_q2 + 1.0).max() < 1e-10
