"""Newton solver for the Gauss equation of the conformal factor.

The unknown is a complex field psi with h = e^{2 psi} g over a fixed
background metric g.  The solved equation, in background form, is

    F(psi) = Delta_g psi - K_g - e^{2 psi} + 8 e^{-4 psi} |C|^2_g = 0,

whose zero set realizes K_h = -1 + 8 |C|^2_h.  K_g enters as an
explicit field so both the hyperbolic-background case (K_g = -1) and
the flat torus testbed (K_g = 0) run through one code path.

An intrinsic formulation Delta_h psi + alpha conj(beta) e^{-6 psi} - 1
(valid when the background is the bare chart metric) provides an
independent residual; with shared stencils the two are related by the
exact discrete identity  F = e^{2 psi} * F_intrinsic.

The Newton linearization is

    F'[d] = Delta_g d - (2 e^{2 psi} + 32 e^{-4 psi} |C|^2_g) d.

(The coefficient 32 e^{-4 psi} is what differentiating 8 e^{-4 psi}
forces; nothing else is dimensionally consistent.)  Delta_g is a
metric.LaplaceBeltrami operator whose coefficient fields are built
once, with the GaussProblem; every residual and matvec of a solve
reuses them.  Each Newton system J d = -F, with J = Delta_g minus the
diagonal weight applied matrix-free (Knoll & Keyes, J. Comput. Phys.
193, 2004), is solved by restarted complex GMRES.  The preconditioner
is the exact FFT inverse of J's constant-coefficient part: the Fourier
symbol of the centered stencils with every chart coefficient and the
weight replaced by its grid mean (Concus & Golub, SIAM J. Numer. Anal.
10, 1973).  On the identity chart over a constant background it
differs from J only by the weight's variation about its mean, so the
Krylov count per step depends on the data, not on the grid size.
Steps are damped by halving on the residual max-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres

from ._frozen import Frozen
from .metric import (
    TorusGrid, BeltramiChart, ComplexMetric, CubicPair, LaplaceBeltrami,
    laplacian, cubic_norm, ellipticity_floor, stencil_symbols, symbol_check,
)

__all__ = [
    "ChartMismatch", "NoPositiveRoot", "DidNotConverge", "LinearSolveFailure",
    "GaussProblem", "SolveReport",
    "residual_background", "residual_intrinsic", "constant_root",
    "solve_newton", "wang_specialize", "project_discrete_kernel",
    "laplacian_matrix", "laplacian_symbol",
]

MAX_HALVINGS = 10   # damping halvings per Newton step before it stalls


class ChartMismatch(ValueError):
    """Intrinsic residual requires a bare-chart (psi = 0) background."""


class NoPositiveRoot(ArithmeticError):
    """The constant reduction -Kg - u + 8c/u^2 = 0 has no positive root."""


class DidNotConverge(RuntimeError):
    """Newton ended above tol: no damped step lowered the residual
    (stalled), or max_iter steps ran out."""

    def __init__(self, iterations: int, residual: float,
                 stalled: bool = True):
        what = (f"stalled after {iterations} iterations" if stalled
                else f"reached max_iter ({iterations} iterations)")
        super().__init__(f"Newton {what}, residual {residual:.3e}")
        self.iterations = iterations
        self.residual = residual


class LinearSolveFailure(RuntimeError):
    """Inner Krylov solve broke down or hit its iteration cap."""


def project_discrete_kernel(f: np.ndarray) -> np.ndarray:
    """Project onto the kernel of the centered d_zbar (and d_z) stencil.

    On the periodic grid the centered-difference symbol vanishes exactly
    on the DC mode and the three Nyquist modes, so those four Fourier
    coefficients span every discretely holomorphic field.
    """
    n = f.shape[0]
    F = np.fft.fft2(f)
    keep = np.zeros_like(F)
    for ky in (0, n // 2):
        for kx in (0, n // 2):
            keep[ky, kx] = F[ky, kx]
    return np.fft.ifft2(keep)


class GaussProblem(Frozen):
    """Background metric + cubic datum + explicit K_g field.

    laplacian is Delta_g, the LaplaceBeltrami operator of the
    background, built once here; every residual and Newton matvec of a
    solve applies it.
    """

    __slots__ = ("background", "C", "Kg", "cnorm_g", "laplacian")

    def __init__(self, background: ComplexMetric, C: CubicPair, Kg=None):
        grid = background.grid
        if C.grid != grid:
            raise ValueError("cubic pair and background live on different grids")
        if not symbol_check(background.chart.mu):
            raise ValueError(f"chart fails the symbol check: floor "
                             f"{ellipticity_floor(background.chart.mu):.2e}")
        if C.holomorphic:
            C = CubicPair(grid, project_discrete_kernel(C.alpha),
                          project_discrete_kernel(C.beta), holomorphic=True)
        lap = LaplaceBeltrami(background)
        if Kg is None:
            Kg = -lap(background.psi)                 # K_g = -Delta_g psi_g
        self._set(background=background, C=C, Kg=grid.field(Kg),
                  laplacian=lap)
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            self._set(cnorm_g=cubic_norm(background, C))
        if not np.all(np.isfinite(self.cnorm_g)):
            raise ValueError("|C|^2_g is not finite")

    @property
    def grid(self) -> TorusGrid:
        return self.background.grid

    def initial_guess(self) -> np.ndarray:
        """The constant root of the averaged data (zero if it has none)."""
        c = float(np.mean(self.cnorm_g).real)
        kg = float(np.mean(self.Kg).real)
        try:
            u = constant_root(max(c, 0.0), kg)
        except NoPositiveRoot:
            return np.zeros((self.grid.n, self.grid.n), dtype=complex)
        return np.full((self.grid.n, self.grid.n), 0.5 * np.log(u),
                       dtype=complex)


@dataclass(eq=False)
class SolveReport:
    """Outcome of solve_newton.

    krylov_iterations and halvings hold one entry per Newton step: the
    GMRES iterations of its linear solve and the damping halvings before
    the step was accepted.
    """

    psi: np.ndarray
    iterations: int
    residual_history: list
    converged: bool
    krylov_iterations: list
    halvings: list

    def __repr__(self):
        return (f"SolveReport(converged={self.converged}, "
                f"iterations={self.iterations}, "
                f"residual={self.residual_history[-1]:.3e})")


def residual_background(psi, problem: GaussProblem) -> np.ndarray:
    """Delta_g psi - K_g - e^{2 psi} + 8 e^{-4 psi} |C|^2_g."""
    psi = problem.grid.field(psi)
    return (problem.laplacian(psi) - problem.Kg
            - np.exp(2 * psi) + 8 * np.exp(-4 * psi) * problem.cnorm_g)


def residual_intrinsic(psi, problem: GaussProblem) -> np.ndarray:
    """Delta_h psi + alpha conj(beta) e^{-6 psi} - 1 in the unknown h."""
    if np.abs(problem.background.psi).max() > 1e-13:
        raise ChartMismatch("background must be the bare chart metric "
                            "(psi field identically zero)")
    psi = problem.grid.field(psi)
    h = ComplexMetric(problem.background.chart, psi)
    ab = problem.C.alpha * np.conj(problem.C.beta)
    return laplacian(h, psi) + ab * np.exp(-6 * psi) - 1.0


def constant_root(c: float, Kg: float) -> float:
    """Largest positive root of -Kg - u + 8c/u^2 = 0, to 1e-14.

    Equivalently the largest real root of p(u) = u^3 + Kg u^2 - 8c: with
    u = t - Kg/3, the trigonometric form of the depressed cubic in t when
    all three roots are real, else Cardano's formula, and then at most
    two Newton steps.  An estimate that overflows (|Kg| from about 1e52
    up) or comes out NaN gives no reliable root either.
    """
    c = float(c)
    Kg = float(Kg)
    if c < 0:
        raise ValueError("c must be nonnegative")
    if c == 0.0 and Kg >= 0:
        raise NoPositiveRoot(f"c = 0 and Kg = {Kg} >= 0")
    try:
        u = _largest_root(c, Kg)
        residual = abs(u ** 3 + Kg * u ** 2 - 8 * c)
    except OverflowError:               # float ** int raises past 1e308
        u = residual = math.nan
    if not (u > 0 and residual <= 1e-10 * max(1.0, 8 * c)):
        raise NoPositiveRoot(f"no reliable positive root for c={c}, Kg={Kg}")
    return float(u)


def _largest_root(c: float, Kg: float) -> float:
    """constant_root's estimate of the largest real root, unchecked."""
    if c == 0.0:
        u = -Kg
    else:
        a = -Kg * Kg / 3.0
        b = 2.0 * Kg ** 3 / 27.0 - 8.0 * c
        disc = 0.25 * b * b + a ** 3 / 27.0
        if disc < 0:
            r = math.sqrt(-a / 3.0)
            cos3 = max(-1.0, min(1.0, -0.5 * b / r ** 3))
            t = 2.0 * r * math.cos(math.acos(cos3) / 3.0)
        else:
            s = math.copysign(math.cbrt(0.5 * abs(b) + math.sqrt(disc)), -b)
            t = s - a / (3.0 * s)
        u = t - Kg / 3.0
    for _ in range(2):                # Newton polish
        f = u ** 3 + Kg * u ** 2 - 8 * c
        df = 3 * u ** 2 + 2 * Kg * u
        if df == 0:
            break
        step = f / df
        u -= step
        if abs(step) < 1e-14 * max(1.0, abs(u)):
            break
    return u


def laplacian_matrix(metric: ComplexMetric) -> sp.csr_matrix:
    """Sparse matrix equal (to roundoff) to metric.laplacian on ravel
    order: a reference route for checks, which the solver never builds."""
    g = metric.grid
    n, h = g.n, g.spacing
    P = sp.eye(n, k=1) + sp.eye(n, k=1 - n)       # (P f)[i] = f[i+1 mod n]
    S = (P - P.T) / (2 * h)                       # centered difference
    I = sp.identity(n, format="csr")
    DX = sp.kron(I, S, format="csr")              # x along axis 1
    DY = sp.kron(S, I, format="csr")
    Dz = 0.5 * (DX - 1j * DY)
    Dzb = 0.5 * (DX + 1j * DY)
    c = metric.chart
    mub = sp.diags(np.conj(c.mu).ravel())
    first = sp.diags((c.logB / c.dwz).ravel())
    pref = sp.diags((2.0 * np.exp(-2.0 * metric.psi) / c.dzbwb).ravel())
    return (pref @ (Dz @ Dzb + mub @ (Dzb @ Dzb) - first @ Dzb)).tocsr()


def laplacian_symbol(lap: LaplaceBeltrami) -> np.ndarray:
    """Fourier symbol of lap at mean coefficients.

    Each coefficient of Delta_h (the prefactor 2 e^{-2 psi} / dzbwb,
    conj(mu) and logB / dwz) is replaced by its grid mean, which lap
    keeps, so the result is an (n, n) array over the fft2 layout; it
    equals the symbol of laplacian_matrix exactly when those fields are
    constant.
    """
    g = lap.grid
    sx, sy = stencil_symbols(g.n, g.spacing)
    sz = 0.5 * (sx - 1j * sy)
    szb = 0.5 * (sx + 1j * sy)
    pref, mub, first = lap.means
    return pref * (sz * szb + mub * szb * szb - first * szb)


def _solve_krylov(problem: GaussProblem, weight: np.ndarray,
                  F: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the Newton system J d = -F by complex GMRES.

    J d = problem.laplacian(d) - weight d is applied matrix-free with
    the operator built once per problem, and the preconditioner is
    ifft2(fft2(r) / symbol) with the symbol of J at mean coefficients,
    rebuilt per Newton step from the operator's three means.  Returns d
    and the number of GMRES iterations; raises LinearSolveFailure when
    the true residual is not below 1e-12 |F| after 20 cycles of restart
    50.
    """
    shape = F.shape
    lap = problem.laplacian
    symbol = laplacian_symbol(lap) - weight.mean()

    def apply(d):
        d = d.reshape(shape)
        return (lap(d) - weight * d).ravel()

    def precondition(r):
        return np.fft.ifft2(np.fft.fft2(r.reshape(shape)) / symbol).ravel()

    J = LinearOperator((F.size, F.size), matvec=apply, dtype=complex)
    M = LinearOperator(J.shape, matvec=precondition, dtype=complex)
    count = 0

    def tick(_):
        nonlocal count
        count += 1

    # GMRES sees F scaled below 1 by a power of two, which is exact, so
    # the norms of a huge residual cannot overflow
    scale = 2.0 ** -max(math.frexp(float(np.abs(F).max()))[1], 0)
    x, info = gmres(J, -scale * F.ravel(), rtol=1e-12, atol=0.0,
                    restart=50, maxiter=20, M=M, callback=tick,
                    callback_type="pr_norm")
    if info != 0:
        raise LinearSolveFailure(
            f"GMRES returned info={info} after {count} iterations")
    return x.reshape(shape) / scale, count


def solve_newton(problem: GaussProblem, tol: float = 1e-10,
                 max_iter: int = 50) -> SolveReport:
    """Damped Newton on residual_background down to max-abs tol.

    ValueError unless max_iter is an integer >= 0 and tol a finite
    number > 0, the rules the config reader applies."""
    if not (isinstance(max_iter, (int, np.integer))
            and not isinstance(max_iter, bool) and max_iter >= 0):
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    if not (isinstance(tol, (int, float, np.integer, np.floating))
            and not isinstance(tol, bool) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    psi = problem.initial_guess()
    F = residual_background(psi, problem)
    res = float(np.abs(F).max())
    history = [res]
    krylov, halvings = [], []
    for it in range(max_iter + 1):
        if res <= tol:
            return SolveReport(psi, it, history, True, krylov, halvings)
        if it == max_iter:
            break
        weight = (2.0 * np.exp(2 * psi)
                  + 32.0 * np.exp(-4 * psi) * problem.cnorm_g)
        delta, count = _solve_krylov(problem, weight, F)
        krylov.append(count)
        t = 1.0
        for k in range(MAX_HALVINGS + 1):
            trial = psi + t * delta
            # a trial that overflows has a non-finite rt and fails rt < res
            with np.errstate(over="ignore", invalid="ignore"):
                Ft = residual_background(trial, problem)
            rt = float(np.abs(Ft).max())
            if rt < res:
                psi, F, res = trial, Ft, rt
                history.append(res)
                halvings.append(k)
                break
            t *= 0.5
        else:
            raise DidNotConverge(it, res)
    raise DidNotConverge(max_iter, res, stalled=False)


def wang_specialize(q, grid: TorusGrid) -> GaussProblem:
    """Hitchin-locus (affine sphere) problem for a cubic differential q
    (a scalar or a field on grid) over the flat torus.

    Wang's normalization q relates to the pair by alpha = beta = q/2, so
    that 2|q|^2_{g_B} of the solved Blaschke metric equals 8|C|^2_h
    exactly, and the solved metric satisfies K - 2|q|^2 = -1.
    """
    qf = grid.field(q)
    bg = ComplexMetric(BeltramiChart.identity(grid), 0.0)
    C = CubicPair(grid, qf / 2.0, qf / 2.0, holomorphic=True)
    return GaussProblem(bg, C, Kg=0.0)
