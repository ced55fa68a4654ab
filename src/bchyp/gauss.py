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
forces; nothing else is dimensionally consistent.)  Each Newton system
J d = -F, with J the complex sparse laplacian_matrix minus the diagonal
weight, is solved by restarted complex GMRES.  The preconditioner is
the exact FFT inverse of J's constant-coefficient part: the Fourier
symbol of the centered stencils with every chart coefficient and the
weight replaced by its grid mean (Concus & Golub, SIAM J. Numer. Anal.
10, 1973).  On the identity chart over a constant background it
differs from J only by the weight's variation about its mean, so the
Krylov count per step depends on the data, not on the grid size.
Steps are damped by halving on the residual max-norm.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres

from .metric import (
    TorusGrid, BeltramiChart, ComplexMetric, CubicPair,
    laplacian, curvature, cubic_norm, ellipticity_floor, stencil_symbols,
)

__all__ = [
    "ChartMismatch", "NoPositiveRoot", "DidNotConverge", "LinearSolveFailure",
    "GaussProblem", "SolveReport",
    "residual_background", "residual_intrinsic", "constant_root",
    "solve_newton", "wang_specialize", "project_discrete_kernel",
    "laplacian_matrix", "laplacian_symbol",
]

SYMBOL_FLOOR = 5e-3


class ChartMismatch(ValueError):
    """Intrinsic residual requires a bare-chart (psi = 0) background."""


class NoPositiveRoot(ArithmeticError):
    """The constant reduction -Kg - u + 8c/u^2 = 0 has no positive root."""


class DidNotConverge(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(f"Newton stalled after {iterations} iterations, "
                         f"residual {residual:.3e}")
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


class GaussProblem:
    """Background metric + cubic datum + explicit K_g field."""

    __slots__ = ("background", "C", "Kg", "initial", "cnorm_g")

    def __init__(self, background: ComplexMetric, C: CubicPair,
                 Kg=None, initial=None):
        grid = background.grid
        if C.grid != grid:
            raise ValueError("cubic pair and background live on different grids")
        floor = ellipticity_floor(background.chart.mu)
        if floor <= SYMBOL_FLOOR:
            raise ValueError(f"chart fails the symbol check: floor {floor:.2e}")
        if C.holomorphic:
            C = CubicPair(grid, project_discrete_kernel(C.alpha),
                          project_discrete_kernel(C.beta), holomorphic=True)
        if Kg is None:
            Kg = curvature(background)
        object.__setattr__(self, "background", background)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Kg", grid.field(Kg))
        object.__setattr__(self, "initial",
                           None if initial is None else grid.field(initial))
        object.__setattr__(self, "cnorm_g", cubic_norm(background, C))
        if not np.all(np.isfinite(self.cnorm_g)):
            raise ValueError("|C|^2_g is not finite")

    def __setattr__(self, name, value):
        raise AttributeError("GaussProblem is immutable")

    @property
    def grid(self) -> TorusGrid:
        return self.background.grid

    def initial_guess(self) -> np.ndarray:
        """Stored psi0, else the constant root of the averaged data."""
        if self.initial is not None:
            return self.initial.copy()
        c = float(np.mean(self.cnorm_g).real)
        kg = float(np.mean(self.Kg).real)
        try:
            u = constant_root(max(c, 0.0), kg)
        except NoPositiveRoot:
            return np.zeros((self.grid.n, self.grid.n), dtype=complex)
        return np.full((self.grid.n, self.grid.n), 0.5 * np.log(u),
                       dtype=complex)


class SolveReport:
    """Outcome of solve_newton.

    krylov_iterations and halvings hold one entry per Newton step: the
    GMRES iterations of its linear solve and the damping halvings before
    the step was accepted.  They describe how the solve ran, not what it
    found, so to_json leaves them out.
    """

    __slots__ = ("psi", "iterations", "residual_history", "converged",
                 "krylov_iterations", "halvings")

    def __init__(self, psi, iterations, residual_history, converged,
                 krylov_iterations, halvings):
        self.psi = psi
        self.iterations = iterations
        self.residual_history = list(residual_history)
        self.converged = converged
        self.krylov_iterations = list(krylov_iterations)
        self.halvings = list(halvings)

    def to_json(self) -> str:
        return json.dumps({
            "iterations": self.iterations,
            "residual_history": [repr(r) for r in self.residual_history],
            "final_residual": repr(self.residual_history[-1]),
            "converged": self.converged,
        }, sort_keys=True)

    def __repr__(self):
        return (f"SolveReport(converged={self.converged}, "
                f"iterations={self.iterations}, "
                f"residual={self.residual_history[-1]:.3e})")


def residual_background(psi, problem: GaussProblem) -> np.ndarray:
    """Delta_g psi - K_g - e^{2 psi} + 8 e^{-4 psi} |C|^2_g."""
    psi = problem.grid.field(psi)
    return (laplacian(problem.background, psi) - problem.Kg
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

    Equivalently the largest positive root of p(u) = u^3 + Kg u^2 - 8c.
    """
    c = float(c)
    Kg = float(Kg)
    if c < 0:
        raise ValueError("c must be nonnegative")
    if c == 0.0:
        if Kg >= 0:
            raise NoPositiveRoot(f"c = 0 and Kg = {Kg} >= 0")
        u = -Kg
    else:
        p = lambda u: u ** 3 + Kg * u ** 2 - 8 * c
        lo = 0.0
        hi = max(1.0, -2.0 * Kg, (8 * c) ** (1 / 3) + max(0.0, -Kg))
        while p(hi) <= 0:
            hi *= 2
        for _ in range(200):          # bisection to a tight bracket
            mid = 0.5 * (lo + hi)
            if p(mid) > 0:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-12 * max(1.0, hi):
                break
        u = 0.5 * (lo + hi)
    for _ in range(100):              # Newton polish
        f = u ** 3 + Kg * u ** 2 - 8 * c
        df = 3 * u ** 2 + 2 * Kg * u
        if df == 0:
            break
        step = f / df
        u -= step
        if abs(step) < 1e-14 * max(1.0, abs(u)):
            break
    if u <= 0 or abs(u ** 3 + Kg * u ** 2 - 8 * c) > 1e-10 * max(1.0, 8 * c):
        raise NoPositiveRoot(f"no reliable positive root for c={c}, Kg={Kg}")
    return float(u)


def _shift_matrix(n: int) -> sp.csr_matrix:
    """(P f)[i] = f[i+1 mod n], matching np.roll(f, -1)."""
    rows = np.arange(n)
    return sp.csr_matrix((np.ones(n), (rows, (rows + 1) % n)), shape=(n, n))


def laplacian_matrix(metric: ComplexMetric) -> sp.csr_matrix:
    """Sparse matrix equal (to roundoff) to metric.laplacian on ravel order."""
    g = metric.grid
    n, h = g.n, g.spacing
    P = _shift_matrix(n)
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


def laplacian_symbol(metric: ComplexMetric) -> np.ndarray:
    """Fourier symbol of laplacian_matrix(metric) at mean coefficients.

    Each coefficient of Delta_h (the prefactor 2 e^{-2 psi} / dzbwb,
    conj(mu) and logB / dwz) is replaced by its grid mean, so the
    result is an (n, n) array over the fft2 layout; it equals the
    symbol of laplacian_matrix exactly when those fields are constant.
    """
    g = metric.grid
    c = metric.chart
    sx, sy = stencil_symbols(g.n, g.spacing)
    sz = 0.5 * (sx - 1j * sy)
    szb = 0.5 * (sx + 1j * sy)
    pref = np.mean(2.0 * np.exp(-2.0 * metric.psi) / c.dzbwb)
    mub = np.mean(np.conj(c.mu))
    first = np.mean(c.logB / c.dwz)
    return pref * (sz * szb + mub * szb * szb - first * szb)


def _solve_krylov(J: sp.csr_matrix, b: np.ndarray,
                  symbol: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve J x = b by complex GMRES preconditioned with 1/symbol.

    The preconditioner applies ifft2(fft2(r) / symbol).  Returns x and
    the number of GMRES iterations; raises LinearSolveFailure when the
    true residual is not below 1e-12 |b| after 20 cycles of restart 50.
    """
    shape = symbol.shape

    def precondition(r):
        return np.fft.ifft2(np.fft.fft2(r.reshape(shape)) / symbol).ravel()

    M = LinearOperator(J.shape, matvec=precondition, dtype=complex)
    count = 0

    def tick(_):
        nonlocal count
        count += 1

    x, info = gmres(J, b, rtol=1e-12, atol=0.0, restart=50, maxiter=20,
                    M=M, callback=tick, callback_type="pr_norm")
    if info != 0:
        raise LinearSolveFailure(
            f"GMRES returned info={info} after {count} iterations")
    return x, count


def solve_newton(problem: GaussProblem, tol: float = 1e-10,
                 max_iter: int = 50, max_halvings: int = 10) -> SolveReport:
    """Damped Newton on residual_background down to max-abs tol."""
    grid = problem.grid
    n = grid.n
    L = None                      # built on the first Newton step
    psi = problem.initial_guess()
    F = residual_background(psi, problem)
    res = float(np.abs(F).max())
    history = [res]
    krylov, halvings = [], []
    for it in range(max_iter):
        if res <= tol:
            return SolveReport(psi, it, history, True, krylov, halvings)
        if L is None:
            L = laplacian_matrix(problem.background)
            L_symbol = laplacian_symbol(problem.background)
        weight = (2.0 * np.exp(2 * psi)
                  + 32.0 * np.exp(-4 * psi) * problem.cnorm_g)
        J = L - sp.diags(weight.ravel())
        x, count = _solve_krylov(J, -F.ravel(), L_symbol - weight.mean())
        delta = x.reshape(n, n)
        krylov.append(count)
        t = 1.0
        for k in range(max_halvings + 1):
            trial = psi + t * delta
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
    if res <= tol:
        return SolveReport(psi, max_iter, history, True, krylov, halvings)
    raise DidNotConverge(max_iter, res)


def wang_specialize(q, grid: TorusGrid | None = None,
                    Kg=0.0) -> GaussProblem:
    """Hitchin-locus (affine sphere) problem for a cubic differential q.

    Wang's normalization q relates to the pair by alpha = beta = q/2, so
    that 2|q|^2_{g_B} of the solved Blaschke metric equals 8|C|^2_h
    exactly, and the solved metric satisfies K - 2|q|^2 = -1.
    """
    if grid is None:
        qa = np.asarray(q)
        if qa.ndim != 2:
            raise ValueError("pass a grid for scalar q")
        grid = TorusGrid(qa.shape[0])
    qf = grid.field(q)
    bg = ComplexMetric(BeltramiChart.identity(grid), 0.0)
    C = CubicPair(grid, qf / 2.0, qf / 2.0, holomorphic=True)
    return GaussProblem(bg, C, Kg=Kg)
