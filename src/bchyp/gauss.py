"""Newton solver for the Gauss equation of the conformal factor.

The unknown is a complex field psi with h = e^{2 psi} g over the bare
chart metric g of the flat torus.  The solved equation, in background
form, is

    F(psi) = Delta_g psi - e^{2 psi} + 8 e^{-4 psi} |C|^2_g = 0,

whose zero set realizes K_h = -1 + 8 |C|^2_h.  The background is flat,
K_g = 0: on the torus Gauss-Bonnet gives int K_g dA = 2 pi chi(T^2) = 0,
so 0 is the only constant curvature a background can have.  The cubic
pair enters as given: the solver neither projects nor checks its
holomorphy.

An intrinsic formulation Delta_h psi + alpha conj(beta) e^{-6 psi} - 1
(the tests' oracles.residual_intrinsic) provides an independent
residual; with shared stencils the two are related by the exact
discrete identity F = e^{2 psi} * F_intrinsic.

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
10, 1973).  On the identity chart it differs from J only by the
weight's variation about its mean, so the Krylov count per step
depends on the data, not on the grid size.
Steps are damped by halving on the residual max-norm, from the constant
root of the averaged data, complex where the mean of |C|^2_g is.

The GMRES is the package's own (_gmres, a NumPy port of SciPy's
loop), so no command imports scipy.sparse: importing
scipy.sparse.linalg costs a fresh process about 0.2 s and 31 MB.
laplacian_matrix, a reference route for checks that the solver never
builds, keeps its lazy import of scipy.sparse.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._frozen import Frozen
from .metric import (
    TorusGrid, BeltramiChart, ComplexMetric, CubicPair, LaplaceBeltrami,
    cubic_norm, ellipticity_floor, stencil_symbols, symbol_check,
)

__all__ = [
    "NoPositiveRoot", "DidNotConverge", "LinearSolveFailure",
    "GaussProblem", "SolveReport",
    "residual_background", "constant_root",
    "solve_newton",
    "laplacian_matrix", "laplacian_symbol",
]

MAX_HALVINGS = 10   # damping halvings per Newton step before it stalls
GMRES_RESTART = 50  # Krylov vectors per GMRES cycle
GMRES_CYCLES = 20   # GMRES cycles before LinearSolveFailure
GMRES_RTOL = 1e-12  # GMRES stops at |b - A x| <= GMRES_RTOL |b|


class NoPositiveRoot(ArithmeticError):
    """u^3 = 8c has no root with Re u > 0 that floats hold: c is 0, or
    |c| is not finite."""


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


class GaussProblem(Frozen):
    """The Gauss equation of a cubic pair over a chart's flat metric.

    background is ComplexMetric(chart, 0), the bare chart metric, and
    laplacian is Delta_g, its LaplaceBeltrami operator, built once here;
    every residual and Newton matvec of a solve applies it.
    """

    __slots__ = ("background", "C", "cnorm_g", "laplacian")

    def __init__(self, chart: BeltramiChart, C: CubicPair):
        if C.grid != chart.grid:
            raise ValueError("cubic pair and chart live on different grids")
        if not symbol_check(chart.mu):
            raise ValueError(f"chart fails the symbol check: floor "
                             f"{ellipticity_floor(chart.mu):.2e}")
        background = ComplexMetric(chart, 0.0)
        self._set(background=background, C=C,
                  laplacian=LaplaceBeltrami(background))
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            self._set(cnorm_g=cubic_norm(background, C))
        if not np.all(np.isfinite(self.cnorm_g)):
            raise ValueError("|C|^2_g is not finite")

    @property
    def grid(self) -> TorusGrid:
        return self.background.grid

    def initial_guess(self) -> np.ndarray:
        """The constant root of the averaged data (zero if it has none)."""
        try:
            u = constant_root(np.mean(self.cnorm_g))
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
    """Delta_g psi - e^{2 psi} + 8 e^{-4 psi} |C|^2_g."""
    return _residual_and_weight(psi, problem)[0]


def _residual_and_weight(psi, problem: GaussProblem):
    """residual_background and the Newton weight, from one pair of exps."""
    psi = problem.grid.field(psi)
    e2, e4 = np.exp(2 * psi), np.exp(-4 * psi)
    return (problem.laplacian(psi) - e2 + 8 * e4 * problem.cnorm_g,
            2.0 * e2 + 32.0 * e4 * problem.cnorm_g)


def constant_root(c):
    """Root u = e^{2 psi} of -u + 8c/u^2 = 0, that is u^3 = 8c, with the
    largest real part: 2 |c|^{1/3} e^{i arg(c) / 3}, arg in (-pi, pi].

    For real c > 0 it is the float 2 cbrt(c).  Else it is complex: the
    root continued from the positive root at |c| along the arc to
    arg c.  On the branch cut c < 0 (also with imaginary part -0.0) two
    roots tie in real part, and arg c = pi takes the one with Im u > 0,
    the limit from arg c > 0: a convention, not a claim about
    quasi-Fuchsian pairs.  NoPositiveRoot when c = 0 or |c| is not
    finite.
    """
    c = complex(c)
    modulus = math.hypot(c.real, c.imag)
    if not 0 < modulus < math.inf:
        raise NoPositiveRoot(f"u^3 = 8c has no finite root with Re u > 0 "
                             f"for c = {c}")
    if c.imag == 0 and c.real > 0:
        return 2.0 * float(np.cbrt(c.real))
    arg = cmath.phase(c) if c.imag else math.pi
    return cmath.rect(2.0 * float(np.cbrt(modulus)), arg / 3)


def laplacian_matrix(metric: ComplexMetric) -> "scipy.sparse.csr_matrix":
    """Sparse matrix equal (to roundoff) to metric.laplacian on ravel
    order: a reference route for checks, which the solver never builds."""
    import scipy.sparse as sp

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
    and the number of GMRES iterations; _gmres raises
    LinearSolveFailure when the true residual is not below 1e-12 |F|
    after 20 cycles of restart 50.
    """
    shape = F.shape
    lap = problem.laplacian
    symbol = laplacian_symbol(lap) - weight.mean()

    def apply(d):
        d = d.reshape(shape)
        return (lap(d) - weight * d).ravel()

    def precondition(r):
        return np.fft.ifft2(np.fft.fft2(r.reshape(shape)) / symbol).ravel()

    # GMRES sees F scaled below 1 by a power of two, which is exact, so
    # the norms of a huge residual cannot overflow
    scale = 2.0 ** -max(math.frexp(float(np.abs(F).max()))[1], 0)
    x, count = _gmres(apply, precondition, -scale * F.ravel())
    return x.reshape(shape) / scale, count


def _gmres(apply, precondition, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(x, iterations) with |b - apply(x)| <= GMRES_RTOL |b| for b != 0,
    by restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
    1986) from x = 0.

    A port of the loop of scipy.sparse.linalg.gmres (SciPy 1.17) with
    restart GMRES_RESTART, maxiter GMRES_CYCLES and atol 0: left
    preconditioning, modified Gram-Schmidt, Givens rotations, and
    SciPy's control of the inner tolerance on the preconditioned
    residual (gh-8400), checked against the true residual after each
    cycle.  LinearSolveFailure, with the iteration count, when the
    cycles run out or the Krylov space breaks down above the tolerance.
    """
    eps = np.finfo(float).eps
    bnorm = np.linalg.norm(b)
    atol = GMRES_RTOL * bnorm
    x = np.zeros_like(b)
    v = np.empty((GMRES_RESTART + 1, b.size), dtype=complex)
    h = np.zeros((GMRES_RESTART, GMRES_RESTART + 1), dtype=complex)
    z = precondition(b)
    ptol = np.linalg.norm(z) * min(1.0, atol / bnorm)
    factor, count = 1.0, 0
    for _ in range(GMRES_CYCLES):
        beta = np.linalg.norm(z)
        np.multiply(z, 1 / beta, out=v[0])
        S = np.zeros(GMRES_RESTART + 1, dtype=complex)
        S[0] = beta
        givens, breakdown = [], False
        for col in range(GMRES_RESTART):
            w = precondition(apply(v[col]))
            h0 = np.linalg.norm(w)
            for k in range(col + 1):            # modified Gram-Schmidt
                t = np.vdot(v[k], w)
                h[col, k] = t
                w -= t * v[k]
            h1 = np.linalg.norm(w)
            if h1 <= eps * h0:                  # an exact solution
                h[col, col + 1] = 0
                breakdown = True
            else:
                h[col, col + 1] = h1
                np.multiply(w, 1 / h1, out=v[col + 1])
            for k, (c, s) in enumerate(givens):  # the past rotations
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k] = c * n0 + s * n1
                h[col, k + 1] = -s.conjugate() * n0 + c * n1
            c, s, h[col, col] = _rotation(h[col, col], h[col, col + 1])
            givens.append((c, s))
            h[col, col + 1] = 0
            S[col], S[col + 1] = c * S[col], -s.conjugate() * S[col]
            presid = abs(S[col + 1])
            count += 1
            if presid <= ptol or breakdown:
                break
        if h[col, col] == 0:
            S[col] = 0
        y = S[:col + 1].copy()                  # back substitution
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1]
        r = b - apply(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol:
            return x, count
        if breakdown:
            break
        factor = (max(eps, 0.25 * factor) if presid <= ptol
                  else min(1.0, 1.5 * factor))
        ptol = presid * min(factor, atol / rnorm)
        z = precondition(r)
    raise LinearSolveFailure(
        f"GMRES stopped after {count} iterations at relative residual "
        f"{rnorm / bnorm:.3e}, above {GMRES_RTOL:g}")


def _rotation(f, g):
    """(c, s, r), c real, with c f + s g = r and -conj(s) f + c g = 0:
    LAPACK's zlartg, written out because scipy.linalg.lapack would
    import scipy.linalg."""
    d = math.hypot(abs(f), abs(g))
    if d == 0:
        return 1.0, 0.0, 0.0
    u = f / abs(f) if f else 1.0
    return abs(f) / d, u * g.conjugate() / d, u * d


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
    F, weight = _residual_and_weight(psi, problem)
    res = float(np.abs(F).max())
    history = [res]
    krylov, halvings = [], []
    for it in range(max_iter + 1):
        if res <= tol:
            return SolveReport(psi, it, history, True, krylov, halvings)
        if it == max_iter:
            break
        delta, count = _solve_krylov(problem, weight, F)
        krylov.append(count)
        t = 1.0
        for k in range(MAX_HALVINGS + 1):
            trial = psi + t * delta
            # a trial that overflows has a non-finite rt and fails rt < res
            with np.errstate(over="ignore", invalid="ignore"):
                Ft, wt = _residual_and_weight(trial, problem)
            rt = float(np.abs(Ft).max())
            if rt < res:
                psi, F, res, weight = trial, Ft, rt, wt
                history.append(res)
                halvings.append(k)
                break
            t *= 0.5
        else:
            raise DidNotConverge(it, res)
    raise DidNotConverge(max_iter, res, stalled=False)
