"""Discrete calculus for positive complex metrics h = 2 e^{2 psi} dz dwbar.

The computational domain is the unit flat torus with chart z = x + iy;
a second coordinate w is described only through its first-order data

    mu    = -dw/dzbar / dw/dz          (Beltrami differential, |mu| < 1)
    dwz   = dz/dw                      (inverse-map derivative)
    dzbwb = dwbar/dzbar

plus the two commutator coefficients

    [d_zbar, d_w] = logA * d_w - logB * d_zbar,
    logA = d_zbar log(dz/dw),    logB = d_w log(dwbar/dzbar).

We never solve the Beltrami equation: charts are either exactly constant
in mu (closed form) or supplied as smooth fields by the caller.

All derivatives are centered second-order differences on the periodic
grid, and second derivatives are *compositions* of first differences.
Keeping one set of primitive stencils makes the algebraic identities
between modules (curvature vs. Gauss residual vs. connection flatness)
exact at machine precision instead of only O(spacing^2).

The operator identity d_w = dwz * (d_z + conj(mu) d_zbar) converts
z-chart stencils to w-derivatives throughout.
"""

from __future__ import annotations

import numpy as np

from ._frozen import Frozen

__all__ = [
    "TorusGrid", "BeltramiChart", "ComplexMetric", "CubicPair",
    "centered_dx", "centered_dy", "stencil_symbols",
    "laplacian", "curvature", "cubic_norm",
    "area_integrate", "ellipticity_floor", "symbol_check", "christoffels",
]

SYMBOL_FLOOR = 5e-3     # least ellipticity floor of an accepted chart


# centered first differences on a periodic grid; +x is axis 1, +y is
# axis 0, and trailing axes (vector-valued fields) ride along
def _centered(f, spacing: float, axis: int) -> np.ndarray:
    """(f[i+1] - f[i-1]) / (2 spacing) along axis, indices wrapping.

    The interior difference is written straight into the output and the
    two wrap rows are set apart, so no shifted copy of f is made.
    """
    f = np.asarray(f)
    out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
    fa, oa = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(fa[2:], fa[:-2], out=oa[1:-1])
    np.subtract(fa[1], fa[-1], out=oa[0])
    np.subtract(fa[0], fa[-2], out=oa[-1])
    out /= 2 * spacing
    return out


def centered_dx(f: np.ndarray, spacing: float) -> np.ndarray:
    return _centered(f, spacing, 1)


def centered_dy(f: np.ndarray, spacing: float) -> np.ndarray:
    return _centered(f, spacing, 0)


def stencil_symbols(n: int, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourier symbols (sigma_x, sigma_y) of centered_dx and centered_dy.

    On an n x n periodic field, fft2(centered_dx(f)) = sigma_x fft2(f)
    with sigma_x = i sin(2 pi m / n) / spacing at the x frequency index
    m, and likewise along y.  The symbols come shaped (1, n) and (n, 1)
    to broadcast against the fft2 layout [ky, kx].  They vanish exactly
    at m = 0 and m = n/2, so every polynomial in them without a constant
    term vanishes on the four parity modes (+-1)^ix (+-1)^iy.
    """
    freq = np.fft.fftfreq(n)
    s = np.sin(2.0 * np.pi * freq)
    s[freq == -0.5] = 0.0                 # sin(pi) rounds to 1.2e-16
    sigma = 1j * s / spacing
    return sigma[None, :], sigma[:, None]


class TorusGrid(Frozen):
    """Periodic n x n grid on [0,1)^2; fields are indexed [iy, ix]."""

    __slots__ = ("n", "spacing", "x", "y", "z")

    def __init__(self, n: int):
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {n}")
        ax = np.arange(n) / n
        x, y = np.meshgrid(ax, ax)          # x varies along axis 1
        self._set(n=int(n), spacing=1.0 / n, x=x, y=y, z=x + 1j * y)

    def field(self, values) -> np.ndarray:
        """Broadcast a scalar or array to a complex (n, n) field."""
        f = np.asarray(values, dtype=complex)
        if f.shape == ():
            f = np.full((self.n, self.n), complex(values))
        if f.shape != (self.n, self.n):
            raise ValueError(f"field shape {f.shape} != {(self.n, self.n)}")
        return f

    def dx(self, f: np.ndarray) -> np.ndarray:
        return centered_dx(f, self.spacing)

    def dy(self, f: np.ndarray) -> np.ndarray:
        return centered_dy(f, self.spacing)

    def dz(self, f: np.ndarray) -> np.ndarray:
        return 0.5 * (self.dx(f) - 1j * self.dy(f))

    def dzb(self, f: np.ndarray) -> np.ndarray:
        return 0.5 * (self.dx(f) + 1j * self.dy(f))

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and other.n == self.n

    def __repr__(self):
        return f"TorusGrid(n={self.n})"


class BeltramiChart(Frozen):
    """First-order data of a w-coordinate over the z-chart."""

    __slots__ = ("grid", "mu", "dwz", "dzbwb", "logA", "logB")

    def __init__(self, grid: TorusGrid, mu, dwz, dzbwb,
                 logA=None, logB=None):
        mu = grid.field(mu)
        sup = np.abs(mu).max()
        if sup >= 1.0:
            raise ValueError(f"sup|mu| = {sup} >= 1: metric not positive")
        dwz = grid.field(dwz)
        dzbwb = grid.field(dzbwb)
        if logA is None:
            logA = grid.dzb(dwz) / dwz
        else:
            logA = grid.field(logA)
        if logB is None:
            logB = dwz * (grid.dz(dzbwb) + np.conj(mu) * grid.dzb(dzbwb)) / dzbwb
        else:
            logB = grid.field(logB)
        self._set(grid=grid, mu=mu, dwz=dwz, dzbwb=dzbwb, logA=logA,
                  logB=logB)

    @classmethod
    def constant_mu(cls, grid: TorusGrid, m: complex) -> "BeltramiChart":
        """Chart of w = z - m zbar: dwz = 1/(1-|m|^2), dzbwb = 1, logs = 0."""
        m = complex(m)
        if abs(m) >= 1.0:
            raise ValueError(f"|mu| = {abs(m)} >= 1")
        return cls(grid, m, 1.0 / (1.0 - abs(m) ** 2), 1.0,
                   logA=0.0, logB=0.0)

    @classmethod
    def identity(cls, grid: TorusGrid) -> "BeltramiChart":
        return cls.constant_mu(grid, 0.0)

    @classmethod
    def sine_perturbed(cls, grid: TorusGrid, eps: float = 0.05
                       ) -> "BeltramiChart":
        """Chart of the real diffeomorphism w = z + eps sin(2pi x)cos(2pi y).

        All first-order fields and commutator coefficients are closed
        form (the Jacobian determinant collapses to 1 + eps s_x), so the
        chart carries no stencil error of its own.
        """
        a = 2.0 * np.pi
        X, Y = a * grid.x, a * grid.y
        s_x = a * np.cos(X) * np.cos(Y)
        s_z = 0.5 * a * (np.cos(X) * np.cos(Y) + 1j * np.sin(X) * np.sin(Y))
        s_zb = np.conj(s_z)
        s_zz = 0.5j * a * a * np.cos(X) * np.sin(Y)
        s_zzb = -0.5 * a * a * np.sin(X) * np.cos(Y)
        s_zbzb = np.conj(s_zz)

        det = 1.0 + eps * s_x
        dwz = (1.0 + eps * s_zb) / det
        dzbwb = 1.0 + eps * s_zb
        mu = -eps * s_zb / (1.0 + eps * s_z)
        mub = np.conj(mu)
        logA = (eps * s_zbzb / (1.0 + eps * s_zb)
                - eps * (s_zzb + s_zbzb) / det)
        dlog_z = eps * s_zzb / (1.0 + eps * s_zb)
        dlog_zb = eps * s_zbzb / (1.0 + eps * s_zb)
        logB = dwz * (dlog_z + mub * dlog_zb)
        return cls(grid, mu, dwz, dzbwb, logA=logA, logB=logB)

    def d_w(self, f: np.ndarray) -> np.ndarray:
        """d_w = dwz (d_z + conj(mu) d_zbar) applied with grid stencils.

        Trailing axes of f (vector or matrix fields) ride along: the
        chart coefficients broadcast over them.
        """
        tail = (...,) + (None,) * (np.ndim(f) - 2)
        fx, fy = self.grid.dx(f), self.grid.dy(f)   # shared by d_z, d_zbar
        return self.dwz[tail] * (0.5 * (fx - 1j * fy)
                                 + np.conj(self.mu)[tail]
                                 * (0.5 * (fx + 1j * fy)))

    def consistency_residual(self) -> float:
        """Max-abs gap between supplied and stencil-computed commutator
        coefficients; O(spacing^2) for genuinely smooth chart data."""
        g = self.grid
        la = g.dzb(self.dwz) / self.dwz
        lb = self.dwz * (g.dz(self.dzbwb)
                         + np.conj(self.mu) * g.dzb(self.dzbwb)) / self.dzbwb
        return float(max(np.abs(self.logA - la).max(),
                         np.abs(self.logB - lb).max()))

    def __repr__(self):
        return (f"BeltramiChart(n={self.grid.n}, "
                f"sup|mu|={np.abs(self.mu).max():.3g})")


class ComplexMetric(Frozen):
    """h = 2 e^{2 psi} dz dwbar over a Beltrami chart."""

    __slots__ = ("chart", "psi")

    def __init__(self, chart: BeltramiChart, psi):
        self._set(chart=chart, psi=chart.grid.field(psi))

    @property
    def grid(self) -> TorusGrid:
        return self.chart.grid

    @property
    def s2(self) -> np.ndarray:
        """s^2 = e^{2 psi} (dz/dw)(dwbar/dzbar) = h(d_w, d_zbar)."""
        return np.exp(2 * self.psi) * self.chart.dwz * self.chart.dzbwb

    @property
    def area_density(self) -> np.ndarray:
        """dA_h(d_x, d_y) = 2 e^{2 psi} dzbwb (positive for mu=0, real psi)."""
        return 2.0 * np.exp(2 * self.psi) * self.chart.dzbwb

    def conformal(self, phi) -> "ComplexMetric":
        """e^{2 phi} h, same chart."""
        return ComplexMetric(self.chart, self.psi + self.grid.field(phi))

    def __repr__(self):
        return f"ComplexMetric(n={self.grid.n})"


class CubicPair(Frozen):
    """Cubic differential data C = alpha dz^3 + conj(beta dw^3)."""

    __slots__ = ("grid", "alpha", "beta", "holomorphic")

    def __init__(self, grid: TorusGrid, alpha, beta, holomorphic: bool = False):
        self._set(grid=grid, alpha=grid.field(alpha),
                  beta=grid.field(beta), holomorphic=bool(holomorphic))

    def holomorphy_residual(self, chart: BeltramiChart) -> tuple[float, float]:
        """(max|d_zbar alpha|, max|d_w beta|); small iff the pair is
        holomorphic in its respective coordinate."""
        ra = np.abs(self.grid.dzb(self.alpha)).max()
        rb = np.abs(chart.d_w(self.beta)).max()
        return float(ra), float(rb)

    def __repr__(self):
        return f"CubicPair(n={self.grid.n}, holomorphic={self.holomorphic})"


def laplacian(h: ComplexMetric, phi) -> np.ndarray:
    """Laplace-Beltrami of h applied to a periodic scalar field.

    Delta_h phi = (2 e^{-2 psi} / dzbwb) [ phi_zzb + conj(mu) phi_zbzb
                                           - (logB / dwz) phi_zb ]

    with the first-order coefficient -logB/dwz equal to the zbar
    derivative of conj(mu).  Second derivatives are compositions of the
    primitive centered differences.
    """
    g = h.grid
    c = h.chart
    phi = g.field(phi)
    phi_zb = g.dzb(phi)
    fx, fy = g.dx(phi_zb), g.dy(phi_zb)     # shared by d_z and d_zbar
    bracket = (0.5 * (fx - 1j * fy)
               + np.conj(c.mu) * (0.5 * (fx + 1j * fy))
               - (c.logB / c.dwz) * phi_zb)
    return 2.0 * np.exp(-2.0 * h.psi) / c.dzbwb * bracket


def curvature(h: ComplexMetric) -> np.ndarray:
    """Complex Gaussian curvature K_h = -Delta_h psi."""
    return -laplacian(h, h.psi)


def cubic_norm(h: ComplexMetric, C: CubicPair) -> np.ndarray:
    """|C|^2_h = alpha conj(beta) (dz/dw)^3 (dwbar/dzbar)^3 / (8 s^6)."""
    c = h.chart
    s2 = h.s2
    return (C.alpha * np.conj(C.beta) * c.dwz ** 3 * c.dzbwb ** 3
            / (8.0 * s2 ** 3))


def area_integrate(h: ComplexMetric, f) -> complex:
    """Integral of f against dA_h = (i/2) rho dz ^ dwbar, rho = 2 e^{2 psi}.

    On the periodic grid the trapezoid rule is the plain scaled sum.  The
    sign convention makes the mu = 0, real-psi area positive.
    """
    f = h.grid.field(f)
    val = np.sum(f * h.area_density, dtype=complex) * h.grid.spacing ** 2
    return complex(val)


def ellipticity_floor(mu) -> float:
    """min over nodes and directions theta of |1 + conj(mu) e^{2 i theta}|.

    As theta turns, conj(mu) e^{2 i theta} runs over the circle of radius
    |mu|, whose nearest point to -1 is -|mu|; so the minimum over theta
    is |1 - |mu||, which this returns, minimized over the entries of mu
    (a scalar or a field).  It vanishes exactly on |mu| = 1.
    """
    return float(np.min(np.abs(1.0 - np.abs(mu))))


def symbol_check(mu) -> bool:
    """True iff the principal symbol of Delta_h has no nonzero real root.

    With xi = r e^{i theta} the symbol factors through
    (xi_1^2 + xi_2^2)(1 + conj(mu) e^{2 i theta}); we require the
    ellipticity floor min_theta |1 + conj(mu) e^{2 i theta}| above
    SYMBOL_FLOOR, which separates |mu| = 1 (an exact zero) from elliptic
    charts.
    """
    return ellipticity_floor(mu) > SYMBOL_FLOOR


def christoffels(h: ComplexMetric) -> dict:
    """Levi-Civita coefficients on the null frame (d_w, d_zbar).

    Built from metric compatibility (Koszul) using only s^2 and the
    commutator coefficients:

        G^w_ww     = d_w log s^2 - logB
        G^w_zbw    = logA
        G^zb_zbzb  = d_zbar log s^2 - logA
        G^zb_wzb   = logB

    which reduce to 2 psi_w + d_w log(dz/dw) and
    2 psi_zb + d_zbar log(dwbar/dzbar) respectively.
    """
    c = h.chart
    s2 = h.s2
    dlog_w = c.d_w(s2) / s2
    dlog_zb = h.grid.dzb(s2) / s2
    return {
        "w_ww": dlog_w - c.logB,
        "w_zbw": c.logA,
        "zb_zbzb": dlog_zb - c.logA,
        "zb_wzb": c.logB,
    }
