"""Independent numerical oracles for cross-checking grid operators.

Everything here deliberately avoids the package's primitive stencils:
first derivatives use 5-point 4th-order differences, the flat Laplacian
uses the classic 5-point formula, and the Stokes check integrates edge
circulations around plaquettes.  Oracle truncation errors are O(h^4)
(or independent O(h^2) formulas), so comparisons isolate the package's
own O(h^2) behaviour.  Matrix exponentials come from scipy.linalg.expm
(Pade with scaling and squaring), one matrix at a time, never from the
package's batched Taylor kernel; the holonomy oracle walks the loop in
a plain Python loop.  The line-plane determinant stacks the line with
an SVD basis of the plane (scipy.linalg.null_space), not the package's
closed form.

Two references restate the package's own second-order stencils in a
plainer form that copies, to pin the package's form bit for bit: the
centered differences as the difference of two np.roll copies, and d_w
as dwz (d_z + conj(mu) d_zbar) with d_z and d_zbar each taking their
own x and y differences.
"""

import numpy as np
from scipy.linalg import expm, null_space


def lap5(f: np.ndarray, h: float) -> np.ndarray:
    """5-point periodic Laplacian d_xx + d_yy."""
    return (np.roll(f, 1, axis=0) + np.roll(f, -1, axis=0)
            + np.roll(f, 1, axis=1) + np.roll(f, -1, axis=1)
            - 4.0 * f) / h ** 2


def dx4(f: np.ndarray, h: float) -> np.ndarray:
    """4th-order centered d/dx (x along axis 1)."""
    return (-np.roll(f, -2, axis=1) + 8 * np.roll(f, -1, axis=1)
            - 8 * np.roll(f, 1, axis=1) + np.roll(f, 2, axis=1)) / (12 * h)


def dy4(f: np.ndarray, h: float) -> np.ndarray:
    return (-np.roll(f, -2, axis=0) + 8 * np.roll(f, -1, axis=0)
            - 8 * np.roll(f, 1, axis=0) + np.roll(f, 2, axis=0)) / (12 * h)


def dz4(f: np.ndarray, h: float) -> np.ndarray:
    return 0.5 * (dx4(f, h) - 1j * dy4(f, h))


def dzb4(f: np.ndarray, h: float) -> np.ndarray:
    return 0.5 * (dx4(f, h) + 1j * dy4(f, h))


def dx_roll(f: np.ndarray, h: float) -> np.ndarray:
    """2nd-order centered d/dx as two shifted copies (x along axis 1)."""
    return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2 * h)


def dy_roll(f: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * h)


def dz_roll(f: np.ndarray, h: float) -> np.ndarray:
    return 0.5 * (dx_roll(f, h) - 1j * dy_roll(f, h))


def dzb_roll(f: np.ndarray, h: float) -> np.ndarray:
    return 0.5 * (dx_roll(f, h) + 1j * dy_roll(f, h))


def d_w_two_pass(chart, f: np.ndarray) -> np.ndarray:
    """dwz (d_z f + conj(mu) d_zbar f), d_z and d_zbar each differencing
    f along x and y again (4 stencil passes, trailing axes ride along).

    The operands keep the package's order and temporaries: NumPy's
    vectorized complex product is not bitwise commutative, and it may
    evaluate a product with a temporary operand in that operand's
    place, swapping the factors.
    """
    h = chart.grid.spacing
    tail = (...,) + (None,) * (np.ndim(f) - 2)
    return chart.dwz[tail] * (dz_roll(f, h)
                              + np.conj(chart.mu)[tail] * dzb_roll(f, h))


def laplacian_oracle(metric, phi: np.ndarray) -> np.ndarray:
    """Delta_h phi rebuilt from 4th-order stencils (no shared primitives)."""
    h = metric.grid.spacing
    c = metric.chart
    phi_zb = dzb4(phi, h)
    bracket = (dz4(phi_zb, h) + np.conj(c.mu) * dzb4(phi_zb, h)
               - (c.logB / c.dwz) * phi_zb)
    return 2.0 * np.exp(-2.0 * metric.psi) / c.dzbwb * bracket


def flat_laplacian_oracle(metric, phi: np.ndarray) -> np.ndarray:
    """mu = 0 only: Delta_h = 2 e^{-2 psi} * (1/4) * (d_xx + d_yy)."""
    assert np.abs(metric.chart.mu).max() == 0.0
    return (2.0 * np.exp(-2.0 * metric.psi) / metric.chart.dzbwb
            * 0.25 * lap5(phi, metric.grid.spacing))


def theta_one_form(metric, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Components (theta_x, theta_y) of d(phi) o J on the grid axes.

    In the (dz, dwbar) coframe d phi = A dz + B dwbar with
    A = phi_z + conj(mu) phi_zb and B = phi_zb / dzbwb, and J acts by
    dz -> -i dz, dwbar -> +i dwbar.  Evaluating on d_x, d_y uses
    wbar_x = (1 - conj(mu)) dzbwb and wbar_y = -i (1 + conj(mu)) dzbwb.
    """
    h = metric.grid.spacing
    c = metric.chart
    mub = np.conj(c.mu)
    phi_z, phi_zb = dz4(phi, h), dzb4(phi, h)
    A = -1j * (phi_z + mub * phi_zb)
    B = 1j * phi_zb / c.dzbwb
    wb_x = (1.0 - mub) * c.dzbwb
    wb_y = -1j * (1.0 + mub) * c.dzbwb
    return A + B * wb_x, 1j * A + B * wb_y


def plaquette_circulation(tx: np.ndarray, ty: np.ndarray,
                          h: float) -> np.ndarray:
    """Counterclockwise trapezoid circulation around each grid plaquette.

    Plaquette [iy, ix] has corners (ix, iy), (ix+1, iy), (ix+1, iy+1),
    (ix, iy+1); x runs along axis 1.
    """
    ex = 0.5 * (tx + np.roll(tx, -1, axis=1))        # horizontal edges
    ey = 0.5 * (ty + np.roll(ty, -1, axis=0))        # vertical edges
    return h * (ex - np.roll(ex, -1, axis=0)
                + np.roll(ey, -1, axis=1) - ey)


def plaquette_average(f: np.ndarray, h: float) -> np.ndarray:
    """Four-corner average of f times the plaquette area."""
    corners = (f + np.roll(f, -1, axis=0) + np.roll(f, -1, axis=1)
               + np.roll(np.roll(f, -1, axis=0), -1, axis=1))
    return 0.25 * corners * h ** 2


def quad(f: np.ndarray, h: float) -> complex:
    """Trapezoid quadrature on the periodic grid (plain scaled sum)."""
    return complex(np.sum(f) * h ** 2)


def expm_oracle(S: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm of each matrix of a (..., 3, 3) stack."""
    flat = np.asarray(S).reshape(-1, 3, 3)
    return np.array([expm(a) for a in flat]).reshape(np.shape(S))


def holonomy_oracle(conn, loop, F0=None):
    """Holonomy as the left-ordered product of per-step expm.

    Each step (dix, diy) from node (ix, iy) exponentiates the midpoint
    rule h/2 [(Ox(start) + Ox(end)) dix + (Oy(start) + Oy(end)) diy] of
    each idempotent part.  With F0 given, the result is conjugated to
    F0 H F0^-1 (the ambient gauge).  Returns (plus, minus).
    """
    Ox, Oy = conn.omega_xy()
    n, h = conn.grid.n, conn.grid.spacing
    out = []
    for ox, oy in ((Ox.plus, Oy.plus), (Ox.minus, Oy.minus)):
        H = np.eye(3, dtype=complex)
        ix = iy = 0
        for dix, diy in loop.steps:
            jx, jy = (ix + dix) % n, (iy + diy) % n
            S = 0.5 * h * ((ox[iy, ix] + ox[jy, jx]) * dix
                           + (oy[iy, ix] + oy[jy, jx]) * diy)
            H = expm(S) @ H
            ix, iy = jx, jy
        if F0 is not None:
            H = F0 @ H @ np.linalg.inv(F0)
        out.append(H)
    return tuple(out)


def ellipticity_floor_oracle(mu: complex, samples: int = 100_000) -> float:
    """min over theta of |1 + conj(mu) e^{2 i theta}| by dense sampling.

    With t = 2 theta, a uniform pass of `samples` angles t over
    [0, 2 pi) brackets the minimum; a second
    pass of as many angles over the two neighbouring cells refines it,
    so the sampling error stays far below 1e-9 even for |mu| near 1.
    """
    step = 2.0 * np.pi / samples
    t = step * np.arange(samples)
    k = int(np.argmin(np.abs(1.0 + np.conj(mu) * np.exp(1j * t))))
    fine = t[k] + step * np.linspace(-1.0, 1.0, samples)
    return float(np.abs(1.0 + np.conj(mu) * np.exp(1j * fine)).min())


def line_plane_det_oracle(line, plane_covector) -> float:
    """|det| of the unit line stacked with an orthonormal basis of the
    plane ker(plane_covector), the basis from scipy.linalg.null_space."""
    line = np.asarray(line, dtype=complex).reshape(3)
    basis = null_space(np.asarray(plane_covector, dtype=complex)
                       .reshape(1, 3))
    return float(abs(np.linalg.det(
        np.vstack([line / np.linalg.norm(line), basis.T]))))
