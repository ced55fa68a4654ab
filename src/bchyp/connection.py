"""Flat sl(3,C_tau) connection of a minimal-surface datum, with holonomy.

A datum (psi, C, chart) determines connection coefficient matrices Ahat,
Bhat in the moving frame (e1, e2, sigma) = (sigma_zbar/s, sigma_w/s, sigma),
whose Gram matrix under the ambient pairing is the constant

    QTILDE = [[0,1,0],[1,0,0],[0,0,-1]].

The connection one-form is Omega = (Ahat/dwz) dz + (Bhat/dzbwb) dwbar.
Flatness of Omega is equivalent to three scalar equations: the Gauss
equation s^2 (Delta_h psi + 8|C|^2_h - 1) = 0 on the diagonal, and the two
tau-weighted holomorphy conditions for the cubic pair on the off-diagonal
corners.  All derivatives reuse the metric module's centered stencils so
the correspondence with the Gauss-solver residuals is exact in floating
point whenever the discrete product rule does not intervene (constant
chart factors, or constant psi).

The grid-sized 3x3 algebra of transport and flatness (the step
exponentials and the commutator of the flatness residual) runs on one
batched kernel, mat3, which works on (3, 3, ...) entry planes.  The
fields keep their (n, n, 3, 3) storage, on which the derivative stencils
act; the kernel converts at its boundary.

Transport along the connection, shared by holonomy and by
affine.integrate_frame: midpoint-sampled step generators
(step_generators, which gathers Omega only at the nodes the steps
touch, for a loop; grid_step_generators, the same rule for every step
of the grid from one evaluation of Omega and a shift), one batched
exponential per idempotent component (expm_steps; the algebra splits,
so ordinary 3x3 exponentials suffice), then the ordered product.  The
exponential keeps the Taylor degree table and backward-error reasoning
of Al-Mohy & Higham; mat3.expm only evaluates the chosen polynomial
more cheaply, as a Horner recurrence that Cayley-Hamilton reduces to
one plane product.  It adds the identity last, so each step keeps the
minus-part structure E_minus = QTILDE E_plus^-T QTILDE to round-off far
below ulp(1).  Holonomy is that product along a loop.  In the
"ambient" gauge the result is conjugated by a constant model frame F0
with F0^T Q F0 = QTILDE, after which group elements satisfy the
compatibility X_minus = Q (X_plus^-1)^T Q and the plus part lands in
SL(3,C).
"""

from __future__ import annotations

import warnings

import numpy as np

from . import mat3
from .bicomplex import BcMat3, NotInImage, compatibility_residual
from .metric import BeltramiChart, ComplexMetric, CubicPair, TorusGrid, laplacian

__all__ = [
    "QTILDE", "F0", "HTILDE",
    "BcMat3Field", "FlatConnectionField", "Loop", "HiggsData",
    "assemble", "maurer_cartan_residual", "reduced_system_residual",
    "step_generators", "grid_step_generators", "expm_steps", "holonomy",
    "to_sl3", "higgs_split", "hitchin_residuals", "conjugate_frame",
]

# Gram matrix of the moving frame: q(e1,e2) = 1, q(sigma,sigma) = -1
QTILDE = np.array([[0.0, 1.0, 0.0],
                   [1.0, 0.0, 0.0],
                   [0.0, 0.0, -1.0]])

# constant model frame over the ambient form diag(1,1,-1); its columns have
# Gram QTILDE, and F0 F0^T diag(1,1,-1) F0 F0^T = diag(1,1,-1)
_RT2 = np.sqrt(2.0)
F0 = np.array([[1.0 / _RT2, 1.0 / _RT2, 0.0],
               [1j / _RT2, -1j / _RT2, 0.0],
               [0.0, 0.0, 1.0]], dtype=complex)
F0_INV = np.linalg.inv(F0)

# bilinear pairing defining the metric/Higgs split of the connection
HTILDE = np.array([[0.0, 1.0, 0.0],
                   [1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0]])

FLATNESS_WARN = 1e-4

#: theta_m for the degree-m truncated Taylor series of exp: for
#: ||S||_1 <= theta_m the series is exact up to a backward error of unit
#: roundoff in double precision (the backward-error analysis of Al-Mohy
#: & Higham, SIAM J. Matrix Anal. Appl. 31 (2009), applied to Taylor
#: approximants in Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011)).
#: Entry m - 1 holds theta_m.
TAYLOR_THETA = (2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3,
                2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1,
                4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09)


class BcMat3Field:
    """(n, n) grid of 3x3 C_tau matrices; idempotent storage (n, n, 3, 3)."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus, minus):
        p = np.asarray(plus, dtype=complex)
        m = np.asarray(minus, dtype=complex)
        if p.shape != m.shape:
            raise ValueError("idempotent parts have different shapes")
        if p.ndim != 4 or p.shape[-2:] != (3, 3) or p.shape[0] != p.shape[1]:
            raise ValueError(f"expected (n, n, 3, 3) storage, got {p.shape}")
        object.__setattr__(self, "plus", p)
        object.__setattr__(self, "minus", m)

    def __setattr__(self, name, value):
        raise AttributeError("BcMat3Field is immutable")

    @classmethod
    def zeros(cls, n: int) -> "BcMat3Field":
        return cls(np.zeros((n, n, 3, 3), dtype=complex),
                   np.zeros((n, n, 3, 3), dtype=complex))

    @property
    def n(self) -> int:
        return self.plus.shape[0]

    def at(self, iy: int, ix: int) -> BcMat3:
        return BcMat3(self.plus[iy, ix], self.minus[iy, ix])

    def __add__(self, other):
        return BcMat3Field(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other):
        return BcMat3Field(self.plus - other.plus, self.minus - other.minus)

    def __neg__(self):
        return BcMat3Field(-self.plus, -self.minus)

    def __matmul__(self, other):
        if not isinstance(other, BcMat3Field):
            return NotImplemented
        return BcMat3Field(self.plus @ other.plus, self.minus @ other.minus)

    def scale(self, f) -> "BcMat3Field":
        """Multiply by a complex scalar or (n, n) scalar field."""
        f = np.asarray(f, dtype=complex)
        if f.ndim == 2:
            f = f[:, :, None, None]
        return BcMat3Field(f * self.plus, f * self.minus)

    def transpose(self) -> "BcMat3Field":
        return BcMat3Field(np.swapaxes(self.plus, -1, -2),
                           np.swapaxes(self.minus, -1, -2))

    def trace(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.einsum("...ii->...", self.plus),
                np.einsum("...ii->...", self.minus))

    def max_abs(self) -> float:
        return float(max(np.abs(self.plus).max(), np.abs(self.minus).max()))

    def __repr__(self):
        return f"BcMat3Field(n={self.n})"


class FlatConnectionField:
    """Frame connection matrices Ahat, Bhat over a Beltrami chart.

    Omega = (Ahat/dwz) dz + (Bhat/dzbwb) dwbar.  Both matrices are
    traceless by construction (enforced here, as are finite Ahat, Bhat
    and s2), and the idempotent parts of well-formed data satisfy
    M_minus = -QTILDE M_plus^T QTILDE, the infinitesimal form of
    preservation of the frame Gram matrix.
    """

    __slots__ = ("Ahat", "Bhat", "chart", "s2", "_flatness")

    def __init__(self, Ahat: BcMat3Field, Bhat: BcMat3Field,
                 chart: BeltramiChart, s2):
        n = chart.grid.n
        if Ahat.n != n or Bhat.n != n:
            raise ValueError("connection fields do not match the chart grid")
        s2 = chart.grid.field(s2)
        if not np.isfinite(s2).all():
            raise ValueError("s2 has non-finite entries")
        for name, field in (("Ahat", Ahat), ("Bhat", Bhat)):
            if not (np.isfinite(field.plus).all()
                    and np.isfinite(field.minus).all()):
                raise ValueError(f"{name} has non-finite entries")
            tp, tm = field.trace()
            worst = max(np.abs(tp).max(), np.abs(tm).max())
            if worst > 1e-12 * max(1.0, field.max_abs()):
                raise ValueError(f"{name} has nonzero trace ({worst:.2e})")
        object.__setattr__(self, "Ahat", Ahat)
        object.__setattr__(self, "Bhat", Bhat)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "s2", s2)
        object.__setattr__(self, "_flatness", None)

    def __setattr__(self, name, value):
        raise AttributeError("FlatConnectionField is immutable")

    @property
    def grid(self) -> TorusGrid:
        return self.chart.grid

    def flatness_residual(self) -> float:
        """Max-abs of the Maurer-Cartan residual, computed once.

        The field is immutable, so the value is kept on the instance and
        every later reader (holonomy's advisory, the CLI checks) shares
        the one evaluation.
        """
        if self._flatness is None:
            object.__setattr__(self, "_flatness",
                               maurer_cartan_residual(self).max_abs())
        return self._flatness

    def pairing_residual(self) -> float:
        """Max-abs of M_minus + QTILDE M_plus^T QTILDE over both matrices.

        Zero exactly when the connection takes values in the stabilizer
        algebra of the frame Gram matrix.
        """
        worst = 0.0
        for field in (self.Ahat, self.Bhat):
            tp = np.swapaxes(field.plus, -1, -2)
            tm = np.swapaxes(field.minus, -1, -2)
            worst = max(worst,
                        np.abs(field.minus + QTILDE @ tp @ QTILDE).max(),
                        np.abs(field.plus + QTILDE @ tm @ QTILDE).max())
        return float(worst)

    def omega_xy(self) -> tuple[BcMat3Field, BcMat3Field]:
        """Omega contracted with d_x and d_y over the whole grid."""
        every = (slice(None), slice(None))
        return tuple(BcMat3Field(_omega_at(self, "plus", leg, *every),
                                 _omega_at(self, "minus", leg, *every))
                     for leg in (0, 1))

    def __repr__(self):
        return f"FlatConnectionField(n={self.grid.n})"


def _omega_at(conn: FlatConnectionField, part: str, leg: int, iy, ix
              ) -> np.ndarray:
    """One idempotent part of Omega(d_x) (leg 0) or Omega(d_y) (leg 1)
    at the nodes [iy, ix], as a (..., 3, 3) stack.

    dz(d_x) = 1, dz(d_y) = i, and the wbar leg uses
    wbar_x = (1 - conj(mu)) dzbwb, wbar_y = -i (1 + conj(mu)) dzbwb,
    so the dzbwb factors cancel against the Bhat normalization.
    """
    c = conn.chart
    mub = np.conj(c.mu[iy, ix])
    if leg == 0:
        fa, fb = 1.0 / c.dwz[iy, ix], 1.0 - mub
    else:
        fa, fb = 1j / c.dwz[iy, ix], -1j * (1.0 + mub)
    return (fa[..., None, None] * getattr(conn.Ahat, part)[iy, ix]
            + fb[..., None, None] * getattr(conn.Bhat, part)[iy, ix])


class Loop:
    """Closed grid-aligned path on the torus.

    Steps are (dix, diy) cell displacements; closure means the total
    displacement is a lattice vector, i.e. a multiple of n cells in each
    direction.
    """

    __slots__ = ("n", "steps")

    def __init__(self, n: int, steps):
        n = int(n)
        steps = tuple((int(a), int(b)) for a, b in steps)
        if not steps:
            raise ValueError("empty loop")
        if any(s == (0, 0) for s in steps):
            raise ValueError("zero step in loop")
        sx = sum(s[0] for s in steps)
        sy = sum(s[1] for s in steps)
        if sx % n != 0 or sy % n != 0:
            raise ValueError(f"loop is not closed: total displacement "
                             f"({sx}, {sy}) cells on an n={n} grid")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "steps", steps)

    def __setattr__(self, name, value):
        raise AttributeError("Loop is immutable")

    @classmethod
    def x_period(cls, n: int) -> "Loop":
        return cls(n, ((1, 0),) * n)

    @classmethod
    def y_period(cls, n: int) -> "Loop":
        return cls(n, ((0, 1),) * n)

    def to_json(self) -> dict:
        return {"n": self.n, "steps": [list(s) for s in self.steps]}

    @classmethod
    def from_json(cls, obj) -> "Loop":
        return cls(obj["n"], obj["steps"])

    def __repr__(self):
        return f"Loop(n={self.n}, {len(self.steps)} steps)"


class HiggsData:
    """Metric/Higgs decomposition of the connection against HTILDE.

    dH10 + phi10 = Ahat and dH01 + phi01 = Bhat exactly: the split is the
    linear projection onto the HTILDE-skew (metric connection) and
    HTILDE-symmetric (Higgs field) parts, per dz / dwbar leg.
    """

    __slots__ = ("metricH", "dH10", "dH01", "phi10", "phi01")

    def __init__(self, metricH, dH10, dH01, phi10, phi01):
        object.__setattr__(self, "metricH", np.asarray(metricH, dtype=float))
        object.__setattr__(self, "dH10", dH10)
        object.__setattr__(self, "dH01", dH01)
        object.__setattr__(self, "phi10", phi10)
        object.__setattr__(self, "phi01", phi01)

    def __setattr__(self, name, value):
        raise AttributeError("HiggsData is immutable")

    def reconstruction_residual(self, conn: FlatConnectionField) -> float:
        ra = (self.dH10 + self.phi10 - conn.Ahat).max_abs()
        rb = (self.dH01 + self.phi01 - conn.Bhat).max_abs()
        return max(ra, rb)


def assemble(psi, C: CubicPair, chart: BeltramiChart) -> FlatConnectionField:
    """Connection matrices of the datum (psi, C) over the chart.

        Ahat = [[a, -tau alpha dwz^3 / s^2, 0],
                [0, -a,                     s],
                [s, 0,                      0]],
        a = -psi_w + logB/2 - (d_w dwz)/(2 dwz),

        Bhat = [[b, 0,                            s],
                [-tau conj(beta) dzbwb^3 / s^2, -b, 0],
                [0, s,                            0]],
        b = psi_zbar + (d_zbar dzbwb)/(2 dzbwb) - logA/2,

    with s^2 = e^{2 psi} dwz dzbwb.  Derivatives of psi and the chart
    factors are centered stencils; tau contributes +1 to the plus part and
    -1 to the minus part of the cubic entries.
    """
    g = chart.grid
    if C.grid != g:
        raise ValueError("cubic pair and chart live on different grids")
    psi = g.field(psi)
    dwz, dzbwb = chart.dwz, chart.dzbwb
    s2 = np.exp(2.0 * psi) * dwz * dzbwb
    s = np.sqrt(s2)

    a11 = -chart.d_w(psi) + 0.5 * chart.logB - 0.5 * chart.d_w(dwz) / dwz
    b11 = g.dzb(psi) + 0.5 * g.dzb(dzbwb) / dzbwb - 0.5 * chart.logA
    pA = C.alpha * dwz ** 3 / s2
    rB = np.conj(C.beta) * dzbwb ** 3 / s2

    n = g.n
    Ap = np.zeros((n, n, 3, 3), dtype=complex)
    Bp = np.zeros((n, n, 3, 3), dtype=complex)
    for M, diag, s_at in ((Ap, a11, ((1, 2), (2, 0))),
                          (Bp, b11, ((0, 2), (2, 1)))):
        M[..., 0, 0] = diag
        M[..., 1, 1] = -diag
        for i, j in s_at:
            M[..., i, j] = s
    Am = Ap.copy()
    Bm = Bp.copy()
    Ap[..., 0, 1] = -pA
    Am[..., 0, 1] = pA
    Bp[..., 1, 0] = -rB
    Bm[..., 1, 0] = rB
    return FlatConnectionField(BcMat3Field(Ap, Am), BcMat3Field(Bp, Bm),
                               chart, s2)


def maurer_cartan_residual(conn: FlatConnectionField) -> BcMat3Field:
    """d Omega + Omega ^ Omega contracted to the frame coefficient

        Bhat_w - logB Bhat - Ahat_zbar + logA Ahat + [Ahat, Bhat],

    zero exactly for constant exact data and O(spacing^2) for smooth
    solved data.  The logA/logB terms are the commutator coefficients of
    the (d_w, d_zbar) frame acting on the matrix legs.  The stencils
    act on whole (n, n, 3, 3) fields; the commutator runs on the plane
    kernel.
    """
    c = conn.chart
    logA, logB = c.logA[..., None, None], c.logB[..., None, None]
    parts = []
    for a, b in ((conn.Ahat.plus, conn.Bhat.plus),
                 (conn.Ahat.minus, conn.Bhat.minus)):
        ap, bp = mat3.planes(a), mat3.planes(b)
        r = c.d_w(b) - logB * b - c.grid.dzb(a) + logA * a
        r += mat3.stacked(mat3.matmul(ap, bp) - mat3.matmul(bp, ap))
        parts.append(r)
    return BcMat3Field(*parts)


def reduced_system_residual(psi, C: CubicPair, chart: BeltramiChart
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three scalar equations equivalent to flatness.

        r0 = s^2 (Delta_h psi + alpha conj(beta) e^{-6 psi} - 1)
        r1 = d_zbar(alpha) dwz^3 / s^2          (coefficient of tau)
        r2 = d_w(conj(beta)) dzbwb^3 / s^2      (coefficient of tau)

    r1 and r2 are pure tau multiples; the returned arrays are their
    idempotent plus components (the minus components are the negatives).
    r0 is s^2 times the intrinsic Gauss residual, computed through the
    same laplacian stencil, so the agreement with the Gauss module is
    exact in floating point.
    """
    g = chart.grid
    psi = g.field(psi)
    h = ComplexMetric(chart, psi)
    s2 = h.s2
    gauss = (laplacian(h, psi)
             + C.alpha * np.conj(C.beta) * np.exp(-6.0 * psi) - 1.0)
    r0 = s2 * gauss
    r1 = g.dzb(C.alpha) * chart.dwz ** 3 / s2
    r2 = chart.d_w(np.conj(C.beta)) * chart.dzbwb ** 3 / s2
    return r0, r1, r2


def step_generators(conn: FlatConnectionField, iy, ix, diy, dix,
                    part: str) -> np.ndarray:
    """Midpoint generators of the grid steps (ix, iy) -> (ix+dix, iy+diy)
    in one idempotent part ("plus" or "minus").

    Omega is sampled as the average of its values at the two endpoint
    nodes (indices wrap around the torus) and contracted with the step
    displacement h (dix, diy).  The four index arguments broadcast
    together to a batch shape; the result is the (*batch, 3, 3)
    generator stack, whose exponentials transport a frame across each
    step.  Omega is read only at the endpoint nodes, and a leg whose
    displacement is zero across the batch is skipped.
    """
    iy, ix, diy, dix = np.broadcast_arrays(iy, ix, diy, dix)
    n = conn.grid.n
    jy, jx = (iy + diy) % n, (ix + dix) % n
    S = np.zeros(iy.shape + (3, 3), dtype=complex)
    for leg, w in ((0, dix), (1, diy)):
        if np.any(w):
            S += ((_omega_at(conn, part, leg, iy, ix)
                   + _omega_at(conn, part, leg, jy, jx))
                  * w[..., None, None])
    S *= 0.5 * conn.grid.spacing
    return S


def grid_step_generators(conn: FlatConnectionField, part: str,
                         leg: int) -> np.ndarray:
    """Midpoint generators of every unit grid step along x (leg 0:
    (ix, iy) -> (ix+1, iy)) or along y (leg 1: (ix, iy) -> (ix, iy+1)),
    as an (n, n, 3, 3) stack indexed by the node each step leaves.

    The rule of step_generators on the whole grid, with Omega evaluated
    once over the grid and shifted instead of gathered at both ends of
    every edge; the sum runs in the same order, so the two agree bit
    for bit.
    """
    S = _omega_at(conn, part, leg, slice(None), slice(None))
    S += np.roll(S, -1, axis=1 - leg)       # Omega(start) + Omega(end)
    S *= 0.5 * conn.grid.spacing
    return S


def expm_steps(S: np.ndarray) -> np.ndarray:
    """exp of every matrix in a (..., 3, 3) stack.

    Truncated Taylor series, its degree m the smallest with
    TAYLOR_THETA[m - 1] >= the largest 1-norm in the batch; the batch
    is scaled by 2^-s and squared s times only when that norm exceeds
    the last entry of the table.  The arithmetic runs on the plane
    kernel (mat3.expm, Horner reduced by Cayley-Hamilton).  An empty
    batch is returned empty; a non-finite entry raises ValueError.
    """
    nrm = float(np.abs(S).sum(axis=-2).max(initial=0.0))
    if not np.isfinite(nrm):
        raise ValueError(f"non-finite step generator (1-norm {nrm})")
    s = 0
    if nrm > TAYLOR_THETA[-1]:
        s = int(np.ceil(np.log2(nrm / TAYLOR_THETA[-1])))
        nrm /= 2.0 ** s
    m = next(k for k, theta in enumerate(TAYLOR_THETA, 1) if nrm <= theta)
    return mat3.stacked(mat3.expm(mat3.planes(S), m, s))


def holonomy(conn: FlatConnectionField, loop: Loop,
             gauge: str = "ambient") -> BcMat3:
    """Path-ordered product of step exponentials of Omega along the loop.

    Each step samples Omega at the segment midpoint (average of the two
    endpoint node values) and exponentiates per idempotent component;
    later steps multiply on the left, i.e. sections transport by F
    solving F' = Omega(gamma') F.  All steps of one component go through
    one batched exponential.

    gauge="frame" returns the raw frame-basis holonomy (group condition
    wrt QTILDE); gauge="ambient" conjugates by the constant model frame
    F0, after which X_minus = Q (X_plus^-1)^T Q with Q = diag(1,1,-1).

    A connection whose flatness residual exceeds FLATNESS_WARN draws a
    warning: its holonomy depends on the loop, not only on its class.
    """
    if gauge not in ("ambient", "frame"):
        raise ValueError(f"unknown gauge {gauge!r}")
    g = conn.grid
    if loop.n != g.n:
        raise ValueError("loop and connection grids differ")
    flat = conn.flatness_residual()
    if flat > FLATNESS_WARN:
        warnings.warn(f"holonomy of non-flat data: Maurer-Cartan residual "
                      f"{flat:.2e} exceeds {FLATNESS_WARN:.0e}",
                      stacklevel=2)
    d = np.array(loop.steps)                    # (steps, 2): (dix, diy)
    start = np.cumsum(d, axis=0) - d            # node each step leaves
    parts = []
    for part in ("plus", "minus"):
        S = step_generators(conn, start[:, 1] % g.n, start[:, 0] % g.n,
                            d[:, 1], d[:, 0], part)
        E = expm_steps(S)
        H = E[0]
        for Ek in E[1:]:
            H = Ek @ H
        if gauge == "ambient":
            H = F0 @ H @ F0_INV
        parts.append(H)
    return BcMat3(*parts)


def to_sl3(M: BcMat3, tol: float = 1e-8) -> tuple[np.ndarray, float]:
    """Extract the SL(3,C) representative of an ambient-gauge element.

    Checks the idempotent compatibility M_minus = Q (M_plus^-1)^T Q within
    tol (relative to the matrix scale) and returns (M_plus, |det - 1|);
    the determinant defect is reported, not enforced.
    """
    resid = compatibility_residual(M)
    if resid > tol * max(1.0, M.norm_max()):
        raise NotInImage(f"compatibility residual {resid:.3e} exceeds "
                         f"{tol:.1e}")
    defect = float(abs(np.linalg.det(M.plus) - 1.0))
    return M.plus.copy(), defect


def _h_adjoint(field: BcMat3Field) -> BcMat3Field:
    # HTILDE M^T HTILDE per node; the pairing is bilinear over C_tau, so
    # no conjugation enters and the split respects the idempotent parts
    tp = np.swapaxes(field.plus, -1, -2)
    tm = np.swapaxes(field.minus, -1, -2)
    return BcMat3Field(HTILDE @ tp @ HTILDE, HTILDE @ tm @ HTILDE)


def higgs_split(conn: FlatConnectionField) -> HiggsData:
    """Split Omega into metric-connection and Higgs parts against HTILDE.

    The HTILDE-skew half of each leg is the pairing-compatible connection
    (dH10 from Ahat, dH01 from Bhat); the HTILDE-symmetric half is the
    Higgs field (phi10, phi01).  For a datum with constant chart factors
    and psi, dH vanishes and phi carries the cubic and s entries.
    """
    As = _h_adjoint(conn.Ahat)
    Bs = _h_adjoint(conn.Bhat)
    phi10 = (conn.Ahat + As).scale(0.5)
    dH10 = (conn.Ahat - As).scale(0.5)
    phi01 = (conn.Bhat + Bs).scale(0.5)
    dH01 = (conn.Bhat - Bs).scale(0.5)
    return HiggsData(HTILDE.copy(), dH10, dH01, phi10, phi01)


def hitchin_residuals(conn: FlatConnectionField
                      ) -> tuple[BcMat3Field, BcMat3Field]:
    """(curvature part, holomorphy part) of the flatness residual.

    The HTILDE-skew projection of the Maurer-Cartan residual is the
    curvature sub-equation (metric curvature + phi ^ phi adjoint term);
    the HTILDE-symmetric projection is the holomorphy sub-equation for
    the Higgs field.  Their sum reconstructs the full residual exactly.
    """
    mc = maurer_cartan_residual(conn)
    ms = _h_adjoint(mc)
    curv = (mc - ms).scale(0.5)
    holo = (mc + ms).scale(0.5)
    return curv, holo


def conjugate_frame(conn: FlatConnectionField, g: BcMat3
                    ) -> FlatConnectionField:
    """Constant frame change F -> F g; the coefficients map to g^-1 M g.

    For g in the stabilizer group of QTILDE this preserves the pairing
    residual exactly; holonomies conjugate by the same g.
    """
    gi = g.inv()

    def cf(field: BcMat3Field) -> BcMat3Field:
        return BcMat3Field(gi.plus @ field.plus @ g.plus,
                           gi.minus @ field.minus @ g.minus)

    return FlatConnectionField(cf(conn.Ahat), cf(conn.Bhat),
                               conn.chart, conn.s2)
