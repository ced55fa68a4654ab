"""Hyperbolic affine spheres from minimal-Lagrangian connection data.

A space-like minimal Lagrangian in the bi-complex hyperbolic plane
projects, through the idempotent splitting of its moving frame, onto a
dual pair of hyperbolic affine spheres (f+, f-) in R^3.  This module
carries out that correspondence numerically and closes the loop with
classical affine differential geometry:

  * normalize_lift      rescales a raw pair to the special lift with
                        eta(f+, f-) = -1 and vanishing conormal, via a
                        periodic Poisson solve for the log factor;
  * integrate_frame     integrates the flat frame over the grid from a
                        base point (steps multiply on the right, the
                        orientation under which the assembled connection
                        is the curvature of dG = G Omega) and projects
                        the lift column to the real pair;
  * structure_residuals fits D_X df(Y) = f_*(nabla) + g_B(X, Y) xi at
                        each node, rebuilds the affine normal as
                        (1/2) Laplace-Beltrami of f, and reports how far
                        the pair is from S = Id, xi = f;
  * blaschke_data       extracts the Blaschke metric, Pick form and
                        shape operator; pick_and_wang evaluates the
                        Wang identity K - 2|q|^2 = -1 pointwise;
  * second_variation_trace  assembles the trace of the index form of
                        the normal variation PZ, negative wherever
                        Z != 0.

Duality is encoded once and for all by the quadric pairing
eta(u, v) = v^T Q3 u with Q3 = diag(1, 1, -1): both members of a pair
are stored as plain vectors, the dual acting through Q3.  The standard
hyperboloid x^2 + y^2 - z^2 = -1 is then exactly self-dual, (f, f).

Derivatives are the shared centered stencils; pairs coming from frame
integration are not grid-periodic, so their residual fields carry a
NaN margin where the wrapped stencil is meaningless (reduce with
np.nanmax).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mat3
from .bicomplex import Q3
from .connection import F0, FlatConnectionField, expm_steps, step_generators
from .metric import (
    BeltramiChart, CubicPair, centered_dx, centered_dy, stencil_symbols,
)

__all__ = [
    "NotIsotropic", "NotReal", "PathDependent", "DegenerateFrame",
    "AffinePair", "BlaschkeData",
    "eta", "dual_lift", "normalize_lift", "integrate_frame",
    "structure_residuals", "blaschke_data", "pick_cubic",
    "pick_and_wang", "second_variation_trace",
]

#: Swap of the first two frame vectors, as an index order; the reality
#: condition of the Hitchin locus is conj(Ahat) = Bhat[SWAP12][:, SWAP12]
#: part-wise (conjugation by the swap matrix, done as a reordering of
#: rows and columns, with no arithmetic).
SWAP12 = [1, 0, 2]

#: Residual fields of non-periodic pairs are NaN on this margin.
FIT_MARGIN = 4


class NotIsotropic(ValueError):
    """The conormal 1-form has curl; no special lift exists."""


class NotReal(ValueError):
    """Connection data violates the real (Hitchin-locus) structure."""


class PathDependent(RuntimeError):
    """Frame integration is path dependent beyond tolerance."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"path-independence residual {residual:.3e} exceeds {tol:.3e}")


class DegenerateFrame(ArithmeticError):
    """The moving frame {f_x, f_y, f} is numerically singular."""


# ----------------------------------------------------------------------
# pairing and derivative helpers

def eta(u, v) -> np.ndarray:
    """Quadric pairing eta(u, v) = v^T Q3 u on (..., 3) stacks.

    Q3 is symmetric, so the order of the arguments is immaterial.
    """
    return np.einsum("...i,ij,...j->...", np.asarray(v), Q3, np.asarray(u))


def _mask_margin(arr: np.ndarray, margin: int) -> np.ndarray:
    """NaN out the wrap-contaminated band of a non-periodic field."""
    if margin <= 0:
        return arr
    out = np.array(arr, dtype=float if arr.dtype != complex else complex)
    out[:margin] = np.nan
    out[-margin:] = np.nan
    out[:, :margin] = np.nan
    out[:, -margin:] = np.nan
    return out


def _interior(arr: np.ndarray, margin: int) -> np.ndarray:
    if margin <= 0:
        return arr
    return arr[margin:-margin, margin:-margin]


# ----------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class AffinePair:
    """A dual pair of real immersions with eta(f+, f-) = -1.

    Both members are stored as plain (n, n, 3) vector fields; duality
    acts through the quadric pairing eta, so the dual swap is the plain
    exchange of the two arrays.  periodic marks whether the fields wrap
    across the grid seam (synthetic torus data does, integrated frames
    do not).  path_residual records the row/column-order disagreement
    of the frame integration that produced the pair, when applicable.
    The structure fit of f+ is kept on the pair once computed, so
    structure_residuals and blaschke_data share one fit.
    """

    fplus: np.ndarray
    fminus: np.ndarray
    spacing: float
    periodic: bool = True
    path_residual: float = 0.0
    _fit: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        fp = np.asarray(self.fplus, dtype=float)
        fm = np.asarray(self.fminus, dtype=float)
        if fp.ndim != 3 or fp.shape[2] != 3 or fp.shape[0] != fp.shape[1]:
            raise ValueError(f"expected (n, n, 3) fields, got {fp.shape}")
        if fm.shape != fp.shape:
            raise ValueError("fplus and fminus shapes differ")
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise ValueError("non-finite entries in pair")
        dev = float(np.max(np.abs(eta(fp, fm) + 1.0)))
        if dev > 1e-6:
            raise ValueError(f"eta(f+, f-) deviates from -1 by {dev:.3e}")
        object.__setattr__(self, "fplus", fp)
        object.__setattr__(self, "fminus", fm)

    @property
    def n(self) -> int:
        return self.fplus.shape[0]

    def eta_field(self) -> np.ndarray:
        return eta(self.fplus, self.fminus)

    def conormal_residual(self) -> np.ndarray:
        """max(|eta(d_x f+, f-)|, |eta(d_y f+, f-)|) per node."""
        cx = eta(centered_dx(self.fplus, self.spacing), self.fminus)
        cy = eta(centered_dy(self.fplus, self.spacing), self.fminus)
        res = np.maximum(np.abs(cx), np.abs(cy))
        return res if self.periodic else _mask_margin(res, 1)

    def dual(self) -> "AffinePair":
        return AffinePair(self.fminus, self.fplus, self.spacing,
                          periodic=self.periodic,
                          path_residual=self.path_residual)


@dataclass(frozen=True)
class BlaschkeData:
    """Blaschke metric, Pick form and shape operator of one immersion.

    pickC is stored fully symmetrized (the raw fit is symmetric in its
    first two slots only; the pre-symmetrization defect is a residual
    reported by the extraction, not part of the stored tensor).
    Non-periodic extractions carry NaN margins.
    """

    gB: np.ndarray       # (n, n, 2, 2)
    pickC: np.ndarray    # (n, n, 2, 2, 2), totally symmetric
    shapeS: np.ndarray   # (n, n, 2, 2)
    spacing: float
    periodic: bool = True

    def __post_init__(self):
        gB = np.asarray(self.gB, dtype=float)
        C = np.asarray(self.pickC, dtype=float)
        S = np.asarray(self.shapeS, dtype=float)
        n = gB.shape[0]
        if gB.shape != (n, n, 2, 2) or S.shape != (n, n, 2, 2):
            raise ValueError("gB/shapeS must be (n, n, 2, 2)")
        if C.shape != (n, n, 2, 2, 2):
            raise ValueError("pickC must be (n, n, 2, 2, 2)")
        dev = 0.0
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            axes = (0, 1) + tuple(2 + p for p in perm)
            d = np.abs(C - np.transpose(C, axes))
            if np.any(~np.isnan(d)):
                dev = max(dev, float(np.nanmax(d)))
        if dev > 1e-10:
            raise ValueError(f"pickC asymmetric by {dev:.3e}")
        object.__setattr__(self, "gB", gB)
        object.__setattr__(self, "pickC", C)
        object.__setattr__(self, "shapeS", S)

    @property
    def n(self) -> int:
        return self.gB.shape[0]


# ----------------------------------------------------------------------
# special lift

def dual_lift(f, spacing: float, periodic: bool = True) -> np.ndarray:
    """The dual determined by one transverse immersion alone.

    Solves eta(f, v) = -1, eta(d_x f, v) = eta(d_y f, v) = 0 per node
    (possible wherever {f, f_x, f_y} is a frame); applying it twice
    returns f to O(spacing^2), which is the discrete form of the
    duality involution.
    """
    f = np.asarray(f, dtype=float)
    rows = np.stack([f, centered_dx(f, spacing), centered_dy(f, spacing)],
                    axis=-2)
    bad = ~np.all(np.isfinite(rows), axis=(-2, -1))
    rows = np.where(bad[..., None, None], np.eye(3), rows)
    rhs = np.broadcast_to(np.array([-1.0, 0.0, 0.0]), f.shape)
    y = np.linalg.solve(rows, rhs[..., None])[..., 0]
    y[bad] = np.nan
    v = np.einsum("ij,...j->...i", Q3, y)
    return v if periodic else _mask_margin(v, 1)


def _poisson_periodic(rhs: np.ndarray, spacing: float) -> np.ndarray:
    """Solve the composed-stencil periodic Poisson problem Lap u = rhs.

    The composed centered Laplacian has the Fourier symbol
    sigma_x^2 + sigma_y^2, which vanishes exactly on the four parity
    modes (+-1)^ix (+-1)^iy and nowhere else.  Dividing by it everywhere
    else and zeroing those modes inverts Lap on their complement: Lap u
    is rhs minus its parity-mode projection, and u has zero mean.
    """
    sx, sy = stencil_symbols(rhs.shape[0], spacing)
    symbol = (sx * sx + sy * sy).real
    parity = symbol == 0.0
    coeffs = np.fft.fft2(rhs) / np.where(parity, 1.0, symbol)
    coeffs[parity] = 0.0
    return np.fft.ifft2(coeffs).real


def normalize_lift(fplus0, fminus0, spacing: float) -> AffinePair:
    """Rescale a raw dual pair to the special lift.

    With mu the potential of F = (eta(d_x f+, f-), eta(d_y f+, f-)),
    the pair (e^mu f+, e^-mu f-) has vanishing conormal; mu is fixed to
    zero mean.  Requires eta(f+, f-) = -1 already (the rescale family
    preserves it) and periodic fields; raises NotIsotropic when F has
    curl beyond 10 spacing^2 times the field scale, in which case no
    potential exists.
    """
    fp = np.asarray(fplus0, dtype=float)
    fm = np.asarray(fminus0, dtype=float)
    dev = float(np.max(np.abs(eta(fp, fm) + 1.0)))
    if dev > 1e-8:
        raise ValueError(f"eta(f+, f-) deviates from -1 by {dev:.3e}")
    Fx = eta(centered_dx(fp, spacing), fm)
    Fy = eta(centered_dy(fp, spacing), fm)
    curl = centered_dx(Fy, spacing) - centered_dy(Fx, spacing)
    scale = max(1.0, float(np.max(np.abs(Fx))), float(np.max(np.abs(Fy))))
    gate = 10.0 * spacing ** 2 * scale
    if float(np.max(np.abs(curl))) > gate:
        raise NotIsotropic(
            f"curl {np.max(np.abs(curl)):.3e} exceeds {gate:.3e}")
    mu = _poisson_periodic(centered_dx(Fx, spacing)
                           + centered_dy(Fy, spacing), spacing)
    em = np.exp(mu)[..., None]
    return AffinePair(em * fp, fm / em, spacing, periodic=True)


# ----------------------------------------------------------------------
# frame integration

def _require_real(conn: FlatConnectionField, tol: float = 1e-10):
    chart = conn.chart
    chart_dev = max(
        float(np.max(np.abs(chart.mu))),
        float(np.max(np.abs(chart.dwz - 1.0))),
        float(np.max(np.abs(chart.dzbwb - 1.0))),
        float(np.max(np.abs(chart.logA))),
        float(np.max(np.abs(chart.logB))))
    if chart_dev > tol:
        raise NotReal(f"chart deviates from the flat chart by {chart_dev:.3e}")
    scale = max(1.0, conn.Ahat.max_abs(), conn.Bhat.max_abs())
    dev = 0.0
    for a, b in ((conn.Ahat.plus, conn.Bhat.plus),
                 (conn.Ahat.minus, conn.Bhat.minus)):
        sw = b[..., SWAP12, :][..., SWAP12]
        dev = max(dev, float(np.max(np.abs(np.conj(a) - sw))))
    if dev > tol * scale:
        raise NotReal(f"conjugate-swap defect {dev:.3e} exceeds "
                      f"{tol * scale:.3e}")


def _sweep(Ex, Ey, Exi, Eyi, base):
    """Accumulate G over the grid from base, one axis then the other.

    Ex[iy, ix] is the step exponential of the edge (ix -> ix+1) in row
    iy, likewise Ey for columns; steps multiply on the right in
    traversal order.  The reverse sweeps read the inverses Exi[iy, ix]
    (ix < ix0 only) and Eyi[iy] (iy < iy0 only), so those arrays hold
    just the edges behind the base.
    """
    n = Ex.shape[0]
    iy0, ix0 = base
    G = np.empty_like(Ex)
    G[iy0, ix0] = np.eye(3, dtype=Ex.dtype)
    for ix in range(ix0 + 1, n):
        G[iy0, ix] = G[iy0, ix - 1] @ Ex[iy0, ix - 1]
    for ix in range(ix0 - 1, -1, -1):
        G[iy0, ix] = G[iy0, ix + 1] @ Exi[iy0, ix]
    for iy in range(iy0 + 1, n):
        G[iy] = G[iy - 1] @ Ey[iy - 1]
    for iy in range(iy0 - 1, -1, -1):
        G[iy] = G[iy + 1] @ Eyi[iy]
    return G


def _integrate_part(Sx, Sy, base, sl):
    """Frame of one idempotent part from its x- and y-step generators.

    Returns the lift column of the row-then-column frame, the max-abs
    disagreement with the column-then-row frame on [sl, sl], and the
    frame size there.
    """
    iy0, ix0 = base
    Ex, Exi = expm_steps(Sx), expm_steps(-Sx[:, :ix0])
    Ey, Eyi = expm_steps(Sy), expm_steps(-Sy[:iy0])
    G_xy = _sweep(Ex, Ey, Exi, Eyi, base)
    # column-then-row: same edges, roles of the axes exchanged
    Gt = _sweep(Ey.transpose(1, 0, 2, 3), Ex.transpose(1, 0, 2, 3),
                Eyi.transpose(1, 0, 2, 3), Exi.transpose(1, 0, 2, 3),
                (ix0, iy0))
    G_yx = Gt.transpose(1, 0, 2, 3)
    resid = float(np.max(np.abs((G_xy - G_yx)[sl, sl])))
    gmax = float(np.max(np.abs(G_xy[sl, sl])))
    return G_xy[..., :, 2].copy(), resid, gmax


def integrate_frame(conn: FlatConnectionField, base=(0, 0),
                    path_tol: float | None = None,
                    trim: int = 0) -> AffinePair:
    """Integrate the moving frame of real connection data to a pair.

    The frame solves dG = G Omega with G(base) = Id (q-orthonormal,
    lift column (0, 0, 1)); the step exponentials come from the
    transport kernel that holonomy uses (connection.step_generators,
    connection.expm_steps), and inverse steps are exponentiated only
    for the edges behind the base.  The lift is the third column of G;
    conjugating by the model frame F0 turns the conjugate-swap symmetry
    of real data into literal realness of f+ = F0 sigma_plus,
    f- = F0 sigma_minus.  Each step is exactly Gram-compatible, so
    eta(f+, f-) = -1 propagates to rounding.

    Row-then-column and column-then-row orders are both integrated;
    their disagreement (max over both idempotent parts, optionally
    trimmed by `trim` nodes for data whose seam rows are invalid) must
    stay below path_tol, default 200 spacing^2 scaled by the frame
    size, else PathDependent.
    """
    _require_real(conn)
    grid = conn.chart.grid
    n, h = grid.n, grid.spacing
    iy0, ix0 = base
    if not (0 <= iy0 < n and 0 <= ix0 < n):
        raise ValueError(f"base {base} outside grid")
    # x steps (ix -> ix+1) and y steps (iy -> iy+1) from every node, one
    # idempotent part at a time: a part's generators and exponentials
    # are released before the next part's are built
    node_y, node_x = np.ogrid[:n, :n]
    sl = slice(trim, n - trim) if trim > 0 else slice(None)
    sigma = {}
    resid = 0.0
    gmax = 0.0
    for part in ("plus", "minus"):
        sigma[part], r, g = _integrate_part(
            step_generators(conn, node_y, node_x, 0, 1, part),
            step_generators(conn, node_y, node_x, 1, 0, part), base, sl)
        resid, gmax = max(resid, r), max(gmax, g)

    tol = (200.0 * h * h if path_tol is None else path_tol) * max(1.0, gmax)
    if resid > tol:
        raise PathDependent(resid, tol)

    out = {}
    for part in ("plus", "minus"):
        amb = np.einsum("ij,...j->...i", F0, sigma[part])
        imax = float(np.max(np.abs(amb.imag)))
        if imax > 1e-7 * max(1.0, float(np.max(np.abs(amb)))):
            raise NotReal(f"projected {part} lift has imaginary part {imax:.3e}")
        out[part] = amb.real
    return AffinePair(out["plus"], out["minus"], h, periodic=False,
                      path_residual=resid)


# ----------------------------------------------------------------------
# structure equations, Blaschke data, Pick form

def _fit_structure(pair: AffinePair):
    """Node-wise fit of the affine structure equations of f+.

    Returns (gB, xi, S, C_sym, C_asym_defect): Blaschke metric from
    the decomposition of second derivatives in the frame {f_x, f_y, f},
    affine normal xi = (1/2) Laplace-Beltrami(gB) f in divergence form,
    shape operator from the tangential part of d(xi), and the Pick form
    C(X,Y,Z) = gB((LC(gB) - induced)(X,Y), Z), symmetrized, with the
    raw asymmetry defect.  Non-periodic output carries NaN margins
    (gB: 2, xi: 3, C: 3, S: 4 nodes deep).
    """
    f = pair.fplus
    h = pair.spacing
    per = pair.periodic
    fx, fy = centered_dx(f, h), centered_dy(f, h)
    fxx, fxy, fyy = centered_dx(fx, h), centered_dy(fx, h), centered_dy(fy, h)

    frame = mat3.planes(np.stack([fx, fy, f], axis=-1))
    det = mat3.det(frame)
    det_valid = det if per else _interior(det, 2)
    if float(np.min(np.abs(det_valid))) < 1e-10:
        raise DegenerateFrame(
            f"frame determinant reaches {np.min(np.abs(det_valid)):.3e}")

    # planes (3, {xx, xy, yy}, n, n)
    coef = mat3.solve(frame, mat3.planes(np.stack([fxx, fxy, fyy], axis=-1)))
    gB = np.empty(f.shape[:2] + (2, 2))
    gB[..., 0, 0] = coef[2, 0]
    gB[..., 0, 1] = gB[..., 1, 0] = coef[2, 1]
    gB[..., 1, 1] = coef[2, 2]
    gammabar = np.empty(f.shape[:2] + (2, 2, 2))   # [..., k, a, b]
    for k in (0, 1):
        gammabar[..., k, 0, 0] = coef[k, 0]
        gammabar[..., k, 0, 1] = gammabar[..., k, 1, 0] = coef[k, 1]
        gammabar[..., k, 1, 1] = coef[k, 2]

    detg = gB[..., 0, 0] * gB[..., 1, 1] - gB[..., 0, 1] ** 2
    sg = np.sqrt(np.abs(detg))
    ginv = np.empty_like(gB)
    ginv[..., 0, 0] = gB[..., 1, 1] / detg
    ginv[..., 1, 1] = gB[..., 0, 0] / detg
    ginv[..., 0, 1] = ginv[..., 1, 0] = -gB[..., 0, 1] / detg

    flux_x = sg[..., None] * (ginv[..., 0, 0, None] * fx
                              + ginv[..., 0, 1, None] * fy)
    flux_y = sg[..., None] * (ginv[..., 1, 0, None] * fx
                              + ginv[..., 1, 1, None] * fy)
    xi = ((centered_dx(flux_x, h) + centered_dy(flux_y, h))
          / (2.0 * sg[..., None]))

    scoef = mat3.solve(frame, mat3.planes(
        np.stack([centered_dx(xi, h), centered_dy(xi, h)], axis=-1)))
    S = mat3.stacked(scoef[:2])             # (n, n, 2 {comp}, 2 {dir})

    gamma_lc = _christoffel(gB, ginv, h)
    K = gammabar - gamma_lc
    C_raw = -np.einsum("...cl,...lab->...abc", gB, K)
    C_sym = (C_raw
             + np.transpose(C_raw, (0, 1, 2, 4, 3))
             + np.transpose(C_raw, (0, 1, 3, 2, 4))
             + np.transpose(C_raw, (0, 1, 3, 4, 2))
             + np.transpose(C_raw, (0, 1, 4, 2, 3))
             + np.transpose(C_raw, (0, 1, 4, 3, 2))) / 6.0
    if per:
        asym = float(np.max(np.abs(C_raw - C_sym)))
    else:
        gB = _mask_margin(gB, 2)
        xi = _mask_margin(xi, 3)
        S = _mask_margin(S, FIT_MARGIN)
        asym = float(np.nanmax(_mask_margin(
            np.max(np.abs(C_raw - C_sym), axis=(2, 3, 4)), 3)))
        C_sym = _mask_margin(C_sym, 3)
    return gB, xi, S, C_sym, asym


def _fitted(pair: AffinePair):
    """The structure fit of f+, computed once per pair.  Its arrays are
    shared by every later reader, so they are made read-only."""
    if pair._fit is None:
        fit = _fit_structure(pair)
        for arr in fit[:4]:
            arr.flags.writeable = False
        object.__setattr__(pair, "_fit", fit)
    return pair._fit


def _christoffel(gB: np.ndarray, ginv: np.ndarray,
                 spacing: float) -> np.ndarray:
    """Levi-Civita symbols of a 2x2 metric field, [..., k, a, b]."""
    dg = np.stack([centered_dx(gB, spacing), centered_dy(gB, spacing)], axis=2)
    lower = np.empty(gB.shape[:2] + (2, 2, 2))
    for l in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                lower[..., l, a, b] = 0.5 * (dg[..., a, b, l]
                                             + dg[..., b, a, l]
                                             - dg[..., l, a, b])
    return np.einsum("...kl,...lab->...kab", ginv, lower)


def structure_residuals(pair: AffinePair):
    """(gB, xi_residual, S_residual) of the structure-equation fit.

    xi_residual is the per-node max-norm of xi_hat - f (deviation of
    the affine normal from the position), S_residual that of S - Id.
    A hyperbolic affine sphere drives both to O(spacing^2).
    """
    gB, xi, S, _, _ = _fitted(pair)
    xi_res = np.max(np.abs(xi - pair.fplus), axis=-1)
    eye = np.eye(2)
    S_res = np.max(np.abs(S - eye), axis=(-2, -1))
    return gB, xi_res, S_res


def blaschke_data(pair: AffinePair) -> BlaschkeData:
    """Extract Blaschke metric, symmetrized Pick form and shape field."""
    gB, _, S, C_sym, _ = _fitted(pair)
    return BlaschkeData(gB, C_sym, S, pair.spacing, periodic=pair.periodic)


def pick_cubic(data: BlaschkeData) -> np.ndarray:
    """Cubic-differential coefficient q_hat = C_xxx - i C_xxy.

    For the pair integrated from Wang data with cubic alpha = beta =
    q/2 this recovers q_hat = 2 alpha = q on the f+ side and -q on the
    f- side.
    """
    C = data.pickC
    return C[..., 0, 0, 0] - 1j * C[..., 0, 0, 1]


def _gauss_curvature(gB: np.ndarray, spacing: float) -> np.ndarray:
    """Sectional curvature K = R_0101 / det g of a 2x2 metric field."""
    detg = gB[..., 0, 0] * gB[..., 1, 1] - gB[..., 0, 1] ** 2
    ginv = np.empty_like(gB)
    ginv[..., 0, 0] = gB[..., 1, 1] / detg
    ginv[..., 1, 1] = gB[..., 0, 0] / detg
    ginv[..., 0, 1] = ginv[..., 1, 0] = -gB[..., 0, 1] / detg
    gam = _christoffel(gB, ginv, spacing)
    dgam = np.stack([centered_dx(gam, spacing), centered_dy(gam, spacing)],
                    axis=2)
    # R^i_{1,0,1} = D_0 Gam^i_11 - D_1 Gam^i_01 + Gam^i_0m Gam^m_11
    #                                            - Gam^i_1m Gam^m_01
    R = (dgam[..., 0, :, 1, 1] - dgam[..., 1, :, 0, 1]
         + np.einsum("...im,...m->...i", gam[..., :, 0, :], gam[..., :, 1, 1])
         - np.einsum("...im,...m->...i", gam[..., :, 1, :], gam[..., :, 0, 1]))
    R0101 = np.einsum("...i,...i->...", gB[..., 0, :], R)
    return R0101 / detg


def pick_and_wang(data: BlaschkeData, q) -> np.ndarray:
    """Pointwise Wang residual K_gB - 2 |q|^2_gB + 1.

    q is the cubic coefficient field (extracted via pick_cubic or known
    analytically); its squared norm is |q|^2 (det gB)^(-3/2).  The
    residual vanishes to O(spacing^2) on data extracted from a solved
    Hitchin-locus connection, and reduces to K + 1 for q = 0.
    """
    qf = np.asarray(q)
    K = _gauss_curvature(data.gB, data.spacing)
    detg = (data.gB[..., 0, 0] * data.gB[..., 1, 1]
            - data.gB[..., 0, 1] ** 2)
    nq2 = np.abs(qf) ** 2 * detg ** (-1.5)
    return K - 2.0 * nq2 + 1.0


# ----------------------------------------------------------------------
# second variation

def second_variation_trace(Z, psi, C: CubicPair,
                           chart: BeltramiChart) -> np.ndarray:
    """Trace of the index form of the normal variation PZ.

    For real Hitchin-locus data (flat chart, real psi, alpha = beta)
    and a tangent field Z = (Z^x, Z^y), the trace splits into

        curvature:  -2 g(Z, Z) - 3 (g(e1, Z)^2 + g(e2, Z)^2)
        shape:      -sum_i g(B_PZ e_i, B_PZ e_i),
                     g(B_PZ X, Y) = C(X, Y, Z)
        normal:     -sum_i g(nabla_{e_i} Z, nabla_{e_i} Z)

    over the induced metric g = 2 e^{2 psi} (dx^2 + dy^2), with {e_i}
    orthonormal and C the cubic form with C_xxx - i C_xxy = 2 alpha.
    Every part is nonpositive; the curvature part is strictly negative
    wherever Z != 0, so the trace is too.
    """
    grid = chart.grid
    Zf = np.asarray(Z, dtype=float)
    if Zf.shape != (grid.n, grid.n, 2):
        raise ValueError(f"expected Z of shape {(grid.n, grid.n, 2)}")
    ps = np.real(grid.field(psi))
    lam = 2.0 * np.exp(2.0 * ps)
    Zx, Zy = Zf[..., 0], Zf[..., 1]

    gZZ = lam * (Zx ** 2 + Zy ** 2)
    rlam = np.sqrt(lam)
    curvature_part = -2.0 * gZZ - 3.0 * ((rlam * Zx) ** 2 + (rlam * Zy) ** 2)

    alpha = np.asarray(C.alpha)
    cxxx = 2.0 * alpha.real
    cxxy = -2.0 * alpha.imag
    Ct = np.empty((grid.n, grid.n, 2, 2, 2))
    Ct[..., 0, 0, 0] = cxxx
    Ct[..., 0, 0, 1] = Ct[..., 0, 1, 0] = Ct[..., 1, 0, 0] = cxxy
    Ct[..., 0, 1, 1] = Ct[..., 1, 0, 1] = Ct[..., 1, 1, 0] = -cxxx
    Ct[..., 1, 1, 1] = -cxxy
    M = np.einsum("...abk,...k->...ab", Ct, Zf)
    B = M / lam[..., None, None]
    shape_part = -np.einsum("...ab,...ab->...", B, B)

    px, py = np.real(grid.dx(ps)), np.real(grid.dy(ps))
    dxZx, dyZx = np.real(grid.dx(Zx)), np.real(grid.dy(Zx))
    dxZy, dyZy = np.real(grid.dx(Zy)), np.real(grid.dy(Zy))
    c00 = dxZx + px * Zx + py * Zy
    c01 = dxZy - py * Zx + px * Zy
    c10 = dyZx + py * Zx - px * Zy
    c11 = dyZy + px * Zx + py * Zy
    normal_part = -(c00 ** 2 + c01 ** 2 + c10 ** 2 + c11 ** 2)

    return curvature_part + shape_part + normal_part
