"""Hyperbolic affine spheres from minimal-Lagrangian connection data.

A space-like minimal Lagrangian in the bi-complex hyperbolic plane
projects, through the idempotent splitting of its moving frame, onto a
dual pair of hyperbolic affine spheres (f+, f-) in R^3.  This module
carries out that correspondence numerically and closes the loop with
classical affine differential geometry:

  * integrate_frame     transports the plus frame over the grid from
                        node (0, 0), every row and column through one
                        blocked forward sweep (_sweep), takes the dual
                        lift as the cross product of its tangent
                        columns, checked against the minus frame
                        integrated along row 0 and column 0, and
                        projects both lifts to the real pair;
  * structure_residuals fits D_X df(Y) = f_*(nabla) + g_B(X, Y) xi at
                        each node, in row blocks, rebuilds the affine
                        normal as (1/2) Laplace-Beltrami of f, and
                        reports how far the pair is from S = Id, xi = f;
  * blaschke_data       returns the Pick form of that fit alone, which
                        pick_cubic reads as the cubic differential;
  * second_variation_trace  assembles the trace of the index form of
                        the normal variation PZ, negative wherever
                        Z != 0.

Duality is encoded once and for all by the quadric pairing
eta(u, v) = v^T Q3 u with Q3 = diag(1, 1, -1): both members of a pair
are stored as plain vectors, the dual acting through Q3.  The standard
hyperboloid x^2 + y^2 - z^2 = -1 is then exactly self-dual, (f, f).

Derivatives are the shared centered stencils.  No pair is taken to be
grid-periodic (frame integration gives none that is), so the residual
fields carry a NaN margin where the wrapped stencil is meaningless
(reduce with np.nanmax).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mat3
from .connection import (
    F0, PARTS, FlatConnectionField, grid_step_generators, step_norms,
    taylor_degree, transport,
)
from .metric import BeltramiChart, CubicPair, centered_dx, centered_dy

__all__ = [
    "NotReal", "PathDependent", "DegenerateFrame", "NotDual",
    "AffinePair", "eta", "integrate_frame",
    "structure_residuals", "blaschke_data", "pick_cubic",
    "second_variation_trace",
]

#: Swap of the first two frame vectors, as an index order; the reality
#: condition of the Hitchin locus is conj(Ahat) = Bhat[SWAP12][:, SWAP12]
#: part-wise (conjugation by the swap matrix, done as a reordering of
#: rows and columns, with no arithmetic).
SWAP12 = [1, 0, 2]

#: Residual fields of a pair are NaN on this margin along the seam, and
#: the structure fit reads a row block with this many rows of halo.
FIT_MARGIN = 4

#: Grid rows that the structure fit works on at a time.
FIT_ROWS = 32

#: Rows or columns of step exponentials that integrate_frame builds at a
#: time.
FRAME_BLOCK = 32

#: Path-independence bound of integrate_frame, in spacing^2 times the
#: frame size.
PATH_TOL = 200.0

REAL_TOL = 1e-10    # integrate_frame's chart and conjugate-swap bound


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


class NotDual(ValueError):
    """eta(f+, f-) of a pair deviates from -1 by more than 1e-6."""


# ----------------------------------------------------------------------
# pairing and derivative helpers

def eta(u, v) -> np.ndarray:
    """Quadric pairing eta(u, v) = v^T Q3 u on (..., 3) stacks.

    Q3 = diag(1, 1, -1), so the pairing is u0 v0 + u1 v1 - u2 v2 and
    the order of the arguments is immaterial.
    """
    u, v = np.asarray(u), np.asarray(v)
    return (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
            - u[..., 2] * v[..., 2])


def _nan_margin(arr: np.ndarray, margin: int) -> None:
    """Set the band `margin` nodes deep along the seam of arr to NaN, in
    place."""
    arr[:margin] = np.nan
    arr[-margin:] = np.nan
    arr[:, :margin] = np.nan
    arr[:, -margin:] = np.nan


# ----------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class AffinePair:
    """A dual pair of real immersions with eta(f+, f-) = -1.

    Both members are stored as plain (n, n, 3) vector fields; duality
    acts through the quadric pairing eta, so the dual swap is the plain
    exchange of the two arrays.  path_residual records the
    row/column-order disagreement of the frame integration that
    produced the pair, and dual_residual how far its
    derived f- lift strays from the minus frame integrated on its own
    along row 0 and column 0.
    """

    fplus: np.ndarray
    fminus: np.ndarray
    spacing: float
    path_residual: float
    dual_residual: float

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
            raise NotDual(f"eta(f+, f-) deviates from -1 by {dev:.3e}")
        object.__setattr__(self, "fplus", fp)
        object.__setattr__(self, "fminus", fm)

    @property
    def n(self) -> int:
        return self.fplus.shape[0]

    def eta_field(self) -> np.ndarray:
        return eta(self.fplus, self.fminus)

    def dual(self) -> "AffinePair":
        return AffinePair(self.fminus, self.fplus, self.spacing,
                          path_residual=self.path_residual,
                          dual_residual=self.dual_residual)


# ----------------------------------------------------------------------
# frame integration

def _require_real(conn: FlatConnectionField):
    chart = conn.chart
    chart_dev = max(
        float(np.max(np.abs(chart.mu))),
        float(np.max(np.abs(chart.dwz - 1.0))),
        float(np.max(np.abs(chart.dzbwb - 1.0))),
        float(np.max(np.abs(chart.logA))),
        float(np.max(np.abs(chart.logB))))
    if chart_dev > REAL_TOL:
        raise NotReal(f"chart deviates from the flat chart by {chart_dev:.3e}")
    scale = max(1.0, conn.max_abs())
    dev = 0.0
    for part in PARTS:
        a, b = conn.planes["Ahat"][part], conn.planes["Bhat"][part]
        for i in range(3):
            for j in range(3):
                # conj(Ahat)_ij against Bhat at the swapped indices; an
                # absent plane is zero
                d = (np.conj(a.get((i, j), 0.0))
                     - b.get((SWAP12[i], SWAP12[j]), 0.0))
                dev = max(dev, float(np.max(np.abs(d))))
    if dev > REAL_TOL * scale:
        raise NotReal(f"conjugate-swap defect {dev:.3e} exceeds "
                      f"{REAL_TOL * scale:.3e}")


def _sweep(S, k, start, view, each=None):
    """Transport `start`, the frames of line 0, forward across the lines
    of the step generators S (axis 2) at Taylor degree k.  A batch of
    lines (S of ndim 4) goes FRAME_BLOCK steps at a time, a single line
    in one block, its step planes copied contiguous if S's are strided.
    view(a, b) is the array that takes the frames of lines a..b; each(F,
    a) sees a block's new frames, F[:, :, 0] those of line a.
    """
    n = S.shape[2]
    size = FRAME_BLOCK if S.ndim > 3 else n
    frames = start
    for a in range(0, n - 1, size):     # the wrap step n - 1 is not taken
        b = min(a + size, n - 1)
        steps = S[:, :, a:b]
        if not steps[0, 0].flags.c_contiguous:
            steps = np.ascontiguousarray(steps)
        block = view(a, b)
        frames = transport(mat3.expm(steps, *k), frames, out=block)[:, :, -1]
        if each is not None:        # the frames past the start
            each(block[:, :, 1:], a + 1)


def _integrate_part(conn):
    """Frame of the plus part, integrated from node (0, 0) by _sweep,
    with each leg's Taylor degree taken from the norm of all its steps
    as expm_steps would; the kernel works entry by entry, so blocks
    equal the whole bit for bit.  Row then column: row 0 along x, then
    every column along y, into the kept frames G.  Column then row: from
    G's column 0, reached along y alone with the same steps, every row
    along x over the transposed x-steps [.., ix, iy], a block of frames
    at a time into a rolling buffer compared against G.  Returns the
    lift column of G and the dual lift column derived from G
    (_dual_column) as (3, n, n) planes, the max-abs disagreement of the
    two orders (NaN if either frame is), and the frame size.
    """
    n = conn.grid.n
    Sx = grid_step_generators(conn, "plus", 0)
    Sy = grid_step_generators(conn, "plus", 1)
    kx, ky = (taylor_degree(step_norms(S).max(initial=0.0))
              for S in (Sx, Sy))

    # row then column, into G[:, :, iy, ix]
    G = np.empty((3, 3, n, n), dtype=complex)
    row = G[:, :, 0]
    _sweep(Sx[:, :, 0], kx, np.eye(3), lambda a, b: row[:, :, a:b + 1])
    _sweep(Sy, ky, row, lambda a, b: G[:, :, a:b + 1])
    del Sy
    resid = 0.0

    def gap(F, c0):
        """Fold max |G - F| into resid; F[:, :, 0], F[:, :, 1], ... holds
        the frames of the columns c0, c0 + 1, ..."""
        nonlocal resid
        resid = np.maximum(resid, np.abs(
            G[:, :, :, c0:c0 + F.shape[2]] - F.swapaxes(2, 3)).max())

    # column then row, frames [.., ix, iy], from G's column 0: the two
    # orders agree there bit for bit
    F = np.empty((3, 3, FRAME_BLOCK + 1, n), dtype=complex)
    _sweep(Sx.swapaxes(2, 3), kx, G[:, :, :, 0],
           lambda a, b: F[:, :, :b - a + 1], gap)
    # plane by plane, so no grid-sized temporary is held
    gmax = np.max([np.abs(G[i, j]).max() for i in range(3) for j in range(3)])
    return G[:, 2].copy(), _dual_column(G), float(resid), float(gmax)


def _dual_column(G):
    """-QTILDE (e1 x e2) of frames G (3, 3, ...) with columns e1, e2,
    e3, as (3, ...) planes: the lift column of the dual frame
    QTILDE G^-T QTILDE, times det G.  The frame equation keeps det G at
    1 to rounding, and it is not divided out, so eta(f+, f-) + 1 still
    measures how far it drifted."""
    (a0, a1, a2), (b0, b1, b2) = G[:, 0], G[:, 1]
    # e1 x e2 = (a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0); -QTILDE
    # exchanges its first two entries and negates them
    return np.stack([a0 * b2 - a2 * b0, a2 * b1 - a1 * b2,
                     a0 * b1 - a1 * b0])


def _dual_residual(conn, sigma_minus):
    """Max-abs gap, NaN if either side is NaN, between the derived minus
    lift sigma_minus (3, n, n) and the lift column of the minus frame
    integrated on its own along row 0 and column 0: the minus
    generators of those two lines (grid_step_generators with a line),
    swept from the identity at node (0, 0), each line at the Taylor
    degree of its own steps."""
    n = conn.grid.n
    resid = 0.0
    for leg, derived in ((0, sigma_minus[:, 0]), (1, sigma_minus[:, :, 0])):
        S = grid_step_generators(conn, "minus", leg, 0)
        frames = np.empty((3, 3, n), dtype=complex)
        _sweep(S, taylor_degree(step_norms(S).max(initial=0.0)), np.eye(3),
               lambda a, b: frames[:, :, a:b + 1])
        resid = np.maximum(resid, np.abs(frames[:, 2] - derived).max())
    return float(resid)


def integrate_frame(conn: FlatConnectionField) -> AffinePair:
    """Integrate the moving frame of real connection data to a pair.

    The plus frame solves dG = G Omega with G(0, 0) = Id (q-orthonormal,
    lift column (0, 0, 1)) through the transport kernel that holonomy
    uses (connection.grid_step_generators, the Taylor exponential at
    the degree taylor_degree picks, and transport), on (3, 3, ...)
    entry planes throughout.  _sweep carries frames from a line of
    nodes forward, exponentiating FRAME_BLOCK rows or columns at a
    time.  The lift is the third column of G.  Each minus step is
    QTILDE E^-T QTILDE of its plus step, so the minus frame is
    QTILDE G^-T QTILDE and its lift column is -QTILDE (e1 x e2) / det G
    over the plus frame's columns e1, e2: the dual affine sphere is the
    cross product of the tangent frame.  So the minus part is not
    integrated over the grid; its lift is that cross product, with
    det G left in.  Conjugating by the model frame F0 turns the
    conjugate-swap symmetry of real data into literal realness of
    f+ = F0 sigma_plus, f- = F0 sigma_minus, and eta(f+, f-) = -det G,
    which the traceless steps keep at -1 to rounding.

    Row-then-column and column-then-row orders are both integrated from
    the same exponentials, the second starting from the first's column
    0 and compared block by block, never stored; their disagreement over
    the grid is the path residual.  No sweep takes the wrap step from
    the last row or column back to the first.  The minus frame is
    integrated on its own along row 0 and column 0 only, and its lift
    column there is compared with the derived one: the dual residual.
    Each must stay below PATH_TOL spacing^2 scaled by the plus frame
    size, else PathDependent.
    """
    _require_real(conn)
    h = conn.grid.spacing
    sigma_plus, sigma_minus, resid, gmax = _integrate_part(conn)
    dual = _dual_residual(conn, sigma_minus)
    tol = PATH_TOL * h * h * max(1.0, gmax)
    for r in (resid, dual):
        if not r <= tol:
            raise PathDependent(r, tol)

    out = {}
    for part, s in zip(PARTS, (sigma_plus, sigma_minus)):
        amb = np.stack([F0[i, 0] * s[0] + F0[i, 1] * s[1] + F0[i, 2] * s[2]
                        for i in range(3)], axis=-1)
        imax = float(np.max(np.abs(amb.imag)))
        if imax > 1e-7 * max(1.0, float(np.max(np.abs(amb)))):
            raise NotReal(f"projected {part} lift has imaginary part {imax:.3e}")
        out[part] = amb.real
    return AffinePair(out["plus"], out["minus"], h, path_residual=resid,
                      dual_residual=dual)


# ----------------------------------------------------------------------
# structure equations and the Pick form

def _fit_structure(pair: AffinePair):
    """Node-wise fit of the affine structure equations of f+.

    Returns (gB, xi, S, C_sym): Blaschke metric from the decomposition
    of second derivatives in the frame {f_x, f_y, f}, affine normal
    xi = (1/2) Laplace-Beltrami(gB) f in divergence form, shape
    operator from the tangential part of d(xi), and the Pick form
    C(X,Y,Z) = gB((LC(gB) - induced)(X,Y), Z), symmetrized.
    The output carries NaN margins along the seam (gB: 2, xi: 3, C: 3,
    S: 4 nodes deep).

    The fit runs FIT_ROWS grid rows at a time, each block read with
    FIT_MARGIN rows of halo on either side, wrapped across the seam:
    the longest stencil chain (f, f_y, the metric, xi, d xi, S) reaches
    4 rows, so every fitted row equals the whole-grid fit bit for bit,
    and only the outputs are grid-sized.  The frame determinant is
    gated before a block is solved, over the block and its halo (the
    seam band 2 deep left out): once a node fails, no further block is
    fitted, and DegenerateFrame reports the smallest determinant off
    that band after the last block.
    """
    f = pair.fplus
    h = pair.spacing
    n = pair.n
    gB = np.empty((n, n, 2, 2))
    xi = np.empty((n, n, 3))
    S = np.empty((n, n, 2, 2))
    C_sym = np.empty((n, n, 2, 2, 2))
    det = np.empty((n, n))
    lo = 2                               # the gate leaves out the seam band
    degenerate = False
    for r0 in range(0, n, FIT_ROWS):
        r1 = min(r0 + FIT_ROWS, n)
        rows = np.arange(r0 - FIT_MARGIN, r1 + FIT_MARGIN) % n
        block = f[rows]
        frame = np.empty((3, 3) + block.shape[:2])   # columns f_x, f_y, f
        for i in range(3):
            fi = block[..., i]
            frame[i, 0], frame[i, 1], frame[i, 2] = (
                centered_dx(fi, h), centered_dy(fi, h), fi)
        d = mat3.det(frame)
        det[r0:r1] = d[FIT_MARGIN:-FIT_MARGIN]
        gate = d[(rows >= lo) & (rows < n - lo), lo:n - lo]
        degenerate = degenerate or (gate.size > 0
                                    and np.min(np.abs(gate)) < 1e-10)
        if not degenerate:
            _fit_rows(frame, d, h, [arr[r0:r1] for arr in
                                    (gB, xi, S, C_sym)])

    if degenerate:
        raise DegenerateFrame("frame determinant reaches "
                              f"{np.min(np.abs(det[lo:-lo, lo:-lo])):.3e}")
    for arr, margin in ((gB, 2), (xi, 3), (S, FIT_MARGIN), (C_sym, 3)):
        _nan_margin(arr, margin)
    return gB, xi, S, C_sym


def _fit_rows(frame, det, h, out):
    """The structure fit of one row block, from its frame planes
    (3, 3, m, n) (columns f_x, f_y, f) and their determinant, read with
    FIT_MARGIN rows of halo on either side.

    Writes the block's rows of gB, xi, S and C_sym into `out`.  The fit
    runs on entry planes: the right-hand sides are (3, 3, m, n) planes
    too (rows the components, columns the vectors), both solves share
    the frame's adjugate and determinant, and the 2x2 metric and Pick
    algebra is written out entry by entry over the independent entries
    (g_00, g_01, g_11; Christoffel and Pick entries up to symmetry).
    """
    gB, xi, S, C_sym = out
    m, n = det.shape
    rows = slice(FIT_MARGIN, m - FIT_MARGIN)
    second = np.empty((3, 3, m, n))      # columns f_xx, f_xy, f_yy
    for i in range(3):
        fx, fy = frame[i, 0], frame[i, 1]
        second[i, 0] = centered_dx(fx, h)
        second[i, 1] = centered_dy(fx, h)
        second[i, 2] = centered_dy(fy, h)
    # X = adj B / det, with adj and det shared by both solves
    adj = mat3.adj(frame)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = mat3.matmul(adj, second)      # [k, {xx, xy, yy}]
        coef /= det
    del second

    g00, g01, g11 = coef[2]
    detg = g00 * g11 - g01 ** 2
    sg = np.sqrt(np.abs(detg))
    i00, i01, i11 = g11 / detg, -g01 / detg, g00 / detg

    xib = np.empty((3, m, n))
    dxi = np.empty((3, 2, m, n))         # columns d_x xi, d_y xi
    for i in range(3):
        fx, fy = frame[i, 0], frame[i, 1]
        flux_x = sg * (i00 * fx + i01 * fy)
        flux_y = sg * (i01 * fx + i11 * fy)
        xib[i] = ((centered_dx(flux_x, h) + centered_dy(flux_y, h))
                  / (2.0 * sg))
        dxi[i, 0] = centered_dx(xib[i], h)
        dxi[i, 1] = centered_dy(xib[i], h)
    # only the tangential rows: S[k, d], component k along direction d
    with np.errstate(divide="ignore", invalid="ignore"):
        scoef = mat3.matmul(adj[:2], dxi)
        scoef /= det
    del adj, dxi
    S[:] = np.moveaxis(scoef[:, :, rows], (0, 1), (2, 3))
    xi[:] = np.moveaxis(xib[:, rows], 0, -1)
    del scoef, xib

    g = ((g00, g01), (g01, g11))
    K = coef[:2] - _christoffel(g, ((i00, i01), (i01, i11)), h)
    # C_raw[ab, c] = -g_cl K^l_ab; symmetric in (a, b), so its six
    # distinct entries give the four of the symmetrized tensor
    C = [[-(g[c][0] * K[0, ab] + g[c][1] * K[1, ab])[rows] for c in (0, 1)]
         for ab in range(3)]
    c001 = (C[0][1] + 2.0 * C[1][0]) / 3.0
    c011 = (2.0 * C[1][1] + C[2][0]) / 3.0

    gB[..., 0, 0] = g00[rows]
    gB[..., 0, 1] = gB[..., 1, 0] = g01[rows]
    gB[..., 1, 1] = g11[rows]
    C_sym[..., 0, 0, 0] = C[0][0]
    C_sym[..., 0, 0, 1] = C_sym[..., 0, 1, 0] = C_sym[..., 1, 0, 0] = c001
    C_sym[..., 0, 1, 1] = C_sym[..., 1, 0, 1] = C_sym[..., 1, 1, 0] = c011
    C_sym[..., 1, 1, 1] = C[2][1]


def _christoffel(g, ginv, spacing: float) -> np.ndarray:
    """Levi-Civita symbols of a 2x2 metric field given by its entry
    planes g[a][b] (and those of its inverse), as (2, 3, n, n) planes
    Gamma[k, ab] over ab = 00, 01, 11."""
    d = {}                               # d[a, b][l] = d_l g_ab
    for a, b in ((0, 0), (0, 1), (1, 1)):
        d[a, b] = d[b, a] = (centered_dx(g[a][b], spacing),
                             centered_dy(g[a][b], spacing))
    gam = np.empty((2, 3) + np.shape(g[0][0]))
    for ab, (a, b) in enumerate(((0, 0), (0, 1), (1, 1))):
        # first kind: Gamma_{l, ab} = (d_a g_bl + d_b g_al - d_l g_ab) / 2
        lower = [0.5 * (d[b, l][a] + d[a, l][b] - d[a, b][l])
                 for l in (0, 1)]
        for k in (0, 1):
            gam[k, ab] = ginv[k][0] * lower[0] + ginv[k][1] * lower[1]
    return gam


def structure_residuals(pair: AffinePair):
    """(gB, xi_residual, S_residual, C) of one structure fit of f+.

    xi_residual is the per-node max-norm of xi_hat - f (deviation of
    the affine normal from the position), S_residual that of S - Id.
    A hyperbolic affine sphere drives both to O(spacing^2).  C is the
    Pick form of the same fit, as blaschke_data returns it.
    """
    gB, xi, S, C = _fit_structure(pair)
    xi_res = np.max(np.abs(xi - pair.fplus), axis=-1)
    eye = np.eye(2)
    S_res = np.max(np.abs(S - eye), axis=(-2, -1))
    return gB, xi_res, S_res, C


def blaschke_data(pair: AffinePair) -> np.ndarray:
    """The Pick form of f+, as the totally symmetric (n, n, 2, 2, 2)
    tensor C of the structure fit, with a NaN margin 3 nodes deep."""
    return _fit_structure(pair)[3]


def pick_cubic(C: np.ndarray) -> np.ndarray:
    """Cubic-differential coefficient q_hat = C_xxx - i C_xxy of a Pick
    tensor C (blaschke_data).

    For the pair integrated from Wang data alpha = beta = q this
    recovers Wang's cubic q_hat = 2 alpha = 2q on the f+ side and -2q
    on the f- side.
    """
    return C[..., 0, 0, 0] - 1j * C[..., 0, 0, 1]


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
