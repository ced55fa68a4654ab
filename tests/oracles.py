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
closed form.  The Newton step's GMRES is checked against
scipy.sparse.linalg.gmres (scipy_gmres), the solver it replaced.

Three references restate the package's own second-order stencils in
a plainer form that copies, to pin the package's form bit for bit: the
centered differences as the difference of two np.roll copies, d_w as
dwz (d_z + conj(mu) d_zbar) with d_z and d_zbar each taking their own
x and y differences, and Delta_h as one expression that rebuilds its
three coefficient fields on every call.

The connection has dense references on (n, n, 3, 3) stacks, where the
package works on entry planes and leaves structural zeros out: the
dense assembly (through the restated stencils, so it pins the
package's entries bit for bit), the dense Maurer-Cartan residual with
np.matmul for its commutator, and transport as a loop of np.matmul
products.  matmul_in_order writes out the product order that the
package documents for its plane kernel, entry by entry.

Whole-grid references pin the streamed and blocked routes of the
package bit for bit: transport_row_form steps G + mat3.matmul(G, E - I)
(the package's transport sums the same products in one buffer),
integrate_part_sweeps integrates the frame of either idempotent part
from whole-grid step exponentials, sweeping both orders into full frame
fields, and takes the dual lift column from its np.cross;
strip_connection writes the connection of the C = 0 strip datum in
closed form, the one non-constant geometry that the tests integrate;
fit_structure_whole fits the structure equations over the whole grid
at once.  solve is the adjugate solve X = adj(A) B / det(A) on planes.

The word scan's conjugacy classes have a string route: reduced_words
lists the words in the scan's order with itertools.product, and
class_representative cyclically reduces a word and takes the least
rotation of it and of its inverse, letter by letter, where the package
works on integer codes.

stacked turns (3, 3, ...) planes back into a (..., 3, 3) stack, for
comparing the package's planes with stack references, and entry_mapping
turns dense {part: planes} fields into the entry mappings that
FlatConnectionField takes, with all nine entries present.

The last section holds the reference routes that no program path
runs, as the package once held them (a method there is a function of
its object here): the connection's dense planes, Omega on the whole
grid, the pairing residual, the Higgs split with its Hitchin halves,
the reduced system and the constant frame change; the intrinsic Gauss
residual; the metric curvature and the chart's consistency residual;
the C_tau isclose, tau-conjugate and (1, tau)-part constructor; the
conormal residual of a pair and the Wang identity of a Blaschke metric.

wang_problem builds the tests' Wang data through config.build_problem,
the one route from config values to a GaussProblem.
"""

import itertools

import numpy as np
from scipy.linalg import expm, null_space
from scipy.sparse.linalg import LinearOperator, gmres

from bchyp import mat3
from bchyp._frozen import Frozen
from bchyp.affine import (
    FIT_MARGIN, DegenerateFrame, _christoffel, _nan_margin, eta,
)
from bchyp.bicomplex import Bicomplex, as_bicomplex
from bchyp.config import build_problem
from bchyp.connection import (
    PARTS, FlatConnectionField, _omega_at, expm_steps, grid_step_generators,
    max_abs, maurer_cartan_residual, transport,
)
from bchyp.metric import (
    BeltramiChart, ComplexMetric, TorusGrid, centered_dx, centered_dy,
    laplacian,
)
from bchyp.replib import (COND_TOL, DET_DRIFT, DET_TOL, GAP_FLOOR, GAP_TOL,
                          NotDiagonalizable, NotUnimodular)


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


def laplacian_per_call(metric, phi: np.ndarray) -> np.ndarray:
    """Delta_h phi through the restated 2nd-order stencils, with
    2 e^{-2 psi} / dzbwb, conj(mu) and logB / dwz built on every call and
    every term applied, zero or not."""
    h = metric.grid.spacing
    c = metric.chart
    phi_zb = dzb_roll(phi, h)
    fx, fy = dx_roll(phi_zb, h), dy_roll(phi_zb, h)
    bracket = (0.5 * (fx - 1j * fy)
               + np.conj(c.mu) * (0.5 * (fx + 1j * fy))
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
    """Holonomy as the right-ordered product of per-step expm (frame
    convention: a frame carried around the loop returns as G H).

    Each step (dix, diy) from node (ix, iy) exponentiates the midpoint
    rule h/2 [(Ox(start) + Ox(end)) dix + (Oy(start) + Oy(end)) diy] of
    each idempotent part.  With F0 given, the result is conjugated to
    F0 H F0^-1 (the ambient gauge).  Returns (plus, minus).
    """
    Ox, Oy = omega_xy(conn)
    n, h = conn.grid.n, conn.grid.spacing
    out = []
    for part in ("plus", "minus"):
        ox, oy = Ox[part], Oy[part]
        H = np.eye(3, dtype=complex)
        ix = iy = 0
        for dix, diy in loop.steps:
            jx, jy = (ix + dix) % n, (iy + diy) % n
            S = 0.5 * h * ((ox[:, :, iy, ix] + ox[:, :, jy, jx]) * dix
                           + (oy[:, :, iy, ix] + oy[:, :, jy, jx]) * diy)
            H = H @ expm(S)
            ix, iy = jx, jy
        if F0 is not None:
            H = F0 @ H @ np.linalg.inv(F0)
        out.append(H)
    return tuple(out)


def assemble_dense(psi, C, chart):
    """The connection matrices of assemble as dense (n, n, 3, 3) stacks
    (Ahat_plus, Ahat_minus, Bhat_plus, Bhat_minus), every structural
    zero written out, the derivatives through the restated stencils."""
    h = chart.grid.spacing
    psi = chart.grid.field(psi)
    dwz, dzbwb = chart.dwz, chart.dzbwb
    s2 = np.exp(2.0 * psi) * dwz * dzbwb
    s = np.sqrt(s2)
    a = (-d_w_two_pass(chart, psi) + 0.5 * chart.logB
         - 0.5 * d_w_two_pass(chart, dwz) / dwz)
    b = (dzb_roll(psi, h) + 0.5 * dzb_roll(dzbwb, h) / dzbwb
         - 0.5 * chart.logA)
    pA = C.alpha * dwz ** 3 / s2
    rB = np.conj(C.beta) * dzbwb ** 3 / s2
    n = chart.grid.n
    out = []
    for tau in (1.0, -1.0):
        A = np.zeros((n, n, 3, 3), dtype=complex)
        B = np.zeros((n, n, 3, 3), dtype=complex)
        A[..., 0, 0], A[..., 1, 1] = a, -a
        A[..., 1, 2] = A[..., 2, 0] = s
        A[..., 0, 1] = -pA if tau > 0 else pA
        B[..., 0, 0], B[..., 1, 1] = b, -b
        B[..., 0, 2] = B[..., 2, 1] = s
        B[..., 1, 0] = -rB if tau > 0 else rB
        out.append((A, B))
    (Ap, Bp), (Am, Bm) = out
    return Ap, Am, Bp, Bm


def maurer_cartan_dense(A, B, chart):
    """B_w - logB B - A_zbar + logA A + [A, B] for one idempotent part
    given as dense (n, n, 3, 3) stacks; the commutator by np.matmul."""
    h = chart.grid.spacing
    lA, lB = chart.logA[..., None, None], chart.logB[..., None, None]
    return (d_w_two_pass(chart, B) - lB * B - dzb_roll(A, h) + lA * A
            + (A @ B - B @ A))


def matmul_in_order(A, B):
    """A @ B on (..., 3, 3) stacks with every entry summed left to
    right, (A_i0 B_0j + A_i1 B_1j) + A_i2 B_2j, one entry at a time."""
    out = np.empty(np.broadcast_shapes(A.shape, B.shape),
                   dtype=np.result_type(A, B))
    for i in range(3):
        for j in range(3):
            out[..., i, j] = ((A[..., i, 0] * B[..., 0, j]
                               + A[..., i, 1] * B[..., 1, j])
                              + A[..., i, 2] * B[..., 2, j])
    return out


def transport_matmul(E, start=None):
    """Frames G_0 = start (identity by default), G_{k+1} = G_k E_k for a
    (K, ..., 3, 3) stack of steps, by np.matmul; (K + 1, ..., 3, 3)."""
    G = [np.broadcast_to(np.eye(3), E.shape[1:]) if start is None
         else start]
    for Ek in E:
        G.append(G[-1] @ Ek)
    return np.array(G)


def transport_row_form(E, start=None, out=None):
    """connection.transport on (3, 3, K, ...) planes with each step
    evaluated as G_k + mat3.matmul(G_k, E_k - I), the row-form product
    written into the next frame and G_k added to it."""
    E = np.asarray(E)
    if out is None:
        out = np.empty(E.shape[:2] + (E.shape[2] + 1,) + E.shape[3:],
                       dtype=E.dtype)
    if start is None:
        start = np.eye(3).reshape((3, 3) + (1,) * (E.ndim - 3))
    out[:, :, 0] = start
    D = E.copy()
    for i in range(3):
        D[i, i] -= 1.0
    for k in range(E.shape[2]):
        G = out[:, :, k + 1]
        mat3.matmul(out[:, :, k], D[:, :, k], out=G)
        G += out[:, :, k]
    return out


def stacked(P) -> np.ndarray:
    """(m, k, ...) planes -> contiguous (..., m, k) stack."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(P), (0, 1), (-2, -1)))


def entry_mapping(field):
    """{part: {(i, j): (n, n) plane}} with all nine entries, from a dense
    {part: (3, 3, n, n) planes} field."""
    return {part: {(i, j): np.ascontiguousarray(P[i, j])
                   for i in range(3) for j in range(3)}
            for part, P in field.items()}


def constant_planes(K, M: np.ndarray) -> np.ndarray:
    """A constant matrix K (m, k) as planes of the batch shape of planes
    M (a broadcast view), so that mat3.matmul takes it with M."""
    K = np.asarray(K)
    K = K.reshape(K.shape + (1,) * (M.ndim - 2))
    return np.broadcast_to(K, K.shape[:2] + M.shape[2:])


def solve(A, B):
    """X with A X = B for planes A (3, 3, ...) and B (3, k, ...) or a
    constant B (3, k), as adj(A) B / det(A); a singular A gives
    non-finite entries without a warning."""
    A, B = np.asarray(A), np.asarray(B)
    if B.ndim < A.ndim:
        B = constant_planes(B, A)
    X = mat3.matmul(mat3.adj(A), B)
    with np.errstate(divide="ignore", invalid="ignore"):
        X /= mat3.det(A)
    return X


def _sweep(Ex, Ey):
    """Frames over the grid from node (0, 0), row then column, from
    whole-grid (3, 3, ny, nx) step exponentials, the wrap steps left
    out."""
    G = np.empty_like(Ex)
    row = G[:, :, 0]
    transport(Ex[:, :, 0, :-1], out=row)
    transport(Ey[:, :, :-1], row, out=G)
    return G


def integrate_part_sweeps(conn, part):
    """affine._integrate_part from whole-grid exponentials, for either
    idempotent part: both sweep orders fill full frame fields (the
    column-then-row one over transposed copies of the exponentials),
    compared afterwards.  Returns the lift column, the dual lift column
    -QTILDE (e1 x e2) through np.cross, the order disagreement and the
    frame size."""
    Ex, Ey = (expm_steps(grid_step_generators(conn, part, leg))
              for leg in (0, 1))
    G_xy = _sweep(Ex, Ey)
    Gt = _sweep(*(np.ascontiguousarray(E.swapaxes(2, 3)) for E in (Ey, Ex)))
    entries = [(i, j) for i in range(3) for j in range(3)]
    resid = np.max([np.abs(G_xy[i, j] - Gt[i, j].T).max()
                    for i, j in entries])
    gmax = np.max([np.abs(G_xy[i, j]).max() for i, j in entries])
    # -QTILDE (e1 x e2): QTILDE exchanges the first two entries and
    # negates the third
    c = np.cross(G_xy[:, 0], G_xy[:, 1], axis=0)
    dual = np.stack([-c[1], -c[0], c[2]])
    return G_xy[:, 2].copy(), dual, float(resid), float(gmax)


def strip_connection(n):
    """The connection of the C = 0 strip datum psi = -log(sqrt(2)
    (y + 0.35)) over the identity chart on the n-grid, in closed form:
    a = -psi_z = (i/2) psi_y, b = psi_zbar = (i/2) psi_y with
    psi_y = -1 / (y + 0.35), s = e^psi, and no cubic entries.  It is
    flat, real and not constant, and it is no torus datum: only its
    wrap step from row n - 1 to row 0 is invalid, and a sweep from
    row 0 never takes it."""
    grid = TorusGrid(n)
    psi = -np.log(np.sqrt(2.0) * (grid.y + 0.35))
    a = -0.5j / (grid.y + 0.35)         # (i/2) psi_y
    s = np.exp(psi)
    A = {(0, 0): a, (1, 1): -a, (1, 2): s, (2, 0): s}
    B = {(0, 0): a, (1, 1): -a, (0, 2): s, (2, 1): s}
    return FlatConnectionField({p: A for p in PARTS}, {p: B for p in PARTS},
                               BeltramiChart.identity(grid))


def fit_structure_whole(pair):
    """affine._fit_structure over the whole grid at once: the same
    (gB, xi, S, C_sym) from grid-sized planes, with the
    degenerate-frame gate before the solves."""
    f = pair.fplus
    h = pair.spacing
    n = pair.n
    frame = np.empty((3, 3, n, n))
    second = np.empty((3, 3, n, n))
    for i in range(3):
        fi = f[..., i]
        fx, fy = centered_dx(fi, h), centered_dy(fi, h)
        frame[i, 0], frame[i, 1], frame[i, 2] = fx, fy, fi
        second[i, 0] = centered_dx(fx, h)
        second[i, 1] = centered_dy(fx, h)
        second[i, 2] = centered_dy(fy, h)
    det = mat3.det(frame)
    det_valid = det[2:n - 2, 2:n - 2]
    if float(np.min(np.abs(det_valid))) < 1e-10:
        raise DegenerateFrame(
            f"frame determinant reaches {np.min(np.abs(det_valid)):.3e}")
    adj = mat3.adj(frame)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = mat3.matmul(adj, second)
        coef /= det
    g00, g01, g11 = coef[2]
    detg = g00 * g11 - g01 ** 2
    sg = np.sqrt(np.abs(detg))
    i00, i01, i11 = g11 / detg, -g01 / detg, g00 / detg
    xi = np.empty((3, n, n))
    dxi = np.empty((3, 2, n, n))
    for i in range(3):
        fx, fy = frame[i, 0], frame[i, 1]
        flux_x = sg * (i00 * fx + i01 * fy)
        flux_y = sg * (i01 * fx + i11 * fy)
        xi[i] = ((centered_dx(flux_x, h) + centered_dy(flux_y, h))
                 / (2.0 * sg))
        dxi[i, 0] = centered_dx(xi[i], h)
        dxi[i, 1] = centered_dy(xi[i], h)
    with np.errstate(divide="ignore", invalid="ignore"):
        scoef = mat3.matmul(adj[:2], dxi)
        scoef /= det
    g = ((g00, g01), (g01, g11))
    K = coef[:2] - _christoffel(g, ((i00, i01), (i01, i11)), h)
    C = [[-(g[c][0] * K[0, ab] + g[c][1] * K[1, ab]) for c in (0, 1)]
         for ab in range(3)]
    c001 = (C[0][1] + 2.0 * C[1][0]) / 3.0
    c011 = (2.0 * C[1][1] + C[2][0]) / 3.0
    gB = np.empty((n, n, 2, 2))
    gB[..., 0, 0] = g00
    gB[..., 0, 1] = gB[..., 1, 0] = g01
    gB[..., 1, 1] = g11
    C_sym = np.empty((n, n, 2, 2, 2))
    C_sym[..., 0, 0, 0] = C[0][0]
    C_sym[..., 0, 0, 1] = C_sym[..., 0, 1, 0] = C_sym[..., 1, 0, 0] = c001
    C_sym[..., 0, 1, 1] = C_sym[..., 1, 0, 1] = C_sym[..., 1, 1, 0] = c011
    C_sym[..., 1, 1, 1] = C[2][1]
    S = np.moveaxis(scoef, (0, 1), (2, 3))
    xi = np.moveaxis(xi, 0, -1)
    return (_mask_margin(gB, 2), _mask_margin(xi, 3),
            _mask_margin(S, FIT_MARGIN), _mask_margin(C_sym, 3))


def _mask_margin(arr: np.ndarray, margin: int) -> np.ndarray:
    """NaN out the wrap-contaminated band of a field along the seam."""
    if margin <= 0:
        return arr
    out = np.array(arr, dtype=float if arr.dtype != complex else complex)
    _nan_margin(out, margin)
    return out


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


def spectra_oracle(M, length):
    """The scan's loxodromy data of N words M (N, 3, 3) from a batched
    np.linalg.eig: (moduli, gaps, stop, attracting, repelling) as
    replib._spectra returns them, with the same gates.  A numerically
    defective word is one whose gaps exceed GAP_TOL while its
    eigenvector matrix has condition above COND_TOL (an SVD); the det
    gate uses the product of the eigenvalues."""
    vals, vecs = np.linalg.eig(M)
    order = np.argsort(-np.abs(vals), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    det = vals.prod(axis=-1)
    fro = np.linalg.norm(M, axis=(1, 2))
    drift = np.abs(det - 1.0) / (length * DET_TOL + DET_DRIFT * fro ** 3)
    if not drift.max() <= 1.0:
        raise NotUnimodular(f"det {det[np.argmax(drift)]:.12g} is not 1")
    m = np.abs(vals)
    moduli = m / np.cbrt(np.abs(det))[:, None]
    gaps = np.stack([(m[:, 0] - m[:, 1]) / m[:, 0],
                     (m[:, 1] - m[:, 2]) / m[:, 1]], axis=-1)
    low = gaps.min(axis=1)
    sv = np.linalg.svd(vecs, compute_uv=False)
    defective = (low > GAP_TOL) & (sv[:, 0] > COND_TOL * sv[:, 2])
    floor = np.maximum(GAP_TOL, GAP_FLOOR * fro / m[:, 0])
    bad = np.flatnonzero(~(low > floor) | defective)
    stop = int(bad[0]) if bad.size else len(M)
    if stop < len(M) and defective[stop]:
        raise NotDiagonalizable("defective eigenvector matrix")

    def unit(V):
        return V / np.linalg.norm(V, axis=-1, keepdims=True)

    top, mid, bottom = (vecs[:stop, :, k] for k in range(3))
    attracting = np.stack([unit(top), unit(np.cross(top, mid))], axis=1)
    repelling = np.stack([unit(bottom), unit(np.cross(bottom, mid))], axis=1)
    return moduli, gaps, stop, attracting, repelling


def reduced_words(names: str, max_len: int) -> list:
    """Every reduced word in the generators `names` up to max_len, as
    strings with upper case for an inverse, in the scan's order:
    shortest first, then lexicographic in the letter order a A b B ...
    (itertools.product over that alphabet, cancelling pairs dropped)."""
    alphabet = "".join(c + c.upper() for c in names)
    return ["".join(w) for length in range(1, max_len + 1)
            for w in itertools.product(alphabet, repeat=length)
            if all(x != y.swapcase() for x, y in zip(w, w[1:]))]


def class_representative(word: str, names: str) -> tuple:
    """(representative, inverse) of a reduced word's conjugacy class, on
    strings: strip the cancelling end pairs (x ... X), then take the
    least, in the scan's letter order, of the rotations of the core and
    of the core's inverse; `inverse` says the least came from the
    inverse's rotations."""
    rank = {c: i for i, c in enumerate("".join(c + c.upper()
                                               for c in names))}
    while len(word) > 1 and word[0] == word[-1].swapcase():
        word = word[1:-1]
    back = word[::-1].swapcase()

    def least(w):
        return min((w[i:] + w[:i] for i in range(len(w))),
                   key=lambda r: [rank[c] for c in r])

    forward, backward = least(word), least(back)
    if [rank[c] for c in backward] < [rank[c] for c in forward]:
        return backward, True
    return forward, False


# ----------------------------------------------------------------------
# reference routes that no program path runs, kept for the tests that
# compare the package against them: the connection's dense planes,
# pairing residual, Higgs split, Hitchin halves and reduced system; the
# intrinsic Gauss residual; the metric curvature and chart consistency;
# the Wang identity of a Blaschke metric and the conormal of a pair

# Gram matrix of the moving frame: q(e1,e2) = 1, q(sigma,sigma) = -1
QTILDE = np.array([[0.0, 1.0, 0.0],
                   [1.0, 0.0, 0.0],
                   [0.0, 0.0, -1.0]])

# bilinear pairing defining the metric/Higgs split of the connection
HTILDE = np.array([[0.0, 1.0, 0.0],
                   [1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0]])


def _adjoint(M: np.ndarray, K: np.ndarray) -> np.ndarray:
    """K M^T K for planes M and a constant symmetric K (QTILDE, HTILDE).
    The pairings are bilinear over C_tau, so no conjugation enters and
    the adjoint respects the idempotent parts."""
    K = constant_planes(K, M)
    return mat3.matmul(mat3.matmul(K, M.swapaxes(0, 1)), K)


def dense(conn, name: str) -> dict:
    """Ahat or Bhat as {part: (3, 3, n, n) planes}, its absent
    entries written as zeros; built afresh on each call."""
    n = conn.grid.n
    out = {}
    for part in PARTS:
        M = np.zeros((3, 3, n, n), dtype=complex)
        for ij, p in conn.planes[name][part].items():
            M[ij] = p
        out[part] = M
    return out


def pairing_residual(conn) -> float:
    """Max-abs of M_minus + QTILDE M_plus^T QTILDE over both matrices.

    Zero exactly when the connection takes values in the stabilizer
    algebra of the frame Gram matrix.
    """
    gaps = []
    for name in ("Ahat", "Bhat"):
        M = dense(conn, name)
        gaps.append({"plus": M["minus"] + _adjoint(M["plus"], QTILDE),
                     "minus": M["plus"] + _adjoint(M["minus"], QTILDE)})
    return max_abs(*gaps)


def omega_xy(conn) -> tuple[dict, dict]:
    """Omega contracted with d_x and d_y over the whole grid, each as
    {part: (3, 3, n, n) planes}."""
    every = (slice(None), slice(None))
    return tuple({part: _omega_at(conn, part, leg, *every)
                  for part in PARTS} for leg in (0, 1))


class HiggsData(Frozen):
    """Metric/Higgs decomposition of the connection against HTILDE.

    dH10 + phi10 = Ahat and dH01 + phi01 = Bhat exactly: the split is the
    linear projection onto the HTILDE-skew (metric connection) and
    HTILDE-symmetric (Higgs field) parts, per dz / dwbar leg.  Each of
    the four is {part: (3, 3, n, n) planes}.
    """

    __slots__ = ("metricH", "dH10", "dH01", "phi10", "phi01")

    def __init__(self, metricH, dH10, dH01, phi10, phi01):
        self._set(metricH=np.asarray(metricH, dtype=float), dH10=dH10,
                  dH01=dH01, phi10=phi10, phi01=phi01)

    def reconstruction_residual(self, conn) -> float:
        gaps = []
        for name, dH, phi in (("Ahat", self.dH10, self.phi10),
                              ("Bhat", self.dH01, self.phi01)):
            M = dense(conn, name)
            gaps.append({part: dH[part] + phi[part] - M[part]
                         for part in PARTS})
        return max_abs(*gaps)


def reduced_system_residual(psi, C, chart):
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


def _h_halves(field: dict) -> tuple[dict, dict]:
    """(HTILDE-skew, HTILDE-symmetric) halves of {part: planes}, which
    sum back to the field."""
    skew, sym = {}, {}
    for part, M in field.items():
        Ms = _adjoint(M, HTILDE)
        skew[part] = 0.5 * (M - Ms)
        sym[part] = 0.5 * (M + Ms)
    return skew, sym


def higgs_split(conn) -> HiggsData:
    """Split Omega into metric-connection and Higgs parts against HTILDE.

    The HTILDE-skew half of each leg is the pairing-compatible connection
    (dH10 from Ahat, dH01 from Bhat); the HTILDE-symmetric half is the
    Higgs field (phi10, phi01).  For a datum with constant chart factors
    and psi, dH vanishes and phi carries the cubic and s entries.
    """
    dH10, phi10 = _h_halves(dense(conn, "Ahat"))
    dH01, phi01 = _h_halves(dense(conn, "Bhat"))
    return HiggsData(HTILDE.copy(), dH10, dH01, phi10, phi01)


def hitchin_residuals(conn) -> tuple[dict, dict]:
    """(curvature part, holomorphy part) of the flatness residual.

    The HTILDE-skew projection of the Maurer-Cartan residual is the
    curvature sub-equation (metric curvature + phi ^ phi adjoint term);
    the HTILDE-symmetric projection is the holomorphy sub-equation for
    the Higgs field.  Their sum reconstructs the full residual exactly.
    """
    return _h_halves(maurer_cartan_residual(conn))


def conjugate_frame(conn, g):
    """Constant frame change F -> F g; the coefficients map to g^-1 M g.

    For g in the stabilizer group of QTILDE this preserves the pairing
    residual exactly; holonomies conjugate by the same g.
    """
    def cf(name: str) -> dict:
        M = dense(conn, name)
        out = {}
        for part in PARTS:
            gp = getattr(g, part)
            gi = constant_planes(np.linalg.inv(gp), M[part])
            P = mat3.matmul(mat3.matmul(gi, M[part]),
                            constant_planes(gp, M[part]))
            out[part] = {(i, j): P[i, j] for i in range(3) for j in range(3)}
        return out

    return FlatConnectionField(cf("Ahat"), cf("Bhat"), conn.chart)


def scipy_gmres(apply, precondition, b: np.ndarray):
    """(x, iterations, info) of scipy.sparse.linalg.gmres on apply(x) = b,
    left-preconditioned by precondition, with the settings of the Newton
    step: restart 50, 20 cycles, relative residual 1e-12."""
    A = LinearOperator((b.size, b.size), matvec=apply, dtype=complex)
    M = LinearOperator(A.shape, matvec=precondition, dtype=complex)
    count = 0

    def tick(_):
        nonlocal count
        count += 1

    x, info = gmres(A, b, rtol=1e-12, atol=0.0, restart=50, maxiter=20,
                    M=M, callback=tick, callback_type="pr_norm")
    return x, count, info


def residual_intrinsic(psi, problem) -> np.ndarray:
    """Delta_h psi + alpha conj(beta) e^{-6 psi} - 1 in the unknown h."""
    psi = problem.grid.field(psi)
    h = ComplexMetric(problem.background.chart, psi)
    ab = problem.C.alpha * np.conj(problem.C.beta)
    return laplacian(h, psi) + ab * np.exp(-6 * psi) - 1.0


def curvature(h) -> np.ndarray:
    """Complex Gaussian curvature K_h = -Delta_h psi."""
    return -laplacian(h, h.psi)


def stencil_logs(grid, mu, dwz, dzbwb):
    """Commutator coefficients (logA, logB) of a chart from the grid's
    2nd-order stencils: logA = d_zbar(dwz) / dwz and
    logB = dwz (d_z + conj(mu) d_zbar)(dzbwb) / dzbwb."""
    dz = 0.5 * (grid.dx(dzbwb) - 1j * grid.dy(dzbwb))
    logA = grid.dzb(dwz) / dwz
    logB = dwz * (dz + np.conj(mu) * grid.dzb(dzbwb)) / dzbwb
    return logA, logB


def consistency_residual(chart) -> float:
    """Max-abs gap between supplied and stencil-computed commutator
    coefficients; O(spacing^2) for genuinely smooth chart data."""
    la, lb = stencil_logs(chart.grid, chart.mu, chart.dwz, chart.dzbwb)
    return float(max(np.abs(chart.logA - la).max(),
                     np.abs(chart.logB - lb).max()))


def isclose(a, b, tol: float = 1e-12) -> bool:
    a = as_bicomplex(a)
    b = as_bicomplex(b)
    return abs(a.z1 - b.z1) <= tol and abs(a.z2 - b.z2) <= tol


def tau_conj(w):
    """conj_tau(z1 + tau z2) = z1 - tau z2, the multiplicative
    involution of C_tau that fixes C."""
    return Bicomplex(w.z1, -w.z2)


def tau_parts(cls, x, y):
    """The pair (BcVec3 or BcMat3) of w = x + tau y for complex arrays
    x, y: parts plus = x + y, minus = x - y."""
    x, y = (np.asarray(v, dtype=complex).reshape(cls.SHAPE) for v in (x, y))
    return cls(x + y, x - y)


def conormal_residual(pair, margin: int = 1) -> np.ndarray:
    """max(|eta(d_x f+, f-)|, |eta(d_y f+, f-)|) per node, NaN on the
    `margin` seam band (0 for a pair that wraps across the seam)."""
    cx = eta(centered_dx(pair.fplus, pair.spacing), pair.fminus)
    cy = eta(centered_dy(pair.fplus, pair.spacing), pair.fminus)
    res = np.maximum(np.abs(cx), np.abs(cy))
    return _mask_margin(res, margin)


def _gauss_curvature(gB: np.ndarray, spacing: float) -> np.ndarray:
    """Sectional curvature K = R_0101 / det g of a 2x2 metric field."""
    g00, g01, g11 = gB[..., 0, 0], gB[..., 0, 1], gB[..., 1, 1]
    detg = g00 * g11 - g01 ** 2
    i00, i01, i11 = g11 / detg, -g01 / detg, g00 / detg
    gam = _christoffel(((g00, g01), (g01, g11)), ((i00, i01), (i01, i11)),
                       spacing)
    # R^i_{1,0,1} = D_0 Gam^i_11 - D_1 Gam^i_01 + Gam^i_0m Gam^m_11
    #                                            - Gam^i_1m Gam^m_01
    R = [centered_dx(gam[i, 2], spacing) - centered_dy(gam[i, 1], spacing)
         + (gam[i, 0] * gam[0, 2] + gam[i, 1] * gam[1, 2])
         - (gam[i, 1] * gam[0, 1] + gam[i, 2] * gam[1, 1])
         for i in (0, 1)]
    return (g00 * R[0] + g01 * R[1]) / detg


def pick_and_wang(gB, spacing: float, q) -> np.ndarray:
    """Pointwise Wang residual K_gB - 2 |q|^2_gB + 1 of a Blaschke metric
    field gB (structure_residuals).

    q is the cubic coefficient field (extracted via pick_cubic or known
    analytically); its squared norm is |q|^2 (det gB)^(-3/2).  The
    residual vanishes to O(spacing^2) on data extracted from a solved
    Hitchin-locus connection, and reduces to K + 1 for q = 0.
    """
    qf = np.asarray(q)
    K = _gauss_curvature(gB, spacing)
    detg = gB[..., 0, 0] * gB[..., 1, 1] - gB[..., 0, 1] ** 2
    nq2 = np.abs(qf) ** 2 * detg ** (-1.5)
    return K - 2.0 * nq2 + 1.0


def wang_problem(q, n):
    """The GaussProblem of Wang config data q on the n-grid, as a
    --config run builds it: the pair alpha = beta = q, for which Wang's
    normalized cubic differential is 2q."""
    return build_problem({"grid": n, "chart": {}, "background": {},
                          "cubic": {"kind": "wang", "q": q}})[0]
