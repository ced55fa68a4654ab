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

The connection is stored by its structure: FlatConnectionField keeps
each idempotent part of Ahat and Bhat as (n, n) entry planes and leaves
out the entries that are structurally zero (assemble writes 5 of 9, and
shares the planes that repeat); a caller may give all nine.  Every dense
3x3 grid field is held as {part: (3, 3, n, n) planes}, keyed by PARTS,
and runs on the batched kernel mat3: Omega and the step generators are
written entry by entry from the present planes, the Maurer-Cartan
residual differentiates only the present planes and multiplies only
present pairs in its commutator, and the exponentials and transported
frames stay planes.

Transport along the connection, shared by holonomy and by
affine.integrate_frame: midpoint-sampled step generators
(step_generators, which gathers Omega only at the nodes the steps
touch, for a loop; grid_step_generators, the same rule for every step
of the grid from one evaluation of Omega and a shift), one batched
exponential per idempotent component (expm_steps; the algebra splits,
so ordinary 3x3 exponentials suffice), then the ordered product
(transport).  The exponential keeps the Taylor degree table and
backward-error reasoning of Al-Mohy & Higham: taylor_degree picks the
degree from the largest step 1-norm (step_norms), once per batch, so
integrate_frame can exponentiate a grid's steps in blocks with the
degree of the whole.  mat3.expm only evaluates the chosen polynomial
more cheaply, as a Horner recurrence that Cayley-Hamilton reduces to
one plane product.  It adds the identity last, so each step keeps the
minus-part structure E_minus = QTILDE E_plus^-T QTILDE to round-off far
below ulp(1); affine.integrate_frame relies on it, integrating only the
plus part over the grid and deriving the minus lift from the plus
frame.  Steps multiply on the right, as the frame equation
dG = G Omega has it; in that order the assembled connection is flat.
Each step is G + G (E - I), its 27 products written by one broadcast
multiply into a reused buffer and summed in the order of the row-form
product mat3.matmul.  Holonomy is the product along a loop,
G(end) = G(start) H, and sections (F' = Omega F) transport by H^-1.
Holonomy is returned in the ambient gauge: conjugated by a constant
model frame F0 with F0^T Q F0 = QTILDE, after which group elements
satisfy the compatibility X_minus = Q (X_plus^-1)^T Q and the plus
part lands in SL(3,C).
"""

from __future__ import annotations

import numpy as np

from . import mat3
from ._frozen import Frozen
from .bicomplex import BcMat3
from .metric import BeltramiChart, CubicPair, TorusGrid

__all__ = [
    "F0", "PARTS", "FlatConnectionField", "Loop", "max_abs",
    "assemble", "maurer_cartan_residual",
    "step_generators", "grid_step_generators", "step_norms", "taylor_degree",
    "expm_steps", "transport",
    "holonomy",
]

# constant model frame over the ambient form diag(1,1,-1); its columns have
# Gram QTILDE, and F0 F0^T diag(1,1,-1) F0 F0^T = diag(1,1,-1)
_RT2 = np.sqrt(2.0)
F0 = np.array([[1.0 / _RT2, 1.0 / _RT2, 0.0],
               [1j / _RT2, -1j / _RT2, 0.0],
               [0.0, 0.0, 1.0]], dtype=complex)
F0_INV = np.linalg.inv(F0)

#: theta_m for the degree-m truncated Taylor series of exp: for
#: ||S||_1 <= theta_m the series is exact up to a backward error of unit
#: roundoff in double precision (the backward-error analysis of Al-Mohy
#: & Higham, SIAM J. Matrix Anal. Appl. 31 (2009), applied to Taylor
#: approximants in Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011)).
#: Entry m - 1 holds theta_m.
TAYLOR_THETA = (2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3,
                2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1,
                4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09)


#: Idempotent parts, in storage order.
PARTS = ("plus", "minus")


def max_abs(*fields) -> float:
    """Largest |entry| over the parts of {part: planes} fields; NaN if
    any entry is NaN (np.max propagates it, Python's max would not)."""
    return float(np.max([np.abs(P).max() for field in fields
                         for P in field.values()]))


def _distinct(planes: dict):
    """The distinct arrays of an entry-plane mapping (shared planes once)."""
    return {id(p): p for part in planes.values()
            for p in part.values()}.values()


class FlatConnectionField(Frozen):
    """Frame connection matrices Ahat, Bhat over a Beltrami chart,
    stored as entry planes.

    Omega = (Ahat/dwz) dz + (Bhat/dzbwb) dwbar.  Ahat and Bhat are each
    given as {part: {(i, j): (n, n) plane}}, the structurally zero
    entries left out (assemble) or all nine present; one array may
    stand for several entries.  The planes are kept read-only in
    `planes`, keyed "Ahat"/"Bhat", then part.  Both matrices are traceless by
    construction (enforced here, as are finite entries and s2), and the
    idempotent parts of well-formed data satisfy
    M_minus = -QTILDE M_plus^T QTILDE, the infinitesimal form of
    preservation of the frame Gram matrix.
    """

    __slots__ = ("planes", "chart", "s2")

    def __init__(self, Ahat, Bhat, chart: BeltramiChart, s2):
        n = chart.grid.n
        planes = {name: {part: dict(field[part]) for part in PARTS}
                  for name, field in (("Ahat", Ahat), ("Bhat", Bhat))}
        s2 = chart.grid.field(s2)
        if not np.isfinite(s2).all():
            raise ValueError("s2 has non-finite entries")
        for name, field in planes.items():
            arrays = _distinct(field)
            if any(p.shape != (n, n) for p in arrays):
                raise ValueError("connection fields do not match the chart "
                                 "grid")
            if not all(np.isfinite(p).all() for p in arrays):
                raise ValueError(f"{name} has non-finite entries")
            scale = max([1.0] + [float(np.abs(p).max()) for p in arrays])
            worst = max(float(np.abs(sum(part.get((i, i), 0.0)
                                         for i in range(3))).max())
                        for part in field.values())
            if worst > 1e-12 * scale:
                raise ValueError(f"{name} has nonzero trace ({worst:.2e})")
            for p in arrays:
                p.flags.writeable = False
        self._set(planes=planes, chart=chart, s2=s2)

    @property
    def grid(self) -> TorusGrid:
        return self.chart.grid

    def max_abs(self) -> float:
        """Largest |entry| of Ahat and Bhat over the grid."""
        return max(float(np.abs(p).max()) for field in self.planes.values()
                   for p in _distinct(field))

    def flatness_residual(self) -> float:
        """Max-abs of the Maurer-Cartan residual.

        This is the flatness check: holonomy does not run it, and the
        holonomy of data that is not flat depends on the loop, not only
        on its class.
        """
        return max_abs(maurer_cartan_residual(self))

    def __repr__(self):
        return f"FlatConnectionField(n={self.grid.n})"


def _omega_at(conn: FlatConnectionField, part: str, leg: int, iy, ix
              ) -> np.ndarray:
    """One idempotent part of Omega(d_x) (leg 0) or Omega(d_y) (leg 1)
    at the nodes [iy, ix], as (3, 3, ...) planes.

    dz(d_x) = 1, dz(d_y) = i, and the wbar leg uses
    wbar_x = (1 - conj(mu)) dzbwb, wbar_y = -i (1 + conj(mu)) dzbwb,
    so the dzbwb factors cancel against the Bhat normalization.  Each
    entry is fa A_ij + fb B_ij over the planes present; an entry absent
    from both stays zero.
    """
    c = conn.chart
    mub = np.conj(c.mu[iy, ix])
    if leg == 0:
        fa, fb = 1.0 / c.dwz[iy, ix], 1.0 - mub
    else:
        fa, fb = 1j / c.dwz[iy, ix], -1j * (1.0 + mub)
    A = conn.planes["Ahat"][part]
    B = conn.planes["Bhat"][part]
    out = np.zeros((3, 3) + fa.shape, dtype=complex)
    for ij, p in A.items():
        np.multiply(fa, p[iy, ix], out=out[ij])
    for ij, p in B.items():
        if ij in A:
            out[ij] += fb * p[iy, ix]
        else:
            np.multiply(fb, p[iy, ix], out=out[ij])
    return out


class Loop(Frozen):
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
        self._set(n=n, steps=steps)

    @classmethod
    def x_period(cls, n: int) -> "Loop":
        return cls(n, ((1, 0),) * n)

    @classmethod
    def y_period(cls, n: int) -> "Loop":
        return cls(n, ((0, 1),) * n)

    def __repr__(self):
        return f"Loop(n={self.n}, {len(self.steps)} steps)"


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
    -1 to the minus part of the cubic entries.  The field keeps the 5
    structural entries of each matrix and part as planes, the entries
    that repeat as one array: a, -a, b, -b, s and the signed cubic
    entries, nine (n, n) planes in all.
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

    A = {(0, 0): a11, (1, 1): -a11, (1, 2): s, (2, 0): s}
    B = {(0, 0): b11, (1, 1): -b11, (0, 2): s, (2, 1): s}
    Ahat = {"plus": A | {(0, 1): -pA}, "minus": A | {(0, 1): pA}}
    Bhat = {"plus": B | {(1, 0): -rB}, "minus": B | {(1, 0): rB}}
    return FlatConnectionField(Ahat, Bhat, chart, s2)


def maurer_cartan_residual(conn: FlatConnectionField) -> dict:
    """d Omega + Omega ^ Omega contracted to the frame coefficient

        Bhat_w - logB Bhat - Ahat_zbar + logA Ahat + [Ahat, Bhat],

    zero exactly for constant exact data and O(spacing^2) for smooth
    solved data.  The logA/logB terms are the commutator coefficients of
    the (d_w, d_zbar) frame acting on the matrix legs.  The residual is
    evaluated entry by entry on the connection's planes: the stencils
    run only on the planes present, an absent plane enters as a scalar
    zero, and each commutator entry sums, left to right over k, only the
    products A_ik B_kj (and B_ik A_kj) whose factors are both present, so
    the result equals the dense evaluation bit for bit up to the sign of
    a zero.  Returned dense, as {part: (3, 3, n, n) planes}: its
    entries that the structure leaves out of Ahat and Bhat need not
    vanish.
    """
    c = conn.chart
    n = conn.grid.n
    # the derivative terms of a plane that stands for several entries
    # (or both parts) are computed once, keyed by the array
    b_terms = {id(b): c.d_w(b) - c.logB * b
               for b in _distinct(conn.planes["Bhat"])}
    a_terms = {id(a): (c.grid.dzb(a), c.logA * a)
               for a in _distinct(conn.planes["Ahat"])}
    out = {}
    for part in PARTS:
        A = conn.planes["Ahat"][part]
        B = conn.planes["Bhat"][part]
        r = np.zeros((3, 3, n, n), dtype=complex)
        for i in range(3):
            for j in range(3):
                rb = b_terms[id(B[i, j])] if (i, j) in B else 0.0
                dzb_a, la = (a_terms[id(A[i, j])] if (i, j) in A
                             else (0.0, 0.0))
                r[i, j] = rb - dzb_a + la + (_product_entry(A, B, i, j)
                                             - _product_entry(B, A, i, j))
        out[part] = r
    return out


def _product_entry(A: dict, B: dict, i: int, j: int):
    """Entry (i, j) of A B from entry planes, summed left to right over
    the k whose A_ik and B_kj are both present; 0.0 if there is none."""
    acc = None
    for k in range(3):
        if (i, k) in A and (k, j) in B:
            term = A[i, k] * B[k, j]
            acc = term if acc is None else acc + term
    return 0.0 if acc is None else acc


def step_generators(conn: FlatConnectionField, iy, ix, diy, dix,
                    part: str) -> np.ndarray:
    """Midpoint generators of the grid steps (ix, iy) -> (ix+dix, iy+diy)
    in one idempotent part ("plus" or "minus").

    Omega is sampled as the average of its values at the two endpoint
    nodes (indices wrap around the torus) and contracted with the step
    displacement h (dix, diy).  The four index arguments broadcast
    together to a batch shape; the result is the (3, 3, *batch)
    generator planes, whose exponentials transport a frame across each
    step.  Omega is read only at the endpoint nodes, and a leg whose
    displacement is zero across the batch is skipped.
    """
    iy, ix, diy, dix = np.broadcast_arrays(iy, ix, diy, dix)
    n = conn.grid.n
    jy, jx = (iy + diy) % n, (ix + dix) % n
    S = np.zeros((3, 3) + iy.shape, dtype=complex)
    for leg, w in ((0, dix), (1, diy)):
        if np.any(w):
            S += ((_omega_at(conn, part, leg, iy, ix)
                   + _omega_at(conn, part, leg, jy, jx)) * w)
    S *= 0.5 * conn.grid.spacing
    return S


def grid_step_generators(conn: FlatConnectionField, part: str,
                         leg: int) -> np.ndarray:
    """Midpoint generators of every unit grid step along x (leg 0:
    (ix, iy) -> (ix+1, iy)) or along y (leg 1: (ix, iy) -> (ix, iy+1)),
    as (3, 3, n, n) planes indexed [.., iy, ix] by the node each step
    leaves.

    The rule of step_generators on the whole grid, with Omega evaluated
    once over the grid and its start and end values added through
    shifted slices instead of gathered at both ends of every edge; the
    sum runs in the same order, so the two agree bit for bit.
    """
    O = _omega_at(conn, part, leg, slice(None), slice(None))
    S = np.empty_like(O)
    # Omega(start) + Omega(end), shifted along x (axis 3) or y (axis 2)
    ahead = (slice(None),) * (3 - leg)
    np.add(O[ahead + (slice(0, -1),)], O[ahead + (slice(1, None),)],
           out=S[ahead + (slice(0, -1),)])
    np.add(O[ahead + (-1,)], O[ahead + (0,)], out=S[ahead + (-1,)])
    S *= 0.5 * conn.grid.spacing
    return S


def step_norms(S: np.ndarray) -> np.ndarray:
    """1-norm of every matrix of (3, 3, ...) planes: the largest column
    sum of |S_ij| over i, as a (...) array."""
    norms = None
    for j in range(3):
        col = np.abs(S[0, j])
        col += np.abs(S[1, j])
        col += np.abs(S[2, j])
        norms = col if norms is None else np.maximum(norms, col)
    return norms


def taylor_degree(norm: float) -> tuple[int, int]:
    """(degree, squarings) of the Taylor exponential for steps whose
    1-norm is at most `norm`: the smallest degree m with
    TAYLOR_THETA[m - 1] >= the norm, after scaling by 2^-s when the
    norm exceeds the last entry of the table.  A non-finite norm raises
    ValueError."""
    norm = float(norm)
    if not np.isfinite(norm):
        raise ValueError(f"non-finite step generator (1-norm {norm})")
    s = 0
    if norm > TAYLOR_THETA[-1]:
        s = int(np.ceil(np.log2(norm / TAYLOR_THETA[-1])))
        norm /= 2.0 ** s
    m = next(k for k, theta in enumerate(TAYLOR_THETA, 1) if norm <= theta)
    return m, s


def expm_steps(S: np.ndarray) -> np.ndarray:
    """exp of every matrix of (3, 3, ...) planes, as planes.

    Truncated Taylor series, its degree and squarings chosen by
    taylor_degree from the largest 1-norm in the batch (step_norms).
    The arithmetic runs on the plane kernel (mat3.expm, Horner reduced
    by Cayley-Hamilton), entry by entry over the batch, so a caller may
    exponentiate a batch in blocks with the degree of the whole.  An
    empty batch is returned empty; a non-finite entry raises ValueError.
    """
    return mat3.expm(S, *taylor_degree(step_norms(S).max(initial=0.0)))


def transport(E: np.ndarray, start=None, out=None) -> np.ndarray:
    """Frames along a path of steps; steps multiply on the right.

    G_0 = start (the identity by default) and G_{k+1} = G_k E_k, the
    discrete frame equation dG = G Omega.  E holds (3, 3, K, ...)
    planes of K steps along its third axis, each one matrix or a batch
    carried side by side.  Returns the (3, 3, K + 1, ...) frames,
    written into out if given: a strided (even reversed) view of a
    larger array, filled in place.

    Each product is evaluated as G_k + G_k (E_k - I).  A step is close
    to the identity, so the increment E_k - I is small and exact
    (E_ii - 1 loses nothing), its product rounds far below ulp(G_k), and
    each frame entry takes about one rounding of its own size per step
    instead of one per product term: over the n steps of a grid sweep
    this halves the round-off that the structure fit's third
    differences amplify.  The 27 products G_il (E_k - I)_lj of a step
    are written by one broadcast multiply into a reused (3, 3, 3, ...)
    buffer indexed [l, i, j] and reduced over its outer axis, which adds
    them in order, (l = 0 + l = 1) + l = 2, before G_k is added: the
    sums of the row-form product mat3.matmul, bit for bit, in three
    NumPy calls per step.
    """
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
    # [l, i, None] and [l, None, j]: column l of G against row l of the
    # increment
    Gl, D = out.swapaxes(0, 1)[:, :, None], D[:, None]
    P = np.empty((3,) + out.shape[:2] + out.shape[3:], dtype=out.dtype)
    for k in range(E.shape[2]):
        nxt = out[:, :, k + 1]
        np.multiply(Gl[:, :, :, k], D[:, :, :, k], out=P)
        np.add.reduce(P, axis=0, out=nxt)      # (l = 0 + l = 1) + l = 2
        nxt += out[:, :, k]
    return out


def holonomy(conn: FlatConnectionField, loop: Loop) -> BcMat3:
    """Path-ordered product of step exponentials of Omega along the loop.

    Each step samples Omega at the segment midpoint (average of the two
    endpoint node values) and exponentiates per idempotent component;
    the steps multiply on the right in traversal order (transport), so
    a frame carried around the loop returns as G(end) = G(start) H.
    All steps of one component go through one batched exponential.

    The frame-basis product (group condition wrt QTILDE) is returned
    in the ambient gauge, conjugated by the constant model frame F0,
    after which X_minus = Q (X_plus^-1)^T Q with Q = diag(1,1,-1).

    The holonomy of data that is not flat depends on the loop, not only
    on its class; holonomy does not check flatness, and
    FlatConnectionField.flatness_residual is that check.
    """
    g = conn.grid
    if loop.n != g.n:
        raise ValueError("loop and connection grids differ")
    d = np.array(loop.steps)                    # (steps, 2): (dix, diy)
    start = np.cumsum(d, axis=0) - d            # node each step leaves
    # the two parts' steps side by side, transported together
    E = np.stack([expm_steps(step_generators(
        conn, start[:, 1] % g.n, start[:, 0] % g.n, d[:, 1], d[:, 0], part))
        for part in PARTS], axis=-1)
    H = transport(E)[:, :, -1]
    return BcMat3(*(F0 @ H[..., k] @ F0_INV for k in range(len(PARTS))))
