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
residual differentiates only the present planes, multiplies only
present pairs in its commutator and reduces each entry to its max-abs
as it is formed, and the exponentials and transported frames stay
planes.

Transport along the connection, shared by holonomy and by
affine.integrate_frame: midpoint-sampled step generators
(grid_step_generators, for every step of the grid or for the steps of
one row or column, from one evaluation of Omega on the nodes the steps
leave and a shift), one batched exponential per idempotent component
(expm_steps; the algebra splits, so ordinary 3x3 exponentials
suffice), then the ordered product (transport).  The exponential keeps
the Taylor degree table and backward-error reasoning of
Al-Mohy & Higham: taylor_degree picks the degree from the largest step
1-norm (step_norms), once per batch, so integrate_frame can
exponentiate a grid's steps in blocks with the degree of the whole.
mat3.expm only evaluates the chosen polynomial more cheaply, as a
Horner recurrence that Cayley-Hamilton reduces to one plane product.
It adds the identity last, so each step keeps the minus-part structure
E_minus = QTILDE E_plus^-T QTILDE to round-off far below ulp(1);
affine.integrate_frame relies on it, integrating only the plus part
over the grid and deriving the minus lift from the plus frame.  Steps
multiply on the right, as the frame equation dG = G Omega has it; in
that order the assembled connection is flat.  Each step is
G + G (E - I), its 27 products written by one broadcast multiply into
a reused buffer and summed in the order of the row-form product
mat3.matmul.  Holonomy is the product along a period,
G(end) = G(start) H, and sections (F' = Omega F) transport by H^-1.
The torus testbed has pi_1 = Z^2, generated by the two periods, so the
holonomy of a flat datum around any loop is a word in H_x and H_y, and
holonomy computes those two: each from the steps of one grid line.
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
    "F0", "PARTS", "FlatConnectionField", "Loop", "assemble",
    "maurer_cartan_residual", "grid_step_generators", "step_norms",
    "taylor_degree", "expm_steps", "transport", "holonomy",
    "Unrepresentable",
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


class Unrepresentable(ArithmeticError):
    """A step exponential, a transported frame or a word of
    replib.anosov_scan leaves the float range, or the scan's words leave
    its int64 word codes."""


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
    construction (enforced here, as are finite entries), and the
    idempotent parts of well-formed data satisfy
    M_minus = -QTILDE M_plus^T QTILDE, the infinitesimal form of
    preservation of the frame Gram matrix.
    """

    __slots__ = ("planes", "chart")

    def __init__(self, Ahat, Bhat, chart: BeltramiChart):
        n = chart.grid.n
        planes = {name: {part: dict(field[part]) for part in PARTS}
                  for name, field in (("Ahat", Ahat), ("Bhat", Bhat))}
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
        self._set(planes=planes, chart=chart)

    @property
    def grid(self) -> TorusGrid:
        return self.chart.grid

    def max_abs(self) -> float:
        """Largest |entry| of Ahat and Bhat over the grid."""
        return max(float(np.abs(p).max()) for field in self.planes.values()
                   for p in _distinct(field))

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
    """One period of the torus grid: the n unit steps from node (0, 0)
    along x (leg 0, steps (1, 0)) or along y (leg 1, steps (0, 1)).

    The two periods generate pi_1 = Z^2, so holonomy needs no other
    loop.
    """

    __slots__ = ("n", "leg", "steps")

    def __init__(self, n: int, leg: int):
        n = int(n)
        self._set(n=n, leg=leg, steps=(((1, 0), (0, 1))[leg],) * n)

    @classmethod
    def x_period(cls, n: int) -> "Loop":
        return cls(n, 0)

    @classmethod
    def y_period(cls, n: int) -> "Loop":
        return cls(n, 1)

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
    return FlatConnectionField(Ahat, Bhat, chart)


def maurer_cartan_residual(conn: FlatConnectionField) -> float:
    """Max-abs of d Omega + Omega ^ Omega contracted to the frame
    coefficient

        Bhat_w - logB Bhat - Ahat_zbar + logA Ahat + [Ahat, Bhat],

    zero exactly for constant exact data and O(spacing^2) for smooth
    solved data: the flatness check, which holonomy does not run.  The
    logA/logB terms are the commutator coefficients of the (d_w, d_zbar)
    frame acting on the matrix legs.  Each (part, i, j) entry is formed
    from the connection's planes (_mc_entries) and at once reduced to
    its max-abs: the stencils run only on the planes present, an absent
    plane enters as a scalar zero, and each commutator entry sums, left
    to right over k, only the products A_ik B_kj (and B_ik A_kj) whose
    factors are both present.  A max is exact, so the value is the
    max-abs of the dense evaluation bit for bit, a NaN included, and no
    (3, 3, n, n) field is built.  Entries that the structure leaves out
    of Ahat and Bhat need not vanish here.
    """
    # np.max keeps a NaN, Python's max would drop it
    return float(np.max([np.abs(r).max() for *_, r in _mc_entries(conn)]))


def _mc_entries(conn: FlatConnectionField):
    """Yield each entry of the Maurer-Cartan residual as (part, i, j, r),
    r the scalar 0.0 where no term is present."""
    c = conn.chart
    # the derivative terms of a plane that stands for several entries
    # (or both parts) are computed once, keyed by the array
    b_terms = {id(b): c.d_w(b) - c.logB * b
               for b in _distinct(conn.planes["Bhat"])}
    a_terms = {id(a): (c.grid.dzb(a), c.logA * a)
               for a in _distinct(conn.planes["Ahat"])}
    for part in PARTS:
        A = conn.planes["Ahat"][part]
        B = conn.planes["Bhat"][part]
        for i in range(3):
            for j in range(3):
                rb = b_terms[id(B[i, j])] if (i, j) in B else 0.0
                dzb_a, la = (a_terms[id(A[i, j])] if (i, j) in A
                             else (0.0, 0.0))
                yield part, i, j, (rb - dzb_a + la
                                   + (_product_entry(A, B, i, j)
                                      - _product_entry(B, A, i, j)))


def _product_entry(A: dict, B: dict, i: int, j: int):
    """Entry (i, j) of A B from entry planes, summed left to right over
    the k whose A_ik and B_kj are both present; 0.0 if there is none."""
    acc = None
    for k in range(3):
        if (i, k) in A and (k, j) in B:
            term = A[i, k] * B[k, j]
            acc = term if acc is None else acc + term
    return 0.0 if acc is None else acc


def grid_step_generators(conn: FlatConnectionField, part: str,
                         leg: int, line=None) -> np.ndarray:
    """Midpoint generators of the unit grid steps along x (leg 0:
    (ix, iy) -> (ix+1, iy)) or along y (leg 1: (ix, iy) -> (ix, iy+1))
    in one idempotent part ("plus" or "minus").

    With no line, every step of the grid, as (3, 3, n, n) planes
    indexed [.., iy, ix] by the node each step leaves; with a line, the
    n steps of row iy = line (leg 0) or column ix = line (leg 1), as
    (3, 3, n) planes, bit for bit the matching row or column of the
    whole grid.  Omega is sampled as the average of its values at the
    two ends of each step (indices wrap around the torus) and
    contracted with the step: it is evaluated once on the nodes the
    steps leave, and its start and end values are added through
    shifted slices.
    """
    nodes = [slice(None), slice(None)]
    if line is not None:
        nodes[leg] = line
    O = _omega_at(conn, part, leg, *nodes)
    S = np.empty_like(O)
    # Omega(start) + Omega(end), shifted along the axis the steps run on
    ahead = (slice(None),) * (2 if leg else O.ndim - 1)
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
    written into out if given: a strided view of a larger array,
    filled in place.

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
    """Path-ordered product of step exponentials of Omega along a
    period.

    The steps are those of grid line 0 of the loop's leg (row iy = 0
    for the x period, column ix = 0 for the y period), their midpoint
    generators from grid_step_generators, exponentiated per idempotent
    component, one batched exponential per component; they multiply on
    the right in traversal order (transport), so a frame carried around
    the period returns as G(end) = G(start) H.

    The frame-basis product (group condition wrt QTILDE) is returned
    in the ambient gauge, conjugated by the constant model frame F0,
    after which X_minus = Q (X_plus^-1)^T Q with Q = diag(1,1,-1).

    The holonomy of data that is not flat depends on the loop, not only
    on its class; holonomy does not check flatness, and
    maurer_cartan_residual is that check.  A step
    generator of finite norm can still have an exponential, or a
    period a frame, past the float range; the first overflow raises
    Unrepresentable instead of carrying inf and NaN into the checks.
    """
    if loop.n != conn.grid.n:
        raise ValueError("loop and connection grids differ")
    with np.errstate(over="raise", invalid="raise"):
        try:
            # the two parts' steps side by side, transported together
            E = np.stack([expm_steps(grid_step_generators(conn, part,
                                                          loop.leg, 0))
                          for part in PARTS], axis=-1)
            H = transport(E)[:, :, -1]
            return BcMat3(*(F0 @ H[..., k] @ F0_INV
                            for k in range(len(PARTS))))
        except FloatingPointError as e:
            raise Unrepresentable(
                f"the holonomy of leg {loop.leg} leaves the float range: "
                f"{e}") from None
