"""Models of the bi-complex hyperbolic plane and its para-Hermitian geometry.

Points live on the hyperboloid {z in C_tau^3 : q(z,z) = -1} modulo the
unit-tau-norm scalars cosh(v) + tau*sinh(v), where

    q(z, w) = z^T Q conj_tau(w),      Q = diag(1, 1, -1).

The form q is C_tau-linear in the first slot and tau-conjugated in the
second, so q(z,z) is always tau-real (a plain complex number).  An
equivalent incidence model stores a point as a vector/covector pair
(v, phi) with phi(v) = -1; the two are exchanged by

    z = x + tau*y   <->   (v, phi) = (x + y, (x - y)^T Q),

i.e. v is the e_plus component of z and Q phi^T the e_minus component.

Tangent vectors at z are the q-orthogonal complement of C_tau*z.  They
carry three commuting structures: I (multiplication by i), P
(multiplication by tau) and J = IP, with pairings g = Re_tau q and
omega = Im_tau q.  Note omega(X, Y) = g(PX, Y): the para-complex factor
acts in the *first* slot because the second slot of q is tau-conjugated.

All curvature normalization downstream assumes the global rescale
g -> g/2, under which the para-holomorphic sectional curvature is -4.
"""

from __future__ import annotations

import numpy as np

from ._frozen import Frozen
from .bicomplex import (
    Bicomplex, BcVec3, TAU, Q3,
    re_tau, im_tau, invert,
)

__all__ = [
    "BaseMismatch", "IsotropicPlane", "NotOnBoundary",
    "HyperboloidPoint", "IncidencePoint", "TangentVector", "Flag",
    "q_form", "to_incidence", "from_incidence", "project_tangent",
    "para_hermitian_eval", "para_holo_sectional",
    "submanifold_membership", "boundary_flag",
    "line_plane_det", "transversal",
]

POINT_TOL = 1e-12
FLAG_TOL = 1e-10    # |plane . line| on unit vectors: line inside plane
ORBIT_TOL = 1e-9    # relative scale-fit residual: on the unit-norm orbit
ISO_TOL = 1e-10     # para_holo_sectional: |q(X,X)| below it is isotropic


class BaseMismatch(ValueError):
    """Tangent operands are attached to different base points."""


class IsotropicPlane(ArithmeticError):
    """q(X, X) is (numerically) a zero divisor; no sectional curvature."""


class NotOnBoundary(ValueError):
    """Pair (v, phi) violates the boundary incidence phi(v) = 0."""


def q_form(z: BcVec3, w: BcVec3) -> Bicomplex:
    """q(z, w) = z^T Q conj_tau(w); tau-Hermitian, first slot linear."""
    # conj_tau swaps the idempotent components of w
    return Bicomplex.from_idempotent(
        z.plus @ (Q3 @ w.minus),
        z.minus @ (Q3 @ w.plus),
    )


def _fit_scale(a: np.ndarray, b: np.ndarray) -> tuple[complex, float]:
    """Least-squares lam with lam*a ~ b, plus the max-norm residual."""
    lam = np.vdot(a, b) / np.vdot(a, a).real
    return lam, float(np.abs(lam * a - b).max())


class HyperboloidPoint(Frozen):
    """A point of the hyperboloid model, stored as a normalized lift."""

    __slots__ = ("rep",)

    def __init__(self, rep: BcVec3):
        qz = q_form(rep, rep)
        if abs(qz.plus + 1) > POINT_TOL or abs(qz.minus + 1) > POINT_TOL:
            raise ValueError(f"representative not normalized: q(z,z) = {qz!r}")
        self._set(rep=rep)

    @classmethod
    def normalize(cls, z: BcVec3) -> "HyperboloidPoint":
        """Rescale z so that q(z,z) = -1 (complex scaling suffices)."""
        c = q_form(z, z)
        # q(z,z) is tau-real; use its complex value
        cval = c.plus
        if abs(cval) < 1e-13 or abs(c.minus) < 1e-13:
            raise IsotropicPlane("cannot normalize a q-null vector")
        a = 1.0 / np.sqrt(-cval + 0j)
        return cls(z.scale(a))

    def same_as(self, other: "HyperboloidPoint") -> bool:
        """Equality modulo the unit-tau-norm orbit u = e^v e+ + e^-v e-.

        The orbit acts by independent complex scalings (lam, 1/lam) on the
        idempotent halves, so a least-squares scale fit on each half plus
        the unit-product constraint decides membership exactly; this is
        the converged limit of a grid-scan-and-refine over the orbit.
        """
        p, m = self.rep, other.rep
        scale = max(p.norm_max(), m.norm_max(), 1.0)
        lam_p, res_p = _fit_scale(p.plus, m.plus)
        lam_m, res_m = _fit_scale(p.minus, m.minus)
        if res_p > ORBIT_TOL * scale or res_m > ORBIT_TOL * scale:
            return False
        return (abs(lam_p * lam_m - 1.0)
                < ORBIT_TOL * max(1.0, abs(lam_p * lam_m)))

    def __eq__(self, other):
        if not isinstance(other, HyperboloidPoint):
            return NotImplemented
        return self.same_as(other)

    def __repr__(self):
        return f"HyperboloidPoint({self.rep!r})"


class IncidencePoint(Frozen):
    """Incidence-model point: vector v and covector phi with phi(v) = -1."""

    __slots__ = ("v", "phi")

    def __init__(self, v: np.ndarray, phi: np.ndarray):
        v = np.asarray(v, dtype=complex).reshape(3)
        phi = np.asarray(phi, dtype=complex).reshape(3)
        self._set(v=v, phi=phi)

    def pairing(self) -> complex:
        return complex(self.phi @ self.v)

    def rescaled(self, c: complex) -> "IncidencePoint":
        """Projective rescale (v, phi) -> (c v, phi / c); pairing fixed."""
        return IncidencePoint(c * self.v, self.phi / c)

    def __repr__(self):
        return f"IncidencePoint(v={self.v!r}, phi={self.phi!r})"


def to_incidence(p: HyperboloidPoint) -> IncidencePoint:
    """Hyperboloid -> incidence: z = x + tau y maps to (x+y, (x-y)^T Q)."""
    return IncidencePoint(p.rep.plus, p.rep.minus @ Q3)


def from_incidence(pt: IncidencePoint) -> HyperboloidPoint:
    """Inverse chart: x = (v + Q phi^T)/2, y = (v - Q phi^T)/2."""
    qphi = Q3 @ pt.phi
    x = (pt.v + qphi) / 2.0
    y = (pt.v - qphi) / 2.0
    return HyperboloidPoint(BcVec3.from_tau_parts(x, y))


class TangentVector(Frozen):
    """Tangent vector at a hyperboloid point: q(vec, base.rep) = 0."""

    __slots__ = ("base", "vec")

    def __init__(self, base: HyperboloidPoint, vec: BcVec3, check: bool = True):
        if check:
            r = q_form(vec, base.rep)
            bound = POINT_TOL * max(1.0, vec.norm_max())
            if abs(r.plus) > bound or abs(r.minus) > bound:
                raise ValueError(f"not tangent: q(vec, rep) = {r!r}")
        self._set(base=base, vec=vec)

    # the three para-Hermitian structures; all preserve tangency since
    # q is C_tau-linear in its first slot
    def I(self) -> "TangentVector":
        return TangentVector(self.base, self.vec.scale(1j), check=False)

    def P(self) -> "TangentVector":
        return TangentVector(self.base, self.vec.scale(TAU), check=False)

    def J(self) -> "TangentVector":
        return TangentVector(self.base, self.vec.scale(TAU).scale(1j), check=False)

    def __add__(self, other):
        if self.base is not other.base and not self.base.same_as(other.base):
            raise BaseMismatch("tangent vectors at different points")
        return TangentVector(self.base, self.vec + other.vec, check=False)

    def scale(self, a) -> "TangentVector":
        return TangentVector(self.base, self.vec.scale(a), check=False)

    def __repr__(self):
        return f"TangentVector({self.vec!r} at {self.base!r})"


def project_tangent(p: HyperboloidPoint, V: BcVec3) -> TangentVector:
    """Split V = lam*rep + tangent along C_tau z (+) T_z; lam = -q(V, rep)."""
    lam = -q_form(V, p.rep)
    vec = V - p.rep.scale(lam)
    return TangentVector(p, vec, check=False)


def para_hermitian_eval(X: TangentVector, Y: TangentVector,
                        ) -> tuple[complex, complex]:
    """(g, omega) = (Re_tau q(X,Y), Im_tau q(X,Y)), unrescaled.

    Identities: omega(X,Y) = g(PX,Y) = -g(X,PY), g(PX,PY) = -g(X,Y),
    g(IX,Y) = i g(X,Y), g(JX,JY) = g(X,Y).
    """
    if X.base is not Y.base and not X.base.same_as(Y.base):
        raise BaseMismatch("operands live at different base points")
    qxy = q_form(X.vec, Y.vec)
    return re_tau(qxy), im_tau(qxy)


def para_holo_sectional(p: HyperboloidPoint, X: TangentVector) -> complex:
    """Sectional curvature of span{X, PX} in the rescaled metric (-4).

    Computed two independent ways and cross-checked:

    1. ambient route: the normal-projection second fundamental form
       II(X, Y) = q(Y, X) z gives the scalar coefficients a1 = q(X,X),
       a2 = q(PX,PX), a3 = q(PX,X); the Gauss-equation combination
       -(a1*a2 - a3^2) q(z,z) / q(X,X)^2 equals -2 for every
       non-isotropic X, and the rescale g -> g/2 doubles it;
    2. curvature-tensor route: the constant-curvature expansion of
       R(X,Y,Z,W) with k = -4 evaluated on (X, JX, X, JX), divided by
       g(X,X)^2.
    """
    c = q_form(X.vec, X.vec)
    if min(abs(c.plus), abs(c.minus)) < ISO_TOL:
        raise IsotropicPlane(f"q(X,X) = {c!r} is numerically null")

    # route 1: second-fundamental-form scalars, tau arithmetic throughout
    PX = X.P()
    a1 = c
    a2 = q_form(PX.vec, PX.vec)
    a3 = q_form(PX.vec, X.vec)
    qzz = q_form(p.rep, p.rep)
    num = a1 * a2 - a3 * a3
    val = -(num * qzz * invert(c * c))        # == -2 (tau-real)
    route1 = 2.0 * val.z1                     # rescale g -> g/2
    if abs(val.z2) > 1e-9 * (1 + abs(val.z1)):
        raise ArithmeticError(f"ambient route not tau-real: {val!r}")

    # route 2: constant-curvature tensor with k = -4 on the plane (X, JX)
    k = -4.0

    def g(u: TangentVector, v: TangentVector) -> complex:
        return re_tau(q_form(u.vec, v.vec)) * 0.5

    Y = X.J()
    PY = Y.P()
    term = (g(X, X) * g(Y, Y) - g(Y, X) * g(X, Y)
            + g(X, PX) * g(PY, Y)
            - g(Y, PX) * g(PX, Y)
            + 2.0 * g(X, PY) * g(PX, Y))
    R = -(k / 4.0) * term
    gXX = g(X, X)
    route2 = -R / (gXX * gXX)

    if abs(route1 - route2) > 1e-8 * (1 + abs(route1)):
        raise ArithmeticError(
            f"curvature routes disagree: {route1} vs {route2}")
    return route1


def _orbit_phase_min(plus: np.ndarray, minus: np.ndarray) -> float:
    """max(|Im(e^{it} plus)|, |Im(e^{-it} minus)|) at the phase t that
    makes both halves real when one does.

    The smooth surrogate, the sum of the squared imaginary parts, is
    a + b cos 2t + c sin 2t; it vanishes at a phase iff that phase makes
    both halves real, and its minimizer is closed-form (t = 0 when the
    surrogate is flat).  Iterative refiners stall near sqrt(eps) on the
    V-shaped max-abs objective, which is too coarse for 1e-9.
    """
    s_r = (plus.real ** 2).sum() + (minus.real ** 2).sum()
    s_i = (plus.imag ** 2).sum() + (minus.imag ** 2).sum()
    cross = (plus.real * plus.imag).sum() - (minus.real * minus.imag).sum()
    beta, gamma = (s_i - s_r) / 2.0, cross
    t = 0.5 * np.arctan2(-gamma, -beta) if beta or gamma else 0.0
    return float(np.maximum(np.abs((np.exp(1j * t) * plus).imag).max(),
                            np.abs((np.exp(-1j * t) * minus).imag).max()))


def submanifold_membership(p: HyperboloidPoint) -> set:
    """Tags among {H2tau, CH2, X, generic} over the unit orbit.

    The orbit scales the idempotent halves by (e^v, e^-v).  In those
    coordinates the three real forms read:

      X     : minus proportional to plus (any complex factor);
      CH2   : minus = r * conj(plus) with r real > 0;
      H2tau : some phase t makes e^{it} plus and e^{-it} minus both real
              (the radial part of the orbit is irrelevant).

    The first two conditions are orbit-invariant as stated; the third is
    tested at the closed-form orbit phase of `_orbit_phase_min`.
    """
    plus, minus = p.rep.plus, p.rep.minus
    scale = max(p.rep.norm_max(), 1.0)
    tags = set()

    _, res_x = _fit_scale(plus, minus)
    if res_x < ORBIT_TOL * scale:
        tags.add("X")

    c = np.conj(plus)
    r = np.vdot(c, minus).real / np.vdot(c, c).real
    if r > 0 and np.abs(r * c - minus).max() < ORBIT_TOL * scale:
        tags.add("CH2")

    if _orbit_phase_min(plus, minus) < ORBIT_TOL * scale:
        tags.add("H2tau")

    if not tags:
        tags.add("generic")
    return tags


def _unit_incident(lines, planes):
    """Unit rows of (N, 3) lines and plane covectors, each line inside
    its plane: |plane . line| <= FLAG_TOL after normalization."""
    lines = np.asarray(lines, dtype=complex)
    planes = np.asarray(planes, dtype=complex)
    nl = np.linalg.norm(lines, axis=-1)
    np_ = np.linalg.norm(planes, axis=-1)
    if np.any(nl == 0) or np.any(np_ == 0):
        raise ValueError("flag components must be nonzero")
    lines = lines / nl[:, None]
    planes = planes / np_[:, None]
    pairing = np.einsum("ni,ni->n", planes, lines)
    bad = np.flatnonzero(np.abs(pairing) > FLAG_TOL)
    if bad.size:
        raise ValueError(f"line not inside plane: pairing {pairing[bad[0]]}")
    return lines, planes


class Flag(Frozen):
    """A projective full flag in C^3: a line inside a plane (= ker covector)."""

    __slots__ = ("line", "plane")

    def __init__(self, line: np.ndarray, plane: np.ndarray):
        lines, planes = _unit_incident(np.reshape(line, (1, 3)),
                                       np.reshape(plane, (1, 3)))
        self._set(line=lines[0], plane=planes[0])

    def __repr__(self):
        return f"Flag(line={self.line!r}, plane={self.plane!r})"


def boundary_flag(v: np.ndarray, phi: np.ndarray) -> Flag:
    """Boundary pair (v, phi) with phi(v) = 0 -> the flag (v, ker phi)."""
    v = np.asarray(v, dtype=complex).reshape(3)
    phi = np.asarray(phi, dtype=complex).reshape(3)
    nv, nphi = np.linalg.norm(v), np.linalg.norm(phi)
    if nv == 0 or nphi == 0:
        raise NotOnBoundary("zero vector/covector has no boundary flag")
    if abs((phi / nphi) @ (v / nv)) > FLAG_TOL:
        raise NotOnBoundary(f"phi(v) = {phi @ v} after normalization")
    return Flag(v, phi)


def line_plane_det(line: np.ndarray, plane_covector: np.ndarray) -> float:
    """|det| of the line together with an orthonormal basis of the plane.

    Nonzero iff line (+) plane = C^3; used as a transversality measure.
    The plane ker(phi) is the Hermitian complement of conj(phi), so with
    unit vectors the determinant is phi . line up to a unit phase.
    """
    line = np.asarray(line, dtype=complex).reshape(3)
    phi = np.asarray(plane_covector, dtype=complex).reshape(3)
    return float(abs(phi @ line) / (np.linalg.norm(phi)
                                      * np.linalg.norm(line)))


def transversal(f1: Flag, f2: Flag) -> bool:
    """True when l1 (+) V2 = C^3 = l2 (+) V1, beyond FLAG_TOL."""
    return (line_plane_det(f1.line, f2.plane) > FLAG_TOL
            and line_plane_det(f2.line, f1.plane) > FLAG_TOL)
