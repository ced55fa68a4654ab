"""Arithmetic over the commutative algebra C_tau = C[tau] with tau^2 = +1.

Elements are written w = z1 + tau*z2 with z1, z2 complex.  The algebra
splits through the idempotents e+ = (1+tau)/2, e- = (1-tau)/2 into two
complex lines: w = (z1+z2) e+ + (z1-z2) e-.  Multiplication and inversion
are componentwise in that basis, which is why every type here carries the
idempotent pair next to the (1, tau) coefficients.

The tau-conjugate z1 - tau*z2 swaps the idempotent components and fixes C.
The tau-norm w * conj_tau(w) = z1^2 - z2^2 is complex valued; it vanishes
exactly on the zero divisors.

Matrices over C_tau are stored as a pair of complex 3x3 arrays (plus, minus)
and multiply componentwise.  The map phi_iso embeds GL(3,C) into the
matrices preserving the Hermitian form q via A |-> A e+ + Q (A^-1)^T Q e-,
with Q = diag(1,1,-1).
"""

from __future__ import annotations

import cmath
import numbers

import numpy as np

from ._frozen import Frozen

Q3 = np.diag([1.0, 1.0, -1.0])

# zero-divisor cutoff per idempotent component (double precision roundoff scale)
ZERO_DIVISOR_TOL = 1e-14
IMAGE_TOL = 1e-9    # phi_inv's bound on the compatibility residual


class ZeroDivisor(ArithmeticError):
    """Inversion attempted on an element with a vanishing idempotent part."""


class Singular(ArithmeticError):
    """Matrix argument is not invertible."""


class NotInImage(ValueError):
    """Matrix fails the U(2,1) compatibility between idempotent parts."""


class Bicomplex(Frozen):
    """A scalar z1 + tau*z2.  Immutable."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1=0.0, z2=0.0):
        self._set(z1=complex(z1), z2=complex(z2))

    @classmethod
    def from_idempotent(cls, p, m) -> "Bicomplex":
        p = complex(p)
        m = complex(m)
        return cls((p + m) / 2.0, (p - m) / 2.0)

    @property
    def plus(self) -> complex:
        return self.z1 + self.z2

    @property
    def minus(self) -> complex:
        return self.z1 - self.z2

    def __repr__(self):
        return "Bicomplex(%r, %r)" % (self.z1, self.z2)

    def __eq__(self, other):
        other = as_bicomplex(other)
        if other is None:
            return NotImplemented
        return self.z1 == other.z1 and self.z2 == other.z2

    def __hash__(self):
        return hash((self.z1, self.z2))

    def __add__(self, other):
        other = as_bicomplex(other)
        if other is None:
            return NotImplemented
        return Bicomplex(self.z1 + other.z1, self.z2 + other.z2)

    __radd__ = __add__

    def __neg__(self):
        return Bicomplex(-self.z1, -self.z2)

    def __sub__(self, other):
        other = as_bicomplex(other)
        if other is None:
            return NotImplemented
        return Bicomplex(self.z1 - other.z1, self.z2 - other.z2)

    def __rsub__(self, other):
        other = as_bicomplex(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = as_bicomplex(other)
        if other is None:
            return NotImplemented
        return Bicomplex.from_idempotent(self.plus * other.plus,
                                         self.minus * other.minus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_bicomplex(other)
        if other is None:
            return NotImplemented
        return self * invert(other)

    def __rtruediv__(self, other):
        other = as_bicomplex(other)
        if other is None:
            return NotImplemented
        return other * invert(self)

    def __abs__(self):
        # sup of the idempotent moduli; a convenient absolute scale, not the tau-norm
        return max(abs(self.plus), abs(self.minus))


ONE = Bicomplex(1.0, 0.0)
TAU = Bicomplex(0.0, 1.0)
E_PLUS = Bicomplex(0.5, 0.5)
E_MINUS = Bicomplex(0.5, -0.5)


def as_bicomplex(x):
    """Coerce numbers into Bicomplex; returns None when impossible."""
    if isinstance(x, Bicomplex):
        return x
    if isinstance(x, numbers.Number):
        return Bicomplex(complex(x), 0.0)
    return None


def tau_conj(w: Bicomplex) -> Bicomplex:
    """conj_tau(z1 + tau z2) = z1 - tau z2; multiplicative involution fixing C."""
    return Bicomplex(w.z1, -w.z2)


def tau_norm(w: Bicomplex) -> complex:
    """w * conj_tau(w) = z1^2 - z2^2 = (idempotent plus)*(minus)."""
    return w.z1 * w.z1 - w.z2 * w.z2


def re_tau(w: Bicomplex) -> complex:
    return w.z1


def im_tau(w: Bicomplex) -> complex:
    return w.z2


def invert(w: Bicomplex) -> Bicomplex:
    p = w.plus
    m = w.minus
    if abs(p) < ZERO_DIVISOR_TOL or abs(m) < ZERO_DIVISOR_TOL:
        raise ZeroDivisor("idempotent component below %g" % ZERO_DIVISOR_TOL)
    return Bicomplex.from_idempotent(1.0 / p, 1.0 / m)


def unit_scalar(v) -> Bicomplex:
    """cosh(v) + tau sinh(v); tau-norm 1 for every complex v.

    In the idempotent basis this is e^v e+ + e^{-v} e-, so v parameterizes
    the full group of unit-norm scalars up to sign.
    """
    v = complex(v)
    return Bicomplex(cmath.cosh(v), cmath.sinh(v))


def isclose(a, b, tol: float = 1e-12) -> bool:
    a = as_bicomplex(a)
    b = as_bicomplex(b)
    return abs(a.z1 - b.z1) <= tol and abs(a.z2 - b.z2) <= tol


class BcVec3(Frozen):
    """Vector in C_tau^3 stored by idempotent parts (two complex 3-vectors)."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus, minus):
        p = np.asarray(plus, dtype=complex).reshape(3).copy()
        m = np.asarray(minus, dtype=complex).reshape(3).copy()
        p.setflags(write=False)
        m.setflags(write=False)
        self._set(plus=p, minus=m)

    @classmethod
    def from_tau_parts(cls, x, y) -> "BcVec3":
        """Build from w = x + tau*y with complex 3-vectors x, y."""
        x = np.asarray(x, dtype=complex).reshape(3)
        y = np.asarray(y, dtype=complex).reshape(3)
        return cls(x + y, x - y)

    @classmethod
    def from_complex(cls, v) -> "BcVec3":
        v = np.asarray(v, dtype=complex).reshape(3)
        return cls(v, v)

    @property
    def z1(self) -> np.ndarray:
        return (self.plus + self.minus) / 2.0

    @property
    def z2(self) -> np.ndarray:
        return (self.plus - self.minus) / 2.0

    def tau_conj(self) -> "BcVec3":
        return BcVec3(self.minus, self.plus)

    def __add__(self, other):
        return BcVec3(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other):
        return BcVec3(self.plus - other.plus, self.minus - other.minus)

    def __neg__(self):
        return BcVec3(-self.plus, -self.minus)

    def scale(self, a) -> "BcVec3":
        a = as_bicomplex(a)
        return BcVec3(a.plus * self.plus, a.minus * self.minus)

    def __rmul__(self, a):
        return self.scale(a)

    def __mul__(self, a):
        return self.scale(a)

    def norm_max(self) -> float:
        return float(np.maximum(np.abs(self.plus).max(),
                                np.abs(self.minus).max()))

    def __repr__(self):
        return "BcVec3(plus=%s, minus=%s)" % (self.plus.tolist(), self.minus.tolist())


class BcMat3(Frozen):
    """3x3 matrix over C_tau as an idempotent pair (plus, minus).

    Products, inverses and determinants act componentwise because
    e+ e- = 0.  tau-conjugation swaps the two components.
    """

    __slots__ = ("plus", "minus")

    def __init__(self, plus, minus):
        p = np.asarray(plus, dtype=complex).reshape(3, 3).copy()
        m = np.asarray(minus, dtype=complex).reshape(3, 3).copy()
        p.setflags(write=False)
        m.setflags(write=False)
        self._set(plus=p, minus=m)

    @classmethod
    def identity(cls) -> "BcMat3":
        return cls(np.eye(3), np.eye(3))

    @classmethod
    def from_complex(cls, M) -> "BcMat3":
        M = np.asarray(M, dtype=complex)
        return cls(M, M)

    @classmethod
    def from_tau_parts(cls, M1, M2) -> "BcMat3":
        M1 = np.asarray(M1, dtype=complex)
        M2 = np.asarray(M2, dtype=complex)
        return cls(M1 + M2, M1 - M2)

    @property
    def z1(self) -> np.ndarray:
        return (self.plus + self.minus) / 2.0

    @property
    def z2(self) -> np.ndarray:
        return (self.plus - self.minus) / 2.0

    def __add__(self, other):
        return BcMat3(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other):
        return BcMat3(self.plus - other.plus, self.minus - other.minus)

    def __neg__(self):
        return BcMat3(-self.plus, -self.minus)

    def __matmul__(self, other):
        if isinstance(other, BcMat3):
            return BcMat3(self.plus @ other.plus, self.minus @ other.minus)
        if isinstance(other, BcVec3):
            return BcVec3(self.plus @ other.plus, self.minus @ other.minus)
        return NotImplemented

    def scale(self, a) -> "BcMat3":
        a = as_bicomplex(a)
        return BcMat3(a.plus * self.plus, a.minus * self.minus)

    def __mul__(self, a):
        return self.scale(a)

    __rmul__ = __mul__

    def tau_conj(self) -> "BcMat3":
        return BcMat3(self.minus, self.plus)

    def det(self) -> Bicomplex:
        return Bicomplex.from_idempotent(np.linalg.det(self.plus),
                                         np.linalg.det(self.minus))

    def inv(self) -> "BcMat3":
        dp = np.linalg.det(self.plus)
        dm = np.linalg.det(self.minus)
        if abs(dp) < 1e-13 or abs(dm) < 1e-13:
            raise Singular("idempotent determinant too small: %g / %g"
                           % (abs(dp), abs(dm)))
        return BcMat3(np.linalg.inv(self.plus), np.linalg.inv(self.minus))

    def norm_max(self) -> float:
        return float(np.maximum(np.abs(self.plus).max(),
                                np.abs(self.minus).max()))

    def __repr__(self):
        return "BcMat3(plus=%s,\n       minus=%s)" % (self.plus.tolist(),
                                                      self.minus.tolist())


def phi_iso(A) -> BcMat3:
    """A in GL(3,C) |-> A e+ + Q3 (A^-1)^T Q3 e-.

    Group isomorphism onto the matrices with X^T Q3 conj_tau(X) = Q3.
    """
    A = np.asarray(A, dtype=complex).reshape(3, 3)
    d = np.linalg.det(A)
    if abs(d) < 1e-12:
        raise Singular("det A = %r below threshold 1e-12" % d)
    return BcMat3(A, Q3 @ np.linalg.inv(A).T @ Q3)


def phi_inv(X: BcMat3) -> np.ndarray:
    """Invert phi_iso; checks the idempotent compatibility X- = Q (X+^-1)^T Q."""
    dp = np.linalg.det(X.plus)
    if abs(dp) < 1e-12:
        raise NotInImage("plus part singular")
    resid = compatibility_residual(X)
    if resid > IMAGE_TOL:
        raise NotInImage("compatibility residual %.3e exceeds %.1e"
                         % (resid, IMAGE_TOL))
    return X.plus.copy()


def compatibility_residual(X: BcMat3) -> float:
    """max-abs of X- - Q (X+^-1)^T Q; zero on the image of phi_iso."""
    expected = Q3 @ np.linalg.inv(X.plus).T @ Q3
    return float(np.abs(X.minus - expected).max())
