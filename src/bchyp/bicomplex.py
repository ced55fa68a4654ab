"""Arithmetic over the commutative algebra C_tau = C[tau] with tau^2 = +1.

Elements are written w = z1 + tau*z2 with z1, z2 complex.  The algebra
splits through the idempotents e+ = (1+tau)/2, e- = (1-tau)/2 into two
complex lines: w = (z1+z2) e+ + (z1-z2) e-.  Multiplication and inversion
are componentwise in that basis, which is why every type here carries the
idempotent pair next to the (1, tau) coefficients.

The tau-conjugate z1 - tau*z2 swaps the idempotent components and fixes C.
The tau-norm w * conj_tau(w) = z1^2 - z2^2 is complex valued; it vanishes
exactly on the zero divisors.

Scalars keep their (z1, z2) storage, which fixes the rounding of
tau-scalar results, and carry +, -, * and negation; `invert` inverts
one.  Vectors and matrices over C_tau share one private base, _Pair: a
pair (plus, minus) of complex arrays of a fixed SHAPE, with the pair
operations the program uses written once: difference and scaling by
a C_tau scalar.  BcVec3 pairs 3-vectors; BcMat3 pairs 3x3 arrays and
adds only the product, part by part.  Equality of any of these values
is identity; compare their parts.  The map phi_iso embeds
GL(3,C) into the matrices preserving the Hermitian form q via
A |-> A e+ + Q (A^-1)^T Q e-, with Q = diag(1,1,-1).
"""

from __future__ import annotations

import numbers

import numpy as np

from ._frozen import Frozen

Q3 = np.diag([1.0, 1.0, -1.0])

# zero-divisor cutoff per idempotent component (double precision roundoff scale)
ZERO_DIVISOR_TOL = 1e-14


class ZeroDivisor(ArithmeticError):
    """Inversion attempted on an element with a vanishing idempotent part."""


class Singular(ArithmeticError):
    """Matrix argument is not invertible."""


class Bicomplex(Frozen):
    """A scalar z1 + tau*z2.  Immutable."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1, z2):
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

    def __mul__(self, other):
        other = as_bicomplex(other)
        if other is None:
            return NotImplemented
        return Bicomplex.from_idempotent(self.plus * other.plus,
                                         self.minus * other.minus)

    __rmul__ = __mul__


TAU = Bicomplex(0.0, 1.0)


def as_bicomplex(x):
    """Coerce numbers into Bicomplex; returns None when impossible."""
    if isinstance(x, Bicomplex):
        return x
    if isinstance(x, numbers.Number):
        return Bicomplex(complex(x), 0.0)
    return None


def re_tau(w: Bicomplex) -> complex:
    return w.z1


def invert(w: Bicomplex) -> Bicomplex:
    p = w.plus
    m = w.minus
    if abs(p) < ZERO_DIVISOR_TOL or abs(m) < ZERO_DIVISOR_TOL:
        raise ZeroDivisor("idempotent component below %g" % ZERO_DIVISOR_TOL)
    return Bicomplex.from_idempotent(1.0 / p, 1.0 / m)


class _Pair(Frozen):
    """An idempotent pair w = plus e+ + minus e- of complex arrays of
    shape SHAPE.  Difference and scaling by a C_tau scalar act part by
    part."""

    __slots__ = ("plus", "minus")
    SHAPE: tuple = ()

    def __init__(self, plus, minus):
        p, m = (np.asarray(x, dtype=complex).reshape(self.SHAPE).copy()
                for x in (plus, minus))
        p.setflags(write=False)
        m.setflags(write=False)
        self._set(plus=p, minus=m)

    @classmethod
    def from_complex(cls, v):
        v = np.asarray(v, dtype=complex).reshape(cls.SHAPE)
        return cls(v, v)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.plus - other.plus, self.minus - other.minus)

    def scale(self, a):
        w = as_bicomplex(a)
        if w is None:
            raise TypeError(f"cannot scale {type(self).__name__} by "
                            f"{type(a).__name__}")
        return type(self)(w.plus * self.plus, w.minus * self.minus)

    def norm_max(self) -> float:
        return float(np.maximum(np.abs(self.plus).max(),
                                np.abs(self.minus).max()))

    def __repr__(self):
        return "%s(plus=%s, minus=%s)" % (type(self).__name__,
                                          self.plus.tolist(),
                                          self.minus.tolist())


class BcVec3(_Pair):
    """Vector in C_tau^3 stored by idempotent parts (two complex 3-vectors)."""

    __slots__ = ()
    SHAPE = (3,)


class BcMat3(_Pair):
    """3x3 matrix over C_tau as an idempotent pair (plus, minus).

    Products act componentwise because e+ e- = 0.
    """

    __slots__ = ()
    SHAPE = (3, 3)

    def __matmul__(self, other):
        if isinstance(other, (BcMat3, BcVec3)):
            return type(other)(self.plus @ other.plus,
                               self.minus @ other.minus)
        return NotImplemented


def phi_iso(A) -> BcMat3:
    """A in GL(3,C) |-> A e+ + Q3 (A^-1)^T Q3 e-.

    Group isomorphism onto the matrices with X^T Q3 conj_tau(X) = Q3.
    """
    A = np.asarray(A, dtype=complex).reshape(3, 3)
    d = np.linalg.det(A)
    if abs(d) < 1e-12:
        raise Singular("det A = %r below threshold 1e-12" % d)
    return BcMat3(A, Q3 @ np.linalg.inv(A).T @ Q3)


def compatibility_residual(X: BcMat3) -> float:
    """max-abs of X- - Q (X+^-1)^T Q; zero on the image of phi_iso, and
    inf where X+ is singular in floating point."""
    try:
        inv = np.linalg.inv(X.plus)
    except np.linalg.LinAlgError:
        return np.inf
    return float(np.abs(X.minus - Q3 @ inv.T @ Q3).max())
