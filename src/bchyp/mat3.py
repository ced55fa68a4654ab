"""Batched 3x3 matrix algebra on entry planes.

A batch of 3x3 matrices is held here as planes: an array P of shape
(3, 3, *batch) whose P[i, j] is entry (i, j) of every matrix of the
batch, one contiguous array.  Each operation is written out as entry
arithmetic on whole planes (the products of a matrix product, the
cofactors of det and of the adjugate), so every NumPy call runs over
the full batch at once instead of looping over tiny matrices: the
batched small-matrix pattern of Abdelfattah et al., "A set of batched
basic linear algebra subprograms and LAPACK routines", ACM Trans. Math.
Softw. 47 (2021).

The product is written in row form, three broadcast multiply-adds
A[:, l] B[l, :] over l, so a small batch (one grid row of frames, or a
single matrix) costs five NumPy calls rather than one per entry.

The exponential is the truncated Taylor series whose degree and
squarings the caller chooses (connection.expm_steps, with the degree
table of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).  For 3x3
matrices Cayley-Hamilton folds every power above S^2 back onto I, S and
S^2, so the Horner recurrence is carried by three scalar planes and one
plane product (S^2) instead of degree - 1 products.  The polynomial is
the same, so the degree table and its backward-error bound do not
change; only the rounding of the evaluation does, and the identity is
added last to keep that rounding as fine as Horner's (see expm).

The module stores nothing.  Planes are the one dense layout of the
package's 3x3 fields: the transport chain (connection, affine) keeps its
data as planes from end to end, and `planes` converts a (..., 3, 3)
stack for the callers that start from one (the word scan's generators).
"""

from __future__ import annotations

import numpy as np

__all__ = ["planes", "matmul", "expm", "det", "adj", "cubic_roots"]


def planes(M) -> np.ndarray:
    """(..., m, k) stack -> contiguous (m, k, ...) planes."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(M), (-2, -1), (0, 1)))


def matmul(A, B, out=None) -> np.ndarray:
    """A @ B for planes A (m, 3, ...) and B (3, k, ...) of one batch
    shape.

    Row form: out = A[:, 0] B[0, :] + A[:, 1] B[1, :] + A[:, 2] B[2, :],
    each term one broadcast product over all m k entries, so every entry
    is summed left to right, (A_i0 B_0j + A_i1 B_1j) + A_i2 B_2j.  out,
    when given, must not share memory with A or B.
    """
    A, B = np.asarray(A), np.asarray(B)
    shape = (A.shape[0], B.shape[1]) + A.shape[2:]
    if out is None:
        out = np.empty(shape, dtype=np.result_type(A, B))
    tmp = np.empty(shape, dtype=out.dtype)
    np.multiply(A[:, 0:1], B[0:1], out=out)
    np.multiply(A[:, 1:2], B[1:2], out=tmp)
    out += tmp
    np.multiply(A[:, 2:3], B[2:3], out=tmp)
    out += tmp
    return out


def expm(S, degree: int, squarings: int) -> np.ndarray:
    """exp(S) for planes S: the degree-`degree` Taylor polynomial of
    S / 2^squarings, then squared `squarings` times.  The caller
    chooses the degree and the squarings from the norm of S.

    The polynomial is the Horner recurrence P <- I + S P / k for
    k = degree, ..., 1, reduced by Cayley-Hamilton: S^3 = t S^2 - e2 S
    + d I with t = tr S, e2 = (t^2 - tr S^2) / 2 and d = det S, so P
    stays I + a I + b S + c S^2 with scalar planes a, b, c, and the
    recurrence costs one plane product (S^2) instead of degree - 1.
    The identity is added last, after a: adding 1 + a in one step
    would round the diagonal at ulp(1) twice and lose the structure
    that Horner keeps to far below ulp(1) (E_minus = QTILDE E_plus^-T
    QTILDE for a connection step).  Each step multiplies by 1 / k:
    NumPy divides a complex plane by a real k as a multiply by 1 / k
    (Smith's algorithm with a zero imaginary part), so on complex
    planes the bits are those of / k at a fifth of its cost.
    """
    S = np.asarray(S)
    if squarings:
        S = S * 2.0 ** -squarings
    S2 = matmul(S, S)
    t = S[0, 0] + S[1, 1] + S[2, 2]
    e2 = 0.5 * (t * t - (S2[0, 0] + S2[1, 1] + S2[2, 2]))
    d = det(S)
    a, b, c = 0.0, 1.0 / degree, 0.0        # first Horner step: S I = S
    for k in range(degree - 1, 0, -1):
        r = 1.0 / k
        a, b, c = c * d * r, (1.0 + a - c * e2) * r, (b + c * t) * r
    P = S * b
    S2 *= c
    P += S2                                 # b S + c S^2
    for i in range(3):
        P[i, i] += a
        P[i, i] += 1.0
    T = np.empty_like(P)
    for _ in range(squarings):
        matmul(P, P, out=T)
        P, T = T, P
    return P


def _cofactors(A) -> np.ndarray:
    """Cofactor planes C with C[i, j] = (-1)^(i+j) minor_ij of A."""
    C = np.empty(A.shape, dtype=A.dtype)
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            # cyclic index order carries the sign (-1)^(i+j)
            C[i, j] = A[i1, j1] * A[i2, j2] - A[i1, j2] * A[i2, j1]
    return C


def det(A) -> np.ndarray:
    """Determinant of planes A (3, 3, ...), by the first-row cofactors."""
    A = np.asarray(A)
    return (A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
            + A[0, 1] * (A[1, 2] * A[2, 0] - A[1, 0] * A[2, 2])
            + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0]))


def adj(A) -> np.ndarray:
    """Adjugate planes of A (3, 3, ...): the transposed cofactors, so
    adj(A) A = A adj(A) = det(A) I."""
    return _cofactors(np.asarray(A)).swapaxes(0, 1)


def cubic_roots(c1, c2, c3) -> np.ndarray:
    """The roots (3, ...) of l^3 - c1 l^2 + c2 l - c3, the characteristic
    polynomial of a 3x3 matrix, batched and complex, by Cardano's formula.

    The shift l = t + c1/3 leaves t^3 + p t + q, whose roots are
    t = u w^k - p / (3 u w^k), k = 0, 1, 2, with w a cube root of one
    and u^3 = -q/2 +- sqrt(q^2/4 + p^3/27), the sign taken that gives
    u^3 the larger modulus so that no cancellation enters it.  A triple
    root has p = q = 0 and u = 0; its roots are all c1/3.
    """
    c1, c2, c3 = (np.asarray(c, dtype=complex) for c in (c1, c2, c3))
    s = c1 / 3.0
    p = c2 - 3.0 * s * s
    q = s * (c2 - 2.0 * s * s) - c3
    h = -0.5 * q
    r = np.sqrt(h * h + p * p * p / 27.0)
    u3 = np.where(np.abs(h + r) >= np.abs(h - r), h + r, h - r)
    u = np.cbrt(np.abs(u3)) * np.exp(1j * np.angle(u3) / 3.0)
    v = np.divide(-p, 3.0 * u, out=np.zeros_like(u), where=u != 0)
    w = (np.exp(2j * np.pi / 3) ** np.arange(3)).reshape((3,) + (1,) * u.ndim)
    return s + w * u + w.conj() * v
