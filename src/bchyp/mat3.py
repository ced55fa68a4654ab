"""Batched 3x3 matrix algebra on entry planes.

A batch of 3x3 matrices is held here as planes: an array P of shape
(3, 3, *batch) whose P[i, j] is entry (i, j) of every matrix of the
batch, one contiguous array.  Each operation is written out as entry
arithmetic on whole planes (the 27 products of a matrix product, the
cofactors of det and of the adjugate), so every NumPy call runs over
the full batch at once instead of looping over tiny matrices: the
batched small-matrix pattern of Abdelfattah et al., "A set of batched
basic linear algebra subprograms and LAPACK routines", ACM Trans. Math.
Softw. 47 (2021).

The module stores nothing.  Callers keep their (..., 3, 3) stacks and
convert at this boundary with `planes` and `stacked`.  Batch shapes
broadcast, so a constant matrix enters as plain (3, 3) planes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["planes", "stacked", "matmul", "expm", "det", "solve"]


def planes(M) -> np.ndarray:
    """(..., m, k) stack -> contiguous (m, k, ...) planes."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(M), (-2, -1), (0, 1)))


def stacked(P) -> np.ndarray:
    """(m, k, ...) planes -> contiguous (..., m, k) stack."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(P), (0, 1), (-2, -1)))


def matmul(A, B, out=None) -> np.ndarray:
    """A @ B for planes A (3, 3, ...) and B (3, k, ...).

    Each entry is summed left to right, (A_i0 B_0j + A_i1 B_1j) + A_i2
    B_2j.  out, when given, must not share memory with A or B.
    """
    A, B = np.asarray(A), np.asarray(B)
    k = B.shape[1]
    shape = (3, k) + np.broadcast_shapes(A.shape[2:], B.shape[2:])
    if out is None:
        out = np.empty(shape, dtype=np.result_type(A, B))
    tmp = np.empty(shape[2:], dtype=out.dtype)
    for i in range(3):
        for j in range(k):
            o = out[i, j, ...]
            np.multiply(A[i, 0], B[0, j], out=o)
            np.multiply(A[i, 1], B[1, j], out=tmp)
            o += tmp
            np.multiply(A[i, 2], B[2, j], out=tmp)
            o += tmp
    return out


def _add_identity(P):
    for d in range(3):
        P[d, d] += 1.0


def expm(S, degree: int, squarings: int = 0) -> np.ndarray:
    """exp(S) for planes S: the degree-`degree` Taylor polynomial of
    S / 2^squarings in Horner form, P <- I + S P / k for k = degree,
    ..., 1, then squared `squarings` times.  The caller chooses the
    degree and the squarings from the norm of S."""
    S = np.asarray(S)
    if squarings:
        S = S / 2.0 ** squarings
    P = S / degree                          # first Horner step: S I = S
    _add_identity(P)
    T = np.empty_like(P)
    for k in range(degree - 1, 0, -1):
        matmul(S, P, out=T)
        T /= k
        _add_identity(T)
        P, T = T, P
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


def solve(A, B) -> np.ndarray:
    """X with A X = B for planes A (3, 3, ...) and B (3, k, ...).

    X = adj(A) B / det(A).  A singular matrix gives non-finite entries
    without a warning, so a caller that needs a definite answer checks
    det(A) first; NaN entries of A or B propagate to X.
    """
    A = np.asarray(A)
    X = matmul(_cofactors(A).swapaxes(0, 1), B)     # adj(A) = C^T
    with np.errstate(divide="ignore", invalid="ignore"):
        X /= det(A)
    return X
