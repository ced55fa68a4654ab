"""The batched 3x3 kernel on entry planes, against NumPy's stacked
routines (matmul, LAPACK det and solve) one matrix stack at a time."""

import numpy as np
import pytest

from bchyp import mat3
from bchyp.affine import integrate_frame
from bchyp.connection import assemble
from bchyp.gauss import solve_newton, wang_specialize
from bchyp.metric import TorusGrid, centered_dx, centered_dy


def stack(rng, shape, dtype):
    M = rng.standard_normal(shape)
    if dtype == complex:
        M = M + 1j * rng.standard_normal(shape)
    return M


@pytest.mark.parametrize("dtype", [float, complex])
def test_planes_round_trip(dtype):
    M = stack(np.random.default_rng(1), (4, 5, 3, 3), dtype)
    P = mat3.planes(M)
    assert P.shape == (3, 3, 4, 5) and P.flags.c_contiguous
    assert np.array_equal(P[1, 2], M[..., 1, 2])
    assert np.array_equal(mat3.stacked(P), M)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [3, 2, 1])
def test_matmul_matches_stacked_matmul(dtype, k):
    rng = np.random.default_rng(2)
    A = stack(rng, (7, 6, 3, 3), dtype)
    B = stack(rng, (7, 6, 3, k), dtype)
    got = mat3.stacked(mat3.matmul(mat3.planes(A), mat3.planes(B)))
    assert got.dtype == np.result_type(A, B)
    assert np.abs(got - A @ B).max() < 1e-14 * np.abs(A @ B).max()


def test_matmul_broadcasts_a_constant_factor():
    rng = np.random.default_rng(3)
    G = stack(rng, (3, 3), complex)
    M = stack(rng, (5, 3, 3), complex)
    left = mat3.stacked(mat3.matmul(mat3.planes(G), mat3.planes(M)))
    right = mat3.stacked(mat3.matmul(mat3.planes(M), mat3.planes(G)))
    assert np.abs(left - G @ M).max() < 1e-14 * np.abs(G @ M).max()
    assert np.abs(right - M @ G).max() < 1e-14 * np.abs(M @ G).max()


@pytest.mark.parametrize("dtype", [float, complex])
def test_det_matches_lapack(dtype):
    A = stack(np.random.default_rng(4), (50, 3, 3), dtype)
    ref = np.linalg.det(A)
    got = mat3.det(mat3.planes(A))
    assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [3, 2, 1])
def test_solve_matches_lapack(dtype, k):
    rng = np.random.default_rng(5)
    # well-conditioned: identity plus a perturbation of norm < 1
    A = np.eye(3) + 0.2 * stack(rng, (40, 3, 3), dtype)
    B = stack(rng, (40, 3, k), dtype)
    ref = np.linalg.solve(A, B)
    got = mat3.stacked(mat3.solve(mat3.planes(A), mat3.planes(B)))
    assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()


def test_solve_singular_gives_nonfinite_without_warning():
    A = np.zeros((2, 3, 3))
    A[0] = np.eye(3)
    with np.errstate(all="raise"):
        X = mat3.stacked(mat3.solve(mat3.planes(A),
                                    np.ones((3, 1))))
    assert np.array_equal(X[0], np.ones((3, 1)))
    assert not np.isfinite(X[1]).any()


def test_adjugate_solve_on_integrated_wang_frame():
    """The structure fit's systems: the frame [f_x, f_y, f] of the
    pair integrated from constant Wang data, with the second derivatives
    as right-hand sides, away from the seam of the non-periodic pair."""
    n = 32
    problem = wang_specialize(1.2, TorusGrid(n))
    report = solve_newton(problem)
    pair = integrate_frame(assemble(report.psi, problem.C,
                                    problem.background.chart))
    f, h = pair.fplus, pair.spacing
    fx, fy = centered_dx(f, h), centered_dy(f, h)
    rhs = np.stack([centered_dx(fx, h), centered_dy(fx, h),
                    centered_dy(fy, h)], axis=-1)
    frame = np.stack([fx, fy, f], axis=-1)
    inner = (slice(2, -2), slice(2, -2))
    frame, rhs = frame[inner], rhs[inner]
    # the frames' condition numbers are below 40 here
    det = np.linalg.det(frame)
    assert (np.abs(mat3.det(mat3.planes(frame)) - det).max()
            < 1e-13 * np.abs(det).max())
    ref = np.linalg.solve(frame, rhs)
    got = mat3.stacked(mat3.solve(mat3.planes(frame), mat3.planes(rhs)))
    assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()
