"""The batched 3x3 kernel on entry planes, against NumPy's stacked
routines (matmul, LAPACK det and solve) one matrix stack at a time; the
adjugate solve of the structure fit is tests/oracles.py::solve."""

import numpy as np
import pytest

import oracles
from bchyp import mat3
from bchyp.affine import integrate_frame
from bchyp.connection import assemble
from bchyp.gauss import solve_newton
from bchyp.metric import centered_dx, centered_dy


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
    assert np.array_equal(oracles.stacked(P), M)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [3, 2, 1])
def test_matmul_matches_stacked_matmul(dtype, k):
    rng = np.random.default_rng(2)
    A = stack(rng, (7, 6, 3, 3), dtype)
    B = stack(rng, (7, 6, 3, k), dtype)
    got = oracles.stacked(mat3.matmul(mat3.planes(A), mat3.planes(B)))
    assert got.dtype == np.result_type(A, B)
    assert np.abs(got - A @ B).max() < 1e-14 * np.abs(A @ B).max()


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
    got = oracles.stacked(oracles.solve(mat3.planes(A), mat3.planes(B)))
    assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()


def test_solve_singular_gives_nonfinite_without_warning():
    A = np.zeros((2, 3, 3))
    A[0] = np.eye(3)
    with np.errstate(all="raise"):
        X = oracles.stacked(oracles.solve(mat3.planes(A),
                                    np.ones((3, 1))))
    assert np.array_equal(X[0], np.ones((3, 1)))
    assert not np.isfinite(X[1]).any()


def test_adjugate_solve_on_integrated_wang_frame():
    """The structure fit's systems: the frame [f_x, f_y, f] of the
    pair integrated from constant Wang data, with the second derivatives
    as right-hand sides, away from the seam of the non-periodic pair."""
    n = 32
    problem = oracles.wang_problem(0.6, n)
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
    got = oracles.stacked(oracles.solve(mat3.planes(frame), mat3.planes(rhs)))
    assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()


def _cubic_coefficients(roots):
    """(c1, c2, c3) of prod (l - r) = l^3 - c1 l^2 + c2 l - c3 over the
    leading axis of roots."""
    a, b, c = roots
    return a + b + c, a * b + a * c + b * c, a * b * c


@pytest.mark.parametrize("dtype", [float, complex])
def test_cubic_roots_match_np_roots(dtype):
    rng = np.random.default_rng(8)
    c = stack(rng, (3, 40), dtype)
    got = mat3.cubic_roots(*c)
    assert got.shape == (3, 40) and got.dtype == complex
    for k in range(40):
        ref = np.sort_complex(np.roots([1.0, -c[0, k], c[1, k], -c[2, k]]))
        err = np.abs(np.sort_complex(got[:, k]) - ref).max()
        assert err < 1e-12 * max(1.0, np.abs(ref).max()), (k, err)


@pytest.mark.parametrize("roots, tol", [
    # a double root is conditioned like sqrt(eps), a triple like
    # eps^(1/3); np.roots misses these by 8e-9 to 3e-5
    ((2.0, 2.0, -1.0), 1e-7),
    ((0.5 - 1j, 0.5 - 1j, 3j), 1e-7),
    ((1.5, 1.5, 1.5), 1e-5),
    ((0.0, 0.0, 0.0), 0.0),
    ((-1.0 + 2j, -1.0 + 2j, -1.0 + 2j), 1e-5),
], ids=["double_real", "double_complex", "triple", "zero", "triple_complex"])
def test_cubic_roots_of_repeated_roots(roots, tol):
    want = np.sort_complex(np.array(roots, dtype=complex))
    got = np.sort_complex(mat3.cubic_roots(*_cubic_coefficients(want)))
    assert np.all(np.isfinite(got))
    assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


def test_cubic_roots_of_a_0d_input():
    got = mat3.cubic_roots(6.0, 11.0, np.float64(6.0))    # (l-1)(l-2)(l-3)
    assert got.shape == (3,)
    assert np.abs(np.sort_complex(got) - [1, 2, 3]).max() < 1e-14


def test_every_cubic_goes_through_mat3(monkeypatch):
    """The word spectra of the scan take their roots from
    mat3.cubic_roots, the one cubic solver in the package."""
    from bchyp import replib
    calls = []

    def spy(*c, _roots=mat3.cubic_roots):
        calls.append(np.shape(c[0]))
        return _roots(*c)

    monkeypatch.setattr(mat3, "cubic_roots", spy)
    M = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    replib.anosov_scan(replib.Representation({"a": M}), 1)
    assert calls
