"""Connection assembly, flatness residuals, holonomy, and the Higgs split."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from bchyp import connection, mat3
from bchyp.bicomplex import BcMat3, Q3, compatibility_residual
from bchyp.connection import (
    F0, PARTS, FlatConnectionField, Loop,
    TAYLOR_THETA,
    assemble, expm_steps, grid_step_generators, holonomy, max_abs,
    maurer_cartan_residual,
)
from bchyp.criteria import _result, holonomy_checks
from bchyp.gauss import GaussProblem, solve_newton
from oracles import (
    HTILDE, QTILDE, conjugate_frame, dense, higgs_split, hitchin_residuals,
    pairing_residual, reduced_system_residual, residual_intrinsic,
    wang_problem,
)
from bchyp.metric import BeltramiChart, ComplexMetric, CubicPair, TorusGrid

AHAT_CONST = BcMat3.from_tau_parts([[0, 0, 0], [0, 0, 1], [1, 0, 0]],
                                   [[0, -1, 0], [0, 0, 0], [0, 0, 0]])
BHAT_CONST = BcMat3.from_tau_parts([[0, 0, 1], [0, 0, 0], [0, 1, 0]],
                                   [[0, 0, 0], [-1, 0, 0], [0, 0, 0]])

_SOLVED = {}

#: The model frame on both idempotent parts: holonomy returns G0 H G0^-1
#: for the frame-basis product H.
G0 = BcMat3(F0, F0)
IDENTITY = BcMat3(np.eye(3), np.eye(3))


def inverse(X):
    """The inverse of a BcMat3, part by part."""
    return BcMat3(np.linalg.inv(X.plus), np.linalg.inv(X.minus))


def frame_holonomy(conn, loop):
    """The frame-basis holonomy, conjugated back from the ambient gauge
    that holonomy returns."""
    return inverse(G0) @ holonomy(conn, loop) @ G0


def solved_sine(n, eps=0.01):
    """Gauss-solved datum with constant cubic pair over the sine chart.

    The flatness defect of a solved datum is O(spacing^2) with a constant
    proportional to the chart amplitude (measured: ~410*eps at small eps),
    so eps = 0.01 keeps the constant near 4.
    """
    if (n, eps) not in _SOLVED:
        grid = TorusGrid(n)
        chart = BeltramiChart.sine_perturbed(grid, eps)
        C = CubicPair(grid, 0.6, 0.6)
        problem = GaussProblem(chart, C)
        report = solve_newton(problem)
        assert report.converged
        _SOLVED[(n, eps)] = (report.psi, problem.C, chart)
    return _SOLVED[(n, eps)]


def smooth_psi(grid, amp=0.1):
    tx, ty = 2 * np.pi * grid.x, 2 * np.pi * grid.y
    return amp * np.sin(tx) * np.cos(ty) + 0.4j * amp * np.cos(tx)


def test_model_frame_gram():
    assert np.abs(F0.T @ Q3 @ F0 - QTILDE).max() < 1e-15
    G = F0 @ F0.T
    assert np.abs(G @ Q3 @ G - Q3).max() < 1e-15


def test_assemble_constant_data_closed_form():
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 1.0, 1.0), chart)
    assert np.abs(conn.s2 - 1.0).max() < 1e-14
    Ahat, Bhat = dense(conn, "Ahat"), dense(conn, "Bhat")
    A = BcMat3(Ahat["plus"][:, :, 3, 5], Ahat["minus"][:, :, 3, 5])
    B = BcMat3(Bhat["plus"][:, :, 11, 2], Bhat["minus"][:, :, 11, 2])
    assert (A - AHAT_CONST).norm_max() < 1e-14
    assert (B - BHAT_CONST).norm_max() < 1e-14
    # the product identity behind constant-data flatness: AB = BA = Id
    for lhs in (A @ B, B @ A):
        assert (lhs - IDENTITY).norm_max() < 1e-14


def test_assemble_zero_cubic_pattern():
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 0.0, 0.0), chart)
    a_ref = np.zeros((3, 3))
    a_ref[1, 2] = a_ref[2, 0] = 1.0
    b_ref = np.zeros((3, 3))
    b_ref[0, 2] = b_ref[2, 1] = 1.0
    for part in dense(conn, "Ahat").values():
        assert np.abs(part - a_ref[:, :, None, None]).max() < 1e-14
    for part in dense(conn, "Bhat").values():
        assert np.abs(part - b_ref[:, :, None, None]).max() < 1e-14


def test_assemble_s_entries_track_conformal_factor():
    grid = TorusGrid(32)
    chart = BeltramiChart.sine_perturbed(grid, 0.05)
    psi = smooth_psi(grid)
    conn = assemble(psi, CubicPair(grid, 0.3, 0.1), chart)
    s = np.sqrt(conn.s2)
    for part in dense(conn, "Ahat").values():
        assert np.abs(part[1, 2] - s).max() < 1e-13
    for part in dense(conn, "Bhat").values():
        assert np.abs(part[2, 1] - s).max() < 1e-13


def test_assemble_traceless_and_gram_compatible():
    grid = TorusGrid(32)
    chart = BeltramiChart.sine_perturbed(grid, 0.05)
    conn = assemble(smooth_psi(grid), CubicPair(grid, 0.7, 0.2 + 0.1j), chart)
    for part in dense(conn, "Ahat").values():
        assert np.abs(np.trace(part)).max() < 1e-13
    assert pairing_residual(conn) < 1e-13


@pytest.mark.parametrize("eps", [0.0, 0.1], ids=["identity", "sine"])
def test_structured_assemble_and_residual_match_dense_oracles(eps):
    grid = TorusGrid(32)
    chart = (BeltramiChart.sine_perturbed(grid, eps) if eps
             else BeltramiChart.identity(grid))
    psi = smooth_psi(grid)
    C = CubicPair(grid, 0.6 + 0.2 * np.sin(2 * np.pi * grid.x),
                  0.8 - 0.1j * np.cos(2 * np.pi * grid.y))
    conn = assemble(psi, C, chart)
    Ap, Am, Bp, Bm = oracles.assemble_dense(psi, C, chart)
    A, B = dense(conn, "Ahat"), dense(conn, "Bhat")
    for got, want in ((A["plus"], Ap), (A["minus"], Am),
                      (B["plus"], Bp), (B["minus"], Bm)):
        assert np.array_equal(oracles.stacked(got), want)
    # 5 structural entries per matrix and part, 9 distinct planes in all
    support = {"Ahat": {(0, 0), (1, 1), (0, 1), (1, 2), (2, 0)},
               "Bhat": {(0, 0), (1, 1), (0, 2), (1, 0), (2, 1)}}
    for name, parts in conn.planes.items():
        for part in ("plus", "minus"):
            assert set(parts[part]) == support[name], (name, part)
    assert len({id(p) for parts in conn.planes.values()
                for part in parts.values() for p in part.values()}) == 9
    mc = maurer_cartan_residual(conn)
    for got, A, B in ((mc["plus"], Ap, Bp), (mc["minus"], Am, Bm)):
        ref = oracles.maurer_cartan_dense(A, B, chart)
        assert np.abs(ref).max() > 0.1
        assert (np.abs(oracles.stacked(got) - ref).max()
                <= 1e-13 * np.abs(ref).max())


def test_generic_nine_plane_field_is_accepted_and_checked():
    grid = TorusGrid(16)
    chart = BeltramiChart.sine_perturbed(grid, 0.1)
    conn = assemble(smooth_psi(grid), CubicPair(grid, 0.6, 0.8), chart)
    generic = FlatConnectionField(oracles.entry_mapping(dense(conn, "Ahat")),
                                  oracles.entry_mapping(dense(conn, "Bhat")),
                                  chart, conn.s2)
    for parts in generic.planes.values():
        assert all(len(parts[part]) == 9 for part in ("plus", "minus"))
    for name in ("Ahat", "Bhat"):
        for part in ("plus", "minus"):
            assert np.array_equal(dense(generic, name)[part],
                                  dense(conn, name)[part])
    # the structural zeros of the generic field add exact zeros
    mc, mc_generic = (maurer_cartan_residual(c) for c in (conn, generic))
    assert np.array_equal(mc_generic["plus"], mc["plus"])
    assert np.array_equal(mc_generic["minus"], mc["minus"])
    for part in ("plus", "minus"):
        for leg in (0, 1):
            assert np.array_equal(grid_step_generators(generic, part, leg),
                                  grid_step_generators(conn, part, leg))

    # a dense random traceless field, against the dense residual
    rng = np.random.default_rng(5)
    n = grid.n

    def traceless():
        M = (rng.standard_normal((n, n, 3, 3))
             + 1j * rng.standard_normal((n, n, 3, 3)))
        M -= np.trace(M, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) / 3
        return M

    A = {part: traceless() for part in PARTS}
    B = {part: traceless() for part in PARTS}

    def entries(field):
        return oracles.entry_mapping({part: mat3.planes(M)
                                      for part, M in field.items()})

    mc = maurer_cartan_residual(
        FlatConnectionField(entries(A), entries(B), chart, 1.0))
    for part in PARTS:
        ref = oracles.maurer_cartan_dense(A[part], B[part], chart)
        assert (np.abs(oracles.stacked(mc[part]) - ref).max()
                <= 1e-13 * np.abs(ref).max())
    traced = A["plus"].copy()
    traced[3, 5, 2, 2] += 1e-6
    with pytest.raises(ValueError, match="Ahat has nonzero trace"):
        FlatConnectionField(entries({"plus": traced, "minus": A["minus"]}),
                            entries(B), chart, 1.0)


def test_maurer_cartan_constant_data_zero():
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 1.0, 1.0), chart)
    assert max_abs(maurer_cartan_residual(conn)) <= 1e-13


def test_maurer_cartan_solved_datum_second_order():
    for n in (32, 64):
        psi, C, chart = solved_sine(n)
        conn = assemble(psi, C, chart)
        h = chart.grid.spacing
        assert max_abs(maurer_cartan_residual(conn)) <= 10 * h * h


def test_maurer_cartan_reads_cubic_holomorphy_defect():
    grid = TorusGrid(64)
    chart = BeltramiChart.identity(grid)
    delta = 0.05 * np.sin(2 * np.pi * grid.x)
    C = CubicPair(grid, 1.0 + delta, 1.0)
    conn = assemble(0.0, C, chart)
    mc = maurer_cartan_residual(conn)
    _, r1, _ = reduced_system_residual(0.0, C, chart)
    assert np.abs(r1).max() > 0.05
    assert np.abs(mc["plus"][0, 1] - r1).max() < 1e-13
    assert np.abs(mc["minus"][0, 1] + r1).max() < 1e-13


def test_reduced_system_constant_exact_datum():
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    # alpha conj(beta) e^{-6 psi} = 1 pins the constant solution
    for ab, psi in ((1.0, 0.0), (2.0, np.log(4.0) / 6.0)):
        C = CubicPair(grid, ab, ab)
        r0, r1, r2 = reduced_system_residual(psi, C, chart)
        assert np.abs(r0).max() < 1e-13
        assert np.abs(r1).max() < 1e-15
        assert np.abs(r2).max() < 1e-15


def test_reduced_system_codazzi_decouples():
    grid = TorusGrid(32)
    chart = BeltramiChart.constant_mu(grid, 0.3)
    psi = smooth_psi(grid)
    C = CubicPair(grid, 0.7, 0.7)
    r0, r1, r2 = reduced_system_residual(psi, C, chart)
    assert np.abs(r1).max() < 1e-15
    assert np.abs(r2).max() < 1e-15
    assert np.abs(r0).max() > 0.1


def test_reduced_r0_is_scaled_gauss_residual():
    grid = TorusGrid(32)
    chart = BeltramiChart.constant_mu(grid, 0.25 - 0.1j)
    tx, ty = 2 * np.pi * grid.x, 2 * np.pi * grid.y
    psi = smooth_psi(grid)
    C = CubicPair(grid, 0.5 + 0.2 * np.sin(ty), 0.3 * np.cos(tx) + 0.8)
    problem = GaussProblem(chart, C)
    ri = residual_intrinsic(psi, problem)
    s2 = ComplexMetric(chart, psi).s2
    r0, _, _ = reduced_system_residual(psi, C, chart)
    scale = max(1.0, np.abs(r0).max())
    assert np.abs(r0 - s2 * ri).max() < 1e-12 * scale


def test_flatness_entries_equal_reduced_system_frozen_factors():
    # constant chart factors, zero cubic: the diagonal is exactly r0 and
    # only the s-corner entries carry discrete product-rule defects
    grid = TorusGrid(32)
    h = grid.spacing
    chart = BeltramiChart.constant_mu(grid, 0.2 + 0.1j)
    psi = smooth_psi(grid)
    C0 = CubicPair(grid, 0.0, 0.0)
    mc = maurer_cartan_residual(assemble(psi, C0, chart))
    r0, _, _ = reduced_system_residual(psi, C0, chart)
    scale = max(1.0, np.abs(r0).max())
    assert np.abs(mc["plus"][0, 0] - r0).max() < 1e-12 * scale
    assert np.abs(mc["minus"][0, 0] - r0).max() < 1e-12 * scale
    assert np.abs(mc["plus"][1, 1] + r0).max() < 1e-12 * scale
    assert np.abs(mc["plus"][0, 1]).max() < 1e-14
    assert np.abs(mc["plus"][1, 0]).max() < 1e-14
    for i, j in ((0, 2), (1, 2), (2, 0), (2, 1)):
        assert np.abs(mc["plus"][i, j]).max() < 10 * h * h

    # flat chart, constant psi, varying cubic: all four live entries match
    chart2 = BeltramiChart.identity(grid)
    tx, ty = 2 * np.pi * grid.x, 2 * np.pi * grid.y
    C = CubicPair(grid, 1.0 + 0.2 * np.sin(tx), 0.8 + 0.1 * np.cos(ty))
    mc2 = maurer_cartan_residual(assemble(0.0, C, chart2))
    q0, q1, q2 = reduced_system_residual(0.0, C, chart2)
    assert np.abs(mc2["plus"][0, 0] - q0).max() < 1e-12
    assert np.abs(mc2["plus"][1, 1] + q0).max() < 1e-12
    assert np.abs(mc2["plus"][0, 1] - q1).max() < 1e-12
    # the conj(beta) entry enters with weight -tau
    assert np.abs(mc2["plus"][1, 0] + q2).max() < 1e-12
    assert np.abs(mc2["minus"][1, 0] - q2).max() < 1e-12
    for i, j in ((0, 2), (1, 2), (2, 0), (2, 1)):
        assert np.abs(mc2["plus"][i, j]).max() < 1e-14


def test_holonomy_zero_connection_is_identity():
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    zero = oracles.entry_mapping(
        {part: np.zeros((3, 3, 16, 16), dtype=complex) for part in PARTS})
    conn = FlatConnectionField(zero, zero, chart, 1.0)
    H = holonomy(conn, Loop.x_period(16))
    assert (H - IDENTITY).norm_max() < 1e-14


def test_holonomy_constant_data_matches_exponential_oracle():
    grid = TorusGrid(32)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 1.0, 1.0), chart)
    Hx = frame_holonomy(conn, Loop.x_period(32))
    Hy = frame_holonomy(conn, Loop.y_period(32))
    for part in ("plus", "minus"):
        A = getattr(AHAT_CONST, part)
        B = getattr(BHAT_CONST, part)
        assert np.abs(getattr(Hx, part) - expm(A + B)).max() < 1e-12
        assert np.abs(getattr(Hy, part) - expm(1j * (A - B))).max() < 1e-12
    comm = Hx @ Hy - Hy @ Hx
    assert comm.norm_max() < 1e-12


def test_holonomy_solved_datum_invariants():
    psi, C, chart = solved_sine(64)
    conn = assemble(psi, C, chart)
    Hx = holonomy(conn, Loop.x_period(64))
    Hy = holonomy(conn, Loop.y_period(64))
    for H in (Hx, Hy):
        # the SL(3,C) representative is the plus part, unimodular, and
        # the minus part is its compatible partner
        assert abs(np.linalg.det(H.plus) - 1.0) < 1e-9
        assert compatibility_residual(H) < 1e-9
        assert H.plus.shape == (3, 3)
    assert (Hx @ Hy - Hy @ Hx).norm_max() < 10 * chart.grid.spacing
    Hf = frame_holonomy(conn, Loop.x_period(64))
    expected = QTILDE @ np.linalg.inv(Hf.plus).T @ QTILDE
    assert np.abs(Hf.minus - expected).max() < 1e-12


def test_holonomy_refinement_first_order_or_better():
    mats = []
    for n in (32, 64, 128):
        psi, C, chart = solved_sine(n)
        conn = assemble(psi, C, chart)
        mats.append(frame_holonomy(conn, Loop.x_period(n)))
    e1 = (mats[0] - mats[1]).norm_max()
    e2 = (mats[1] - mats[2]).norm_max()
    assert e2 < e1
    assert np.log2(e1 / e2) > 0.8


def test_period_commutator_converges_on_sine_data():
    # On a torus the two period holonomies commute.  On the sine chart
    # [Omega_x, Omega_y] != 0, so only the frame order (steps multiply
    # on the right) makes the discrete commutator vanish with the grid;
    # the opposite order leaves it at about 0.74 for every n.
    comms = []
    for n in (64, 128, 256):
        psi, C, chart = solved_sine(n, eps=0.05)
        conn = assemble(psi, C, chart)
        Hx = frame_holonomy(conn, Loop.x_period(n))
        Hy = frame_holonomy(conn, Loop.y_period(n))
        comms.append((Hx @ Hy - Hy @ Hx).norm_max())
    assert comms[0] < 1e-2, comms
    assert comms[0] > 3.0 * comms[1] > 9.0 * comms[2], comms


def test_frame_conjugation_covariance():
    grid = TorusGrid(32)
    chart = BeltramiChart.constant_mu(grid, 0.15)
    conn = assemble(smooth_psi(grid), CubicPair(grid, 0.5, 0.5), chart)
    rng = np.random.default_rng(3)
    xi = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    gp = expm(xi)
    g = BcMat3(gp, QTILDE @ np.linalg.inv(gp).T @ QTILDE)
    conn2 = conjugate_frame(conn, g)
    assert pairing_residual(conn2) < 1e-10
    gi = inverse(g)
    mc1 = maurer_cartan_residual(conn)
    mc2 = maurer_cartan_residual(conn2)
    for part in PARTS:
        want = (getattr(gi, part) @ oracles.stacked(mc1[part])
                @ getattr(g, part))
        assert np.abs(oracles.stacked(mc2[part]) - want).max() < 1e-11
    H1 = frame_holonomy(conn, Loop.x_period(32))
    H2 = frame_holonomy(conn2, Loop.x_period(32))
    assert (H2 - gi @ H1 @ g).norm_max() < 1e-11


def test_expm_steps_matches_scipy_across_degrees_and_squaring():
    # 1-norms from 1e-17 to 5: every degree of the table (each at and
    # below its theta) and the scale-and-square branch above the last
    rng = np.random.default_rng(21)
    targets = sorted({*TAYLOR_THETA, *(0.5 * t for t in TAYLOR_THETA),
                      1e-4, 0.015, 1.5, 2.5, 5.0})
    assert targets[-1] > TAYLOR_THETA[-1]
    for target in targets:
        S = (rng.standard_normal((6, 3, 3))
             + 1j * rng.standard_normal((6, 3, 3)))
        S *= target / np.abs(S).sum(axis=-2).max()
        E = oracles.stacked(expm_steps(mat3.planes(S)))
        ref = oracles.expm_oracle(S)
        err = (np.abs(E - ref).max(axis=(-2, -1))
               / np.abs(ref).max(axis=(-2, -1)))
        assert err.max() < 1e-14, (target, err.max())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expm_steps_rejects_non_finite_generators(bad):
    S = np.zeros((3, 3, 4), dtype=complex)
    S[0, 1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        expm_steps(S)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["Ahat", "Bhat", "s2"])
def test_connection_rejects_non_finite_entries(where, bad):
    grid = TorusGrid(16)
    conn = assemble(0.0, CubicPair(grid, 1.0, 1.0),
                    BeltramiChart.identity(grid))
    fields = {"Ahat": dense(conn, "Ahat"), "Bhat": dense(conn, "Bhat"),
              "s2": conn.s2.copy()}
    if where == "s2":
        fields["s2"][3, 5] = bad
    else:
        # off the diagonal: the trace stays finite
        fields[where]["minus"][0, 1, 3, 5] = bad
    for name in ("Ahat", "Bhat"):
        fields[name] = oracles.entry_mapping(fields[name])
    with pytest.raises(ValueError, match=f"{where} has non-finite"):
        FlatConnectionField(fields["Ahat"], fields["Bhat"], conn.chart,
                            fields["s2"])


@pytest.mark.parametrize("eps", [0.0, 0.1], ids=["identity", "sine"])
def test_line_step_generators_equal_the_grid_row_or_column_bitwise(eps):
    grid = TorusGrid(32)
    chart = (BeltramiChart.sine_perturbed(grid, eps) if eps
             else BeltramiChart.identity(grid))
    conn = assemble(smooth_psi(grid), CubicPair(grid, 0.6, 0.8), chart)
    for part in ("plus", "minus"):
        for leg in (0, 1):
            S = grid_step_generators(conn, part, leg)
            # the seam line and one off it: row iy (leg 0), column ix
            for line in (0, 13):
                want = S[:, :, line] if leg == 0 else S[:, :, :, line]
                got = grid_step_generators(conn, part, leg, line)
                assert got.shape == (3, 3, grid.n)
                assert np.array_equal(got, want), (part, leg, line)


def test_step_exponentials_keep_the_minus_part_structure():
    # S_minus = -QTILDE S_plus^T QTILDE entry for entry, so exactly
    # exp(S_minus) = QTILDE exp(S_plus)^-T QTILDE.  The kernel keeps that
    # far below ulp(1) (about 1e-18 on this loop); adding the identity
    # together with the scalar part of the I coefficient rounds the
    # diagonal twice and gives 2.2e-16.  The inverse is the adjugate
    # solve, which is exact enough here; LAPACK's pivoted inverse rounds
    # the diagonal at ulp(1) by itself.
    n = 128
    problem = wang_problem(0.6, n)
    report = solve_newton(problem)
    conn = assemble(report.psi, problem.C, problem.background.chart)
    E = {part: oracles.stacked(expm_steps(grid_step_generators(
                conn, part, 0, 0)))
         for part in ("plus", "minus")}
    inv = oracles.stacked(oracles.solve(mat3.planes(E["plus"]), np.eye(3)))
    err = np.abs(E["minus"] - QTILDE @ np.swapaxes(inv, -1, -2) @ QTILDE)
    assert err.max() < 1e-16, err.max()


@pytest.mark.parametrize("batch", [(), (5,)], ids=["single", "batch"])
@pytest.mark.parametrize("with_start", [False, True],
                         ids=["identity", "start"])
def test_transport_multiplies_steps_on_the_right(batch, with_start):
    rng = np.random.default_rng(17)

    def matrices(*shape):
        return (rng.standard_normal(shape + batch + (3, 3))
                + 1j * rng.standard_normal(shape + batch + (3, 3)))

    E = matrices(7)
    start = matrices() if with_start else None
    G = oracles.stacked(connection.transport(
        mat3.planes(E), None if start is None else mat3.planes(start)))
    assert G.shape == (8,) + batch + (3, 3)
    P = np.broadcast_to(np.eye(3), batch + (3, 3)) if start is None else start
    for k in range(8):
        assert np.array_equal(G[k], P), k       # start E_0 E_1 ... E_{k-1}
        if k < 7:                               # P E_k as P + P (E_k - I)
            P = P + oracles.matmul_in_order(P, E[k] - np.eye(3))
    # the steps do not commute, so the opposite order is another answer
    assert not np.allclose(G[-1], E[-1] @ G[-2])
    ref = oracles.transport_matmul(E, start)
    assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("batch", [(), (2,), (64,)],
                         ids=["single", "pair", "row"])
@pytest.mark.parametrize("layout", ["fresh", "strided", "reversed"])
def test_transport_step_equals_the_row_form_bitwise(batch, layout):
    # the broadcast step sums the row-form product's terms in its order,
    # into the views the sweeps write: a frame row of a grid (strided in
    # the step axis) and a reversed run behind the base
    rng = np.random.default_rng(23)
    shape = (3, 3, 9) + batch
    E = (np.eye(3).reshape((3, 3, 1) + (1,) * len(batch))
         + 0.3 * (rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape)))
    start = (rng.standard_normal((3, 3) + batch)
             + 1j * rng.standard_normal((3, 3) + batch))
    for st in (None, start):
        if layout == "fresh":
            got = connection.transport(E, st)
            want = oracles.transport_row_form(E, st)
        else:
            bufs = [np.zeros((3, 3, 12) + batch + (2,), dtype=complex)
                    for _ in range(2)]
            views = [b[..., 1] for b in bufs]
            if layout == "reversed":
                views = [v[:, :, 10::-1][:, :, :10] for v in views]
            else:
                views = [v[:, :, 1:11] for v in views]
            got = connection.transport(E, st, out=views[0])
            want = oracles.transport_row_form(E, st, out=views[1])
            assert np.array_equal(bufs[0], bufs[1])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("loop", [Loop.x_period(32), Loop.y_period(32)],
                         ids=["x_period", "y_period"])
def test_holonomy_matches_per_step_expm_product(loop):
    psi, C, chart = solved_sine(32)
    conn = assemble(psi, C, chart)
    H = holonomy(conn, loop)
    rp, rm = oracles.holonomy_oracle(conn, loop, F0)
    for part, ref in (("plus", rp), ("minus", rm)):
        err = np.abs(getattr(H, part) - ref).max()
        assert err < 1e-13 * max(1.0, np.abs(ref).max()), (part, err)


def test_holonomy_never_evaluates_the_maurer_cartan_residual(monkeypatch):
    # flatness is checked once, by flatness_residual; holonomy trusts
    # its caller and reads Omega only
    calls = []
    original = connection.maurer_cartan_residual

    def counted(conn):
        calls.append(conn)
        return original(conn)

    monkeypatch.setattr(connection, "maurer_cartan_residual", counted)
    psi, C, chart = solved_sine(32)
    conn = assemble(psi, C, chart)
    holonomy(conn, Loop.x_period(32))
    holonomy(conn, Loop.y_period(32))
    assert calls == []
    assert conn.flatness_residual() == max_abs(original(conn))
    assert calls == [conn]


def test_holonomy_reads_omega_only_on_its_loop():
    # the loop visits n nodes; Omega over the whole grid would be 4
    # fields (Ox, Oy, two idempotent parts each)
    n = 128
    field = n * n * 9 * 16          # one complex 3x3 field
    problem = wang_problem(0.6, n)
    report = solve_newton(problem)
    conn = assemble(report.psi, problem.C, problem.background.chart)
    tracemalloc.start()
    try:
        holonomy(conn, Loop.x_period(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= field, peak / field


def test_higgs_split_constant_datum():
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 1.0, 1.0), chart)
    hd = higgs_split(conn)
    assert np.abs(hd.metricH - HTILDE).max() == 0.0
    assert max_abs(hd.dH10) < 1e-14
    assert max_abs(hd.dH01) < 1e-14
    for phi, name in ((hd.phi10, "Ahat"), (hd.phi01, "Bhat")):
        M = dense(conn, name)
        assert max_abs({part: phi[part] - M[part] for part in PARTS}) < 1e-14
    assert hd.reconstruction_residual(conn) < 1e-14


def test_higgs_split_zero_cubic_pattern():
    grid = TorusGrid(32)
    chart = BeltramiChart.identity(grid)
    psi = 0.1 * np.sin(2 * np.pi * grid.x) * np.cos(2 * np.pi * grid.y)
    conn = assemble(psi, CubicPair(grid, 0.0, 0.0), chart)
    hd = higgs_split(conn)
    assert hd.reconstruction_residual(conn) < 1e-14
    off = hd.dH10["plus"].copy()
    off[0, 0] = off[1, 1] = 0.0
    assert np.abs(off).max() < 1e-14
    assert np.abs(hd.dH10["plus"][0, 0]).max() > 0.1
    ph = hd.phi10["plus"].copy()
    ph[1, 2] = ph[2, 0] = 0.0
    assert np.abs(ph).max() < 1e-14


def test_hitchin_residuals_partition_flatness():
    psi, C, chart = solved_sine(32)
    conn = assemble(psi, C, chart)
    mc = maurer_cartan_residual(conn)
    curv, holo = hitchin_residuals(conn)
    gap = max_abs({part: (curv[part] + holo[part]) - mc[part]
                   for part in PARTS})
    assert gap < 1e-15 * max(1.0, max_abs(mc))
    curv_p, holo_p = (oracles.stacked(f["plus"]) for f in (curv, holo))
    ad = HTILDE @ np.swapaxes(curv_p, -1, -2) @ HTILDE
    assert np.abs(ad + curv_p).max() < 1e-15
    ad = HTILDE @ np.swapaxes(holo_p, -1, -2) @ HTILDE
    assert np.abs(ad - holo_p).max() < 1e-15


def test_loop_validation():
    assert Loop.x_period(16).steps == ((1, 0),) * 16
    assert Loop.y_period(16).steps == ((0, 1),) * 16
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 1.0, 1.0), chart)
    with pytest.raises(ValueError):
        holonomy(conn, Loop.x_period(32))


def test_max_abs_propagates_nan_in_the_minus_part():
    n = 4
    field = {"plus": np.ones((3, 3, n, n), dtype=complex),
             "minus": np.full((3, 3, n, n), np.nan, dtype=complex)}
    assert np.isnan(max_abs(field))


def test_holonomy_checks_fail_on_nan_minus_part():
    minus = np.eye(3, dtype=complex)
    minus[0, 0] = np.nan
    checks = holonomy_checks(IDENTITY, BcMat3(np.eye(3), minus),
                             0.1)
    values = {name: value for name, value, _ in checks}
    assert np.isnan(values["compat"]) and np.isnan(values["commute"])
    assert not _result(6, "holonomy", checks, 0.0).passed
