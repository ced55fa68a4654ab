"""Connection assembly, flatness residuals, holonomy, and the Higgs split."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from bchyp import connection, mat3
from bchyp.bicomplex import BcMat3, NotInImage, Q3, compatibility_residual, phi_iso
from bchyp.connection import (
    F0, HTILDE, QTILDE,
    BcMat3Field, FlatConnectionField, Loop,
    TAYLOR_THETA,
    assemble, conjugate_frame, expm_steps, grid_step_generators,
    higgs_split, hitchin_residuals, holonomy, maurer_cartan_residual,
    reduced_system_residual, step_generators, to_sl3,
)
from bchyp.criteria import _result, holonomy_checks
from bchyp.gauss import (
    GaussProblem, residual_intrinsic, solve_newton, wang_specialize,
)
from bchyp.metric import BeltramiChart, ComplexMetric, CubicPair, TorusGrid

AHAT_CONST = BcMat3.from_tau_parts([[0, 0, 0], [0, 0, 1], [1, 0, 0]],
                                   [[0, -1, 0], [0, 0, 0], [0, 0, 0]])
BHAT_CONST = BcMat3.from_tau_parts([[0, 0, 1], [0, 0, 0], [0, 1, 0]],
                                   [[0, 0, 0], [-1, 0, 0], [0, 0, 0]])

_SOLVED = {}


def solved_sine(n, eps=0.01):
    """Gauss-solved datum with constant cubic pair over the sine chart.

    The flatness defect of a solved datum is O(spacing^2) with a constant
    proportional to the chart amplitude (measured: ~410*eps at small eps),
    so eps = 0.01 keeps the constant near 4.
    """
    if (n, eps) not in _SOLVED:
        grid = TorusGrid(n)
        chart = BeltramiChart.sine_perturbed(grid, eps)
        C = CubicPair(grid, 0.6, 0.6, holomorphic=True)
        problem = GaussProblem(ComplexMetric(chart, 0.0), C)
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
    Ahat, Bhat = conn.Ahat, conn.Bhat
    A = BcMat3(Ahat.plus[3, 5], Ahat.minus[3, 5])
    B = BcMat3(Bhat.plus[11, 2], Bhat.minus[11, 2])
    assert (A - AHAT_CONST).norm_max() < 1e-14
    assert (B - BHAT_CONST).norm_max() < 1e-14
    # the product identity behind constant-data flatness: AB = BA = Id
    for lhs in (A @ B, B @ A):
        assert (lhs - BcMat3.identity()).norm_max() < 1e-14


def test_assemble_zero_cubic_pattern():
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 0.0, 0.0), chart)
    a_ref = np.zeros((3, 3))
    a_ref[1, 2] = a_ref[2, 0] = 1.0
    b_ref = np.zeros((3, 3))
    b_ref[0, 2] = b_ref[2, 1] = 1.0
    for part in (conn.Ahat.plus, conn.Ahat.minus):
        assert np.abs(part - a_ref).max() < 1e-14
    for part in (conn.Bhat.plus, conn.Bhat.minus):
        assert np.abs(part - b_ref).max() < 1e-14


def test_assemble_s_entries_track_conformal_factor():
    grid = TorusGrid(32)
    chart = BeltramiChart.sine_perturbed(grid)
    psi = smooth_psi(grid)
    conn = assemble(psi, CubicPair(grid, 0.3, 0.1), chart)
    s = np.sqrt(conn.s2)
    for part in (conn.Ahat.plus, conn.Ahat.minus):
        assert np.abs(part[..., 1, 2] - s).max() < 1e-13
    for part in (conn.Bhat.plus, conn.Bhat.minus):
        assert np.abs(part[..., 2, 1] - s).max() < 1e-13


def test_assemble_traceless_and_gram_compatible():
    grid = TorusGrid(32)
    chart = BeltramiChart.sine_perturbed(grid)
    conn = assemble(smooth_psi(grid), CubicPair(grid, 0.7, 0.2 + 0.1j), chart)
    for part in (conn.Ahat.plus, conn.Ahat.minus):
        assert np.abs(np.trace(part, axis1=-2, axis2=-1)).max() < 1e-13
    assert conn.pairing_residual() < 1e-13


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
    for got, want in ((conn.Ahat.plus, Ap), (conn.Ahat.minus, Am),
                      (conn.Bhat.plus, Bp), (conn.Bhat.minus, Bm)):
        assert np.array_equal(got, want)
    # 5 structural entries per matrix and part, 9 distinct planes in all
    support = {"Ahat": {(0, 0), (1, 1), (0, 1), (1, 2), (2, 0)},
               "Bhat": {(0, 0), (1, 1), (0, 2), (1, 0), (2, 1)}}
    for name, parts in conn.planes.items():
        for part in ("plus", "minus"):
            assert set(parts[part]) == support[name], (name, part)
    assert len({id(p) for parts in conn.planes.values()
                for part in parts.values() for p in part.values()}) == 9
    mc = maurer_cartan_residual(conn)
    for got, A, B in ((mc.plus, Ap, Bp), (mc.minus, Am, Bm)):
        ref = oracles.maurer_cartan_dense(A, B, chart)
        assert np.abs(ref).max() > 0.1
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_generic_nine_plane_field_is_accepted_and_checked():
    grid = TorusGrid(16)
    chart = BeltramiChart.sine_perturbed(grid, 0.1)
    conn = assemble(smooth_psi(grid), CubicPair(grid, 0.6, 0.8), chart)
    generic = FlatConnectionField(conn.Ahat, conn.Bhat, chart, conn.s2)
    for parts in generic.planes.values():
        assert all(len(parts[part]) == 9 for part in ("plus", "minus"))
    for name in ("Ahat", "Bhat"):
        for part in ("plus", "minus"):
            assert np.array_equal(getattr(getattr(generic, name), part),
                                  getattr(getattr(conn, name), part))
    # the structural zeros of the generic field add exact zeros
    mc, mc_generic = (maurer_cartan_residual(c) for c in (conn, generic))
    assert np.array_equal(mc_generic.plus, mc.plus)
    assert np.array_equal(mc_generic.minus, mc.minus)
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

    A = BcMat3Field(traceless(), traceless())
    B = BcMat3Field(traceless(), traceless())
    field = FlatConnectionField(A, B, chart, 1.0)
    mc = maurer_cartan_residual(field)
    for got, a, b in ((mc.plus, A.plus, B.plus), (mc.minus, A.minus,
                                                   B.minus)):
        ref = oracles.maurer_cartan_dense(a, b, chart)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    traced = A.plus.copy()
    traced[3, 5, 2, 2] += 1e-6
    with pytest.raises(ValueError, match="Ahat has nonzero trace"):
        FlatConnectionField(BcMat3Field(traced, A.minus), B, chart, 1.0)


def test_maurer_cartan_constant_data_zero():
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 1.0, 1.0), chart)
    assert maurer_cartan_residual(conn).max_abs() <= 1e-13


def test_maurer_cartan_solved_datum_second_order():
    for n in (32, 64):
        psi, C, chart = solved_sine(n)
        conn = assemble(psi, C, chart)
        h = chart.grid.spacing
        assert maurer_cartan_residual(conn).max_abs() <= 10 * h * h


def test_maurer_cartan_reads_cubic_holomorphy_defect():
    grid = TorusGrid(64)
    chart = BeltramiChart.identity(grid)
    delta = 0.05 * np.sin(2 * np.pi * grid.x)
    C = CubicPair(grid, 1.0 + delta, 1.0)
    conn = assemble(0.0, C, chart)
    mc = maurer_cartan_residual(conn)
    _, r1, _ = reduced_system_residual(0.0, C, chart)
    assert np.abs(r1).max() > 0.05
    assert np.abs(mc.plus[..., 0, 1] - r1).max() < 1e-13
    assert np.abs(mc.minus[..., 0, 1] + r1).max() < 1e-13


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
    problem = GaussProblem(ComplexMetric(chart, 0.0), C)
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
    assert np.abs(mc.plus[..., 0, 0] - r0).max() < 1e-12 * scale
    assert np.abs(mc.minus[..., 0, 0] - r0).max() < 1e-12 * scale
    assert np.abs(mc.plus[..., 1, 1] + r0).max() < 1e-12 * scale
    assert np.abs(mc.plus[..., 0, 1]).max() < 1e-14
    assert np.abs(mc.plus[..., 1, 0]).max() < 1e-14
    for i, j in ((0, 2), (1, 2), (2, 0), (2, 1)):
        assert np.abs(mc.plus[..., i, j]).max() < 10 * h * h

    # flat chart, constant psi, varying cubic: all four live entries match
    chart2 = BeltramiChart.identity(grid)
    tx, ty = 2 * np.pi * grid.x, 2 * np.pi * grid.y
    C = CubicPair(grid, 1.0 + 0.2 * np.sin(tx), 0.8 + 0.1 * np.cos(ty))
    mc2 = maurer_cartan_residual(assemble(0.0, C, chart2))
    q0, q1, q2 = reduced_system_residual(0.0, C, chart2)
    assert np.abs(mc2.plus[..., 0, 0] - q0).max() < 1e-12
    assert np.abs(mc2.plus[..., 1, 1] + q0).max() < 1e-12
    assert np.abs(mc2.plus[..., 0, 1] - q1).max() < 1e-12
    # the conj(beta) entry enters with weight -tau
    assert np.abs(mc2.plus[..., 1, 0] + q2).max() < 1e-12
    assert np.abs(mc2.minus[..., 1, 0] - q2).max() < 1e-12
    for i, j in ((0, 2), (1, 2), (2, 0), (2, 1)):
        assert np.abs(mc2.plus[..., i, j]).max() < 1e-14


def test_holonomy_zero_connection_is_identity():
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    conn = FlatConnectionField(BcMat3Field.zeros(16), BcMat3Field.zeros(16),
                               chart, 1.0)
    H = holonomy(conn, Loop.x_period(16))
    assert (H - BcMat3.identity()).norm_max() < 1e-14


def test_holonomy_constant_data_matches_exponential_oracle():
    grid = TorusGrid(32)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 1.0, 1.0), chart)
    Hx = holonomy(conn, Loop.x_period(32), gauge="frame")
    Hy = holonomy(conn, Loop.y_period(32), gauge="frame")
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
        M, defect = to_sl3(H)
        assert defect < 1e-9
        assert compatibility_residual(H) < 1e-9
        assert M.shape == (3, 3)
    assert (Hx @ Hy - Hy @ Hx).norm_max() < 10 * chart.grid.spacing
    Hf = holonomy(conn, Loop.x_period(64), gauge="frame")
    expected = QTILDE @ np.linalg.inv(Hf.plus).T @ QTILDE
    assert np.abs(Hf.minus - expected).max() < 1e-12


def test_holonomy_refinement_first_order_or_better():
    mats = []
    for n in (32, 64, 128):
        psi, C, chart = solved_sine(n)
        conn = assemble(psi, C, chart)
        mats.append(holonomy(conn, Loop.x_period(n), gauge="frame"))
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
        Hx = holonomy(conn, Loop.x_period(n), gauge="frame")
        Hy = holonomy(conn, Loop.y_period(n), gauge="frame")
        comms.append((Hx @ Hy - Hy @ Hx).norm_max())
    assert comms[0] < 1e-2, comms
    assert comms[0] > 3.0 * comms[1] > 9.0 * comms[2], comms


def test_to_sl3_round_trip_and_rejection():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = A / np.linalg.det(A) ** (1.0 / 3.0)
    M, defect = to_sl3(phi_iso(A))
    assert np.abs(M - A).max() < 1e-12
    assert defect < 1e-12
    with pytest.raises(NotInImage):
        to_sl3(BcMat3(A, 2.0 * A))


def test_frame_conjugation_covariance():
    grid = TorusGrid(32)
    chart = BeltramiChart.constant_mu(grid, 0.15)
    conn = assemble(smooth_psi(grid), CubicPair(grid, 0.5, 0.5), chart)
    rng = np.random.default_rng(3)
    xi = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    gp = expm(xi)
    g = BcMat3(gp, QTILDE @ np.linalg.inv(gp).T @ QTILDE)
    conn2 = conjugate_frame(conn, g)
    assert conn2.pairing_residual() < 1e-10
    gi = g.inv()
    mc1 = maurer_cartan_residual(conn)
    mc2 = maurer_cartan_residual(conn2)
    assert np.abs(mc2.plus - gi.plus @ mc1.plus @ g.plus).max() < 1e-11
    assert np.abs(mc2.minus - gi.minus @ mc1.minus @ g.minus).max() < 1e-11
    H1 = holonomy(conn, Loop.x_period(32), gauge="frame")
    H2 = holonomy(conn2, Loop.x_period(32), gauge="frame")
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
        E = mat3.stacked(expm_steps(mat3.planes(S)))
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
    fields = {"Ahat": conn.Ahat, "Bhat": conn.Bhat, "s2": conn.s2.copy()}
    if where == "s2":
        fields["s2"][3, 5] = bad
    else:
        minus = fields[where].minus.copy()
        minus[3, 5, 0, 1] = bad         # off the diagonal: trace stays finite
        fields[where] = BcMat3Field(fields[where].plus, minus)
    with pytest.raises(ValueError, match=f"{where} has non-finite"):
        FlatConnectionField(fields["Ahat"], fields["Bhat"], conn.chart,
                            fields["s2"])


@pytest.mark.parametrize("eps", [0.0, 0.1], ids=["identity", "sine"])
def test_grid_step_generators_equal_gathered_generators_bitwise(eps):
    grid = TorusGrid(32)
    chart = (BeltramiChart.sine_perturbed(grid, eps) if eps
             else BeltramiChart.identity(grid))
    conn = assemble(smooth_psi(grid), CubicPair(grid, 0.6, 0.8), chart)
    node_y, node_x = np.ogrid[:grid.n, :grid.n]
    for part in ("plus", "minus"):
        for leg, (diy, dix) in ((0, (0, 1)), (1, (1, 0))):
            want = step_generators(conn, node_y, node_x, diy, dix, part)
            assert np.array_equal(grid_step_generators(conn, part, leg),
                                  want), (part, leg)


def test_step_exponentials_keep_the_minus_part_structure():
    # S_minus = -QTILDE S_plus^T QTILDE entry for entry, so exactly
    # exp(S_minus) = QTILDE exp(S_plus)^-T QTILDE.  The kernel keeps that
    # far below ulp(1) (about 1e-18 on this loop); adding the identity
    # together with the scalar part of the I coefficient rounds the
    # diagonal twice and gives 2.2e-16.  The inverse is the adjugate
    # solve, which is exact enough here; LAPACK's pivoted inverse rounds
    # the diagonal at ulp(1) by itself.
    n = 128
    problem = wang_specialize(1.2, TorusGrid(n))
    report = solve_newton(problem)
    conn = assemble(report.psi, problem.C, problem.background.chart)
    E = {part: mat3.stacked(expm_steps(step_generators(
                conn, 0, np.arange(n), 0, 1, part)))
         for part in ("plus", "minus")}
    inv = mat3.stacked(oracles.solve(mat3.planes(E["plus"]), np.eye(3)))
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
    G = mat3.stacked(connection.transport(
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


MIXED_STEPS = (((2, 0),) * 8 + ((1, 1),) * 16 + ((0, -1),) * 16
               + ((-1, 0),) * 4 + ((1, 0),) * 4 + ((0, 1),) * 32)


@pytest.mark.parametrize("loop", [Loop.x_period(32), Loop.y_period(32),
                                  Loop(32, MIXED_STEPS)],
                         ids=["x_period", "y_period", "mixed"])
def test_holonomy_matches_per_step_expm_product(loop):
    psi, C, chart = solved_sine(32)
    conn = assemble(psi, C, chart)
    H = holonomy(conn, loop)
    Hf = holonomy(conn, loop, gauge="frame")
    for got, (rp, rm) in ((H, oracles.holonomy_oracle(conn, loop, F0)),
                          (Hf, oracles.holonomy_oracle(conn, loop))):
        for part, ref in (("plus", rp), ("minus", rm)):
            err = np.abs(getattr(got, part) - ref).max()
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
    assert conn.flatness_residual() == original(conn).max_abs()
    assert calls == [conn]


def test_holonomy_reads_omega_only_on_its_loop():
    # the loop visits n nodes; Omega over the whole grid would be 4
    # fields (Ox, Oy, two idempotent parts each)
    n = 128
    field = n * n * 9 * 16          # one complex 3x3 field
    problem = wang_specialize(1.2, TorusGrid(n))
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
    assert hd.dH10.max_abs() < 1e-14
    assert hd.dH01.max_abs() < 1e-14
    assert (hd.phi10 - conn.Ahat).max_abs() < 1e-14
    assert (hd.phi01 - conn.Bhat).max_abs() < 1e-14
    assert hd.reconstruction_residual(conn) < 1e-14


def test_higgs_split_zero_cubic_pattern():
    grid = TorusGrid(32)
    chart = BeltramiChart.identity(grid)
    psi = 0.1 * np.sin(2 * np.pi * grid.x) * np.cos(2 * np.pi * grid.y)
    conn = assemble(psi, CubicPair(grid, 0.0, 0.0), chart)
    hd = higgs_split(conn)
    assert hd.reconstruction_residual(conn) < 1e-14
    off = hd.dH10.plus.copy()
    off[..., 0, 0] = off[..., 1, 1] = 0.0
    assert np.abs(off).max() < 1e-14
    assert np.abs(hd.dH10.plus[..., 0, 0]).max() > 0.1
    ph = hd.phi10.plus.copy()
    ph[..., 1, 2] = ph[..., 2, 0] = 0.0
    assert np.abs(ph).max() < 1e-14


def test_hitchin_residuals_partition_flatness():
    psi, C, chart = solved_sine(32)
    conn = assemble(psi, C, chart)
    mc = maurer_cartan_residual(conn)
    curv, holo = hitchin_residuals(conn)
    gap = ((curv + holo) - mc).max_abs()
    assert gap < 1e-15 * max(1.0, mc.max_abs())
    ad = HTILDE @ np.swapaxes(curv.plus, -1, -2) @ HTILDE
    assert np.abs(ad + curv.plus).max() < 1e-15
    ad = HTILDE @ np.swapaxes(holo.plus, -1, -2) @ HTILDE
    assert np.abs(ad - holo.plus).max() < 1e-15


def test_loop_validation():
    with pytest.raises(ValueError):
        Loop(16, [(1, 0)] * 5)
    with pytest.raises(ValueError):
        Loop(16, [])
    with pytest.raises(ValueError):
        Loop(16, [(0, 0)] * 16)
    lp = Loop.x_period(16)
    assert len(lp.steps) == 16
    Loop(16, [(1, 0)] * 16 + [(0, -1)] * 16)   # closed rectangle corner-free
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 1.0, 1.0), chart)
    with pytest.raises(ValueError):
        holonomy(conn, Loop.x_period(32))
    with pytest.raises(ValueError):
        holonomy(conn, Loop.x_period(16), gauge="chart")


def test_max_abs_propagates_nan_in_the_minus_part():
    n = 4
    field = BcMat3Field(np.ones((n, n, 3, 3), dtype=complex),
                        np.full((n, n, 3, 3), np.nan, dtype=complex))
    assert np.isnan(field.max_abs())


def test_holonomy_checks_fail_on_nan_minus_part():
    minus = np.eye(3, dtype=complex)
    minus[0, 0] = np.nan
    checks = holonomy_checks(BcMat3.identity(), BcMat3(np.eye(3), minus),
                             0.1)
    values = {name: value for name, value, _ in checks}
    assert np.isnan(values["compat"]) and np.isnan(values["commute"])
    assert not _result(6, "holonomy", checks, 0.0).passed
