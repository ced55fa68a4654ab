"""Connection assembly, flatness residuals, holonomy, and the Higgs split."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from bchyp import connection
from bchyp.bicomplex import BcMat3, NotInImage, Q3, compatibility_residual, phi_iso
from bchyp.connection import (
    F0, HTILDE, QTILDE,
    BcMat3Field, FlatConnectionField, Loop,
    TAYLOR_THETA,
    assemble, conjugate_frame, expm_steps, higgs_split, hitchin_residuals,
    holonomy, maurer_cartan_residual, reduced_system_residual, to_sl3,
)
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
    A = conn.Ahat.at(3, 5)
    B = conn.Bhat.at(11, 2)
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
    tp, tm = conn.Ahat.trace()
    assert max(np.abs(tp).max(), np.abs(tm).max()) < 1e-13
    assert conn.pairing_residual() < 1e-13


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
    with warnings.catch_warnings():
        # solved-at-N data is flat only to O(spacing^2), below the
        # advisory threshold; the warning path has its own test
        warnings.simplefilter("ignore")
        Hx = holonomy(conn, Loop.x_period(64))
        Hy = holonomy(conn, Loop.y_period(64))
    for H in (Hx, Hy):
        M, defect = to_sl3(H)
        assert defect < 1e-9
        assert compatibility_residual(H) < 1e-9
        assert M.shape == (3, 3)
    assert (Hx @ Hy - Hy @ Hx).norm_max() < 10 * chart.grid.spacing
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        Hf = holonomy(conn, Loop.x_period(64), gauge="frame")
    expected = QTILDE @ np.linalg.inv(Hf.plus).T @ QTILDE
    assert np.abs(Hf.minus - expected).max() < 1e-12


def test_holonomy_refinement_first_order_or_better():
    mats = []
    for n in (32, 64, 128):
        psi, C, chart = solved_sine(n)
        conn = assemble(psi, C, chart)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mats.append(holonomy(conn, Loop.x_period(n), gauge="frame"))
    e1 = (mats[0] - mats[1]).norm_max()
    e2 = (mats[1] - mats[2]).norm_max()
    assert e2 < e1
    assert np.log2(e1 / e2) > 0.8


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # datum is deliberately non-flat
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
        E = expm_steps(S)
        ref = oracles.expm_oracle(S)
        err = (np.abs(E - ref).max(axis=(-2, -1))
               / np.abs(ref).max(axis=(-2, -1)))
        assert err.max() < 1e-14, (target, err.max())


MIXED_STEPS = (((2, 0),) * 8 + ((1, 1),) * 16 + ((0, -1),) * 16
               + ((-1, 0),) * 4 + ((1, 0),) * 4 + ((0, 1),) * 32)


@pytest.mark.parametrize("loop", [Loop.x_period(32), Loop.y_period(32),
                                  Loop(32, MIXED_STEPS)],
                         ids=["x_period", "y_period", "mixed"])
def test_holonomy_matches_per_step_expm_product(loop):
    psi, C, chart = solved_sine(32)
    conn = assemble(psi, C, chart)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        H = holonomy(conn, loop)
        Hf = holonomy(conn, loop, gauge="frame")
    for got, (rp, rm) in ((H, oracles.holonomy_oracle(conn, loop, F0)),
                          (Hf, oracles.holonomy_oracle(conn, loop))):
        for part, ref in (("plus", rp), ("minus", rm)):
            err = np.abs(getattr(got, part) - ref).max()
            assert err < 1e-13 * max(1.0, np.abs(ref).max()), (part, err)


def test_flatness_residual_runs_maurer_cartan_once(monkeypatch):
    calls = []
    original = connection.maurer_cartan_residual

    def counted(conn):
        calls.append(conn)
        return original(conn)

    monkeypatch.setattr(connection, "maurer_cartan_residual", counted)
    psi, C, chart = solved_sine(32)
    conn = assemble(psi, C, chart)
    flat = conn.flatness_residual()
    assert flat == original(conn).max_abs()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        holonomy(conn, Loop.x_period(32))
        holonomy(conn, Loop.y_period(32))
    assert conn.flatness_residual() == flat
    assert len(calls) == 1
    conn2 = assemble(psi, C, chart)
    conn2.flatness_residual()
    assert len(calls) == 2


def test_holonomy_reads_omega_only_on_its_loop():
    # the loop visits n nodes; Omega over the whole grid would be 4
    # fields (Ox, Oy, two idempotent parts each)
    n = 128
    field = n * n * 9 * 16          # one complex 3x3 field
    problem = wang_specialize(1.2, TorusGrid(n))
    report = solve_newton(problem)
    conn = assemble(report.psi, problem.C, problem.background.chart)
    conn.flatness_residual()        # once per connection, not per loop
    tracemalloc.start()
    try:
        holonomy(conn, Loop.x_period(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= field, peak / field


def test_holonomy_warns_on_nonflat_data():
    grid = TorusGrid(32)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.3 * np.sin(2 * np.pi * grid.x), CubicPair(grid, 1.0, 1.0),
                    chart)
    with pytest.warns(UserWarning):
        holonomy(conn, Loop.x_period(32))


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
    assert Loop.from_json(lp.to_json()).steps == lp.steps
    Loop(16, [(1, 0)] * 16 + [(0, -1)] * 16)   # closed rectangle corner-free
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    conn = assemble(0.0, CubicPair(grid, 1.0, 1.0), chart)
    with pytest.raises(ValueError):
        holonomy(conn, Loop.x_period(32))
    with pytest.raises(ValueError):
        holonomy(conn, Loop.x_period(16), gauge="chart")
