"""Affine-sphere side: dual lifts, frame integration, structure fits,
Pick/Wang cross-checks, and the second-variation trace."""

import numpy as np
import pytest
from scipy.linalg import expm

from bchyp.affine import (
    AffinePair, BlaschkeData, DegenerateFrame, NotIsotropic, NotReal,
    PathDependent, blaschke_data, dual_lift, eta, integrate_frame,
    normalize_lift, pick_and_wang, pick_cubic, second_variation_trace,
    structure_residuals,
)
from bchyp import affine
from bchyp.affine import _fit_structure, _gauss_curvature, _poisson_periodic
from bchyp.bicomplex import Q3
from bchyp.connection import F0, assemble
from bchyp.criteria import roundtrip_checks
from bchyp.gauss import solve_newton, wang_specialize
from bchyp.metric import (
    BeltramiChart, CubicPair, TorusGrid, centered_dx, centered_dy,
)

_CACHE = {}


def hyperboloid_patch(n):
    """Non-periodic patch of the standard hyperboloid x^2+y^2-z^2 = -1.

    In the (r, theta) window below the induced metric is
    dr^2 + sinh^2(r) dtheta^2, the position is its own conormal lift,
    the shape operator is the identity and the Pick form vanishes.
    """
    grid = TorusGrid(n)
    r = 0.7 + 0.35 * (grid.x - 0.5)
    th = 0.4 + 1.1 * (grid.y - 0.5)
    f = np.stack([np.sinh(r) * np.cos(th), np.sinh(r) * np.sin(th),
                  np.cosh(r)], axis=-1)
    return f, r, grid


def hyperboloid_pair(n):
    f, r, grid = hyperboloid_patch(n)
    return AffinePair(f, f, grid.spacing, periodic=False), r, grid


def deformed_pair(n, amp=0.05):
    """Periodic hyperboloid-valued pair (self-dual at every node)."""
    grid = TorusGrid(n)
    tx, ty = 2 * np.pi * grid.x, 2 * np.pi * grid.y
    r = 0.8 + amp * np.sin(tx) * np.cos(ty)
    th = 0.3 + amp * np.cos(tx)
    f = np.stack([np.sinh(r) * np.cos(th), np.sinh(r) * np.sin(th),
                  np.cosh(r)], axis=-1)
    return f, grid


def solved_wang(n, q=1.2):
    if n not in _CACHE:
        grid = TorusGrid(n)
        problem = wang_specialize(q, grid)
        report = solve_newton(problem)
        assert report.converged
        conn = assemble(report.psi, problem.C, problem.background.chart)
        _CACHE[n] = (integrate_frame(conn), np.real(report.psi), grid)
    return _CACHE[n]


# ----------------------------------------------------------------------
# pair invariants

def test_pair_rejects_eta_violation():
    f, grid = deformed_pair(32)
    with pytest.raises(ValueError, match="eta"):
        AffinePair(f, 1.1 * f, grid.spacing)


def test_pair_shape_and_finiteness_gates():
    f, grid = deformed_pair(32)
    with pytest.raises(ValueError):
        AffinePair(f[..., :2], f[..., :2], grid.spacing)
    g = f.copy()
    g[3, 4, 0] = np.nan
    with pytest.raises(ValueError):
        AffinePair(g, f, grid.spacing)


def test_hyperboloid_pair_invariants():
    pair, _, grid = hyperboloid_pair(64)
    h2 = grid.spacing ** 2
    assert np.max(np.abs(pair.eta_field() + 1.0)) < 1e-13
    # metric coefficients are constant along their own coordinate, so the
    # conormal defect of this patch sits far below the generic O(h^2)
    assert np.nanmax(pair.conormal_residual()) < 0.05 * h2


def test_deformed_pair_conormal_order():
    for n in (32, 64):
        f, grid = deformed_pair(n)
        pair = AffinePair(f, f, grid.spacing)
        assert np.max(pair.conormal_residual()) < 0.5 * grid.spacing ** 2


# ----------------------------------------------------------------------
# dual lift

def test_dual_lift_hyperboloid_self_dual():
    f, _, grid = hyperboloid_patch(64)
    d = dual_lift(f, grid.spacing, periodic=False)
    assert np.nanmax(np.abs(d - f)) < 1e-12
    assert np.nanmax(np.abs(eta(f, d) + 1.0)) < 1e-12


def test_dual_lift_involution_on_convex_graph():
    # locally strictly convex graph: both lifts have nondegenerate frames
    for n in (32, 64):
        grid = TorusGrid(n)
        X = 0.6 * (grid.x - 0.5)
        Y = 0.5 * (grid.y - 0.5)
        f = np.stack([X, Y, 1.0 + 0.8 * X ** 2 + 0.6 * X * Y
                      + 0.9 * Y ** 2], axis=-1)
        d1 = dual_lift(f, grid.spacing, periodic=False)
        d2 = dual_lift(d1, grid.spacing, periodic=False)
        h2 = grid.spacing ** 2
        assert np.nanmax(np.abs(eta(f, d1) + 1.0)) < 1e-12
        assert np.nanmax(np.abs(d2 - f)) < 0.5 * h2


# ----------------------------------------------------------------------
# normalize_lift

def test_normalize_constant_pair_is_fixed_point():
    n = 32
    f = np.zeros((n, n, 3))
    f[..., 2] = 1.0
    out = normalize_lift(f, f, 1.0 / n)
    assert np.max(np.abs(out.fplus - f)) == 0.0
    assert np.max(np.abs(out.fminus - f)) == 0.0


def test_normalize_recovers_rescale():
    # e^lam f+, e^-lam f- keeps eta = -1; the potential must return -lam
    # (up to its mean) and restore the conormal defect of the clean pair.
    for n in (32, 64):
        f, grid = deformed_pair(n)
        lam = 0.25 * np.sin(2 * np.pi * grid.x) \
            + 0.15 * np.cos(2 * np.pi * grid.y)
        out = normalize_lift(np.exp(lam)[..., None] * f,
                             np.exp(-lam)[..., None] * f, grid.spacing)
        h2 = grid.spacing ** 2
        assert np.max(np.abs(out.fplus - f)) < 2.0 * h2 * np.max(np.abs(f))
        assert np.max(out.conormal_residual()) < 10.0 * h2


def test_poisson_inverts_laplacian_off_parity_modes():
    # Lap u = rhs minus its projection on the four parity modes
    # (+-1)^ix (+-1)^iy, which the composed centered Laplacian annihilates
    n = 32
    h = 1.0 / n
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal((n, n))
    u = _poisson_periodic(rhs, h)
    lap = (centered_dx(centered_dx(u, h), h)
           + centered_dy(centered_dy(u, h), h))
    sign = (-1.0) ** np.arange(n)
    modes = [np.ones((n, n)), np.outer(np.ones(n), sign),
             np.outer(sign, np.ones(n)), np.outer(sign, sign)]
    want = rhs - sum(m * np.sum(m * rhs) / n ** 2 for m in modes)
    assert np.max(np.abs(lap - want)) < 1e-10
    assert abs(np.mean(u)) < 1e-14


def test_normalize_rejects_synthetic_curl():
    f, grid = deformed_pair(32)
    u = np.zeros_like(f)
    u[..., 0] = 1.0
    tang = u + eta(u, f)[..., None] * f      # eta(f, tang) = 0
    bad = f + (0.4 * np.sin(2 * np.pi * grid.y))[..., None] * tang
    assert np.max(np.abs(eta(f, bad) + 1.0)) < 1e-12
    with pytest.raises(NotIsotropic):
        normalize_lift(f, bad, grid.spacing)


def test_normalize_rejects_eta_violation():
    f, grid = deformed_pair(32)
    with pytest.raises(ValueError, match="eta"):
        normalize_lift(f, 1.1 * f, grid.spacing)


# ----------------------------------------------------------------------
# structure fit against the hyperboloid oracle

def test_structure_hyperboloid_closed_form():
    pair, r, grid = hyperboloid_pair(64)
    h2 = grid.spacing ** 2
    gB, xi_res, S_res = structure_residuals(pair)
    # pullback of dr^2 + sinh^2 r dtheta^2 under the affine window
    g_exact = np.zeros_like(gB)
    g_exact[..., 0, 0] = 0.35 ** 2
    g_exact[..., 1, 1] = (1.1 ** 2) * np.sinh(r) ** 2
    assert np.nanmax(np.abs(gB - g_exact)) < 1.5 * h2
    assert np.nanmax(xi_res) < 0.3 * h2
    assert np.nanmax(S_res) < 0.5 * h2


def test_structure_hyperboloid_convergence():
    errs = {}
    for n in (32, 64):
        pair, r, grid = hyperboloid_pair(n)
        gB, xi_res, S_res = structure_residuals(pair)
        g_exact = np.zeros_like(gB)
        g_exact[..., 0, 0] = 0.35 ** 2
        g_exact[..., 1, 1] = (1.1 ** 2) * np.sinh(r) ** 2
        errs[n] = np.nanmax(np.abs(gB - g_exact))
    ratio = errs[32] / errs[64]
    assert 2.5 < ratio < 6.0


def test_structure_curvature_and_pick_hyperboloid():
    pair, _, grid = hyperboloid_pair(64)
    h2 = grid.spacing ** 2
    gB, _, _, C_sym, _ = _fit_structure(pair)
    K = _gauss_curvature(gB, grid.spacing)
    assert np.nanmax(np.abs(K + 1.0)) < 0.5 * h2
    assert np.nanmax(np.abs(C_sym)) < 0.1 * h2


def test_structure_equivariance_unimodular():
    # the fitted invariants of L.f are those of f for L in SL(3, R);
    # discretization commutes with constant linear maps, so the match
    # is exact up to rounding.
    pair, _, grid = hyperboloid_pair(64)
    rng = np.random.default_rng(11)
    A0 = rng.normal(size=(3, 3))
    A0 -= np.trace(A0) / 3.0 * np.eye(3)
    L = expm(0.3 * A0)
    fL = np.einsum("ij,...j->...i", L, pair.fplus)
    fmL = np.einsum("ij,...j->...i", Q3 @ np.linalg.inv(L).T @ Q3,
                    pair.fminus)
    pairL = AffinePair(fL, fmL, grid.spacing, periodic=False)

    gB0, xi0, S0, C0, _ = _fit_structure(pair)
    gBL, xiL, SL_, CL, _ = _fit_structure(pairL)
    assert np.nanmax(np.abs(gB0 - gBL)) < 1e-10
    assert np.nanmax(np.abs(C0 - CL)) < 1e-8
    assert np.nanmax(np.abs(S0 - SL_)) < 1e-5
    assert np.nanmax(np.abs(xiL
                            - np.einsum("ij,...j->...i", L, xi0))) < 1e-7


def test_structure_degenerate_frame_raises():
    n = 32
    f = np.zeros((n, n, 3))
    f[..., 2] = 1.0
    with pytest.raises(DegenerateFrame):
        structure_residuals(AffinePair(f, f, 1.0 / n))


def test_blaschke_data_rejects_asymmetric_pick():
    n = 16
    eye = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
    C = np.zeros((n, n, 2, 2, 2))
    C[..., 0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="asymmetric"):
        BlaschkeData(eye, C, eye.copy(), 1.0 / n)


# ----------------------------------------------------------------------
# frame integration of solved torus data

def test_integrate_constant_wang_pair_invariants():
    pair, _, grid = solved_wang(32)
    h2 = grid.spacing ** 2
    assert pair.path_residual < 1e-12
    assert np.max(np.abs(pair.eta_field() + 1.0)) < 1e-12
    assert np.nanmax(pair.conormal_residual()) < 0.5 * h2


def test_integrate_constant_wang_structure():
    pair, psi, grid = solved_wang(32)
    h2 = grid.spacing ** 2
    gB, xi_res, S_res = structure_residuals(pair)
    assert np.nanmax(xi_res) < 1.5 * h2
    assert np.nanmax(S_res) < 0.5 * h2
    lam = 2.0 * np.exp(2.0 * psi)
    dev = np.abs(gB - lam[..., None, None] * np.eye(2))
    assert np.nanmax(dev) < 3.0 * h2


def test_integrate_constant_wang_pick_matches_datum():
    pair, _, grid = solved_wang(32)
    h2 = grid.spacing ** 2
    data = blaschke_data(pair)
    q_hat = pick_cubic(data)
    assert np.nanmax(np.abs(q_hat - 1.2)) < 4.0 * h2
    wang = pick_and_wang(data, np.full((grid.n, grid.n), 1.2))
    assert np.nanmax(np.abs(wang)) < 5.0 * h2


def test_integrate_constant_wang_dual_pick_sign():
    pair, _, grid = solved_wang(32)
    q_plus = pick_cubic(blaschke_data(pair))
    q_minus = pick_cubic(blaschke_data(pair.dual()))
    assert np.nanmax(np.abs(q_plus + q_minus)) < 1e-9


def test_roundtrip_checks_fit_each_side_once(monkeypatch):
    """structure_residuals and blaschke_data share the fit of f+, so one
    roundtrip bundle fits twice (f+ and f-), with the same residuals
    as three independent fits."""
    cached, psi, _ = solved_wang(32)

    def fresh():
        return AffinePair(cached.fplus, cached.fminus, cached.spacing,
                          periodic=False, path_residual=cached.path_residual)

    fit = affine._fit_structure
    calls = []

    def counting(pair):
        calls.append(pair)
        return fit(pair)

    monkeypatch.setattr(affine, "_fit_structure", counting)
    shared = roundtrip_checks(fresh(), psi)
    assert len(calls) == 2
    assert calls[0].fplus is calls[1].fminus      # f+, then the dual's

    monkeypatch.setattr(affine, "_fitted", counting)    # no sharing
    separate = roundtrip_checks(fresh(), psi)
    assert len(calls) == 5
    assert shared == separate


def test_integrate_wang_blaschke_spd_and_apolar():
    pair, _, grid = solved_wang(32)
    h2 = grid.spacing ** 2
    data = blaschke_data(pair)
    filled = np.where(np.isnan(data.gB), np.eye(2), data.gB)
    eigs = np.linalg.eigvalsh(filled)[..., 0]
    eigs = np.where(np.isnan(data.gB[..., 0, 0]), np.nan, eigs)
    assert np.nanmin(eigs) > 0.5
    ginv = np.linalg.inv(filled)
    tr = np.einsum("...ab,...abc->...c", ginv, data.pickC)
    tr = np.where(np.isnan(data.pickC[..., 0, 0, :]), np.nan, tr)
    assert np.nanmax(np.abs(tr)) < 2.0 * h2


def test_integrate_fuchsian_patch_lands_on_hyperboloid():
    # C = 0 forces the two lifts to coincide, so the surface sits on the
    # standard quadric; psi = -log(sqrt(2)(y + y0)) solves the flat-chart
    # equation on the strip and the seam rows are trimmed from the check.
    n = 64
    grid = TorusGrid(n)
    zero = np.zeros((n, n))
    C0 = CubicPair(grid, zero, zero, holomorphic=True)
    psi = -np.log(np.sqrt(2.0) * (grid.y + 0.35))
    conn = assemble(psi, C0, BeltramiChart.identity(grid))
    pair = integrate_frame(conn, base=(n // 2, 0), trim=2)
    h2 = grid.spacing ** 2
    assert np.max(np.abs(pair.fplus - pair.fminus)) < 1e-13
    assert np.max(np.abs(eta(pair.fplus, pair.fplus) + 1.0)) < 1e-11
    assert pair.path_residual < 40.0 * h2

    gB, xi_res, S_res = structure_residuals(pair)
    assert np.nanmax(xi_res) < 40.0 * h2
    assert np.nanmax(S_res) < 30.0 * h2
    K = _gauss_curvature(gB, grid.spacing)
    assert np.nanmax(np.abs(K + 1.0)) < 30.0 * h2
    lam = 2.0 * np.exp(2.0 * psi)
    dev = np.abs(gB - lam[..., None, None] * np.eye(2))
    assert np.nanmax(dev) < 400.0 * h2


def test_integrate_dual_swap_exchanges_lifts():
    # feeding the connection with its idempotent parts exchanged must
    # produce the swapped pair
    pair, psi, grid = solved_wang(32)
    problem = wang_specialize(1.2, grid)
    report = solve_newton(problem)
    conn = assemble(report.psi, problem.C, problem.background.chart)
    from bchyp.connection import BcMat3Field, FlatConnectionField
    sw = FlatConnectionField(
        BcMat3Field(conn.Ahat.minus, conn.Ahat.plus),
        BcMat3Field(conn.Bhat.minus, conn.Bhat.plus),
        conn.chart, conn.s2)
    swapped = integrate_frame(sw)
    assert np.max(np.abs(swapped.fplus - pair.fminus)) < 1e-11
    assert np.max(np.abs(swapped.fminus - pair.fplus)) < 1e-11


def test_integrate_rejects_nonreal_chart():
    n = 32
    grid = TorusGrid(n)
    zero = np.zeros((n, n))
    C0 = CubicPair(grid, zero, zero, holomorphic=True)
    conn = assemble(zero, C0, BeltramiChart.constant_mu(grid, 0.3))
    with pytest.raises(NotReal):
        integrate_frame(conn)


def test_integrate_rejects_unequal_cubic_halves():
    n = 32
    grid = TorusGrid(n)
    C = CubicPair(grid, np.full((n, n), 1.0), np.full((n, n), 2.0),
                  holomorphic=True)
    conn = assemble(np.zeros((n, n)), C, BeltramiChart.identity(grid))
    with pytest.raises(NotReal):
        integrate_frame(conn)


def test_integrate_flags_path_dependence():
    # a datum that does not solve the structure equation cannot give a
    # flat connection, and the two sweep orders disagree at O(1)
    n = 32
    grid = TorusGrid(n)
    C = CubicPair(grid, np.full((n, n), 2.0 + 0j),
                  np.full((n, n), 2.0 + 0j), holomorphic=True)
    psi_bad = 0.3 * np.sin(2 * np.pi * grid.x)
    conn = assemble(psi_bad, C, BeltramiChart.identity(grid))
    with pytest.raises(PathDependent):
        integrate_frame(conn)


def test_integrate_validates_base():
    pair, psi, grid = solved_wang(32)
    problem = wang_specialize(1.2, grid)
    report = solve_newton(problem)
    conn = assemble(report.psi, problem.C, problem.background.chart)
    with pytest.raises(ValueError, match="base"):
        integrate_frame(conn, base=(99, 0))


def test_integrate_off_origin_base_rebases_the_pair():
    # constant Wang data is flat to round-off, so the frame from base b
    # is G_0(b)^-1 G_0, with G_0(b) = exp(ix0 Sx) exp(iy0 Sy) from the
    # origin; the reverse sweeps behind b run on both axes
    n = 32
    problem = wang_specialize(1.2, TorusGrid(n))
    report = solve_newton(problem)
    conn = assemble(report.psi, problem.C, problem.background.chart)
    iy0, ix0 = n // 2, n // 3
    pair0 = integrate_frame(conn)
    pairb = integrate_frame(conn, base=(iy0, ix0))
    # G(base) = Id: the lift column there is F0 e3 = e3 on both sides
    for f in (pairb.fplus, pairb.fminus):
        assert np.array_equal(f[iy0, ix0], [0.0, 0.0, 1.0])
    Ox, Oy = conn.omega_xy()
    h = conn.grid.spacing
    F0i = np.linalg.inv(F0)
    for part, f0, fb in (("plus", pair0.fplus, pairb.fplus),
                         ("minus", pair0.fminus, pairb.fminus)):
        Sx = h * getattr(Ox, part)[0, 0]
        Sy = h * getattr(Oy, part)[0, 0]
        G0b = expm(ix0 * Sx) @ expm(iy0 * Sy)
        Ainv = F0 @ np.linalg.inv(G0b) @ F0i
        rebased = np.einsum("ij,...j->...i", Ainv, f0)
        assert np.abs(rebased.imag).max() < 1e-12
        err = np.abs(fb - rebased.real).max()
        assert err < 1e-12 * max(1.0, np.abs(f0).max()), (part, err)
    assert pairb.path_residual < 1e-12


# ----------------------------------------------------------------------
# second variation

def test_second_variation_unit_direction_constant_data():
    # Z = e1, vanishing cubic, constant psi: -2 - 3 = -5 exactly, for
    # any value of the constant
    n = 32
    grid = TorusGrid(n)
    chart = BeltramiChart.identity(grid)
    zero = np.zeros((n, n))
    C0 = CubicPair(grid, zero, zero, holomorphic=True)
    for psic in (0.0, 0.4, -0.7):
        lam = 2.0 * np.exp(2.0 * psic)
        Z = np.zeros((n, n, 2))
        Z[..., 0] = lam ** -0.5
        t = second_variation_trace(Z, np.full((n, n), psic), C0, chart)
        assert np.max(np.abs(t + 5.0)) < 1e-12


def test_second_variation_constant_wang_closed_form():
    # at the constant solved datum the cubic term contributes exactly -1
    n = 32
    grid = TorusGrid(n)
    problem = wang_specialize(1.2, grid)
    report = solve_newton(problem)
    psi = np.real(report.psi)
    lam = 2.0 * np.exp(2.0 * psi)
    Z = np.zeros((n, n, 2))
    Z[..., 0] = lam ** -0.5
    t = second_variation_trace(Z, psi, problem.C,
                               problem.background.chart)
    assert np.max(np.abs(t + 6.0)) < 1e-10


def test_second_variation_local_support():
    # all three parts are local (one-node stencil), so the trace vanishes
    # identically outside the support of Z, away from the wrap seam
    n = 32
    grid = TorusGrid(n)
    chart = BeltramiChart.identity(grid)
    zero = np.zeros((n, n))
    C0 = CubicPair(grid, zero, zero, holomorphic=True)
    Z = np.zeros((n, n, 2))
    Z[:, :n // 2, 0] = np.sin(2 * np.pi * grid.y[:, :n // 2])
    t = second_variation_trace(Z, zero, C0, chart)
    assert np.max(np.abs(t[:, n // 2 + 2:n - 2])) == 0.0
    assert np.max(t[:, 2:n // 2 - 2]) < 0.0


def test_second_variation_negative_for_random_fields():
    n = 32
    grid = TorusGrid(n)
    problem = wang_specialize(1.2, grid)
    report = solve_newton(problem)
    psi = np.real(report.psi)
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = rng.normal(size=2)
        ph = rng.uniform(0, 2 * np.pi, size=3)
        Z = np.zeros((n, n, 2))
        Z[..., 0] = 0.9 + 0.3 * np.sin(2 * np.pi * grid.x + ph[0]) \
            * np.cos(2 * np.pi * grid.y + ph[1]) + 0.1 * a
        Z[..., 1] = 0.5 * np.cos(2 * np.pi * grid.x + ph[2]) + 0.1 * b
        t = second_variation_trace(Z, psi, problem.C,
                                   problem.background.chart)
        assert np.max(t) < -0.5


def test_second_variation_rejects_bad_shape():
    n = 32
    grid = TorusGrid(n)
    chart = BeltramiChart.identity(grid)
    zero = np.zeros((n, n))
    C0 = CubicPair(grid, zero, zero, holomorphic=True)
    with pytest.raises(ValueError):
        second_variation_trace(np.zeros((n, n, 3)), zero, C0, chart)
