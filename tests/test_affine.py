"""Affine-sphere side: frame integration, structure fits, Pick/Wang
cross-checks, and the second-variation trace."""

import ast
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from bchyp.affine import (
    AffinePair, DegenerateFrame, NotReal, PathDependent,
    blaschke_data, eta, integrate_frame, pick_cubic, second_variation_trace,
    structure_residuals,
)
from bchyp import affine
from bchyp.affine import _fit_structure
from bchyp.bicomplex import Q3
from bchyp.connection import (
    FlatConnectionField, assemble, grid_step_generators,
)
from bchyp.criteria import roundtrip_checks
from bchyp.gauss import GaussProblem, solve_newton
from bchyp.metric import BeltramiChart, CubicPair, TorusGrid

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
    return AffinePair(f, f, grid.spacing, 0.0, 0.0), r, grid


def deformed_pair(n, amp=0.05):
    """Periodic hyperboloid-valued pair (self-dual at every node)."""
    grid = TorusGrid(n)
    tx, ty = 2 * np.pi * grid.x, 2 * np.pi * grid.y
    r = 0.8 + amp * np.sin(tx) * np.cos(ty)
    th = 0.3 + amp * np.cos(tx)
    f = np.stack([np.sinh(r) * np.cos(th), np.sinh(r) * np.sin(th),
                  np.cosh(r)], axis=-1)
    return f, grid


def solved_wang(n):
    """The pair, real psi and grid of Wang config data q = 0.6 (Wang's
    q = 1.2) on the n-grid."""
    if n not in _CACHE:
        problem = oracles.wang_problem(0.6, n)
        grid = problem.grid
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
        AffinePair(f, 1.1 * f, grid.spacing, 0.0, 0.0)


def test_pair_shape_and_finiteness_gates():
    f, grid = deformed_pair(32)
    with pytest.raises(ValueError):
        AffinePair(f[..., :2], f[..., :2], grid.spacing, 0.0, 0.0)
    g = f.copy()
    g[3, 4, 0] = np.nan
    with pytest.raises(ValueError):
        AffinePair(g, f, grid.spacing, 0.0, 0.0)


def test_hyperboloid_pair_invariants():
    pair, _, grid = hyperboloid_pair(64)
    h2 = grid.spacing ** 2
    assert np.max(np.abs(pair.eta_field() + 1.0)) < 1e-13
    # metric coefficients are constant along their own coordinate, so the
    # conormal defect of this patch sits far below the generic O(h^2)
    assert np.nanmax(oracles.conormal_residual(pair)) < 0.05 * h2


def test_deformed_pair_conormal_order():
    for n in (32, 64):
        f, grid = deformed_pair(n)
        pair = AffinePair(f, f, grid.spacing, 0.0, 0.0)
        assert (np.max(oracles.conormal_residual(pair, margin=0))
                < 0.5 * grid.spacing ** 2)


# ----------------------------------------------------------------------
# structure fit against the hyperboloid oracle

def test_structure_hyperboloid_closed_form():
    pair, r, grid = hyperboloid_pair(64)
    h2 = grid.spacing ** 2
    gB, xi_res, S_res, _ = structure_residuals(pair)
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
        gB, xi_res, S_res, _ = structure_residuals(pair)
        g_exact = np.zeros_like(gB)
        g_exact[..., 0, 0] = 0.35 ** 2
        g_exact[..., 1, 1] = (1.1 ** 2) * np.sinh(r) ** 2
        errs[n] = np.nanmax(np.abs(gB - g_exact))
    ratio = errs[32] / errs[64]
    assert 2.5 < ratio < 6.0


def test_structure_curvature_and_pick_hyperboloid():
    pair, _, grid = hyperboloid_pair(64)
    h2 = grid.spacing ** 2
    gB, _, _, C_sym = _fit_structure(pair)
    K = oracles._gauss_curvature(gB, grid.spacing)
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
    pairL = AffinePair(fL, fmL, grid.spacing, 0.0, 0.0)

    gB0, xi0, S0, C0 = _fit_structure(pair)
    gBL, xiL, SL_, CL = _fit_structure(pairL)
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
        structure_residuals(AffinePair(f, f, 1.0 / n, 0.0, 0.0))


# ----------------------------------------------------------------------
# frame integration of solved torus data

def test_integrate_constant_wang_pair_invariants():
    pair, _, grid = solved_wang(32)
    h2 = grid.spacing ** 2
    assert pair.path_residual < 1e-12
    assert np.max(np.abs(pair.eta_field() + 1.0)) < 1e-12
    assert np.nanmax(oracles.conormal_residual(pair)) < 0.5 * h2


def test_integrate_constant_wang_structure():
    pair, psi, grid = solved_wang(32)
    h2 = grid.spacing ** 2
    gB, xi_res, S_res, _ = structure_residuals(pair)
    assert np.nanmax(xi_res) < 1.5 * h2
    assert np.nanmax(S_res) < 0.5 * h2
    lam = 2.0 * np.exp(2.0 * psi)
    dev = np.abs(gB - lam[..., None, None] * np.eye(2))
    assert np.nanmax(dev) < 3.0 * h2


def test_integrate_constant_wang_pick_matches_datum():
    pair, _, grid = solved_wang(32)
    h2 = grid.spacing ** 2
    q_hat = pick_cubic(blaschke_data(pair))
    assert np.nanmax(np.abs(q_hat - 1.2)) < 4.0 * h2
    gB = structure_residuals(pair)[0]
    wang = oracles.pick_and_wang(gB, grid.spacing,
                                 np.full((grid.n, grid.n), 1.2))
    assert np.nanmax(np.abs(wang)) < 5.0 * h2


def test_integrate_constant_wang_dual_pick_sign():
    pair, _, grid = solved_wang(32)
    q_plus = pick_cubic(blaschke_data(pair))
    q_minus = pick_cubic(blaschke_data(pair.dual()))
    assert np.nanmax(np.abs(q_plus + q_minus)) < 1e-9


def test_roundtrip_checks_fit_each_side_once(monkeypatch):
    """structure_residuals returns the Pick form of its fit of f+, so
    one roundtrip bundle fits twice (f+, then the dual's f+, which is
    f-), and its structure checks equal those of independent fits."""
    pair, psi, _ = solved_wang(32)
    fit = affine._fit_structure
    calls = []

    def counting(p):
        calls.append(p)
        return fit(p)

    monkeypatch.setattr(affine, "_fit_structure", counting)
    got = {name: value for name, value, _ in roundtrip_checks(pair, psi)}
    assert len(calls) == 2
    assert calls[0] is pair and calls[1].fplus is pair.fminus

    gB, xi, S, C_plus = oracles.fit_structure_whole(pair)
    C_minus = oracles.fit_structure_whole(pair.dual())[3]
    lam = 2.0 * np.exp(2.0 * psi)
    want = {
        "shape": np.nanmax(np.abs(S - np.eye(2))),
        "conormal": np.nanmax(np.abs(xi - pair.fplus)),
        "blaschke": np.nanmax(np.abs(gB - lam[..., None, None]
                                     * np.eye(2))),
        "pick_sum": np.nanmax(np.abs(pick_cubic(C_plus)
                                     + pick_cubic(C_minus)))}
    assert {name: got[name] for name in want} == want


def test_integrate_wang_blaschke_spd_and_apolar():
    pair, _, grid = solved_wang(32)
    h2 = grid.spacing ** 2
    gB, C = structure_residuals(pair)[0], blaschke_data(pair)
    filled = np.where(np.isnan(gB), np.eye(2), gB)
    eigs = np.linalg.eigvalsh(filled)[..., 0]
    eigs = np.where(np.isnan(gB[..., 0, 0]), np.nan, eigs)
    assert np.nanmin(eigs) > 0.5
    ginv = np.linalg.inv(filled)
    tr = np.einsum("...ab,...abc->...c", ginv, C)
    tr = np.where(np.isnan(C[..., 0, 0, :]), np.nan, tr)
    assert np.nanmax(np.abs(tr)) < 2.0 * h2


def test_integrate_fuchsian_patch_lands_on_hyperboloid():
    # C = 0 forces the two lifts to coincide, so the surface sits on the
    # standard quadric; psi = -log(sqrt(2)(y + y0)) solves the flat-chart
    # equation on the strip, whose closed-form connection is valid on
    # every step that the sweeps from node (0, 0) take
    n = 64
    grid = TorusGrid(n)
    psi = -np.log(np.sqrt(2.0) * (grid.y + 0.35))
    pair = integrate_frame(oracles.strip_connection(n))
    h2 = grid.spacing ** 2
    assert np.max(np.abs(pair.fplus - pair.fminus)) < 1e-13
    assert np.max(np.abs(eta(pair.fplus, pair.fplus) + 1.0)) < 1e-11
    assert pair.path_residual < 40.0 * h2

    gB, xi_res, S_res, _ = structure_residuals(pair)
    assert np.nanmax(xi_res) < 40.0 * h2
    assert np.nanmax(S_res) < 30.0 * h2
    K = oracles._gauss_curvature(gB, grid.spacing)
    assert np.nanmax(np.abs(K + 1.0)) < 30.0 * h2
    lam = 2.0 * np.exp(2.0 * psi)
    dev = np.abs(gB - lam[..., None, None] * np.eye(2))
    assert np.nanmax(dev) < 400.0 * h2


def test_integrate_strip_path_residual_converges_at_second_order():
    # the first convergence test of integrate_frame on non-constant
    # geometry: the two sweep orders of the strip datum disagree at
    # about 2 h^2, so each halving of h divides the residual by about 4
    res = [integrate_frame(oracles.strip_connection(n)).path_residual
           for n in (64, 128, 256)]
    assert res[0] / res[1] >= 3.5 and res[1] / res[2] >= 3.5, res


def test_integrate_dual_swap_exchanges_lifts():
    # feeding the connection with its idempotent parts exchanged must
    # produce the swapped pair
    pair, psi, grid = solved_wang(32)
    problem = oracles.wang_problem(0.6, grid.n)
    report = solve_newton(problem)
    conn = assemble(report.psi, problem.C, problem.background.chart)
    from bchyp.connection import FlatConnectionField
    A, B = oracles.dense(conn, "Ahat"), oracles.dense(conn, "Bhat")
    sw = FlatConnectionField(
        oracles.entry_mapping({"plus": A["minus"], "minus": A["plus"]}),
        oracles.entry_mapping({"plus": B["minus"], "minus": B["plus"]}),
        conn.chart)
    swapped = integrate_frame(sw)
    assert np.max(np.abs(swapped.fplus - pair.fminus)) < 1e-11
    assert np.max(np.abs(swapped.fminus - pair.fplus)) < 1e-11


def test_integrate_rejects_nonreal_chart():
    n = 32
    grid = TorusGrid(n)
    zero = np.zeros((n, n))
    C0 = CubicPair(grid, zero, zero)
    conn = assemble(zero, C0, BeltramiChart.constant_mu(grid, 0.3))
    with pytest.raises(NotReal):
        integrate_frame(conn)


def test_integrate_rejects_unequal_cubic_halves():
    n = 32
    grid = TorusGrid(n)
    C = CubicPair(grid, np.full((n, n), 1.0), np.full((n, n), 2.0))
    conn = assemble(np.zeros((n, n)), C, BeltramiChart.identity(grid))
    with pytest.raises(NotReal):
        integrate_frame(conn)


def test_integrate_flags_path_dependence():
    # a datum that does not solve the structure equation cannot give a
    # flat connection, and the two sweep orders disagree at O(1)
    n = 32
    grid = TorusGrid(n)
    C = CubicPair(grid, np.full((n, n), 2.0 + 0j),
                  np.full((n, n), 2.0 + 0j))
    psi_bad = 0.3 * np.sin(2 * np.pi * grid.x)
    conn = assemble(psi_bad, C, BeltramiChart.identity(grid))
    with pytest.raises(PathDependent):
        integrate_frame(conn)


def test_integrate_generic_nine_plane_field_like_the_structured_one():
    # a field built from dense matrices keeps all nine planes per part;
    # its structural zeros add exact zeros, so it integrates to the same
    # pair, and a non-flat datum still raises
    from bchyp.connection import FlatConnectionField

    def generic(c):
        A, B = (oracles.entry_mapping(oracles.dense(c, name))
                for name in ("Ahat", "Bhat"))
        return FlatConnectionField(A, B, c.chart)

    n = 32
    problem = oracles.wang_problem(0.6, n)
    grid = problem.grid
    conn = assemble(solve_newton(problem).psi, problem.C,
                    problem.background.chart)
    pair, pair_generic = integrate_frame(conn), integrate_frame(generic(conn))
    assert np.array_equal(pair_generic.fplus, pair.fplus)
    assert np.array_equal(pair_generic.fminus, pair.fminus)
    C = CubicPair(grid, np.full((n, n), 2.0 + 0j),
                  np.full((n, n), 2.0 + 0j))
    bad = assemble(0.3 * np.sin(2 * np.pi * grid.x), C,
                   BeltramiChart.identity(grid))
    with pytest.raises(PathDependent):
        integrate_frame(generic(bad))


#: one complex 3x3 field at n = 128, the unit of the memory bounds
FIELD_128 = 128 * 128 * 9 * 16


def wang_conn(n):
    problem = oracles.wang_problem(0.6, n)
    return assemble(solve_newton(problem).psi, problem.C,
                    problem.background.chart)


def integrated(conn):
    """The pair of integrate_frame, or the residual it raised."""
    try:
        return integrate_frame(conn)
    except PathDependent as exc:
        return exc.residual


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("datum", [wang_conn, oracles.strip_connection],
                         ids=["wang", "strip"])
def test_streamed_integrate_frame_equals_the_sweep_oracle(
        monkeypatch, n, datum):
    # blocks of step exponentials, and column-then-row frames compared
    # block by block, give the pair and the path residual of whole-grid
    # sweeps bit for bit; n = 16 is smaller than one block
    conn = datum(n)
    got = integrated(conn)
    monkeypatch.setattr(affine, "_integrate_part", lambda conn:
                        oracles.integrate_part_sweeps(conn, "plus"))
    want = integrated(conn)
    if isinstance(want, AffinePair):
        assert np.array_equal(got.fplus, want.fplus)
        assert np.array_equal(got.fminus, want.fminus)
        assert got.path_residual == want.path_residual
        assert got.dual_residual == want.dual_residual
    else:
        assert got == want


def test_streamed_integrate_part_keeps_the_whole_grid_taylor_degrees(
        monkeypatch):
    # on the strip at n = 32 the x-steps take a higher degree than the
    # y-steps (11 against 10); the blocks use the same degrees as
    # whole-grid exponentials, where a higher degree could give the same
    # bits and slip past the bitwise test above
    conn = oracles.strip_connection(32)
    expm = affine.mat3.expm

    def degrees(integrate_part, *part):
        used = set()

        def recording(S, degree, squarings=0):
            used.add((degree, squarings))
            return expm(S, degree, squarings)

        monkeypatch.setattr(affine.mat3, "expm", recording)
        integrate_part(conn, *part)
        monkeypatch.setattr(affine.mat3, "expm", expm)
        return used

    want = degrees(oracles.integrate_part_sweeps, "plus")
    assert len(want) == 2
    assert degrees(affine._integrate_part) == want


def sine_pair_conn(n):
    """A Gauss-solved datum over the sine chart with unequal constant
    cubic halves: complex data, which integrate_frame refuses, but whose
    frame the sweeps integrate all the same."""
    grid = TorusGrid(n)
    chart = BeltramiChart.sine_perturbed(grid, 0.01)
    C = CubicPair(grid, 0.6, 0.3 + 0.2j)
    report = solve_newton(GaussProblem(chart, C))
    return assemble(report.psi, C, chart)


@pytest.mark.parametrize("datum", [partial(wang_conn, 256),
                                   partial(sine_pair_conn, 64)],
                         ids=["wang", "sine-pair"])
def test_derived_minus_lift_equals_the_integrated_one(datum):
    # each minus step is QTILDE E^-T QTILDE of its plus step, so the
    # minus lift is -QTILDE (e1 x e2) / det G of the plus frame G, and
    # det G = 1 to rounding
    conn = datum()
    derived = affine._integrate_part(conn)[1]
    want = oracles.integrate_part_sweeps(conn, "minus")[0]
    err = np.abs(derived - want).max()
    assert err <= 1e-12 * np.abs(want).max(), err


@pytest.mark.parametrize("q", [0.3, 0.5, -0.7, 1.2, 2.5])
def test_dual_residual_is_rounding_on_wang_data(q):
    # q is Wang's normalized q, the config's q / 2
    problem = oracles.wang_problem(q / 2, 128)
    conn = assemble(solve_newton(problem).psi, problem.C,
                    problem.background.chart)
    assert integrate_frame(conn).dual_residual <= 1e-12


def test_dual_residual_flags_a_minus_part_that_is_not_the_dual():
    # scaling both minus-part matrices keeps each part's conjugate-swap
    # symmetry, so the datum still counts as real, but the minus frame
    # no longer is the dual of the plus frame
    conn = wang_conn(64)
    planes = {name: {"plus": conn.planes[name]["plus"],
                     "minus": {ij: (1.0 + 1e-6) * p for ij, p
                               in conn.planes[name]["minus"].items()}}
              for name in ("Ahat", "Bhat")}
    scaled = FlatConnectionField(planes["Ahat"], planes["Bhat"],
                                 conn.chart)
    affine._require_real(scaled)
    assert integrate_frame(conn).dual_residual <= 1e-12
    pair = integrate_frame(scaled)
    assert pair.dual_residual > 1e-9
    assert pair.dual().dual_residual == pair.dual_residual


def test_integrate_frame_builds_no_grid_of_minus_generators(monkeypatch):
    # the minus part is integrated only along row 0 and column 0
    built = []

    def spy(conn, part, leg, line=None):
        built.append((part, leg, line))
        return grid_step_generators(conn, part, leg, line)

    monkeypatch.setattr(affine, "grid_step_generators", spy)
    integrate_frame(wang_conn(32))
    assert sorted(b[:2] for b in built if b[2] is None) == [
        ("plus", 0), ("plus", 1)]
    assert sorted(b for b in built if b[0] == "minus") == [
        ("minus", 0, 0), ("minus", 1, 0)]


def test_sweep_is_the_only_transport_in_affine():
    # one blocked forward sweep: no other function of the module builds
    # step exponentials or transports frames
    tree = ast.parse(Path(affine.__file__).read_text())
    callers = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(
                        node.func) in ("transport", "mat3.expm"):
                    callers.add(fn.name)
    assert callers == {"_sweep"}


def same_fit(got, want):
    return (len(got) == len(want)
            and all(np.array_equal(a, b, equal_nan=True)
                    for a, b in zip(got, want)))


@pytest.mark.parametrize("n", [16, 64, 128])
def test_blocked_fit_equals_the_whole_grid_oracle(n):
    # row blocks with a 4-row halo fit every node as the whole grid
    # does, NaN margins and all: the hyperboloid patch, whose seam jump
    # reaches every wrapped stencil, and an integrated pair
    patch = hyperboloid_pair(n)[0]
    pair = integrate_frame(wang_conn(n))
    for p in (patch, pair, pair.dual()):
        assert same_fit(_fit_structure(p), oracles.fit_structure_whole(p))


@pytest.mark.parametrize("row", [40, 33], ids=["inside", "halo"])
def test_blocked_fit_raises_the_grid_minimum_of_a_degenerate_frame(row):
    # four equal rows make f_y vanish on the middle two, so the frame has
    # rank 2 there (det = 0, nonzero adjugate); the rows lie inside one
    # block, or also in the halo of the block before, and the blocked
    # gate raises with the whole-grid fit's minimum
    f, _, grid = hyperboloid_patch(128)
    f[row:row + 4] = f[row]
    pair = AffinePair(f, f, grid.spacing, 0.0, 0.0)
    with pytest.raises(DegenerateFrame) as want:
        oracles.fit_structure_whole(pair)
    with pytest.raises(DegenerateFrame) as got:
        _fit_structure(pair)
    assert str(got.value) == str(want.value)


def test_integrate_frame_peak_memory_within_five_fields():
    # one idempotent part at a time: its two generator fields and the
    # row-then-column frames are held, the step exponentials only a
    # block of rows or columns at a time, and the column-then-row frames
    # never as a whole
    conn = wang_conn(128)
    tracemalloc.start()
    try:
        integrate_frame(conn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * FIELD_128, peak / FIELD_128


def test_fit_structure_peak_memory_within_three_and_a_half_fields():
    # the outputs (19 real planes) are grid-sized; the fit's own planes
    # are held one row block at a time
    pair = integrate_frame(wang_conn(128))
    tracemalloc.start()
    try:
        _fit_structure(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * FIELD_128, peak / FIELD_128


# ----------------------------------------------------------------------
# second variation

def test_second_variation_unit_direction_constant_data():
    # Z = e1, vanishing cubic, constant psi: -2 - 3 = -5 exactly, for
    # any value of the constant
    n = 32
    grid = TorusGrid(n)
    chart = BeltramiChart.identity(grid)
    zero = np.zeros((n, n))
    C0 = CubicPair(grid, zero, zero)
    for psic in (0.0, 0.4, -0.7):
        lam = 2.0 * np.exp(2.0 * psic)
        Z = np.zeros((n, n, 2))
        Z[..., 0] = lam ** -0.5
        t = second_variation_trace(Z, np.full((n, n), psic), C0, chart)
        assert np.max(np.abs(t + 5.0)) < 1e-12


def test_second_variation_constant_wang_closed_form():
    # at the constant solved datum the cubic term contributes exactly -1
    n = 32
    problem = oracles.wang_problem(0.6, n)
    grid = problem.grid
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
    C0 = CubicPair(grid, zero, zero)
    Z = np.zeros((n, n, 2))
    Z[:, :n // 2, 0] = np.sin(2 * np.pi * grid.y[:, :n // 2])
    t = second_variation_trace(Z, zero, C0, chart)
    assert np.max(np.abs(t[:, n // 2 + 2:n - 2])) == 0.0
    assert np.max(t[:, 2:n // 2 - 2]) < 0.0


def test_second_variation_negative_for_random_fields():
    n = 32
    problem = oracles.wang_problem(0.6, n)
    grid = problem.grid
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
    C0 = CubicPair(grid, zero, zero)
    with pytest.raises(ValueError):
        second_variation_trace(np.zeros((n, n, 3)), zero, C0, chart)


def test_integrate_rejects_nan_path_and_dual_residuals(monkeypatch):
    # a NaN fails both `<= tol` gates: in the two orders' disagreement
    # of the plus frame, and in the row-0 and column-0 comparison of the
    # derived minus lift, poisoned on row 0 and on column 0
    problem = oracles.wang_problem(0.6, 16)
    conn = assemble(solve_newton(problem).psi, problem.C,
                    problem.background.chart)
    integrate_part = affine._integrate_part

    def poisoned(where):
        def integrate(*args):
            plus, minus, resid, gmax = integrate_part(*args)
            if where is None:
                resid = np.nan
            else:
                minus[(slice(None),) + where] = np.nan
            return plus, minus, resid, gmax
        return integrate

    for where in (None, (0, 5), (5, 0)):
        monkeypatch.setattr(affine, "_integrate_part", poisoned(where))
        with pytest.raises(PathDependent) as exc:
            integrate_frame(conn)
        assert np.isnan(exc.value.residual), where
