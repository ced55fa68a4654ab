"""The ten acceptance checks, shared by the test suite and the CLI.

Each criterion_N() runs one self-contained check with frozen data,
tolerances, and (where stated) runtime limits, and returns a
CriterionResult whose message is a single human-readable pass/fail
line.  Comparisons against "independent" routes use the 4th-order
verification stencils defined here rather than the package's own
2nd-order primitives, so agreement isolates the primitives' error.

The flatness, holonomy and roundtrip checks are check bundles: plain
functions of already-computed objects, called by the frozen criteria
and by the CLI's --config runs alike.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import affine
from .affine import integrate_frame, second_variation_trace
from .bicomplex import Q3, compatibility_residual, phi_iso
from .connection import Loop, assemble, holonomy
from .gauss import (GaussProblem, constant_root, residual_background,
                    solve_newton, wang_specialize)
from .metric import (BeltramiChart, ComplexMetric, CubicPair, TorusGrid,
                     laplacian)
from .replib import (Representation, anosov_scan, goldman_pairing,
                     horizontal_pattern, irreducible_embed,
                     vertical_variation)

__all__ = [
    "CriterionResult", "run_criterion", "run_all", "CRITERIA",
    "fuchsian_generators", "reducible_generators", "flatness_check",
    "holonomy_checks", "roundtrip_checks", "roundtrip_criterion",
] + [f"criterion_{i}" for i in range(1, 11)]


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    runtime: float
    residuals: dict = field(default_factory=dict)
    message: str = ""
    limit: float | None = None

    @property
    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        limit = "" if self.limit is None else f", limit {self.limit:g}s"
        return (f"criterion {self.cid:2d} [{mark}] {self.title}: "
                f"{self.message} ({self.runtime:.2f}s{limit})")


def _result(cid, title, checks, t0, limit=None):
    """checks: list of (name, value, bound); passed iff all value <= bound
    and the runtime since t0 stays under limit (if any).  The runtime
    and its limit show only in .line: residuals and message carry no
    wall-clock value, so manifests built from them reproduce."""
    runtime = time.perf_counter() - t0
    ok = (all(v <= b for _, v, b in checks)
          and (limit is None or runtime < limit))
    msg = "; ".join(f"{n}={v:.3g}<={b:.3g}" for n, v, b in checks)
    return CriterionResult(cid, title, ok, runtime,
                           {n: float(v) for n, v, _ in checks}, msg, limit)


# ----------------------------------------------------------------------
# check bundles: (name, value, bound) lists from computed objects

def flatness_check(conn, spacing, name="flatness"):
    """The Maurer-Cartan residual of conn against 10 spacing^2."""
    return (name, conn.flatness_residual(), 10.0 * spacing ** 2)


def holonomy_checks(Hx, Hy, spacing):
    """Period holonomies: unimodular plus-parts, the pairing
    compatibility together with the minus-part identity
    H- = Q3 (H+)^-T Q3, and periods commuting to 10 spacing."""
    det_dev = max(abs(np.linalg.det(H.plus) - 1.0) for H in (Hx, Hy))
    compat = max(float(compatibility_residual(H)) for H in (Hx, Hy))
    pair_res = max(
        float(np.abs(H.minus - Q3 @ np.linalg.inv(H.plus).T @ Q3).max())
        for H in (Hx, Hy))
    comm = float((Hx @ Hy - Hy @ Hx).norm_max())
    return [("plus_det", float(det_dev), 1e-9),
            ("compat", max(compat, pair_res), 1e-9),
            ("commute", comm, 10.0 * spacing)]


def roundtrip_checks(pair, psi):
    """Induced structure of an integrated pair against the hyperbolic
    affine sphere over the solved psi, each to 20 spacing^2: eta = -1,
    shape operator Id, affine normal f, Blaschke metric 2 exp(2 psi) Id
    and opposite Pick forms on the two sides.  The structure of f+ is
    fitted once (structure_residuals and blaschke_data share it), that
    of f- once."""
    h2 = pair.spacing ** 2
    eta_res = float(np.max(np.abs(pair.eta_field() + 1.0)))
    gB, xi_res, S_res = affine.structure_residuals(pair)
    lam = 2.0 * np.exp(2.0 * np.real(psi))
    blaschke = float(np.nanmax(np.abs(gB - lam[..., None, None]
                                      * np.eye(2))))
    q_plus = affine.pick_cubic(affine.blaschke_data(pair))
    q_minus = affine.pick_cubic(affine.blaschke_data(pair.dual()))
    pick_sum = float(np.nanmax(np.abs(q_plus + q_minus)))
    return [("eta", eta_res, 20 * h2),
            ("shape", float(np.nanmax(S_res)), 20 * h2),
            ("conormal", float(np.nanmax(xi_res)), 20 * h2),
            ("blaschke", blaschke, 20 * h2),
            ("pick_sum", pick_sum, 20 * h2)]


# ----------------------------------------------------------------------
# independent verification stencils (4th-order; deliberately share no
# code with the package's 2nd-order primitives)

def _dx4(f, h):
    return (-np.roll(f, -2, axis=1) + 8 * np.roll(f, -1, axis=1)
            - 8 * np.roll(f, 1, axis=1) + np.roll(f, 2, axis=1)) / (12 * h)


def _dy4(f, h):
    return (-np.roll(f, -2, axis=0) + 8 * np.roll(f, -1, axis=0)
            - 8 * np.roll(f, 1, axis=0) + np.roll(f, 2, axis=0)) / (12 * h)


def _dz4(f, h):
    return 0.5 * (_dx4(f, h) - 1j * _dy4(f, h))


def _dzb4(f, h):
    return 0.5 * (_dx4(f, h) + 1j * _dy4(f, h))


def _laplacian_check(metric, phi):
    """Delta_h phi from 4th-order stencils and the raw chart fields."""
    h = metric.grid.spacing
    c = metric.chart
    phi_zb = _dzb4(phi, h)
    bracket = (_dz4(phi_zb, h) + np.conj(c.mu) * _dzb4(phi_zb, h)
               - (c.logB / c.dwz) * phi_zb)
    return 2.0 * np.exp(-2.0 * metric.psi) / c.dzbwb * bracket


def _rotated_gradient(metric, phi):
    """Components of d(phi) o J on the grid axes (4th-order route)."""
    h = metric.grid.spacing
    c = metric.chart
    mub = np.conj(c.mu)
    phi_z, phi_zb = _dz4(phi, h), _dzb4(phi, h)
    A = -1j * (phi_z + mub * phi_zb)
    B = 1j * phi_zb / c.dzbwb
    wb_x = (1.0 - mub) * c.dzbwb
    wb_y = -1j * (1.0 + mub) * c.dzbwb
    return A + B * wb_x, 1j * A + B * wb_y


def _plaquette_circulation(tx, ty, h):
    ex = 0.5 * (tx + np.roll(tx, -1, axis=1))
    ey = 0.5 * (ty + np.roll(ty, -1, axis=0))
    return h * (ex - np.roll(ex, -1, axis=0)
                + np.roll(ey, -1, axis=1) - ey)


def _plaquette_average(f, h):
    corners = (f + np.roll(f, -1, axis=0) + np.roll(f, -1, axis=1)
               + np.roll(np.roll(f, -1, axis=0), -1, axis=1))
    return 0.25 * corners * h ** 2


# ----------------------------------------------------------------------
# shared frozen data

MU_SET = (0.0, 0.3, 0.3 * np.exp(1j * np.pi / 5))


def _wave_psi(g):
    return 0.1 * np.sin(2 * np.pi * g.x) * np.cos(2 * np.pi * g.y)


def _test_phi(g):
    return (np.cos(2 * np.pi * g.y)
            + 0.5 * np.sin(2 * np.pi * (g.x + g.y)))


def _solved_sine(n, eps=0.01):
    """Gauss-solved constant cubic datum over the smooth sine chart."""
    grid = TorusGrid(n)
    chart = BeltramiChart.sine_perturbed(grid, eps)
    C = CubicPair(grid, 0.6, 0.6, holomorphic=True)
    report = solve_newton(GaussProblem(ComplexMetric(chart, 0.0), C))
    if not report.converged:
        raise ArithmeticError("background solve did not converge")
    return report.psi, C, chart


def fuchsian_generators():
    """Symmetric-square images of the perpendicular-axes hyperbolic pair
    with translation length ln 6 (axes through i, endpoints 0/inf and
    -1/+1 on the boundary circle)."""
    t = np.log(np.sqrt(6.0))
    A = np.diag([np.exp(t), np.exp(-t)])
    B = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    return irreducible_embed(A), irreducible_embed(B)


def reducible_generators(seed=7):
    """A seeded conjugate of an upper-triangular pair: the shared
    invariant line/plane survive conjugation, the triangular shape does
    not, so the degeneracy is only visible to the flag diagnostics."""
    T1 = np.array([[2, 1, 0], [0, 1, 1], [0, 0, 0.5]], dtype=float)
    T2 = np.array([[3, 0.5, 1], [0, 1 / 3, 0.3], [0, 0, 1]], dtype=float)
    rng = np.random.default_rng(seed)
    G = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    G = G / np.linalg.det(G) ** (1 / 3)
    Gi = np.linalg.inv(G)
    return G @ T1 @ Gi, G @ T2 @ Gi


# ----------------------------------------------------------------------
# the criteria

def criterion_1() -> CriterionResult:
    """Matrix-algebra isomorphism: homomorphism property and pairing
    preservation of the idempotent splitting map on random pairs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    hom = qres = 0.0
    for _ in range(100):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        X, Y = phi_iso(A), phi_iso(B)
        hom = max(hom, (phi_iso(A @ B) - X @ Y).norm_max())
        qres = max(qres, compatibility_residual(X),
                   compatibility_residual(Y))
    checks = [("hom", hom, 1e-12), ("pairing", qres, 1e-12)]
    return _result(1, "algebra isomorphism", checks, t0, limit=1.0)


def criterion_2() -> CriterionResult:
    """Metric Laplacian converges at 2nd order against the 4th-order
    verification stencils for three chart dilatations."""
    t0 = time.perf_counter()
    checks = []
    for k, mu in enumerate(MU_SET):
        errs = []
        for n in (64, 128):
            g = TorusGrid(n)
            h = ComplexMetric(BeltramiChart.constant_mu(g, mu),
                              _wave_psi(g))
            phi = _test_phi(g)
            errs.append(np.abs(laplacian(h, phi)
                               - _laplacian_check(h, phi)).max())
        ratio = errs[0] / errs[1]
        checks.append((f"ratio_dev_mu{k}", abs(ratio - 4.0), 0.6))
    return _result(2, "Laplacian convergence", checks, t0, limit=10.0)


def criterion_3() -> CriterionResult:
    """Discrete Stokes: plaquette circulation of d(phi) o J equals the
    plaquette quadrature of (Delta_h phi) dA_h to O(spacing^2)."""
    t0 = time.perf_counter()
    checks = []
    n = 64
    for k, mu in enumerate(MU_SET):
        g = TorusGrid(n)
        h = ComplexMetric(BeltramiChart.constant_mu(g, mu), _wave_psi(g))
        phi = _test_phi(g)
        tx, ty = _rotated_gradient(h, phi)
        lhs = _plaquette_circulation(tx, ty, g.spacing)
        rhs = _plaquette_average(laplacian(h, phi) * h.area_density,
                                 g.spacing)
        checks.append((f"defect_mu{k}", float(np.abs(lhs - rhs).max()),
                       5.0 * g.spacing ** 2))
    return _result(3, "Stokes identity", checks, t0)


def criterion_4() -> CriterionResult:
    """Gauss solver: constant data reproduces the closed-form root in
    <= 3 Newton steps; a perturbed datum converges to 1e-10 at n=128."""
    t0 = time.perf_counter()
    g32 = TorusGrid(32)
    bg = ComplexMetric(BeltramiChart.identity(g32), 0.0)
    rep = solve_newton(GaussProblem(bg, CubicPair(g32, 2.0, 2.0), Kg=0.0))
    u = constant_root(0.5, 0.0)
    const_err = float(np.abs(rep.psi - 0.5 * np.log(u)).max())
    iters = rep.iterations if rep.converged else 99

    g128 = TorusGrid(128)
    alpha = 1.0 + 0.1 * np.exp(2j * np.pi * g128.x)
    bg128 = ComplexMetric(BeltramiChart.identity(g128), 0.0)
    problem = GaussProblem(bg128, CubicPair(g128, alpha, 1.0), Kg=0.0)
    rep128 = solve_newton(problem)
    final = float(np.abs(residual_background(rep128.psi, problem)).max()) \
        if rep128.converged else np.inf
    checks = [("const_err", const_err, 1e-10),
              ("const_steps", float(iters), 3.0),
              ("perturbed_res", final, 1e-10)]
    return _result(4, "Gauss solver exactness", checks, t0, limit=60.0)


def criterion_5() -> CriterionResult:
    """Flatness of the assembled connection: exact for constant data,
    O(spacing^2) for a Gauss-solved datum on the smooth chart."""
    t0 = time.perf_counter()
    g16 = TorusGrid(16)
    conn0 = assemble(0.0, CubicPair(g16, 1.0, 1.0),
                     BeltramiChart.identity(g16))
    psi, C, chart = _solved_sine(64)
    checks = [("constant", conn0.flatness_residual(), 1e-13),
              flatness_check(assemble(psi, C, chart), chart.grid.spacing,
                             "solved")]
    return _result(5, "flatness residual", checks, t0)


def criterion_6() -> CriterionResult:
    """Period holonomies of a solved datum: unimodular plus-parts,
    commuting periods, and the minus-part compatibility identity."""
    t0 = time.perf_counter()
    n = 64
    psi, C, chart = _solved_sine(n)
    conn = assemble(psi, C, chart)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # advisory fires on O(h^2) data
        Hx = holonomy(conn, Loop.x_period(n))
        Hy = holonomy(conn, Loop.y_period(n))
    return _result(6, "holonomy invariants",
                   holonomy_checks(Hx, Hy, chart.grid.spacing), t0)


def criterion_7() -> CriterionResult:
    """Pairing of connection variations at a zero-cubic point: the
    vertical/vertical value is positive and matches the weighted L2 norm
    of the datum variation on three grids; vertical/horizontal vanishes."""
    t0 = time.perf_counter()
    checks = []
    for n in (32, 64, 128):
        g = TorusGrid(n)
        h = ComplexMetric(BeltramiChart.identity(g),
                          0.08 * np.sin(2 * np.pi * g.x)
                          + 0.05 * np.cos(2 * np.pi * (g.x + g.y)))
        qd = np.exp(2j * np.pi * g.x) + 0.3 * np.sin(2 * np.pi * g.y)
        d1 = vertical_variation(qd, np.conj(qd), h)
        d2 = vertical_variation(np.zeros_like(qd), 1j * np.conj(qd), h)
        val = complex(goldman_pairing(d1, d2, h).z1).real
        ref = float((np.sum(np.abs(qd) ** 2 * np.exp(-6 * h.psi)
                            * 2.0 * np.exp(2 * h.psi))
                     * g.spacing ** 2).real)
        pos = 0.0 if val > 0 else 1.0
        checks.append((f"positive_n{n}", pos, 0.0))
        checks.append((f"ratio_dev_n{n}", abs(val / ref - 1.0), 0.01))
        if n == 64:
            vh = goldman_pairing(d1, horizontal_pattern(h, seed=3), h)
            vmax = max(abs(complex(vh.z1)), abs(complex(vh.z2)))
            checks.append(("vert_horiz", vmax, 1e-10))
    return _result(7, "variation pairing", checks, t0)


def roundtrip_criterion():
    """Criterion 8 and the pair it integrated: (CriterionResult,
    AffinePair) of the frozen Wang datum q = 1.2 at n = 128."""
    t0 = time.perf_counter()
    problem = wang_specialize(1.2, TorusGrid(128))
    report = solve_newton(problem)
    conn = assemble(report.psi, problem.C, problem.background.chart)
    pair = integrate_frame(conn)
    result = _result(8, "affine roundtrip",
                     roundtrip_checks(pair, report.psi), t0)
    return result, pair


def criterion_8() -> CriterionResult:
    """End-to-end roundtrip at n=128: solve, assemble, integrate the
    frame pair, and check the induced-structure residuals."""
    return roundtrip_criterion()[0]


def criterion_9() -> CriterionResult:
    """Second variation: the trace field is strictly negative at every
    node for seeded random nonvanishing sections over solved data."""
    t0 = time.perf_counter()
    n = 32
    grid = TorusGrid(n)
    problem = wang_specialize(1.2, grid)
    report = solve_newton(problem)
    psi = np.real(report.psi)
    rng = np.random.default_rng(99)
    worst = -np.inf
    tx, ty = 2 * np.pi * grid.x, 2 * np.pi * grid.y
    for _ in range(10):
        a, b = rng.normal(size=2)
        ph = rng.uniform(0, 2 * np.pi, size=3)
        Z = np.zeros((n, n, 2))
        # first component bounded away from zero: nonvanishing section
        Z[..., 0] = (0.9 + 0.3 * np.sin(tx + ph[0]) * np.cos(ty + ph[1])
                     + 0.1 * np.tanh(a))
        Z[..., 1] = 0.5 * np.cos(tx + ph[2]) + 0.1 * np.tanh(b)
        tr = second_variation_trace(Z, psi, problem.C,
                                    problem.background.chart)
        worst = max(worst, float(tr.max()))
    checks = [("max_trace", worst, -1e-12)]
    return _result(9, "second variation sign", checks, t0)


def criterion_10() -> CriterionResult:
    """Representation scan: the Fuchsian pair passes to word length 5
    with healthy transversality and trivial centralizer; the seeded
    reducible pair fails with vanishing transversality."""
    t0 = time.perf_counter()
    A, B = fuchsian_generators()
    good = anosov_scan(Representation({"a": A, "b": B}), 5)
    good_ok = (good.obstruction is None
               and good.min_transversality >= 0.01
               and good.centralizer_dim == 1)

    R1, R2 = reducible_generators()
    bad = anosov_scan(Representation({"a": R1, "b": R2}), 5)
    bad_ok = bad.min_transversality < 1e-10
    checks = [("fuchsian_fail", 0.0 if good_ok else 1.0, 0.0),
              ("fuchsian_min_t", -good.min_transversality, -0.01),
              ("reducible_min_t", bad.min_transversality, 1e-10)]
    res = _result(10, "representation scan", checks, t0, limit=30.0)
    return res if bad_ok else replace(res, passed=False)


CRITERIA = {i: globals()[f"criterion_{i}"] for i in range(1, 11)}


def run_criterion(cid: int) -> CriterionResult:
    if cid not in CRITERIA:
        raise ValueError(f"no criterion {cid}")
    return CRITERIA[cid]()


def run_all():
    return [CRITERIA[i]() for i in sorted(CRITERIA)]
