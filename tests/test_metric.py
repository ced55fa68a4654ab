import numpy as np
import pytest

from bchyp.metric import (
    TorusGrid, BeltramiChart, ComplexMetric, CubicPair, stencil_symbols,
    centered_dx, centered_dy,
    commutator_coeffs, laplacian, curvature, cubic_norm,
    area_integrate, ellipticity_floor, symbol_check, christoffels,
    save_field_csv, load_field_csv, save_field_bin, load_field_bin,
)
import oracles


def flat_metric(n=64, psi=0.0, mu=0.0):
    g = TorusGrid(n)
    return ComplexMetric(BeltramiChart.constant_mu(g, mu), psi)


def wave_psi(g, eps=0.1):
    return eps * np.sin(2 * np.pi * g.x) * np.cos(2 * np.pi * g.y)


# ----------------------------------------------------------------- grids

def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(20)
    with pytest.raises(ValueError):
        TorusGrid(8)
    g = TorusGrid(16)
    assert g.spacing == 1 / 16
    assert g.z[0, 3] == 3 / 16 and g.z[2, 0] == 2j / 16


def test_grid_stencils_exact_on_low_modes():
    g = TorusGrid(64)
    f = np.exp(2j * np.pi * g.x)
    # centered difference of a pure mode has the discrete symbol
    want = 1j * np.sin(2 * np.pi * g.spacing) / g.spacing * f
    assert np.abs(g.dx(f) - want).max() < 1e-12
    # and stencil_symbols carries that symbol for every mode at once
    rng = np.random.default_rng(3)
    u = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    sx, sy = stencil_symbols(64, g.spacing)
    U = np.fft.fft2(u)
    assert np.abs(np.fft.fft2(g.dx(u)) - sx * U).max() < 1e-9
    assert np.abs(np.fft.fft2(g.dy(u)) - sy * U).max() < 1e-9
    for k in (0, 32):
        assert sx[0, k] == 0.0 and sy[k, 0] == 0.0


def _fields(n):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n))
    cplx = real + 1j * rng.standard_normal((n, n))
    return {"real": real, "complex": cplx,
            "vector": rng.standard_normal((n, n, 3))
            + 1j * rng.standard_normal((n, n, 3)),
            "matrix": rng.standard_normal((n, n, 3, 3))
            + 1j * rng.standard_normal((n, n, 3, 3))}


@pytest.mark.parametrize("n", [16, 128])
def test_sliced_stencils_equal_roll_form_bitwise(n):
    h = 1.0 / n
    for kind, f in _fields(n).items():
        gx, gy = centered_dx(f, h), centered_dy(f, h)
        assert gx.dtype == f.dtype and gy.dtype == f.dtype, kind
        assert np.array_equal(gx, oracles.dx_roll(f, h)), kind
        assert np.array_equal(gy, oracles.dy_roll(f, h)), kind
        # the wrap columns and rows, against the formula written out
        assert np.array_equal(gx[:, 0], (f[:, 1] - f[:, -1]) / (2 * h))
        assert np.array_equal(gx[:, -1], (f[:, 0] - f[:, -2]) / (2 * h))
        assert np.array_equal(gy[0], (f[1] - f[-1]) / (2 * h))
        assert np.array_equal(gy[-1], (f[0] - f[-2]) / (2 * h))


@pytest.mark.parametrize("n", [16, 128])
def test_d_w_shared_differences_equal_two_pass_form_bitwise(n):
    chart = BeltramiChart.sine_perturbed(TorusGrid(n), 0.1)
    for kind, f in _fields(n).items():
        want = oracles.d_w_two_pass(chart, f)
        assert np.array_equal(chart.d_w(f), want), kind


# ----------------------------------------------------------------- charts

def test_chart_positivity_enforced():
    g = TorusGrid(16)
    with pytest.raises(ValueError):
        BeltramiChart.constant_mu(g, 1.0)
    with pytest.raises(ValueError):
        BeltramiChart(g, np.full((16, 16), 1.2), 1.0, 1.0)


def test_constant_mu_chart_fields():
    g = TorusGrid(16)
    m = 0.3 * np.exp(1j * np.pi / 5)
    c = BeltramiChart.constant_mu(g, m)
    assert np.allclose(c.mu, m)
    assert np.allclose(c.dwz, 1 / (1 - abs(m) ** 2))
    assert np.allclose(c.dzbwb, 1.0)
    cW, cZ = commutator_coeffs(c)
    assert np.abs(cW).max() == 0 and np.abs(cZ).max() == 0


def test_commutator_zero_chart():
    g = TorusGrid(16)
    cW, cZ = commutator_coeffs(BeltramiChart.identity(g))
    assert np.abs(cW).max() == 0 and np.abs(cZ).max() == 0


def test_commutator_synthetic_chart_vs_4th_order():
    errs = []
    for n in (64, 128):
        g = TorusGrid(n)
        F = 0.2 * np.sin(2 * np.pi * g.x) * np.cos(2 * np.pi * g.y)
        G = 0.1 * np.cos(2 * np.pi * (g.x + g.y))
        chart = BeltramiChart(g, 0.1, np.exp(F), np.exp(G + 0.05j))
        cW, cZ = commutator_coeffs(chart)
        # independent: 4th-order differencing of log(dwz), log(dzbwb)
        oW = oracles.dzb4(F, g.spacing)
        oZ = np.exp(F) * (oracles.dz4(G + 0.05j, g.spacing)
                          + np.conj(chart.mu) * oracles.dzb4(G + 0.05j, g.spacing))
        errs.append(max(np.abs(cW - oW).max(), np.abs(cZ - oZ).max()))
    assert errs[0] < 0.02
    assert 3.4 < errs[0] / errs[1] < 4.6          # order-2 convergence


def test_sine_perturbed_chart_consistency():
    # closed-form fields must agree with stencil recomputation at O(h^2)
    res = []
    for n in (64, 128):
        chart = BeltramiChart.sine_perturbed(TorusGrid(n), eps=0.05)
        assert np.abs(chart.mu).max() < 1.0
        res.append(chart.consistency_residual())
    assert res[0] < 5e-3
    assert 3.4 < res[0] / res[1] < 4.6


# -------------------------------------------------------------- laplacian

def test_laplacian_constant_is_zero():
    h = flat_metric(16)
    assert np.abs(laplacian(h, 3.7 + 0.2j)).max() < 1e-14


def test_laplacian_sine_frozen_value():
    # continuum: Delta_h sin(2 pi x) = -2 pi^2 sin(2 pi x) for mu=0, psi=0
    errs = []
    for n in (64, 128):
        h = flat_metric(n)
        phi = np.sin(2 * np.pi * h.grid.x)
        out = laplacian(h, phi)
        errs.append(np.abs(out - (-2 * np.pi ** 2) * phi).max())
    assert errs[0] < 0.1
    assert 3.4 < errs[0] / errs[1] < 4.6


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.3 * np.exp(1j * np.pi / 5)])
def test_laplacian_vs_independent_stencils(mu):
    errs = []
    for n in (64, 128):
        g = TorusGrid(n)
        h = ComplexMetric(BeltramiChart.constant_mu(g, mu), wave_psi(g))
        phi = np.cos(2 * np.pi * g.y) + 0.5 * np.sin(2 * np.pi * (g.x + g.y))
        mine = laplacian(h, phi)
        ref = oracles.laplacian_oracle(h, phi)
        if mu == 0.0:
            ref5 = oracles.flat_laplacian_oracle(h, phi)
            assert np.abs(ref - ref5).max() < 200 * g.spacing ** 2
        errs.append(np.abs(mine - ref).max())
    assert 3.4 < errs[0] / errs[1] < 4.6


def test_stokes_identity_flat_and_curved_charts():
    rng = np.random.default_rng(3)
    for chart_kind in ("flat", "perturbed"):
        errs = []
        for n in (64, 128):
            g = TorusGrid(n)
            if chart_kind == "flat":
                chart = BeltramiChart.constant_mu(g, 0.25j)
            else:
                chart = BeltramiChart.sine_perturbed(g, eps=0.05)
            h = ComplexMetric(chart, wave_psi(g))
            phi = (np.sin(2 * np.pi * g.x) * np.cos(2 * np.pi * g.y)
                   + 0.3 * np.cos(2 * np.pi * g.y))
            tx, ty = oracles.theta_one_form(h, phi)
            lhs = oracles.plaquette_circulation(tx, ty, g.spacing)
            rhs = oracles.plaquette_average(
                laplacian(h, phi) * h.area_density, g.spacing)
            errs.append(np.abs(lhs - rhs).max() / g.spacing ** 2)
        # normalized by h^2 the defect stays bounded and shrinks 4x
        assert errs[0] < 5.0, (chart_kind, errs)
        assert errs[1] < errs[0]
    del rng


# -------------------------------------------------------------- curvature

def test_curvature_flat():
    assert np.abs(curvature(flat_metric(16, psi=0.3))).max() < 1e-13


def test_curvature_vs_oracle():
    g = TorusGrid(64)
    h = ComplexMetric(BeltramiChart.identity(g), wave_psi(g))
    K = curvature(h)
    ref = -oracles.flat_laplacian_oracle(h, h.psi)
    assert np.abs(K - ref).max() < 5e-2
    assert np.abs(K.imag).max() < 1e-10      # real psi, mu = 0


def test_curvature_conformal_rule_exact():
    g = TorusGrid(32)
    chart = BeltramiChart.constant_mu(g, 0.2 + 0.1j)
    h = ComplexMetric(chart, wave_psi(g))
    phi = 0.2 * np.cos(2 * np.pi * g.x) + 0.1j * np.sin(2 * np.pi * g.y)
    lhs = curvature(h.conformal(phi))
    rhs = np.exp(-2 * phi) * (curvature(h) - laplacian(h, phi))
    # same stencils on both paths: identity holds to roundoff
    assert np.abs(lhs - rhs).max() < 1e-12


def test_hyperbolic_like_background():
    # psi chosen so K is a known constant: on the flat torus only psi
    # harmonic gives exact constants; use psi = c and check K = 0, then
    # a log-cosh profile against the oracle for a nonflat sanity point
    g = TorusGrid(64)
    psi = 0.05 * np.cos(2 * np.pi * g.x)
    h = ComplexMetric(BeltramiChart.identity(g), psi)
    K = curvature(h)
    ref = -oracles.flat_laplacian_oracle(h, psi)
    assert np.abs(K - ref).max() < 1e-2


# ------------------------------------------------------------- cubic norm

def test_cubic_norm_unit_data():
    h = flat_metric(16)
    C = CubicPair(h.grid, 1.0, 1.0)
    assert np.abs(cubic_norm(h, C) - 0.125).max() < 1e-14


def test_cubic_norm_zero_beta():
    h = flat_metric(16)
    C = CubicPair(h.grid, 1.0, 0.0)
    assert np.abs(cubic_norm(h, C)).max() == 0.0


def test_cubic_norm_conformal_scaling():
    h = flat_metric(16, psi=0.0)
    C = CubicPair(h.grid, 1.3 - 0.2j, 0.7 + 0.4j)
    base = cubic_norm(h, C)
    c = 0.37
    shifted = cubic_norm(ComplexMetric(h.chart, h.psi + c), C)
    assert np.abs(shifted - base * np.exp(-6 * c)).max() < 1e-14


def test_cubic_norm_chart_cancellation():
    # (dwz dzbwb)^3 / s^6 = e^{-6 psi} in any chart
    g = TorusGrid(32)
    chart = BeltramiChart.sine_perturbed(g, eps=0.05)
    h = ComplexMetric(chart, wave_psi(g))
    C = CubicPair(g, 2.0, 1.0 + 1.0j)
    want = C.alpha * np.conj(C.beta) * np.exp(-6 * h.psi) / 8.0
    assert np.abs(cubic_norm(h, C) - want).max() < 1e-12


def test_cubic_holomorphy_residual():
    g = TorusGrid(64)
    chart = BeltramiChart.identity(g)
    C = CubicPair(g, 1.0, 1.0)
    ra, rb = C.holomorphy_residual(chart)
    assert ra == 0.0 and rb == 0.0
    # the discrete d_zbar kernel on the torus: constants and Nyquist modes
    nyq = (-1.0) ** np.arange(64)[None, :] * np.ones((64, 1))
    ra_nyq, _ = CubicPair(g, nyq, 0.0).holomorphy_residual(chart)
    assert ra_nyq == 0.0
    # a smooth non-holomorphic coefficient is far from the kernel
    C2 = CubicPair(g, np.sin(2 * np.pi * g.x), 0.0)
    ra2, _ = C2.holomorphy_residual(chart)
    assert 2.0 < ra2 < 4.0


# ------------------------------------------------------------------ area

def test_area_unit_flat_torus():
    h = flat_metric(16)
    assert abs(area_integrate(h, 1.0) - 2.0) < 1e-13


def test_area_oscillation_vanishes():
    h = flat_metric(32)
    assert abs(area_integrate(h, np.sin(2 * np.pi * h.grid.x))) < 1e-12


def test_area_linearity():
    h = ComplexMetric(BeltramiChart.constant_mu(TorusGrid(32), 0.1), 0.2)
    rng = np.random.default_rng(0)
    f1 = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    f2 = rng.standard_normal((32, 32))
    a, b = 1.7, -0.4 + 0.2j
    lhs = area_integrate(h, a * f1 + b * f2)
    rhs = a * area_integrate(h, f1) + b * area_integrate(h, f2)
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- symbol

def test_ellipticity_floor_closed_form_matches_dense_sampling():
    rng = np.random.default_rng(5)
    radii = np.concatenate([
        rng.uniform(0.0, 0.99, 6),                 # elliptic
        1.0 + rng.uniform(-1e-3, 1e-3, 6),          # within 1e-3 of 1
        rng.uniform(1.01, 3.0, 4),                  # |mu| > 1
        [0.0, 1.0]])
    mus = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, radii.size))
    sampled = [oracles.ellipticity_floor_oracle(mu) for mu in mus]
    for mu, ref in zip(mus, sampled):
        assert abs(ellipticity_floor(mu) - ref) < 1e-9, mu
    # a field reduces to its worst entry
    assert abs(ellipticity_floor(mus.reshape(3, 6)) - min(sampled)) < 1e-9


def test_symbol_check_examples():
    assert symbol_check(0.0)
    assert not symbol_check(1.0)
    for k in range(8):
        assert symbol_check(0.99 * np.exp(1j * np.pi * k / 4)), k


# ------------------------------------------------------------ christoffel

def test_christoffel_identities():
    errs = []
    for n in (64, 128):
        g = TorusGrid(n)
        chart = BeltramiChart.sine_perturbed(g, eps=0.05)
        h = ComplexMetric(chart, wave_psi(g, 0.1))
        gam = christoffels(h)
        sp = g.spacing
        # direct formulas with independent 4th-order stencils
        psi_w = chart.dwz * (oracles.dz4(h.psi, sp)
                             + np.conj(chart.mu) * oracles.dzb4(h.psi, sp))
        dlog_dwz_w = chart.dwz * (
            oracles.dz4(chart.dwz, sp)
            + np.conj(chart.mu) * oracles.dzb4(chart.dwz, sp)) / chart.dwz
        want_w_ww = 2 * psi_w + dlog_dwz_w
        psi_zb = oracles.dzb4(h.psi, sp)
        want_zb = 2 * psi_zb + oracles.dzb4(chart.dzbwb, sp) / chart.dzbwb
        e = max(np.abs(gam["w_ww"] - want_w_ww).max(),
                np.abs(gam["zb_zbzb"] - want_zb).max())
        errs.append(e)
        assert np.abs(gam["w_zbw"] - chart.logA).max() == 0
        assert np.abs(gam["zb_wzb"] - chart.logB).max() == 0
    assert errs[0] < 0.05
    assert 3.4 < errs[0] / errs[1] < 4.6


# ---------------------------------------------------------- serialization

def test_field_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    f = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    p = tmp_path / "f.csv"
    save_field_csv(f, p)
    g = load_field_csv(p)
    assert np.abs(f - g).max() < 1e-15


def test_field_bin_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    f = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    p = tmp_path / "f.bcf"
    save_field_bin(f, p)
    g = load_field_bin(p)
    assert np.array_equal(f, g)
    with pytest.raises(ValueError):
        p2 = tmp_path / "bad.bcf"
        p2.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        load_field_bin(p2)
