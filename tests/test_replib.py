"""Representation diagnostics: the symmetric-square embedding, loxodromy
and flags, the word scan with its transversality semantics, centralizer
rank, and the pairing of connection variations.

The embedding is checked against an independent interpolation oracle
(solve for the 3x3 matrix from monomial images of three generic points)
rather than against its own formula.  Scan expectations are frozen from
the two standing examples: the perpendicular-axes SL(2,R) pair at
translation length ln 6, and a seeded conjugate of an upper-triangular
(reducible) pair.
"""

import numpy as np
import pytest

from bchyp.connection import BcMat3Field
from bchyp.metric import BeltramiChart, ComplexMetric, TorusGrid
from bchyp.replib import (
    AnosovReport,
    NotDiagonalizable,
    NotUnimodular,
    Representation,
    VariationField,
    anosov_scan,
    centralizer_check,
    goldman_pairing,
    horizontal_pattern,
    irreducible_embed,
    loxodromy,
    parse_word,
    transversality,
    vertical_variation,
    word_str,
)

# ----------------------------------------------------------------------
# standing examples

T_LEN = np.log(np.sqrt(6.0))          # half the translation length ln 6


def fuchsian_sl2():
    """Equal-length hyperbolic pair, perpendicular axes through i."""
    A = np.diag([np.exp(T_LEN), np.exp(-T_LEN)])
    B = np.array([[np.cosh(T_LEN), np.sinh(T_LEN)],
                  [np.sinh(T_LEN), np.cosh(T_LEN)]])
    return A, B


def fuchsian_rep():
    A, B = fuchsian_sl2()
    return Representation({"a": irreducible_embed(A),
                           "b": irreducible_embed(B)})


def reducible_rep():
    """Upper-triangular pair hidden behind a seeded conjugation."""
    T1 = np.array([[2, 1, 0], [0, 1, 1], [0, 0, 0.5]], dtype=float)
    T2 = np.array([[3, 0.5, 1], [0, 1 / 3, 0.3], [0, 0, 1]], dtype=float)
    rng = np.random.default_rng(7)
    G = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    G = G / np.linalg.det(G) ** (1 / 3)
    Gi = np.linalg.inv(G)
    return Representation({"a": G @ T1 @ Gi, "b": G @ T2 @ Gi})


def random_sl2(rng):
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return M / np.sqrt(np.linalg.det(M))


# ----------------------------------------------------------------------
# words and the representation container

def test_word_parse_roundtrip():
    assert parse_word("abA") == (("a", 1), ("b", 1), ("a", -1))
    assert word_str(parse_word("aBBa")) == "aBBa"


def test_representation_validates_and_evaluates():
    rep = fuchsian_rep()
    assert rep.names == ("a", "b")
    M = rep.evaluate(parse_word("abA"))
    a, b = rep.generators["a"], rep.generators["b"]
    assert np.abs(M - a @ b @ np.linalg.inv(a)).max() < 1e-12
    with pytest.raises(AttributeError):
        rep.generators = {}


def test_representation_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        Representation({"a": 2.0 * np.eye(3)})


def test_representation_relation_check():
    g = irreducible_embed(np.diag([2.0, 0.5]))
    rep = Representation({"a": g}, relations=["aA"])
    assert rep.relations == (parse_word("aA"),)
    with pytest.raises(ValueError, match="relation"):
        Representation({"a": g}, relations=["aa"])


# ----------------------------------------------------------------------
# the symmetric-square embedding, against an interpolation oracle

def sym2_oracle(A):
    """Independent route: the matrix sending m(v) to m(Av) is pinned by
    three generic points, m(v) = (x^2, xy, y^2)."""
    pts = np.array([[1.0, 0.3], [0.2, 1.1], [0.7, -0.8]], dtype=complex).T

    def mono(V):
        return np.stack([V[0] ** 2, V[0] * V[1], V[1] ** 2])

    return mono(A @ pts) @ np.linalg.inv(mono(pts))


def test_embed_matches_interpolation_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        A = random_sl2(rng)
        worst = max(worst, np.abs(irreducible_embed(A)
                                  - sym2_oracle(A)).max())
    assert worst < 1e-12


def test_embed_is_a_homomorphism():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        A, B = random_sl2(rng), random_sl2(rng)
        worst = max(worst, np.abs(
            irreducible_embed(A @ B)
            - irreducible_embed(A) @ irreducible_embed(B)).max())
    assert worst < 1e-12


def test_embed_exact_values():
    assert np.array_equal(irreducible_embed(np.eye(2)), np.eye(3))
    lam = 2.0
    D = irreducible_embed(np.diag([lam, 1 / lam]))
    assert np.abs(D - np.diag([4.0, 1.0, 0.25])).max() == 0.0
    assert np.abs(np.linalg.det(irreducible_embed(
        random_sl2(np.random.default_rng(0)))) - 1.0) < 1e-12


def test_embed_rejects_bad_input():
    with pytest.raises(NotUnimodular):
        irreducible_embed(np.diag([2.0, 1.0]))
    with pytest.raises(ValueError):
        irreducible_embed(np.eye(3))


# ----------------------------------------------------------------------
# loxodromy and flags

def test_loxodromy_frozen_example():
    r = loxodromy(irreducible_embed(np.diag([2.0, 0.5])))
    assert r.loxodromic
    assert np.allclose(r.moduli, (4.0, 1.0, 0.25), atol=1e-13)
    assert np.allclose(r.gaps, (0.75, 0.75), atol=1e-13)
    line = r.attracting.line
    assert abs(abs(line[0]) - 1.0) < 1e-12 and np.abs(line[1:]).max() < 1e-12
    rline = r.repelling.line
    assert abs(abs(rline[2]) - 1.0) < 1e-12 and np.abs(rline[:2]).max() < 1e-12
    # attracting plane is span(e1, e2): normal proportional to e3
    assert np.abs(r.attracting.plane[:2]).max() < 1e-12


def test_loxodromy_middle_modulus_is_one_on_embedded_hyperbolics():
    rng = np.random.default_rng(4)
    for _ in range(10):
        lam = np.exp(rng.uniform(0.3, 1.2))
        M = rng.standard_normal((2, 2))
        M /= np.sqrt(abs(np.linalg.det(M)))
        if np.linalg.det(M) < 0:
            M = M @ np.diag([1.0, -1.0])
        g = M @ np.diag([lam, 1 / lam]) @ np.linalg.inv(M)
        r = loxodromy(irreducible_embed(g))
        assert r.loxodromic
        assert abs(r.moduli[1] - 1.0) < 1e-9
        assert abs(r.moduli[0] - lam ** 2) < 1e-9 * lam ** 2


def test_loxodromy_flags_conjugate_equivariantly():
    rng = np.random.default_rng(11)
    A3 = irreducible_embed(np.diag([1.7, 1 / 1.7]))
    r0 = loxodromy(A3)
    U = np.linalg.qr(rng.standard_normal((3, 3))
                     + 1j * rng.standard_normal((3, 3)))[0]
    U = U / np.linalg.det(U) ** (1 / 3)
    rU = loxodromy(U @ A3 @ np.linalg.inv(U))
    assert np.abs(np.array(rU.moduli) - np.array(r0.moduli)).max() < 1e-12
    v = U @ r0.attracting.line
    align = abs(np.vdot(rU.attracting.line, v / np.linalg.norm(v)))
    assert abs(align - 1.0) < 1e-9
    G = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
    G = G / np.linalg.det(G) ** (1 / 3)
    rG = loxodromy(G @ A3 @ np.linalg.inv(G))
    assert np.abs(np.array(rG.moduli) - np.array(r0.moduli)).max() < 1e-12


def test_loxodromy_flat_spectra_are_not_loxodromic():
    uni = np.array([[1.0, 1, 0], [0, 1, 1], [0, 0, 1]])
    r = loxodromy(uni)
    assert not r.loxodromic and r.attracting is None
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    r2 = loxodromy(irreducible_embed(rot))
    assert not r2.loxodromic
    assert np.allclose(r2.moduli, (1.0, 1.0, 1.0), atol=1e-12)


def test_loxodromy_defective_matrix_raises():
    J = np.array([[1 + 2e-6, 1e6, 0], [0, 1.0, 1e6], [0, 0, 1 - 2e-6]])
    J = J / np.linalg.det(J) ** (1 / 3)
    with pytest.raises(NotDiagonalizable):
        loxodromy(J)


def test_loxodromy_det_gate():
    with pytest.raises(NotUnimodular):
        loxodromy(1.01 * irreducible_embed(np.diag([2.0, 0.5])))


def test_transversality_extremes():
    r = loxodromy(irreducible_embed(np.diag([2.0, 0.5])))
    F1, F2 = r.attracting, r.repelling
    # generic position: lines e1 and e3, planes span(e1,e2), span(e2,e3)
    assert abs(transversality(F1, F2) - 1.0) < 1e-12
    assert transversality(F1, F1) < 1e-14   # incidence: line in own plane


# ----------------------------------------------------------------------
# the word scan

def test_scan_fuchsian_pair_passes():
    rpt = anosov_scan(fuchsian_rep(), 5)
    assert rpt.obstruction is None
    assert len(rpt.words) == 484
    assert 0.0151 < rpt.min_transversality < 0.0153
    assert rpt.min_gap > 0.6
    assert rpt.centralizer_dim == 1
    assert sorted(rpt.witness_pair) == ["Ab-", "B+"]
    assert "word length 5" in rpt.claim
    # moduli table is internally consistent
    assert np.all(np.diff(rpt.moduli, axis=1) <= 0)
    assert np.abs(np.prod(rpt.moduli, axis=1) - 1.0).max() < 1e-8


def test_scan_numbers_are_unitary_conjugation_invariant():
    rng = np.random.default_rng(11)
    Z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    U, _ = np.linalg.qr(Z)
    rep0 = fuchsian_rep()
    rep1 = Representation(
        {k: U @ M @ U.conj().T for k, M in rep0.generators.items()})
    r0 = anosov_scan(rep0, 3)
    r1 = anosov_scan(rep1, 3)
    assert abs(r0.min_transversality - r1.min_transversality) < 1e-9
    assert abs(r0.min_gap - r1.min_gap) < 1e-9
    assert np.max(np.abs(r0.moduli - r1.moduli)) < 1e-9
    assert r0.centralizer_dim == r1.centralizer_dim


def test_scan_perturbed_pair_still_passes():
    rng = np.random.default_rng(5)
    A, B = fuchsian_sl2()

    def bump(M):
        M = irreducible_embed(M) + 1e-3 * rng.standard_normal((3, 3))
        return M / np.linalg.det(M) ** (1 / 3)

    rpt = anosov_scan(Representation({"a": bump(A), "b": bump(B)}), 5)
    assert rpt.obstruction is None
    assert rpt.min_transversality > 0.014
    assert rpt.centralizer_dim == 1


def test_scan_reducible_pair_fails_with_zero_transversality():
    rpt = anosov_scan(reducible_rep(), 5)
    assert rpt.obstruction is not None
    assert rpt.min_transversality < 1e-12


def test_scan_non_loxodromic_generator_is_the_obstruction():
    _, B = fuchsian_sl2()
    uni = np.array([[1.0, 1, 0], [0, 1, 1], [0, 0, 1]])
    rpt = anosov_scan(Representation({"a": uni,
                                      "b": irreducible_embed(B)}), 2)
    assert rpt.obstruction is not None
    assert "a is not loxodromic" in rpt.obstruction


def test_scan_rejects_bad_length():
    with pytest.raises(ValueError):
        anosov_scan(fuchsian_rep(), 0)


def test_report_validates_moduli():
    flag = loxodromy(irreducible_embed(np.diag([2.0, 0.5]))).attracting
    kw = dict(max_word_len=1, words=("a",), gaps=np.array([[0.5, 0.5]]),
              attracting=(flag,), repelling=(flag,), min_gap=0.5,
              min_transversality=1.0, witness_pair=("a+", "a-"),
              centralizer_dim=1)
    with pytest.raises(ValueError, match="sorted"):
        AnosovReport(moduli=np.array([[1.0, 2.0, 0.5]]), **kw)
    with pytest.raises(ValueError, match="unimodular"):
        AnosovReport(moduli=np.array([[2.0, 1.0, 0.25]]), **kw)


def test_centralizer_dimensions():
    assert centralizer_check(fuchsian_rep()) == 1
    diag = Representation({"a": np.diag([2.0, 1.0, 0.5]),
                           "b": np.diag([3.0, 1 / 3, 1.0])})
    assert centralizer_check(diag) == 3
    triv = Representation({"a": np.eye(3), "b": np.eye(3)})
    assert centralizer_check(triv) == 9


# ----------------------------------------------------------------------
# pairing of connection variations

def metric_example(n=32):
    grid = TorusGrid(n)
    chart = BeltramiChart.identity(grid)
    psi = (0.08 * np.sin(2 * np.pi * grid.x)
           + 0.05 * np.cos(2 * np.pi * (grid.x + grid.y)))
    return ComplexMetric(chart, psi)


def qdot_example(h):
    g = h.grid
    return np.exp(2j * np.pi * g.x) + 0.3 * np.sin(2 * np.pi * g.y)


def test_vertical_pairing_equals_weighted_norm():
    """Pairing a cubic-datum variation with its quarter-turn partner
    reproduces the e^{-6 psi}-weighted L2 norm of qdot, grid for grid."""
    for n in (32, 64):
        h = metric_example(n)
        qd = qdot_example(h)
        d1 = vertical_variation(qd, np.conj(qd), h)
        d2 = vertical_variation(np.zeros_like(qd), 1j * np.conj(qd), h)
        val = goldman_pairing(d1, d2, h)
        ref = float((np.sum(np.abs(qd) ** 2 * np.exp(-6 * h.psi)
                            * 2.0 * np.exp(2 * h.psi))
                     * h.grid.spacing ** 2).real)
        z1 = complex(val.z1)
        assert z1.real > 0
        assert abs(z1.real / ref - 1.0) < 1e-13
        assert abs(z1.imag) < 1e-15 * ref
        assert abs(complex(val.z2)) < 1e-15 * ref


def test_vertical_horizontal_pairing_vanishes_pointwise():
    h = metric_example()
    qd = qdot_example(h)
    d1 = vertical_variation(qd, np.conj(qd), h)
    for seed in (0, 3, 9):
        dh = horizontal_pattern(h, seed=seed)
        val = goldman_pairing(d1, dh, h)
        assert complex(val.z1) == 0.0 and complex(val.z2) == 0.0


def test_pairing_is_antisymmetric_and_bilinear():
    h = metric_example()
    qd = qdot_example(h)
    d1 = vertical_variation(qd, np.conj(qd), h)
    d2 = vertical_variation(1j * qd ** 2, np.conj(qd), h)
    d3 = vertical_variation(qd + 2.0 * 1j * qd ** 2,
                            np.conj(qd) + 2.0 * np.conj(qd), h)
    p12 = complex(goldman_pairing(d1, d2, h).z1)
    p21 = complex(goldman_pairing(d2, d1, h).z1)
    assert p12 == -p21
    assert complex(goldman_pairing(d1, d1, h).z1) == 0.0
    p32 = complex(goldman_pairing(d3, d2, h).z1)
    p22 = complex(goldman_pairing(d2, d2, h).z1)
    lhs = p32
    rhs = p12 + 2.0 * p22
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_pairing_grid_mismatch_raises():
    h32, h64 = metric_example(32), metric_example(64)
    qd = qdot_example(h64)
    d = vertical_variation(qd, np.conj(qd), h64)
    with pytest.raises(ValueError):
        goldman_pairing(d, d, h32)


def test_variation_field_shape_gate():
    h32, h64 = metric_example(32), metric_example(64)
    d32 = vertical_variation(qdot_example(h32), 0 * qdot_example(h32), h32)
    d64 = vertical_variation(qdot_example(h64), 0 * qdot_example(h64), h64)
    with pytest.raises(ValueError):
        VariationField(d32.dz, d64.dzb)


def test_horizontal_pattern_shape():
    h = metric_example()
    dh = horizontal_pattern(h, seed=1)
    for part in (dh.dz.plus, dh.dz.minus):
        assert np.abs(part[..., 0, 1]).max() == 0.0
        assert np.abs(part[..., 1, 0]).max() == 0.0
        assert np.abs(np.einsum("...ii->...", part)).max() < 1e-12
        assert np.abs(part[..., 1, 2]).max() > 0
    for part in (dh.dzb.plus, dh.dzb.minus):
        assert np.abs(part[..., 0, 1]).max() == 0.0
        assert np.abs(part[..., 1, 0]).max() == 0.0
        assert np.abs(part[..., 0, 2]).max() > 0
