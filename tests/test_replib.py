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

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from bchyp import mat3, replib
from bchyp.chtau import Flag
from bchyp.cli import load_generators
from bchyp.metric import BeltramiChart, ComplexMetric, TorusGrid
from bchyp.replib import (
    GAP_FLOOR,
    GAP_TOL,
    TIE_TOL,
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
    transversality,
    vertical_variation,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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


def conjugated(rep, U):
    return Representation({k: U @ M @ np.linalg.inv(U)
                           for k, M in rep.generators.items()})


def random_su3(rng):
    Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    U = np.linalg.qr(Z)[0]
    return U / np.linalg.det(U) ** (1 / 3)


def random_sl2(rng):
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return M / np.sqrt(np.linalg.det(M))


# ----------------------------------------------------------------------
# words and the representation container

def test_representation_validates():
    rep = fuchsian_rep()
    assert rep.names == ("a", "b")
    with pytest.raises(AttributeError):
        rep.generators = {}


@pytest.mark.parametrize("name", ["A", "ab", "{", 0])
def test_representation_names_are_single_lowercase_letters(name):
    # the scan spells a word letter by letter, upper case for an inverse
    with pytest.raises(ValueError, match="lowercase ASCII letter"):
        Representation({name: np.eye(3)})


def test_representation_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        Representation({"a": 2.0 * np.eye(3)})


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


def test_loxodromy_jordan_pair_with_a_wide_gap_reads_not_loxodromic():
    # a defective pair (a Jordan 2-block with a large coupling) beside a
    # simple root: round-off splits the double root by a gap far above
    # GAP_TOL, but the round-off floor GAP_FLOOR ||M||_F / |l1| lies
    # above that gap, so the word is "not loxodromic" and nothing raises
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    J = np.array([[2.0, 3e4, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.25]])
    M = Q @ J @ Q.T
    r = loxodromy(M)
    assert not r.loxodromic and r.attracting is None
    assert 1e3 * GAP_TOL < r.gaps[0] < GAP_FLOOR * np.linalg.norm(M) / 2.0
    assert np.allclose(r.moduli, (2.0, 2.0, 0.25), rtol=1e-2)
    # the scan never meets such a word: its det misses 1 by more than
    # the generator gate allows
    with pytest.raises(NotUnimodular):
        Representation({"a": M})


def test_loxodromy_det_gate():
    with pytest.raises(NotUnimodular):
        loxodromy(1.01 * irreducible_embed(np.diag([2.0, 0.5])))


def test_transversality_extremes():
    r = loxodromy(irreducible_embed(np.diag([2.0, 0.5])))
    F1, F2 = r.attracting, r.repelling
    # generic position: lines e1 and e3, planes span(e1,e2), span(e2,e3)
    assert abs(transversality(F1, F2) - 1.0) < 1e-12
    assert transversality(F1, F1) < 1e-14   # incidence: line in own plane


def random_flag(rng):
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return Flag(v - (phi @ v) / np.vdot(phi, phi) * phi.conj(), phi)


def oracle_transversality(F1, F2):
    return min(oracles.line_plane_det_oracle(F1.line, F2.plane),
               oracles.line_plane_det_oracle(F2.line, F1.plane))


def test_transversality_matches_determinant_oracle():
    rng = np.random.default_rng(9)
    r = loxodromy(irreducible_embed(np.diag([2.0, 0.5])))
    shared = Flag(r.attracting.line, [0, 1, 0])      # same line
    cases = [(r.attracting, r.repelling), (r.attracting, r.attracting),
             (r.attracting, shared)]
    cases += [(random_flag(rng), random_flag(rng)) for _ in range(30)]
    for F1, F2 in cases:
        assert abs(transversality(F1, F2)
                   - oracle_transversality(F1, F2)) < 1e-14


# ----------------------------------------------------------------------
# the word scan

def test_scan_fuchsian_pair_passes(monkeypatch):
    seen = spy_anchors(monkeypatch)
    rpt = anosov_scan(fuchsian_rep(), 5)
    assert rpt.obstruction is None
    assert len(rpt.words) == 484
    assert 0.0151 < rpt.min_transversality < 0.0153
    assert rpt.min_gap > 0.6
    assert rpt.centralizer_dim == 1
    # the pairs tie by symmetry: the witness realizes the minimum, and
    # it is the first tied pair in loop order
    (words, att, rpl, (best, witness)), = seen
    assert best == rpt.min_transversality
    flags = {w + s: Flag(*F) for w, a, r in zip(words, att, rpl)
             for s, F in (("+", a), ("-", r))}
    value = oracle_transversality(*(flags[w] for w in witness))
    assert abs(value - best) <= TIE_TOL * value
    assert witness == first_tied(anchor_pairs(words, att, rpl), best)
    assert "word length 5" in rpt.claim
    # moduli table is internally consistent
    assert np.all(np.diff(rpt.moduli, axis=1) <= 0)
    assert np.abs(np.prod(rpt.moduli, axis=1) - 1.0).max() < 1e-8


def test_scan_fuchsian_pair_passes_to_length_eight():
    rpt = anosov_scan(fuchsian_rep(), 8)
    assert rpt.obstruction is None
    assert len(rpt.words) == 13120
    assert rpt.min_gap > 0.6
    assert 0.0151 < rpt.min_transversality < 0.0153
    assert np.abs(np.prod(rpt.moduli, axis=1) - 1.0).max() < 1e-12


def test_scan_diagonal_su3_conjugate_passes():
    """Seed 704's first diagonal conjugate of the shipped Fuchsian file:
    its length-5 words once missed the fixed det and modulus-product
    gates by 1e-8."""
    a, b = 2.399153235626715, 5.454452311404331
    D = np.diag(np.exp(1j * np.array([a, b, -a - b])))
    rep = conjugated(load_generators(str(CONFIGS / "gens_fuchsian.json")), D)
    for length, count in ((5, 484), (8, 13120)):
        rpt = anosov_scan(rep, length)
        assert rpt.obstruction is None
        assert len(rpt.words) == count


def spy_passes(monkeypatch):
    """A list that records the word lengths of every _spectra call, one
    entry per word handed over."""
    passes, spectra = [], replib._spectra

    def recorded(X, length, decides):
        passes.append(np.broadcast_to(length, X.shape[-1:]).tolist())
        return spectra(X, length, decides)

    monkeypatch.setattr(replib, "_spectra", recorded)
    return passes


def spy_anchors(monkeypatch):
    """A list that records (words, attracting, repelling, (minimum,
    witness)) of every _anchor_transversality call: the anchors' flags
    and the witness, which the report does not keep."""
    calls, anchored = [], replib._anchor_transversality

    def recorded(words, attracting, repelling):
        out = anchored(words, attracting, repelling)
        calls.append((list(words), attracting, repelling, out))
        return out

    monkeypatch.setattr(replib, "_anchor_transversality", recorded)
    return calls


def test_scan_calls_neither_eig_nor_svd(monkeypatch):
    """Word spectra are closed-form: no eig, and no SVD beyond the one
    of the centralizer's stacked (18, 9) commutator system."""
    calls = {"eig": 0, "Flag": 0}
    svd_shapes = []
    eig, svd, init = np.linalg.eig, np.linalg.svd, Flag.__init__

    def counted_eig(a):
        calls["eig"] += 1
        return eig(a)

    def recorded_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["Flag"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(Flag, "__init__", counted_init)
    passes = spy_passes(monkeypatch)
    anchors = spy_anchors(monkeypatch)
    rpt = anosov_scan(fuchsian_rep(), 4)
    assert calls == {"eig": 0, "Flag": 0}
    # one _spectra call: 16 anchors and 19 classes of length 3 and 4
    assert passes == [[1] * 4 + [2] * 12 + [3] * 6 + [4] * 13]
    assert svd_shapes == [(18, 9)]
    assert len(rpt.words) == 160
    (words, *pair, _), = anchors
    assert words == list(rpt.words[:16])   # 4 + 12 words of length <= 2
    for flags in pair:
        assert isinstance(flags, np.ndarray) and flags.shape == (16, 2, 3)
        assert np.abs(np.linalg.norm(flags, axis=-1) - 1.0).max() < 1e-15
        lines, planes = flags[:, 0], flags[:, 1]
        assert np.abs(np.einsum("ni,ni->n", planes, lines)).max() < 1e-10


def test_scan_builds_flags_for_the_anchors_only(monkeypatch):
    """Only the transversality channel reads flags, and only the
    anchors': of the 484 words to length 5, the 16 of length <= 2 get
    unit flags, attracting and repelling in one call."""
    rows, unit = [], replib._unit_incident

    def recorded(lines, planes):
        rows.append((len(lines), len(planes)))
        return unit(lines, planes)

    monkeypatch.setattr(replib, "_unit_incident", recorded)
    rpt = anosov_scan(fuchsian_rep(), 5)
    assert len(rpt.words) == 484
    assert rows == [(2 * 16, 2 * 16)]


def anchor_pairs(words, attracting, repelling):
    """(label, label, oracle transversality) of the short-word flag
    pairs in the scan's loop order, projectively identical flags
    skipped."""
    anchors = [(w, Flag(*fa), Flag(*fr))
               for w, fa, fr in zip(words, attracting, repelling)]
    for i, (wi, ai, ri) in enumerate(anchors):
        for wj, aj, rj in anchors[i + 1:]:
            for si, Fi in (("+", ai), ("-", ri)):
                for sj, Fj in (("+", aj), ("-", rj)):
                    if (abs(np.vdot(Fi.line, Fj.line)) > 1 - 1e-8
                            and abs(np.vdot(Fi.plane, Fj.plane)) > 1 - 1e-8):
                        continue
                    yield wi + si, wj + sj, oracle_transversality(Fi, Fj)


def first_tied(pairs, best):
    """The first (label, label) in loop order whose value ties best."""
    return next((wi, wj) for wi, wj, v in pairs
                if v <= best * (1.0 + TIE_TOL))


def test_scan_transversality_matches_pairwise_oracle(monkeypatch):
    """Off the symmetric example the batched minimum and its witness
    agree with a pairwise loop over the determinant oracle.  Exact ties
    remain, since the sample is closed under inversion and a flag pair
    carries more than one label (a repelling flag of w is the attracting
    flag of w^-1), so the witness is the first tied pair in loop
    order."""
    rng = np.random.default_rng(5)

    def bump(M):
        M = irreducible_embed(M) + 1e-3 * rng.standard_normal((3, 3))
        return M / np.linalg.det(M) ** (1 / 3)

    seen = spy_anchors(monkeypatch)
    rpt = anosov_scan(Representation(
        {k: bump(M) for k, M in zip("ab", fuchsian_sl2())}), 3)
    (words, att, rpl, (_, witness)), = seen
    assert all(len(w) <= 2 for w in words) and len(words) == 16
    pairs = list(anchor_pairs(words, att, rpl))
    best = min(v for _, _, v in pairs)
    assert abs(rpt.min_transversality - best) < 1e-14
    assert witness == first_tied(pairs, best)


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


def test_reducible_conjugates_stop_where_the_shipped_file_stops():
    """The unipotent commutator abAB of the reducible pair has eigenvalue
    round-off of about eps^(1/3) ||M||; with the gap floor scaled to it,
    unitary conjugates stop on the same word as the shipped file."""
    shipped = load_generators(str(CONFIGS / "gens_reducible.json"))
    ref = anosov_scan(shipped, 5)
    assert ref.obstruction.startswith("word abAB is not loxodromic")
    assert len(ref.words) == 66
    rng = np.random.default_rng(17)
    for k in range(16):
        if k % 2:
            a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
            U = np.diag(np.exp(1j * np.array([a, b, -a - b])))
        else:
            U = random_su3(rng)
        rpt = anosov_scan(conjugated(shipped, U), 5)
        assert rpt.obstruction.split(":")[0] == ref.obstruction.split(":")[0]
        assert len(rpt.words) == len(ref.words)


# ----------------------------------------------------------------------
# passes of word lengths against one length at a time

def three_generator_rep():
    """Embedded hyperbolics of eigenvalue 6 whose axes through i are 60
    degrees apart, a Schottky group (configs/gens_schottky3.json holds
    the same three matrices).  Their words have moduli (|mu|^2, 1,
    |mu|^-2) with |mu| >= 6, so every gap is at least 35/36.  A scan of
    all words once stopped at the conjugate aabAA of b, whose norm
    1.07e7 put its gaps under the round-off floor; the class scan reads
    b's row for it."""
    def axis(t):
        R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        return irreducible_embed(R @ np.diag([6.0, 1.0 / 6.0]) @ R.T)
    return Representation({n: axis(k * np.pi / 6)
                           for k, n in enumerate("abc")})


def test_the_shipped_schottky_file_holds_the_three_generators():
    shipped = load_generators(str(CONFIGS / "gens_schottky3.json"))
    rep = three_generator_rep()
    assert shipped.names == rep.names
    for name in rep.names:
        assert np.array_equal(shipped.generators[name], rep.generators[name])


def level_planes(generators, max_len):
    """(length, labels, planes) per word length, in word_levels' order:
    (3, 3, 2, N) planes of each word and of its inverse, built from its
    parent's by mat3.matmul as a scan of one length at a time builds
    them (the word times its last letter, that letter's inverse times
    the inverse)."""
    spelled = [c for n in generators for c in (n, n.upper())]
    gens = mat3.planes(np.stack([M for n in generators for M in (
        generators[n], np.linalg.inv(generators[n]))]))
    index = {c: i for i, c in enumerate(spelled)}       # inverse: i ^ 1
    X, row = None, {}
    for length, labels, _ in word_levels(generators, max_len):
        last = np.array([index[w[-1]] for w in labels])
        if X is None:
            X = np.stack([gens, gens[:, :, last ^ 1]], axis=2)
        else:
            parent = np.array([row[w[:-1]] for w in labels])
            X = np.stack([
                mat3.matmul(X[:, :, 0, parent], gens[:, :, last]),
                mat3.matmul(gens[:, :, last ^ 1], X[:, :, 1, parent])],
                axis=2)
        row = {w: i for i, w in enumerate(labels)}
        yield length, labels, X


def per_word_spectra(rep, max_len):
    """Labels, moduli, gaps and anchor flags (attracting, repelling of
    the words of length <= 2) of every reduced word up to max_len, each
    from `_spectra` on the planes that a scan of one length at a time
    builds for it, in chunks of 4096 words with no word deciding a
    stop.  Below 8192 words `_spectra` is entrywise, so these are the
    bits that any pass under that size gives the word."""
    labels, moduli, gaps, flags = [], [], [], []
    for length, level, X in level_planes(rep.generators, max_len):
        for lo in range(0, len(level), 4096):
            m, g, _, vec, mid = replib._spectra(X[..., lo:lo + 4096],
                                                length, False)
            moduli.append(m)
            gaps.append(g)
            if length <= 2:
                flags.append(replib._flags(vec, mid, len(m)))
        labels += level
    return (labels, np.concatenate(moduli), np.concatenate(gaps),
            [np.concatenate(t) for t in zip(*flags)])


def class_rows(names, max_len):
    """(scan index of the representative, conjugate to its inverse) of
    every reduced word up to max_len, from the scan's class table."""
    row, inverse, handed, _ = replib._class_table(2 * len(names), max_len)
    return handed[row], inverse


@pytest.mark.parametrize("name", [
    "fuchsian", "reducible", "diagonal_su3", "three_generators"])
def test_passes_equal_one_length_at_a_time_bit_for_bit(monkeypatch, name):
    """Each class representative's row is the row that `_spectra` gives
    that word in a scan of one length at a time, bit for bit; every
    other word carries its class's row, reversed and inverted for a
    conjugate of the representative's inverse; min_gap is the least
    gap of the representatives, and the anchors' flags are their own.
    The three generators run to length 6, past the conjugate aabAA of
    b that a scan of every word stopped on."""
    longest = 6 if name == "three_generators" else 8
    if name == "three_generators":
        rep = three_generator_rep()
    elif name == "diagonal_su3":
        a, b = 2.399153235626715, 5.454452311404331
        rep = conjugated(load_generators(str(CONFIGS / "gens_fuchsian.json")),
                         np.diag(np.exp(1j * np.array([a, b, -a - b]))))
    else:
        rep = load_generators(str(CONFIGS / f"gens_{name}.json"))
    labels, moduli, gaps, flags = per_word_spectra(rep, longest)
    cls, inverse = class_rows(rep.names, longest)
    own = cls == np.arange(len(cls))
    want = moduli[cls]
    want[inverse] = 1.0 / want[inverse, ::-1]
    seen = spy_anchors(monkeypatch)
    for max_len in range(1, longest + 1):
        rpt = anosov_scan(rep, max_len)
        n = len(rpt.words)
        assert list(rpt.words) == labels[:n]
        assert np.array_equal(rpt.moduli, want[:n])
        assert rpt.min_gap == gaps[:n][own[:n]].min(initial=np.inf)
        anchors, *pair, _ = seen.pop()
        assert anchors == labels[:len(anchors)]
        assert len(anchors) == min(n, len(flags[0]))
        for got, ref in zip(pair, flags):
            assert np.array_equal(got, ref[:len(anchors)])
        if name == "reducible" and max_len >= 4:
            assert rpt.obstruction.startswith("word abAB is not loxodromic")
            assert n == 66
        else:
            assert n == sum(len(w) <= max_len for w in labels)
            assert rpt.obstruction is None or name == "reducible"
    if name == "three_generators":
        k, b = labels.index("aabAA"), labels.index("b")
        assert cls[k] == b and not inverse[k]
        assert np.array_equal(rpt.moduli[k], moduli[b])


def pass_planes(mats):
    """(3, 3, 2, N) planes of the matrices and of their inverses."""
    return mat3.planes(np.stack([np.stack([M, np.linalg.inv(M)])
                                 for M in mats]).swapaxes(0, 1))


def test_det_past_the_stop_is_not_reached():
    # the det of the length-3 word fails, but the pass stops at the
    # unipotent word of length 2: a scan of one length at a time never
    # multiplies out length 3
    H = irreducible_embed(np.diag([2.0, 0.5]))
    X = pass_planes([H, UNI, 1.01 * H])
    moduli, _, stop, vec, mid = replib._spectra(X, np.array([1, 2, 3]), True)
    alone = replib._spectra(X[..., :1], 1, True)
    assert stop == 1 and moduli.shape == (2, 3)
    assert np.array_equal(moduli[:1], alone[0])
    for got, want in zip(replib._flags(vec, mid, stop),
                         replib._flags(*alone[3:], 1)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("lead", [True, False],
                         ids=["second_length", "first_length"])
def test_det_before_the_stop_names_the_worst_word_of_its_length(lead):
    # both words of length 2 fail the det, 1.02 H the worse; the
    # unipotent word of length 3 after them is never reached
    H = irreducible_embed(np.diag([2.0, 0.5]))
    mats, lengths = [1.01 * H, 1.02 * H, UNI], [2, 2, 3]
    if lead:
        mats, lengths = [H] + mats, [1] + lengths
    with pytest.raises(NotUnimodular,
                       match=r"^det 1\.061208\+0j is not 1$"):
        replib._spectra(pass_planes(mats), np.array(lengths), True)


def test_only_deciding_words_stop_a_pass():
    # an anchor that is not its class's representative is handed over
    # for its flags: its own gaps do not stop the pass, its class's do
    H = irreducible_embed(np.diag([2.0, 0.5]))
    X = pass_planes([UNI, H])
    assert replib._spectra(X, 1, True)[2] == 0
    assert replib._spectra(X, 1, np.array([False, True]))[2] == 2


@pytest.mark.parametrize("name, max_len, passes", [
    ("fuchsian", 5, [(1, 2, 3, 4, 5)]),
    ("fuchsian", 8, [(1, 2, 3, 4, 5), (6,), (7,), (8,)]),
    ("reducible", 5, [(1, 2, 3, 4, 5)]),
    ("reducible", 8, [(1, 2, 3, 4, 5)])])
def test_scan_passes_on_the_shipped_files(monkeypatch, name, max_len,
                                          passes):
    """Whole lengths gather to SCAN_PASS_WORDS words a pass: 484 words
    to length 5 with two generators, then one length a pass.  The
    reducible pair stops at abAB, in its first pass."""
    assert replib.SCAN_PASS_WORDS == 256
    seen = spy_passes(monkeypatch)
    anosov_scan(load_generators(str(CONFIGS / f"gens_{name}.json")), max_len)
    assert [tuple(sorted(set(p))) for p in seen] == passes


@pytest.mark.parametrize("name, tables", [
    ("fuchsian", [5, 8]), ("reducible", [5])])
def test_scan_builds_classes_to_the_lengths_it_reaches(monkeypatch, name,
                                                      tables):
    """A scan builds the class table to its first pass's last length,
    and to --len only once it goes past that pass: the reducible pair
    stops at abAB in its first pass and builds no class of length 6 to
    8."""
    built, table = [], replib._class_table

    def recorded(letters, max_len):
        built.append(max_len)
        return table(letters, max_len)

    monkeypatch.setattr(replib, "_class_table", recorded)
    anosov_scan(load_generators(str(CONFIGS / f"gens_{name}.json")), 8)
    assert built == tables


@pytest.mark.parametrize("max_len, words, handed", [
    (5, 484, 61), (8, 13120, 703)])
def test_scan_hands_spectra_one_word_per_class(monkeypatch, max_len, words,
                                               handed):
    """_spectra sees the 16 anchors and one representative per class of
    length 3 and more: 45 classes to length 5, 687 to length 8."""
    seen = spy_passes(monkeypatch)
    rpt = anosov_scan(load_generators(str(CONFIGS / "gens_fuchsian.json")),
                      max_len)
    assert len(rpt.words) == words
    assert sum(len(p) for p in seen) == handed


@pytest.mark.parametrize("generators, max_len", [
    (1, 6), (2, 6), (3, 6), (26, 2)])
def test_class_table_matches_the_string_route(generators, max_len):
    names = "abcdefghijklmnopqrstuvwxyz"[:generators]
    words = oracles.reduced_words(names, max_len)
    index = {w: i for i, w in enumerate(words)}
    want = [oracles.class_representative(w, names) for w in words]
    cls, inverse = class_rows(names, max_len)
    assert cls.tolist() == [index[r] for r, _ in want]
    assert inverse.tolist() == [flip for _, flip in want]
    # a representative is cyclically reduced, represents itself, and no
    # member of its class comes before it
    for i in set(cls.tolist()):
        w = words[i]
        assert len(w) == 1 or w[0] != w[-1].swapcase()
        assert cls[i] == i and not inverse[i]
    assert np.all(cls <= np.arange(len(cls)))


@pytest.mark.parametrize("max_len, words", [(5, 4686), (6, 23436)])
def test_three_generator_scan_finds_no_obstruction(max_len, words):
    """Every word of the Schottky group has gaps of at least 35/36: the
    class scan reads them off the representatives, whose norms do not
    lift the round-off floor."""
    rpt = anosov_scan(three_generator_rep(), max_len)
    assert rpt.obstruction is None
    assert len(rpt.words) == words
    assert abs(rpt.min_gap - 35 / 36) < 1e-13


def test_fuchsian_min_gap_does_not_fall_with_length():
    """The least gap is the commutator abAB's: tr [A, B] = -337/144 =
    -(16/9 + 9/16), so its moduli ratio is (9/16)^2 and its gap
    1 - 81/256 = 175/256.  Its class representative has length 4 at
    every scan length, so length 8 reads the value of length 5."""
    rep = load_generators(str(CONFIGS / "gens_fuchsian.json"))
    short, long = anosov_scan(rep, 5), anosov_scan(rep, 8)
    assert abs(long.min_gap - short.min_gap) <= 1e-13
    assert abs(short.min_gap - 175 / 256) <= 1e-13


# ----------------------------------------------------------------------
# closed-form spectra against the eig oracle

UNI = np.array([[1.0, 1, 0], [0, 1, 1], [0, 0, 1]])


def word_levels(generators, max_len):
    """(length, labels, products) per word length: the reduced words in
    the scan's order, each level multiplied as one stacked product."""
    letters = [(n, e) for n in generators for e in (1, -1)]
    gens = np.stack([generators[n] if e > 0 else np.linalg.inv(generators[n])
                     for n, e in letters])
    spelled = [n.upper() if e < 0 else n for n, e in letters]
    labels, last, prods = spelled, list(range(len(letters))), gens
    for length in range(1, max_len + 1):
        if length > 1:
            pairs = [(i, t) for i, s in enumerate(last)
                     for t in range(len(letters))
                     if letters[t] != (letters[s][0], -letters[s][1])]
            parent, last = (list(x) for x in zip(*pairs))
            labels = [labels[i] + spelled[t] for i, t in pairs]
            prods = prods[parent] @ gens[last]
        yield length, labels, prods


def oracle_scan(rep, max_len):
    """Labels, moduli and flags of every word up to max_len from the eig
    oracle, and the (label, index) of its first non-loxodromic word."""
    labels, moduli, att, rpl, count = [], [], [], [], 0
    for length, level, prods in word_levels(rep.generators, max_len):
        m, _, stop, a, r = oracles.spectra_oracle(prods, length)
        labels += level[:stop]
        moduli.append(m[:stop])
        att.append(a)
        rpl.append(r)
        if stop < len(level):
            return labels, None, None, None, (level[stop], count + stop)
        count += stop
    return (labels, np.concatenate(moduli), np.concatenate(att),
            np.concatenate(rpl), None)


def sym2_moduli(A, B, max_len):
    """(|mu|^2, 1, |mu|^-2) for every word of the SL(2) pair, mu the
    larger eigenvalue of its 2x2 product."""
    out = []
    for _, _, W in word_levels({"a": A, "b": B}, max_len):
        t = np.trace(W, axis1=1, axis2=2).astype(complex)
        d = np.sqrt(t * t - 4.0)
        mu = np.maximum(np.abs(t + d), np.abs(t - d)) / 2.0
        out.append(np.stack([mu ** 2, np.ones_like(mu), mu ** -2], axis=1))
    return np.concatenate(out)


@pytest.mark.parametrize("conjugate", [False, True],
                         ids=["shipped", "diagonal_su3"])
def test_scan_moduli_and_flags_match_the_eig_oracle(monkeypatch, conjugate):
    """Against the exact symmetric-square moduli the closed form is no
    less accurate than eig, and the anchors' flags are eig's to 1e-12."""
    rep = load_generators(str(CONFIGS / "gens_fuchsian.json"))
    if conjugate:
        a, b = 2.399153235626715, 5.454452311404331
        rep = conjugated(rep, np.diag(np.exp(1j * np.array([a, b, -a - b]))))
    seen = spy_anchors(monkeypatch)
    for length in (5, 8):
        rpt = anosov_scan(rep, length)
        labels, moduli, att, rpl, stop = oracle_scan(rep, length)
        assert stop is None and list(rpt.words) == labels
        exact = sym2_moduli(*fuchsian_sl2(), length)
        assert (np.abs(rpt.moduli / exact - 1.0).max()
                <= np.abs(moduli / exact - 1.0).max())
        words, *pair, _ = seen.pop()
        assert words == labels[:16]
        for flags, ref in zip(pair, (att[:16], rpl[:16])):
            overlap = np.abs(np.einsum("wki,wki->wk", flags.conj(), ref))
            assert (1.0 - overlap).max() < 1e-12


def test_scan_stops_where_the_eig_oracle_stops():
    """The reducible pair and 49 unitary conjugates of it, a generator
    set with a parabolic, and the once-punctured torus pair (parabolic
    commutator abAB) stop on the oracle's word."""
    shipped = load_generators(str(CONFIGS / "gens_reducible.json"))
    rng = np.random.default_rng(23)
    reps = [shipped] + [conjugated(shipped, random_su3(rng))
                        for _ in range(49)]
    _, B = fuchsian_sl2()
    parabolic = irreducible_embed(np.array([[1.0, 1.0], [0.0, 1.0]]))
    reps.append(Representation({"a": irreducible_embed(B), "b": parabolic}))
    t = np.log(1.0 + np.sqrt(2.0))          # tr a = tr b = 2 sqrt(2)
    reps.append(Representation({
        "a": irreducible_embed(np.diag([np.exp(t), np.exp(-t)])),
        "b": irreducible_embed(np.array([[np.cosh(t), np.sinh(t)],
                                         [np.sinh(t), np.cosh(t)]]))}))
    for rep in reps:
        rpt = anosov_scan(rep, 5)
        *_, (word, index) = oracle_scan(rep, 5)
        assert rpt.obstruction.startswith(f"word {word} is not loxodromic")
        assert len(rpt.words) == index


@pytest.mark.parametrize("M", [
    np.eye(3), UNI, np.diag([2.0, 2.0, 0.25]),
    irreducible_embed(np.array([[np.cos(0.7), -np.sin(0.7)],
                                [np.sin(0.7), np.cos(0.7)]]))],
    ids=["identity", "jordan", "double_root", "rotation"])
def test_repeated_roots_raise_no_warning(M):
    _, B = fuchsian_sl2()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = loxodromy(M)
        rpt = anosov_scan(Representation({"a": M,
                                          "b": irreducible_embed(B)}), 2)
    assert not r.loxodromic
    want = (2.0, 2.0, 0.25) if M[2, 2] == 0.25 else (1.0, 1.0, 1.0)
    assert np.allclose(r.moduli, want, atol=1e-12)
    assert rpt.obstruction.startswith("word a is not loxodromic")


def test_moduli_are_sorted_near_a_triple_root():
    """Round-off scatters the three roots of a unipotent word; the
    reported moduli stay in descending order."""
    r = loxodromy(UNI)
    assert list(r.moduli) == sorted(r.moduli, reverse=True)
    rng = np.random.default_rng(2)
    for _ in range(20):
        G = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        m = loxodromy(G @ UNI @ np.linalg.inv(G)).moduli
        assert list(m) == sorted(m, reverse=True)
    rpt = anosov_scan(load_generators(str(CONFIGS / "gens_reducible.json")),
                      5)
    m = [float(x) for x in
         re.search(r"moduli \((.*)\)", rpt.obstruction).group(1).split(",")]
    assert rpt.obstruction.startswith("word abAB") and \
        m == sorted(m, reverse=True)


def test_unitary_conjugates_of_a_unipotent_are_not_loxodromic():
    """A round-off cluster has roots of condition near eps^(-2/3); a
    Rayleigh step there moves a root by about eps kappa ||M||, past the
    gap floor, so it must not be taken (these seeds made loxodromic
    words of a step gated only by COND_TOL)."""
    for seed in (41, 882, 2445):
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((3, 3))
                         + 1j * rng.standard_normal((3, 3)))[0]
        assert not loxodromy(U @ UNI @ np.linalg.inv(U)).loxodromic


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
    kw = dict(max_word_len=1, words=("a",), min_gap=0.5,
              min_transversality=1.0, centralizer_dim=1)
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


def test_centralizer_system_is_krons_bit_for_bit(monkeypatch):
    """The commutator system that the SVD sees is the stack of
    kron(I, g) - kron(g^T, I), to the sign of every zero."""
    seen, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    eye = np.eye(3)
    for rep in (fuchsian_rep(), reducible_rep(), three_generator_rep(),
                conjugated(fuchsian_rep(),
                           random_su3(np.random.default_rng(3))),
                load_generators(str(CONFIGS / "gens_reducible.json"))):
        centralizer_check(rep)
        want = np.vstack([np.kron(eye, g) - np.kron(g.T, eye)
                          for g in rep.generators.values()])
        got, = seen
        seen.clear()
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
    for part in dh.dz.values():
        assert np.abs(part[0, 1]).max() == 0.0
        assert np.abs(part[1, 0]).max() == 0.0
        assert np.abs(np.trace(part)).max() < 1e-12
        assert np.abs(part[1, 2]).max() > 0
    for part in dh.dzb.values():
        assert np.abs(part[0, 1]).max() == 0.0
        assert np.abs(part[1, 0]).max() == 0.0
        assert np.abs(part[0, 2]).max() > 0
