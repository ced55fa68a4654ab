"""Representation-level diagnostics for SL(3) holonomy data.

The pieces: the irreducible (symmetric-square) embedding of SL(2) into
SL(3); loxodromy of individual matrices with their attracting/repelling
flags; transversality of flag pairs; a finite word-length scan over a
generated subgroup collecting the necessary Anosov-type conditions
(loxodromy of every word, transversality of fixed flags of distinct
words, trivial centralizer); and the pairing tr(d1 ^ d2) of
connection-variation 1-forms integrated over the torus.

The scan is a necessary-condition filter, not a certificate: its
strongest positive outcome is "no obstruction found up to length L".
Loxodromy is checked shortest first, to the first failure.  The transversality
minimum is taken over the short-word sample (length <= 2, closed under
inversion), whose fixed flags approximate distinct boundary points of
the group; a deep word w = x g x^-1 has flags dragged toward the
attractor of its prefix x, so pairwise determinants involving deep
words measure the contraction of x (fourth power of its singular
ratio) rather than any failure of flag position, and belong to the
loxodromy channel instead.  Two flags that coincide projectively are
skipped — a line always lies inside its own flag's plane, so that zero
is a tautology of incidence — while a *shared* line or plane between
distinct flags is exactly the reducible degeneracy the scan must
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bicomplex import Bicomplex
from .chtau import Flag, line_plane_det
from .connection import BcMat3Field
from .metric import ComplexMetric

__all__ = [
    "AnosovReport", "NotDiagonalizable", "NotUnimodular", "Representation",
    "VariationField", "anosov_scan", "centralizer_check", "goldman_pairing",
    "horizontal_pattern", "irreducible_embed", "loxodromy", "transversality",
    "vertical_variation",
]

GAP_TOL = 1e-6          # relative eigenvalue-modulus gap for loxodromy
TRANS_TOL = 1e-8        # transversality below this is an obstruction
FLAG_MATCH_TOL = 1e-8   # projective closeness that identifies two flags
COND_TOL = 1e12         # eigenvector-matrix condition: defective beyond
DET_TOL = 1e-10         # det slack per generator, as in Representation
DET_DRIFT = 4 * np.finfo(float).eps   # det round-off per ||M||_F^3
TIE_TOL = 1e-12         # relative: transversality values this close tie
GAP_FLOOR = np.cbrt(np.finfo(float).eps)   # times ||M||_F / |l1|


class NotUnimodular(ValueError):
    """Input matrix is not in SL within the stated tolerance."""


class NotDiagonalizable(ArithmeticError):
    """Eigenvector matrix is numerically defective."""


# ----------------------------------------------------------------------
# representation container

def parse_word(s: str):
    """Letters name generators, uppercase means inverse: "abA" etc."""
    return tuple((c.lower(), -1 if c.isupper() else 1) for c in s)


def word_str(tokens) -> str:
    out = []
    for name, e in tokens:
        if len(name) == 1 and name.islower():
            out.append(name.upper() if e < 0 else name)
        else:
            out.append(f"{name}^-1" if e < 0 else name)
    return "".join(out) if all(len(n) == 1 for n, _ in tokens) \
        else ".".join(out)


class Representation:
    """Named SL(3, C) generators with optional relation words."""

    __slots__ = ("generators", "relations")

    def __init__(self, generators: dict, relations=None):
        gens = {}
        for name, M in generators.items():
            M = np.asarray(M, dtype=complex)
            if M.shape != (3, 3):
                raise ValueError(f"generator {name!r} is not 3x3")
            d = np.linalg.det(M)
            if abs(d - 1.0) > 1e-10:
                raise NotUnimodular(
                    f"generator {name!r} has det {d:.12g}")
            gens[name] = M
        object.__setattr__(self, "generators", gens)
        rels = []
        for w in (relations or []):
            tokens = parse_word(w) if isinstance(w, str) else tuple(w)
            R = self.evaluate(tokens)
            defect = np.abs(R - np.eye(3)).max()
            if defect > 1e-8:
                raise ValueError(
                    f"relation {word_str(tokens)} fails by {defect:.3e}")
            rels.append(tokens)
        object.__setattr__(self, "relations", tuple(rels))

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    @property
    def names(self):
        return tuple(self.generators)

    def evaluate(self, tokens) -> np.ndarray:
        M = np.eye(3, dtype=complex)
        for name, e in tokens:
            g = self.generators[name]
            M = M @ (g if e > 0 else np.linalg.inv(g))
        return M


# ----------------------------------------------------------------------
# the irreducible embedding

def irreducible_embed(A) -> np.ndarray:
    """Symmetric-square action on the monomial basis (x^2, xy, y^2).

    With v = (x, y) and A acting as the usual matrix-vector product,
    the image satisfies iota(A) m(v) = m(A v) for the monomial vector
    m(v) = (x^2, xy, y^2); consequently iota(AB) = iota(A) iota(B) and
    det iota(A) = (det A)^3 = 1.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    d = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(d - 1.0) > 1e-12:
        raise NotUnimodular(f"det {d:.15g} is not 1")
    a, b, c, e = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
    return np.array([
        [a * a, 2 * a * b, b * b],
        [a * c, a * e + b * c, b * e],
        [c * c, 2 * c * e, e * e],
    ])


# ----------------------------------------------------------------------
# loxodromy and flags

@dataclass(frozen=True)
class LoxodromyReport:
    moduli: tuple          # (|l1|, |l2|, |l3|), descending
    gaps: tuple            # relative gaps ((m1-m2)/m1, (m2-m3)/m2)
    loxodromic: bool
    attracting: Flag | None = None
    repelling: Flag | None = None


def _spectra(M, length, gap_tol=GAP_TOL, cond_tol=COND_TOL):
    """Loxodromy data of N words M (N, 3, 3), each a product of `length`
    generators, from one batched eigendecomposition.

    Returns (moduli, gaps, stop, attracting, repelling): eigenvalue
    moduli, descending, over the cube root of the modulus of their
    product (the word's det); relative gaps; the index of the first
    word that is not loxodromic (N if none); and the flags of the words
    before it, attracting = (top eigenvector, span of top two) and
    repelling = the attracting flag of the inverse.  Both gaps must
    exceed gap_tol and the round-off floor GAP_FLOOR ||M||_F / |l1|,
    which rescaling leaves alone: a unipotent word's eigenvalues scatter
    by about eps^(1/3) ||M||.  Raises NotUnimodular for a det off one by
    more than length * DET_TOL + DET_DRIFT ||M||_F^3, and
    NotDiagonalizable when that first word has gaps above gap_tol but a
    numerically defective eigenvector matrix.
    """
    vals, vecs = np.linalg.eig(M)
    order = np.argsort(-np.abs(vals), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    det = vals.prod(axis=-1)
    fro = np.linalg.norm(M, axis=(1, 2))
    drift = np.abs(det - 1.0) / (length * DET_TOL + DET_DRIFT * fro ** 3)
    worst = int(np.argmax(drift))
    if not drift[worst] <= 1.0:
        raise NotUnimodular(f"det {det[worst]:.12g} is not 1")
    m = np.abs(vals)
    moduli = m / np.cbrt(np.abs(det))[:, None]
    gaps = np.stack([(m[:, 0] - m[:, 1]) / m[:, 0],
                     (m[:, 1] - m[:, 2]) / m[:, 1]], axis=-1)
    low = gaps.min(axis=1)
    sv = np.linalg.svd(vecs, compute_uv=False)
    defective = (low > gap_tol) & (sv[:, 0] > cond_tol * sv[:, 2])
    floor = np.maximum(gap_tol, GAP_FLOOR * fro / m[:, 0])
    bad = np.flatnonzero(~(low > floor) | defective)
    stop = int(bad[0]) if bad.size else len(M)
    if stop < len(M) and defective[stop]:
        raise NotDiagonalizable(f"eigenvector matrix condition "
                                f"{np.linalg.cond(vecs[stop]):.3e}")
    top, mid, bottom = (vecs[:stop, :, k] for k in range(3))
    return (moduli, gaps, stop,
            Flag.batch(top, np.cross(top, mid)),
            Flag.batch(bottom, np.cross(bottom, mid)))


def loxodromy(M, gap_tol: float = GAP_TOL,
              cond_tol: float = COND_TOL) -> LoxodromyReport:
    """Eigenvalue moduli, gap ratios, and fixed flags of one matrix: the
    one-word case of the scan's batched test (see `_spectra`)."""
    M = np.asarray(M, dtype=complex)
    moduli, gaps, stop, att, rpl = _spectra(M[None], 1, gap_tol, cond_tol)
    return LoxodromyReport(tuple(moduli[0]), tuple(gaps[0]), stop == 1,
                           *att, *rpl)


def transversality(F1: Flag, F2: Flag) -> float:
    """Min over both pairings of |det[line; plane basis]|, in closed form
    |plane . line| on unit vectors; 0 iff not transverse (a line falling
    inside the other plane)."""
    return min(line_plane_det(F1.line, F2.plane),
               line_plane_det(F2.line, F1.plane))


# ----------------------------------------------------------------------
# the word scan

@dataclass(frozen=True)
class AnosovReport:
    """Finite-length diagnostics; `claim` states the honest conclusion."""

    max_word_len: int
    words: tuple                    # word strings, enumeration order
    moduli: np.ndarray              # (W, 3) descending per word
    gaps: np.ndarray                # (W, 2) relative gaps
    attracting: tuple               # Flag per word
    repelling: tuple                # Flag per word
    min_gap: float
    min_transversality: float
    witness_pair: tuple             # words realizing the minimum
    centralizer_dim: int
    obstruction: str | None = None

    def __post_init__(self):
        m = np.asarray(self.moduli, dtype=float)
        if m.size:
            if np.any(np.diff(m, axis=1) > 1e-12):
                raise ValueError("per-word moduli must be sorted")
            prod = np.prod(m, axis=1)
            worst = np.abs(prod - 1.0).max()
            if worst > 1e-8:
                raise NotUnimodular(
                    f"eigenvalue-modulus product off unimodular by "
                    f"{worst:.3e}")

    @property
    def claim(self) -> str:
        if self.obstruction is not None:
            return self.obstruction
        return (f"no obstruction found up to word length "
                f"{self.max_word_len}")


def _determinants(lines, planes, p, q):
    """min over both pairings of |det[line; orthonormal basis of the
    other plane]|, the bases from one batched SVD of the covectors."""
    basis = np.linalg.svd(planes[:, None, :])[2][:, 1:, :]
    dets = [np.abs(np.linalg.det(np.concatenate([lines[a][:, None, :],
                                                 basis[b]], axis=1)))
            for a, b in ((p, q), (q, p))]
    return np.minimum(*dets)


def _anchor_transversality(words, attracting, repelling, flag_match_tol):
    """Minimum flag transversality over the short-word sample.

    The anchors are the scanned words of length <= min(2, max_word_len);
    the sample is closed under inversion, so sweeping the four
    attracting/repelling combinations of each distinct pair covers
    every boundary-point pairing.  Combinations whose two flags are
    projectively identical are skipped (their vanishing is forced by
    the incidence line-in-plane, not by any degeneracy).  Every value
    comes from one matrix of pairings |plane . line|.

    A symmetric example ties whole orbits of pairs at the minimum, so
    the witness is, among the pairs within a relative TIE_TOL of it,
    the one with the smallest determinant form (`_determinants`; the
    first in loop order on equal values): the pair the determinant
    route reported when it computed every value.
    """
    flags = [f for pair in zip(attracting, repelling) for f in pair]
    lines = np.array([f.line for f in flags]).reshape(-1, 3)
    planes = np.array([f.plane for f in flags]).reshape(-1, 3)
    pairing = np.abs(planes @ lines.T)       # [q, p] = |plane_q . line_p|
    trans = np.minimum(pairing, pairing.T)
    same = ((np.abs(lines.conj() @ lines.T) > 1.0 - flag_match_tol)
            & (np.abs(planes.conj() @ planes.T) > 1.0 - flag_match_tol))
    i, j = np.triu_indices(len(words), 1)
    p = (2 * i[:, None] + (0, 0, 1, 1)).ravel()       # anchor i, then
    q = (2 * j[:, None] + (0, 1, 0, 1)).ravel()       # j; + before -
    values = np.where(same[p, q], np.inf, trans[p, q])
    best = values.min() if values.size else np.inf
    if not np.isfinite(best):
        return np.inf, ("", "")
    tied = np.flatnonzero(values <= best * (1.0 + TIE_TOL))
    k = tied[np.argmin(_determinants(lines, planes, p[tied], q[tied]))]
    return float(best), tuple(words[f // 2] + "+-"[f % 2]
                              for f in (p[k], q[k]))


def anosov_scan(rep: Representation, max_word_len: int,
                gap_tol: float = GAP_TOL, trans_tol: float = TRANS_TOL,
                flag_match_tol: float = FLAG_MATCH_TOL) -> AnosovReport:
    """Necessary Anosov conditions over all reduced words up to a length.

    Two channels.  (1) Loxodromy: every enumerated word must have three
    distinct eigenvalue moduli with relative gaps above gap_tol and
    above the round-off floor of the word (see `_spectra`).  Words are
    enumerated shortest first, one batched product and one batched
    eigendecomposition per word length; the scan stops at the first
    word that fails, reports it as the obstruction, and reports the
    words before it.  (2) Transversality: the minimum over the
    short-word sample (length <= 2) of flag-pair transversality, all
    four attracting/repelling combinations per pair, identical flags
    skipped.  Short words are used because their fixed flags stand for
    distinct boundary points; the flags of a deep conjugate w = x g x'
    are dragged toward the attractor of x, so a pairwise determinant
    against them shrinks like the fourth power of the contraction of x
    for *every* faithful discrete example, and says nothing about flag
    position.  A shared line or plane between distinct sample flags
    (the reducible degeneracy) drives the minimum to zero and is
    reported as an obstruction against trans_tol.

    The report also carries the centralizer dimension and the per-word
    moduli/gap/flag tables of the scanned words.
    """
    if max_word_len < 1:
        raise ValueError("max_word_len must be at least 1")
    letters = [(n, e) for n in rep.names for e in (1, -1)]
    gens = np.stack([g for g in rep.generators.values()
                     for g in (g, np.linalg.inv(g))])
    spelled = [word_str((t,)) for t in letters]
    sep = "" if all(len(n) == 1 for n in rep.names) else "."
    # letter t may follow s unless it cancels it (inverses: 2j, 2j + 1)
    follow = np.array([[t for t in range(len(letters)) if t != s ^ 1]
                       for s in range(len(letters))])
    mats, last, level = gens, np.arange(len(letters)), spelled
    words, moduli, gaps, attracting, repelling = [], [], [], [], []
    obstruction = None
    for length in range(1, max_word_len + 1):
        if length > 1:
            parent = np.repeat(np.arange(len(level)), follow.shape[1])
            last = follow[last].ravel()
            mats = mats[parent] @ gens[last]
            level = [level[p] + sep + spelled[t]
                     for p, t in zip(parent.tolist(), last.tolist())]
        m, g, stop, att, rpl = _spectra(mats, length, gap_tol)
        words += level[:stop]
        moduli.append(m[:stop])
        gaps.append(g[:stop])
        attracting += att
        repelling += rpl
        if length <= 2:
            anchors = len(words)
        if stop < len(level):
            obstruction = (f"word {level[stop]} is not loxodromic: moduli "
                           f"({m[stop, 0]:.6g}, {m[stop, 1]:.6g}, "
                           f"{m[stop, 2]:.6g})")
            break
    min_t, witness = _anchor_transversality(
        words[:anchors], attracting[:anchors], repelling[:anchors],
        flag_match_tol)
    if obstruction is None and min_t < trans_tol:
        obstruction = (f"flags of {witness[0]} and {witness[1]} are not "
                       f"transverse: {min_t:.3e}")
    gaps = np.concatenate(gaps)
    return AnosovReport(
        max_word_len=max_word_len,
        words=tuple(words),
        moduli=np.concatenate(moduli),
        gaps=gaps,
        attracting=tuple(attracting),
        repelling=tuple(repelling),
        min_gap=float(gaps.min()) if gaps.size else np.inf,
        min_transversality=min_t,
        witness_pair=witness,
        centralizer_dim=centralizer_check(rep),
        obstruction=obstruction,
    )


def centralizer_check(rep: Representation, sv_tol: float = 1e-8) -> int:
    """Dimension of {X : X g = g X for every generator g}, via the rank
    of the stacked 9x9 commutator systems."""
    blocks = []
    eye = np.eye(3)
    for g in rep.generators.values():
        blocks.append(np.kron(eye, g) - np.kron(g.T, eye))
    sv = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return int(np.sum(sv < sv_tol))


# ----------------------------------------------------------------------
# Goldman pairing of connection variations

@dataclass(frozen=True)
class VariationField:
    """A matrix-valued 1-form delta Omega = dz_part dz + dzb_part dzb."""

    dz: BcMat3Field
    dzb: BcMat3Field

    def __post_init__(self):
        if self.dz.plus.shape != self.dzb.plus.shape:
            raise ValueError("dz and dzb parts live on different grids")


def vertical_variation(qdot1, qbardot2, h: ComplexMetric) -> VariationField:
    """First-order connection change along a cubic-datum variation
    (qdot1, qbardot2) at a point with this background metric: the only
    entries are -(tau/s^2) qdot1 at (1,2) in dz and -(tau/s^2) qbardot2
    at (2,1) in dzb."""
    grid = h.grid
    n = grid.n
    s2 = h.s2
    cz = -grid.field(qdot1) / s2
    czb = -grid.field(qbardot2) / s2
    Pz = np.zeros((n, n, 3, 3), dtype=complex)
    Pzb = np.zeros((n, n, 3, 3), dtype=complex)
    Pz[..., 0, 1] = cz
    Pzb[..., 1, 0] = czb
    # tau = e_plus - e_minus: the idempotent parts differ by sign
    return VariationField(BcMat3Field(Pz, -Pz), BcMat3Field(Pzb, -Pzb))


def horizontal_pattern(h: ComplexMetric, seed: int = 0) -> VariationField:
    """A representative complex-structure variation at a zero-cubic
    point: smooth random fields in the block pattern

        dz : [[*,0,0],[0,*,*],[*,0,0]]   dzb: [[*,0,*],[0,*,0],[0,*,0]]

    with the two diagonal slots opposite so each part is traceless.
    Every field of this shape pairs to zero with every vertical
    variation pointwise."""
    grid = h.grid
    n = grid.n
    rng = np.random.default_rng(seed)

    def smooth():
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        tx, ty = 2 * np.pi * grid.x, 2 * np.pi * grid.y
        return (a[0] + a[1] * np.sin(tx) + a[2] * np.cos(ty)
                + a[3] * np.sin(tx + ty))

    def masked(slots):
        out = {}
        for part in ("p", "m"):
            M = np.zeros((n, n, 3, 3), dtype=complex)
            t = smooth()
            M[..., 0, 0] = t
            M[..., 1, 1] = -t
            for (i, j) in slots:
                M[..., i, j] = smooth()
            out[part] = M
        return BcMat3Field(out["p"], out["m"])

    return VariationField(masked([(1, 2), (2, 0)]),
                          masked([(0, 2), (2, 1)]))


def goldman_pairing(d1: VariationField, d2: VariationField,
                    h: ComplexMetric) -> Bicomplex:
    """Quadrature of tr(d1 ^ d2) over the torus.

    (P1 dz + R1 dzb) ^ (P2 dz + R2 dzb) = (P1 P2 - R1 P2)... reduces to
    tr(P1 R2 - R1 P2) dz ^ dzb with dz ^ dzb = -2i dx ^ dy, summed per
    idempotent part; exactly antisymmetric under d1 <-> d2.
    """
    n = h.grid.n
    if d1.dz.plus.shape[0] != n or d2.dz.plus.shape[0] != n:
        raise ValueError("variation fields do not match the metric grid")
    w = -2j * h.grid.spacing ** 2
    parts = []
    for part in ("plus", "minus"):
        P1, R1 = getattr(d1.dz, part), getattr(d1.dzb, part)
        P2, R2 = getattr(d2.dz, part), getattr(d2.dzb, part)
        tr = np.einsum("...ij,...ji->...", P1, R2) \
            - np.einsum("...ij,...ji->...", R1, P2)
        parts.append(w * tr.sum())
    return Bicomplex.from_idempotent(parts[0], parts[1])
