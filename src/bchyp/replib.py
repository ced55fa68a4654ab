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

from . import mat3
from ._frozen import Frozen
from .bicomplex import Bicomplex
from .chtau import Flag, _unit_incident, line_plane_det
from .connection import PARTS
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
COND_TOL = 1e12         # eigenvalue condition: defective beyond
DET_TOL = 1e-10         # det slack per generator, as in Representation
EPS = np.finfo(float).eps
DET_DRIFT = 4 * EPS     # det round-off per ||M||_F^3
TIE_TOL = 1e-12         # relative: transversality values this close tie
GAP_FLOOR = np.cbrt(EPS)   # times ||M||_F / |l1|
CENTRALIZER_TOL = 1e-8  # singular values below this span the centralizer


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


class Representation(Frozen):
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
        self._set(generators=gens)
        rels = []
        for w in (relations or []):
            tokens = parse_word(w) if isinstance(w, str) else tuple(w)
            R = self.evaluate(tokens)
            defect = np.abs(R - np.eye(3)).max()
            if defect > 1e-8:
                raise ValueError(
                    f"relation {word_str(tokens)} fails by {defect:.3e}")
            rels.append(tokens)
        self._set(relations=tuple(rels))

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


def _top_root(X):
    """Largest-modulus root of the characteristic polynomial
    l^3 - c1 l^2 + c2 l - c3 of planes X (3, 3, ...), from
    mat3.cubic_roots, with the trace c1 and the determinant c3."""
    c1 = X[0, 0] + X[1, 1] + X[2, 2]
    c2 = (X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0]
          + X[0, 0] * X[2, 2] - X[0, 2] * X[2, 0]
          + X[1, 1] * X[2, 2] - X[1, 2] * X[2, 1])
    c3 = mat3.det(X)
    roots = mat3.cubic_roots(c1, c2, c3)
    k = np.abs(roots).argmax(axis=0)[None]
    return np.take_along_axis(roots, k, axis=0)[0], c1, c3


def _adjugate_eigen(X, lam):
    """Eigenvector data of planes X (3, 3, ...) at approximate simple
    eigenvalues lam, from P = adj(X - lam I).

    At a simple eigenvalue P is rank one, P = p'(lam) v w / (w . v) for
    the right eigenvector v and left eigenvector w, so its largest
    column is v and its largest row w.  Returns those (3, ...) and the
    eigenvalue condition number kappa = ||P||_F / |tr P| =
    ||v|| ||w|| / |w . v|, infinite where tr P = 0 (at a repeated root
    P vanishes or is nilpotent).
    """
    B = X.copy()
    for i in range(3):
        B[i, i] -= lam
    P = mat3.adj(B)
    a2 = P.real ** 2 + P.imag ** 2
    cols, rows = a2.sum(axis=0), a2.sum(axis=1)
    v = np.take_along_axis(P, cols.argmax(axis=0)[None, None], axis=1)[:, 0]
    w = np.take_along_axis(P, rows.argmax(axis=0)[None, None], axis=0)[0]
    tr = np.abs(P[0, 0] + P[1, 1] + P[2, 2])
    kappa = np.divide(np.sqrt(cols.sum(axis=0)), tr,
                      out=np.full(tr.shape, np.inf), where=tr != 0)
    return v, w, kappa


def _spectra(X, length):
    """Loxodromy data of N words in closed form, from planes X
    (3, 3, 2, N) of the words X[:, :, 0] and of their inverses
    X[:, :, 1], each a product of `length` generators.

    l1 is the top root of the word's characteristic polynomial and
    l3 = 1 / (top root of the inverse's), each refined by one Rayleigh
    quotient w.X.v / (w.v) on the eigenvectors of `_adjugate_eigen`;
    l2 = tr - l1 - l3.  Taking l3 from the inverse keeps its relative
    accuracy, which the word's own polynomial loses to |l1|.  The
    quotient is taken only where its round-off, about eps kappa
    ||X||_F, is below GAP_TOL |l|: the roots of a unipotent word form a
    round-off cluster of condition near eps^(-2/3), where one quotient
    would move a root past the gap floor and fake a gap.

    Returns (moduli, gaps, stop, attracting, repelling): eigenvalue
    moduli, descending, over the cube root of their product; relative
    gaps; the index of the first word that is not loxodromic (N if
    none); and the flags of the words before it as (stop, 2, 3) arrays
    of unit rows [line, plane covector], attracting = (top eigenvector,
    span of top two) and repelling = the attracting flag of the
    inverse.  Both gaps must exceed GAP_TOL and the round-off floor
    GAP_FLOOR ||M||_F / |l1|, which rescaling leaves alone: a unipotent
    word's eigenvalues scatter by about eps^(1/3) ||M||.  Raises
    NotUnimodular for a word whose det is off one by more than
    length * DET_TOL + DET_DRIFT ||M||_F^3, and NotDiagonalizable when
    that first word has gaps above GAP_TOL but all three eigenvalues
    have condition kappa of COND_TOL or more.  A single large kappa
    does not count: a cluster root can land near a critical point of
    the polynomial, where tr adj vanishes and kappa means nothing.
    """
    top, c1, det = _top_root(X)
    M = X[:, :, 0]
    norms = np.sqrt((X.real ** 2 + X.imag ** 2).sum(axis=(0, 1)))
    fro = norms[0]
    drift = np.abs(det[0] - 1.0) / (length * DET_TOL + DET_DRIFT * fro ** 3)
    worst = int(np.argmax(drift))
    if not drift[worst] <= 1.0:
        raise NotUnimodular(f"det {det[0, worst]:.12g} is not 1")
    vec, w, kappa = _adjugate_eigen(X, top)
    Xv = mat3.matmul(X, vec[:, None])[:, 0]
    np.divide((w * Xv).sum(axis=0), (w * vec).sum(axis=0), out=top,
              where=EPS * kappa * norms < GAP_TOL * np.abs(top))
    l1, l3 = top[0], 1.0 / top[1]
    l2 = c1[0] - l1 - l3
    mid, _, kappa2 = _adjugate_eigen(M, l2)
    kappa = np.minimum(kappa.min(axis=0), kappa2)
    m = -np.sort(-np.abs(np.stack([l1, l2, l3], axis=-1)), axis=-1)
    moduli = m / np.cbrt(m.prod(axis=-1))[:, None]
    gaps = np.stack([(m[:, 0] - m[:, 1]) / m[:, 0],
                     (m[:, 1] - m[:, 2]) / m[:, 1]], axis=-1)
    low = gaps.min(axis=1)
    defective = (low > GAP_TOL) & ~(kappa < COND_TOL)
    floor = np.maximum(GAP_TOL, GAP_FLOOR * fro / m[:, 0])
    bad = np.flatnonzero(~(low > floor) | defective)
    stop = int(bad[0]) if bad.size else M.shape[-1]
    if stop < M.shape[-1] and defective[stop]:
        raise NotDiagonalizable(f"eigenvalue condition {kappa[stop]:.3e}")
    top, bottom = vec[:, 0, :stop].T, vec[:, 1, :stop].T
    mid = mid[:, :stop].T
    flags = np.stack(_unit_incident(
        np.concatenate([top, bottom]),
        np.concatenate([np.cross(top, mid), np.cross(bottom, mid)])), axis=1)
    return moduli, gaps, stop, flags[:stop], flags[stop:]


def loxodromy(M) -> LoxodromyReport:
    """Eigenvalue moduli, gap ratios, and fixed flags of one matrix: the
    one-word case of the scan's closed-form test (see `_spectra`), with
    the inverse from np.linalg.inv."""
    M = np.asarray(M, dtype=complex)
    X = mat3.planes(np.stack([M, np.linalg.inv(M)]))[..., None]
    moduli, gaps, stop, att, rpl = _spectra(X, 1)
    flags = (Flag(*att[0]), Flag(*rpl[0])) if stop else ()
    return LoxodromyReport(tuple(moduli[0]), tuple(gaps[0]), stop == 1,
                           *flags)


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
    attracting: np.ndarray          # (W, 2, 3) unit [line, plane]
    repelling: np.ndarray           # (W, 2, 3) unit [line, plane]
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


def _anchor_transversality(words, attracting, repelling):
    """Minimum flag transversality over the short-word sample.

    The anchors are the scanned words of length <= min(2, max_word_len);
    the sample is closed under inversion, so sweeping the four
    attracting/repelling combinations of each distinct pair covers
    every boundary-point pairing.  Combinations whose two flags are
    projectively identical are skipped (their vanishing is forced by
    the incidence line-in-plane, not by any degeneracy).  Every value
    comes from one matrix of pairings |plane . line|.

    A symmetric example ties whole orbits of pairs at the minimum, and
    which of them round-off puts lowest is arbitrary, so the witness is
    the first pair in loop order within a relative TIE_TOL of it.
    """
    flags = np.stack([attracting, repelling], axis=1)   # + before -
    lines = flags[:, :, 0].reshape(-1, 3)
    planes = flags[:, :, 1].reshape(-1, 3)
    pairing = np.abs(planes @ lines.T)       # [q, p] = |plane_q . line_p|
    trans = np.minimum(pairing, pairing.T)
    same = ((np.abs(lines.conj() @ lines.T) > 1.0 - FLAG_MATCH_TOL)
            & (np.abs(planes.conj() @ planes.T) > 1.0 - FLAG_MATCH_TOL))
    i, j = np.triu_indices(len(words), 1)
    p = (2 * i[:, None] + (0, 0, 1, 1)).ravel()       # anchor i, then
    q = (2 * j[:, None] + (0, 1, 0, 1)).ravel()       # j; + before -
    values = np.where(same[p, q], np.inf, trans[p, q])
    best = values.min() if values.size else np.inf
    if not np.isfinite(best):
        return np.inf, ("", "")
    k = np.flatnonzero(values <= best * (1.0 + TIE_TOL))[0]
    return float(best), tuple(words[f // 2] + "+-"[f % 2]
                              for f in (p[k], q[k]))


def anosov_scan(rep: Representation, max_word_len: int) -> AnosovReport:
    """Necessary Anosov conditions over all reduced words up to a length.

    Two channels.  (1) Loxodromy: every enumerated word must have three
    distinct eigenvalue moduli with relative gaps above GAP_TOL and
    above the round-off floor of the word (see `_spectra`).  Words are
    enumerated shortest first, with one batched product of the words and
    one of their inverses per word length and closed-form spectra; the
    scan stops at the first word that fails, reports it as the
    obstruction, and reports the words before it.  (2) Transversality:
    the minimum over the short-word sample (length <= 2) of flag-pair
    transversality, all four attracting/repelling combinations per pair,
    identical flags skipped.  Short words are used because their fixed
    flags stand for distinct boundary points; the flags of a deep
    conjugate w = x g x' are dragged toward the attractor of x, so a
    pairwise determinant against them shrinks like the fourth power of
    the contraction of x for *every* faithful discrete example, and says
    nothing about flag position.  A shared line or plane between
    distinct sample flags (the reducible degeneracy) drives the minimum
    to zero and is reported as an obstruction against TRANS_TOL.

    The report also carries the centralizer dimension and the per-word
    moduli/gap tables and (W, 2, 3) flag arrays of the scanned words.
    """
    if max_word_len < 1:
        raise ValueError("max_word_len must be at least 1")
    letters = [(n, e) for n in rep.names for e in (1, -1)]
    gens = mat3.planes(np.stack([g for g in rep.generators.values()
                                 for g in (g, np.linalg.inv(g))]))
    spelled = [word_str((t,)) for t in letters]
    sep = "" if all(len(n) == 1 for n in rep.names) else "."
    # letter t may follow s unless it cancels it (inverses: 2j, 2j + 1)
    follow = np.array([[t for t in range(len(letters)) if t != s ^ 1]
                       for s in range(len(letters))])
    last, level = np.arange(len(letters)), spelled
    mats = np.stack([gens, gens[:, :, last ^ 1]], axis=2)  # words, inverses
    words, moduli, gaps, attracting, repelling = [], [], [], [], []
    obstruction = None
    for length in range(1, max_word_len + 1):
        if length > 1:
            parent = np.repeat(np.arange(len(level)), follow.shape[1])
            last = follow[last].ravel()
            prev, mats = mats, np.empty((3, 3, 2, len(last)), complex)
            mat3.matmul(prev[:, :, 0, parent], gens[:, :, last],
                        out=mats[:, :, 0])
            mat3.matmul(gens[:, :, last ^ 1], prev[:, :, 1, parent],
                        out=mats[:, :, 1])
            level = [level[p] + sep + spelled[t]
                     for p, t in zip(parent.tolist(), last.tolist())]
        m, g, stop, att, rpl = _spectra(mats, length)
        words += level[:stop]
        moduli.append(m[:stop])
        gaps.append(g[:stop])
        attracting.append(att)
        repelling.append(rpl)
        if length <= 2:
            anchors = len(words)
        if stop < len(level):
            obstruction = (f"word {level[stop]} is not loxodromic: moduli "
                           f"({m[stop, 0]:.6g}, {m[stop, 1]:.6g}, "
                           f"{m[stop, 2]:.6g})")
            break
    attracting = np.concatenate(attracting)
    repelling = np.concatenate(repelling)
    min_t, witness = _anchor_transversality(
        words[:anchors], attracting[:anchors], repelling[:anchors])
    if obstruction is None and min_t < TRANS_TOL:
        obstruction = (f"flags of {witness[0]} and {witness[1]} are not "
                       f"transverse: {min_t:.3e}")
    gaps = np.concatenate(gaps)
    return AnosovReport(
        max_word_len=max_word_len,
        words=tuple(words),
        moduli=np.concatenate(moduli),
        gaps=gaps,
        attracting=attracting,
        repelling=repelling,
        min_gap=float(gaps.min()) if gaps.size else np.inf,
        min_transversality=min_t,
        witness_pair=witness,
        centralizer_dim=centralizer_check(rep),
        obstruction=obstruction,
    )


def centralizer_check(rep: Representation) -> int:
    """Dimension of {X : X g = g X for every generator g}, via the rank
    of the generators' 9x9 commutator systems taken together."""
    blocks = []
    eye = np.eye(3)
    for g in rep.generators.values():
        blocks.append(np.kron(eye, g) - np.kron(g.T, eye))
    sv = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return int(np.sum(sv < CENTRALIZER_TOL))


# ----------------------------------------------------------------------
# Goldman pairing of connection variations

@dataclass(frozen=True)
class VariationField:
    """A matrix-valued 1-form delta Omega = dz_part dz + dzb_part dzb,
    each part {"plus"/"minus": (3, 3, n, n) planes}."""

    dz: dict
    dzb: dict

    def __post_init__(self):
        if self.dz["plus"].shape != self.dzb["plus"].shape:
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
    Pz = np.zeros((3, 3, n, n), dtype=complex)
    Pzb = np.zeros((3, 3, n, n), dtype=complex)
    Pz[0, 1] = cz
    Pzb[1, 0] = czb
    # tau = e_plus - e_minus: the idempotent parts differ by sign
    return VariationField({"plus": Pz, "minus": -Pz},
                          {"plus": Pzb, "minus": -Pzb})


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
        for part in PARTS:
            M = np.zeros((3, 3, n, n), dtype=complex)
            t = smooth()
            M[0, 0] = t
            M[1, 1] = -t
            for ij in slots:
                M[ij] = smooth()
            out[part] = M
        return out

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
    if d1.dz["plus"].shape[-1] != n or d2.dz["plus"].shape[-1] != n:
        raise ValueError("variation fields do not match the metric grid")
    w = -2j * h.grid.spacing ** 2
    parts = []
    for part in PARTS:
        P1, R1 = d1.dz[part], d1.dzb[part]
        P2, R2 = d2.dz[part], d2.dzb[part]
        tr = np.einsum("ij...,ji...->...", P1, R2) \
            - np.einsum("ij...,ji...->...", R1, P2)
        parts.append(w * tr.sum())
    return Bicomplex.from_idempotent(parts[0], parts[1])
