"""Representation-level diagnostics for SL(3) holonomy data.

The pieces: a container of SL(3, C) generators, each named by one
lowercase letter; the irreducible (symmetric-square) embedding of
SL(2) into SL(3); loxodromy of individual matrices with their
attracting/repelling flags; transversality of flag pairs; a finite
word-length scan over a generated subgroup collecting the necessary
Anosov-type conditions (loxodromy of every word, transversality of
fixed flags of distinct words, trivial centralizer), which spells a
word letter by letter with upper case for an inverse, "abA" for
a b a^-1; and the pairing tr(d1 ^ d2) of connection-variation 1-forms
integrated over the torus.

The scan is a necessary-condition filter, not a certificate: its
strongest positive outcome is "no obstruction found up to length L".
Loxodromy is checked shortest first, to the first failure, on one word
per conjugacy class: eigenvalue moduli are class functions, and the
cyclically reduced representative of a class is never longer than its
members, so it carries no conjugator's norm into the round-off floor.
Every scanned word reports the moduli of its class.  The transversality
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

Only those anchors get flags: the scan builds the attracting and
repelling flags of the words of length <= 2 and of no other word, and
takes spectra of the class representatives and the anchors only.  Its
report keeps the scanned words and their moduli, the least gap of the
representatives and the least transversality, the centralizer
dimension and the obstruction, whose text names the witness pair of a
flag failure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import mat3
from ._frozen import Frozen
from .bicomplex import Bicomplex
from .chtau import Flag, _unit_incident, line_plane_det
from .connection import PARTS, Unrepresentable
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
DET_TOL = 1e-10         # det slack per generator, and per letter of a word
EPS = np.finfo(float).eps
DET_DRIFT = 4 * EPS     # det round-off per ||M||_F^3 (LU: ||M|| ||adj M||)
TIE_TOL = 1e-12         # relative: transversality values this close tie
GAP_FLOOR = np.cbrt(EPS)   # times ||M||_F / |l1|
CENTRALIZER_TOL = 1e-8  # singular values below this span the centralizer

#: Words that anosov_scan multiplies out a pass at a time, at least: a
#: pass takes whole word lengths until it holds this many, and hands
#: `_spectra` their class representatives and anchors.  A `_spectra`
#: call costs about 0.36 ms at any size plus 1.2 to 1.6 us per word
#: (2-core x86-64 Xeon, NumPy 2.4).  A pass much larger than this
#: multiplies out more words past an early stop than it saves in calls.
#: A pass of several lengths holds at most 2704 words (26 generators:
#: 52 + 2652 anchors), under the 8192 where `_spectra`'s bits start to
#: depend on the batch; one length alone hands it 8192 classes only far
#: out (two generators: 22 185 at length 12).
SCAN_PASS_WORDS = 256


class NotUnimodular(ValueError):
    """Input matrix is not in SL within the stated tolerance."""


class NotDiagonalizable(ArithmeticError):
    """Eigenvector matrix is numerically defective."""


# ----------------------------------------------------------------------
# representation container

class Representation(Frozen):
    """Named SL(3, C) generators.  Each name is one lowercase ASCII
    letter, so the scan spells a word letter by letter, with upper case
    for an inverse.  A generator's det, from LU, must be one within
    DET_TOL and its first-order round-off, DET_DRIFT ||M||_F ||adj M||_F;
    a generator for which either is not finite is refused, as its det
    cannot be checked."""

    __slots__ = ("generators",)

    def __init__(self, generators: dict):
        gens = {}
        for name, M in generators.items():
            if not (isinstance(name, str) and len(name) == 1
                    and "a" <= name <= "z"):
                raise ValueError(f"generator name {name!r} is not one "
                                 f"lowercase ASCII letter")
            M = np.asarray(M, dtype=complex)
            if M.shape != (3, 3):
                raise ValueError(f"generator {name!r} is not 3x3")
            with np.errstate(over="ignore", invalid="ignore"):
                d = np.linalg.det(M)
                slack = DET_TOL + DET_DRIFT * (np.linalg.norm(M)
                                               * np.linalg.norm(mat3.adj(M)))
            if not (np.isfinite(d) and np.isfinite(slack)):
                raise NotUnimodular(f"generator {name!r} is not finite or "
                                    f"too large to check its det")
            if not abs(d - 1.0) <= slack:
                raise NotUnimodular(f"generator {name!r} has det {d:.12g}")
            gens[name] = M
        self._set(generators=gens)

    @property
    def names(self):
        return tuple(self.generators)


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


def _spectra(X, length, decides):
    """Loxodromy data of N words in closed form, from planes X
    (3, 3, 2, N) of the words X[:, :, 0] and of their inverses
    X[:, :, 1]; word i is a product of length[i] generators, `length`
    an int for all N or an (N,) array, ascending (a scan pass of
    consecutive word lengths).  `decides`, True or an (N,) bool array,
    marks the words whose gaps decide the stop: the scan hands over
    class representatives, which decide, and the short anchors, which
    are there for their flags.

    l1 is the top root of the word's characteristic polynomial and
    l3 = 1 / (top root of the inverse's), each refined by one Rayleigh
    quotient w.X.v / (w.v) on the eigenvectors of `_adjugate_eigen`;
    l2 = tr - l1 - l3.  Taking l3 from the inverse keeps its relative
    accuracy, which the word's own polynomial loses to |l1|.  The
    quotient is taken only where its round-off, about eps kappa
    ||X||_F, is below GAP_TOL |l|: the roots of a unipotent word form a
    round-off cluster of condition near eps^(-2/3), where one quotient
    would move a root past the gap floor and fake a gap.

    Returns (moduli, gaps, stop, vec, mid): eigenvalue moduli,
    descending, over the cube root of their product; relative gaps; the
    index of the first deciding word that is not loxodromic (N if
    none); and the eigenvector planes of the words, (3, 2, N') for the
    top eigenvectors of the words and of their inverses and (3, N') for
    the middle ones, from which `_flags` builds the flags of the words
    before the stop (N' is N, or less where the det gate cut the pass).
    Both gaps must exceed GAP_TOL and the round-off floor
    GAP_FLOOR ||M||_F / |l1|, which rescaling leaves alone: a unipotent
    word's eigenvalues scatter by about eps^(1/3) ||M||.

    A word's det, in closed form, may be off one by length * DET_TOL +
    DET_DRIFT ||M||_F^3.  The first length with a word off by more is cut off
    before any eigen work, and NotUnimodular names its worst word
    unless a deciding word of an earlier length is not loxodromic: a
    scan of one length at a time stops at that word and never reaches
    the det.
    Every other value is entrywise, so a pass gives each word the bits
    that a call on its length alone gives, up to 8192 words: from 256
    KiB on, NumPy computes a product with a temporary operand in place,
    and its in-place complex product rounds differently.

    Raises NotDiagonalizable when the first deciding word that is not
    loxodromic has gaps above GAP_TOL but all three eigenvalues have
    condition kappa of COND_TOL or more.  A single large kappa does not
    count: a cluster root can land near a critical point of the
    polynomial, where tr adj vanishes and kappa means nothing.
    """
    top, c1, det = _top_root(X)
    norms = np.sqrt((X.real ** 2 + X.imag ** 2).sum(axis=(0, 1)))
    length = np.broadcast_to(length, det[0].shape)
    decides = np.broadcast_to(decides, det[0].shape)
    drift = np.abs(det[0] - 1.0) / (length * DET_TOL
                                    + DET_DRIFT * norms[0] ** 3)
    failed = np.flatnonzero(~(drift <= 1.0))
    unimodular = None
    if failed.size:
        level = np.flatnonzero(length == length[failed[0]])
        worst = level[np.argmax(drift[level])]
        unimodular = NotUnimodular(f"det {det[0, worst]:.12g} is not 1")
        cut = level[0]
        if not cut:
            raise unimodular
        X, top, c1 = X[..., :cut], top[:, :cut], c1[:, :cut]
        norms, decides = norms[:, :cut], decides[:cut]
    M = X[:, :, 0]
    fro = norms[0]
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
    bad = np.flatnonzero((~(low > floor) | defective) & decides)
    stop = int(bad[0]) if bad.size else M.shape[-1]
    if stop < M.shape[-1] and defective[stop]:
        raise NotDiagonalizable(f"eigenvalue condition {kappa[stop]:.3e}")
    if stop == M.shape[-1] and unimodular is not None:
        raise unimodular
    return moduli, gaps, stop, vec, mid


def _flags(vec, mid, k):
    """(attracting, repelling) flags of the first k words of a `_spectra`
    pass, from its eigenvector planes, as (k, 2, 3) arrays of unit rows
    [line, plane covector]: attracting = (top eigenvector, span of top
    two), repelling = the attracting flag of the inverse."""
    top, bottom, mid = vec[:, 0, :k].T, vec[:, 1, :k].T, mid[:, :k].T
    flags = np.stack(_unit_incident(
        np.concatenate([top, bottom]),
        np.concatenate([np.cross(top, mid), np.cross(bottom, mid)])), axis=1)
    return flags[:k], flags[k:]


def loxodromy(M) -> LoxodromyReport:
    """Eigenvalue moduli, gap ratios, and fixed flags of one matrix: the
    one-word case of the scan's closed-form test (see `_spectra`), with
    the inverse from np.linalg.inv."""
    M = np.asarray(M, dtype=complex)
    X = mat3.planes(np.stack([M, np.linalg.inv(M)]))[..., None]
    moduli, gaps, stop, vec, mid = _spectra(X, 1, True)
    flags = [Flag(*F[0]) for F in _flags(vec, mid, 1)] if stop else []
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
    """Finite-length diagnostics; `claim` states the honest conclusion.
    The witness of min_transversality is named in the obstruction that
    it raises."""

    max_word_len: int
    words: tuple                    # word strings, enumeration order
    moduli: np.ndarray              # (W, 3) descending per word
    min_gap: float
    min_transversality: float
    centralizer_dim: int
    obstruction: str | None

    def __post_init__(self):
        m = np.asarray(self.moduli, dtype=float)
        if m.size:
            if not np.all(np.isfinite(m)):
                raise ValueError("per-word moduli must be finite")
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


def _longest_coded(letters: int) -> int:
    """The longest word length whose `_class_table` codes fit an int64.
    The codes count every string of up to that many letters, so their
    count letters + letters^2 + ... must not pass 2^63: length 62 for
    one generator.  With two or more, memory runs out first."""
    length, count = 0, 0
    while count + letters ** (length + 1) <= 2 ** 63:
        length += 1
        count += letters ** length
    return length


@functools.cache
def _class_table(letters: int, max_len: int):
    """The conjugacy classes of the reduced words up to max_len in
    `letters` letters (letters 2j and 2j + 1 are a generator and its
    inverse).

    Words are in scan order: shortest first, and within a length
    lexicographic in the letter indices.  The class of a word is
    represented by its cyclically reduced core, the word with its end
    pairs x ... x^-1 stripped, taken at the earliest in scan order of
    the rotations of that core and of its inverse, all of the core's
    length (Lyndon & Schupp, Combinatorial Group Theory, ch. I).  So no
    member of a class comes before its representative.  A rotation of
    the core never equals one of its inverse: in a free group only 1 is
    conjugate to its inverse.  A word is coded as an int64 in base
    `letters`, first letter highest, so a stripped end, a rotation and
    the code of a core's inverse are modular arithmetic on codes; the
    codes of the shorter lengths are counted in, so codes ascend in
    scan order and np.searchsorted finds a code's scan index.  All
    lengths are done at once: every core turns max_len - 1 times, at
    least once through each of its rotations.

    The table depends only on (letters, max_len), so it is cached for
    the process.  That pays when one process scans many representations
    at one letter count and length, as a sweep over a family of them
    does; a `rep anosov` command scans once and builds it.  For four
    letters it takes about 0.18 ms at length 5 and 3.2 ms at length 8
    (2-core x86-64, NumPy 2.4), against 0.33 ms and 14.6 ms for the
    spectra of the words that it spares.

    The scan hands `_spectra` the representatives and the anchors (the
    words of length <= 2, which carry the transversality channel's
    flags).  Returns (row, inverse, handed, levels), read-only:
      row: (W,) for each word, the index among the handed words of its
        representative;
      inverse: (W,) bool, the word is conjugate to its representative's
        inverse;
      handed: (H,) ascending scan indices of the handed words;
      levels: per length, (digits, hand): the letter indices
        (N, length) of its words, and the positions of its handed words
        among them.
    """
    follow = np.array([[t for t in range(letters) if t != s ^ 1]
                       for s in range(letters)])
    power = letters ** np.arange(max_len + 1, dtype=np.int64)
    # per length: digits, and the codes of the words and their inverses
    digits = [np.arange(letters)[:, None]]
    code = [np.arange(letters, dtype=np.int64)]
    back = [code[0] ^ 1]
    for length in range(2, max_len + 1):
        parent = np.arange(len(code[-1])).repeat(letters - 1)
        last = follow[digits[-1][:, -1]].ravel()
        digits.append(np.column_stack([digits[-1][parent], last]))
        code.append(code[-1][parent] * letters + last)
        back.append((last ^ 1) * power[length - 1] + back[-1][parent])
    sizes = [len(c) for c in code]
    n = np.arange(1, max_len + 1).repeat(sizes)
    code, back = np.concatenate(code), np.concatenate(back)
    # the codes of length k start after the sum of letters^j, j < k
    shift = (power - letters) // (letters - 1)
    key = code + shift[n]
    # strip the end pairs x ... x^-1; a core of one letter has the same
    # letter at both ends, so it is never stripped and k stays >= 1
    k = n
    for _ in range(max_len // 2):
        head, rest = np.divmod(code, power[k - 1])
        ends = head == code % letters ^ 1
        code = np.where(ends, rest // letters, code)
        k = k - 2 * ends
    cores = np.stack([code, back // power[(n - k) // 2] % power[k]])
    best, top = cores.copy(), power[k - 1]
    for _ in range(max_len - 1):              # a core of length k cycles
        head, rest = np.divmod(cores, top)
        cores = rest * letters + head
        np.minimum(best, cores, out=best)
    inverse = best[1] < best[0]
    rep = np.searchsorted(key, best.min(axis=0) + shift[k])
    mask = rep == np.arange(len(rep))
    mask[:sum(sizes[:2])] = True
    rank = np.cumsum(mask) - 1
    start = np.cumsum([0] + sizes)
    levels = tuple((d, np.flatnonzero(mask[start[i]:start[i + 1]]))
                   for i, d in enumerate(digits))
    out = (rank[rep], inverse, np.flatnonzero(mask), levels)
    for a in (*out[:3], *(x for level in levels for x in level)):
        a.setflags(write=False)
    return out


def anosov_scan(rep: Representation, max_word_len: int) -> AnosovReport:
    """Necessary Anosov conditions over all reduced words up to a length.

    Two channels.  (1) Loxodromy: every enumerated word must have three
    distinct eigenvalue moduli with relative gaps above GAP_TOL and
    above the round-off floor of the word (see `_spectra`).  Eigenvalue
    moduli are class functions, so the scan takes the spectra of one
    word per conjugacy class, its cyclically reduced representative
    (`_class_table`), and gives every word the row of its class, with
    the moduli reversed and inverted for a word conjugate to the
    representative's inverse.  A representative is never longer than
    the words of its class, so its product carries no conjugator's
    norm into the round-off floor.  Words are enumerated shortest
    first and multiplied out one batched product per word length, each
    built from the length before, in passes of consecutive lengths,
    each pass the next lengths up to at least SCAN_PASS_WORDS words (or
    the last length); a pass hands `_spectra` its representatives and
    anchors, so short lengths share one call and a stop wastes at most
    a pass.  The scan stops at the first word whose class fails, which is
    that class's representative, reports it as the obstruction, and
    reports the words before it; `min_gap` is the least gap of the
    representatives before it.  (2) Transversality:
    the minimum over the short-word sample (length <= 2) of flag-pair
    transversality, all four attracting/repelling combinations per pair,
    identical flags skipped.  Short words are used because their fixed
    flags stand for distinct boundary points; the flags of a deep
    conjugate w = x g x' are dragged toward the attractor of x, so a
    pairwise determinant against them shrinks like the fourth power of
    the contraction of x for *every* faithful discrete example, and says
    nothing about flag position.  A shared line or plane between
    distinct sample flags (the reducible degeneracy) drives the minimum
    to zero and is reported as an obstruction against TRANS_TOL.  Each
    anchor gets its own spectrum for its flags; its gaps do not decide
    loxodromy, its class's do.

    The report also carries the centralizer dimension and the per-word
    moduli of the scanned words.  Flags are built for the anchors only
    (`_flags`), the only flags that the transversality channel reads.

    Overflow and invalid values raise: a word past the float range
    raises Unrepresentable, not a NaN verdict, and so does a length past
    `_longest_coded`, before any word is built.
    """
    if max_word_len < 1:
        raise ValueError("max_word_len must be at least 1")
    longest = _longest_coded(2 * len(rep.generators))
    if max_word_len > longest:
        raise Unrepresentable(
            f"words of length {max_word_len} leave the scan's int64 codes, "
            f"which reach length {longest} with {len(rep.generators)} "
            f"generator(s)")
    with np.errstate(over="raise", invalid="raise"):
        try:
            return _scan(rep, max_word_len)
        except FloatingPointError as e:
            raise Unrepresentable(
                f"the word scan leaves the float range: {e}") from None


def _scan(rep: Representation, max_word_len: int) -> AnosovReport:
    """anosov_scan under its floating-point state."""
    gens = mat3.planes(np.stack([g for g in rep.generators.values()
                                 for g in (g, np.linalg.inv(g))]))
    spelled = np.array([c for n in rep.names for c in (n, n.upper())])
    letters = len(spelled)
    # the classes to the first pass's last length, and the rest only
    # past it: a scan that stops in its first pass reads no more
    reach, size = 1, letters
    while size < SCAN_PASS_WORDS and reach < max_word_len:
        size += letters * (letters - 1) ** reach
        reach += 1
    row, inverse, handed, levels = _class_table(letters, reach)
    anchors = sum(len(level[0]) for level in levels[:2])
    rows, min_gap, anchor_flags, stopped = [], np.inf, None, None
    first, batch, lengths, size = 0, [], [], 0  # the pass being gathered
    for length in range(1, max_word_len + 1):
        if length > len(levels):
            row, inverse, handed, levels = _class_table(letters,
                                                        max_word_len)
        digits, hand = levels[length - 1]
        last = digits[:, -1]
        if length == 1:
            mats = np.stack([gens, gens[:, :, last ^ 1]], axis=2)
        else:
            parent = np.arange(len(last)) // (letters - 1)
            prev, mats = mats, np.empty((3, 3, 2, len(last)), complex)
            mat3.matmul(prev[:, :, 0, parent], gens[:, :, last],
                        out=mats[:, :, 0])
            mat3.matmul(gens[:, :, last ^ 1], prev[:, :, 1, parent],
                        out=mats[:, :, 1])
        batch.append(mats[..., hand])
        lengths += [length] * len(hand)
        size += len(digits)
        if size < SCAN_PASS_WORDS and length < max_word_len:
            continue
        X = np.concatenate(batch, axis=-1) if len(batch) > 1 else batch[0]
        end = first + len(lengths)
        decides = row[handed[first:end]] == np.arange(first, end)
        m, g, stop, vec, mid = _spectra(X, np.array(lengths), decides)
        rows.append(m[:stop])
        min_gap = min(min_gap, float(
            g[:stop][decides[:stop]].min(initial=np.inf)))
        if anchor_flags is None:
            # 26 generators make at most 52 words of length 1, fewer
            # than SCAN_PASS_WORDS, so the first pass holds every anchor
            anchors = min(anchors, stop)
            anchor_flags = _flags(vec, mid, anchors)
        if stop < len(lengths):
            stopped = m[stop]
            first += stop
            break
        first, batch, lengths, size = end, [], [], 0
    count = len(row) if stopped is None else int(handed[first])
    labels, left = [], count + (stopped is not None)
    for length, (digits, _) in enumerate(levels, 1):
        if left <= 0:
            break
        labels += spelled[digits[:left]].view(f"<U{length}").ravel().tolist()
        left -= len(digits)
    words = labels[:count]
    moduli = np.concatenate(rows)[row[:count]]
    flip = inverse[:count]
    moduli[flip] = 1.0 / moduli[flip, ::-1]
    obstruction = None if stopped is None else (
        f"word {labels[count]} is not loxodromic: moduli ({stopped[0]:.6g}, "
        f"{stopped[1]:.6g}, {stopped[2]:.6g})")
    min_t, witness = _anchor_transversality(words[:anchors], *anchor_flags)
    if obstruction is None and min_t < TRANS_TOL:
        obstruction = (f"flags of {witness[0]} and {witness[1]} are not "
                       f"transverse: {min_t:.3e}")
    return AnosovReport(
        max_word_len=max_word_len,
        words=tuple(words),
        moduli=moduli,
        min_gap=min_gap,
        min_transversality=min_t,
        centralizer_dim=centralizer_check(rep),
        obstruction=obstruction,
    )


def centralizer_check(rep: Representation) -> int:
    """Dimension of {X : X g = g X for every generator g}, via the rank
    of the generators' 9x9 commutator systems taken together.

    The system of g is kron(I, g) - kron(g^T, I), entry [3i + a, 3j + b]
    = d_ij g_ab - g_ji d_ab, written as the two broadcast products that
    np.kron forms, so its bits are kron's."""
    G = np.stack(list(rep.generators.values()))         # [g, a, b]
    eye = np.eye(3)
    system = (eye[:, None, :, None] * G[:, None, :, None, :]
              - G.transpose(0, 2, 1)[:, :, None, :, None]
              * eye[None, :, None, :])                   # [g, i, a, j, b]
    sv = np.linalg.svd(system.reshape(-1, 9), compute_uv=False)
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


def horizontal_pattern(h: ComplexMetric, seed: int) -> VariationField:
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
