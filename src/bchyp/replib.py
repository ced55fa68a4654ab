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
Loxodromy is checked for every enumerated word.  The transversality
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
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import null_space

from .bicomplex import Bicomplex
from .chtau import Flag
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


def loxodromy(M, gap_tol: float = GAP_TOL,
              cond_tol: float = COND_TOL) -> LoxodromyReport:
    """Eigenvalue moduli, gap ratios, and fixed flags of one matrix.

    Attracting flag = (top eigenvector, span of top two); the repelling
    flag is the attracting flag of the inverse, read off the same
    eigen-decomposition since eigenvectors are shared.
    """
    M = np.asarray(M, dtype=complex)
    d = np.linalg.det(M)
    if abs(d - 1.0) > 1e-8:
        raise NotUnimodular(f"det {d:.12g} is not 1")
    vals, vecs = np.linalg.eig(M)
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    m = tuple(np.abs(vals))
    gaps = ((m[0] - m[1]) / m[0], (m[1] - m[2]) / m[1])
    lox = gaps[0] > gap_tol and gaps[1] > gap_tol
    if not lox:
        return LoxodromyReport(m, gaps, False)
    if np.linalg.cond(vecs) > cond_tol:
        raise NotDiagonalizable(
            f"eigenvector matrix condition {np.linalg.cond(vecs):.3e}")
    attracting = Flag(vecs[:, 0], np.cross(vecs[:, 0], vecs[:, 1]))
    repelling = Flag(vecs[:, 2], np.cross(vecs[:, 2], vecs[:, 1]))
    return LoxodromyReport(m, gaps, True, attracting, repelling)


def _plane_basis(flag: Flag) -> np.ndarray:
    """Orthonormal basis (columns) of the plane ker(covector)."""
    return null_space(flag.plane[None, :])


def transversality(F1: Flag, F2: Flag) -> float:
    """Min over both pairings of |det[line; plane basis]|; 0 iff not
    transverse (a line falling inside the other plane)."""
    out = np.inf
    for line, other in ((F1.line, F2), (F2.line, F1)):
        B = _plane_basis(other)
        out = min(out, abs(np.linalg.det(
            np.stack([line, B[:, 0], B[:, 1]]))))
    return float(out)


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


def _reduced_words(names, max_len):
    """All reduced words over names and inverses, shortest first."""
    alphabet = [(n, e) for n in names for e in (1, -1)]
    frontier = [(t,) for t in alphabet]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            yield w
            last = w[-1]
            for t in alphabet:
                if t[0] == last[0] and t[1] == -last[1]:
                    continue
                nxt.append(w + (t,))
        frontier = nxt


class _Obstruction(Exception):
    """Carries the failure message plus the data gathered so far."""

    def __init__(self, message, partial):
        self.message = message
        self.partial = partial


def _unit_det(M):
    """Rescale to determinant one (principal cube root).

    The float determinant of a long word product drifts from 1 by about
    eps * ||M||^3 through cancellation, which is far above any fixed det
    gate once eigenvalues grow; rescaling restores it exactly without
    touching eigenvectors or eigenvalue ratios.
    """
    return M / np.exp(np.log(np.linalg.det(M)) / 3.0)


def _scan_class(rep, words, gap_tol):
    """Loxodromy data for one prefix class of words, products cached
    along the shared prefixes."""
    cache = {}
    out = []
    for idx, w in words:
        prefix = w[:-1]
        base = cache[prefix] if prefix else np.eye(3, dtype=complex)
        name, e = w[-1]
        g = rep.generators[name]
        M = base @ (g if e > 0 else np.linalg.inv(g))
        cache[w] = M
        rep_w = loxodromy(_unit_det(M), gap_tol=gap_tol)
        if not rep_w.loxodromic:
            raise _Obstruction(
                f"word {word_str(w)} is not loxodromic: moduli "
                f"({rep_w.moduli[0]:.6g}, {rep_w.moduli[1]:.6g}, "
                f"{rep_w.moduli[2]:.6g})", out)
        out.append((idx, w, rep_w))
    return out


def _same_flag(F1: Flag, F2: Flag, tol: float) -> bool:
    return (abs(np.vdot(F1.line, F2.line)) > 1.0 - tol
            and abs(np.vdot(F1.plane, F2.plane)) > 1.0 - tol)


def _anchor_transversality(scanned, max_word_len, flag_match_tol):
    """Minimum flag transversality over the short-word sample.

    Anchors are the scanned words of length <= min(2, max_word_len);
    the sample is closed under inversion, so sweeping the four
    attracting/repelling combinations of each distinct pair covers
    every boundary-point pairing.  Combinations whose two flags are
    projectively identical are skipped (their vanishing is forced by
    the incidence line-in-plane, not by any degeneracy).
    """
    cutoff = min(2, max_word_len)
    anchors = [(w, r) for _, w, r in scanned if len(w) <= cutoff]
    best = np.inf
    witness = ("", "")
    for i in range(len(anchors)):
        wi, ri = anchors[i]
        for j in range(i + 1, len(anchors)):
            wj, rj = anchors[j]
            for si, Fi in (("+", ri.attracting), ("-", ri.repelling)):
                for sj, Fj in (("+", rj.attracting), ("-", rj.repelling)):
                    if _same_flag(Fi, Fj, flag_match_tol):
                        continue
                    v = transversality(Fi, Fj)
                    if v < best:
                        best = v
                        witness = (word_str(wi) + si, word_str(wj) + sj)
    return float(best), witness


def anosov_scan(rep: Representation, max_word_len: int,
                gap_tol: float = GAP_TOL, trans_tol: float = TRANS_TOL,
                flag_match_tol: float = FLAG_MATCH_TOL,
                threads: int = 1) -> AnosovReport:
    """Necessary Anosov conditions over all reduced words up to a length.

    Two channels.  (1) Loxodromy: every enumerated word, after exact
    determinant renormalization, must have three distinct eigenvalue
    moduli with relative gaps above gap_tol; any failure is reported as
    the obstruction.  (2) Transversality: the minimum over the
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

    The report also carries the centralizer dimension and the full
    per-word moduli/gap/flag tables; word enumeration is split over
    first-letter classes (optionally on a thread pool) and merged in
    deterministic order.
    """
    if max_word_len < 1:
        raise ValueError("max_word_len must be at least 1")
    indexed = list(enumerate(_reduced_words(rep.names, max_word_len)))
    classes = {}
    for idx, w in indexed:
        classes.setdefault(w[0], []).append((idx, w))
    keys = sorted(classes, key=lambda t: (t[0], -t[1]))

    def run(key):
        try:
            return _scan_class(rep, classes[key], gap_tol)
        except _Obstruction as o:
            return o

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, keys))
    else:
        results = [run(k) for k in keys]

    cdim = centralizer_check(rep)
    obstruction = None
    scanned = []
    for res in results:
        if isinstance(res, _Obstruction):
            if obstruction is None:
                obstruction = res.message
            scanned.extend(res.partial)
        else:
            scanned.extend(res)
    scanned.sort(key=lambda item: item[0])

    min_t, witness = _anchor_transversality(scanned, max_word_len,
                                            flag_match_tol)
    if obstruction is None and min_t < trans_tol:
        obstruction = (f"flags of {witness[0]} and {witness[1]} are not "
                       f"transverse: {min_t:.3e}")
    return _report_from(scanned, max_word_len, min_t, witness, cdim,
                        obstruction)


def _report_from(scanned, max_word_len, min_t, witness, cdim,
                 obstruction):
    return AnosovReport(
        max_word_len=max_word_len,
        words=tuple(word_str(w) for _, w, _r in scanned),
        moduli=np.array([r.moduli for _, _w, r in scanned], dtype=float),
        gaps=np.array([r.gaps for _, _w, r in scanned], dtype=float),
        attracting=tuple(r.attracting for _, _w, r in scanned),
        repelling=tuple(r.repelling for _, _w, r in scanned),
        min_gap=float(np.min([min(r.gaps) for _, _w, r in scanned]))
        if scanned else np.inf,
        min_transversality=min_t,
        witness_pair=witness,
        centralizer_dim=cdim,
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
