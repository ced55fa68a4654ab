"""Correctness checks for the benchmark's operations.

Every check compares a program output with a value computed here from
closed forms, or with a property the method must have.  Nothing in this
file imports bchyp: the stencils, the constant-data connection and the
symmetric-square words are written out again from the formulas in the
package docstrings.  Each function returns a list of error strings; an
empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

# Model frame over diag(1, 1, -1) whose columns have Gram matrix
# [[0,1,0],[1,0,0],[0,0,-1]]; a fixed convention of the connection module.
_RT2 = np.sqrt(2.0)
F0 = np.array([[1.0 / _RT2, 1.0 / _RT2, 0.0],
               [1j / _RT2, -1j / _RT2, 0.0],
               [0.0, 0.0, 1.0]], dtype=complex)
Q3 = np.diag([1.0, 1.0, -1.0])

PSI_TOL = 1e-10          # constant Wang solution, absolute
TRANSPORT_TOL = 1e-9     # holonomy and frame, relative to the matrix size
ETA_TOL = 1e-9           # eta(f+, f-) = -1 along the integrated pair
MODULI_TOL = 1e-9        # word moduli, relative to the top modulus
DET_DRIFT = 4 * np.finfo(float).eps   # determinant drift per ||M||^3
TRANSVERSALITY_TOL = 1e-9
REDUCIBLE_TRANSVERSALITY = 1e-10


# ----------------------------------------------------------------------
# wang-chain: constant data on the identity chart

def wang_u(q: float, kg: float) -> float:
    """u = e^{2 psi}: the largest positive root of u^3 + kg u^2 - q^2.

    For alpha = q, beta = conj(q) on the identity chart |C|^2_g =
    alpha conj(beta) / 8 = q^2 / 8, so the constant Gauss equation
    -kg - u + 8 |C|^2_g / u^2 = 0 becomes u^3 + kg u^2 = q^2.
    """
    roots = np.roots([1.0, kg, 0.0, -q * q])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
    return max(real)


def check_wang_psi(psi, q: float, kg: float) -> list[str]:
    want = 0.5 * np.log(wang_u(q, kg))
    err = float(np.max(np.abs(np.asarray(psi) - want)))
    if not err <= PSI_TOL:
        return [f"psi differs from 1/2 log u = {want:.15g} by {err:.3e}"]
    return []


def constant_omega(q: float, kg: float):
    """(Ox, Oy) per idempotent part for constant Wang data.

    From the assemble docstring with psi = 1/2 log u, mu = 0 and unit
    chart factors: a = b = 0, s = sqrt(u), the cubic entries are q / u,
    and Omega(d_x) = Ahat + Bhat, Omega(d_y) = i (Ahat - Bhat).
    """
    u = wang_u(q, kg)
    s = np.sqrt(u)
    c = q / u
    out = {}
    for part, sign in (("plus", -1.0), ("minus", 1.0)):
        A = np.array([[0, sign * c, 0], [0, 0, s], [s, 0, 0]], dtype=complex)
        B = np.array([[0, 0, s], [sign * c, 0, 0], [0, s, 0]], dtype=complex)
        out[part] = (A + B, 1j * (A - B))
    return out


def _rel(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


def check_wang_holonomy(Hx, Hy, q: float, kg: float) -> list[str]:
    """Period holonomies equal F0 expm(Omega) F0^-1 part by part."""
    errors = []
    omega = constant_omega(q, kg)
    F0i = np.linalg.inv(F0)
    for label, H, axis in (("x", Hx, 0), ("y", Hy, 1)):
        for part in ("plus", "minus"):
            want = F0 @ expm(omega[part][axis]) @ F0i
            err = _rel(getattr(H, part), want)
            if not err <= TRANSPORT_TOL:
                errors.append(f"{label}-period holonomy ({part}) off the "
                              f"closed form by {err:.3e}")
    return errors


def frame_nodes(n: int) -> list[tuple[int, int]]:
    """A 4 x 4 lattice of sample nodes (iy, ix), corners included."""
    idx = np.linspace(0, n - 1, 4).round().astype(int)
    return [(int(iy), int(ix)) for iy in idx for ix in idx]


def check_wang_frame(fplus, fminus, q: float, kg: float,
                     n: int) -> list[str]:
    """Frame columns at sample nodes, and eta(f+, f-) = -1 everywhere.

    dG = G Omega with G(0) = I and commuting constant Ox, Oy gives
    G(x, y) = expm(x Ox) expm(y Oy); f = Re(F0 G[:, 2]).
    """
    errors = []
    omega = constant_omega(q, kg)
    h = 1.0 / n
    for part, f in (("plus", fplus), ("minus", fminus)):
        Ox, Oy = omega[part]
        worst = 0.0
        for iy, ix in frame_nodes(n):
            G = expm(ix * h * Ox) @ expm(iy * h * Oy)
            want = (F0 @ G[:, 2]).real
            worst = max(worst, _rel(f[iy, ix], want))
        if not worst <= TRANSPORT_TOL:
            errors.append(f"f{'+' if part == 'plus' else '-'} off the "
                          f"closed-form frame by {worst:.3e}")
    eta = np.einsum("...i,ij,...j->...", fminus, Q3, fplus)
    err = float(np.max(np.abs(eta + 1.0)))
    if not err <= ETA_TOL:
        errors.append(f"eta(f+, f-) deviates from -1 by {err:.3e}")
    return errors


# ----------------------------------------------------------------------
# gauss-solve: Gauss residual with stencils of our own

def _sh(f, k, axis):
    return np.roll(f, -k, axis=axis)


def _d1(f, h, axis):
    """4th-order centered first derivative (x is axis 1)."""
    return (-_sh(f, 2, axis) + 8 * _sh(f, 1, axis) - 8 * _sh(f, -1, axis)
            + _sh(f, -2, axis)) / (12 * h)


def _d2(f, h, axis):
    """4th-order centered second derivative."""
    return (-_sh(f, 2, axis) + 16 * _sh(f, 1, axis) - 30 * f
            + 16 * _sh(f, -1, axis) - _sh(f, -2, axis)) / (12 * h * h)


def _d3(f, h, axis):
    return (_sh(f, 2, axis) - 2 * _sh(f, 1, axis) + 2 * _sh(f, -1, axis)
            - _sh(f, -2, axis)) / (2 * h ** 3)


def _d4(f, h, axis):
    return (_sh(f, 2, axis) - 4 * _sh(f, 1, axis) + 6 * f
            - 4 * _sh(f, -1, axis) + _sh(f, -2, axis)) / h ** 4


def _d6(f, h, axis):
    return (_sh(f, 3, axis) - 6 * _sh(f, 2, axis) + 15 * _sh(f, 1, axis)
            - 20 * f + 15 * _sh(f, -1, axis) - 6 * _sh(f, -2, axis)
            + _sh(f, -3, axis)) / h ** 6


def gauss_residual(psi, alpha, beta, kg: float, chart: dict):
    """(residual field, bound) of the Gauss equation at psi.

    F(psi) = Delta_g psi - kg - e^{2 psi} + 8 e^{-4 psi} |C|^2_g over the
    bare chart metric, where |C|^2_g = alpha conj(beta) / 8 and

        Delta_g = (2 / dzbwb) [d_z d_zb + conj(mu) d_zb d_zb
                               - (logB / dwz) d_zb],

    is evaluated with 4th-order stencils.  The solver composes centered
    differences, whose leading error is (h^2 / 6) times the third
    derivative, so a psi that solves the discrete equation to tol leaves
    at most tol plus that O(h^2) truncation term T here, plus O(h^4)
    terms bounded through the sixth derivatives of psi.
    """
    psi = np.asarray(psi, dtype=complex)
    n = psi.shape[0]
    h = 1.0 / n
    mub = np.conj(chart["mu"])
    dzbwb, dwz, logB = chart["dzbwb"], chart["dwz"], chart["logB"]
    px, py = _d1(psi, h, 1), _d1(psi, h, 0)
    pxx, pyy = _d2(psi, h, 1), _d2(psi, h, 0)
    pxy = _d1(_d1(psi, h, 1), h, 0)
    zzb = 0.25 * (pxx + pyy)
    zbzb = 0.25 * (pxx - pyy + 2j * pxy)
    zb = 0.5 * (px + 1j * py)
    lap = 2.0 / dzbwb * (zzb + mub * zbzb - logB / dwz * zb)
    cnorm = alpha * np.conj(beta) / 8.0
    F = lap - kg - np.exp(2 * psi) + 8 * np.exp(-4 * psi) * cnorm

    x4, y4 = _d4(psi, h, 1), _d4(psi, h, 0)
    x3y = _d3(_d1(psi, h, 0), h, 1)
    xy3 = _d3(_d1(psi, h, 1), h, 0)
    x3, y3 = _d3(psi, h, 1), _d3(psi, h, 0)
    t = h * h
    trunc = 2.0 / dzbwb * (
        0.25 * (t / 3) * (x4 + y4)
        + mub * 0.25 * ((t / 3) * (x4 - y4) + 2j * (t / 6) * (x3y + xy3))
        - logB / dwz * 0.5 * (t / 6) * (x3 + 1j * y3))
    m6 = float(np.max(np.abs(_d6(psi, h, 1))) + np.max(np.abs(_d6(psi, h, 0))))
    scale = float(np.max(np.abs(2.0 / dzbwb)))
    return F, float(np.max(np.abs(trunc))) + scale * t * t * m6


def check_gauss(report, tol: float, psi, alpha, beta, kg: float,
                chart: dict) -> list[str]:
    errors = []
    if not report["converged"]:
        errors.append("Newton did not report convergence")
    if not report["final_residual"] <= tol:
        errors.append(f"final residual {report['final_residual']:.3e} "
                      f"above tol {tol:.1e}")
    F, trunc = gauss_residual(psi, alpha, beta, kg, chart)
    worst = float(np.max(np.abs(F)))
    if not worst <= tol + trunc:
        errors.append(f"independent Gauss residual {worst:.3e} exceeds "
                      f"tol + truncation bound {tol + trunc:.3e}")
    return errors


# ----------------------------------------------------------------------
# word-scan: symmetric-square words and flag invariance

def sym2(A) -> np.ndarray:
    """Symmetric square of a 2x2 matrix on the basis (x^2, xy, y^2)."""
    (a, b), (c, e) = A
    return np.array([[a * a, 2 * a * b, b * b],
                     [a * c, a * e + b * c, b * e],
                     [c * c, 2 * c * e, e * e]])


def sym2_root(M) -> np.ndarray:
    """A 2x2 matrix A with Sym^2(A) = M.

    Sym^2 [[a, b], [c, e]] has M00 = a^2, M01 = 2ab, M10 = ac and
    M11 = ae + bc; A is fixed up to the sign that Sym^2 forgets.
    """
    M = np.asarray(M, dtype=complex)
    a = np.sqrt(M[0, 0])
    b = M[0, 1] / (2 * a)
    c = M[1, 0] / a
    A = np.array([[a, b], [c, (M[1, 1] - b * c) / a]])
    if np.max(np.abs(sym2(A) - M)) > 1e-9 * max(1.0, np.max(np.abs(M))):
        raise ValueError("matrix is not a symmetric square")
    return A


def word_moduli(word: str, pair: dict):
    """((|mu|^2, 1, |mu|^-2), ||Sym^2 W||_2) for the 2x2 product W of a
    word like 'abA'; mu is the larger root of x^2 - tr(W) x + 1."""
    W = np.eye(2, dtype=complex)
    for ch in word:
        g = pair[ch.lower()]
        W = W @ (g if ch.islower() else np.linalg.inv(g))
    t = np.trace(W)
    disc = np.sqrt(t * t - 4)
    mu = max((t + disc) / 2, (t - disc) / 2, key=abs)
    m = abs(mu) ** 2
    return np.array([m, 1.0, 1.0 / m]), float(np.linalg.norm(sym2(W), 2))


def reduced_word_count(generators: int, length: int) -> int:
    k = 2 * generators
    return sum(k * (k - 1) ** (j - 1) for j in range(1, length + 1))


def check_fuchsian(code: int, words, moduli, obstruction, min_t: float,
                   pair: dict, length: int, ref_min_t: float | None
                   ) -> list[str]:
    errors = []
    if code != 0:
        errors.append(f"Fuchsian scan exited {code}")
    if obstruction is not None:
        errors.append(f"Fuchsian scan reported an obstruction: {obstruction}")
    want_words = reduced_word_count(len(pair), length)
    if len(words) != want_words:
        errors.append(f"scanned {len(words)} words, expected {want_words}")
    worst = drift = 0.0
    for w, m in zip(words, np.asarray(moduli)):
        want, norm = word_moduli(w, pair)
        # The scan rescales each word by its float determinant, which
        # drifts from 1 by about eps ||M||^3: a common factor that leaves
        # the modulus ratios alone.  Divide it out, then bound it.
        c = want[0] / m[0]
        worst = max(worst, float(np.max(np.abs(c * m - want))) / want[0])
        drift = max(drift, abs(c - 1.0) / (1e-12 + DET_DRIFT * norm ** 3))
    if not worst <= MODULI_TOL:
        errors.append(f"word moduli off (|mu|^2, 1, |mu|^-2) by {worst:.3e}")
    if not drift <= 1.0:
        errors.append(f"common modulus factor drifts {drift:.1f} times "
                      f"past eps ||M||^3")
    if (ref_min_t is not None
            and not abs(min_t - ref_min_t) <= TRANSVERSALITY_TOL):
        errors.append(f"min transversality {min_t!r} changed under SU(3) "
                      f"conjugation from {ref_min_t!r}")
    return errors


def check_reducible(code: int, stderr: str, obstruction,
                    min_t: float) -> list[str]:
    errors = []
    if code != 1:
        errors.append(f"reducible scan exited {code}, expected 1")
    if "transversality/loxodromy check failed" not in stderr:
        errors.append("reducible scan printed no obstruction message")
    if obstruction is None:
        errors.append("reducible scan reported no obstruction")
    if not min_t < REDUCIBLE_TRANSVERSALITY:
        errors.append(f"reducible min transversality {min_t:.3e} is not "
                      f"below {REDUCIBLE_TRANSVERSALITY:.0e}")
    return errors
