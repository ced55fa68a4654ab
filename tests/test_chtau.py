import numpy as np
import pytest

import oracles

from bchyp.bicomplex import Bicomplex, BcVec3, TAU, re_tau, phi_iso
from bchyp.chtau import (
    FLAG_TOL, HyperboloidPoint, TangentVector, Flag,
    q_form, project_tangent, para_holo_sectional, submanifold_membership,
    line_plane_det, IsotropicPlane,
)
from bchyp.replib import transversality

RNG = np.random.default_rng(42)


def rand_vec(rng=RNG, scale=1.0):
    z1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return oracles.tau_parts(BcVec3, scale * z1, scale * z2)


def normalized(z):
    """The hyperboloid point of z: q(z, z) is tau-real, so one complex
    scale makes it -1."""
    return HyperboloidPoint(z.scale(1.0 / np.sqrt(-q_form(z, z).plus + 0j)))


def rand_point(rng=RNG):
    for _ in range(50):
        z = rand_vec(rng)
        c = q_form(z, z)
        if abs(c.plus) > 0.3:
            return normalized(z)
    raise RuntimeError("no normalizable sample")


def rand_tangent(p, rng=RNG, min_norm=0.1):
    for _ in range(50):
        X = project_tangent(p, rand_vec(rng))
        c = q_form(X.vec, X.vec)
        if min(abs(c.plus), abs(c.minus)) > min_norm:
            return X
    raise RuntimeError("no non-isotropic tangent found")


def base_point():
    return HyperboloidPoint(BcVec3.from_complex([0, 0, 1]))


# ---------------------------------------------------------------- q_form

def test_q_form_signature_values():
    e3 = BcVec3.from_complex([0, 0, 1])
    e1 = BcVec3.from_complex([1, 0, 0])
    e2 = BcVec3.from_complex([0, 1, 0])
    for (z, w), want in (((e3, e3), -1), ((e1, e2), 0), ((e1, e1), 1)):
        q = q_form(z, w)
        assert (q.z1, q.z2) == (want, 0)


def test_q_form_tau_scaling():
    for _ in range(10):
        z = rand_vec()
        lhs = q_form(z.scale(TAU), z)
        rhs = TAU * q_form(z, z)
        assert abs(lhs.z1 - rhs.z1) < 1e-12 and abs(lhs.z2 - rhs.z2) < 1e-12


def test_q_form_tau_hermitian():
    for _ in range(20):
        z, w = rand_vec(), rand_vec()
        lhs = q_form(z, w)
        rhs = oracles.tau_conj(q_form(w, z))
        assert abs(lhs.z1 - rhs.z1) < 1e-12 and abs(lhs.z2 - rhs.z2) < 1e-12


def test_q_form_first_slot_linear():
    z, w = rand_vec(), rand_vec()
    a = Bicomplex(1.3 - 0.2j, 0.4 + 0.1j)
    lhs = q_form(z.scale(a), w)
    rhs = a * q_form(z, w)
    assert abs(lhs.z1 - rhs.z1) < 1e-11 and abs(lhs.z2 - rhs.z2) < 1e-11


# ------------------------------------------------------ hyperboloid points

def test_point_normalization_required():
    with pytest.raises(ValueError):
        HyperboloidPoint(BcVec3.from_complex([0, 0, 2]))
    p = normalized(BcVec3.from_complex([0, 0, 2]))
    q = q_form(p.rep, p.rep)
    assert (q.z1, q.z2) == (-1, 0)


def test_isometry_action_preserves_q_200():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(200):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if abs(np.linalg.det(A)) < 0.1:
            continue
        p = rand_point(rng)
        moved = phi_iso(A) @ p.rep
        d = q_form(moved, moved) - q_form(p.rep, p.rep)
        worst = max(worst, abs(d.z1), abs(d.z2))
    assert worst < 1e-11, worst


# ------------------------------------------------------------- tangency

def test_project_tangent_cases():
    p = rand_point()
    # projecting the base direction kills it
    t0 = project_tangent(p, p.rep)
    assert t0.vec.norm_max() < 1e-12
    # an already-orthogonal vector is unchanged
    X = rand_tangent(p)
    again = project_tangent(p, X.vec)
    assert (again.vec - X.vec).norm_max() < 1e-12 * max(1, X.vec.norm_max())
    # idempotency on a random ambient vector
    V = rand_vec()
    t1 = project_tangent(p, V)
    t2 = project_tangent(p, t1.vec)
    assert (t2.vec - t1.vec).norm_max() < 1e-12 * max(1, V.norm_max())
    r = q_form(t1.vec, p.rep)
    assert abs(r.z1) < 1e-12 and abs(r.z2) < 1e-12


def test_decomposition_reconstructs():
    p = rand_point()
    V = rand_vec()
    t = project_tangent(p, V)
    lam = -q_form(V, p.rep)
    gap = V - t.vec - p.rep.scale(lam)
    assert gap.norm_max() < 1e-12 * max(1, V.norm_max())


# ------------------------------------------------- para-Hermitian pairing

def test_moment_map_identity():
    # omega(tau z, v) = Re_tau q(z, v) on ambient vectors, omega the
    # tau part of q
    for _ in range(30):
        z, v = rand_vec(), rand_vec()
        lhs = q_form(z.scale(TAU), v).z2
        rhs = re_tau(q_form(z, v))
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


# ------------------------------------------------------------- curvature

def test_sectional_real_unit_vector():
    p = base_point()
    X = project_tangent(p, BcVec3.from_complex([1, 0, 0]))
    val = para_holo_sectional(p, X)
    assert abs(val - (-4.0)) < 1e-10


def test_sectional_scale_invariant():
    p = base_point()
    X = project_tangent(p, BcVec3.from_complex([1, 0, 0]))
    lam = Bicomplex(2.0 - 1.0j, 0.7 + 0.3j)   # invertible tau scalar
    val = para_holo_sectional(p, TangentVector(p, X.vec.scale(lam)))
    assert abs(val - (-4.0)) < 1e-9


def test_sectional_constant_over_random_planes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rand_point(rng)
        X = rand_tangent(p, rng)
        val = para_holo_sectional(p, X)
        assert abs(val - (-4.0)) < 1e-9, val


def test_sectional_isotropic_rejected():
    p = base_point()
    # q(X, X) = 1 - 1 = 0 for X = (1, i, 0) at the real base
    X = project_tangent(p, BcVec3.from_complex([1, 1j, 0]))
    with pytest.raises(IsotropicPlane):
        para_holo_sectional(p, X)


# ------------------------------------------------------------ membership

def test_membership_real_point():
    tags = submanifold_membership(base_point())
    assert tags == {"H2tau", "CH2", "X"}


def test_membership_complex_point():
    p = normalized(BcVec3.from_complex([0.5j, 0, np.sqrt(1.25)]))
    assert submanifold_membership(p) == {"X"}


def test_membership_tau_point():
    z = oracles.tau_parts(BcVec3, [0, 0, np.sqrt(1.25)], [0.5, 0, 0])
    p = normalized(z)
    assert submanifold_membership(p) == {"H2tau"}


def test_membership_generic_point():
    rng = np.random.default_rng(31)
    p = rand_point(rng)
    assert submanifold_membership(p) == {"generic"}


def test_membership_orbit_hidden_real_form():
    # a real point pushed along the unit orbit is still tagged H2tau
    u = Bicomplex.from_idempotent(np.exp(0.2 + 0.9j), np.exp(-0.2 - 0.9j))
    p = HyperboloidPoint(base_point().rep.scale(u))
    assert "H2tau" in submanifold_membership(p)


# ------------------------------------------------------------------ flags

def test_loxodromic_eigenflag_fixed():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = A @ np.diag([4.0, 1.0, 0.25]) @ np.linalg.inv(A)
    w, V = np.linalg.eig(M)
    order = np.argsort(-np.abs(w))
    v1, v2 = V[:, order[0]], V[:, order[1]]
    phi = np.cross(v1, v2)          # covector vanishing on span(v1, v2)
    f = Flag(v1, phi)
    # push through M: line -> M v, plane covector -> phi M^{-1}
    f2 = Flag(M @ f.line, f.plane @ np.linalg.inv(M))
    assert abs(abs(np.vdot(f.line, f2.line)) - 1) < 1e-9
    assert abs(abs(np.vdot(f.plane, f2.plane)) - 1) < 1e-9


def test_transversality_predicate():
    # transverse: l1 (+) V2 = C^3 = l2 (+) V1, beyond FLAG_TOL
    f1 = Flag([1, 0, 0], [0, 0, 1])
    f2 = Flag([0, 0, 1], [1, 0, 0])
    assert transversality(f1, f2) > FLAG_TOL
    assert line_plane_det([1, 0, 0], [1, 0, 0]) > 0.99   # e1 + ker(dx1)
    # line of f1 inside the plane of f3: degenerate pairing
    f3 = Flag([0, 1, 0], [0, 0, 1])
    assert line_plane_det(f1.line, f3.plane) < 1e-12
    assert not transversality(f1, f3) > FLAG_TOL


def test_line_plane_det_matches_determinant_oracle():
    rng = np.random.default_rng(8)
    cases = [([1, 0, 0], [1, 0, 0]), ([1, 0, 0], [0, 0, 1]),
             ([0, 0, 1], [1, 0, 0]), ([0, 1, 0], [0, 0, 1])]
    for _ in range(40):
        line = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        cases.append((line, phi))
        inside = line - (phi @ line) / np.vdot(phi, phi) * phi.conj()
        cases.append((inside, phi))              # line inside the plane
    for line, phi in cases:
        want = oracles.line_plane_det_oracle(line, phi)
        assert abs(line_plane_det(line, phi) - want) < 1e-14


def test_flag_validates_and_is_immutable():
    rng = np.random.default_rng(13)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f = Flag(v - (phi @ v) / np.vdot(phi, phi) * phi.conj(), phi)
    with pytest.raises(AttributeError):
        f.line = v
    with pytest.raises(ValueError, match="inside"):
        Flag(v, phi)
    with pytest.raises(ValueError, match="nonzero"):
        Flag(np.zeros(3), phi)
