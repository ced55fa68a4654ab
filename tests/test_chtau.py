import numpy as np
import pytest

import oracles

from bchyp.bicomplex import (
    Bicomplex, BcVec3, TAU, Q3, tau_conj, re_tau, im_tau, phi_iso,
)
from bchyp.chtau import (
    HyperboloidPoint, Flag,
    q_form, to_incidence, from_incidence, project_tangent,
    para_hermitian_eval, para_holo_sectional, submanifold_membership,
    boundary_flag, line_plane_det, transversal,
    BaseMismatch, IsotropicPlane, NotOnBoundary,
)

RNG = np.random.default_rng(42)


def rand_vec(rng=RNG, scale=1.0):
    z1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return BcVec3.from_tau_parts(scale * z1, scale * z2)


def rand_point(rng=RNG):
    for _ in range(50):
        z = rand_vec(rng)
        c = q_form(z, z)
        if abs(c.plus) > 0.3:
            return HyperboloidPoint.normalize(z)
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
    assert q_form(e3, e3) == Bicomplex(-1, 0)
    assert q_form(e1, e2) == Bicomplex(0, 0)
    assert q_form(e1, e1) == Bicomplex(1, 0)


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
        rhs = tau_conj(q_form(w, z))
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
    p = HyperboloidPoint.normalize(BcVec3.from_complex([0, 0, 2]))
    assert q_form(p.rep, p.rep) == Bicomplex(-1, 0)


def test_point_equality_unit_orbit():
    p = rand_point()
    # scale by a unit: (e^v, e^-v) on the idempotent halves
    v = 0.3 + 1.1j
    u = Bicomplex.from_idempotent(np.exp(v), np.exp(-v))
    p2 = HyperboloidPoint(p.rep.scale(u))
    assert p.same_as(p2) and p2.same_as(p)
    q = rand_point()
    assert not p.same_as(q)


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


# ------------------------------------------------------------- incidence

def test_to_incidence_real_base():
    # hand computation: x = (0,0,1), y = 0 -> v = x + y = (0,0,1),
    # phi = (x - y)^T Q = (0,0,-1)
    inc = to_incidence(base_point())
    assert np.allclose(inc.v, [0, 0, 1])
    assert np.allclose(inc.phi, [0, 0, -1])
    assert abs(inc.pairing() + 1) < 1e-15


def test_to_incidence_tau_free_rep():
    z = HyperboloidPoint.normalize(BcVec3.from_complex([0.2j, 0.1, 1.2]))
    inc = to_incidence(z)
    assert np.abs(inc.v - z.rep.z1).max() < 1e-15
    assert np.abs(inc.phi - z.rep.z1 @ Q3).max() < 1e-15


def test_incidence_roundtrip_100_points():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = rand_point(rng)
        inc = to_incidence(p)
        assert abs(inc.pairing() + 1) < 1e-12
        # exact inverse on the normalized lift
        back = from_incidence(inc)
        assert np.abs(back.rep.plus - p.rep.plus).max() < 1e-12
        # projective rescale lands on the same point modulo the unit orbit
        c = np.exp(rng.standard_normal() + 1j * rng.uniform(0, 2 * np.pi))
        back2 = from_incidence(inc.rescaled(c))
        assert back2.same_as(p)


def test_incidence_equivariance():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = rand_point(rng)
    inc = to_incidence(p)
    moved = HyperboloidPoint(phi_iso(A) @ p.rep)
    inc2 = to_incidence(moved)
    assert np.abs(inc2.v - A @ inc.v).max() < 1e-10
    assert np.abs(inc2.phi - inc.phi @ np.linalg.inv(A)).max() < 1e-10


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
    recon = p.rep.scale(lam) + t.vec
    assert (recon - V).norm_max() < 1e-12 * max(1, V.norm_max())


# ------------------------------------------------- para-Hermitian pairing

def test_para_hermitian_real_diagonal():
    p = base_point()
    X = project_tangent(p, BcVec3.from_complex([1.0, 0.5, 0]))
    g, om = para_hermitian_eval(X, X)
    assert abs(om) < 1e-14          # omega vanishes on (X, X) for real X
    assert abs(g - 1.25) < 1e-14


def test_para_hermitian_identities():
    p = rand_point()
    for _ in range(10):
        X, Y = rand_tangent(p), rand_tangent(p)
        g, om = para_hermitian_eval(X, Y)
        gP, _ = para_hermitian_eval(X.P(), Y.P())
        assert abs(gP + g) < 1e-11 * (1 + abs(g))
        # omega(X,Y) = g(PX, Y) = -g(X, PY): P acts in the linear slot
        gPX, _ = para_hermitian_eval(X.P(), Y)
        gXP, _ = para_hermitian_eval(X, Y.P())
        assert abs(om - gPX) < 1e-11 * (1 + abs(om))
        assert abs(om + gXP) < 1e-11 * (1 + abs(om))
        gI, _ = para_hermitian_eval(X.I(), Y)
        assert abs(gI - 1j * g) < 1e-11 * (1 + abs(g))
        gJ, _ = para_hermitian_eval(X.J(), Y.J())
        assert abs(gJ - g) < 1e-11 * (1 + abs(g))


def test_para_hermitian_base_mismatch():
    X = rand_tangent(rand_point())
    Y = rand_tangent(rand_point())
    with pytest.raises(BaseMismatch):
        para_hermitian_eval(X, Y)


def test_moment_map_identity():
    # omega(tau z, v) = Re_tau q(z, v) on ambient vectors
    for _ in range(30):
        z, v = rand_vec(), rand_vec()
        lhs = im_tau(q_form(z.scale(TAU), v))
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
    val = para_holo_sectional(p, X.scale(lam))
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
    p = HyperboloidPoint.normalize(
        BcVec3.from_complex([0.5j, 0, np.sqrt(1.25)]))
    assert submanifold_membership(p) == {"X"}


def test_membership_tau_point():
    z = BcVec3.from_tau_parts([0, 0, np.sqrt(1.25)], [0.5, 0, 0])
    p = HyperboloidPoint.normalize(z)
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


# ------------------------------------------------------- boundary & flags

def test_boundary_flag_basic():
    f = boundary_flag([1, 0, 0], [0, 0, 1])
    assert np.allclose(np.abs(f.line), [1, 0, 0])
    assert np.allclose(np.abs(f.plane), [0, 0, 1])


def test_boundary_flag_rejects_offboundary():
    with pytest.raises(NotOnBoundary):
        boundary_flag([1, 0, 0], np.array([1.0, 0, 0]) @ Q3)


def test_loxodromic_eigenflag_fixed():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = A @ np.diag([4.0, 1.0, 0.25]) @ np.linalg.inv(A)
    w, V = np.linalg.eig(M)
    order = np.argsort(-np.abs(w))
    v1, v2 = V[:, order[0]], V[:, order[1]]
    phi = np.cross(v1, v2)          # covector vanishing on span(v1, v2)
    f = boundary_flag(v1, phi)
    # push through M: line -> M v, plane covector -> phi M^{-1}
    f2 = boundary_flag(M @ f.line, f.plane @ np.linalg.inv(M))
    assert abs(abs(np.vdot(f.line, f2.line)) - 1) < 1e-9
    assert abs(abs(np.vdot(f.plane, f2.plane)) - 1) < 1e-9


def test_transversality_predicate():
    f1 = boundary_flag([1, 0, 0], [0, 0, 1])
    f2 = boundary_flag([0, 0, 1], [1, 0, 0])
    assert transversal(f1, f2)
    assert line_plane_det([1, 0, 0], [1, 0, 0]) > 0.99   # e1 + ker(dx1)
    # line of f1 inside the plane of f3: degenerate pairing
    f3 = boundary_flag([0, 1, 0], [0, 0, 1])
    assert line_plane_det(f1.line, f3.plane) < 1e-12
    assert not transversal(f1, f3)


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
