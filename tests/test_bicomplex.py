import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bchyp.bicomplex import (
    Bicomplex, BcVec3, BcMat3, ONE, TAU, E_PLUS, E_MINUS, Q3,
    tau_conj, tau_norm, invert, unit_scalar, isclose,
    phi_iso, phi_inv, compatibility_residual,
    ZeroDivisor, Singular, NotInImage,
)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def bc(draw_re1, draw_im1, draw_re2, draw_im2):
    return Bicomplex(complex(draw_re1, draw_im1), complex(draw_re2, draw_im2))


bicomplexes = st.builds(bc, finite, finite, finite, finite)


def test_basis_relations():
    assert TAU * TAU == ONE
    assert E_PLUS * E_PLUS == E_PLUS
    assert E_MINUS * E_MINUS == E_MINUS
    assert E_PLUS * E_MINUS == Bicomplex(0, 0)
    assert E_PLUS + E_MINUS == ONE
    # j = tau*i squares to -1
    j = TAU * Bicomplex(1j, 0)
    assert isclose(j * j, Bicomplex(-1, 0))


def test_idempotent_views_reconstruct():
    w = Bicomplex(2 + 3j, 1 - 1j)
    assert w.plus == (2 + 3j) + (1 - 1j)
    assert w.minus == (2 + 3j) - (1 - 1j)
    back = w.plus * E_PLUS + w.minus * E_MINUS
    assert isclose(back, w, 1e-15)


def test_tau_conj_examples():
    # definition on basis elements
    assert tau_conj(ONE + TAU) == ONE - TAU
    # tau-conjugation fixes C
    assert tau_conj(Bicomplex(1j, 0)) == Bicomplex(1j, 0)
    # componentwise
    w = Bicomplex(2 + 3j, 1 - 1j)
    assert tau_conj(w) == Bicomplex(2 + 3j, -(1 - 1j))


@given(bicomplexes, bicomplexes)
@settings(max_examples=200, deadline=None)
def test_tau_conj_involutive_multiplicative(a, b):
    assert isclose(tau_conj(tau_conj(a)), a, 1e-12)
    lhs = tau_conj(a * b)
    rhs = tau_conj(a) * tau_conj(b)
    assert abs(lhs.z1 - rhs.z1) < 1e-10 * (1 + abs(lhs.z1))
    assert abs(lhs.z2 - rhs.z2) < 1e-10 * (1 + abs(lhs.z2))


def test_tau_norm_examples():
    # 1 + tau is a zero divisor (scaled idempotent)
    assert tau_norm(ONE + TAU) == 0
    # unit scalars have norm 1
    w = unit_scalar(0.7 + 0.3j)
    assert abs(tau_norm(w) - 1.0) < 1e-12
    assert tau_norm(Bicomplex(1j, 0)) == -1


@given(bicomplexes)
@settings(max_examples=300, deadline=None)
def test_tau_norm_is_idempotent_product(w):
    assert abs(tau_norm(w) - w.plus * w.minus) < 1e-13 * (1 + abs(w.plus * w.minus))


@given(bicomplexes, bicomplexes, bicomplexes)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b, c):
    scale = 1 + max(abs(a), abs(b), abs(c)) ** 3
    d1 = (a * b) * c - a * (b * c)
    assert abs(d1) < 1e-12 * scale
    d2 = a * (b + c) - (a * b + a * c)
    assert abs(d2) < 1e-12 * scale
    d3 = a * b - b * a
    assert abs(d3) < 1e-12 * scale


def test_invert_examples():
    assert invert(ONE) == ONE
    assert isclose(invert(TAU), TAU)
    w = Bicomplex.from_idempotent(2.0, 0.5)
    wi = invert(w)
    assert abs(wi.plus - 0.5) < 1e-15
    assert abs(wi.minus - 2.0) < 1e-15
    assert isclose(w * wi, ONE, 1e-14)


def test_invert_zero_divisor():
    with pytest.raises(ZeroDivisor):
        invert(ONE + TAU)
    with pytest.raises(ZeroDivisor):
        invert(E_MINUS)


def test_division():
    a = Bicomplex(drand := 2 + 1j, 0.5 - 0.25j)
    b = Bicomplex(1 - 1j, 0.125j)
    q = a / b
    assert isclose(q * b, a, 1e-12)
    assert drand == 2 + 1j  # walrus only used to silence linters on constants


def test_scalar_coercion():
    w = Bicomplex(1, 2)
    assert isclose(2 * w, Bicomplex(2, 4))
    assert isclose(w + 1, Bicomplex(2, 2))
    assert isclose((1 + 1j) * TAU, Bicomplex(0, 1 + 1j))


def test_vec3_basics():
    v = BcVec3.from_tau_parts([1, 0, 0], [0, 1, 0])
    assert np.allclose(v.plus, [1, 1, 0])
    assert np.allclose(v.minus, [1, -1, 0])
    assert np.allclose(v.z1, [1, 0, 0])
    c = v.tau_conj()
    assert np.allclose(c.plus, v.minus)
    w = v.scale(TAU)
    # tau acts as +1 on plus, -1 on minus
    assert np.allclose(w.plus, v.plus)
    assert np.allclose(w.minus, -v.minus)


def test_mat3_product_and_det():
    rng = np.random.default_rng(1)
    X = BcMat3(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
               rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    Y = BcMat3(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    Z = X @ Y
    assert np.abs(Z.plus - X.plus @ Y.plus).max() == 0
    assert np.abs(Z.minus - X.minus @ Y.minus).max() == 0
    dZ = Z.det()
    dXdY = X.det() * Y.det()
    assert abs(dZ.z1 - dXdY.z1) < 1e-9 * (1 + abs(dXdY.z1))
    I = X @ X.inv()
    assert np.abs(I.plus - np.eye(3)).max() < 1e-12
    assert np.abs(I.minus - np.eye(3)).max() < 1e-12


def random_gl3(rng):
    for _ in range(100):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if abs(np.linalg.det(A)) > 0.1:
            return A
    raise RuntimeError("no well-conditioned sample")


def test_phi_iso_identity():
    X = phi_iso(np.eye(3))
    assert np.abs(X.plus - np.eye(3)).max() == 0
    assert np.abs(X.minus - np.eye(3)).max() == 0


def test_phi_iso_diagonal_hand_oracle():
    # Q (A^-1)^T Q for A = diag(2,1,1/2) computed by hand: diag(1/2,1,2)
    A = np.diag([2.0, 1.0, 0.5])
    X = phi_iso(A)
    assert np.abs(X.plus - A).max() == 0
    assert np.abs(X.minus - np.diag([0.5, 1.0, 2.0])).max() < 1e-15


def test_phi_iso_homomorphism_100_pairs():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        A = random_gl3(rng)
        B = random_gl3(rng)
        lhs = phi_iso(A @ B)
        rhs = phi_iso(A) @ phi_iso(B)
        worst = max(worst,
                    np.abs(lhs.plus - rhs.plus).max(),
                    np.abs(lhs.minus - rhs.minus).max())
    assert worst < 1e-12, worst


def test_phi_iso_preserves_q_matrix():
    # X^T Q conj_tau(X) = Q, i.e. X+^T Q X- = Q and X-^T Q X+ = Q
    rng = np.random.default_rng(11)
    for _ in range(20):
        X = phi_iso(random_gl3(rng))
        r1 = np.abs(X.plus.T @ Q3 @ X.minus - Q3).max()
        r2 = np.abs(X.minus.T @ Q3 @ X.plus - Q3).max()
        assert r1 < 1e-12 and r2 < 1e-12


def test_phi_det_identity():
    rng = np.random.default_rng(3)
    A = random_gl3(rng)
    d = phi_iso(A).det()
    dA = np.linalg.det(A)
    assert abs(d.plus - dA) < 1e-10 * (1 + abs(dA))
    assert abs(d.minus - 1.0 / dA) < 1e-10 * (1 + abs(1 / dA))


def test_phi_inv_roundtrip_and_errors():
    rng = np.random.default_rng(5)
    A = random_gl3(rng)
    X = phi_iso(A)
    assert np.abs(phi_inv(X) - A).max() < 1e-12
    with pytest.raises(NotInImage):
        phi_inv(BcMat3(A, np.zeros((3, 3))))
    # perturbation of 1e-6 on the minus part must fail at tolerance 1e-9
    Xp = BcMat3(X.plus, X.minus + 1e-6)
    assert compatibility_residual(Xp) > 1e-7
    with pytest.raises(NotInImage):
        phi_inv(Xp)


def test_phi_singular_rejected():
    with pytest.raises(Singular):
        phi_iso(np.zeros((3, 3)))


def test_norm_max_propagates_nan_in_the_minus_part():
    assert np.isnan(BcMat3(np.eye(3), np.full((3, 3), np.nan)).norm_max())
    assert np.isnan(BcVec3([1.0, 0, 0], [np.nan, 0, 0]).norm_max())
