import ast
import cmath
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bchyp import bicomplex
from bchyp.bicomplex import (
    Bicomplex, BcVec3, BcMat3, TAU, Q3,
    invert, phi_iso, compatibility_residual,
    ZeroDivisor, Singular,
)
from oracles import isclose, tau_conj, tau_parts

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)

# the unit and the idempotents e+ = (1 + tau)/2, e- = (1 - tau)/2
ONE = Bicomplex(1.0, 0.0)
E_PLUS = Bicomplex(0.5, 0.5)
E_MINUS = Bicomplex(0.5, -0.5)


def parts(w):
    """The (1, tau) coefficients of a scalar: values compare by these,
    since equality of Bicomplex is identity."""
    return w.z1, w.z2


def sup(w):
    """The larger idempotent modulus of a scalar, an absolute scale."""
    return max(abs(w.plus), abs(w.minus))


def bc(draw_re1, draw_im1, draw_re2, draw_im2):
    return Bicomplex(complex(draw_re1, draw_im1), complex(draw_re2, draw_im2))


bicomplexes = st.builds(bc, finite, finite, finite, finite)


def test_basis_relations():
    assert parts(TAU * TAU) == (1, 0)
    assert parts(E_PLUS * E_PLUS) == parts(E_PLUS)
    assert parts(E_MINUS * E_MINUS) == parts(E_MINUS)
    assert parts(E_PLUS * E_MINUS) == (0, 0)
    assert parts(E_PLUS + E_MINUS) == (1, 0)
    # j = tau*i squares to -1
    j = TAU * Bicomplex(1j, 0)
    assert isclose(j * j, Bicomplex(-1, 0))


def test_idempotent_views_reconstruct():
    w = Bicomplex(2 + 3j, 1 - 1j)
    assert w.plus == (2 + 3j) + (1 - 1j)
    assert w.minus == (2 + 3j) - (1 - 1j)
    back = w.plus * E_PLUS + w.minus * E_MINUS
    assert isclose(back, w, 1e-15)


def test_tau_norm_examples():
    # the tau-norm w conj_tau(w): 1 + tau is a zero divisor (scaled
    # idempotent), and the unit scalars cosh(v) + tau sinh(v) have norm 1
    assert parts((ONE + TAU) * tau_conj(ONE + TAU)) == (0, 0)
    v = 0.7 + 0.3j
    w = Bicomplex(cmath.cosh(v), cmath.sinh(v))
    assert sup(w * tau_conj(w) - 1.0) < 1e-12
    assert parts(Bicomplex(1j, 0) * tau_conj(Bicomplex(1j, 0))) == (-1, 0)


@given(bicomplexes)
@settings(max_examples=300, deadline=None)
def test_tau_norm_is_idempotent_product(w):
    # w conj_tau(w) is tau-real, z1^2 - z2^2 = (plus)(minus)
    n = w * tau_conj(w)
    assert n.z2 == 0
    scale = 1 + abs(w.plus * w.minus)
    assert abs(n.z1 - (w.z1 * w.z1 - w.z2 * w.z2)) < 1e-13 * scale
    assert abs(n.z1 - w.plus * w.minus) < 1e-13 * scale


@given(bicomplexes, bicomplexes, bicomplexes)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b, c):
    scale = 1 + max(sup(a), sup(b), sup(c)) ** 3
    d1 = (a * b) * c - a * (b * c)
    assert sup(d1) < 1e-12 * scale
    d2 = a * (b + c) - (a * b + a * c)
    assert sup(d2) < 1e-12 * scale
    d3 = a * b - b * a
    assert sup(d3) < 1e-12 * scale


def test_invert_examples():
    assert parts(invert(ONE)) == (1, 0)
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


def test_scalar_coercion():
    w = Bicomplex(1, 2)
    assert isclose(2 * w, Bicomplex(2, 4))
    assert isclose(w + 1, Bicomplex(2, 2))
    assert isclose((1 + 1j) * TAU, Bicomplex(0, 1 + 1j))


@pytest.mark.parametrize("cls", [BcVec3, BcMat3])
def test_pair_arithmetic(cls):
    rng = np.random.default_rng(4)

    def draw():
        return (rng.standard_normal(cls.SHAPE)
                + 1j * rng.standard_normal(cls.SHAPE))

    x, y = draw(), draw()
    w = tau_parts(cls, x, y)
    assert type(w) is cls and w.plus.shape == cls.SHAPE
    assert np.array_equal(w.plus, x + y) and np.array_equal(w.minus, x - y)
    c = cls.from_complex(x)
    assert np.array_equal(c.plus, x) and np.array_equal(c.minus, x)
    assert not c.plus.flags.writeable
    v = cls(draw(), draw())
    got = w - v
    assert type(got) is cls
    assert np.array_equal(got.plus, w.plus - v.plus)
    assert np.array_equal(got.minus, w.minus - v.minus)
    a = Bicomplex(0.5 - 1j, 2 + 0.25j)
    for s, sp, sm in ((2 - 1j, 2 - 1j, 2 - 1j), (a, a.plus, a.minus)):
        got = w.scale(s)
        assert type(got) is cls
        assert np.array_equal(got.plus, sp * w.plus)
        assert np.array_equal(got.minus, sm * w.minus)
    assert w.norm_max() == max(np.abs(w.plus).max(), np.abs(w.minus).max())
    assert repr(w).startswith(f"{cls.__name__}(plus=")


def test_pair_arithmetic_refuses_foreign_operands():
    # - takes only the same pair type and scale only a C_tau scalar;
    # anything else is a TypeError, never a silent broadcast, and so is
    # an operation the pairs do not carry
    v = BcVec3([1, 2, 3], [1j, 0, 0])
    X = BcMat3(np.eye(3), np.eye(3))
    for bad in (lambda: X - v, lambda: v - X, lambda: v - 1, lambda: 1 - v,
                lambda: v - Bicomplex(1, 0), lambda: v.scale("a"),
                lambda: v.scale(None), lambda: v.scale(v), lambda: X + X,
                lambda: -v, lambda: 2 * v, lambda: v * TAU):
        with pytest.raises(TypeError):
            bad()


def test_mat3_acts_on_vec3():
    X = BcMat3([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 2 * np.eye(3))
    v = BcVec3([1, 2, 3], [1j, 0, 0])
    Xv = X @ v
    assert type(Xv) is BcVec3
    assert np.array_equal(Xv.plus, [2, 3, 1])
    assert np.array_equal(Xv.minus, [2j, 0, 0])
    with pytest.raises(TypeError):
        X @ Bicomplex(1, 0)


def test_pair_arithmetic_lives_once_on_the_base():
    # BcVec3 and BcMat3 share one copy of the pair arithmetic: neither
    # redefines a method of the base
    tree = ast.parse(Path(bicomplex.__file__).read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = (
                {s.name for s in node.body if isinstance(s, ast.FunctionDef)}
                | {t.id for s in node.body if isinstance(s, ast.Assign)
                   for t in s.targets if isinstance(t, ast.Name)})
    shared = {"__init__", "from_complex", "__sub__", "scale", "norm_max",
              "__repr__"}
    assert shared <= names.get("_Pair", set())
    assert names["BcVec3"] == {"__slots__", "SHAPE"}
    assert names["BcMat3"] == {"__slots__", "SHAPE", "__matmul__"}


def test_vec3_basics():
    v = tau_parts(BcVec3, [1, 0, 0], [0, 1, 0])
    assert np.allclose(v.plus, [1, 1, 0])
    assert np.allclose(v.minus, [1, -1, 0])
    assert np.allclose((v.plus + v.minus) / 2, [1, 0, 0])
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
    for part in ("plus", "minus"):
        dZ = np.linalg.det(getattr(Z, part))
        dXdY = np.linalg.det(getattr(X, part)) * np.linalg.det(getattr(Y, part))
        assert abs(dZ - dXdY) < 1e-9 * (1 + abs(dXdY))
    I = X @ BcMat3(np.linalg.inv(X.plus), np.linalg.inv(X.minus))
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
        # the compatibility residual vanishes on the image and flags a
        # minus part perturbed by 1e-6 (holonomy_checks' bound is 1e-9)
        assert compatibility_residual(X) < 1e-12
        assert compatibility_residual(BcMat3(X.plus, X.minus + 1e-6)) > 1e-7


def test_phi_det_identity():
    rng = np.random.default_rng(3)
    A = random_gl3(rng)
    X = phi_iso(A)
    dA = np.linalg.det(A)
    assert abs(np.linalg.det(X.plus) - dA) < 1e-10 * (1 + abs(dA))
    assert abs(np.linalg.det(X.minus) - 1.0 / dA) < 1e-10 * (1 + abs(1 / dA))


def test_phi_singular_rejected():
    with pytest.raises(Singular):
        phi_iso(np.zeros((3, 3)))


def test_norm_max_propagates_nan_in_the_minus_part():
    assert np.isnan(BcMat3(np.eye(3), np.full((3, 3), np.nan)).norm_max())
    assert np.isnan(BcVec3([1.0, 0, 0], [np.nan, 0, 0]).norm_max())
