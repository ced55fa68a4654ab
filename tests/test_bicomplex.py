import ast
import cmath
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bchyp import bicomplex
from bchyp.bicomplex import (
    Bicomplex, BcVec3, BcMat3, ONE, TAU, E_PLUS, E_MINUS, Q3,
    tau_conj, invert, phi_iso, compatibility_residual,
    ZeroDivisor, Singular,
)
from oracles import isclose

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
    # the tau-norm w conj_tau(w): 1 + tau is a zero divisor (scaled
    # idempotent), and the unit scalars cosh(v) + tau sinh(v) have norm 1
    assert (ONE + TAU) * tau_conj(ONE + TAU) == 0
    v = 0.7 + 0.3j
    w = Bicomplex(cmath.cosh(v), cmath.sinh(v))
    assert abs(w * tau_conj(w) - 1.0) < 1e-12
    assert Bicomplex(1j, 0) * tau_conj(Bicomplex(1j, 0)) == -1


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


@pytest.mark.parametrize("x", [1, -2, 0.5, 3 + 4j, 1j, 0])
def test_tau_real_values_hash_as_their_number(x):
    w = Bicomplex(x, 0)
    assert w == x and hash(w) == hash(x)
    assert w in {x} and x in {w}
    assert {x: "x"}[w] == "x"
    assert Bicomplex(x, -0.0) in {w}
    assert TAU + x not in {x}


@pytest.mark.parametrize("cls", [BcVec3, BcMat3])
def test_pair_arithmetic(cls):
    rng = np.random.default_rng(4)

    def draw():
        return (rng.standard_normal(cls.SHAPE)
                + 1j * rng.standard_normal(cls.SHAPE))

    x, y = draw(), draw()
    w = cls.from_tau_parts(x, y)
    assert type(w) is cls and w.plus.shape == cls.SHAPE
    assert np.allclose(w.z1, x, rtol=0, atol=1e-14)
    assert np.allclose(w.z2, y, rtol=0, atol=1e-14)
    c = cls.from_complex(x)
    assert np.array_equal(c.plus, x) and np.array_equal(c.minus, x)
    assert not c.plus.flags.writeable
    v = cls(draw(), draw())
    for got, p, m in ((w + v, w.plus + v.plus, w.minus + v.minus),
                      (w - v, w.plus - v.plus, w.minus - v.minus),
                      (-w, -w.plus, -w.minus)):
        assert type(got) is cls
        assert np.array_equal(got.plus, p) and np.array_equal(got.minus, m)
    a = Bicomplex(0.5 - 1j, 2 + 0.25j)
    for s, sp, sm in ((2 - 1j, 2 - 1j, 2 - 1j), (a, a.plus, a.minus)):
        for got in (w.scale(s), w * s, s * w):
            assert type(got) is cls
            assert np.array_equal(got.plus, sp * w.plus)
            assert np.array_equal(got.minus, sm * w.minus)
    t = w.tau_conj()
    assert np.array_equal(t.plus, w.minus) and np.array_equal(t.minus, w.plus)
    assert np.array_equal(t.tau_conj().plus, w.plus)
    assert np.array_equal(t.tau_conj().minus, w.minus)
    assert w.norm_max() == max(np.abs(w.plus).max(), np.abs(w.minus).max())
    assert repr(w).startswith(f"{cls.__name__}(plus=")


def test_pair_arithmetic_refuses_foreign_operands():
    # + and - take only the same pair type, * and scale only a C_tau
    # scalar; anything else is a TypeError, never a silent broadcast
    v = BcVec3([1, 2, 3], [1j, 0, 0])
    X = BcMat3.identity()
    for bad in (lambda: X + v, lambda: v + X, lambda: X - v, lambda: v - X,
                lambda: v + 1, lambda: 1 - v, lambda: v + Bicomplex(1, 0),
                lambda: v * "a", lambda: "a" * v, lambda: v * None,
                lambda: v * v, lambda: X * X, lambda: v.scale("a")):
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


def test_mat3_inv_rejects_a_singular_part():
    with pytest.raises(Singular, match="idempotent determinant too small"):
        BcMat3(np.eye(3), np.diag([1.0, 1.0, 0.0])).inv()


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
    shared = {"__init__", "from_tau_parts", "from_complex", "z1", "z2",
              "tau_conj", "__add__", "__sub__", "__neg__", "scale",
              "__mul__", "__rmul__", "norm_max", "__repr__"}
    assert shared <= names.get("_Pair", set())
    assert names["BcVec3"] == {"__slots__", "SHAPE"}
    assert names["BcMat3"] == {"__slots__", "SHAPE", "identity",
                               "__matmul__", "det", "inv"}


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
        # the compatibility residual vanishes on the image and flags a
        # minus part perturbed by 1e-6 (holonomy_checks' bound is 1e-9)
        assert compatibility_residual(X) < 1e-12
        assert compatibility_residual(BcMat3(X.plus, X.minus + 1e-6)) > 1e-7


def test_phi_det_identity():
    rng = np.random.default_rng(3)
    A = random_gl3(rng)
    d = phi_iso(A).det()
    dA = np.linalg.det(A)
    assert abs(d.plus - dA) < 1e-10 * (1 + abs(dA))
    assert abs(d.minus - 1.0 / dA) < 1e-10 * (1 + abs(1 / dA))


def test_phi_singular_rejected():
    with pytest.raises(Singular):
        phi_iso(np.zeros((3, 3)))


def test_norm_max_propagates_nan_in_the_minus_part():
    assert np.isnan(BcMat3(np.eye(3), np.full((3, 3), np.nan)).norm_max())
    assert np.isnan(BcVec3([1.0, 0, 0], [np.nan, 0, 0]).norm_max())
