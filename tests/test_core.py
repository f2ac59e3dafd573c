from fractions import Fraction

import pytest

from susyfactor.core import Poly, Problem, QuasiFunction

from conftest import hermite, laguerre, legendre


def test_poly_trims_and_indexes():
    p = Poly([1, 2, 0, 0])
    assert p.degree == 1
    assert p[0] == 1 and p[1] == 2 and p[5] == 0
    assert Poly([]).is_zero()
    assert Poly([0, 0]).is_zero()


def test_poly_arithmetic():
    x = Poly.x()
    p = (x - 1) * (x + 1)
    assert p == Poly([-1, 0, 1])
    assert p + 1 == x * x
    assert (2 * p)[2] == 2
    assert (-p) + p == Poly([])
    assert p ** 2 == Poly([1, 0, -2, 0, 1])


def test_poly_derivative_and_eval():
    p = Poly([1, 2, 3])
    assert p.derivative() == Poly([2, 6])
    assert p(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)
    assert abs(p(0.5) - 2.75) < 1e-15


def test_poly_divmod_exact():
    a = Poly([-1, 0, 1])
    b = Poly([1, 1])
    q, r = a.divmod(b)
    assert q == Poly([-1, 1]) and r.is_zero()
    assert Poly([1, 1]).divmod(Poly([0, 1])) == (Poly([1]), Poly([1]))


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(Poly([]), Poly([0, 1]))
    with pytest.raises(ValueError):
        Problem(Poly([0, 0, 0, 1]), Poly([]))
    with pytest.raises(ValueError):
        Problem(Poly([1]), Poly([0, 0, 1]))


def test_problem_taylor_data():
    prob = legendre()
    assert prob.ppp == -2 and prob.pp0 == 0 and prob.p0 == 1
    assert prob.qp == -2 and prob.q0 == 0
    assert prob.c(3) == (3 * -2 + -2) / 2
    assert prob.d(3) == 0


def test_quasi_zero_canonical():
    f = QuasiFunction(Poly([]), 5, 2)
    assert f.is_zero() and f.s == 0 and f.e == 0


def test_canonicalize_absorbs_p():
    prob = legendre()
    f = QuasiFunction(prob.p * Poly([3, 1]), 0, 0).canonicalize(prob)
    assert f.c == Poly([3, 1]) and f.s == 1


def test_canonicalize_constant_p_folds_integer_exponent():
    prob = Problem(Poly([4]), Poly([0, -2]))
    f = QuasiFunction(Poly([1]), Fraction(3, 2), 0).canonicalize(prob)
    assert f.s == Fraction(1, 2)
    assert f.c == Poly([4])


def test_derive_matches_weight_log_derivative():
    # d/dx (w) = w * (q - p')/p, so deriving (1, s=0, e=1) must give
    # ((q - p'), s=-1, e=1) up to canonicalization
    prob = laguerre(2)
    f = QuasiFunction(Poly([1]), 0, 1).derive(prob)
    expect = QuasiFunction(prob.q - prob.p.derivative(), -1, 1)
    assert f.eq(expect, prob)


def test_derive_product_rule():
    prob = legendre()
    a = QuasiFunction(Poly([0, 1]), 1, Fraction(1, 2))
    b = QuasiFunction(Poly([2, 1]), -1, Fraction(1, 2))
    lhs = a.mul(b, prob).derive(prob)
    rhs = a.derive(prob).mul(b, prob).add(a.mul(b.derive(prob), prob), prob)
    assert lhs.eq(rhs, prob)


def test_add_incompatible_powers():
    prob = legendre()
    a = QuasiFunction(Poly([1]), Fraction(1, 2), 0)
    b = QuasiFunction(Poly([1]), 0, 0)
    with pytest.raises(ValueError):
        a.add(b, prob)
    c = QuasiFunction(Poly([1]), 0, 1)
    with pytest.raises(ValueError):
        b.add(c, prob)


def test_proportional_exact_ratio():
    prob = legendre()
    a = QuasiFunction(Poly([3, 0, 6]), 1, 0)
    b = QuasiFunction(Poly([1, 0, 2]), 1, 0)
    assert a.proportional(b, prob) == 3
    assert a.proportional(QuasiFunction(Poly([1, 1]), 1, 0), prob) is None
    assert a.proportional(QuasiFunction.zero(), prob) is None
