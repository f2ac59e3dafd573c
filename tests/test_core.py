from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from susyfactor.core import Poly, Problem, QuasiFunction

from conftest import hermite, laguerre, legendre
from oracles import taylor_data


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
    t = taylor_data(prob)
    assert t.ppp == -2 and t.pp0 == 0 and t.p0 == 1
    assert t.qp == -2 and t.q0 == 0
    assert prob.taylor == (1, -2, -2, 0, 0, 1)


@pytest.mark.parametrize("prob", [
    legendre(), laguerre(Fraction(1, 2)), hermite(),
    Problem(Poly([2, Fraction(1, 3), Fraction(-1, 2)]),
            Poly([Fraction(1, 4), Fraction(-3, 2)]))],
    ids=["legendre", "laguerre", "hermite", "every datum nonzero"])
def test_taylor_record_is_the_taylor_data_over_its_lcm(prob):
    D, *nums = prob.taylor
    assert D > 0 and all(isinstance(n, int) for n in nums)
    t = taylor_data(prob)
    assert [Fraction(n, D) for n in nums] == [t.ppp, t.qp, t.pp0, t.q0, t.p0]
    assert gcd(D, *nums) == 1


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
    assert f.sub(expect, prob).is_zero()


def test_derive_product_rule():
    prob = legendre()
    a = QuasiFunction(Poly([0, 1]), 1, Fraction(1, 2))
    b = QuasiFunction(Poly([2, 1]), -1, Fraction(1, 2))
    lhs = a.mul(b, prob).derive(prob)
    rhs = a.derive(prob).mul(b, prob).add(a.mul(b.derive(prob), prob), prob)
    assert lhs.sub(rhs, prob).is_zero()


def test_add_incompatible_powers():
    prob = legendre()
    a = QuasiFunction(Poly([1]), Fraction(1, 2), 0)
    b = QuasiFunction(Poly([1]), 0, 0)
    with pytest.raises(ValueError):
        a.add(b, prob)
    c = QuasiFunction(Poly([1]), 0, 1)
    with pytest.raises(ValueError):
        b.add(c, prob)


class RefPoly:
    """The former Poly: a tuple of Fractions, one Fraction op per step."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly([self[k] + other[k] for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly([self[k] - other[k] for k in range(n)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefPoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return RefPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def derivative(self):
        return RefPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other):
        d = len(other.coeffs) - 1
        q = [Fraction(0)] * max(0, len(self.coeffs) - d)
        rem = list(self.coeffs)
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            f = rem[k] / other.coeffs[-1]
            q[k - d] = f
            for j, b in enumerate(other.coeffs):
                rem[k - d + j] -= f * b
        return RefPoly(q), RefPoly(rem)


# wide numerators and denominators, so leading coefficients of both signs,
# non-unit leads and shared factors all occur
scalars = st.fractions(min_value=-50, max_value=50, max_denominator=36)
coeff_lists = st.lists(scalars, max_size=7)


def _canonical(p):
    if not p.num:
        return p.den == 1
    return p.den > 0 and p.num[-1] != 0 and gcd(p.den, *p.num) == 1


def _same(p, ref):
    return _canonical(p) and p.coeffs == ref.coeffs \
        and all(p[k] == ref[k] for k in range(-1, len(ref.coeffs) + 2))


@given(coeff_lists, coeff_lists, scalars, st.integers(-30, 30))
@settings(max_examples=300)
def test_poly_matches_fraction_tuple_reference(a, b, s, n):
    pa, pb, ra, rb = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    assert _same(pa, ra) and _same(pb, rb)
    assert _same(pa + pb, ra + rb)
    assert _same(pa - pb, ra - rb)
    assert _same(-pa, RefPoly() - ra)
    assert _same(pa * pb, ra * rb)
    assert _same(pa * s, ra * s) and _same(s * pa, ra * s)
    assert _same(pa * n, ra * n) and _same(n * pa, ra * n)
    assert _same(pa.derivative(), ra.derivative())
    for x in (s, Fraction(n), n, Fraction(0)):
        assert pa(x) == ra(x) and isinstance(pa(x), Fraction)
    if b:
        assert float(pa(float(b[0]))) == pytest.approx(
            float(ra(b[0])), rel=1e-9, abs=1e-9)


@given(coeff_lists, coeff_lists)
@settings(max_examples=300)
def test_poly_divmod_matches_reference(a, b):
    pa, pb = Poly(a), Poly(b)
    if pb.is_zero():
        with pytest.raises(ZeroDivisionError):
            pa.divmod(pb)
        return
    q, r = pa.divmod(pb)
    rq, rr = RefPoly(a).divmod(RefPoly(b))
    assert _same(q, rq) and _same(r, rr)
    assert q * pb + r == pa
    assert r.is_zero() or r.degree < pb.degree
    # a constant divisor leaves no remainder
    c = Poly([b[-1] or 1])
    q, r = pa.divmod(c)
    assert r.is_zero() and q * c == pa and _canonical(q)


@given(coeff_lists, coeff_lists, scalars)
@settings(max_examples=200)
def test_poly_equality_and_hash_are_structural(a, b, s):
    pa, pb = Poly(a), Poly(b)
    # the same value built along different paths
    for other in ((pa + pb) - pb, pa * 1, (pa * 3) * Fraction(1, 3),
                  Poly(list(a) + [0, 0]), Poly(str(c) for c in a)):
        assert other == pa and hash(other) == hash(pa)
        assert (other.num, other.den) == (pa.num, pa.den)
    assert (pa == pb) == (RefPoly(a).coeffs == RefPoly(b).coeffs)
    if s != 0:
        assert (pa * s == pa) == (pa.is_zero() or s == 1)
    assert (Poly([s]) == s) and (Poly([s]) == Poly.const(s))


def test_poly_coefficient_view_is_built_once():
    p = Poly([1, 2]) * Poly([Fraction(1, 3), 5])
    assert p.num == (1, 17, 30) and p.den == 3
    assert p.coeffs is p.coeffs
    assert p[1] is p.coeffs[1] == Fraction(17, 3)
