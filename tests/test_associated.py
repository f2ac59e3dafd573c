from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from susyfactor.core import Poly, Problem
from susyfactor.diffop import DiffOp
from susyfactor import associated
from susyfactor.associated import proportional
from susyfactor.principal import factor_table

from conftest import laguerre, legendre
from oracles import apply, taylor_data


def _fn(c, s) -> DiffOp:
    """The function p^s c."""
    return DiffOp([Poly(c)], Fraction(s))


def test_assoc_lambda_closed_form(family):
    for l in range(6):
        for m in range(l + 1):
            lam = associated.assoc_lambda(family, l, m)
            expect = -(l - m) * taylor_data(family).qp \
                - (l * (l - 1) - m * (m - 1)) * taylor_data(family).ppp / 2
            assert lam == expect
            assert associated.assoc_lambda(family, l, -m) == lam


def test_range_error():
    for build in (associated.assoc_bottom_up, associated.assoc_top_down):
        with pytest.raises(associated.RangeError, match="exceeds"):
            build(legendre(), 2, 3)
        with pytest.raises(associated.RangeError, match="exceeds"):
            build(legendre(), 2, -3)
        with pytest.raises(associated.RangeError, match="level must be >= 0"):
            build(legendre(), -1, 0)


def test_proportional_exact_ratio():
    prob = legendre()
    a = _fn([3, 0, 6], 1)
    assert proportional(a, _fn([1, 0, 2], 1), prob) == 3
    # a factor p in c is a unit of s: equal after reduction
    assert proportional(a, DiffOp([prob.p * Poly([1, 0, 2])]), prob) == 3


def test_proportional_negative_cases():
    prob = legendre()
    a = _fn([3, 0, 6], 1)
    # different s
    assert proportional(a, _fn([3, 0, 6], Fraction(1, 2)), prob) is None
    assert proportional(a, _fn([3, 0, 6], 2), prob) is None
    # a zero side
    assert proportional(a, _fn([], 1), prob) is None
    assert proportional(_fn([], 1), a, prob) is None
    # polynomials that are not proportional
    assert proportional(a, _fn([1, 1], 1), prob) is None


def test_proportional_folds_constant_p():
    # p = 4: s differing by an integer is a number, and reduction folds it
    prob = Problem(Poly([4]), Poly([0, -2]))
    a = _fn([1], Fraction(3, 2))
    assert proportional(a, _fn([4], Fraction(1, 2)), prob) == 1
    assert proportional(a, _fn([1], Fraction(1, 2)), prob) == 4
    assert proportional(a, _fn([1], Fraction(-1, 2)), prob) == 16
    assert proportional(a, _fn([1], 1), prob) is None


def test_verify_associated_all_true(family):
    for l in range(5):
        for m in range(-l, l + 1):
            res = associated.verify_associated(family, l, m)
            assert all(r.is_zero() for r in res.values())


def test_bottom_up_top_down_proportional(family):
    for l in range(6):
        for m in range(l + 1):
            a = associated.assoc_bottom_up(family, l, m)
            b = associated.assoc_top_down(family, l, m)
            assert proportional(a, b, family) is not None


def test_raising_is_exact(family):
    # h_m^dag Phi_lm = Phi_(l,m+1) with ratio exactly 1
    for l in range(1, 5):
        for m in range(l):
            lo, hi = associated.assoc_ladders(family, m)
            up = apply(hi, associated.assoc_bottom_up(family, l, m), family)
            nxt = associated.assoc_bottom_up(family, l, m + 1)
            assert up.sub(nxt, family).is_zero()


def test_lowering_scales_by_lambda(family):
    # h_(m-1) Phi_lm = lambda_(l,m-1) Phi_(l,m-1)
    for l in range(1, 5):
        for m in range(1, l + 1):
            lo, _ = associated.assoc_ladders(family, m - 1)
            down = apply(lo, associated.assoc_bottom_up(family, l, m), family)
            prev = associated.assoc_bottom_up(family, l, m - 1)
            lam = associated.assoc_lambda(family, l, m - 1)
            assert down.sub(prev.scale(lam), family).is_zero()


def test_negative_m_sign_relation(family):
    for l in range(5):
        for m in range(l + 1):
            pos = associated.assoc_bottom_up(family, l, m)
            neg = associated.assoc_bottom_up(family, l, -m)
            assert proportional(neg, pos, family) == (-1) ** m


def test_assoc_shape_invariance_zero(family):
    for n in range(1, 7):
        assert associated.assoc_shape_invariance(family, n).is_zero()


def test_assoc_delta_plus_closed_form(family):
    for n in range(1, 7):
        assert associated.assoc_delta_plus(family, n) == \
            -taylor_data(family).qp - (n - 1) * taylor_data(family).ppp


def test_three_term_zero(family):
    for l in range(2, 6):
        for m in range(1, l):
            res = associated.assoc_three_term(family, l, m)
            assert all(r.is_zero() for r in res.values())


def test_three_term_m0_reduces_to_sign_relation(family):
    # at m = 0 both residuals collapse to Phi_(l,1) + Phi_(l,-1), which
    # vanishes by the sign relation
    for l in range(1, 5):
        res = associated.assoc_three_term(family, l, 0)
        assert all(r.is_zero() for r in res.values())


def test_principal_form_equivalence(family):
    for l in range(4):
        for m in range(l + 1):
            res = associated.principal_form_equivalence(family, l, m)
            assert all(r.is_zero() for r in res.values())


def test_standard_hermitian_relation(family):
    for l in range(4):
        assert associated.standard_hermitian_relation(family, l).is_zero()


def test_pHm_factorization(family):
    for l in range(5):
        for m in range(l + 1):
            C, E_lm, res = associated.pHm_factorization(family, l, m)
            assert res.is_zero()
            if m == 0:
                assert C == 0
                assert E_lm == factor_table(family, "minus", l)[l].E


def test_classify_round_trip(family):
    for l, m in [(3, 0), (4, 2), (5, 1)]:
        ham = associated.assoc_hamiltonian(family, m)
        lam = associated.assoc_lambda(family, l, m)
        op = ham.sub(DiffOp([lam]), family)
        if family.p.degree == 0:
            with pytest.raises(associated.ClassifyError):
                associated.classify_expanded(op, family.p)
            continue
        got_prob, got_m, got_l, got_lam = associated.classify_expanded(
            op, family.p)
        assert (got_prob.p, got_prob.q) == (family.p, family.q)
        assert (got_m, got_l, got_lam) == (m, l, lam)


def _expanded(prob, l, m):
    ham = associated.assoc_hamiltonian(prob, m)
    return ham.sub(DiffOp([associated.assoc_lambda(prob, l, m)]), prob)


def _scan_classify(op, p):
    """Reference: the brute-force scan over m <= 128, l <= 4096."""
    # H^a_m - lambda is p^-1 (N - lambda p - q p d - p^2 d^2)
    assert op.k == -1 and op.coeff(2) == -p * p
    q = -op.coeff(1).divmod(p)[0]
    prob = Problem(p, q)
    if p.degree == 0:
        raise associated.ClassifyError("degenerate: m unidentifiable")
    num = op.coeff(0)
    pprime = p.derivative()
    for m in range(0, 129):
        am = Fraction(m, 2) \
            * (p * taylor_data(prob).ppp + (q - pprime) * pprime) \
            + Fraction(m * m, 4) * pprime * pprime
        quot, rem = (num - am).divmod(p)
        if not rem.is_zero() or quot.degree > 0:
            continue
        lam = -quot[0]
        for l in range(m, 4097):
            if associated.assoc_lambda(prob, l, m) == lam:
                return prob, m, l, lam
    raise associated.ClassifyError("no integer association level fits")


def _outcome(fn, op, p):
    try:
        prob, m, l, lam = fn(op, p)
    except associated.ClassifyError as ex:
        return str(ex)
    return prob.p, prob.q, m, l, lam


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(deadline=None)
@given(rationals, rationals, rationals, rationals, rationals,
       st.integers(0, 30), st.integers(0, 30))
def test_classify_closed_form_matches_scan(p0, p1, p2, q0, q1, l, m):
    p = Poly([p0, p1, p2])
    assume(p.degree >= 1)
    assume(m <= l)
    prob = Problem(p, Poly([q0, q1]))
    op = _expanded(prob, l, m)
    got = _outcome(associated.classify_expanded, op, p)
    if got == "m unidentifiable":
        # only p = a (x - r)^2 with q(r) = 0 leaves m undetermined
        r = -p1 / (2 * p2) if p.degree == 2 else None
        assert r is not None and p1 * p1 == 4 * p2 * p0 and prob.q(r) == 0
    else:
        assert got == _outcome(_scan_classify, op, p)


@pytest.mark.parametrize("l, m", [(5000, 160), (4097, 3)])
def test_classify_past_the_old_scan_caps(l, m):
    for prob in (legendre(), laguerre(1)):
        got = associated.classify_expanded(_expanded(prob, l, m), prob.p)
        assert got[1:] == (m, l, associated.assoc_lambda(prob, l, m))


def test_classify_m_unidentifiable_on_double_root():
    # p = x^2, q = x/4: H^a_m - H_0 is a constant for every m
    prob = Problem(Poly([0, 0, 1]), Poly([0, Fraction(1, 4)]))
    with pytest.raises(associated.ClassifyError, match="m unidentifiable"):
        associated.classify_expanded(_expanded(prob, 6, 4), prob.p)


def test_classify_rejects_constant_part_below_p_inverse():
    # the zeroth-order coefficient p^-2 is no N/p with N a polynomial
    x = Poly.x()
    p = 1 - x * x
    op = DiffOp([1, 2 * x * p * p, -p * p * p], -2)
    with pytest.raises(associated.ClassifyError, match="constant part"):
        associated.classify_expanded(op, p)
