from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from susyfactor.core import Poly, Problem
from susyfactor.diffop import hamiltonian
from susyfactor import principal

from conftest import FAMILIES, hermite, laguerre, legendre
from oracles import (OracleDegenerate, brute_force_eigen_oracle, poly_ratio,
                     taylor_data)
from test_properties import problems, rationals


def test_factor_table_matches_direct_match(family):
    for branch in ("minus", "plus"):
        assert principal.factor_table(family, branch, 400) == \
            principal.direct_match_table(family, branch, 400)


def test_legendre_minus_lambdas():
    table = principal.factor_table(legendre(), "minus", 5)
    assert [e.lam for e in table] == [0, 2, 6, 12, 20, 30]


def test_plus_branch_symmetries(family):
    minus = principal.factor_table(family, "minus", 7)
    plus = principal.factor_table(family, "plus", 7)
    t = taylor_data(family)
    shift = t.ppp - t.qp
    for l in range(6):
        pl = plus[l + 1]        # plus table starts at level -1
        assert pl.alpha == -minus[l + 1].alpha
        assert pl.beta == -minus[l + 1].beta
        assert pl.E == minus[l + 1].E
        assert pl.lam - minus[l].lam == shift
    # stored deltas are E-gaps; with plus levels starting at -1, the gap
    # at plus index i equals the minus gap at the same index
    for i in range(1, 8):
        assert plus[i].delta == minus[i].delta


def test_breakdown_level_and_partial_table():
    prob = Problem(Poly([1, 0, -1]), Poly([0, 6]))   # c_3 = 0
    with pytest.raises(principal.Breakdown) as exc:
        principal.factor_table(prob, "minus", 6)
    assert exc.value.level == 4
    partial = principal.factor_table(prob, "minus", 3)
    assert [e.level for e in partial] == [0, 1, 2, 3]


def test_eigenfunction_satisfies_operator(family):
    h = hamiltonian(family)
    for l in range(7):
        phi, normsq = principal.principal_eigenfunction(family, l)
        lam = principal.factor_table(family, "minus", l)[l].lam
        assert h.eigen_residual(phi, lam, family).is_zero()
        assert phi.degree == l
        assert normsq != 0


def test_eigenfunction_matches_oracle(family):
    for l in range(9):
        phi, _ = principal.principal_eigenfunction(family, l)
        psi, lam = brute_force_eigen_oracle(family, l)
        assert lam == principal.factor_table(family, "minus", l)[l].lam
        assert poly_ratio(phi, psi) is not None


@pytest.mark.parametrize("p, q", [
    (Poly([0, 1, 1]), Poly([0, -3])),                        # x^2 + x, -3x
    (Poly([Fraction(3, 2), -1]), Poly([-2, Fraction(4, 3)])),
])
def test_vanishing_norm_is_breakdown(p, q):
    # E_1 = 0 with a nonzero alpha_1: the table builds, the norm vanishes
    prob = Problem(p, q)
    assert principal.factor_table(prob, "minus", 1)[1].E == 0
    with pytest.raises(principal.Breakdown) as exc:
        principal.principal_eigenfunction(prob, 1)
    assert exc.value.level == 1
    with pytest.raises(principal.Breakdown):
        principal.three_term_check(prob, 0)


def test_oracle_degenerate_detection():
    prob = Problem(Poly([1, 0, -1]), Poly([0, 6]))
    with pytest.raises(OracleDegenerate):
        brute_force_eigen_oracle(prob, 4)


def test_shape_invariance_zero(family):
    for l in range(1, 6):
        assert principal.shape_invariance_check(family, "minus", l).is_zero()
    for l in range(6):
        assert principal.shape_invariance_check(family, "plus", l).is_zero()


def test_three_term_zero(family):
    for l in range(6):
        res = principal.three_term_check(family, l)
        assert set(res) == {"multiplicative", "differential"}
        assert all(r.is_zero() for r in res.values())


def test_ladder_pair_product_is_shifted_hamiltonian():
    # (1/p) A_0 B_0 applied after composing equals H_0 + lambda-shift terms;
    # the l = 0 pair must annihilate-and-recreate the ground state
    prob = laguerre(1)
    lower, _ = principal.ladder_pair(prob, "minus", 0)
    assert lower.eigen_residual(Poly.const(1), 0, prob).is_zero()


def test_equivalent_forms_all_true(family):
    for l in range(5):
        assert all(r.is_zero() for r in
                   principal.equivalent_forms_check(family, l).values())


def test_superpotential_w0():
    prob = legendre()
    assert principal.superpotential_w0(prob) == \
        (prob.p.derivative() - prob.q) * Fraction(1, 2)


# p' and q - p' span at most a line: constant p, p' parallel to q - p', and
# linear p with constant q, each with a Taylor denominator D > 1
RANK_ONE = [Problem(Poly([Fraction(1, 2)]), Poly([Fraction(1, 5),
                                                  Fraction(-1, 3)])),
            Problem(Poly([0, 0, Fraction(1, 2)]), Poly([0, 2])),
            Problem(Poly([Fraction(1, 3), Fraction(2, 3)]),
                    Poly([Fraction(5, 7)]))]


@given(st.one_of(problems(), st.sampled_from(RANK_ONE)), rationals,
       rationals, rationals, rationals)
def test_weight_exponents_solve_the_linear_system(prob, s0, e0, u, v):
    a = prob.p.derivative()
    b = prob.q - a
    target = a * s0 + b * e0
    s, e = principal._solve_weight_exponents(prob, target)
    assert a * s + b * e == target
    # a target off the span of p' and q - p' has no exponents
    off = Poly([u, v])
    g = a if not a.is_zero() else b
    inside = a[1] * b[0] != a[0] * b[1] or (
        off.is_zero() if g.is_zero() else g[1] * off[0] == g[0] * off[1])
    got = principal._solve_weight_exponents(prob, off)
    assert (got is not None) == inside
    if got is not None:
        assert a * got[0] + b * got[1] == off
