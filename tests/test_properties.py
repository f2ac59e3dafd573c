from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from susyfactor.core import Poly, Problem, QuasiFunction
from susyfactor.diffop import DiffOp, hamiltonian
from susyfactor import principal

from oracles import (OracleDegenerate, brute_force_eigen_oracle, poly_ratio,
                     taylor_data)
from test_poly_gauge import QFOp

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3)


def polys(max_degree=3):
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(Poly)


@st.composite
def problems(draw):
    p = Poly([draw(rationals), draw(rationals), draw(rationals)])
    assume(not p.is_zero())
    q = Poly([draw(rationals), draw(rationals)])
    return Problem(p, q)


@given(polys(), polys(), polys())
def test_poly_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys(), polys())
def test_poly_product_derivative(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@given(polys(4), polys(2))
def test_poly_divmod_reconstructs(a, b):
    assume(not b.is_zero())
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(problems(), polys(2), st.integers(-2, 2), st.fractions(
    min_value=-1, max_value=1, max_denominator=2))
def test_canonicalize_preserves_value(prob, c, s, e):
    f = QuasiFunction(c, Fraction(s), Fraction(e))
    g = f.canonicalize(prob)
    assert f.sub(g, prob).is_zero()
    assert g.canonicalize(prob).sub(g, prob).is_zero()


@given(problems(), polys(2), polys(2))
@settings(max_examples=50)
def test_quasi_product_rule(prob, a, b):
    fa = QuasiFunction(a, 1, Fraction(1, 2))
    fb = QuasiFunction(b, 0, Fraction(1, 2))
    lhs = fa.mul(fb, prob).derive(prob)
    rhs = fa.derive(prob).mul(fb, prob).add(fa.mul(fb.derive(prob), prob),
                                            prob)
    assert lhs.sub(rhs, prob).is_zero()


@given(problems(), polys(1), polys(1), polys(1),
       st.lists(st.sampled_from([0, Fraction(1, 2), -1]), min_size=3,
                max_size=3))
@settings(max_examples=30)
def test_diffop_compose_associative(prob, a, b, c, ks):
    A, B, C = (DiffOp([f, 1], k) for f, k in zip((a, b, c), ks))
    lhs = A.compose(B, prob).compose(C, prob)
    rhs = A.compose(B.compose(C, prob), prob)
    assert lhs.sub(rhs, prob).is_zero()


def _first_breakdown(prob, branch, max_level):
    """The branch's recurrence table to max_level, or the level of its
    Breakdown."""
    try:
        return principal.factor_table(prob, branch, max_level)
    except principal.Breakdown as ex:
        return ex.level


@given(problems(), st.integers(0, 40), st.integers(-1, 12), st.booleans())
@settings(max_examples=200, deadline=None)
def test_tables_agree_on_random_problems(prob, max_level, k, forced):
    if forced:
        # q' = -k p'' puts c_k = (k p'' + q')/2 = 0 (every c_l when
        # p'' = 0): the minus table stops at level k + 1, the plus at k
        t = taylor_data(prob)
        prob = Problem(prob.p, Poly([t.q0, -k * t.ppp]))
    for branch in ("minus", "plus"):
        expect = _first_breakdown(prob, branch, max_level)
        if isinstance(expect, int):
            with pytest.raises(principal.Breakdown) as exc:
                principal.direct_match_table(prob, branch, max_level)
            assert exc.value.level == expect
        else:
            assert principal.direct_match_table(prob, branch,
                                                max_level) == expect


@given(problems(), st.integers(0, 5))
@settings(max_examples=40)
def test_ladder_eigenfunction_matches_oracle(prob, l):
    try:
        phi, _ = principal.principal_eigenfunction(prob, l)
        psi, lam = brute_force_eigen_oracle(prob, l)
    except (principal.Breakdown, OracleDegenerate, principal.DegreeError):
        assume(False)
    assert poly_ratio(phi, psi) is not None
    assert hamiltonian(prob).eigen_residual(phi, lam, prob).is_zero()


def _raise_by_ladders(prob, l):
    """The former raise: B_j = ladder_pair(j).raise_ applied to a
    QuasiFunction level by level, on the QFOp reference, rebuilding the
    table at every level."""
    table = principal.factor_table(prob, "minus", l)
    phi = QuasiFunction(Poly.const(1))
    normsq = Fraction(1)
    for j in range(1, l + 1):
        raise_ = principal.ladder_pair(prob, "minus", j)[1]
        phi = QFOp.of(raise_, prob).apply(phi, prob)
        normsq *= table[j].E
    return phi, normsq


@given(problems(), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_poly_raise_matches_ladder_raise(prob, l):
    try:
        table = principal.factor_table(prob, "minus", l)
    except principal.Breakdown:
        assume(False)
    old_phi, old_normsq = _raise_by_ladders(prob, l)
    zeros = [e.level for e in table[1:] if e.E == 0]
    if zeros:
        with pytest.raises(principal.Breakdown) as exc:
            principal.principal_eigenfunction(prob, l)
        assert exc.value.level == zeros[0]
        return
    try:
        phi, normsq = principal.principal_eigenfunction(prob, l)
    except principal.DegreeError:
        assert old_phi.s != 0 or old_phi.e != 0 or old_phi.c.degree != l
        return
    assert (old_phi.s, old_phi.e) == (0, 0)
    assert old_phi.c == phi and old_normsq == normsq
