from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from susyfactor.core import Poly, Problem, rational_sqrt
from susyfactor.diffop import DiffOp, hamiltonian
from susyfactor import degenerate, principal

from conftest import hermite, legendre
from oracles import poly_ratio


def quasi_hermite() -> Problem:
    return Problem(Poly([1]), Poly([0, 2]))


def test_detect_subcases():
    assert degenerate.detect(hermite()) == degenerate.DegeneracyReport(
        True, "hermite", (Fraction(1), Fraction(0)))
    assert degenerate.detect(quasi_hermite()).subcase == "quasi_hermite"
    assert degenerate.detect(
        Problem(Poly([2]), Poly([3]))).subcase == "linear"
    assert degenerate.detect(Problem(Poly([1]), Poly([]))).subcase == "free"
    assert not degenerate.detect(legendre()).is_degenerate


def test_detect_scaling_map():
    # p = 3, q = -6x + 12: xi = (x - 2)/1, radicand (-2*3)/(-6) = 1, shift 2
    prob = Problem(Poly([3]), Poly([12, -6]))
    rep = degenerate.detect(prob)
    assert rep.subcase == "hermite"
    assert rep.scaling == (Fraction(1), Fraction(2))


def test_hermite_generate_matches_operator():
    p, q = degenerate.hermite_operator()
    prob = Problem(p, q)
    h = hamiltonian(prob)
    for l in range(8):
        poly, Lam = degenerate.hermite_generate(l)
        assert Lam == l
        assert poly.degree == l
        assert h.eigen_residual(poly, 2 * Lam, prob).is_zero()


def test_hermite_generate_leading_coefficient():
    poly, _ = degenerate.hermite_generate(4)
    assert poly.coeffs[-1] == 16          # leading term (2 xi)^l


def test_quasi_hermite_generate_eigenvalue():
    prob = quasi_hermite()
    h = hamiltonian(prob)
    for l in range(8):
        poly, lam = degenerate.quasi_hermite_generate(l)
        assert lam == -2 * l
        assert h.eigen_residual(poly, lam, prob).is_zero()


_positive = st.fractions(min_value=Fraction(1, 4), max_value=4,
                         max_denominator=6)


@given(_positive, _positive,
       st.fractions(min_value=-3, max_value=3, max_denominator=5),
       st.sampled_from([-1, 1]))
@settings(max_examples=60, deadline=None)
def test_phi_is_hermite_under_the_detect_scaling(c, s, q0, sign):
    # p = c, q = q1 x + q0 with q1 = -+2c/s^2: detect's radicand is s^2 and
    # x = s xi + shift turns H into (c/s^2)(-d^2/dxi^2 +- 2 xi d/dxi), so
    # Phi_l(x) is proportional to H_l(xi) (q1 < 0) or to the
    # quasi-Hermite D^l 1 (q1 > 0), each generated in xi alone
    prob = Problem(Poly([c]), Poly([q0, sign * 2 * c / s ** 2]))
    rep = degenerate.detect(prob)
    assert rep.subcase == ("hermite" if sign < 0 else "quasi_hermite")
    radicand, shift = rep.scaling
    root = rational_sqrt(radicand)
    assert root == s
    generate = degenerate.hermite_generate if sign < 0 \
        else degenerate.quasi_hermite_generate
    xi = Poly([-shift / root, 1 / root])
    lad = principal.Ladders(prob, 10)
    for l in range(11):
        h, at_xi = generate(l)[0], Poly()
        for coeff in reversed(h.coeffs):
            at_xi = at_xi * xi + Poly.const(coeff)
        assert poly_ratio(lad.phi(l), at_xi) is not None, l


def test_collapse_check_all_true():
    prob = hermite()
    for l in range(5):
        for m in range(l + 1):
            res = degenerate.collapse_check(prob, l, m)
            assert all(r.is_zero() for r in res.values())


def test_collapse_check_rejects_nondegenerate():
    with pytest.raises(ValueError):
        degenerate.collapse_check(legendre(), 2, 1)
    with pytest.raises(ValueError):
        degenerate.collapse_check(hermite(), 2, 3)
