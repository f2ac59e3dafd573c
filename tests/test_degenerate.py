from fractions import Fraction

import pytest

from susyfactor.core import Poly, Problem
from susyfactor.diffop import DiffOp, hamiltonian
from susyfactor import degenerate

from conftest import hermite, legendre


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
