"""An independent oracle: the ladder identities rebuilt in sympy.

For random rational (p, q) the ladders A_l, B_l, the associated operator
H^a_m and p H^a_m are sympy operators acting on a symbolic f(x), written
from their definitions.  Only the engine's factor tables, Phi_l and the
constants C_lm, E_lm it reports are read; none of its operator algebra.
"""

import random
from fractions import Fraction

import pytest

from susyfactor.core import Poly, Problem
from susyfactor import associated, principal
from oracles import taylor_data

sp = pytest.importorskip("sympy")

x = sp.Symbol("x")
f = sp.Function("f")(x)
LEVELS = 3


def _sym(v):
    if isinstance(v, Poly):
        return sum((_sym(c) * x ** k for k, c in enumerate(v.coeffs)),
                   sp.Integer(0))
    return sp.Rational(v.numerator, v.denominator)


def _random_problem(rng):
    def rat():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    p = Poly([rat(), rat(), rat()])
    if p.is_zero():
        p = Poly([1])
    return Problem(p, Poly([rat(), rat()]))


def _is_zero(expr) -> bool:
    # a rational function of x and sqrt(p): zero iff its numerator expands
    # to zero
    return sp.expand(sp.numer(sp.together(sp.expand(expr)))) == 0


class Ladders:
    """A_l g = p g' + (W_l - W0) g and B_l g = -p g' + (W_l + W0) g, with
    W0 = (p' - q)/2 and W_l = alpha_l x + beta_l from the engine's table."""

    def __init__(self, prob):
        self.prob = prob
        self.p, self.q = _sym(prob.p), _sym(prob.q)
        self.w0 = (sp.diff(self.p, x) - self.q) / 2
        self.tables = {b: principal.factor_table(prob, b, LEVELS)
                       for b in ("minus", "plus")}

    def entry(self, branch, l):
        return self.tables[branch][l + (branch == "plus")]

    def wl(self, branch, l):
        e = self.entry(branch, l)
        return _sym(e.alpha) * x + _sym(e.beta)

    def A(self, branch, l, g):
        return self.p * sp.diff(g, x) + (self.wl(branch, l) - self.w0) * g

    def B(self, branch, l, g):
        return -self.p * sp.diff(g, x) + (self.wl(branch, l) + self.w0) * g


def _assoc_h(p, q, m, g):
    """H^a_m g = h_m h_m^dagger g with h_m = -sqrt(p) d/dx +
    (p'/2 - q)/sqrt(p) - m (sqrt p)' and h_m^dagger = sqrt(p) d/dx
    - m (sqrt p)'."""
    s = sp.sqrt(p)
    shift = -m * sp.diff(s, x)
    up = s * sp.diff(g, x) + shift * g
    return -s * sp.diff(up, x) + ((sp.diff(p, x) / 2 - q) / s + shift) * up


def _problems():
    rng = random.Random(20231)
    out = []
    while len(out) < 6:
        prob = _random_problem(rng)
        try:
            principal.factor_table(prob, "minus", LEVELS)
            principal.factor_table(prob, "plus", LEVELS)
            principal.principal_eigenfunction(prob, LEVELS)
        except (principal.Breakdown, principal.DegreeError):
            continue
        t = taylor_data(prob)
        if prob.p.degree == 2 and all(l * t.ppp + t.qp
                                      for l in range(LEVELS)):
            out.append(prob)
    return out


PROBLEMS = _problems()


@pytest.mark.parametrize("prob", PROBLEMS, ids=str)
def test_shape_invariance(prob):
    lad = Ladders(prob)
    for l in range(1, LEVELS + 1):
        delta = _sym(lad.entry("minus", l).delta)
        res = lad.A("minus", l, lad.B("minus", l, f)) \
            - lad.B("minus", l - 1, lad.A("minus", l - 1, f)) - delta * f
        assert _is_zero(res), l
    for l in range(0, LEVELS + 1):
        delta = _sym(lad.entry("plus", l).delta)
        res = lad.B("plus", l, lad.A("plus", l, f)) \
            - lad.A("plus", l - 1, lad.B("plus", l - 1, f)) - delta * f
        assert _is_zero(res), l


@pytest.mark.parametrize("prob", PROBLEMS, ids=str)
def test_pHm_factorization(prob):
    """p H^a_m - lambda_lm p + E_lm = (B_l + C)(A_l + C) on f."""
    lad = Ladders(prob)
    for l in range(LEVELS + 1):
        for m in range(l + 1):
            C, E, _ = associated.pHm_factorization(prob, l, m)
            C, E = _sym(C), _sym(E)
            lam = _sym(associated.assoc_lambda(prob, l, m))
            g = lad.A("minus", l, f) + C * f
            rhs = lad.B("minus", l, g) + C * g
            lhs = lad.p * _assoc_h(lad.p, lad.q, m, f) - lam * lad.p * f \
                + E * f
            assert _is_zero(lhs - rhs), (l, m)


@pytest.mark.parametrize("prob", PROBLEMS, ids=str)
def test_associated_eigen_equation(prob):
    """H^a_m Phi_lm = lambda_lm Phi_lm with Phi_lm = p^(m/2) d^m Phi_l."""
    p, q = _sym(prob.p), _sym(prob.q)
    for l in range(LEVELS + 1):
        phi_l = _sym(principal.principal_eigenfunction(prob, l)[0])
        for m in range(l + 1):
            phi = p ** sp.Rational(m, 2) * sp.diff(phi_l, x, m)
            lam = _sym(associated.assoc_lambda(prob, l, m))
            res = _assoc_h(p, q, m, phi) - lam * phi
            assert _is_zero(res / p ** sp.Rational(m, 2)), (l, m)
