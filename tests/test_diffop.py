from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from susyfactor import associated, cli, principal
from susyfactor.core import Poly, Problem, QuasiFunction
from susyfactor.diffop import DiffOp, hamiltonian

from conftest import FAMILIES, hermite, laguerre, legendre
from oracles import apply, taylor_data
from test_poly_gauge import QFOp
from test_properties import polys, problems

DDX = DiffOp([0, 1])
ONE = DiffOp([1])


def test_identity_and_ddx():
    prob = legendre()
    f = DiffOp([Poly([1, 2, 3])])
    assert apply(ONE, f, prob).sub(f, prob).is_zero()
    assert apply(DDX, f, prob).sub(DiffOp([Poly([2, 6])]), prob).is_zero()
    # d/dx p^(1/2) = p^(-1/2) p'/2, and p' = -2x
    root = DiffOp([1], Fraction(1, 2))
    assert apply(DDX, root, prob).sub(
        DiffOp([Poly([0, -1])], Fraction(-1, 2)), prob).is_zero()


def test_compose_leibniz():
    # d/dx o (x .) = (x .) o d/dx + 1
    prob = legendre()
    x_mul = DiffOp([Poly.x()])
    lhs = DDX.compose(x_mul, prob)
    rhs = x_mul.compose(DDX, prob).add(ONE, prob)
    assert lhs.sub(rhs, prob).is_zero()


def test_compose_associative():
    prob = laguerre(1)
    a = DiffOp([Poly([1, 1]), Poly([0, 2])], Fraction(1, 2))
    b = DiffOp([Poly([0, 1]), 1], -1)
    c = hamiltonian(prob)
    lhs = a.compose(b, prob).compose(c, prob)
    rhs = a.compose(b.compose(c, prob), prob)
    assert lhs.sub(rhs, prob).is_zero()


def test_apply_matches_compose():
    prob = legendre()
    a = hamiltonian(prob)
    b = DiffOp([Poly([1]), Poly([0, 1])], Fraction(-1, 2))
    f = DiffOp([Poly([1, 0, -3])], Fraction(1, 2))
    via_compose = apply(a.compose(b, prob), f, prob)
    direct = apply(a, apply(b, f, prob), prob)
    assert via_compose.sub(direct, prob).is_zero()


def test_commutator_ddx_x():
    prob = legendre()
    x_mul = DiffOp([Poly.x()])
    c = DDX.compose(x_mul, prob).sub(x_mul.compose(DDX, prob), prob)
    assert c.sub(ONE, prob).is_zero()


def test_conjugate_identity_exponents():
    prob = laguerre(2)
    h = hamiltonian(prob)
    assert h.conjugate(0, 0, prob).sub(h, prob).is_zero()


def test_conjugate_composes():
    # conjugating twice by p^s accumulates the exponent
    prob = legendre()
    h = hamiltonian(prob)
    once_twice = h.conjugate(Fraction(1, 4), 0, prob).conjugate(
        Fraction(1, 4), 0, prob)
    straight = h.conjugate(Fraction(1, 2), 0, prob)
    assert once_twice.sub(straight, prob).is_zero()


def test_conjugate_by_weight_symmetrizes_first_order():
    # w^(1/2) H w^(-1/2) is self-adjoint in the flat measure: with the
    # shared p^k, coefficient 1 is the derivative of coefficient 2
    prob = laguerre(1)
    h = hamiltonian(prob).conjugate(0, Fraction(1, 2), prob)
    c2 = DiffOp([h.coeff(2)], h.k)
    c1 = DiffOp([h.coeff(1)], h.k)
    assert c1.sub(apply(DDX, c2, prob), prob).is_zero()


def test_incommensurate_sub_raises():
    prob = legendre()
    a = DiffOp([1], Fraction(1, 2))
    with pytest.raises(ValueError):
        a.sub(ONE, prob)
    assert a.sub(DiffOp([1], Fraction(1, 2)), prob).is_zero()


def test_hamiltonian_on_constant():
    prob = legendre()
    assert hamiltonian(prob).eigen_residual(Poly.const(1), 0, prob).is_zero()
    assert apply(hamiltonian(prob), ONE, prob).is_zero()


@given(problems(), st.lists(polys(2), max_size=3), st.integers(-2, 2),
       polys(4), st.fractions(min_value=-4, max_value=4, max_denominator=3))
@settings(max_examples=60)
def test_eigen_residual_is_apply_minus_lam_f(prob, coeffs, k, f, lam):
    op = DiffOp(coeffs, k)
    res = op.eigen_residual(f, lam, prob)
    ref = apply(op, DiffOp([f]), prob).sub(DiffOp([f * lam]), prob)
    assert res.sub(ref, prob).is_zero()


@given(st.sampled_from(list(FAMILIES.values())), st.integers(0, 6),
       st.fractions(min_value=-4, max_value=4, max_denominator=5))
@settings(max_examples=40)
def test_wrong_eigenvalue_leaves_its_gap_times_f(prob, l, gap):
    # H0 and p^-1 A_0 B_0 (k = -1) on Phi_l: a trial eigenvalue off by gap
    # leaves exactly (lambda - trial) Phi_l = -gap Phi_l
    lad = principal.Ladders(prob, l)
    phi, lam = lad.phi(l), Fraction(*lad.fields("minus", l)[4])
    over_p = DiffOp(lad.ab("minus", 0).coeffs, -1)
    t = taylor_data(prob)
    lam_plus = lam + t.ppp - t.qp
    for op, eig in ((hamiltonian(prob), lam), (over_p, lam_plus)):
        assert op.eigen_residual(phi, eig, prob).is_zero()
        res = op.eigen_residual(phi, eig + gap, prob)
        assert res.sub(DiffOp([phi * -gap]), prob).is_zero()


def test_eigen_residual_on_a_half_integer_power():
    # p^(1/2) d/dx: with a side vanishing the residual is one function,
    # with both sides present it is no p^s c and sub refuses
    prob = legendre()
    op = DiffOp([0, 1], Fraction(1, 2))
    res = op.eigen_residual(Poly([0, 2]), 0, prob)
    assert res.k == Fraction(1, 2) and res.coeffs == (Poly([2]),)
    res = op.eigen_residual(Poly([3]), 5, prob)
    assert res.k == 0 and res.coeffs == (Poly([-15]),)
    with pytest.raises(ValueError):
        op.eigen_residual(Poly([0, 1]), 1, prob)


# one ring: Poly coefficients and one exponent k of p

def test_poly_coefficients_stay_poly():
    prob = legendre()
    h = hamiltonian(prob)
    ops = [h, h.compose(h, prob), h.conjugate(Fraction(1, 3), 1, prob),
           associated.assoc_ladders(prob, 3)[0].compose(h, prob)]
    for op in ops:
        assert all(isinstance(c, Poly) for c in op.coeffs)
    assert h.k == 0 and ops[1].k == 0
    assert ops[3].k.denominator == 2


def test_k_is_a_half_integer_held_as_twice_itself(monkeypatch):
    # 2k must be an integer; every operator the verify suites build holds
    # it as the int h, with k its Fraction view
    with pytest.raises(ValueError):
        DiffOp([1], Fraction(1, 3))
    assert DiffOp([1], Fraction(-3, 2)).h == -3 and DiffOp([1], 2).h == 4
    built = []
    make, init, at = DiffOp._make, DiffOp.__init__, DiffOp._at

    def kept(op):
        built.append(op)
        return op

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kept(self)
    monkeypatch.setattr(DiffOp, "_make",
                        classmethod(lambda cls, *args: kept(make(*args))))
    monkeypatch.setattr(DiffOp, "__init__", counted_init)
    monkeypatch.setattr(DiffOp, "_at", lambda self, h: kept(at(self, h)))
    for prob in FAMILIES.values():
        cli._verify_residuals(prob, 8, Fraction(0))
    assert len(built) > 1000
    assert all(type(op.h) is int and op.k == Fraction(op.h, 2)
               for op in built)


def test_k_aligns_by_integer_powers_of_p():
    prob = laguerre(1)                       # p = x
    assert DiffOp([Poly.x()], -1).sub(ONE, prob).is_zero()
    s = DiffOp([1], -1).add(DDX, prob)
    assert s.k == -1 and s.coeffs == (Poly([1]), Poly.x())
    h = hamiltonian(prob)
    assert DiffOp(h.coeffs, 1).sub(
        DiffOp([c * prob.p for c in h.coeffs]), prob).is_zero()
    # constant p = 4: p^k is a number, but a non-integer difference in k
    # stays incommensurate
    const = Problem(Poly([4]), Poly([0, -2]))
    assert DiffOp([1], 2).sub(DiffOp([16]), const).is_zero()
    assert DiffOp([1], -1).sub(DiffOp([Fraction(1, 4)]), const).is_zero()
    for combine in (DiffOp.add, DiffOp.sub):
        with pytest.raises(ValueError):
            combine(DiffOp([1], Fraction(1, 2)), DiffOp([2]), const)
    assert DiffOp().add(DiffOp([1], Fraction(1, 2)), const).k == \
        Fraction(1, 2)


def test_conjugation_moves_common_p_into_k():
    prob = legendre()
    h = hamiltonian(prob)
    half = h.conjugate(Fraction(1, 2), 0, prob)
    back = half.conjugate(Fraction(-1, 2), 0, prob)
    assert back.k == 0 and back.coeffs == h.coeffs
    # H^a_m is p^-1 times a polynomial operator; on C it is polynomial
    ham = associated.assoc_hamiltonian(prob, 2)
    assert ham.k == -1
    assert ham.conjugate(-1, 0, prob).k == 0
    # constant p divides everything: the integer part of k is folded into
    # the coefficients, the way QuasiFunction.canonicalize folds s
    const = hermite()
    h = hamiltonian(const)
    w = h.conjugate(0, Fraction(1, 2), const)
    assert w.k == 0
    assert w.conjugate(0, Fraction(-1, 2), const).coeffs == h.coeffs
    two = Problem(Poly([2]), Poly([0, -2]))
    folded = DiffOp([1, 1], Fraction(-3, 2)).conjugate(0, 1, two)
    assert 0 <= folded.k < 1


def test_poly_mode_matches_quasi_function_mode():
    prob = laguerre(2)
    a = DiffOp([Poly([1, 1]), Poly([0, 2]), Poly([3])], Fraction(-1, 2))
    b = DiffOp([Poly([0, 1]), Poly([1, 0, 1])], Fraction(1, 2))
    ra, rb = QFOp.of(a, prob), QFOp.of(b, prob)
    fc, fs = Poly([2, -1, 0, 5]), Fraction(1, 2)
    for lhs, rhs in (
            (a.compose(b, prob), ra.compose(rb, prob)),
            (a.compose(b, prob).sub(b.compose(a, prob), prob),
             ra.compose(rb, prob).sub(rb.compose(ra, prob), prob)),
            (a.sub(b, prob).scale(3), ra.sub(rb, prob).scale(3)),
            (a.conjugate(Fraction(1, 3), Fraction(1, 2), prob),
             ra.conjugate(Fraction(1, 3), Fraction(1, 2), prob))):
        assert all(isinstance(c, Poly) for c in lhs.coeffs)
        assert QFOp.of(lhs, prob).sub(rhs, prob).is_zero()
    af = apply(a, DiffOp([fc], fs), prob)
    assert QuasiFunction(af.coeff(0), af.k).sub(
        ra.apply(QuasiFunction(fc, fs), prob), prob).is_zero()
    assert a.compose(b, prob).eigen_residual(Poly(), 7, prob).is_zero()
