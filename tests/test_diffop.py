from fractions import Fraction

from susyfactor.core import Poly, QuasiFunction
from susyfactor.diffop import DiffOp, hamiltonian

from conftest import laguerre, legendre

DDX = DiffOp([QuasiFunction.zero(), QuasiFunction.one()])


def test_identity_and_ddx():
    prob = legendre()
    f = QuasiFunction(Poly([1, 2, 3]))
    assert DiffOp.identity().apply(f, prob).eq(f, prob)
    df = DDX.apply(f, prob)
    assert df.eq(QuasiFunction(Poly([2, 6])), prob)


def test_compose_leibniz():
    # d/dx o (x .) = (x .) o d/dx + 1
    prob = legendre()
    x_mul = DiffOp.mul_by(QuasiFunction(Poly.x()))
    lhs = DDX.compose(x_mul, prob)
    rhs = x_mul.compose(DDX, prob).add(DiffOp.identity(), prob)
    assert lhs.equals(rhs, prob)


def test_compose_associative():
    prob = laguerre(1)
    a = DiffOp([QuasiFunction(Poly([1, 1])), QuasiFunction(Poly([0, 2]))])
    b = DiffOp([QuasiFunction(Poly([0, 1])), QuasiFunction.one()])
    c = hamiltonian(prob)
    lhs = a.compose(b, prob).compose(c, prob)
    rhs = a.compose(b.compose(c, prob), prob)
    assert lhs.equals(rhs, prob)


def test_apply_matches_compose():
    prob = legendre()
    a = hamiltonian(prob)
    b = DiffOp([QuasiFunction(Poly([1])), QuasiFunction(Poly([0, 1]))])
    f = QuasiFunction(Poly([1, 0, -3]))
    via_compose = a.compose(b, prob).apply(f, prob)
    direct = a.apply(b.apply(f, prob), prob)
    assert via_compose.eq(direct, prob)


def test_commutator_ddx_x():
    prob = legendre()
    c = DDX.commutator(DiffOp.mul_by(QuasiFunction(Poly.x())), prob)
    assert c.equals(DiffOp.identity(), prob)


def test_conjugate_identity_exponents():
    prob = laguerre(2)
    h = hamiltonian(prob)
    assert h.conjugate(0, 0, prob).equals(h, prob)


def test_conjugate_composes():
    # conjugating twice by p^s accumulates the exponent
    prob = legendre()
    h = hamiltonian(prob)
    once_twice = h.conjugate(Fraction(1, 4), 0, prob).conjugate(
        Fraction(1, 4), 0, prob)
    straight = h.conjugate(Fraction(1, 2), 0, prob)
    assert once_twice.equals(straight, prob)


def test_conjugate_by_weight_symmetrizes_first_order():
    # w^(1/2) H w^(-1/2) has first-order coefficient p' - ... check it is
    # self-adjoint in the flat measure: coeff1 == coeff2'
    prob = laguerre(1)
    h = hamiltonian(prob).conjugate(0, Fraction(1, 2), prob)
    c2 = h.coeff(2)
    c1 = h.coeff(1)
    d_c2 = c2.derive(prob)
    assert c1.eq(d_c2, prob)


def test_equals_incompatible_is_false():
    prob = legendre()
    a = DiffOp.mul_by(QuasiFunction(Poly([1]), Fraction(1, 2), 0))
    b = DiffOp.identity()
    assert not a.equals(b, prob)


def test_hamiltonian_on_constant():
    prob = legendre()
    out = hamiltonian(prob).apply(QuasiFunction.one(), prob)
    assert out.is_zero()


# polynomial mode: Poly coefficients stay Poly, mixed operations lift

def test_poly_coefficients_stay_poly():
    prob = legendre()
    h = hamiltonian(prob)
    assert h.poly and all(isinstance(c, Poly) for c in h.coeffs)
    sq = h.compose(h, prob)
    assert sq.poly and isinstance(h.apply(Poly([1, 2, 3]), prob), Poly)
    assert sq.as_qf().equals(h.as_qf().compose(h.as_qf(), prob), prob)


def test_mixed_operands_lift():
    prob = laguerre(1)
    h = hamiltonian(prob)
    assert not h.compose(DDX, prob).poly
    assert not h.add(DDX, prob).poly
    assert not h.lmul(QuasiFunction(Poly([1]), -1, 0), prob).poly
    assert not h.conjugate(0, 0, prob).poly
    assert isinstance(h.apply(QuasiFunction.one(), prob), QuasiFunction)
    assert h.equals(h.as_qf(), prob)


def test_as_poly_polynomiality_test():
    prob = legendre()
    h = hamiltonian(prob)
    # p^(1/2) conjugation leaves a polynomial operator only after undoing it
    half = h.conjugate(Fraction(1, 2), 0, prob)
    assert half.as_poly(prob) is half
    back = half.conjugate(Fraction(-1, 2), 0, prob).as_poly(prob)
    assert back.poly and back.equals(h, prob)
    # a coefficient c p^-1 with c divisible by p is polynomial
    over_p = DiffOp.mul_by(QuasiFunction(Poly([1, 0, -1]) * Poly([0, 1]),
                                         -1, 0))
    assert over_p.as_poly(prob).coeffs == (Poly.x(),)
    weighted = DiffOp.mul_by(QuasiFunction(Poly([1]), 0, Fraction(1, 2)))
    assert not weighted.as_poly(prob).poly


def test_poly_mode_matches_quasi_function_mode():
    prob = laguerre(2)
    a = DiffOp([Poly([1, 1]), Poly([0, 2]), Poly([3])])
    b = DiffOp([Poly([0, 1]), Poly([1, 0, 1])])
    f = Poly([2, -1, 0, 5])
    for lhs, rhs in ((a.compose(b, prob), a.as_qf().compose(b.as_qf(), prob)),
                     (a.commutator(b, prob),
                      a.as_qf().commutator(b.as_qf(), prob)),
                     (a.sub(b, prob).scale(3),
                      a.as_qf().sub(b.as_qf(), prob).scale(3))):
        assert lhs.poly and not rhs.poly
        assert lhs.equals(rhs, prob) and lhs.as_qf().equals(rhs, prob)
    assert QuasiFunction(a.apply(f, prob)).eq(
        a.as_qf().apply(QuasiFunction(f), prob), prob)
    assert a.compose(b, prob).is_eigen(Poly(), 7, prob)
