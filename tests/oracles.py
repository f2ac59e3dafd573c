"""Test-local oracles and helpers that the package itself never calls.

``brute_force_eigen_oracle`` is an eigenpair built independently of the
ladders.  ``apply`` and ``poly_ratio`` act on the package's one function
type, p^s c held as the zeroth-order ``DiffOp([c], s)``, and on plain
polynomials.
"""

from fractions import Fraction

from susyfactor.core import Poly, Problem
from susyfactor.diffop import DiffOp


class OracleDegenerate(ArithmeticError):
    """Two diagonal eigenvalues coincide; back-substitution is ill-posed."""


def brute_force_eigen_oracle(prob: Problem, l: int) -> tuple[Poly, Fraction]:
    """Independent eigenpair from the upper-triangular monomial action.

    -p d^2 - q d maps degree-k monomials into degree <= k, so eigenvalues
    sit on the diagonal and the eigenvector follows by back-substitution.
    """
    if l < 0:
        raise ValueError("level must be >= 0")
    p2, p1, p0 = prob.p[2], prob.p[1], prob.p[0]
    q1, q0 = prob.q[1], prob.q[0]

    def diag(k: int) -> Fraction:
        return -k * (k - 1) * p2 - k * q1

    lam = diag(l)
    for k in range(l):
        if diag(k) == lam:
            raise OracleDegenerate(
                f"diagonal eigenvalues coincide at degrees {k} and {l}")
    v = [Fraction(0)] * (l + 1)
    v[l] = Fraction(1)
    for k in range(l - 1, -1, -1):
        acc = Fraction(0)
        j = k + 1
        acc += (-j * (j - 1) * p1 - j * q0) * v[j]
        if k + 2 <= l:
            j = k + 2
            acc += -j * (j - 1) * p0 * v[j]
        v[k] = acc / (lam - diag(k))
    return Poly(v), lam


def apply(op: DiffOp, f: DiffOp, prob: Problem) -> DiffOp:
    """op f for the function f = p^s c, held as DiffOp([c], s): the
    zeroth-order part of op composed with multiplication by f, reduced."""
    g = op.compose(f, prob)
    return DiffOp([g.coeff(0)], g.k).reduced(prob)


def poly_ratio(a: Poly, b: Poly):
    """Nonzero rational a/b, or None when the polynomials are not
    proportional; cross-multiplied by the leading coefficients."""
    if a.is_zero() or b.is_zero():
        return None
    ka, kb = a.coeffs[-1], b.coeffs[-1]
    return ka / kb if a * kb == b * ka else None
