"""Constant-p degeneracy: collapsed ladders and (quasi-)Hermite generation.

When p is a positive constant the associated hierarchy collapses onto the
principal one: every H^a_m equals H_0, all shape-invariance constants
coincide with -q', and the ladder pairs lose their level dependence.  The
eigen-structure is then the Hermite family (q' < 0), its non-normalizable
quasi-Hermite mirror (q' > 0), or the linear/free leftovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Poly, Problem
from .diffop import DiffOp
from .associated import _bottom_up, _lambda_numerator, assoc_delta_plus
from .principal import Ladders, _constant, principal_eigenfunction

# how many principal ladder pairs and deltas collapse_check compares
COLLAPSE_DEPTH = 10


@dataclass(frozen=True)
class DegeneracyReport:
    is_degenerate: bool
    subcase: Optional[str]                       # hermite | quasi_hermite | linear | free
    # affine map x = sqrt(radicand) * t + shift onto the xi/zeta coordinate
    scaling: Optional[tuple[Fraction, Fraction]]


def detect(prob: Problem) -> DegeneracyReport:
    """Degenerate iff p is a positive constant; classify by the sign of q'.

    Over prob.taylor the radicand is -+2 P0/Q1 and the shift -Q0/Q1."""
    _, _, Q1, _, Q0, P0 = prob.taylor
    if prob.p.degree != 0 or P0 <= 0:
        return DegeneracyReport(False, None, None)
    if Q1 == 0:
        return DegeneracyReport(True, "free" if Q0 == 0 else "linear", None)
    subcase = "hermite" if Q1 < 0 else "quasi_hermite"
    radicand = Fraction((-2 if Q1 < 0 else 2) * P0, Q1)
    return DegeneracyReport(True, subcase, (radicand, Fraction(-Q0, Q1)))


def hermite_operator() -> tuple[Poly, Poly]:
    """(p, q) of the scaled Hermite operator -d^2/dxi^2 + 2 xi d/dxi."""
    return Poly.const(1), Poly([0, -2])


def hermite_generate(l: int) -> tuple[Poly, Fraction]:
    """Unnormalized Hermite polynomial B^l 1 with B = -d/dxi + 2 xi.

    Returns (polynomial, Lambda_l = l); the operator -d^2 + 2 xi d/dxi has
    the eigenvalue 2 Lambda_l on it.
    """
    if l < 0:
        raise ValueError("level must be >= 0")
    h = Poly.const(1)
    two_xi = Poly([0, 2])
    for _ in range(l):
        h = -h.derivative() + two_xi * h
    return h, Fraction(l)


def quasi_hermite_generate(l: int) -> tuple[Poly, Fraction]:
    """Unnormalized quasi-Hermite polynomial D^l 1 with D = -d/dzeta - 2 zeta.

    Returns (polynomial, eigenvalue -2l of -d^2 - 2 zeta d/dzeta).  These
    solutions are not normalizable against e^(zeta^2); that divergence is a
    documented property, not an error.
    """
    if l < 0:
        raise ValueError("level must be >= 0")
    h = Poly.const(1)
    two_zeta = Poly([0, 2])
    for _ in range(l):
        h = -h.derivative() - two_zeta * h
    return h, Fraction(-2 * l)


def collapse_check(prob: Problem, l: int, m: int,
                   lad: Optional[Ladders] = None) -> dict[str, DiffOp]:
    """Residuals of the collapse of the associated hierarchy when p is
    constant, each zero exactly when its statement holds.

    eigenvalue:    lambda_lm = lambda^-_(l-m), on integers over 2D
    eigenfunction: the polynomial part of Phi_lm is proportional to Phi_(l-m)
    delta_n:       Delta^+_n equals -q', for n = 1..COLLAPSE_DEPTH
    lower_j, raise_j: the principal ladder pair at level j is the one at
                   level 0, for j = 1..COLLAPSE_DEPTH

    Every level has its own residual, so none can cancel another.  A given
    context must reach level max(l, COLLAPSE_DEPTH); the residuals of the
    deltas and ladders depend on neither l nor m and are kept in it.
    """
    if not detect(prob).is_degenerate:
        raise ValueError("problem is not degenerate")
    if not 0 <= m <= l:
        raise ValueError("need 0 <= m <= l")
    if lad is None:
        lad = Ladders(prob, max(l, COLLAPSE_DEPTH))
    # lambda = L/2D, as _lambda_numerator's lambda_lm
    lam = _constant((_lambda_numerator(prob, l, m)
                     - lad.fields("minus", l - m)[4][0], 2 * prob.taylor[0]))

    # both have full degree (DegreeError otherwise): cross-multiply by the
    # leading coefficients
    c = _bottom_up(lad, l, m).coeff(0)
    base, _ = principal_eigenfunction(prob, l - m, lad)
    fun = DiffOp([c * base.coeffs[-1] - base * c.coeffs[-1]])

    def levels():
        D, _, Q1, *_ = prob.taylor
        out = {f"delta_{n}": DiffOp([assoc_delta_plus(prob, n)
                                     + Fraction(Q1, D)])
               for n in range(1, COLLAPSE_DEPTH + 1)}
        (lower0, raise0), *pairs = [lad.pair("minus", j)
                                    for j in range(COLLAPSE_DEPTH + 1)]
        for j, (lower, raise_) in enumerate(pairs, 1):
            out[f"lower_{j}"] = lower.sub(lower0, prob)
            out[f"raise_{j}"] = raise_.sub(raise0, prob)
        return out
    return {"eigenvalue": lam, "eigenfunction": fun,
            **lad.memo("collapse levels", levels)}
