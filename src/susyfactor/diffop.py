"""Differential operators with polynomial or quasi-function coefficients.

Supports composition (Leibniz expansion), commutators, application to
functions, exact equality, and conjugation by weight factors p^s w^e -- the
bilateral wrapper transformations that turn asymmetric factorizations into
supersymmetric ones.

An operator has one of two coefficient rings.  Built from ``Poly`` (or
scalar) coefficients it is in polynomial mode and keeps them as ``Poly``:
compose, apply, add, sub, scale and equals then run in the polynomial ring,
with no division by p.  Built with any ``QuasiFunction`` coefficient, every
coefficient is a ``QuasiFunction`` c p^s w^e.  ``conjugate``, ``lmul`` by a
``QuasiFunction`` and any operation mixing the two modes lift the
polynomial operand once; ``as_poly`` returns to polynomial mode when every
coefficient passes the polynomiality test (e = 0 and an integer s >= 0
after canonicalizing).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from math import comb
from typing import Iterable, Union

from .core import Poly, Problem, QuasiFunction

Function = Union[Poly, QuasiFunction]


def _as_qf(c) -> QuasiFunction:
    if isinstance(c, QuasiFunction):
        return c
    if isinstance(c, Poly):
        return QuasiFunction(c)
    if isinstance(c, (int, Fraction)):
        return QuasiFunction(Poly.const(c))
    raise TypeError(f"not an operator coefficient: {c!r}")


def _as_poly(c) -> Poly:
    if isinstance(c, Poly):
        return c
    if isinstance(c, (int, Fraction)):
        return Poly.const(c)
    raise TypeError(f"not an operator coefficient: {c!r}")


# the coefficient ring's arithmetic, so each operator loop is written once
_Ring = namedtuple("_Ring", "mul add derive scale zero")


def _ring(poly: bool, prob: Problem) -> _Ring:
    if poly:
        return _Ring(operator.mul, operator.add, Poly.derivative,
                     operator.mul, Poly())
    return _Ring(lambda a, b: a.mul(b, prob), lambda a, b: a.add(b, prob),
                 lambda a: a.derive(prob), QuasiFunction.scale,
                 QuasiFunction.zero())


class DiffOp:
    """sum_k coeffs[k] * (d/dx)^k, with Poly coefficients (polynomial mode,
    ``poly`` true) or QuasiFunction coefficients."""

    __slots__ = ("coeffs", "poly")

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        self.poly = not any(isinstance(c, QuasiFunction) for c in cs)
        cs = [(_as_poly if self.poly else _as_qf)(c) for c in cs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs: tuple[Function, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls()

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls([Poly.const(1)])

    @classmethod
    def mul_by(cls, f) -> "DiffOp":
        """The zeroth-order operator 'multiply by f'."""
        return cls([f])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Function:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Poly() if self.poly else QuasiFunction.zero()

    def as_qf(self) -> "DiffOp":
        """self with QuasiFunction coefficients."""
        if not self.poly:
            return self
        # a zero QuasiFunction keeps the zero operator out of polynomial mode
        return DiffOp([QuasiFunction(c) for c in self.coeffs] or
                      [QuasiFunction.zero()])

    def as_poly(self, prob: Problem) -> "DiffOp":
        """self in polynomial mode when every coefficient, canonicalized,
        has e = 0 and an integer s >= 0; otherwise self unchanged."""
        if self.poly:
            return self
        cs = []
        for c in self.coeffs:
            c = c.canonicalize(prob)
            if c.e != 0 or c.s.denominator != 1 or c.s < 0:
                return self
            cs.append(c.c * prob.p ** int(c.s))
        return DiffOp(cs)

    def _common(self, other: "DiffOp") -> tuple["DiffOp", "DiffOp"]:
        """self and other in one ring: Poly when both are polynomial."""
        if self.poly and other.poly:
            return self, other
        return self.as_qf(), other.as_qf()

    def add(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        a, b = self._common(other)
        add = _ring(a.poly, prob).add
        n = max(len(a.coeffs), len(b.coeffs))
        return DiffOp([add(a.coeff(k), b.coeff(k)) for k in range(n)])

    def sub(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        return self.add(other.scale(-1), prob)

    def scale(self, k) -> "DiffOp":
        if self.poly:
            return DiffOp([c * k for c in self.coeffs])
        return DiffOp([c.scale(k) for c in self.coeffs])

    def lmul(self, f, prob: Problem) -> "DiffOp":
        """Left-multiply by the function f."""
        return DiffOp.mul_by(f).compose(self, prob)

    def compose(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        """Operator product self ∘ other via the Leibniz rule."""
        a, b = self._common(other)
        ring = _ring(a.poly, prob)
        out: dict = {}
        for j, aj in enumerate(a.coeffs):
            if aj.is_zero():
                continue
            for k, bk in enumerate(b.coeffs):
                if bk.is_zero():
                    continue
                d = bk
                for i in range(j + 1):
                    term = ring.scale(ring.mul(aj, d), comb(j, i))
                    n = j - i + k
                    out[n] = ring.add(out[n], term) if n in out else term
                    if i < j:
                        d = ring.derive(d)
        if not out:
            return DiffOp([ring.zero])
        return DiffOp([out.get(k, ring.zero) for k in range(max(out) + 1)])

    def commutator(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        return self.compose(other, prob).sub(other.compose(self, prob), prob)

    def apply(self, f, prob: Problem) -> Function:
        """self f: a Poly when self is polynomial and f is a Poly (or a
        scalar), else a QuasiFunction."""
        poly = self.poly and not isinstance(f, QuasiFunction)
        op = self if poly else self.as_qf()
        ring = _ring(poly, prob)
        out, d = ring.zero, (_as_poly if poly else _as_qf)(f)
        for k, ck in enumerate(op.coeffs):
            if not ck.is_zero():
                out = ring.add(out, ring.mul(ck, d))
            if k < op.order:
                d = ring.derive(d)
        return out

    def is_eigen(self, f, lam, prob: Problem) -> bool:
        """self f = lam f exactly."""
        out = self.apply(f, prob)
        if isinstance(out, Poly):
            return out == _as_poly(f) * lam
        return out.eq(_as_qf(f).scale(lam), prob)

    def conjugate(self, s, e, prob: Problem) -> "DiffOp":
        """(p^s w^e) self (p^s w^e)^(-1), exact in the quasi-function class.

        With g = p^s w^e the conjugation replaces d/dx by d/dx - g'/g,
        where g'/g = [s p' + e (q - p')]/p.
        """
        s = Fraction(s)
        e = Fraction(e)
        op = self.as_qf()
        pprime = prob.p.derivative()
        mu = QuasiFunction(s * pprime + e * (prob.q - pprime), -1, 0)
        mu = mu.canonicalize(prob)
        shifted_d = DiffOp([mu.scale(-1), QuasiFunction.one()])
        out = DiffOp.zero()
        power = DiffOp.identity()
        for k, ck in enumerate(op.coeffs):
            if not ck.is_zero():
                out = out.add(power.lmul(ck, prob), prob)
            if k < op.order:
                power = power.compose(shifted_d, prob)
        return out

    def equals(self, other: "DiffOp", prob: Problem) -> bool:
        a, b = self._common(other)
        if a.poly:
            return a.coeffs == b.coeffs
        try:
            return a.sub(b, prob).is_zero()
        except ValueError:
            # coefficients live on incompatible p/w powers: cannot cancel
            return False

    def __repr__(self):
        if self.is_zero():
            return "DiffOp(0)"
        parts = [f"[{c!r}] d^{k}" for k, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        return "DiffOp(" + " + ".join(parts) + ")"


def hamiltonian(prob: Problem) -> DiffOp:
    """H0 = -p d^2/dx^2 - q d/dx, in polynomial mode."""
    return DiffOp([Poly(), -prob.q, -prob.p])
