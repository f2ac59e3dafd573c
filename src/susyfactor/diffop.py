"""Linear differential operators with quasi-function coefficients.

Supports composition (Leibniz expansion), commutators, application to
quasi-functions, exact equality, and conjugation by weight factors
p^s w^e -- the bilateral wrapper transformations that turn asymmetric
factorizations into supersymmetric ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .core import Poly, Problem, QuasiFunction


def _as_qf(c) -> QuasiFunction:
    if isinstance(c, QuasiFunction):
        return c
    if isinstance(c, Poly):
        return QuasiFunction(c)
    if isinstance(c, (int, Fraction)):
        return QuasiFunction(Poly.const(c))
    raise TypeError(f"not an operator coefficient: {c!r}")


class DiffOp:
    """sum_k coeffs[k] * (d/dx)^k with QuasiFunction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_qf(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs: tuple[QuasiFunction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls()

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls([QuasiFunction.one()])

    @classmethod
    def mul_by(cls, f) -> "DiffOp":
        """The zeroth-order operator 'multiply by f'."""
        return cls([_as_qf(f)])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> QuasiFunction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return QuasiFunction.zero()

    def add(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self.coeff(k).add(other.coeff(k), prob) for k in range(n)])

    def sub(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        return self.add(other.scale(-1), prob)

    def scale(self, k) -> "DiffOp":
        return DiffOp([c.scale(k) for c in self.coeffs])

    def lmul(self, f, prob: Problem) -> "DiffOp":
        """Left-multiply by the function f."""
        f = _as_qf(f)
        return DiffOp([f.mul(c, prob) for c in self.coeffs])

    def compose(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        """Operator product self âˆ˜ other via the Leibniz rule."""
        out: dict[int, QuasiFunction] = {}
        for j, aj in enumerate(self.coeffs):
            if aj.is_zero():
                continue
            for k, bk in enumerate(other.coeffs):
                if bk.is_zero():
                    continue
                d = bk
                for i in range(j + 1):
                    term = aj.mul(d, prob).scale(comb(j, i))
                    n = j - i + k
                    out[n] = out.get(n, QuasiFunction.zero()).add(term, prob)
                    if i < j:
                        d = d.derive(prob)
        if not out:
            return DiffOp.zero()
        n = max(out)
        return DiffOp([out.get(k, QuasiFunction.zero()) for k in range(n + 1)])

    def commutator(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        return self.compose(other, prob).sub(other.compose(self, prob), prob)

    def apply(self, f: QuasiFunction, prob: Problem) -> QuasiFunction:
        out = QuasiFunction.zero()
        d = f
        for k, ck in enumerate(self.coeffs):
            if not ck.is_zero():
                out = out.add(ck.mul(d, prob), prob)
            if k < self.order:
                d = d.derive(prob)
        return out

    def conjugate(self, s, e, prob: Problem) -> "DiffOp":
        """(p^s w^e) self (p^s w^e)^(-1), exact in the quasi-function class.

        With g = p^s w^e the conjugation replaces d/dx by d/dx - g'/g,
        where g'/g = [s p' + e (q - p')]/p.
        """
        s = Fraction(s)
        e = Fraction(e)
        pprime = prob.p.derivative()
        mu = QuasiFunction(s * pprime + e * (prob.q - pprime), -1, 0)
        mu = mu.canonicalize(prob)
        shifted_d = DiffOp([mu.scale(-1), QuasiFunction.one()])
        out = DiffOp.zero()
        power = DiffOp.identity()
        for k, ck in enumerate(self.coeffs):
            if not ck.is_zero():
                out = out.add(DiffOp.mul_by(ck).compose(power, prob), prob)
            if k < self.order:
                power = power.compose(shifted_d, prob)
        return out

    def equals(self, other: "DiffOp", prob: Problem) -> bool:
        try:
            return self.sub(other, prob).is_zero()
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
    """H0 = -p d^2/dx^2 - q d/dx."""
    return DiffOp([QuasiFunction.zero(),
                   QuasiFunction(-prob.q),
                   QuasiFunction(-prob.p)])
