"""Differential operators p^k * sum_j c_j (d/dx)^j.

An operator keeps Poly coefficients c_j and one rational exponent k of the
problem's p.  That one ring holds every operator the package builds:
conjugating by p^s w^e only shifts d/dx by nu/p, with nu = s p' + e (q - p')
a polynomial, and the standard momentum sqrt(p) d/dx is p^(-1/2) (p d/dx).
Its zeroth-order members are the package's one function type: p^s c, with
c a Poly and s a half-integer, is DiffOp([c], s), and ``reduced`` gives its
canonical form.

Supports composition (Leibniz expansion), the eigen-residual on
polynomials, and conjugation by weight factors p^s w^e -- the bilateral
wrapper transformations that turn asymmetric factorizations into
supersymmetric ones.  An identity L = R is checked as the residual
L.sub(R, prob), zero exactly when it holds.  Two operators whose k differ
by an integer are brought to the lower k by multiplying by p; a
non-integer difference is incommensurate, and ``add`` and ``sub`` raise
ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable

from .core import Poly, Problem


def _coefficient(c) -> Poly:
    if isinstance(c, Poly):
        return c
    if isinstance(c, (int, Fraction)):
        return Poly.const(c)
    raise TypeError(f"not an operator coefficient: {c!r}")


class DiffOp:
    """p^k * sum_j coeffs[j] (d/dx)^j, with Poly coefficients."""

    __slots__ = ("coeffs", "k")

    def __init__(self, coeffs: Iterable = (), k=0):
        cs = [_coefficient(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs: tuple[Poly, ...] = tuple(cs)
        # the zero operator has k = 0, so it aligns with every operator
        self.k = Fraction(k) if cs else Fraction(0)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> Poly:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Poly()

    def _aligned(self, other: "DiffOp", prob: Problem):
        """The coefficients of self and other over the lower of their p^k."""
        ds = self.k - other.k
        if ds.denominator != 1:
            raise ValueError("operators on incommensurate p powers")
        f = prob.p ** abs(int(ds))
        a = tuple(c * f for c in self.coeffs) if ds > 0 else self.coeffs
        b = tuple(c * f for c in other.coeffs) if ds < 0 else other.coeffs
        return a, b, min(self.k, other.k)

    def reduced(self, prob: Problem) -> "DiffOp":
        """self with every factor p common to the coefficients moved into
        k: the canonical form of an operator, and of a function p^s c.  A
        constant p divides everything, so there the integer part of k
        moves into the coefficients instead."""
        p, cs, k = prob.p, self.coeffs, self.k
        if p.degree == 0:
            n = k.numerator // k.denominator
            return DiffOp([c * p[0] ** n for c in cs], k - n) if n else self
        while cs:
            quo = [c.divmod(p) for c in cs]
            if any(not r.is_zero() for _, r in quo):
                break
            cs, k = [q for q, _ in quo], k + 1
        return self if k == self.k else DiffOp(cs, k)

    def add(self, other: "DiffOp", prob: Problem, sign=1) -> "DiffOp":
        """self + sign * other, for sign 1 or -1, in one pass."""
        if other.is_zero():
            return self
        if self.is_zero():
            return other if sign == 1 else other.scale(-1)
        a, b, k = self._aligned(other, prob)
        out = list(a) + [Poly()] * (len(b) - len(a))
        for j, c in enumerate(b):
            out[j] = out[j] + c if sign == 1 else out[j] - c
        return DiffOp(out, k)

    def sub(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        return self.add(other, prob, -1)

    def scale(self, s) -> "DiffOp":
        return DiffOp([c * s for c in self.coeffs], self.k)

    def compose(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        """Operator product self ∘ other: the left coefficients pass
        p^(other.k) by conjugation, then the Leibniz rule expands."""
        left = DiffOp(self.coeffs)
        if other.k:
            left = left.conjugate(-other.k, 0, prob)
        out: dict = {}
        for j, aj in enumerate(left.coeffs):
            if aj.is_zero():
                continue
            for r, br in enumerate(other.coeffs):
                if br.is_zero():
                    continue
                d = br
                for i in range(j + 1):
                    term = aj * d * comb(j, i)
                    n = j - i + r
                    out[n] = out[n] + term if n in out else term
                    if i < j:
                        d = d.derivative()
        top = max(out, default=-1)
        return DiffOp([out.get(n, Poly()) for n in range(top + 1)],
                      self.k + other.k + left.k)

    def _on_poly(self, f: Poly) -> Poly:
        """sum_j c_j f^(j): self f without its factor p^k."""
        out, d = Poly(), f
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out + c * d
            if j < self.order:
                d = d.derivative()
        return out

    def eigen_residual(self, f: Poly, lam, prob: Problem) -> "DiffOp":
        """(self - lam) f for a polynomial f: the function p^k c, held as
        DiffOp([c], k), zero exactly when self f = lam f."""
        out, rhs, k = self._on_poly(f), f * lam, self.k
        if k.denominator != 1:
            # p^k out - rhs is one function p^s c only where a side
            # vanishes; elsewhere sub raises
            return DiffOp([out], k).sub(DiffOp([rhs]), prob)
        if k > 0:
            out, k = out * prob.p ** int(k), 0
        elif k < 0:
            rhs = rhs * prob.p ** int(-k)
        return DiffOp([out - rhs], k)

    def conjugate(self, s, e, prob: Problem) -> "DiffOp":
        """(p^s w^e) self (p^s w^e)^(-1), exact.

        With g = p^s w^e the conjugation replaces d/dx by D = d/dx - nu/p,
        nu = p g'/g = s p' + e (q - p').  D^j = p^-j T_j with T_0 = 1 and
        T_(j+1) = (p d/dx - j p' - nu) T_j, so each power lowers k by one;
        the factors of p the coefficients share then go back into k.
        """
        p = prob.p
        pprime = p.derivative()
        nu = Fraction(s) * pprime + Fraction(e) * (prob.q - pprime)
        if nu.is_zero():
            return self.reduced(prob)
        n = self.order
        out = [Poly()] * (n + 1)
        t = [Poly.const(1)]                  # T_j, by powers of d/dx
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                c = c * p ** (n - j)
                for i, ti in enumerate(t):
                    out[i] = out[i] + c * ti
            if j < n:
                g = pprime * j + nu
                nxt = [p * ti.derivative() - g * ti for ti in t] + [Poly()]
                for i, ti in enumerate(t):
                    nxt[i + 1] = nxt[i + 1] + p * ti
                t = nxt
        return DiffOp(out, self.k - n).reduced(prob)

    def __repr__(self):
        if self.is_zero():
            return "DiffOp(0)"
        parts = " + ".join(f"[{c!r}] d^{j}" for j, c in enumerate(self.coeffs)
                           if not c.is_zero())
        return f"DiffOp(p^{self.k} * ({parts}))" if self.k \
            else f"DiffOp({parts})"


def hamiltonian(prob: Problem) -> DiffOp:
    """H0 = -p d^2/dx^2 - q d/dx."""
    return DiffOp([Poly(), -prob.q, -prob.p])
