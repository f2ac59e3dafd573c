"""Exact arithmetic substrate: rationals, univariate polynomials, problems.

Every symbolic computation in this package is exact.  Scalars are
``fractions.Fraction``.  A :class:`Poly` holds its
rational coefficients fraction-free, as integer numerators over one
positive integer denominator, so its arithmetic runs on Python ints with
one gcd per result; ``Poly.coeffs`` is the ``Fraction`` view.  Its product
and division loops, ``int_mul_add`` and ``int_divmod``, are the ones the
diffop module's integer rows run on too.  A
:class:`Problem` is the pair (p, q) of the operator -p d^2/dx^2 - q d/dx.

Every function the package builds is ``p(x)**s * c(x)``, with ``c`` a Poly
and ``s`` a half-integer; the diffop module holds it as the zeroth-order
operator ``DiffOp([c], s)``, its one type: the associated eigenfunctions
Phi_lm come back as such operators, with ``c`` their ``coeff(0)``.  :class:`QuasiFunction`, ``c p^s w^e`` with
the weight ``w`` known only through ``w'/w = (q - p')/p``, is built by no
program path: it is the tests' independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Iterable


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"not an exact scalar: {v!r}")


def rational_sqrt(v: Fraction) -> Fraction | None:
    """The exact square root of a rational, or None when it is not rational."""
    if v < 0:
        return None
    n, d = isqrt(v.numerator), isqrt(v.denominator)
    if n * n == v.numerator and d * d == v.denominator:
        return Fraction(n, d)
    return None


def int_first_order(num: list[int], p: tuple[int, int, int],
                    e: tuple[int, int]) -> list[int]:
    """The numerators of p f' + e f for f with numerators num (ascending),
    p = p0 + p1 x + p2 x^2 and e = e0 + e1 x, all integers, with no gcd
    taken: the one step of the Phi and Rodrigues chains.  Coefficient k
    is p0 (k+1) f_{k+1} + (p1 k + e0) f_k + (p2 (k-1) + e1) f_{k-1}, so each
    large numerator meets only small integers."""
    p0, p1, p2 = p
    e0, e1 = e
    pad = [0, *num, 0, 0]
    out = [p0 * (k + 1) * up + (p1 * k + e0) * mid + (p2 * (k - 1) + e1) * lo
           for k, (lo, mid, up) in enumerate(zip(pad, pad[1:], pad[2:]))]
    while out and not out[-1]:
        out.pop()
    return out


def int_mul_add(out: list[int], a, b) -> list[int]:
    """out += a b on integer coefficient lists (ascending), in place, with
    out zero-extended to the product's length and no gcd taken: the one
    product loop of Poly and DiffOp.  Returns out."""
    short = len(a) + len(b) - 1 - len(out)
    if short > 0:
        out.extend([0] * short)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def int_divmod(num, b) -> tuple[list[int], list[int], int]:
    """(quo, rem, scale) with scale num = quo b + rem and deg rem < deg b,
    for integer coefficient lists (ascending) and b nonzero: the one
    division loop of Poly and DiffOp.

    Pseudo-division by b's leading entry: before a coefficient is cleared,
    the working numerators are scaled by the part of that entry the
    coefficient lacks, so a leading +-1 never scales anything, and where b
    is primitive and divides num exactly, scale stays 1 (Gauss's lemma).
    """
    d, lead = len(b) - 1, b[-1]
    sign = 1 if lead > 0 else -1
    rem = list(num)
    quo = [0] * max(0, len(rem) - d)
    scale = 1
    for k in range(len(rem) - 1, d - 1, -1):
        r = rem[k]
        if not r:
            continue
        g = gcd(r, lead)
        f = abs(lead) // g
        if f != 1:
            scale *= f
            rem = [n * f for n in rem[:k]]
            quo = [n * f for n in quo]
        else:
            del rem[k:]
        c = r // g * sign
        quo[k - d] = c
        for j in range(d):
            rem[k - d + j] -= c * b[j]
    return quo, rem, scale


class Poly:
    """Univariate polynomial with rational coefficients, ascending order.

    Held fraction-free: integer numerators ``num`` over one positive integer
    denominator ``den``, in canonical form (``gcd(den, *num) == 1`` and no
    trailing zero numerator), so ``==`` and ``hash`` compare structure.  The
    arithmetic runs on Python ints with one gcd normalization per result.
    ``coeffs`` is the ``Fraction`` view, built on first read and kept.
    """

    __slots__ = ("num", "den", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # the lcm of lowest-terms denominators leaves no factor common to
        # every numerator, so this is already canonical
        den = lcm(*(c.denominator for c in cs))
        self.num: tuple[int, ...] = tuple(
            c.numerator * (den // c.denominator) for c in cs)
        self.den: int = den
        self._coeffs: tuple[Fraction, ...] | None = tuple(cs)

    @classmethod
    def _make(cls, num: list[int], den: int) -> "Poly":
        """The canonical Poly num/den, for any den > 0.

        A classmethod, as the other helpers of the arithmetic are: per-method
        timing wrappers (perfbench's tracer) then count the operations only.
        """
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [n // g for n in num]
                den //= g
        out = object.__new__(cls)
        out.num, out.den, out._coeffs = tuple(num), den, None
        return out

    @classmethod
    def const(cls, v) -> "Poly":
        v = _as_fraction(v)
        return cls._make([v.numerator], v.denominator)

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(n, den) for n in self.num)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "Poly":
        return Poly._make([-n for n in self.num], self.den)

    def __add__(self, other, sign=1) -> "Poly":
        """self + sign * other, for sign 1 or -1, in one pass."""
        other = self._coerce(other)
        a, b, da, db = self.num, other.num, self.den, other.den
        fb = sign
        if da != db:
            g = gcd(da, db)
            fa, fb = db // g, sign * da // g
            a = [n * fa for n in a]
            da *= fa
        if fb != 1:
            b = [n * fb for n in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, n in enumerate(b):
            out[k] += n
        return Poly._make(out, da)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self.__add__(other, -1)

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return Poly._make([n * other for n in self.num], self.den)
        if isinstance(other, Fraction):
            f = other.numerator
            return Poly._make([n * f for n in self.num],
                              self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return Poly()
        return Poly._make(int_mul_add([], a, b), self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        raise TypeError(f"cannot combine Poly with {other!r}")

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def derivative(self) -> "Poly":
        return Poly._make([k * n for k, n in enumerate(self.num)][1:],
                          self.den)

    def __call__(self, x):
        if isinstance(x, (int, Fraction)):
            if not self.num:
                return Fraction(0)
            # Horner on the numerators of x = a/b, times b^degree
            a, b = x.numerator, x.denominator
            acc, scale = 0, 1
            for n in reversed(self.num):
                acc = acc * a + n * scale
                scale *= b
            return Fraction(acc, self.den * b ** self.degree)
        acc = x * 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """(q, r) with self = q other + r and deg r < deg other, by
        integer pseudo-division of the numerators (``int_divmod``)."""
        if not other.num:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem, scale = int_divmod(self.num, other.num)
        den = scale * self.den
        return (Poly._make([n * other.den for n in quo], den),
                Poly._make(rem, den))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return "Poly(" + " + ".join(terms) + ")"


@dataclass(frozen=True)
class Problem:
    """The coefficient pair (p, q) of the operator -p d^2/dx^2 - q d/dx."""

    p: Poly
    q: Poly

    def __post_init__(self):
        if self.p.is_zero():
            raise ValueError("p must be nonzero")
        if self.p.degree > 2:
            raise ValueError("p must have degree <= 2")
        if self.q.degree > 1:
            raise ValueError("q must have degree <= 1")

    @cached_property
    def taylor(self) -> tuple[int, int, int, int, int, int]:
        """(D, P2, Q1, P1, Q0, P0): p'', q', p'(0), q(0), p(0) as integer
        numerators over D, the lcm of their denominators."""
        p, q = self.p, self.q
        data = (2 * p[2], q[1], p[1], q[0], p[0])
        D = lcm(*(v.denominator for v in data))
        return (D, *(v.numerator * (D // v.denominator) for v in data))

    @cached_property
    def shape(self):
        """The float side's exact record of (p, q), numeric._shape, worked
        out on first use and kept as taylor is, so one Problem, one numeric
        request, works it out once.  Only the numeric module reads it."""
        from .numeric import _shape
        return _shape(self)


class QuasiFunction:
    """c(x) * p(x)**s * w(x)**e with exact data: the tests' reference.

    The package builds every function as p^s c (see the module docstring);
    the tests run their operator algebra with one QuasiFunction per
    coefficient, and the top-down chain through ``derive``, on this class
    as an independent reference.  ``s`` and ``e`` are Fractions.  The
    zero function is canonically (0, 0, 0).  Canonical form never keeps a
    full factor of p inside c.
    """

    __slots__ = ("c", "s", "e")

    def __init__(self, c, s=0, e=0):
        if isinstance(c, (int, Fraction)):
            c = Poly.const(c)
        self.c: Poly = c
        self.s: Fraction = _as_fraction(s)
        self.e: Fraction = _as_fraction(e)
        if self.c.is_zero():
            self.s = Fraction(0)
            self.e = Fraction(0)

    @classmethod
    def zero(cls) -> "QuasiFunction":
        return cls(Poly())

    def is_zero(self) -> bool:
        return self.c.is_zero()

    def canonicalize(self, prob: Problem) -> "QuasiFunction":
        """Absorb every full factor of p from c into the exponent s."""
        if self.c.is_zero():
            return QuasiFunction.zero()
        if prob.p.degree == 0:
            # constant p: fold the integer part of the exponent into c,
            # keeping any fractional remainder in [0, 1)
            k = self.s.numerator // self.s.denominator
            if k == 0:
                return self
            return QuasiFunction(self.c * prob.p[0] ** k, self.s - k, self.e)
        c, s = self.c, self.s
        while True:
            q, r = c.divmod(prob.p)
            if r.is_zero() and not q.is_zero():
                c, s = q, s + 1
            else:
                break
        return QuasiFunction(c, s, self.e)

    def derive(self, prob: Problem) -> "QuasiFunction":
        """d/dx of c p^s w^e, using w'/w = (q - p')/p.

        The result is [c' p + s c p' + e c (q - p')] p^(s-1) w^e,
        canonicalized.
        """
        pprime = prob.p.derivative()
        num = self.c.derivative() * prob.p \
            + self.s * self.c * pprime \
            + self.e * self.c * (prob.q - pprime)
        return QuasiFunction(num, self.s - 1, self.e).canonicalize(prob)

    def mul(self, other: "QuasiFunction", prob: Problem) -> "QuasiFunction":
        if self.is_zero() or other.is_zero():
            return QuasiFunction.zero()
        return QuasiFunction(self.c * other.c, self.s + other.s,
                             self.e + other.e).canonicalize(prob)

    def scale(self, k) -> "QuasiFunction":
        return QuasiFunction(self.c * _as_fraction(k), self.s, self.e)

    def add(self, other: "QuasiFunction", prob: Problem) -> "QuasiFunction":
        """Exact sum; both terms must share e and differ in s by an integer."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.e != other.e:
            raise ValueError("cannot add quasi-functions with different w powers")
        ds = self.s - other.s
        if ds.denominator != 1:
            raise ValueError("cannot add quasi-functions with incommensurate p powers")
        s0 = min(self.s, other.s)
        c = self.c * prob.p ** int(self.s - s0) \
            + other.c * prob.p ** int(other.s - s0)
        return QuasiFunction(c, s0, self.e).canonicalize(prob)

    def sub(self, other: "QuasiFunction", prob: Problem) -> "QuasiFunction":
        return self.add(other.scale(-1), prob)

    def __repr__(self):
        return f"QuasiFunction({self.c!r}, s={self.s}, e={self.e})"
