"""Differential operators p^k * sum_j c_j (d/dx)^j.

An operator keeps polynomial coefficients c_j and one half-integer exponent
k of the problem's p, held as the integer h = 2k (``.k`` is the Fraction
view).  That one ring holds every operator the package builds:
conjugating by p^s w^e only shifts d/dx by nu/p, with nu = s p' + e (q - p')
a polynomial, and the standard momentum sqrt(p) d/dx is p^(-1/2) (p d/dx).
Its zeroth-order members are the package's one function type: p^s c, with
c a Poly and s a half-integer, is DiffOp([c], s), and ``reduced`` gives its
canonical form.

The coefficients are held fraction-free, as ``Poly`` holds its own: one
tuple of integer numerators per derivative order (``rows``) over one
positive denominator ``den``, canonical with no trailing zero row or entry
and ``gcd(den, *entries) == 1``.  Every operation runs on Python ints with
one gcd per result, through the product and division loops of ``core``
(``int_mul_add``, ``int_divmod``); ``coeffs``, the canonical ``Poly`` of
each order, is a view built on first read and kept.

Supports composition (Leibniz expansion), the eigen-residual on
polynomials, and conjugation by weight factors p^s w^e -- the bilateral
wrapper transformations that turn asymmetric factorizations into
supersymmetric ones.  Conjugation lowers k by the order n and multiplies
row j by p^(n-j); it first divides each row by the primitive part of p (at
most j times), so the expansion carries only the powers of p that stay and
``reduced`` seldom finds a factor left to divide out.  H0 is built here
straight from the problem's integer Taylor record, ``Problem.taylor``, as
the associated and ladder operators are in their modules.

An identity L = R is checked as the residual L.sub(R, prob), zero exactly
when it holds.  Two operators whose k differ by an integer (h of equal
parity) are brought to the lower k by multiplying by p; a half-integer
difference (h of opposite parity) is incommensurate, and ``add`` and
``sub`` raise ValueError.  No operation does rational arithmetic on k: the
weight exponents s and e of ``conjugate`` stay rational, but they enter
only nu, through their numerators and denominators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from typing import Iterable

from .core import Poly, Problem, int_divmod, int_mul_add

def _derivative(row) -> list[int]:
    return [j * n for j, n in enumerate(row)][1:]


def _powers(row, n: int) -> list[list[int]]:
    """The numerators of row^0 .. row^n."""
    out = [[1]]
    for _ in range(n):
        out.append(int_mul_add([], out[-1], row))
    return out


def _combine(a, fa: int, b, fb: int) -> list[list[int]]:
    """fa a + fb b, row by row, for row lists a and b."""
    if len(a) < len(b):
        a, fa, b, fb = b, fb, a, fa
    out = [[n * fa for n in row] for row in a]
    for row, rb in zip(out, b):
        if len(row) < len(rb):
            row.extend([0] * (len(rb) - len(row)))
        for i, n in enumerate(rb):
            row[i] += n * fb
    return out


class DiffOp:
    """p^(h/2) * sum_j (rows[j] / den) (d/dx)^j, with integer rows."""

    __slots__ = ("rows", "den", "h", "_coeffs")

    def __init__(self, coeffs: Iterable = (), k=0):
        """p^k * sum_j coeffs[j] (d/dx)^j, for Poly, int or Fraction
        coefficients and an int or Fraction k with 2k an integer."""
        h = 2 * k
        if not isinstance(h, int):
            h = Fraction(h)
            if h.denominator != 1:
                raise ValueError(f"p exponent {k} is not a multiple of 1/2")
            h = h.numerator
        pairs = []
        for c in coeffs:
            if isinstance(c, Poly):
                pairs.append((c.num, c.den))
            elif isinstance(c, (int, Fraction)):
                pairs.append(((c.numerator,) if c else (), c.denominator))
            else:
                raise TypeError(f"not an operator coefficient: {c!r}")
        while pairs and not pairs[-1][0]:
            pairs.pop()
        # the lcm of canonical denominators leaves no factor common to
        # every numerator, so this is already canonical
        den = lcm(*(d for _, d in pairs))
        self.rows: tuple[tuple[int, ...], ...] = tuple(
            num if d == den else tuple(n * (den // d) for n in num)
            for num, d in pairs)
        self.den: int = den
        # the zero operator has k = 0, so it aligns with every operator
        self.h: int = h if pairs else 0
        self._coeffs: tuple[Poly, ...] | None = None

    @classmethod
    def _make(cls, rows: list, den: int, h: int) -> "DiffOp":
        """The canonical operator p^(h/2) rows/den, for any den > 0 and rows
        of integer lists: one gcd.  A classmethod, as Poly._make is, so
        per-method timing wrappers count the operations only."""
        for row in rows:
            while row and not row[-1]:
                row.pop()
        while rows and not rows[-1]:
            rows.pop()
        if not rows:
            den, h = 1, 0
        elif den != 1:
            g = gcd(den, *chain.from_iterable(rows))
            if g != 1:
                rows = [[n // g for n in row] for row in rows]
                den //= g
        out = object.__new__(cls)
        out.rows, out.den, out.h = tuple(map(tuple, rows)), den, h
        out._coeffs = None
        return out

    @classmethod
    def _function(cls, c: Poly, h: int) -> "DiffOp":
        """The function p^(h/2) c for a Poly c, which is canonical already:
        no gcd, and c is kept as the coeff(0) view."""
        out = object.__new__(cls)
        if c.num:
            out.rows, out.den, out.h, out._coeffs = (c.num,), c.den, h, (c,)
        else:
            out.rows, out.den, out.h, out._coeffs = (), 1, 0, ()
        return out

    def _at(self, h: int) -> "DiffOp":
        """The same coefficients over p^(h/2), canonical as they stand."""
        out = object.__new__(DiffOp)
        out.rows, out.den, out.h, out._coeffs = \
            self.rows, self.den, h, self._coeffs
        return out

    @property
    def k(self) -> Fraction:
        """The exponent of p, h/2."""
        return Fraction(self.h, 2)

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        """The canonical Poly of each derivative order, ascending."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Poly._make(list(row), den)
                                 for row in self.rows)
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def is_zero(self) -> bool:
        return not self.rows

    def coeff(self, j: int) -> Poly:
        if 0 <= j < len(self.rows):
            return self.coeffs[j]
        return Poly()

    def reduced(self, prob: Problem) -> "DiffOp":
        """self with every factor p common to the coefficients moved into
        k: the canonical form of an operator, and of a function p^s c.  A
        constant p divides everything, so there the integer part of k
        moves into the coefficients instead.

        p = c B/pd with B primitive, so p divides a row over the rationals
        exactly when B divides it over the integers, with an integer
        quotient (Gauss's lemma); each pass stops at the first row it does
        not divide."""
        p, rows, h = prob.p, self.rows, self.h
        if not rows:
            return self
        if p.degree == 0:
            n = h >> 1
            if not n:
                return self
            # times (P/pd)^n, over a positive denominator
            f, d = (p.num[0], p.den) if n > 0 else (p.den, p.num[0])
            f, d = f ** abs(n), d ** abs(n)
            if d < 0:
                f, d = -f, -d
            return DiffOp._make([[m * f for m in row] for row in rows],
                                self.den * d, h - 2 * n)
        c = gcd(*p.num)
        b = [m // c for m in p.num]
        n = 0
        while True:
            quos = []
            for row in rows:
                quo, rem, _ = int_divmod(row, b) if row else ([], (), 1)
                if any(rem):
                    break
                quos.append(quo)
            else:
                rows, n = quos, n + 1
                continue
            break
        if not n:
            return self
        # rows / p^n = (rows / B^n) pd^n / c^n
        f = p.den ** n
        return DiffOp._make([[m * f for m in row] for row in rows],
                            self.den * c ** n, h + 2 * n)

    def add(self, other: "DiffOp", prob: Problem, sign=1) -> "DiffOp":
        """self + sign * other, for sign 1 or -1, in one pass, over the
        lower of their p^k."""
        if other.is_zero():
            return self
        if self.is_zero():
            return other if sign == 1 else other.scale(-1)
        dh = self.h - other.h
        if dh & 1:
            raise ValueError("operators on incommensurate p powers")
        a, b, da, db = self.rows, other.rows, self.den, other.den
        if dh:
            # the operand over the higher p^k times p^n = P^n/pd^n
            n = abs(dh) >> 1
            pn = _powers(prob.p.num, n)[n]
            if dh > 0:
                a = [int_mul_add([], row, pn) for row in a]
                da *= prob.p.den ** n
            else:
                b = [int_mul_add([], row, pn) for row in b]
                db *= prob.p.den ** n
        g = gcd(da, db)
        return DiffOp._make(_combine(a, db // g, b, sign * da // g),
                            da // g * db, min(self.h, other.h))

    def sub(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        return self.add(other, prob, -1)

    def scale(self, s) -> "DiffOp":
        """self times the rational s."""
        f = s.numerator
        return DiffOp._make([[n * f for n in row] for row in self.rows],
                            self.den * s.denominator, self.h)

    def compose(self, other: "DiffOp", prob: Problem) -> "DiffOp":
        """Operator product self ∘ other: the left coefficients pass
        p^(other.k) by conjugation, then the Leibniz rule expands."""
        left = self._at(0) if self.h else self
        if other.h:
            left = left.conjugate(Fraction(-other.h, 2), 0, prob)
        out: list[list[int]] = []
        for j, aj in enumerate(left.rows):
            if not aj:
                continue
            for r, br in enumerate(other.rows):
                d = br
                for i in range(j + 1):
                    if not d:
                        break
                    n = j - i + r
                    if len(out) <= n:
                        out.extend([] for _ in range(n + 1 - len(out)))
                    c = comb(j, i)
                    int_mul_add(out[n], [m * c for m in aj] if c != 1
                                else aj, d)
                    if i < j:
                        d = _derivative(d)
        return DiffOp._make(out, left.den * other.den,
                            self.h + other.h + left.h)

    def eigen_residual(self, f: Poly, lam, prob: Problem) -> "DiffOp":
        """(self - lam) f for a polynomial f: the function p^k c, held as
        DiffOp([c], k), zero exactly when self f = lam f.  lam is an int, a
        Fraction or an integer pair (n, d) with d > 0."""
        ln, ld = lam if isinstance(lam, tuple) else \
            (lam.numerator, lam.denominator)
        # self f without its p^k: sum_j rows[j] f^(j) over den f.den
        out, d = [], f.num
        for row in self.rows:
            if not d:
                break
            if row:
                int_mul_add(out, row, d)
            d = _derivative(d)
        od = self.den * f.den
        rhs, rd = [n * ln for n in f.num], f.den * ld
        h = self.h
        if h & 1:
            # p^k out - rhs is one function p^s c only where a side
            # vanishes; elsewhere sub raises
            return DiffOp._make([out], od, h).sub(
                DiffOp._make([rhs], rd, 0), prob)
        p = prob.p
        if h > 0:
            n = h >> 1
            out, od, h = int_mul_add([], out, _powers(p.num, n)[n]), \
                od * p.den ** n, 0
        elif h < 0:
            n = -h >> 1
            rhs, rd = int_mul_add([], rhs, _powers(p.num, n)[n]), \
                rd * p.den ** n
        g = gcd(od, rd)
        return DiffOp._make(_combine([out], rd // g, [rhs], -od // g),
                            od // g * rd, h)

    def conjugate(self, s, e, prob: Problem) -> "DiffOp":
        """(p^s w^e) self (p^s w^e)^(-1), exact, for int or Fraction s, e.

        With g = p^s w^e the conjugation replaces d/dx by D = d/dx - nu/p,
        nu = p g'/g = s p' + e (q - p').  D^j = p^-j T_j with T_0 = 1 and
        T_(j+1) = (p d/dx - j p' - nu) T_j, so each power lowers k by one,
        and self = p^k sum_j c_j d^j becomes p^(k-n) sum_j c_j p^(n-j) T_j.

        On integers: nu = V/vd and p = cp B/pd with B primitive, so T~_j =
        (pd vd)^j T_j has integer rows, T~_(j+1) = vd P T~_j' - (j vd P' +
        pd V) T~_j + vd P (d/dx) T~_j with P = cp B.  Before expanding, row
        j, R_j = c_j den, is divided by B while B divides it, at most j
        times (t_j times; exact over the integers by Gauss's lemma), so
        R_j P^(n-j) = R'_j cp^(n-j) B^(n-j+t_j).  The factor B^mu, mu the
        least n - j + t_j over the nonzero rows, is then p^mu pd^mu/cp^mu,
        and the sum over j of R'_j B^(n-j+t_j-mu) cp^(n-j) pd^j (pd vd)^(n-j)
        T~_j is one integer operator over den pd^(n-mu) (pd vd)^n cp^mu at
        p^(k-n+mu).  That is the factor of p that reduced would divide back
        out of the expanded rows; reduced still takes whatever factor of B
        the sum itself shares.  A constant p divides everything and takes
        no pre-division (mu = 0): reduced folds its power of p instead.
        """
        if self.is_zero():
            return self
        p, q = prob.p, prob.q
        # nu = (s - e) p' + e q = V / vd
        sn, sd, en, ed = s.numerator, s.denominator, e.numerator, \
            e.denominator
        pnum, pd = p.num, p.den
        dp = _derivative(pnum)
        vd = sd * ed * pd * q.den
        (v,) = _combine([dp], (sn * ed - en * sd) * q.den,
                        [q.num], en * sd * pd)
        if not any(v):
            return self.reduced(prob)
        g = gcd(vd, *v)
        if g != 1:
            v, vd = [m // g for m in v], vd // g
        rows, n = self.rows, self.order
        vp = [m * vd for m in pnum]
        vdp = [m * vd for m in dp]
        pv = [m * pd for m in v]
        dd = pd * vd
        # P = cp B; a constant p takes no pre-division (cp = 1, B = P)
        cp = gcd(*pnum) if p.degree else 1
        b = [m // cp for m in pnum]
        pre = []                             # (R'_j, n - j + t_j)
        for j, row in enumerate(rows):
            t = 0
            while t < (j if p.degree else 0) and row:
                quo, rem, _ = int_divmod(row, b)
                if any(rem):
                    break
                row, t = quo, t + 1
            pre.append((row, n - j + t))
        mu = min(x for row, x in pre if row)
        pows = _powers(b, max(x for _, x in pre) - mu)
        out: list[list[int]] = [[] for _ in range(n + 1)]
        t = [[1]]                            # T~_j, by powers of d/dx
        for j, (row, x) in enumerate(pre):
            if row:
                f = int_mul_add([], row, pows[x - mu]) if x > mu else row
                c = cp ** (n - j) * pd ** j * dd ** (n - j)
                if c != 1:
                    f = [m * c for m in f]
                for i, ti in enumerate(t):
                    int_mul_add(out[i], f, ti)
            if j < n:
                # -(j vd P' + pd V)
                (gj,) = _combine([vdp], -j, [pv], -1)
                nxt = []
                for i, ti in enumerate(t):
                    acc = int_mul_add([], gj, ti)
                    int_mul_add(acc, vp, _derivative(ti))
                    if i:
                        int_mul_add(acc, vp, t[i - 1])
                    nxt.append(acc)
                nxt.append(int_mul_add([], vp, t[-1]))
                t = nxt
        return DiffOp._make(out, self.den * pd ** (n - mu) * dd ** n
                            * cp ** mu, self.h - 2 * (n - mu)).reduced(prob)

    def __repr__(self):
        if self.is_zero():
            return "DiffOp(0)"
        parts = " + ".join(f"[{c!r}] d^{j}" for j, c in enumerate(self.coeffs)
                           if not c.is_zero())
        return f"DiffOp(p^{self.k} * ({parts}))" if self.h \
            else f"DiffOp({parts})"


def hamiltonian(prob: Problem) -> DiffOp:
    """H0 = -p d^2/dx^2 - q d/dx, over 2D from prob.taylor: 2D q = 2 Q1 x
    + 2 Q0 and 2D p = P2 x^2 + 2 P1 x + 2 P0."""
    D, P2, Q1, P1, Q0, P0 = prob.taylor
    return DiffOp._make([[], [-2 * Q0, -2 * Q1], [-2 * P0, -2 * P1, -P2]],
                        2 * D, 0)
