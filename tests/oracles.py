"""Test-local oracles and helpers that the package itself never calls.

``brute_force_eigen_oracle`` is an eigenpair built independently of the
ladders, and ``series_phi`` is Phi_l itself, normalization included, from
p and q alone.  ``apply`` and ``poly_ratio`` act on the package's one function
type, p^s c held as the zeroth-order ``DiffOp([c], s)``, and on plain
polynomials.  ``RefDiffOp`` is the operator algebra with one ``Poly`` per
coefficient, the reference for ``DiffOp``'s integer rows, and
``pearson_gram`` the term-by-term Gram matrix of the Phi_i under the
weight, the reference for the numeric layer's integer pass.  ``taylor_data``
reads p'', p'(0), p(0), q' and q(0) off p and q as Fractions, the values
``Problem.taylor`` holds as integers over D.  ``_y_map`` and ``_z_map`` are
the closed-form Liouville maps y = int dx/p and z = int dx/sqrt|p| with
their inverses, each with its own branch tree over p: the reference for
the numeric layer's one builder of both, ``numeric._liouville``.
"""

import math
from fractions import Fraction
from math import comb, prod
from typing import Callable, NamedTuple

import numpy as np

from susyfactor.core import Poly, Problem
from susyfactor.diffop import DiffOp
from susyfactor.principal import Ladders


class TaylorData(NamedTuple):
    ppp: Fraction       # p''
    pp0: Fraction       # p'(0)
    p0: Fraction
    qp: Fraction        # q'
    q0: Fraction


def taylor_data(prob: Problem) -> TaylorData:
    """p'', p'(0), p(0), q' and q(0) of prob as Fractions."""
    p, q = prob.p, prob.q
    return TaylorData(2 * p[2], p[1], p[0], q[1], q[0])


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


def series_phi(p: Poly, q: Poly, l: int) -> Poly:
    """Phi_l from p and q alone, by Nikiforov and Uvarov's downward
    recurrence for the coefficients c_k of the degree-l polynomial solution
    of -p y'' - q y' = lambda_l y, lambda_l = -l (l - 1) p2 - l q1.

    Matching the coefficients of x^k gives

        (l - k) ((l + k - 1) p2 + q1) c_k
            = (k + 1) (k p1 + q0) c_(k+1) + (k + 1) (k + 2) p0 c_(k+2),

    started from the leading coefficient that the raises B_l ... B_1 give
    1, c_l = prod_(j=1..l) ((3 - 2j) p2 - q1).  A vanishing divisor raises
    ZeroDivisionError.  Runs on Fractions, sharing nothing with the
    ladders."""
    p2, p1, p0 = p[2], p[1], p[0]
    q1, q0 = q[1], q[0]
    c = [Fraction(0)] * (l + 3)
    c[l] = Fraction(prod((3 - 2 * j) * p2 - q1 for j in range(1, l + 1)))
    for k in range(l - 1, -1, -1):
        c[k] = ((k + 1) * (k * p1 + q0) * c[k + 1]
                + (k + 1) * (k + 2) * p0 * c[k + 2]) \
            / ((l - k) * ((l + k - 1) * p2 + q1))
    return Poly(c[:l + 1])


def pearson_gram(prob: Problem, nmax: int) -> list[list[Fraction]]:
    """G_ij = int w Phi_i Phi_j / int w for i, j <= nmax, summed term by
    term over Fraction: G_ij = sum_ab c_ia c_jb mu_(a+b)/mu0, with the
    moments from Pearson's recurrence

        (k p2 + q1) mu_(k+1) = -(k p1 + q0) mu_k - k p0 mu_(k-1)

    and c_i the coefficients of Phi_i.  O(nmax^4) Fractions: the reference
    for numeric._pearson_gram's integer pass."""
    p, q = prob.p, prob.q
    m = [Fraction(1)]
    for k in range(2 * nmax):
        m.append(-((k * p[1] + q[0]) * m[k] + k * p[0] * m[k - 1])
                 / (k * p[2] + q[1]))
    lad = Ladders(prob, nmax)
    phis = [lad.phi(i).coeffs for i in range(nmax + 1)]
    return [[sum(ca * cb * m[a + b] for a, ca in enumerate(fi)
                 for b, cb in enumerate(fj)) for fj in phis] for fi in phis]


def _anchored(fwd: Callable, inv: Callable,
              x0: float) -> tuple[Callable, Callable]:
    u0 = fwd(x0)
    return (lambda x: fwd(np.asarray(x, float)) - u0,
            lambda u: inv(np.asarray(u, float) + u0))


def _y_map(p: Poly, x0: float) -> tuple[Callable, Callable]:
    """(y, x(y)) with y = int_x0^x dt/p(t)."""
    if p.degree == 0:
        c = float(p[0])
        return _anchored(lambda x: x / c, lambda y: c * y, x0)
    a, b = float(p[p.degree]), float(p[p.degree - 1])
    if p.degree == 1:                   # y = log|p|/a
        s = math.copysign(1.0, a * x0 + b)
        return _anchored(lambda x: np.log(np.abs(a * x + b)) / a,
                         lambda y: (s * np.exp(a * y) - b) / a, x0)
    disc = p[1] * p[1] - 4 * p[2] * p[0]
    if disc == 0:                       # p = a (x - r)^2
        r = float(-p[1] / (2 * p[2]))
        return _anchored(lambda x: -1.0 / (a * (x - r)),
                         lambda y: r - 1.0 / (a * y), x0)
    sq = math.sqrt(abs(disc))           # t = (2ax + b)/sqrt|D|
    if disc < 0:
        fwd = lambda t: 2.0 * np.arctan(t) / sq
        inv = lambda y: np.tan(0.5 * sq * y)
    elif a * p(x0) < 0:                 # between the roots
        fwd = lambda t: -2.0 * np.arctanh(t) / sq
        inv = lambda y: -np.tanh(0.5 * sq * y)
    else:                               # beyond both roots
        fwd = lambda t: -2.0 * np.arctanh(1.0 / t) / sq
        inv = lambda y: -1.0 / np.tanh(0.5 * sq * y)
    return _anchored(lambda x: fwd((2 * a * x + b) / sq),
                     lambda y: (sq * inv(y) - b) / (2 * a), x0)


def _z_map(p: Poly, x0: float) -> tuple[Callable, Callable]:
    """(z, x(z)) with z = int_x0^x dt/sqrt|p(t)|."""
    if p.degree == 0:
        k = math.sqrt(abs(p[0]))
        return _anchored(lambda x: x / k, lambda z: k * z, x0)
    a, b = float(p[p.degree]), float(p[p.degree - 1])
    if p.degree == 1:                   # z = 2 s sqrt|p|/a
        s = math.copysign(1.0, a * x0 + b)
        return _anchored(lambda x: 2.0 * s * np.sqrt(np.abs(a * x + b)) / a,
                         lambda z: (s * (0.5 * a * z) ** 2 - b) / a, x0)
    disc = p[1] * p[1] - 4 * p[2] * p[0]
    ra, sa = math.sqrt(abs(a)), math.copysign(1.0, a)
    if disc == 0:                       # |p| = |a| (x - r)^2
        r = float(-p[1] / (2 * p[2]))
        s = math.copysign(1.0, x0 - r)
        return _anchored(lambda x: s * np.log(np.abs(x - r)) / ra,
                         lambda z: r + s * np.exp(s * ra * z), x0)
    sq = math.sqrt(abs(disc))           # t = (2ax + b)/sqrt|D|
    if disc < 0:
        fwd, inv = np.arcsinh, np.sinh
    elif a * p(x0) < 0:                 # between the roots
        fwd, inv = np.arcsin, np.sin
    else:
        # beyond both roots; acosh of |t| keeps 2ax + b < 0 free of
        # cancellation
        s = math.copysign(1.0, 2 * a * x0 + b)
        fwd = lambda t: s * np.arccosh(np.abs(t))
        inv = lambda v: s * np.cosh(v)
    return _anchored(lambda x: sa * fwd((2 * a * x + b) / sq) / ra,
                     lambda z: (sq * inv(sa * ra * z) - b) / (2 * a), x0)


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


class RefDiffOp:
    """p^k * sum_j coeffs[j] (d/dx)^j with one Poly per coefficient, each
    operation on Poly arithmetic: the reference for DiffOp's integer rows
    over one denominator."""

    __slots__ = ("coeffs", "k")

    def __init__(self, coeffs=(), k=0):
        cs = [c if isinstance(c, Poly) else Poly.const(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self.k = Fraction(k) if cs else Fraction(0)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _aligned(self, other, prob):
        ds = self.k - other.k
        if ds.denominator != 1:
            raise ValueError("operators on incommensurate p powers")
        f = prob.p ** abs(int(ds))
        a = tuple(c * f for c in self.coeffs) if ds > 0 else self.coeffs
        b = tuple(c * f for c in other.coeffs) if ds < 0 else other.coeffs
        return a, b, min(self.k, other.k)

    def reduced(self, prob):
        p, cs, k = prob.p, self.coeffs, self.k
        if p.degree == 0:
            n = k.numerator // k.denominator
            return RefDiffOp([c * p[0] ** n for c in cs], k - n) if n \
                else self
        while cs:
            quo = [c.divmod(p) for c in cs]
            if any(not r.is_zero() for _, r in quo):
                break
            cs, k = [q for q, _ in quo], k + 1
        return self if k == self.k else RefDiffOp(cs, k)

    def add(self, other, prob, sign=1):
        if other.is_zero():
            return self
        if self.is_zero():
            return other if sign == 1 else other.scale(-1)
        a, b, k = self._aligned(other, prob)
        out = list(a) + [Poly()] * (len(b) - len(a))
        for j, c in enumerate(b):
            out[j] = out[j] + c if sign == 1 else out[j] - c
        return RefDiffOp(out, k)

    def sub(self, other, prob):
        return self.add(other, prob, -1)

    def scale(self, s):
        return RefDiffOp([c * s for c in self.coeffs], self.k)

    def compose(self, other, prob):
        left = RefDiffOp(self.coeffs)
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
        return RefDiffOp([out.get(n, Poly()) for n in range(top + 1)],
                         self.k + other.k + left.k)

    def eigen_residual(self, f, lam, prob):
        out, d = Poly(), f
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out + c * d
            if j < self.order:
                d = d.derivative()
        rhs, k = f * lam, self.k
        if k.denominator != 1:
            return RefDiffOp([out], k).sub(RefDiffOp([rhs]), prob)
        if k > 0:
            out, k = out * prob.p ** int(k), 0
        elif k < 0:
            rhs = rhs * prob.p ** int(-k)
        return RefDiffOp([out - rhs], k)

    def conjugate(self, s, e, prob):
        """(p^s w^e) self (p^s w^e)^(-1): D^j = p^-j T_j with T_0 = 1 and
        T_(j+1) = (p d/dx - j p' - nu) T_j, nu = s p' + e (q - p')."""
        p = prob.p
        pprime = p.derivative()
        nu = Fraction(s) * pprime + Fraction(e) * (prob.q - pprime)
        if nu.is_zero():
            return self.reduced(prob)
        n = self.order
        out = [Poly()] * (n + 1)
        t = [Poly.const(1)]
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
        return RefDiffOp(out, self.k - n).reduced(prob)
