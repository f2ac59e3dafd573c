"""Numeric realization of the coordinate-transformed Schrodinger pictures.

The exact modules produce everything over rationals; this module maps the
results onto float grids: the y = int dx/p and z = int dx/sqrt(p)
coordinates, weight functions, potentials and superpartner potentials,
finite-difference residuals of the rescaled eigenfunctions, and the
Sturm-Liouville supersymmetrizations of a generic operator
-P d^2 - Q d - R.  A grid is its array of nodes x.

Nothing here integrates numerically.  On Poly input (deg p <= 2) the maps
y and z, their inverses u -> x, int Q/P and the weights are closed forms,
and int w Phi_i Phi_j is mu0 times a rational matrix from Pearson's moment
recurrence.  One record per problem, _shape, decides over Fraction the
roots of p, the weight's factors and the working side, for the weight,
the domain and mu0 alike.  Other input is read as samples at the grid
nodes, integrated exactly on their piecewise-linear interpolants.

Residual convention: ``schrodinger_residual`` reports the standard
relative linear-algebra residual |res|_inf / (|A|_inf |Psi|_inf) where
|A|_inf is estimated as 4/h^2 + max|V - E| for the discretized operator,
and the convergence order is measured from the absolute residual under one
grid halving.  w, Psi and V are evaluated once, on the halved grid; the
coarse grid reads them at its even nodes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .core import Poly, Problem, rational_sqrt
from .associated import _check_range, assoc_lambda
from .principal import (Ladders, _own, principal_eigenfunction,
                        superpotential_w0)

SPAN = 5.0      # schrodinger_residual clips u to [-SPAN, SPAN]


def __getattr__(name: str):
    """quad and solve_ivp from scipy.integrate, imported on first use
    (PEP 562).  The first lookup binds the name here.  Neither is called
    here; both stay resolvable for callers that wrap them by name
    (perfbench/tracer.py)."""
    if name not in ("quad", "solve_ivp"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import integrate
    globals()[name] = value = getattr(integrate, name)
    return value


class SingularGrid(ValueError):
    """p (or P) vanishes or changes sign on the working grid."""


class DomainError(ValueError):
    """A scalar result is not finite: the weight or a coefficient leaves the
    float range on the working grid."""


def _finite(value: float, what: str) -> float:
    """value, or DomainError when it is inf or nan."""
    if not math.isfinite(value):
        raise DomainError(f"{what} is {value}: the weight or a coefficient "
                          f"leaves the float range on the working grid")
    return value


def _quiet():
    """np.errstate under which an overflow, 0 * inf or a negative power of
    0 is a value (inf or nan), not a warning, as in _exp."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _check_sign_definite(vals: np.ndarray):
    if np.any(vals == 0) or not (np.all(vals > 0) or np.all(vals < 0)):
        raise SingularGrid("p vanishes or changes sign on the grid")


def _cumulative(pieces: np.ndarray, anchor_index: int) -> np.ndarray:
    """Running sum of per-interval integrals, zero at the anchor node."""
    out = np.concatenate(([0.0], np.cumsum(pieces)))
    return out - out[anchor_index]


# Sampled input, joined linearly between nodes.  On an interval of width h
# with d = dP/P0, int dx/sqrt|P| = 2h/(sqrt|P0| + sqrt|P1|) and, writing
# Q = alpha P + beta, int Q/P = h (Q0 L(d) + dQ M(d))/P0 with
# L = log1p(d)/d and M = (1 - L)/d, which cancels below |d| = 1e-2, where
# both come from their series.  Derivatives are second-order differences.

def _samples(f, x: np.ndarray) -> np.ndarray:
    """f at the nodes x: samples as given, or a callable evaluated once."""
    return np.asarray(f(x) if callable(f) else f, float) * np.ones_like(x)


def _gradient(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.gradient(f, x, edge_order=2)


def _over_p_pieces(x: np.ndarray, P: np.ndarray,
                   Q: np.ndarray) -> np.ndarray:
    """int Q/P over each interval of the nodes, for the piecewise-linear
    interpolants of the samples P (of one sign) and Q."""
    d = np.diff(P) / P[:-1]
    small = np.abs(d) < 1e-2
    t, s = np.where(small, 1.0, d), np.where(small, -d, 0.0)
    L = np.where(small, sum(s ** k / (k + 1) for k in range(9)),
                 np.log1p(t) / t)
    M = np.where(small, sum(s ** k / (k + 2) for k in range(9)), (1 - L) / t)
    return np.diff(x) * (Q[:-1] * L + np.diff(Q) * M) / P[:-1]


# Closed-form Liouville maps.  With deg p <= 2 the antiderivatives of 1/p,
# num/p and 1/sqrt|p| are elementary; the branch (log, atan, atanh, asin,
# asinh, acosh, a power) is fixed exactly over Fraction by deg p and the
# discriminant D, and by the side of the roots of p the anchor x0 lies on.
# Each map is 0 at x0 and works pointwise, as does its inverse u -> x; the
# odd functions keep a map odd about x0 where p is even about x0.

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


def _over_p(p: Poly, num: Poly, x0: float) -> Callable:
    """F with F' = num/p and F(x0) = 0, for deg p <= 2.

    num = quo p + alpha p' + beta exactly, so
    F = int quo + alpha log|p/p(x0)| + beta y.
    """
    quo, rem = num.divmod(p)
    poly = Poly([0, *(c / (k + 1) for k, c in enumerate(quo.coeffs))])
    dp = p.derivative()
    alpha = rem[dp.degree] / dp[dp.degree] if p.degree else Fraction(0)
    beta = rem[0] - alpha * dp[0]
    alpha, beta = float(alpha), float(beta)
    y = _y_map(p, x0)[0]

    def F(x):
        x = np.asarray(x, float)
        out = poly(x) - poly(x0)
        if alpha:
            out = out + alpha * np.log(np.abs(p(x) / p(x0)))
        if beta:
            out = out + beta * y(x)
        return out
    return F


def coordinate_maps(prob: Problem,
                    x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, z) at the nodes x with y = int dx/p and z = int dx/sqrt(p),
    anchored at the mid node."""
    pv = prob.p(x)
    _check_sign_definite(pv)
    x0 = x[len(x) // 2]
    return _y_map(prob.p, x0)[0](x), _z_map(prob.p, x0)[0](x)


class _Shape(NamedTuple):
    """(p, q) as the float side reads it, worked out over Fraction once.

    w = exp(int (q - p')/p) is e^(c2 x^2 + c1 x) prod |x - r_i|^e_i over
    p's real roots (r_i, a_i, b_i), e_i = a_i + b_i sqrt(disc), times
    e^(-c/(x - r)) at a double root r; ``w`` is it on floats, None where
    p has no real root.  r_i is a float where disc is not a square, else
    a Fraction.  Each end of side = (lo, hi) is a root, or
    None where open: beside one root or between two where p > 0, else
    beyond the upper one; beside a double root, where w vanishes at it.
    """
    w: Callable | None
    disc: Fraction = Fraction(0)
    sqrt: float = 0.0               # sqrt(disc)
    roots: tuple = ()
    c2: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)
    side: tuple = (None, None)


def _finite_or_logs(product: Callable, logs: Callable) -> Callable:
    """x -> product(x); where that is not finite (an exp that underflowed to
    0 times a power that overflowed), e^logs(x), the factors' logs summed."""
    def w(x):
        x = np.asarray(x, float)
        out = product(x)
        if math.isfinite(out) if out.ndim == 0 else np.isfinite(out).all():
            return out
        return np.where(np.isfinite(out), out, _exp(logs(x)))
    return w


def _shape(prob: Problem) -> _Shape:
    """prob's _Shape, from the partial fractions of (q - p')/p."""
    p, num = prob.p, prob.q - prob.p.derivative()
    if p.degree == 0:
        c2, c1 = num[1] / (2 * p[0]), num[0] / p[0]
        f2, f1 = float(c2), float(c1)
        return _Shape(lambda x: _exp(f2 * np.asarray(x, float) ** 2
                                     + f1 * np.asarray(x, float)),
                      c2=c2, c1=c1)
    if p.degree == 1:
        c1, r = num[1] / p[1], -p[0] / p[1]
        root = (r, num(r) / p[1], 0)
        f1, rf, e = float(c1), float(r), float(root[1])
        return _Shape(_finite_or_logs(
            lambda x: _exp(f1 * x) * np.abs(x - rf) ** e,
            lambda x: f1 * x + e * np.log(np.abs(x - rf))),
                      roots=(root,), c1=c1,
                      side=(root, None) if p[1] > 0 else (None, root))
    disc = p[1] * p[1] - 4 * p[2] * p[0]
    if disc < 0:
        return _Shape(None, disc)
    if disc == 0:
        r = -p[1] / (2 * p[2])
        root, c = (r, num[1] / p[2], 0), num(r) / p[2]
        rf, e, cf = float(r), float(root[1]), float(c)
        return _Shape(_finite_or_logs(
            lambda x: np.abs(x - rf) ** e * _exp(-cf / (x - rf)),
            lambda x: e * np.log(np.abs(x - rf)) - cf / (x - rf)), disc,
                      roots=(root,),
                      side=(None, root) if c < 0 else (root, None))
    # the roots r_1,2 = (-p1 -+ sqrt D)/(2 p2) carry the exponents
    # a -+ b sqrt D
    sq, exact, two = math.sqrt(disc), rational_sqrt(disc), 2 * p[2]
    a = num[1] / two
    b = (num[0] - a * p[1]) / disc
    if exact is None:
        # irrational, so with k = b sqrt D, prod |x - r_i|^e_i is
        # |p/p2|^a |(x - r2)/(x - r1)|^k
        r1, r2 = ((float(-p[1]) + s * sq) / float(2 * p[2]) for s in (-1, 1))
        af, k, monic = float(a), float(num[0] - a * p[1]) / sq, p * (1 / p[2])
        w = _finite_or_logs(lambda x: np.abs(monic(x)) ** af
                            * np.abs((x - r2) / (x - r1)) ** k,
                            lambda x: af * np.log(np.abs(monic(x)))
                            + k * np.log(np.abs((x - r2) / (x - r1))))
    else:
        h, d, k = -p[1] / two, exact / two, b * exact
        r1, r2 = h - d, h + d
        f1, f2, e1, e2 = map(float, (r1, r2, a - k, a + k))
        w = _finite_or_logs(lambda x: np.abs(x - f1) ** e1
                            * np.abs(x - f2) ** e2,
                            lambda x: e1 * np.log(np.abs(x - f1))
                            + e2 * np.log(np.abs(x - f2)))
    roots = (r1, a, -b), (r2, a, b)
    # where p2 < 0, p > 0 between the roots and the second one is the lower
    return _Shape(w, disc, sq, roots,
                  side=(roots[1], roots[0] if p[2] < 0 else None))


def weight_numeric(prob: Problem, x: np.ndarray) -> np.ndarray:
    """w = exp(int (q - p')/p) at the nodes x: _shape's closed form, under
    _quiet, where a power term that overflows, or meets a vanishing
    exponential, is a value (inf or nan)."""
    _check_sign_definite(prob.p(x))
    fn = _shape(prob).w
    if fn is not None:
        with _quiet():
            return fn(x)
    # p without real roots: w anchored to 1 at the mid node
    return np.exp(_over_p(prob.p, prob.q - prob.p.derivative(),
                          x[len(x) // 2])(x))


def assoc_superpotential(prob: Problem, m: int) -> tuple[Poly, Poly]:
    """(k_m, k_m') with W^a_m = -k_m/(2 sqrt p), k_m = (m - 1/2) p' + q."""
    k = (Fraction(2 * m - 1, 2)) * prob.p.derivative() + prob.q
    return k, k.derivative()


def potential_poly(prob: Problem, l: int, lad: Ladders | None = None) -> Poly:
    """V_l = -p W_l' + W_l^2 as an exact polynomial."""
    wl = _own(prob, l, lad).wl("minus", l)
    return -prob.p * wl.derivative() + wl * wl


def superpartner_poly(prob: Problem, l: int,
                      lad: Ladders | None = None) -> Poly:
    """V^s_l = p W_l' + W_l^2."""
    wl = _own(prob, l, lad).wl("minus", l)
    return prob.p * wl.derivative() + wl * wl


def _assoc_schrodinger(prob: Problem, phi: Poly, m: int, x: np.ndarray,
                       w: np.ndarray):
    """z-form (psi, V^a_m, k_m) at the nodes x, given Phi_l and the weight.

    psi = sqrt(w) |p|^((2|m|+1)/4) Phi_l^(|m|) and
    V^a_m = k_m (k_m - p')/(4 p) + k_m'/2.
    """
    dphi = phi
    for _ in range(abs(m)):
        dphi = dphi.derivative()
    pv = prob.p(x)
    psi = np.sqrt(w) * np.abs(pv) ** ((2 * abs(m) + 1) / 4.0) * dphi(x)
    k, kp = assoc_superpotential(prob, m)
    kv = k(x)
    V = kv * (kv - prob.p.derivative()(x)) / (4.0 * pv) + 0.5 * kp(x)
    return psi, V, kv


def potentials(prob: Problem, l: int, m: int, x: np.ndarray
               ) -> dict[str, np.ndarray]:
    """The columns of ``numeric potentials`` at the nodes x, by name in
    CSV order; s_phi_lm is the z-form psi of Phi_lm."""
    _check_range(l, m)
    pv = prob.p(x)
    _check_sign_definite(pv)
    sqrtp = np.sqrt(np.abs(pv))
    w = weight_numeric(prob, x)
    y, z = coordinate_maps(prob, x)
    lad = Ladders(prob, l)
    wl = lad.wl("minus", l)
    vl = potential_poly(prob, l, lad)
    vsl = superpartner_poly(prob, l, lad)
    phi, _ = principal_eigenfunction(prob, l, lad)
    s_phi, vam, kv = _assoc_schrodinger(prob, phi, m, x, w)
    wam = -kv / (2.0 * sqrtp)
    psi = np.sqrt(w) * phi(x)
    return {"w": w, "y": y, "z": z, "W_l": wl(x), "V_l": vl(x),
            "V_s_l": vsl(x), "W_a_m": wam, "V_a_m": vam, "psi_l": psi,
            "s_phi_lm": s_phi}


def _check_inset(inset: float) -> None:
    """Each end of the natural domain is cut by inset times its width."""
    if not 0 <= inset < 0.5:
        raise ValueError(f"inset (--inset) must lie in [0, 1/2), got {inset}")


def _natural_domain(prob: Problem) -> tuple[float, float]:
    """Working x-interval: the ends of _shape's side, each open end cut
    where the weight falls below 1e-16."""
    wfn, *_, (lo, hi) = _shape(prob)

    def cutoff(start: float, direction: float) -> float:
        t = start + direction
        # a weight that overflows to inf is not below the cut
        with _quiet():
            for _ in range(200):
                if wfn is None or wfn(t) < 1e-16:
                    return t
                t += direction * max(1.0, 0.1 * abs(t))
        return start + direction * 50.0

    start = float(next((end[0] for end in (lo, hi) if end), 0))
    return (float(lo[0]) if lo else cutoff(start, -1.0),
            float(hi[0]) if hi else cutoff(start, 1.0))


def schrodinger_residual(prob: Problem, l: int, m: int, nodes: int = 2000,
                         form: str = "y", inset: float = 1e-3
                         ) -> tuple[float, float | None]:
    """(relative residual, empirical convergence order) of the rescaled
    eigenfunction on a uniform grid in the y or z coordinate, |u| <= SPAN,
    over the natural domain less the share inset of its width at each end
    (0 <= inset < 1/2, else ValueError).

    Relative means |res|_inf / (|A|_inf |Psi|_inf) with
    |A|_inf = 4/h^2 + max|V - E|; the order comes from halving h.  When the
    relative residual is <= 16 eps on both grids the scheme is exact on this
    input, and its formal order 2 is reported; otherwise, when only one
    residual vanishes, no rate exists and the order is None.  A residual
    needs an interior node, so nodes must be >= 3.
    """
    if form not in ("y", "z"):
        raise ValueError("form must be 'y' or 'z'")
    if nodes < 3:
        raise ValueError(f"nodes (--nodes) must be >= 3 to leave a residual "
                         f"point, got {nodes}")
    _check_range(l, m)
    if form == "y" and m != 0:
        raise ValueError("the y-form realizes the principal level m=0")
    _check_inset(inset)
    lo, hi = _natural_domain(prob)
    width = hi - lo
    x0 = 0.5 * (lo + hi)
    u_of_x, x_of_u = (_y_map if form == "y" else _z_map)(prob.p, x0)
    # an end at a root of p maps to +-inf and is clipped to +-SPAN; y falls
    # with x where p < 0, so clip each end on its own side
    with _quiet():
        u_lo, u_hi = (float(np.clip(u_of_x(end), -SPAN, SPAN))
                      for end in (lo + inset * width, hi - inset * width))
    # the halved grid holds every node of the coarse one, and x(u), w, psi
    # and V are pointwise, so the coarse grid reads them at the even nodes
    u = np.linspace(u_lo, u_hi, 2 * nodes - 1)
    x = x_of_u(u)
    lad = Ladders(prob, l)
    phi, _ = principal_eigenfunction(prob, l, lad)
    if form == "y":
        vl = potential_poly(prob, l, lad)
        n, d = lad.fields("minus", l)[3]
        E = n / d       # correctly rounded, as float(Fraction(n, d))
    else:
        E = float(assoc_lambda(prob, l, m))
    # (-p, -q) has the same Phi_l and w with V -> -V and lambda -> -lambda,
    # so where p < 0 the z form reads sign(p) (V - E)
    sign = math.copysign(1.0, prob.p(x0)) if form == "z" else 1.0
    w = weight_numeric(prob, x)
    # a weight that left the floats gives a residual that is not finite
    with _quiet():
        if form == "y":
            psi, V = np.sqrt(w) * phi(x), vl(x)
        else:
            psi, V, _ = _assoc_schrodinger(prob, phi, abs(m), x, w)
    r, rels = [], []
    for k in (1, 2):            # the halved grid, then its n even nodes
        pk, Vk = psi[::k], V[::k]
        with _quiet():
            h = u[k] - u[0]
            res = -(pk[2:] - 2.0 * pk[1:-1] + pk[:-2]) / h ** 2 \
                + sign * (Vk[1:-1] - E) * pk[1:-1]
            r.append(float(np.max(np.abs(res))))
            a_norm = 4.0 / h ** 2 + float(np.max(np.abs(Vk - E)))
        rels.append(_finite(r[-1] / (a_norm * float(np.max(np.abs(pk)))),
                            "the residual"))
    if max(rels) <= 16 * np.finfo(float).eps:
        return rels[1], 2.0
    r2, r1 = r
    return rels[1], float(np.log2(r1 / r2)) if r1 > 0 and r2 > 0 else None


# Pearson's equation (p w)' = q w (Nikiforov & Uvarov, Special Functions of
# Mathematical Physics, 1988), integrated against (x^k)' by parts, gives
#   (k p2 + q1) mu_{k+1} = -(k p1 + q0) mu_k - k p0 mu_{k-1}
# for mu_k = int x^k w once x^k p w vanishes at both ends; so
# int w Phi_i Phi_j = mu0 G_ij, G rational, mu0 a Gauss, Gamma or Beta value.

def _positive(a: Fraction, b: Fraction, disc: Fraction) -> bool:
    """a + b sqrt(disc) > 0, decided over Fraction (disc > 0)."""
    s = a * a - b * b * disc
    return a > 0 and (b >= 0 or s > 0) or b > 0 and (a >= 0 or s < 0)


def _weight_mass(prob: Problem, top: int) -> float:
    """mu0 = int w over _shape's side, the one _natural_domain takes: a
    Gauss, Gamma or Beta value.

    Raises ValueError unless x^top w is integrable at both ends.
    """
    p, (_, disc, sq, roots, c2, c1, (lo, hi)) = prob.p, _shape(prob)
    if p.degree == 0:
        if c2 >= 0:
            raise ValueError(f"w = exp({c2} x^2 + ...) is not integrable")
        return math.sqrt(math.pi / -c2) * math.exp(-c1 * c1 / (4 * c2))
    if p.degree == 1:
        r, e, _ = lo or hi
        # e^(c1 x) must fall toward the open end
        if c1 * (1 if hi is None else -1) >= 0 or e <= -1:
            raise ValueError(f"w = e^({c1} x) |x - {r}|^({e}) is not "
                             f"integrable where p > 0")
        return math.exp(math.lgamma(e + 1) - (e + 1) * math.log(abs(c1))
                        + c1 * r)
    if len(roots) < 2:
        raise ValueError("p has no two real roots to bound an interval")
    total = roots[0][1] + roots[1][1]       # 2a
    expo = lambda end: float(end[1]) + float(end[2]) * sq
    # beyond the roots only the upper one, lo, bounds the interval
    for end, name in zip((hi, lo) if hi else (lo,), ("upper", "lower")):
        if not _positive(end[1] + 1, end[2], disc):
            raise ValueError(f"w ~ |x - r|^({expo(end):.6g}) is not "
                             f"integrable at the {name} root of p")
    if hi is None and top + total >= -1:
        raise ValueError(f"x^{top} w ~ x^({top + total}) at infinity")
    # width^(2a+1) B(s, t): between the roots B(e_lo + 1, e_hi + 1), beyond
    # them B(e_hi + 1, -2a - 1)
    s, t = expo(lo) + 1, (expo(hi) + 1 if hi else -total - 1)
    return math.exp((total + 1) * math.log(sq / abs(p[2]))
                    + math.lgamma(s) + math.lgamma(t) - math.lgamma(s + t))


def _pearson_gram(prob: Problem, nmax: int) -> tuple[float, list]:
    """(mu0, G) with int w Phi_i Phi_j = mu0 G_ij for i, j <= nmax."""
    try:
        mu0 = _finite(_weight_mass(prob, 2 * nmax), "mu0")
    except OverflowError:
        raise DomainError("mu0 = int w leaves the float range") from None
    p, q = prob.p, prob.q
    m = [Fraction(1)]                   # mu_k / mu0
    # with both ends integrable, k p2 + q1 < 0 for every k < 2 nmax
    for k in range(2 * nmax):
        m.append(-((k * p[1] + q[0]) * m[k] + k * p[0] * m[k - 1])
                 / (k * p[2] + q[1]))
    lad = Ladders(prob, nmax)
    phis = [lad.phi(i).coeffs for i in range(nmax + 1)]
    gram = [[sum(ca * cb * m[a + b] for a, ca in enumerate(fi)
                 for b, cb in enumerate(fj)) for fj in phis] for fi in phis]
    return mu0, gram


def orthogonality_matrix(prob: Problem, nmax: int) -> np.ndarray:
    """Gram matrix int w Phi_i Phi_j dx over the natural domain, i, j <= nmax.

    Exact up to the float value of mu0 = int w: the off-diagonal entries are
    0.0.  Raises ValueError where the integrals or mu0's float do not exist.
    """
    mu0, gram = _pearson_gram(prob, nmax)
    return mu0 * np.array([[float(g) for g in row] for row in gram])


def aux_ground_check(prob: Problem, x: np.ndarray) -> float:
    """Numeric consistency of the auxiliary level below the ground state.

    Psi = w^(-1/2) int w/p dx solves (p d/dx - W0) Psi = sqrt(w); the
    integral is a cumulative trapezoid on the nodes.  Returns the maximum
    relative deviation on interior nodes.
    """
    _check_sign_definite(prob.p(x))
    w = weight_numeric(prob, x)
    f = w / prob.p(x)
    integral = _cumulative(0.5 * np.diff(x) * (f[1:] + f[:-1]), len(x) // 2)
    psi = integral / np.sqrt(w)
    dpsi = _gradient(psi, x)
    w0 = superpotential_w0(prob)(x)
    lhs = prob.p(x) * dpsi - w0 * psi
    ref = np.sqrt(w)
    err = np.abs(lhs - ref)[2:-2]
    return float(np.max(err) / np.max(np.abs(ref)))


def _exp(t: np.ndarray) -> np.ndarray:
    """np.exp(t), where an overflow to inf is a value, not a warning."""
    with np.errstate(over="ignore"):
        return np.exp(t)


def _exact(P, Q) -> bool:
    """Whether P and Q are taken exactly; otherwise both are samples."""
    return isinstance(P, Poly) and P.degree <= 2 and isinstance(Q, Poly)


def sl_transform_typeI(P, Q, R, x: np.ndarray, E: float = 0.0,
                       Lambda: float = 0.0) -> dict:
    """Supersymmetrize -P d^2 - Q d - R toward the momentum -i P d/dx.

    Returns rho = P^-1 exp(int Q/P), the partial superpotential
    G = (P' - Q)/2, the overall potential
    U = -P G' + G^2 - R - Lambda P + E, and the map u = int dx/P.
    The transformed eigenfunction is rho^(1/2) psi with eigenvalue E.
    """
    Pv, Qv, Rv = (_samples(f, x) for f in (P, Q, R))
    _check_sign_definite(Pv)
    mid = len(x) // 2
    if _exact(P, Q):
        rho = _exp(_over_p(P, Q, x[mid])(x)) / Pv
        G = 0.5 * (P.derivative()(x) - Qv)
        Gp = 0.5 * (P.derivative().derivative()(x) - Q.derivative()(x))
        u = _y_map(P, x[mid])[0](x)
    else:
        rho = _exp(_cumulative(_over_p_pieces(x, Pv, Qv), mid)) / Pv
        G = 0.5 * (_gradient(Pv, x) - Qv)
        Gp = _gradient(G, x)
        u = _cumulative(_over_p_pieces(x, Pv, np.ones_like(x)), mid)
    U = -Pv * Gp + G ** 2 - Rv - Lambda * Pv + E
    return {"rho": rho, "G": G, "U": U, "u": u}


def sl_transform_typeII(P, Q, R, x: np.ndarray) -> dict:
    """Supersymmetrize -P d^2 - Q d - R toward the momentum -i sqrt(P) d/dx.

    Returns W_rho = -(Q - P'/2)/(2 sqrt P), the potential
    V_rho = -sqrt(P) W_rho' + W_rho^2 - R, and the map v = int dx/sqrt(P).
    The transformed eigenfunction rho^(1/2) P^(1/4) psi keeps the original
    eigenvalue.
    """
    Pv, Qv, Rv = (_samples(f, x) for f in (P, Q, R))
    _check_sign_definite(Pv)
    sq = np.sqrt(np.abs(Pv))
    mid = len(x) // 2
    exact = _exact(P, Q)
    dP = P.derivative()(x) if exact else _gradient(Pv, x)
    # W = -k/(2 sqrt|P|) with k = Q - P'/2: W' = (k P'/(2P) - k')/(2 sqrt|P|)
    k = Qv - 0.5 * dP
    dk = (Q - P.derivative() * Fraction(1, 2)).derivative()(x) if exact \
        else _gradient(k, x)
    v = _z_map(P, x[mid])[0](x) if exact \
        else _cumulative(2.0 * np.diff(x) / (sq[1:] + sq[:-1]), mid)
    W = -k / (2.0 * sq)
    Wp = (k * dP / (2.0 * Pv) - dk) / (2.0 * sq)
    V = -sq * Wp + W ** 2 - Rv
    return {"W_rho": W, "V_rho": V, "v": v}


def sl_full_susy_residual(P, Q, R, Q1, Lambda1: float, x: np.ndarray) -> float:
    """Max residual of P(W' + W^2) + Q W + R + Lambda1 with W = Q1/(2P).

    A vanishing residual certifies that -Q1 d/dx is the first-order piece
    whose partial supersymmetrization produced -R; this only checks a
    candidate, it does not solve for Q1.
    """
    Pv, Qv, Rv, Q1v = (_samples(f, x) for f in (P, Q, R, Q1))
    _check_sign_definite(Pv)
    with _quiet():
        W = Q1v / (2.0 * Pv)
        if isinstance(P, Poly) and isinstance(Q1, Poly):
            # exact quotient rule: W' = (Q1' P - Q1 P') / (2 P^2)
            num = Q1.derivative() * P - Q1 * P.derivative()
            Wp = num(x) / (2.0 * Pv ** 2)
        else:
            Wp = _gradient(W, x)
        res = Pv * (Wp + W ** 2) + Qv * W + Rv + Lambda1
    return _finite(float(np.max(np.abs(res))), "the residual")
