"""Numeric realization of the coordinate-transformed Schrodinger pictures.

The exact modules produce everything over rationals; this module maps the
results onto float grids: the y = int dx/p and z = int dx/sqrt(p)
coordinates, weight functions, potentials and superpartner potentials,
finite-difference residuals of the rescaled eigenfunctions, and the
Sturm-Liouville supersymmetrizations of a generic operator
-P d^2 - Q d - R.

On Poly input (deg p <= 2) the maps y and z, their inverses u -> x,
int Q/P and the weight of a p without rational roots are elementary closed
forms; scipy's quad runs only for sampled (--csv) input, for
orthogonality_matrix and for aux_ground_check.

Residual convention: ``schrodinger_residual`` reports the standard
relative linear-algebra residual |res|_inf / (|A|_inf |Psi|_inf) where
|A|_inf is estimated as 4/h^2 + max|V - E| for the discretized operator,
and the convergence order is measured from the absolute residual under one
grid halving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .core import Poly, Problem, rational_sqrt
from .associated import _check_range, assoc_lambda
from .principal import (Ladders, _own, principal_eigenfunction,
                        superpotential_w0)


def __getattr__(name: str):
    """quad and solve_ivp from scipy.integrate, imported on first use
    (PEP 562): the import is most of the package's start-up time and only
    numeric work needs it.  The first lookup binds the name here.  Only quad
    is called; solve_ivp stays resolvable for callers that wrap both names
    (perfbench/tracer.py)."""
    if name not in ("quad", "solve_ivp"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import integrate
    globals()[name] = value = getattr(integrate, name)
    return value


def _scipy(name: str):
    """This module's quad as bound now, read once per call of the function
    that needs it, so a wrapper set on it sees every call."""
    return globals().get(name) or __getattr__(name)


class SingularGrid(ValueError):
    """p (or P) vanishes or changes sign on the working grid."""


@dataclass(frozen=True)
class Grid:
    nodes: np.ndarray
    lo: float
    hi: float
    spacing: str = "uniform"

    @classmethod
    def uniform(cls, lo: float, hi: float, n: int) -> "Grid":
        if not lo < hi:
            raise ValueError("need lo < hi")
        if n < 1:
            raise ValueError(f"nodes (--nodes) must be >= 1, got {n}")
        return cls(np.linspace(lo, hi, n), lo, hi)


def _check_sign_definite(vals: np.ndarray):
    if np.any(vals == 0) or not (np.all(vals > 0) or np.all(vals < 0)):
        raise SingularGrid("p vanishes or changes sign on the grid")


def _cumulative_quad(f: Callable, nodes: np.ndarray, anchor_index: int) -> np.ndarray:
    """Antiderivative of f on the nodes, zero at the anchor node."""
    quad = _scipy("quad")
    pieces = np.empty(len(nodes))
    pieces[0] = 0.0
    for i in range(1, len(nodes)):
        pieces[i] = quad(f, nodes[i - 1], nodes[i], epsabs=1e-12,
                         epsrel=1e-12)[0]
    out = np.cumsum(pieces)
    return out - out[anchor_index]


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


def coordinate_maps(prob: Problem, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(y, z) with y = int dx/p and z = int dx/sqrt(p), anchored mid-grid."""
    x = grid.nodes
    pv = prob.p(x)
    _check_sign_definite(pv)
    x0 = x[len(x) // 2]
    return _y_map(prob.p, x0)[0](x), _z_map(prob.p, x0)[0](x)


def weight_function(prob: Problem):
    """Closed-form callable for w = exp(int (q - p')/p), or None.

    Built from the partial fractions of (q - p')/p when p factors over the
    rationals.
    """
    num = prob.q - prob.p.derivative()
    p = prob.p
    if p.degree == 0:
        c2 = float(num[1] / (2 * p[0]))
        c1 = float(num[0] / p[0])
        return lambda x: np.exp(c2 * np.asarray(x, float) ** 2
                                + c1 * np.asarray(x, float))
    if p.degree == 1:
        r = -p[0] / p[1]
        slope = float(num[1] / p[1])
        expo = float(num(r) / p[1])
        rf = float(r)
        return lambda x: np.exp(slope * np.asarray(x, float)) \
            * np.abs(np.asarray(x, float) - rf) ** expo
    disc = p[1] * p[1] - 4 * p[2] * p[0]
    root = rational_sqrt(disc)
    if root is None:
        return None
    r1 = (-p[1] - root) / (2 * p[2])
    r2 = (-p[1] + root) / (2 * p[2])
    if r1 == r2:
        e1 = float(num[1] / p[2])
        c = float(num(r1) / p[2])
        rf = float(r1)
        return lambda x: np.abs(np.asarray(x, float) - rf) ** e1 \
            * np.exp(-c / (np.asarray(x, float) - rf))
    e1 = float(num(r1) / (p[2] * (r1 - r2)))
    e2 = float(num(r2) / (p[2] * (r2 - r1)))
    f1, f2 = float(r1), float(r2)
    return lambda x: np.abs(np.asarray(x, float) - f1) ** e1 \
        * np.abs(np.asarray(x, float) - f2) ** e2


def weight_numeric(prob: Problem, grid: Grid) -> np.ndarray:
    x = grid.nodes
    _check_sign_definite(prob.p(x))
    fn = weight_function(prob)
    if fn is not None:
        return fn(x)
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


@dataclass(frozen=True)
class NumericProfile:
    grid: Grid
    w: np.ndarray
    y: np.ndarray
    z: np.ndarray
    W_l: np.ndarray
    V_l: np.ndarray
    V_s_l: np.ndarray
    W_a_m: np.ndarray
    V_a_m: np.ndarray
    psi_l: np.ndarray
    s_phi_lm: np.ndarray


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


def potentials(prob: Problem, l: int, m: int, grid: Grid) -> NumericProfile:
    _check_range(l, m)
    x = grid.nodes
    pv = prob.p(x)
    _check_sign_definite(pv)
    sqrtp = np.sqrt(np.abs(pv))
    w = weight_numeric(prob, grid)
    y, z = coordinate_maps(prob, grid)
    lad = Ladders(prob, l)
    wl = lad.wl("minus", l)
    vl = potential_poly(prob, l, lad)
    vsl = superpartner_poly(prob, l, lad)
    phi, _ = principal_eigenfunction(prob, l, lad)
    s_phi, vam, kv = _assoc_schrodinger(prob, phi, m, x, w)
    wam = -kv / (2.0 * sqrtp)
    psi = np.sqrt(w) * phi(x)
    return NumericProfile(grid, w, y, z, wl(x), vl(x), vsl(x), wam, vam,
                          psi, s_phi)


def _natural_domain(prob: Problem) -> tuple[float, float]:
    """Working x-interval: between the roots of p, or weight-truncated."""
    p = prob.p
    wfn = weight_function(prob)

    def cutoff(start: float, direction: float) -> float:
        t = start + direction
        # a weight that overflows to inf is not below the cut
        with np.errstate(over="ignore"):
            for _ in range(200):
                if wfn is None or wfn(t) < 1e-16:
                    return t
                t += direction * max(1.0, 0.1 * abs(t))
        return start + direction * 50.0

    if p.degree == 2:
        disc = p[1] * p[1] - 4 * p[2] * p[0]
        if disc > 0:
            root = rational_sqrt(disc)
            root = float(root) if root is not None else float(disc) ** 0.5
            r1 = float((-p[1] - root) / (2 * p[2]))
            r2 = float((-p[1] + root) / (2 * p[2]))
            lo, hi = min(r1, r2), max(r1, r2)
            mid = 0.5 * (lo + hi)
            if p(mid) > 0:
                return lo, hi
            return hi, cutoff(hi, 1.0)
        return cutoff(0.0, -1.0), cutoff(0.0, 1.0)
    if p.degree == 1:
        r = float(-p[0] / p[1])
        return (r, cutoff(r, 1.0)) if p[1] > 0 else (cutoff(r, -1.0), r)
    return cutoff(0.0, -1.0), cutoff(0.0, 1.0)


def schrodinger_residual(prob: Problem, l: int, m: int, nodes: int = 2000,
                         form: str = "y", span: float = 5.0,
                         inset: float = 1e-3) -> tuple[float, float | None]:
    """(relative residual, empirical convergence order) of the rescaled
    eigenfunction on a uniform grid in the y or z coordinate.

    Relative means |res|_inf / (|A|_inf |Psi|_inf) with
    |A|_inf = 4/h^2 + max|V - E|; the order comes from halving h.  When
    both residuals vanish the scheme is exact on this input, and its formal
    order 2 is reported; when only one does, no rate exists and the order
    is None.  A residual needs an interior node, so nodes must be >= 3.
    """
    if form not in ("y", "z"):
        raise ValueError("form must be 'y' or 'z'")
    if nodes < 3:
        raise ValueError(f"nodes (--nodes) must be >= 3 to leave a residual "
                         f"point, got {nodes}")
    _check_range(l, m)
    if form == "y" and m != 0:
        raise ValueError("the y-form realizes the principal level m=0")
    lo, hi = _natural_domain(prob)
    width = hi - lo
    x0 = 0.5 * (lo + hi)
    u_of_x, x_of_u = (_y_map if form == "y" else _z_map)(prob.p, x0)
    # y falls with x where p < 0, so clip each end on its own side
    u_lo, u_hi = (float(np.clip(u_of_x(end), -span, span))
                  for end in (lo + inset * width, hi - inset * width))
    # the halved grid holds every node of the coarse one, and x(u) is
    # pointwise, so one inversion serves both grids
    u = np.linspace(u_lo, u_hi, 2 * nodes - 1)
    x = x_of_u(u)
    lad = Ladders(prob, l)
    phi, _ = principal_eigenfunction(prob, l, lad)
    if form == "y":
        vl = potential_poly(prob, l, lad)
        E = float(lad.entry("minus", l).E)
    else:
        E = float(assoc_lambda(prob, l, m))
    # (-p, -q) has the same Phi_l and w with V -> -V and lambda -> -lambda,
    # so where p < 0 the z form reads sign(p) (V - E)
    sign = math.copysign(1.0, prob.p(x0)) if form == "z" else 1.0
    r = []
    for uk, xk in ((u, x), (u[::2], x[::2])):    # halved grid, then n nodes
        w = weight_numeric(prob, Grid(xk, float(np.min(xk)),
                                      float(np.max(xk)), "mapped"))
        if form == "y":
            psi, V = np.sqrt(w) * phi(xk), vl(xk)
        else:
            psi, V, _ = _assoc_schrodinger(prob, phi, abs(m), xk, w)
        h = uk[1] - uk[0]
        res = -(psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h ** 2 \
            + sign * (V[1:-1] - E) * psi[1:-1]
        r.append(float(np.max(np.abs(res))))
    r2, r1 = r
    a_norm = 4.0 / h ** 2 + float(np.max(np.abs(V - E)))
    rel = r1 / (a_norm * float(np.max(np.abs(psi))))
    if r1 > 0 and r2 > 0:
        order = float(np.log2(r1 / r2))
    else:
        order = 2.0 if r1 == r2 == 0 else None
    return rel, order


def orthogonality_matrix(prob: Problem, nmax: int,
                         inset: float = 0.0) -> np.ndarray:
    """Gram matrix int w Phi_i Phi_j dx over the natural domain."""
    lo, hi = _natural_domain(prob)
    cut_lo, cut_hi = (abs(prob.p(end)) > 1e-9 for end in (lo, hi))
    width = hi - lo
    lo, hi = lo + inset * width, hi - inset * width
    wfn = weight_function(prob)
    if wfn is not None:
        # weight-truncated ends must also suppress the polynomial growth;
        # an end at a root of p stays where it is
        while cut_hi and hi < 1e4 \
                and wfn(hi) * max(1.0, abs(hi)) ** (2 * nmax) > 1e-20:
            hi += max(1.0, 0.05 * abs(hi))
        while cut_lo and lo > -1e4 \
                and wfn(lo) * max(1.0, abs(lo)) ** (2 * nmax) > 1e-20:
            lo -= max(1.0, 0.05 * abs(lo))
    else:
        logw = _over_p(prob.p, prob.q - prob.p.derivative(), 0.5 * (lo + hi))
        wfn = lambda x: np.exp(logw(x))
    lad = Ladders(prob, nmax)

    def horner(phi: Poly) -> Callable:
        # Poly.__call__'s steps on float coefficients converted once
        cs = [float(c) for c in reversed(phi.coeffs)]

        def f(x):
            acc = x * 0.0
            for c in cs:
                acc = acc * x + c
            return acc
        return f
    polys = [horner(principal_eigenfunction(prob, i, lad)[0])
             for i in range(nmax + 1)]
    out = np.empty((nmax + 1, nmax + 1))
    quad = _scipy("quad")
    import warnings
    from scipy.integrate import IntegrationWarning
    with warnings.catch_warnings():
        # the absolute tolerance is deliberately tighter than large diagonal
        # entries can satisfy; the roundoff report is expected
        warnings.simplefilter("ignore", IntegrationWarning)
        for i in range(nmax + 1):
            for j in range(i, nmax + 1):
                val = quad(lambda x: wfn(x) * polys[i](x) * polys[j](x),
                           lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
                out[i, j] = out[j, i] = val
    return out


def aux_ground_check(prob: Problem, grid: Grid) -> float:
    """Numeric consistency of the auxiliary level below the ground state.

    Psi = w^(-1/2) int w/p dx solves (p d/dx - W0) Psi = sqrt(w); returns
    the maximum relative deviation on interior nodes.
    """
    x = grid.nodes
    _check_sign_definite(prob.p(x))
    w = weight_numeric(prob, grid)
    wfn = weight_function(prob)
    if wfn is None:
        wfn = lambda t: np.interp(t, x, w)
    mid = len(x) // 2
    integral = _cumulative_quad(lambda t: wfn(t) / prob.p(t), x, mid)
    psi = integral / np.sqrt(w)
    dpsi = np.gradient(psi, x, edge_order=2)
    w0 = superpotential_w0(prob)(x)
    lhs = prob.p(x) * dpsi - w0 * psi
    ref = np.sqrt(w)
    err = np.abs(lhs - ref)[2:-2]
    return float(np.max(err) / np.max(np.abs(ref)))


PolyOrFn = Union[Poly, Callable]


def _fn(obj: PolyOrFn) -> Callable:
    if isinstance(obj, Poly):
        return lambda x: obj(np.asarray(x, float))
    return obj


def _closed_form(P: PolyOrFn) -> bool:
    """Whether the maps of P have the closed forms above (else quadrature)."""
    return isinstance(P, Poly) and P.degree <= 2


def _dfn(obj: PolyOrFn, h: float = 1e-6) -> Callable:
    if isinstance(obj, Poly):
        d = obj.derivative()
        return lambda x: d(np.asarray(x, float))
    return lambda x: (obj(np.asarray(x, float) + h)
                      - obj(np.asarray(x, float) - h)) / (2 * h)


def sl_transform_typeI(P: PolyOrFn, Q: PolyOrFn, R: PolyOrFn, grid: Grid,
                       E: float = 0.0, Lambda: float = 0.0) -> dict:
    """Supersymmetrize -P d^2 - Q d - R toward the momentum -i P d/dx.

    Returns rho = P^-1 exp(int Q/P), the partial superpotential
    G = (P' - Q)/2, the overall potential
    U = -P G' + G^2 - R - Lambda P + E, and the map u = int dx/P.
    The transformed eigenfunction is rho^(1/2) psi with eigenvalue E.
    """
    x = grid.nodes
    Pf, Qf, Rf = _fn(P), _fn(Q), _fn(R)
    Pv = Pf(x) * np.ones_like(x)
    _check_sign_definite(Pv)
    mid = len(x) // 2
    closed = _closed_form(P)
    if closed and isinstance(Q, Poly):
        rho = np.exp(_over_p(P, Q, x[mid])(x)) / Pv
    else:
        rho = np.exp(_cumulative_quad(lambda t: Qf(t) / Pf(t), x, mid)) / Pv
    G = 0.5 * (_dfn(P)(x) - Qf(x))
    Gp = 0.5 * (_dfn(P, 1e-4)(x) - _dfn(Q, 1e-4)(x)) if not (
        isinstance(P, Poly) and isinstance(Q, Poly)) \
        else 0.5 * (P.derivative().derivative()(x) - Q.derivative()(x))
    U = -Pv * Gp + G ** 2 - Rf(x) * np.ones_like(x) - Lambda * Pv + E
    u = _y_map(P, x[mid])[0](x) if closed \
        else _cumulative_quad(lambda t: 1.0 / Pf(t), x, mid)
    return {"rho": rho, "G": G, "U": U, "u": u}


def sl_transform_typeII(P: PolyOrFn, Q: PolyOrFn, R: PolyOrFn,
                        grid: Grid) -> dict:
    """Supersymmetrize -P d^2 - Q d - R toward the momentum -i sqrt(P) d/dx.

    Returns W_rho = -(Q - P'/2)/(2 sqrt P), the potential
    V_rho = -sqrt(P) W_rho' + W_rho^2 - R, and the map v = int dx/sqrt(P).
    The transformed eigenfunction rho^(1/2) P^(1/4) psi keeps the original
    eigenvalue.
    """
    x = grid.nodes
    Pf, Qf, Rf = _fn(P), _fn(Q), _fn(R)
    Pv = Pf(x) * np.ones_like(x)
    _check_sign_definite(Pv)
    sq = np.sqrt(np.abs(Pv))

    def wr(t):
        return -(Qf(t) - 0.5 * _dfn(P)(t)) / (2.0 * np.sqrt(abs(Pf(t))))

    W = wr(x)
    hstep = 1e-5
    Wp = (wr(x + hstep) - wr(x - hstep)) / (2 * hstep)
    V = -sq * Wp + W ** 2 - Rf(x) * np.ones_like(x)
    mid = len(x) // 2
    v = _z_map(P, x[mid])[0](x) if _closed_form(P) \
        else _cumulative_quad(lambda t: 1.0 / np.sqrt(abs(Pf(t))), x, mid)
    return {"W_rho": W, "V_rho": V, "v": v}


def sl_full_susy_residual(P: PolyOrFn, Q: PolyOrFn, R: PolyOrFn,
                          Q1: PolyOrFn, Lambda1: float, grid: Grid) -> float:
    """Max residual of P(W' + W^2) + Q W + R + Lambda1 with W = Q1/(2P).

    A vanishing residual certifies that -Q1 d/dx is the first-order piece
    whose partial supersymmetrization produced -R; this only checks a
    candidate, it does not solve for Q1.
    """
    x = grid.nodes
    Pf, Qf, Rf, Q1f = _fn(P), _fn(Q), _fn(R), _fn(Q1)
    Pv = Pf(x) * np.ones_like(x)
    _check_sign_definite(Pv)

    def w(t):
        return Q1f(t) / (2.0 * Pf(t))

    W = w(x)
    if isinstance(P, Poly) and isinstance(Q1, Poly):
        # exact quotient rule: W' = (Q1' P - Q1 P') / (2 P^2)
        num = Q1.derivative() * P - Q1 * P.derivative()
        Wp = num(x) / (2.0 * Pv ** 2)
    else:
        hstep = 1e-5
        Wp = (w(x + hstep) - w(x - hstep)) / (2 * hstep)
    res = Pv * (Wp + W ** 2) + Qf(x) * W + Rf(x) * np.ones_like(x) + Lambda1
    return float(np.max(np.abs(res)))
