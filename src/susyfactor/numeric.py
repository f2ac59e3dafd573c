"""Numeric realization of the coordinate-transformed Schrodinger pictures.

The exact modules produce everything over rationals; this module maps the
results onto float grids: the y = int dx/p and z = int dx/sqrt(p)
coordinates, weight functions, potentials and superpartner potentials,
finite-difference residuals of the rescaled eigenfunctions, and the
Sturm-Liouville supersymmetrizations of a generic operator
-P d^2 - Q d - R.

Residual convention: ``schrodinger_residual`` reports the standard
relative linear-algebra residual |res|_inf / (|A|_inf |Psi|_inf) where
|A|_inf is estimated as 4/h^2 + max|V - E| for the discretized operator,
and the convergence order is measured from the absolute residual under one
grid halving.
"""

from __future__ import annotations

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
    numeric work needs it.  The first lookup binds the name here."""
    if name not in ("quad", "solve_ivp"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import integrate
    globals()[name] = value = getattr(integrate, name)
    return value


def _scipy(name: str):
    """This module's quad or solve_ivp as bound now, read once per call of
    the function that needs it, so a wrapper set on it sees every call."""
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


def coordinate_maps(prob: Problem, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(y, z) with y = int dx/p and z = int dx/sqrt(p), anchored mid-grid."""
    x = grid.nodes
    pv = prob.p(x)
    _check_sign_definite(pv)
    mid = len(x) // 2
    y = _cumulative_quad(lambda t: 1.0 / prob.p(t), x, mid)
    z = _cumulative_quad(lambda t: 1.0 / np.sqrt(abs(prob.p(t))), x, mid)
    return y, z


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
    num = prob.q - prob.p.derivative()
    mid = len(x) // 2
    logw = _cumulative_quad(lambda t: num(t) / prob.p(t), x, mid)
    return np.exp(logw)


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


def _x_of_coordinate(prob: Problem, u: np.ndarray, x0: float, form: str) -> np.ndarray:
    """Invert u(x) (u = y or z) by integrating dx/du from the anchor x0."""
    solve_ivp = _scipy("solve_ivp")
    if form == "y":
        rhs = lambda t, xv: prob.p(xv)
    else:
        rhs = lambda t, xv: np.sqrt(abs(prob.p(xv)))
    out = np.empty_like(u)
    pos = u >= 0
    for mask, targets in ((pos, u[pos]), (~pos, u[~pos][::-1])):
        if targets.size == 0:
            continue
        sol = solve_ivp(rhs, (0.0, targets[-1]), [x0], t_eval=targets,
                        method="DOP853", rtol=1e-13, atol=1e-14)
        if not sol.success:
            raise SingularGrid("coordinate inversion failed")
        vals = sol.y[0]
        out[mask] = vals if mask is pos else vals[::-1]
    return out


def _natural_domain(prob: Problem) -> tuple[float, float]:
    """Working x-interval: between the roots of p, or weight-truncated."""
    p = prob.p
    wfn = weight_function(prob)

    def cutoff(start: float, direction: float) -> float:
        t = start + direction
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
    lo_i, hi_i = lo + inset * width, hi - inset * width
    x0 = 0.5 * (lo + hi)
    integ = (lambda t: 1.0 / prob.p(t)) if form == "y" \
        else (lambda t: 1.0 / np.sqrt(abs(prob.p(t))))
    quad = _scipy("quad")
    u_hi = quad(integ, x0, hi_i, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    u_lo = quad(integ, x0, lo_i, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    u_hi, u_lo = min(u_hi, span), max(u_lo, -span)
    # the halved grid holds every node of the coarse one, and solve_ivp's
    # steps do not depend on t_eval, so one inversion serves both grids
    u = np.linspace(u_lo, u_hi, 2 * nodes - 1)
    x = _x_of_coordinate(prob, u, x0, form)
    lad = Ladders(prob, l)
    phi, _ = principal_eigenfunction(prob, l, lad)
    if form == "y":
        vl = potential_poly(prob, l, lad)
        E = float(lad.entry("minus", l).E)
    else:
        E = float(assoc_lambda(prob, l, m))
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
            + (V[1:-1] - E) * psi[1:-1]
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
    width = hi - lo
    lo, hi = lo + inset * width, hi - inset * width
    wfn = weight_function(prob)
    if wfn is not None:
        # weight-truncated ends must also suppress the polynomial growth
        while abs(prob.p(hi)) > 1e-9 and hi < 1e4 \
                and wfn(hi) * max(1.0, abs(hi)) ** (2 * nmax) > 1e-20:
            hi += max(1.0, 0.05 * abs(hi))
        while abs(prob.p(lo)) > 1e-9 and lo > -1e4 \
                and wfn(lo) * max(1.0, abs(lo)) ** (2 * nmax) > 1e-20:
            lo -= max(1.0, 0.05 * abs(lo))
    if wfn is None:
        grid_fn = lambda x: weight_numeric(
            prob, Grid(np.asarray([lo, x]), lo, hi))[-1]
        wfn = np.vectorize(grid_fn)
    lad = Ladders(prob, nmax)
    polys = [principal_eigenfunction(prob, i, lad)[0]
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
    rho = np.exp(_cumulative_quad(lambda t: Qf(t) / Pf(t), x, mid)) / Pv
    G = 0.5 * (_dfn(P)(x) - Qf(x))
    Gp = 0.5 * (_dfn(P, 1e-4)(x) - _dfn(Q, 1e-4)(x)) if not (
        isinstance(P, Poly) and isinstance(Q, Poly)) \
        else 0.5 * (P.derivative().derivative()(x) - Q.derivative()(x))
    U = -Pv * Gp + G ** 2 - Rf(x) * np.ones_like(x) - Lambda * Pv + E
    u = _cumulative_quad(lambda t: 1.0 / Pf(t), x, mid)
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
    v = _cumulative_quad(lambda t: 1.0 / np.sqrt(abs(Pf(t))), x, mid)
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
