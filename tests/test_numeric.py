import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

from susyfactor.core import Poly, Problem
from susyfactor.associated import assoc_lambda
from susyfactor.principal import factor_table, principal_eigenfunction
from susyfactor import cli, numeric, principal

from oracles import _y_map, _z_map, pearson_gram
from conftest import hermite, hypergeom, jacobi, laguerre, legendre


# The quadrature path the closed-form maps replaced, kept as their reference:
# one quad per grid interval, and u -> x by integrating dx/du with solve_ivp.

def _cumulative_quad_ref(f, nodes, anchor_index):
    pieces = np.empty(len(nodes))
    pieces[0] = 0.0
    for i in range(1, len(nodes)):
        pieces[i] = quad(f, nodes[i - 1], nodes[i], epsabs=1e-12,
                         epsrel=1e-12)[0]
    out = np.cumsum(pieces)
    return out - out[anchor_index]


def _maps_ref(p, x):
    mid = len(x) // 2
    return (_cumulative_quad_ref(lambda t: 1.0 / p(t), x, mid),
            _cumulative_quad_ref(lambda t: 1.0 / np.sqrt(abs(p(t))), x, mid))


def _x_of_coordinate_ref(p, u, x0, form):
    rhs = (lambda t, xv: p(xv)) if form == "y" \
        else (lambda t, xv: np.sqrt(abs(p(xv))))
    out = np.empty_like(u)
    pos = u >= 0
    for mask, targets in ((pos, u[pos]), (~pos, u[~pos][::-1])):
        if targets.size == 0:
            continue
        sol = solve_ivp(rhs, (0.0, targets[-1]), [x0], t_eval=targets,
                        method="DOP853", rtol=1e-13, atol=1e-14)
        assert sol.success
        out[mask] = sol.y[0] if mask is pos else sol.y[0][::-1]
    return out


def _residual_ref(prob, l, m, nodes, form, span=5.0, inset=1e-3):
    """schrodinger_residual with the u-range from quad and u -> x from
    solve_ivp, on the halved grid and its even nodes (p > 0 only)."""
    lo, hi = numeric._natural_domain(prob)
    width = hi - lo
    x0 = 0.5 * (lo + hi)
    integ = (lambda t: 1.0 / prob.p(t)) if form == "y" \
        else (lambda t: 1.0 / np.sqrt(abs(prob.p(t))))
    u_hi, u_lo = (quad(integ, x0, end, epsabs=1e-12, epsrel=1e-12,
                       limit=200)[0]
                  for end in (hi - inset * width, lo + inset * width))
    u = np.linspace(max(u_lo, -span), min(u_hi, span), 2 * nodes - 1)
    x = _x_of_coordinate_ref(prob.p, u, x0, form)
    return _residual_on(prob, l, m, form, ((u, x), (u[::2], x[::2])))


def _residual_on(prob, l, m, form, grids):
    """(rel, order) from the halved grid and the n-node grid, each given
    as its (u, x) nodes."""
    phi, _ = principal_eigenfunction(prob, l)
    E = float(factor_table(prob, "minus", l)[l].E if form == "y"
              else assoc_lambda(prob, l, m))
    r, rels = [], []
    for u, x in grids:
        w = numeric.weight_numeric(prob, x)
        if form == "y":
            psi = np.sqrt(w) * phi(x)
            V = numeric.potential_poly(prob, l)(x)
        else:
            psi, V, _ = numeric._assoc_schrodinger(prob, phi, m, x, w,
                                                   prob.p(x))
        h = u[1] - u[0]
        sign = math.copysign(1.0, prob.p(x[0])) if form == "z" else 1.0
        res = -(psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h ** 2 \
            + sign * (V[1:-1] - E) * psi[1:-1]
        r.append(float(np.max(np.abs(res))))
        a_norm = 4.0 / h ** 2 + float(np.max(np.abs(V - E)))
        rels.append(r[-1] / (a_norm * float(np.max(np.abs(psi)))))
    r2, r1 = r
    if max(rels) <= 16 * np.finfo(float).eps:
        return rels[1], 2.0
    if r1 > 0 and r2 > 0:
        return rels[1], float(np.log2(r1 / r2))
    return rels[1], None


def _rel_dev(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_coordinate_maps_legendre():
    # y = atanh(x), z = asin(x) up to constants (anchored mid-grid at 0)
    x = np.linspace(-0.9, 0.9, 201)
    y, z = numeric.coordinate_maps(legendre(), x)
    assert np.max(np.abs(y - np.arctanh(x))) < 1e-10
    assert np.max(np.abs(z - np.arcsin(x))) < 1e-10


_EVERY_NUMERIC_FUNCTION = """
import sys
import numpy as np
from susyfactor import numeric
from susyfactor.core import Poly, Problem
leg = Problem(Poly([1, 0, -1]), Poly([0, -2]))
grid = np.linspace(-0.5, 0.5, 9)
numeric.coordinate_maps(leg, grid)
numeric.weight_numeric(leg, grid)
numeric.weight_numeric(Problem(Poly([2, 0, -1]), Poly([0, -3])), grid)
numeric.potentials(leg, 3, 1, grid)
numeric.schrodinger_residual(leg, 2, 0, 50, "y")
numeric.schrodinger_residual(leg, 2, 1, 50, "z")
numeric.orthogonality_matrix(leg, 4)
numeric.aux_ground_check(leg, grid)
sampled = (lambda t: 1.0 - t * t, -2.0 * grid, lambda t: 0.0 * t)
for P, Q, R in ((leg.p, leg.q, Poly([])), sampled):
    numeric.sl_transform_typeI(P, Q, R, grid)
    numeric.sl_transform_typeII(P, Q, R, grid)
    numeric.sl_full_susy_residual(P, Q, R, Poly([1, 2]), 0.0, grid)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_scipy_loads_on_first_use():
    # the exact commands load neither scipy nor numpy
    code = ("import sys, susyfactor.cli; "
            "print('scipy.integrate' in sys.modules, 'numpy' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.strip() == "False False"
    # nothing in numeric integrates numerically, on Poly or sampled input
    r = subprocess.run([sys.executable, "-c", _EVERY_NUMERIC_FUNCTION],
                       capture_output=True, text=True, check=True)
    assert r.stdout.strip() == "[]"


def test_maps_match_quadrature(family):
    lo, hi = numeric._natural_domain(family)
    width = hi - lo
    x = np.linspace(lo + 1e-3 * width, hi - 1e-3 * width, 400)
    y_ref, z_ref = _maps_ref(family.p, x)
    rho_ref = np.exp(_cumulative_quad_ref(
        lambda t: family.q(t) / family.p(t), x, len(x) // 2)) / family.p(x)
    y, z = numeric.coordinate_maps(family, x)
    sl1 = numeric.sl_transform_typeI(family.p, family.q, Poly([]), x)
    sl2 = numeric.sl_transform_typeII(family.p, family.q, Poly([]), x)
    for got, want in ((y, y_ref), (z, z_ref), (sl1["u"], y_ref),
                      (sl2["v"], z_ref), (sl1["rho"], rho_ref)):
        assert _rel_dev(got, want) <= 1e-13


def _sampled_inputs():
    """(x, P, Q) samples: legendre on 401 and 21 nodes, the 2D radial
    operator, and P = x on 62 geometric nodes down to x = 0.001."""
    out = []
    for n in (401, 21):
        x = np.linspace(-0.9, 0.9, n)
        out.append((x, 1.0 - x * x, -2.0 * x))
    x = np.linspace(0.5, 3.0, 200)
    out.append((x, np.ones_like(x), 1.0 / x))
    x = np.geomspace(1e-3, 5.0, 62)
    out.append((x, x, 2.0 - x))
    return out


def test_sampled_maps_match_quadrature():
    # the per-interval closed forms against quad over np.interp
    for x, P, Q in _sampled_inputs():
        mid = len(x) // 2
        Pf = lambda t: np.interp(t, x, P)
        Qf = lambda t: np.interp(t, x, Q)
        u_ref = _cumulative_quad_ref(lambda t: 1.0 / Pf(t), x, mid)
        v_ref = _cumulative_quad_ref(lambda t: 1.0 / np.sqrt(abs(Pf(t))), x,
                                     mid)
        rho_ref = np.exp(_cumulative_quad_ref(lambda t: Qf(t) / Pf(t), x,
                                              mid)) / P
        sl1 = numeric.sl_transform_typeI(P, Q, np.zeros_like(x), x)
        sl2 = numeric.sl_transform_typeII(P, Q, np.zeros_like(x), x)
        for got, want in ((sl1["u"], u_ref), (sl2["v"], v_ref),
                          (sl1["rho"], rho_ref)):
            assert _rel_dev(got, want) <= 1e-12, len(x)


def test_sampled_input_matches_family(tmp_path):
    # a CSV sampled from legendre against --family legendre on the same
    # nodes, the ends included
    x = np.linspace(-0.9, 0.9, 401)
    path = tmp_path / "legendre.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "P", "Q", "R"])
        writer.writerows(zip(x, 1.0 - x * x, -2.0 * x, 0.0 * x))

    def table(*argv):
        rc, out, err, caught = _cli_in_process("numeric", *argv)
        assert (rc, err, caught) == (0, "", [])
        header, *rows = csv.reader(out.splitlines())
        return dict(zip(header, np.array(rows, float).T))

    fam = ("--family", "legendre", "--lo", "-0.9", "--hi", "0.9",
           "--nodes", "401")
    for task, columns in (("sl1", ("rho", "G", "U", "u")),
                          ("sl2", ("W_rho", "V_rho", "v"))):
        sampled, exact = table(task, "--csv", str(path)), table(task, *fam)
        assert np.array_equal(sampled["x"], exact["x"])
        for name in columns:
            assert np.max(np.abs(sampled[name] - exact[name])) <= 1e-3, \
                (task, name)


def test_sl_typeII_exact_potential(family):
    # on Poly input V_rho is the z-form potential V^a_0, W' taken exactly
    lo, hi = numeric._natural_domain(family)
    width = hi - lo
    x = np.linspace(lo + 1e-3 * width, hi - 1e-3 * width, 400)
    out = numeric.sl_transform_typeII(family.p, family.q, Poly([]), x)
    _, V, _ = numeric._assoc_schrodinger(family, Poly([1]), 0, x,
                                         np.ones_like(x), family.p(x))
    assert _rel_dev(out["V_rho"], V) <= 1e-12


_frac = st.fractions(-3, 3, max_denominator=5)
_pos = st.fractions(Fraction(1, 5), 3, max_denominator=5)


@st.composite
def _branch_cases(draw):
    """(p, lo, hi): a rational p of degree 0..2 and an interval free of its
    roots, drawn so that every branch of the maps occurs: each degree, a
    discriminant > 0 (rational or irrational roots), = 0 and < 0, either
    sign of p, and each side of the roots."""
    a, h, k = draw(_frac.filter(bool)), draw(_frac), draw(_pos)
    shape = draw(st.sampled_from(("constant", "linear", "double root",
                                  "no root", "rational roots",
                                  "irrational roots")))
    p, roots = {
        "constant": (Poly([a]), []),
        "linear": (Poly([-a * h, a]), [h]),
        "double root": (Poly([a * h * h, -2 * a * h, a]), [h]),
        "no root": (Poly([a * (h * h + k), -2 * a * h, a]), []),
        "rational roots": (Poly([a * h * (h + k), -a * (2 * h + k), a]),
                           [h, h + k]),
        "irrational roots": (Poly([a * (h * h - 2 * k * k), -2 * a * h, a]),
                             [h - math.sqrt(2) * k, h + math.sqrt(2) * k]),
    }[shape]
    roots = [float(r) for r in roots]
    side = draw(st.integers(0, len(roots)))
    gap, length = (float(draw(st.fractions(Fraction(1, 100), b)))
                   for b in (Fraction(1, 2), 4))
    if 0 < side < len(roots):                     # between two roots
        r1, r2 = roots
        return p, r1 + gap * (r2 - r1) / 2, r2 - gap * (r2 - r1) / 2
    if roots and side == 0:
        return p, roots[0] - gap - length, roots[0] - gap
    if roots:
        return p, roots[-1] + gap, roots[-1] + gap + length
    return p, float(h) - length, float(h) + length


@given(_branch_cases(), _frac, _frac)
@settings(max_examples=300, deadline=None)
def test_maps_match_quadrature_on_every_branch(case, n0, n1):
    p, lo, hi = case
    x = np.linspace(lo, hi, 41)
    x0 = x[20]
    y_ref, z_ref = _maps_ref(p, x)
    num = Poly([n0, n1])
    f_ref = _cumulative_quad_ref(lambda t: num(t) / p(t), x, 20)
    for (fwd, inv), ref in zip(numeric._liouville(p, x0), (y_ref, z_ref)):
        assert _rel_dev(fwd(x), ref) <= 1e-10
        assert np.max(np.abs(inv(fwd(x)) - x)) <= 1e-10 * np.max(np.abs(x))
    if not num.is_zero():
        assert _rel_dev(numeric._over_p(p, num, x, p(x)), f_ref) <= 1e-10


def _same_bits(a, b) -> bool:
    """Whether two float arrays hold the same bits, -0.0 and nan alike."""
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


@given(_branch_cases())
@settings(max_examples=300, deadline=None)
def test_one_branch_tree_gives_the_floats_of_two(case):
    # the builder's y, x(y), z and x(z) against the two maps it replaced,
    # each with its own branch tree over p: forward on the nodes, inverse
    # on the images of the nodes and on a u-range around them
    p, lo, hi = case
    x = np.linspace(lo, hi, 41)
    u = np.linspace(-numeric.SPAN, numeric.SPAN, 41)
    with np.errstate(all="ignore"):
        for (fwd, inv), (ref, ref_inv) in zip(
                numeric._liouville(p, x[20]), (_y_map(p, x[20]),
                                                _z_map(p, x[20]))):
            assert _same_bits(fwd(x), ref(x))
            for v in (ref(x), u):
                assert _same_bits(inv(v), ref_inv(v))


# p = p2 (x - r)^2: w ~ |x - r|^e exp(-c/(x - r)), c = (q - p')(r)/p2,
# vanishes at r from the side where c/(x - r) > 0
@pytest.mark.parametrize("prob, r, side", [
    (Problem(Poly([1, -2, 1]), Poly([1, -3])), 1, -1),     # c = -2
    (Problem(Poly([-1, 2, -1]), Poly([1, -3])), 1, 1),     # c = 2
    (Problem(Poly([0, 0, 1]), Poly([0, -1])), 0, 1),       # c = 0: w = x^-3
], ids=["w vanishes below", "w vanishes above", "w = x^-3"])
def test_double_root_domain_lies_on_one_side_of_the_root(prob, r, side):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = numeric._natural_domain(prob)
    near, far = (lo, hi) if side > 0 else (hi, lo)
    assert near == r and (far - r) * side > 0
    if prob.q(r) != prob.p.derivative()(r):
        near = r + side * np.array([1e-3, 1e-2])
        assert np.all(numeric._shape(prob).w(near) < 1e-50)


def test_singular_grid_raises():
    grid = np.linspace(-2.0, 2.0, 50)    # spans the roots of p
    with pytest.raises(numeric.SingularGrid):
        numeric.coordinate_maps(legendre(), grid)


def test_weight_closed_forms():
    x = np.linspace(-0.8, 0.8, 7)
    w = numeric._shape(jacobi(2, 3)).w
    assert w is not None
    expect = (1 - x) ** 2 * (1 + x) ** 3
    assert np.max(np.abs(w(x) - expect)) < 1e-12

    xl = np.linspace(0.3, 4.0, 7)
    wl = numeric._shape(laguerre(1)).w
    assert np.max(np.abs(wl(xl) - xl * np.exp(-xl))) < 1e-12

    wh = numeric._shape(hermite()).w
    assert np.max(np.abs(wh(x) - np.exp(-x ** 2))) < 1e-12


def test_weight_numeric_matches_closed_form():
    grid = np.linspace(0.3, 4.0, 101)
    w = numeric.weight_numeric(laguerre(1), grid)
    expect = grid * np.exp(-grid)
    # both normalized through the log-derivative, so compare up to scale
    ratio = w / expect
    assert np.max(np.abs(ratio / ratio[0] - 1)) < 1e-9


def test_potential_poly_partner_gap():
    # V^s_l - V_l = 2 p W_l' = 2 alpha_l p
    prob = legendre()
    for l in range(1, 5):
        alpha = factor_table(prob, "minus", l)[l].alpha
        gap = numeric.superpartner_poly(prob, l) - numeric.potential_poly(prob, l)
        assert gap == prob.p * (2 * alpha)


def test_potentials_profile_shapes():
    grid = np.linspace(-0.9, 0.9, 64)
    prof = numeric.potentials(legendre(), 3, 1, grid)
    for arr in (prof["w"], prof["y"], prof["z"], prof["W_l"], prof["V_l"],
                prof["V_s_l"], prof["W_a_m"], prof["V_a_m"], prof["psi_l"],
                prof["s_phi_lm"]):
        assert np.asarray(arr).shape == grid.shape


def test_schrodinger_residual_legendre_y():
    rel, order = numeric.schrodinger_residual(legendre(), 4, 0, nodes=2000,
                                              form="y")
    assert rel < 1e-6
    assert 1.7 <= order <= 2.3


def test_schrodinger_residual_assoc_z():
    rel, order = numeric.schrodinger_residual(legendre(), 3, 1, nodes=2000,
                                              form="z")
    assert rel < 1e-6
    assert 1.7 <= order <= 2.3


@pytest.mark.parametrize("inset", [-0.1, 0.5, 0.6, float("nan")])
def test_schrodinger_residual_rejects_an_inset_outside_its_range(inset):
    with pytest.raises(ValueError, match="inset"):
        numeric.schrodinger_residual(legendre(), 2, 0, nodes=10, inset=inset)


def _residual_two_grids(prob, l, m, nodes, form, span=5.0, inset=1e-3):
    """schrodinger_residual with u -> x inverted once per grid, as it was
    before the halved grid's inversion served both grids."""
    lo, hi = numeric._natural_domain(prob)
    width = hi - lo
    u_of_x, x_of_u = numeric._liouville(prob.p, 0.5 * (lo + hi))[form == "z"]
    u_lo, u_hi = (float(np.clip(u_of_x(end), -span, span))
                  for end in (lo + inset * width, hi - inset * width))
    grids = [(u, x_of_u(u)) for u in (np.linspace(u_lo, u_hi, n)
                                      for n in (2 * nodes - 1, nodes))]
    return _residual_on(prob, l, m, form, grids)


def test_residual_one_inversion_matches_two(family):
    # the n-node grid is the even nodes of the halved one, so inverting
    # once must give the same floats as inverting each grid on its own
    for l in range(7):
        for form, ms in (("y", {0}), ("z", {0, l // 2, l})):
            for m in sorted(ms):
                for nodes in (3, 4, 7, 1000, 2501):
                    got = numeric.schrodinger_residual(family, l, m, nodes,
                                                       form)
                    assert got == _residual_two_grids(family, l, m, nodes,
                                                      form), (form, l, m,
                                                              nodes)


def test_residual_reads_the_weight_once(monkeypatch):
    # one weight on the halved grid; the n-node grid reads its even nodes.
    # The record is worked out once per Problem: the domain and the weight
    # read the one kept on it, and a second request on it works out none
    calls = Counter()
    for name in ("_weight", "_shape"):
        fn = getattr(numeric, name)
        monkeypatch.setattr(numeric, name,
                            lambda *a, fn=fn, name=name:
                            calls.update([name]) or fn(*a))
    for make in (legendre, lambda: Problem(Poly([1, 0, 1]), Poly([0, -4]))):
        for form, m in (("y", 0), ("z", 1)):
            prob = make()
            calls.clear()
            numeric.schrodinger_residual(prob, 2, m, 40, form)
            assert calls == {"_weight": 1, "_shape": 1}, (form, m)
            numeric.schrodinger_residual(prob, 2, m, 40, form)
            assert calls == {"_weight": 2, "_shape": 1}, (form, m)


def test_numeric_requests_sample_p_once(monkeypatch):
    # one request: one record, one sign check and one evaluation of p at
    # the nodes, however many columns read them
    calls = Counter()
    for name in ("_shape", "_check_sign_definite"):
        fn = getattr(numeric, name)
        monkeypatch.setattr(numeric, name,
                            lambda *a, fn=fn, name=name:
                            calls.update([name]) or fn(*a))
    call = Poly.__call__
    jacobi_p, rootless = Poly([1, 0, -1]), Poly([1, 0, 1])

    def counted_call(self, x):
        if isinstance(x, np.ndarray) and x.ndim and self == p:
            calls.update(["p at the nodes"])
        return call(self, x)
    monkeypatch.setattr(Poly, "__call__", counted_call)
    jacobi_argv = ["--family", "jacobi:2,3"]
    # where p = x^2 + 1 has no real root, w reads p's samples as well
    rootless_argv = ["--p", "1,0,1", "--q", "-4,1", "--l", "2"]
    for p, argv in (
            (jacobi_p, ["potentials", "--l", "3", "--m", "1", "--nodes",
                        "200", *jacobi_argv]),
            (jacobi_p, ["maps", "--nodes", "200", *jacobi_argv]),
            (jacobi_p, ["residual", "--l", "3", "--m", "1", "--form", "z",
                        "--nodes", "200", *jacobi_argv]),
            (rootless, ["potentials", *rootless_argv, "--lo", "-1", "--hi",
                        "1"]),
            (rootless, ["residual", *rootless_argv, "--m", "1", "--form",
                        "z", "--nodes", "200"])):
        calls.clear()
        rc, out, err, _ = _cli_in_process("numeric", *argv)
        assert (rc, err) == (0, "") and out, argv
        assert calls == {"_shape": 1, "_check_sign_definite": 1,
                         "p at the nodes": 1}, argv


@pytest.mark.parametrize("form, m, nodes, order", [
    ("y", 0, 1000, 1.999823752424757), ("y", 0, 1001, 1.9997230465800762),
    ("z", 0, 1000, 1.9999073264001355), ("z", 0, 1001, 1.999804187207767),
    ("z", 1, 1000, 1.9988686997027394), ("z", 1, 1001, 1.999225705835019)])
def test_residual_anchors_the_weight_once_where_p_has_no_real_root(
        form, m, nodes, order):
    # p = x^2 + 1: w is anchored to 1 at the halved grid's mid node, which
    # at even nodes is not the n-node grid's mid node; both residuals
    # behind the order read that one weight
    prob = Problem(Poly([1, 0, 1]), Poly([1, -4]))
    got = numeric.schrodinger_residual(prob, 2, m, nodes, form)[1]
    assert abs(got - order) <= 1e-9


def test_residual_matches_quadrature(family):
    # closed-form maps against quad and solve_ivp: the same verdicts, and
    # figures that differ by the old path's integration error
    def passes(rel, order):
        return rel <= 1e-6 and order is not None and 1.7 <= order <= 2.3

    for l in range(7):
        for form, ms in (("y", {0}), ("z", {0, l // 2, l})):
            for m in sorted(ms):
                for nodes in (1000, 2501):
                    rel, order = numeric.schrodinger_residual(
                        family, l, m, nodes, form)
                    rel_ref, order_ref = _residual_ref(family, l, m, nodes,
                                                       form)
                    case = (form, l, m, nodes)
                    assert passes(rel, order) == passes(rel_ref, order_ref), \
                        case
                    assert abs(rel - rel_ref) <= 1e-3 * rel_ref, case
                    if None in (order, order_ref):
                        assert order == order_ref, case
                    else:
                        assert abs(order - order_ref) <= 5e-3, case


def test_residual_at_roundoff_reports_formal_order():
    # Phi_2^(2) is a constant and V - E vanishes to rounding on both grids:
    # the scheme is exact on this input, so the order is the formal 2, not
    # the log-ratio of two roundoff residuals
    rc, out, err, caught = _cli_in_process(
        "numeric", "residual", "--p", "-1,0,2", "--q", "3,0", "--l", "2",
        "--m", "2", "--form", "z")
    res = json.loads(out)
    assert (rc, err, caught) == (0, "", [])
    assert res["residual"] <= 16 * np.finfo(float).eps
    assert res["order"] == 2.0


def test_residual_where_p_is_negative():
    # (-p, -q) has the same Phi_l, w and z with V -> -V and E -> -E, so its
    # z-form residual is the same number
    for pos in (hermite(), Problem(Poly([1, 0, 1]), Poly([0, -3]))):
        neg = Problem(-pos.p, -pos.q)
        for l in range(3):
            for m in range(l + 1):
                assert numeric.schrodinger_residual(neg, l, m, 1000, "z") \
                    == numeric.schrodinger_residual(pos, l, m, 1000, "z")
    rel, order = numeric.schrodinger_residual(Problem(-hermite().p,
                                                      -hermite().q),
                                              2, 1, 2000, "z")
    assert rel <= 1e-6 and 1.7 <= order <= 2.3


def test_numeric_requests_build_each_input_once(monkeypatch):
    counts, raised = Counter(), []

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((principal, "ladder_records"),
                        (numeric, "principal_eigenfunction"),
                        (numeric, "_natural_domain"), (numeric, "quad"),
                        (numeric, "solve_ivp")):
        count(owner, name)
    raise_ = principal.Ladders._raise

    def counted_raise(lad, j, *chain):
        raised.append(j)
        return raise_(lad, j, *chain)
    monkeypatch.setattr(principal.Ladders, "_raise", counted_raise)

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["numeric", "residual", "--family", "jacobi:2,3",
                         "--l", "5"]) == 0
    assert counts == Counter({"ladder_records": 1,
                              "principal_eigenfunction": 1,
                              "_natural_domain": 1, "quad": 0,
                              "solve_ivp": 0})
    assert raised == [1, 2, 3, 4, 5]

    counts.clear()
    numeric.potentials(jacobi(2, 3), 3, 1, np.linspace(-0.9, 0.9, 9))
    assert counts["ladder_records"] == 1

    counts.clear()
    raised.clear()
    numeric.orthogonality_matrix(jacobi(2, 3), 5)
    assert counts["ladder_records"] == 1 and raised == [1, 2, 3, 4, 5]


# the seven presets of the CLI tests
NUMERIC_PRESETS = ["legendre", "jacobi:2,3", "jacobi:1/2,1/2", "laguerre:1",
                   "hermite", "hypergeom:1/3,1/5,7/2", "confluent:3"]


@pytest.mark.parametrize("spec", NUMERIC_PRESETS)
def test_one_level_reads_match_the_table(monkeypatch, spec):
    # Ladders.fields and Ladders.wl read one level off its record; reading
    # the same level from the whole table of Fractions prints the same bytes
    argvs = [["numeric", task, "--family", spec, "--l", str(l), *extra]
             for l in (0, 1, 5)
             for task, extra in (("residual", ["--form", "y", "--nodes",
                                               "400"]),
                                 ("potentials", ["--nodes", "50"]))]
    outs = [_cli_in_process(*argv)[:3] for argv in argvs]

    def table_entry(lad, branch, l):
        return factor_table(lad.prob, branch, lad.top)[
            l - principal.lowest_level(branch)]

    def table_fields(lad, branch, l):
        ent = table_entry(lad, branch, l)
        return tuple(f.as_integer_ratio() for f in (ent.alpha, ent.beta,
                                                    ent.delta, ent.E, ent.lam))

    def table_wl(lad, branch, l):
        ent = table_entry(lad, branch, l)
        return Poly([ent.beta, ent.alpha])
    monkeypatch.setattr(principal.Ladders, "fields", table_fields)
    monkeypatch.setattr(principal.Ladders, "wl", table_wl)
    for argv, out in zip(argvs, outs):
        assert out[0] == 0 and out[1] and not out[2], argv
        assert _cli_in_process(*argv)[:3] == out, argv


def test_orthogonality(family):
    if family.p.degree == 2 and family.p[2] > 0:
        pytest.skip("indefinite weight: no orthogonality interval")
    g = numeric.orthogonality_matrix(family, 5)
    d = np.sqrt(np.abs(np.diag(g)))
    off = g / np.outer(d, d)
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off)) < 1e-8


def _gram_ref(prob, nmax):
    """orthogonality_matrix's quad calls with Poly.__call__ callbacks."""
    lo, hi = numeric._natural_domain(prob)
    wfn = numeric._shape(prob).w
    while abs(prob.p(hi)) > 1e-9 and hi < 1e4 \
            and wfn(hi) * max(1.0, abs(hi)) ** (2 * nmax) > 1e-20:
        hi += max(1.0, 0.05 * abs(hi))
    while abs(prob.p(lo)) > 1e-9 and lo > -1e4 \
            and wfn(lo) * max(1.0, abs(lo)) ** (2 * nmax) > 1e-20:
        lo -= max(1.0, 0.05 * abs(lo))
    polys = [principal_eigenfunction(prob, i)[0] for i in range(nmax + 1)]
    out = np.empty((nmax + 1, nmax + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(nmax + 1):
            for j in range(i, nmax + 1):
                out[i, j] = out[j, i] = quad(
                    lambda x: wfn(x) * polys[i](x) * polys[j](x), lo, hi,
                    epsabs=1e-12, epsrel=1e-12, limit=400)[0]
    return out


def test_orthogonality_float_horner_is_exact(family):
    # mu0 G against quad: the off-diagonal entries are exactly zero, and the
    # diagonal matches to quad's accuracy
    if family.p.degree == 2 and family.p[2] > 0:
        pytest.skip("indefinite weight: no orthogonality interval")
    g, ref = numeric.orthogonality_matrix(family, 5), _gram_ref(family, 5)
    assert np.all(g[~np.eye(6, dtype=bool)] == 0.0)
    assert np.max(np.abs(np.diag(g) / np.diag(ref) - 1)) <= 1e-12


def test_orthogonality_rejects_ill_posed_weights():
    # no real root or a double root: no orthogonality interval
    for p in (Poly([1, 0, 1]), Poly([1, -2, 1]), Poly([-1, 0, -1])):
        with pytest.raises(ValueError):
            numeric.orthogonality_matrix(Problem(p, Poly([0, -3])), 3)
    # hypergeom: w = x^(5/2) (x - 1)^(-89/30) beyond x = 1
    with pytest.raises(ValueError, match="upper root"):
        numeric.orthogonality_matrix(
            hypergeom(Fraction(1, 3), Fraction(1, 5), Fraction(7, 2)), 5)
    # x^(2 nmax) w must be integrable at infinity: w = x^-6 beyond x = 1
    # allows nmax 2
    prob = Problem(Poly([0, -1, 1]), Poly([5, -4]))
    assert numeric.orthogonality_matrix(prob, 2).shape == (3, 3)
    with pytest.raises(ValueError, match="infinity"):
        numeric.orthogonality_matrix(prob, 3)
    for p, q in ((Poly([1]), Poly([0, 2])), (Poly([0, 1]), Poly([1, 1])),
                 (Poly([0, 1]), Poly([-1, -1]))):
        with pytest.raises(ValueError, match="not integrable"):
            numeric.orthogonality_matrix(Problem(p, q), 2)



def test_orthogonality_mass_past_the_float_range():
    # w = e^(-x/3) x^199 on x > 0: mu0 = 199! 3^200 has no float
    prob = Problem(Poly([0, 1]), Poly([200, Fraction(-1, 3)]))
    with pytest.raises(numeric.DomainError, match="mu0"):
        numeric.orthogonality_matrix(prob, 0)

def test_pearson_gram_matches_the_term_by_term_sum():
    # the integer pass against the Fraction sum it replaced, entry by
    # entry, and the float matrix bit for bit
    for prob in (legendre(), jacobi(2, 3), laguerre(1), hermite(),
                 Problem(Poly([0, 1]), Poly([3, -1]))):
        for nmax in (5, 8, 16):
            mu0, gram = numeric._pearson_gram(prob, nmax)
            ref = pearson_gram(prob, nmax)
            assert gram == ref, nmax
            got = numeric.orthogonality_matrix(prob, nmax)
            want = mu0 * np.array([[float(g) for g in row] for row in ref])
            assert got.tobytes() == want.tobytes(), nmax


def test_orthogonality_rejects_a_negative_nmax():
    for nmax in (-1, -3):
        with pytest.raises(ValueError, match=f"nmax must be >= 0, got "
                                             f"{nmax}"):
            numeric.orthogonality_matrix(legendre(), nmax)


def _check_gram_identity(prob, nmax):
    # G_ij = 0 for i != j and G_ll = prod E_j (q' - p''/2)/(q' + (l - 1/2) p'')
    _, gram = numeric._pearson_gram(prob, nmax)
    p2, q1 = prob.p[2], prob.q[1]
    for i in range(nmax + 1):
        assert all(gram[i][j] == 0 for j in range(nmax + 1) if j != i)
        _, normsq = principal_eigenfunction(prob, i)
        assert gram[i][i] == normsq * (q1 - p2) / (q1 + (2 * i - 1) * p2)


def test_gram_identity_on_presets():
    for prob in (legendre(), jacobi(2, 3), laguerre(1), hermite(),
                 Problem(Poly([0, 1]), Poly([3, -1])),
                 jacobi(Fraction(1, 2), Fraction(1, 2)),
                 jacobi(Fraction(-1, 2), Fraction(1, 3))):
        _check_gram_identity(prob, 5)


@st.composite
def _definite_weights(draw):
    """(prob, nmax) with x^(2 nmax) w integrable on the natural domain, for
    each shape of p: the exponents of w are drawn first and q built from
    them."""
    nmax = draw(st.integers(0, 4))
    e1, e2 = (draw(st.fractions(Fraction(-5, 6), 4, max_denominator=6))
              for _ in range(2))
    a, r, k = draw(_pos), draw(_frac), draw(_pos)
    c = draw(st.sampled_from((a, -a)))
    x = Poly.x()
    shape = draw(st.sampled_from(("constant", "linear", "between",
                                  "beyond")))
    if shape == "constant":             # w = exp(-k x^2/2 + ...)
        return Problem(Poly([c]), Poly([r, -c * k])), nmax
    if shape == "linear":               # w = e^(-k x/c) |x - r|^e1
        return Problem(c * (x - r), Poly([c * (e1 + 1) + k * r, -k])), nmax
    if shape == "between":              # w = (x - r)^e1 (r + k - x)^e2
        # e1 + e2 = -1 is q' = p''/2, where Phi_1 vanishes (Chebyshev T)
        assume(e1 + e2 != -1)
        p = -a * (x - r) * (x - r - k)
        num = Poly([e1 * a * k]) - a * (e1 + e2) * (x - r)
    else:                               # w = (x - r)^e1 (x - r - k)^e2
        e1 = -1 - 2 * nmax - e2 - draw(_pos)
        p = a * (x - r) * (x - r - k)
        num = Poly([-e1 * a * k]) + a * (e1 + e2) * (x - r)
    return Problem(p, num + p.derivative()), nmax


@given(_definite_weights())
@settings(max_examples=150, deadline=None)
def test_gram_identity_on_definite_weights(case):
    _check_gram_identity(*case)


@given(_definite_weights())
@settings(max_examples=100, deadline=None)
def test_pearson_gram_matches_the_term_by_term_sum_on_definite_weights(case):
    assert numeric._pearson_gram(*case)[1] == pearson_gram(*case)


def test_weight_mass_matches_quadrature():
    # mu0 against quad of the weight over the natural domain, on each branch
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for prob in (legendre(), jacobi(2, 3), jacobi(Fraction(-1, 2),
                                                      Fraction(1, 3)),
                     laguerre(1), Problem(Poly([1, -1]), Poly([-3, -1])),
                     hermite(), Problem(Poly([-2]), Poly([1, 3])),
                     Problem(Poly([0, -1, 1]), Poly([5, -4]))):
            lo, hi = numeric._natural_domain(prob)
            lo = lo if abs(prob.p(lo)) < 1e-12 else -np.inf
            hi = hi if abs(prob.p(hi)) < 1e-12 else np.inf
            wfn = numeric._shape(prob).w
            ref = quad(wfn, lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
            assert numeric._weight_mass(prob, 0) == pytest.approx(ref,
                                                                  rel=1e-9)
    # irrational roots +-sqrt 2: w = sqrt(2 - x^2) between them, and beyond
    # them w = (x - sqrt 2)^e (x + sqrt 2)^(-4 - e), e = 3 sqrt 2/4 - 2
    assert numeric._weight_mass(Problem(Poly([2, 0, -1]), Poly([0, -3])),
                                0) == pytest.approx(math.pi, rel=1e-14)
    r, e = math.sqrt(2), 3 * math.sqrt(2) / 4 - 2
    ref = quad(lambda t: (t + r) ** (-4 - e), r, r + 1, weight="alg",
               wvar=(e, 0))[0] + quad(lambda t: (t - r) ** e
                                      * (t + r) ** (-4 - e), r + 1,
                                      np.inf)[0]
    beyond = Problem(Poly([-2, 0, 1]), Poly([3, -2]))
    assert numeric._weight_mass(beyond, 2) == pytest.approx(ref, rel=1e-9)
    with pytest.raises(ValueError, match="infinity"):
        numeric._weight_mass(beyond, 3)
    with pytest.raises(ValueError, match="upper root"):
        numeric._weight_mass(Problem(Poly([-2, 0, 1]), Poly([2, -2])), 0)


@st.composite
def _random_problems(draw):
    """(p, q) with small rational coefficients, deg p = 2 most often.  Then
    p = c ((x - s)^2 - d) with d > 0 has two roots, mostly irrational, with
    the working side between them where c < 0 and beyond them where c > 0,
    and q is drawn through w's exponents a -+ k at the roots, as a and
    t = k sqrt D: q - p' = 2 a c x - 2 a c s + t."""
    frac = st.fractions(-8, 8, max_denominator=3)
    deg = draw(st.sampled_from((0, 1, 2, 2, 2)))
    if deg < 2:
        p = Poly([draw(frac) for _ in range(deg)] + [draw(frac.filter(bool))])
        return Problem(p, Poly([draw(frac), draw(frac)]))
    c, s = draw(frac.filter(bool)), draw(frac)
    d = draw(st.fractions(Fraction(1, 3), 8, max_denominator=3))
    a, t = (draw(st.fractions(-3, 3, max_denominator=4)) for _ in range(2))
    p = Poly([c * (s * s - d), -2 * c * s, c])
    return Problem(p, Poly([-2 * a * c * s + t, 2 * a * c]) + p.derivative())


@given(_random_problems())
@example(Problem(Poly([2, 0, -1]), Poly([0, -3])))   # between +-sqrt 2
@example(Problem(Poly([-2, 0, 1]), Poly([3, -1])))   # beyond sqrt 2
@settings(max_examples=200, deadline=None)
def test_weight_mass_matches_quadrature_on_random_problems(prob):
    # wherever mu0 is finite, it is quad of the weight over the natural
    # domain, each end where p vanishes a root and every other end +-inf.
    # Left out, where quad itself loses digits: an end root r with
    # w ~ |x - r|^e, e < -1/2, e the residue of (q - p')/p at r; an open
    # end beside two roots with w ~ |x|^s, s = (q - p')'/p2 > -2; and a
    # weight whose factors leave the float range, which quad reads as nan
    try:
        mu0 = numeric._weight_mass(prob, 0)
    except (ValueError, OverflowError):
        return
    p, num = prob.p, prob.q - prob.p.derivative()
    ends = [end if abs(p(end)) < 1e-9 else None
            for end in numeric._natural_domain(prob)]
    if any(end is not None and num(end) / p.derivative()(end) < -0.5
           for end in ends) or \
            p.degree == 2 and None in ends and num[1] / p[2] > -2:
        return
    lo, hi = (s * np.inf if end is None else end
              for end, s in zip(ends, (-1, 1)))
    with numeric._quiet(), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = quad(numeric._shape(prob).w, lo, hi, epsabs=0,
                   epsrel=1e-12, limit=200)[0]
    if not math.isfinite(ref):
        return
    assert mu0 == pytest.approx(ref, rel=1e-9)


def test_natural_domain_takes_rational_roots_exactly():
    # p = -2/3 x^2 + 5/2 x + 2/3 has the roots -1/4 and 4, which rounding
    # through floats put an ulp off
    prob = Problem(Poly([Fraction(2, 3), Fraction(5, 2), Fraction(-2, 3)]),
                   Poly([-1, Fraction(-1, 2)]))
    assert numeric._natural_domain(prob) == (-0.25, 4.0)
    rc, out, err, caught = _cli_in_process(
        "numeric", "maps", "--p", "-2/3,5/2,2/3", "--q", "-1/2,-1",
        "--nodes", "3", "--inset", "0.25")
    assert (rc, err, caught) == (0, "", [])
    assert out.splitlines()[1].split(",")[0] == "0.8125"


def _off_diagonal(g):
    d = np.sqrt(np.abs(np.diag(g)))
    off = g / np.outer(d, d)
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off)))


def test_orthogonality_weight_without_rational_roots():
    # p = 2 - x^2 has the roots +-sqrt 2: w = sqrt(2 - x^2), normalized as
    # prod |x - r_i|^e_i like the Gram matrix's mu0
    prob = Problem(Poly([2, 0, -1]), Poly([0, -3]))
    assert _off_diagonal(numeric.orthogonality_matrix(prob, 4)) < 1e-8
    grid = np.linspace(-1.3, 1.3, 11)
    w = numeric.weight_numeric(prob, grid)
    assert np.max(np.abs(w / np.sqrt(2 - grid ** 2) - 1)) < 1e-14
    # with k != 0: p = x^2 - 2, q = 3 - 2x, w = |x - sqrt 2|^e |x + sqrt 2|^f
    beyond = Problem(Poly([-2, 0, 1]), Poly([3, -2]))
    r, e = math.sqrt(2), 3 * math.sqrt(2) / 4 - 2
    x = np.array([1.5, 2.0, 4.0])
    assert np.max(np.abs(numeric._shape(beyond).w(x)
                         / ((x - r) ** e * (x + r) ** (-4 - e)) - 1)) < 1e-13


def test_potentials_weight_without_rational_roots():
    # w = sqrt(2 - x^2) is sqrt 2 at x = 0, as the Gram matrix normalizes it
    rc, out, err, caught = _cli_in_process(
        "numeric", "potentials", "--p", "-1,0,2", "--q", "-3,0", "--nodes",
        "3", "--l", "1")
    assert (rc, err, caught) == (0, "", [])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[1]["x"]) == 0.0
    assert float(rows[1]["w"]) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_orthogonality_inset_keeps_root_ends():
    # both ends are roots of p, where w = sqrt(1 - x^2) vanishes
    g = numeric.orthogonality_matrix(jacobi(Fraction(1, 2), Fraction(1, 2)),
                                     4)
    assert _off_diagonal(g) == 0.0
    assert g[0, 0] == pytest.approx(math.pi / 2, rel=1e-15)


def test_aux_ground_check_converges():
    coarse = numeric.aux_ground_check(legendre(),
                                      np.linspace(-0.8, 0.8, 401))
    fine = numeric.aux_ground_check(legendre(),
                                    np.linspace(-0.8, 0.8, 1601))
    assert fine < 1e-4
    assert fine < coarse / 8        # roughly second-order in the spacing


def test_sl_typeI_matches_potential():
    prob = legendre()
    l = 3
    entry = factor_table(prob, "minus", l)[l]
    grid = np.linspace(-0.9, 0.9, 101)
    out = numeric.sl_transform_typeI(prob.p, prob.q, Poly([]), grid,
                                     E=float(entry.E), Lambda=float(entry.lam))
    V = numeric.potential_poly(prob, l)(grid)
    assert np.max(np.abs(out["U"] - V)) < 1e-10


def test_sl_typeII_radial_2d():
    grid = np.linspace(0.5, 3.0, 101)
    out = numeric.sl_transform_typeII(
        lambda x: np.ones_like(x), lambda x: 1.0 / x,
        lambda x: np.zeros_like(x), grid)
    assert np.max(np.abs(out["W_rho"] + 1.0 / (2 * grid))) < 1e-10


def test_sl_full_susy_round_trip():
    P, Q, Q1 = Poly([0, 1]), Poly([2, -1]), Poly([3, -2])
    lam1 = 1.5

    def R(t):
        t = np.asarray(t, dtype=float)
        W = Q1(t) / (2 * P(t))
        num = Q1.derivative() * P - Q1 * P.derivative()
        Wp = num(t) / (2 * P(t) ** 2)
        return -(P(t) * (Wp + W * W) + Q(t) * W + lam1)

    grid = np.linspace(0.5, 5.0, 400)
    assert numeric.sl_full_susy_residual(P, Q, R, Q1, lam1, grid) < 1e-10


def test_square_well_fixture():
    # tests/data/psi-save3.dat: column 0 is t in [0, 1], column n is
    # sqrt(2) sin(n pi t), n = 1..10.  For Jacobi(1/2, 1/2) on x = cos(pi t)
    # the z-form eigenfunction is sin((l + 1) pi t) and z = pi (1/2 - t).
    data = np.loadtxt(Path(__file__).parent / "data" / "psi-save3.dat")
    t = data[1:-1, 0]                       # p vanishes at t = 0 and t = 1
    x = np.cos(np.pi * t)
    mid = len(t) // 2
    for l in (0, 1, 4, 9):
        prof = numeric.potentials(jacobi(Fraction(1, 2), Fraction(1, 2)),
                                  l, 0, x)
        col = data[1:-1, l + 1]
        scale = np.dot(prof["s_phi_lm"], col) / np.dot(col, col)
        dev = np.max(np.abs(prof["s_phi_lm"] / scale - col)) \
            / np.max(np.abs(col))
        assert dev <= 1e-9
        z = np.pi * (0.5 - t)
        assert np.max(np.abs(prof["z"] - (z - z[mid]))) <= 1e-12


def _emit_csv_ref(header, rows, out):
    """cli._emit_csv as it formatted cell by cell."""
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([cli._fmt(float(v)) for v in row])


@given(st.lists(st.floats(), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_csv_columns_format_like_cells(values):
    special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
               2.2250738585072014e-308, 1 / 3, -1e300, 1e22]
    col = np.array(values + special)
    cols = (col, col[::-1].copy(), np.linspace(-1.0, 1.0, len(col)))
    want = io.StringIO()
    _emit_csv_ref(["a", "b", "c"], zip(*cols), want)
    got = io.StringIO()
    with contextlib.redirect_stdout(got):
        cli._emit_csv(["a", "b", "c"], cols, argparse.Namespace(output=None))
    assert got.getvalue() == want.getvalue()


def _cli_in_process(*argv):
    """(exit code, stdout, stderr, warnings raised) of one cli.main run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue(), caught


# stdout of sl1 and potentials on p = 1, q = 2x over [-30, 30], 5 nodes,
# as printed while the overflow still raised a RuntimeWarning
SL1_OVERFLOW = (
    "x,rho,G,U,u\r\n-30,inf,30,901,-30\r\n"
    "-15,5.2030551378848545e+97,15,226,-15\r\n0,1,0,1,0\r\n"
    "15,5.2030551378848545e+97,-15,226,15\r\n30,inf,-30,901,30\r\n")
POTENTIALS_OVERFLOW = (
    "x,w,y,z,W_l,V_l,V_s_l,W_a_m,V_a_m,psi_l,s_phi_lm\r\n"
    "-30,inf,-30,-30,30,901,899,30,901,inf,inf\r\n"
    "-15,5.2030551378848545e+97,-15,-15,15,226,224,15,226,"
    "6.5063249783604173e+51,6.5063249783604173e+51\r\n"
    "0,1,0,0,0,1,-1,-0,1,2,2\r\n"
    "15,5.2030551378848545e+97,15,15,-15,226,224,-15,226,"
    "6.5063249783604173e+51,6.5063249783604173e+51\r\n"
    "30,inf,30,30,-30,901,899,-30,901,inf,inf\r\n")


def test_numeric_commands_write_no_stray_stderr():
    # p < 0 throughout: the y form runs downward in u
    rc, out, err, caught = _cli_in_process(
        "numeric", "residual", "--p", "-1", "--q", "2,0", "--l", "2",
        "--form", "y")
    res = json.loads(out)
    assert (rc, err, caught) == (0, "", [])
    assert res["residual"] <= 1e-6 and 1.7 <= res["order"] <= 2.3
    # the weight-truncated Hermite domain needs no quadrature
    rc, out, err, caught = _cli_in_process(
        "numeric", "sl1", "--family", "hermite", "--nodes", "2")
    assert (rc, err, caught) == (0, "", [])
    # w = exp(-2x) overflows while the domain is cut: that is not below the
    # cut, and not a warning
    rc, out, err, caught = _cli_in_process(
        "numeric", "residual", "--p", "-1", "--q", "0,2", "--l", "2")
    assert (rc, out, caught) == (2, "", [])
    assert len(err.splitlines()) == 1 and "error" in json.loads(err)
    # rho = exp(x^2) and w = exp(x^2) overflow to inf at x = +-30: printed
    # as inf, with no warning
    for argv, want in ((("sl1",), SL1_OVERFLOW),
                       (("potentials", "--l", "2"), POTENTIALS_OVERFLOW)):
        rc, out, err, caught = _cli_in_process(
            "numeric", *argv, "--p", "1", "--q", "2,0", "--lo", "-30",
            "--hi", "30", "--nodes", "5")
        assert (rc, err, caught) == (0, "", [])
        assert out == want
    # P^2 overflows to inf at x = 1e200 and divides out of W' = 0
    rc, out, err, caught = _cli_in_process(
        "numeric", "slcheck", "--p", "1,0", "--q", "0,1", "--lo", "1",
        "--hi", "1e200", "--nodes", "5")
    assert (rc, err, caught) == (0, "", [])
    assert json.loads(out) == {"residual": 0.0}


# p = x^2/2 - 2x - 3/2 on [-50, 1e300]: 9 nodes, none between the roots
# 2 -+ sqrt 7, and p overflows to inf at all but the first
_HUGE = ["--p", "1/2,-2,-3/2", "--q", "1/2,1/2", "--nodes", "9", "--lo",
         "-50", "--hi", "1e+300"]


@pytest.mark.parametrize("argv, error", [
    (["maps", "--family", "laguerre:1", "--lo", "0.5", "--hi", "inf",
      "--nodes", "3"], "--hi must be finite, got inf"),
    (["sl2", "--family", "hermite", "--lo", "nan", "--hi", "1"],
     "--lo must be finite, got nan"),
    (["potentials", "--family", "legendre", "--lo", "-1e308", "--hi",
      "1e308"], "--hi minus --lo must be finite, got inf"),
    (["maps", *_HUGE], None), (["potentials", *_HUGE], None),
    (["sl1", *_HUGE], None), (["sl2", *_HUGE], None),
    # p = x^2 + 1 has no real root: its weight reads _over_p
    (["potentials", "--p", "1,0,1", "--q", "1/2,1/2", "--lo", "-50",
      "--hi", "1e300", "--nodes", "9"], None),
    (["slcheck", *_HUGE], "the residual is nan"),
], ids=["infinite hi", "nan lo", "width overflows", "maps", "potentials",
        "sl1", "sl2", "rootless potentials", "slcheck"])
def test_grid_bounds_leave_no_numpy_warning(argv, error):
    # a bound that is not finite is an input error naming its flag, and an
    # overflow on huge finite nodes is a value (inf or nan), not a warning
    rc, out, err, caught = _cli_in_process("numeric", *argv)
    assert [str(w.message) for w in caught] == []
    if error is None:
        assert (rc, err) == (0, "") and out
    else:
        assert (rc, out) == (2, "") and len(err.splitlines()) == 1
        assert error in json.loads(err)["message"]


# w = e^(-15 x) |x + 6|^89: from x = 4997.5 the exp underflows to 0 and
# the power overflows to inf, so w is their summed logs' exp, 0 (the rows
# above are as the direct product printed them)
POTENTIALS_UNDERFLOW = (
    "x,w,y,z,W_l,V_l,V_s_l,W_a_m,V_a_m,psi_l,s_phi_lm\r\n"
    "-5,3.7332419967990015e+32,-25.553678839591534,-241.5705898063016,"
    "-12.666666666666666,159.61111111111109,161.27777777777777,"
    "-21.506297527313556,453.81249999999977,-4.8303998261007091e+17,"
    "-3.6703101638365658e+17\r\n"
    "2496.25,0,-2.0788420212941467,-71.751685907338242,6240.458333333333,"
    "38941235.001736112,38945405.418402776,216.08726077268395,"
    "46692.451287591168,0,0\r\n"
    "4997.5,0,0,0,12493.583333333334,156085454.9236111,156093794.09027779,"
    "305.92810987351118,93590.756920155909,0,0\r\n"
    "7498.75,0,1.2161954575689222,55.060293541655284,18746.708333333332,"
    "351432819.37673616,351445327.29340279,374.82049229790653,"
    "140489.15045263001,0,0\r\n"
    "10000,0,2.0791417365529163,101.47937755700778,24999.833333333332,"
    "624983328.36111116,625000005.02777779,432.88429945200841,"
    "187387.56596666999,0,0\r\n")


def test_potentials_weight_underflow_is_zero_not_nan():
    rc, out, err, caught = _cli_in_process(
        "numeric", "potentials", "--p", "1/3,2", "--q", "-5,0", "--lo", "-5",
        "--hi", "1e4", "--nodes", "5", "--l", "1")
    assert (rc, err, caught) == (0, "", [])
    assert out == POTENTIALS_UNDERFLOW
