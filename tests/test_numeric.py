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
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

from susyfactor.core import Poly, Problem
from susyfactor.associated import assoc_lambda
from susyfactor.principal import factor_table, principal_eigenfunction
from susyfactor import cli, numeric, principal

from conftest import hermite, jacobi, laguerre, legendre


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
    r = []
    for u, x in grids:
        w = numeric.weight_numeric(
            prob, numeric.Grid(x, float(np.min(x)), float(np.max(x))))
        if form == "y":
            psi = np.sqrt(w) * phi(x)
            V = numeric.potential_poly(prob, l)(x)
        else:
            psi, V, _ = numeric._assoc_schrodinger(prob, phi, m, x, w)
        h = u[1] - u[0]
        sign = math.copysign(1.0, prob.p(x[0])) if form == "z" else 1.0
        res = -(psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h ** 2 \
            + sign * (V[1:-1] - E) * psi[1:-1]
        r.append(float(np.max(np.abs(res))))
    r2, r1 = r
    a_norm = 4.0 / h ** 2 + float(np.max(np.abs(V - E)))
    rel = r1 / (a_norm * float(np.max(np.abs(psi))))
    if r1 > 0 and r2 > 0:
        return rel, float(np.log2(r1 / r2))
    return rel, 2.0 if r1 == r2 == 0 else None


def _rel_dev(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_coordinate_maps_legendre():
    # y = atanh(x), z = asin(x) up to constants (anchored mid-grid at 0)
    grid = numeric.Grid.uniform(-0.9, 0.9, 201)
    y, z = numeric.coordinate_maps(legendre(), grid)
    x = grid.nodes
    assert np.max(np.abs(y - np.arctanh(x))) < 1e-10
    assert np.max(np.abs(z - np.arcsin(x))) < 1e-10


def test_scipy_loads_on_first_use(monkeypatch):
    # the exact commands load neither scipy nor numpy
    code = ("import sys, susyfactor.cli; "
            "print('scipy.integrate' in sys.modules, 'numpy' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.strip() == "False False"
    # the maps are closed-form: they leave scipy unloaded
    code = ("import sys; from susyfactor import numeric; "
            "from susyfactor.core import Poly, Problem; "
            "numeric.coordinate_maps(Problem(Poly([1, 0, -1]), Poly([0, -2])),"
            " numeric.Grid.uniform(-0.5, 0.5, 5)); "
            "print('scipy.integrate' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.strip() == "False"
    # numeric's functions read the module attribute at call time, so a
    # wrapper set on it sees every call; sampled (callable) input still
    # goes through quad
    calls = []
    wrapped = numeric.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return wrapped(*args, **kwargs)
    monkeypatch.setattr(numeric, "quad", counted)
    numeric.sl_transform_typeII(lambda t: 1.0 - t * t, lambda t: -2.0 * t,
                                lambda t: 0.0 * t,
                                numeric.Grid.uniform(-0.5, 0.5, 5))
    assert len(calls) == 4


def test_maps_match_quadrature(family):
    lo, hi = numeric._natural_domain(family)
    width = hi - lo
    grid = numeric.Grid.uniform(lo + 1e-3 * width, hi - 1e-3 * width, 400)
    x = grid.nodes
    y_ref, z_ref = _maps_ref(family.p, x)
    rho_ref = np.exp(_cumulative_quad_ref(
        lambda t: family.q(t) / family.p(t), x, len(x) // 2)) / family.p(x)
    y, z = numeric.coordinate_maps(family, grid)
    sl1 = numeric.sl_transform_typeI(family.p, family.q, Poly([]), grid)
    sl2 = numeric.sl_transform_typeII(family.p, family.q, Poly([]), grid)
    for got, want in ((y, y_ref), (z, z_ref), (sl1["u"], y_ref),
                      (sl2["v"], z_ref), (sl1["rho"], rho_ref)):
        assert _rel_dev(got, want) <= 1e-13


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
    for (fwd, inv), ref in ((numeric._y_map(p, x0), y_ref),
                            (numeric._z_map(p, x0), z_ref)):
        assert _rel_dev(fwd(x), ref) <= 1e-10
        assert np.max(np.abs(inv(fwd(x)) - x)) <= 1e-10 * np.max(np.abs(x))
    if not num.is_zero():
        assert _rel_dev(numeric._over_p(p, num, x0)(x), f_ref) <= 1e-10


def test_singular_grid_raises():
    grid = numeric.Grid.uniform(-2.0, 2.0, 50)    # spans the roots of p
    with pytest.raises(numeric.SingularGrid):
        numeric.coordinate_maps(legendre(), grid)


def test_weight_closed_forms():
    x = np.linspace(-0.8, 0.8, 7)
    w = numeric.weight_function(jacobi(2, 3))
    assert w is not None
    expect = (1 - x) ** 2 * (1 + x) ** 3
    assert np.max(np.abs(w(x) - expect)) < 1e-12

    xl = np.linspace(0.3, 4.0, 7)
    wl = numeric.weight_function(laguerre(1))
    assert np.max(np.abs(wl(xl) - xl * np.exp(-xl))) < 1e-12

    wh = numeric.weight_function(hermite())
    assert np.max(np.abs(wh(x) - np.exp(-x ** 2))) < 1e-12


def test_weight_numeric_matches_closed_form():
    grid = numeric.Grid.uniform(0.3, 4.0, 101)
    w = numeric.weight_numeric(laguerre(1), grid)
    expect = grid.nodes * np.exp(-grid.nodes)
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
    grid = numeric.Grid.uniform(-0.9, 0.9, 64)
    prof = numeric.potentials(legendre(), 3, 1, grid)
    for arr in (prof.w, prof.y, prof.z, prof.W_l, prof.V_l, prof.V_s_l,
                prof.W_a_m, prof.V_a_m, prof.psi_l, prof.s_phi_lm):
        assert np.asarray(arr).shape == grid.nodes.shape


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


def _residual_two_grids(prob, l, m, nodes, form, span=5.0, inset=1e-3):
    """schrodinger_residual with u -> x inverted once per grid, as it was
    before the halved grid's inversion served both grids."""
    lo, hi = numeric._natural_domain(prob)
    width = hi - lo
    u_of_x, x_of_u = (numeric._y_map if form == "y" else numeric._z_map)(
        prob.p, 0.5 * (lo + hi))
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

    for owner, name in ((principal, "factor_table"),
                        (numeric, "principal_eigenfunction"),
                        (numeric, "_natural_domain"), (numeric, "quad"),
                        (numeric, "solve_ivp")):
        count(owner, name)
    raise_ = principal.Ladders._raise

    def counted_raise(lad, j):
        raised.append(j)
        raise_(lad, j)
    monkeypatch.setattr(principal.Ladders, "_raise", counted_raise)

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["numeric", "residual", "--family", "jacobi:2,3",
                         "--l", "5"]) == 0
    assert counts == Counter({"factor_table": 1, "principal_eigenfunction": 1,
                              "_natural_domain": 1, "quad": 0,
                              "solve_ivp": 0})
    assert raised == [1, 2, 3, 4, 5]

    counts.clear()
    numeric.potentials(jacobi(2, 3), 3, 1, numeric.Grid.uniform(-0.9, 0.9, 9))
    assert counts["factor_table"] == 1

    counts.clear()
    raised.clear()
    numeric.orthogonality_matrix(jacobi(2, 3), 5)
    assert counts["factor_table"] == 1 and raised == [1, 2, 3, 4, 5]


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
    wfn = numeric.weight_function(prob)
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
    if family.p.degree == 2 and family.p[2] > 0:
        pytest.skip("indefinite weight: no orthogonality interval")
    assert np.array_equal(numeric.orthogonality_matrix(family, 5),
                          _gram_ref(family, 5))


def _off_diagonal(g):
    d = np.sqrt(np.abs(np.diag(g)))
    off = g / np.outer(d, d)
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off)))


def test_orthogonality_weight_without_rational_roots():
    # p = 2 - x^2 has the roots +-sqrt 2, so w = sqrt(2 - x^2) has no
    # rational closed form and comes from the closed-form int (q - p')/p
    prob = Problem(Poly([2, 0, -1]), Poly([0, -3]))
    assert numeric.weight_function(prob) is None
    for inset in (0.0, 1e-8):
        assert _off_diagonal(numeric.orthogonality_matrix(prob, 4,
                                                          inset)) < 1e-8
    grid = numeric.Grid.uniform(-1.3, 1.3, 11)
    w = numeric.weight_numeric(prob, grid)
    expect = np.sqrt(2 - grid.nodes ** 2)
    assert np.max(np.abs(w / w[5] - expect / expect[5])) < 1e-14


def test_orthogonality_inset_keeps_root_ends():
    # an end at a root of p is not weight-truncated, so an inset must not
    # push it past the root
    g = numeric.orthogonality_matrix(jacobi(Fraction(1, 2), Fraction(1, 2)),
                                     4, inset=1e-8)
    assert _off_diagonal(g) < 1e-6


def test_aux_ground_check_converges():
    coarse = numeric.aux_ground_check(legendre(),
                                      numeric.Grid.uniform(-0.8, 0.8, 401))
    fine = numeric.aux_ground_check(legendre(),
                                    numeric.Grid.uniform(-0.8, 0.8, 1601))
    assert fine < 1e-4
    assert fine < coarse / 8        # roughly second-order in the spacing


def test_sl_typeI_matches_potential():
    prob = legendre()
    l = 3
    entry = factor_table(prob, "minus", l)[l]
    grid = numeric.Grid.uniform(-0.9, 0.9, 101)
    out = numeric.sl_transform_typeI(prob.p, prob.q, Poly([]), grid,
                                     E=float(entry.E), Lambda=float(entry.lam))
    V = numeric.potential_poly(prob, l)(grid.nodes)
    assert np.max(np.abs(out["U"] - V)) < 1e-10


def test_sl_typeII_radial_2d():
    grid = numeric.Grid.uniform(0.5, 3.0, 101)
    out = numeric.sl_transform_typeII(
        lambda x: np.ones_like(x), lambda x: 1.0 / x,
        lambda x: np.zeros_like(x), grid)
    assert np.max(np.abs(out["W_rho"] + 1.0 / (2 * grid.nodes))) < 1e-10


def test_sl_full_susy_round_trip():
    P, Q, Q1 = Poly([0, 1]), Poly([2, -1]), Poly([3, -2])
    lam1 = 1.5

    def R(t):
        t = np.asarray(t, dtype=float)
        W = Q1(t) / (2 * P(t))
        num = Q1.derivative() * P - Q1 * P.derivative()
        Wp = num(t) / (2 * P(t) ** 2)
        return -(P(t) * (Wp + W * W) + Q(t) * W + lam1)

    grid = numeric.Grid.uniform(0.5, 5.0, 400)
    assert numeric.sl_full_susy_residual(P, Q, R, Q1, lam1, grid) < 1e-10


def test_square_well_fixture():
    # tests/data/psi-save3.dat: column 0 is t in [0, 1], column n is
    # sqrt(2) sin(n pi t), n = 1..10.  For Jacobi(1/2, 1/2) on x = cos(pi t)
    # the z-form eigenfunction is sin((l + 1) pi t) and z = pi (1/2 - t).
    data = np.loadtxt(Path(__file__).parent / "data" / "psi-save3.dat")
    t = data[1:-1, 0]                       # p vanishes at t = 0 and t = 1
    x = np.cos(np.pi * t)
    grid = numeric.Grid(x, float(x[-1]), float(x[0]), "mapped")
    mid = len(t) // 2
    for l in (0, 1, 4, 9):
        prof = numeric.potentials(jacobi(Fraction(1, 2), Fraction(1, 2)),
                                  l, 0, grid)
        col = data[1:-1, l + 1]
        scale = np.dot(prof.s_phi_lm, col) / np.dot(col, col)
        dev = np.max(np.abs(prof.s_phi_lm / scale - col)) / np.max(np.abs(col))
        assert dev <= 1e-9
        z = np.pi * (0.5 - t)
        assert np.max(np.abs(prof.z - (z - z[mid]))) <= 1e-12


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
