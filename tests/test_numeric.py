import contextlib
import io
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from susyfactor.core import Poly, Problem
from susyfactor.associated import assoc_lambda
from susyfactor.principal import factor_table, principal_eigenfunction
from susyfactor import cli, numeric, principal

from conftest import hermite, jacobi, laguerre, legendre


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
    # numeric's functions read the module attribute at call time, so a
    # wrapper set on it sees every call
    calls = []
    quad = numeric.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)
    monkeypatch.setattr(numeric, "quad", counted)
    numeric.coordinate_maps(legendre(), numeric.Grid.uniform(-0.5, 0.5, 5))
    assert len(calls) == 2 * 4


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
    phi, _ = principal_eigenfunction(prob, l)
    E = float(factor_table(prob, "minus", l)[l].E if form == "y"
              else assoc_lambda(prob, l, m))

    def residual(n):
        lo, hi = numeric._natural_domain(prob)
        width = hi - lo
        x0 = 0.5 * (lo + hi)
        integ = (lambda t: 1.0 / prob.p(t)) if form == "y" \
            else (lambda t: 1.0 / np.sqrt(abs(prob.p(t))))
        u_hi, u_lo = (numeric.quad(integ, x0, end, epsabs=1e-12,
                                   epsrel=1e-12, limit=200)[0]
                      for end in (hi - inset * width, lo + inset * width))
        u = np.linspace(max(u_lo, -span), min(u_hi, span), n)
        x = numeric._x_of_coordinate(prob, u, x0, form)
        w = numeric.weight_numeric(
            prob, numeric.Grid(x, float(np.min(x)), float(np.max(x))))
        if form == "y":
            psi = np.sqrt(w) * phi(x)
            V = numeric.potential_poly(prob, l)(x)
        else:
            psi, V, _ = numeric._assoc_schrodinger(prob, phi, m, x, w)
        h = u[1] - u[0]
        res = -(psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h ** 2 \
            + (V[1:-1] - E) * psi[1:-1]
        return float(np.max(np.abs(res))), psi, V, h

    r1, psi, V, h = residual(nodes)
    r2 = residual(2 * nodes - 1)[0]
    a_norm = 4.0 / h ** 2 + float(np.max(np.abs(V - E)))
    rel = r1 / (a_norm * float(np.max(np.abs(psi))))
    if r1 > 0 and r2 > 0:
        return rel, float(np.log2(r1 / r2))
    return rel, 2.0 if r1 == r2 == 0 else None


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
    assert counts == {"factor_table": 1, "principal_eigenfunction": 1,
                      "_natural_domain": 1, "quad": 2, "solve_ivp": 2}
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
