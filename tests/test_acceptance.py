"""Acceptance gate: one criterion per test, one pass/fail line each.

Tolerances are pinned in the assertions; exact claims are checked with
rational arithmetic and no tolerance at all.
"""

import csv
import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from susyfactor.core import Poly, Problem
from susyfactor.diffop import DiffOp, hamiltonian
from susyfactor import associated, degenerate, numeric, principal
from susyfactor.associated import proportional

from conftest import FAMILIES, confluent, hermite, hypergeom, jacobi, legendre
from oracles import apply, brute_force_eigen_oracle, poly_ratio, taylor_data

PRESETS = list(FAMILIES.values())


def _report(n: int, desc: str, ok: bool):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_01_exact_spectra():
    t0 = time.perf_counter()
    ok = True
    for a, b in [(0, 0), (1, 0), (2, 3), (Fraction(1, 2), Fraction(1, 2))]:
        table = principal.factor_table(jacobi(a, b), "minus", 10)
        ok &= all(table[n].lam == n * (n + a + b + 1) for n in range(11))
    for n in range(7):
        # b chosen off the integer lattice so no alpha vanishes en route
        for b, c in [(Fraction(7, 3), Fraction(5, 2)),
                     (Fraction(1, 2), Fraction(3, 2))]:
            a = Fraction(-n)
            table = principal.factor_table(hypergeom(a, b, c), "minus", n)
            ok &= table[n].lam == a * b
    for m in (3, Fraction(1, 2)):
        table = principal.factor_table(confluent(m), "minus", 10)
        ok &= all(table[n].lam == n for n in range(11))
    ok &= all(degenerate.hermite_generate(l)[1] == l for l in range(11))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5
    _report(1, "closed-form spectra of the classical presets, exact, "
               f"{elapsed:.2f}s < 5s", ok)


def test_criterion_02_exact_eigen_residuals():
    t0 = time.perf_counter()
    ok = True
    for prob in PRESETS:
        for l in range(9):
            for m in range(-l, l + 1):
                h = associated.assoc_hamiltonian(prob, m)
                phi = associated.assoc_bottom_up(prob, l, m)
                lam = associated.assoc_lambda(prob, l, m)
                ok &= apply(h, phi, prob).sub(phi.scale(lam),
                                              prob).is_zero()
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30
    _report(2, "eigen-equation residuals vanish exactly for 0<=|m|<=l<=8, "
               f"all presets, {elapsed:.2f}s < 30s", ok)


def test_criterion_03_cross_path_consistency():
    t0 = time.perf_counter()
    ok = True
    for prob in PRESETS:
        for l in range(11):
            forms = [associated.assoc_bottom_up(prob, l, 0),
                     associated.assoc_top_down(prob, l, 0)]
            phi, _ = principal.principal_eigenfunction(prob, l)
            forms.append(DiffOp([phi]))
            for m in range(1, l + 1):
                pair = (associated.assoc_bottom_up(prob, l, m),
                        associated.assoc_top_down(prob, l, m))
                ok &= proportional(*pair, prob) is not None
            for i in range(len(forms)):
                for j in range(i + 1, len(forms)):
                    ok &= proportional(forms[i], forms[j], prob) is not None
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30
    _report(3, "ladder/Rodrigues/bottom-up/top-down constructions pairwise "
               f"proportional for m<=l<=10, {elapsed:.2f}s < 30s", ok)


def test_criterion_04_recurrence_vs_closed_form():
    ok = True
    for prob in PRESETS:
        for branch in ("minus", "plus"):
            ok &= principal.factor_table(prob, branch, 10) == \
                principal.direct_match_table(prob, branch, 10)
    _report(4, "recurrence factor tables equal closed-form tables "
               "entry-wise, both branches, l<=10, all presets", ok)


def test_criterion_05_operator_identities():
    ok = True
    for prob in PRESETS:
        minus = principal.factor_table(prob, "minus", 9)
        plus = principal.factor_table(prob, "plus", 9)
        t = taylor_data(prob)
        shift = t.ppp - t.qp
        for l in range(9):
            if l >= 1:
                ok &= principal.shape_invariance_check(
                    prob, "minus", l).is_zero()
            ok &= principal.shape_invariance_check(prob, "plus", l).is_zero()
            ok &= associated.assoc_shape_invariance(prob, l + 1).is_zero()
            ok &= plus[l + 1].alpha == -minus[l + 1].alpha
            ok &= plus[l + 1].beta == -minus[l + 1].beta
            ok &= plus[l + 1].E == minus[l + 1].E
            ok &= plus[l + 1].lam - minus[l].lam == shift
            ok &= all(r.is_zero() for r in principal.equivalent_forms_check(
                prob, l).values())
            ok &= associated.standard_hermitian_relation(prob, l).is_zero()
            for m in range(l + 1):
                ok &= all(r.is_zero() for r in
                          associated.principal_form_equivalence(
                              prob, l, m).values())
                _, _, res = associated.pHm_factorization(prob, l, m)
                ok &= res.is_zero()
    _report(5, "shape invariance, branch symmetries, operator-form "
               "equivalences and factorizations hold exactly for l,m<=8", ok)


def test_criterion_06_oracle_equivalence():
    ok = True
    for prob in PRESETS:
        for l in range(13):
            phi, _ = principal.principal_eigenfunction(prob, l)
            psi, lam = brute_force_eigen_oracle(prob, l)
            ok &= lam == principal.factor_table(prob, "minus", l)[l].lam
            ok &= poly_ratio(phi, psi) is not None
    _report(6, "ladder eigenfunctions match the brute-force linear-system "
               "oracle for l<=12, all presets", ok)


def test_criterion_07_degenerate_collapse():
    ok = True
    prob = hermite()
    minus = principal.factor_table(prob, "minus", 10)
    for l in range(11):
        for m in range(l + 1):
            ok &= associated.assoc_lambda(prob, l, m) == minus[l - m].lam
            phi = associated.assoc_bottom_up(prob, l, m)
            href, _ = degenerate.hermite_generate(l - m)
            ok &= poly_ratio(phi.coeff(0), href) is not None
    qp = taylor_data(prob).qp
    ok &= all(associated.assoc_delta_plus(prob, n) == -qp
              for n in range(1, 11))
    qprob = Problem(Poly([1]), Poly([0, 2]))
    hq = hamiltonian(qprob)
    for l in range(9):
        poly, lam = degenerate.quasi_hermite_generate(l)
        ok &= lam == -2 * l
        ok &= hq.eigen_residual(poly, lam, qprob).is_zero()
    _report(7, "constant-p collapse onto the Hermite family and "
               "quasi-Hermite eigenvalues -2l", ok)


def test_criterion_08_numeric_residuals():
    t0 = time.perf_counter()
    ok = True
    rel, order = numeric.schrodinger_residual(legendre(), 4, 0, nodes=2000,
                                              form="y")
    ok &= rel <= 1e-6 and 1.7 <= order <= 2.3
    rel, order = numeric.schrodinger_residual(legendre(), 3, 1, nodes=2000,
                                              form="z")
    ok &= rel <= 1e-6 and 1.7 <= order <= 2.3
    for prob in PRESETS:
        if prob.p.degree == 2 and prob.p[2] > 0:
            continue        # indefinite weight: no orthogonality interval
        g = numeric.orthogonality_matrix(prob, 5)
        d = np.sqrt(np.abs(np.diag(g)))
        off = g / np.outer(d, d)
        np.fill_diagonal(off, 0.0)
        ok &= float(np.max(np.abs(off))) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 20
    _report(8, "Schrodinger-form residuals <= 1e-6 at second order and "
               f"weighted orthogonality <= 1e-8, {elapsed:.2f}s < 20s", ok)


def test_criterion_09_sturm_liouville_transforms():
    ok = True
    prob = legendre()
    entry = principal.factor_table(prob, "minus", 3)[3]
    grid = np.linspace(-0.9, 0.9, 201)
    out = numeric.sl_transform_typeI(prob.p, prob.q, Poly([]), grid,
                                     E=float(entry.E),
                                     Lambda=float(entry.lam))
    V = numeric.potential_poly(prob, 3)(grid)
    ok &= float(np.max(np.abs(out["U"] - V))) <= 1e-10

    rgrid = np.linspace(0.5, 3.0, 201)
    out2 = numeric.sl_transform_typeII(
        lambda x: np.ones_like(x), lambda x: 1.0 / x,
        lambda x: np.zeros_like(x), rgrid)
    ok &= float(np.max(np.abs(out2["W_rho"] + 1 / (2 * rgrid)))) \
        <= 1e-10

    P, Q, Q1 = Poly([0, 1]), Poly([2, -1]), Poly([3, -2])
    lam1 = 1.5

    def R(t):
        t = np.asarray(t, dtype=float)
        W = Q1(t) / (2 * P(t))
        num = Q1.derivative() * P - Q1 * P.derivative()
        Wp = num(t) / (2 * P(t) ** 2)
        return -(P(t) * (Wp + W * W) + Q(t) * W + lam1)

    ok &= numeric.sl_full_susy_residual(
        P, Q, R, Q1, lam1, np.linspace(0.5, 5.0, 400)) <= 1e-10
    _report(9, "Sturm-Liouville type-I/type-II transforms and the full "
               "SUSY round trip agree to 1e-10", ok)


def test_criterion_10_breakdown_cli_contract():
    r = subprocess.run(
        [sys.executable, "-m", "susyfactor.cli", "factorize",
         "--p", "-1,0,1", "--q", "6,0", "--levels", "6", "--branch", "minus"],
        capture_output=True, text=True)
    ok = r.returncode == 2
    err = json.loads(r.stderr) if r.stderr.strip() else {}
    ok &= err.get("error") == "breakdown" and err.get("level") == 4
    partial = json.loads(r.stdout)
    ok &= [e["l"] for e in partial["entries"]] == [0, 1, 2, 3]
    _report(10, "breakdown at level 4 reports exit code 2, the level in "
                "stderr JSON, and the partial table on stdout", ok)
