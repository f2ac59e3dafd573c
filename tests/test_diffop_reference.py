"""DiffOp's integer rows against the one-Poly-per-coefficient reference
(oracles.RefDiffOp): every operation gives the same k and the same
canonical coefficients, and operators on incommensurate powers of p still
raise ValueError.  The hot operations build no Poly at all.  The package's
operators built on integer rows equal their Poly formulas, and in a verify
request neither conjugate nor those builders construct a Fraction or a
Poly, and assoc_bottom_up constructs no Fraction."""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from susyfactor import associated, cli, diffop, principal
from susyfactor.core import Poly, Problem
from susyfactor.diffop import DiffOp, hamiltonian

from conftest import jacobi, legendre
from oracles import RefDiffOp, taylor_data

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = small.filter(bool)
halves = st.integers(-4, 4).map(lambda n: Fraction(n, 2))
quarters = st.integers(-8, 8).map(lambda n: Fraction(n, 4))


@st.composite
def ps(draw):
    """p constant, linear, or quadratic with rational, irrational or no
    real roots."""
    a = draw(nonzero)
    kind = draw(st.sampled_from(["constant", "linear", "rational",
                                 "irrational", "complex"]))
    if kind == "constant":
        return Poly([a])
    r = draw(small)
    if kind == "linear":
        return Poly([-r, 1]) * a
    if kind == "rational":
        return Poly([-r, 1]) * Poly([-draw(small), 1]) * a
    d = draw(st.sampled_from([2, 3, 5, Fraction(1, 2)]))
    # (x - r)^2 -+ d: irrational roots r +- sqrt(d), or none
    sign = -1 if kind == "irrational" else 1
    return Poly([r * r + sign * d, -2 * r, 1]) * a


@st.composite
def problems(draw):
    return Problem(draw(ps()), Poly(draw(st.lists(small, max_size=2))))


# weight exponents of conjugate, as int and as Fraction
exponents = st.one_of(quarters, st.integers(-2, 2))


@st.composite
def operators(draw, prob):
    """Coefficients of order 0-4 with degree <= 3, row j carrying its own
    factor p^t_j (t_j <= j + 1), and k in Z/2.  conjugate divides row j by p
    at most j times, so the counts run from none to one past that cap; all
    rows share a factor of p often enough that reduced has work to do."""
    order = draw(st.integers(0, 4))
    cs = [Poly(draw(st.lists(small, max_size=4)))
          * prob.p ** draw(st.integers(0, j + 1)) for j in range(order + 1)]
    return cs, draw(halves)


def _outcome(run):
    try:
        op = run()
    except ValueError as ex:
        return "ValueError", str(ex)
    return op.k, op.coeffs


def _canonical(op) -> bool:
    rows = op.rows
    if not rows:
        return op.den == 1 and op.k == 0
    return op.den > 0 and all(not row or row[-1] for row in rows) \
        and rows[-1] and gcd(op.den, *(n for row in rows for n in row)) == 1


def _same(new, ref) -> bool:
    """new and ref give the same outcome, and new's is canonical."""
    a, b = _outcome(new), _outcome(ref)
    if a != b:
        return False
    return a[0] == "ValueError" or _canonical(new())


def _pair(cs, k):
    return DiffOp(cs, k), RefDiffOp(cs, k)


@given(st.data(), problems())
@settings(max_examples=100, deadline=None)
def test_every_operation_matches_the_reference(data, prob):
    a, ra = _pair(*data.draw(operators(prob)))
    b, rb = _pair(*data.draw(operators(prob)))
    s, e = data.draw(exponents), data.draw(exponents)
    c = data.draw(small)
    f = Poly(data.draw(st.lists(small, max_size=4)))
    lam = data.draw(small)
    assert _canonical(a)
    assert _same(lambda: a.compose(b, prob), lambda: ra.compose(rb, prob))
    assert _same(lambda: a.conjugate(s, e, prob),
                 lambda: ra.conjugate(s, e, prob))
    assert _same(lambda: a.add(b, prob), lambda: ra.add(rb, prob))
    assert _same(lambda: a.sub(b, prob), lambda: ra.sub(rb, prob))
    assert _same(lambda: a.scale(c), lambda: ra.scale(c))
    assert _same(lambda: a.reduced(prob), lambda: ra.reduced(prob))
    assert _same(lambda: a.eigen_residual(f, lam, prob),
                 lambda: ra.eigen_residual(f, lam, prob))


@given(problems(), st.integers(0, 4), exponents, exponents)
@settings(max_examples=60, deadline=None)
def test_hamiltonians_match_the_reference(prob, m, s, e):
    """The package's own operators: H0, H^a_m and the conjugation chains
    built from them."""
    h = hamiltonian(prob)
    rh = RefDiffOp(h.coeffs, h.k)
    ha = associated.assoc_hamiltonian(prob, m)
    rha = RefDiffOp(ha.coeffs, ha.k)
    assert _same(lambda: h.conjugate(s, e, prob),
                 lambda: rh.conjugate(s, e, prob))
    assert _same(lambda: ha.conjugate(Fraction(-m, 2), 0, prob),
                 lambda: rha.conjugate(Fraction(-m, 2), 0, prob))
    assert _same(lambda: ha.compose(h, prob), lambda: rha.compose(rh, prob))
    assert _same(lambda: h.compose(ha, prob), lambda: rh.compose(rha, prob))


def test_incommensurate_powers_raise():
    prob = legendre()
    half = DiffOp([Poly([1, 2])], Fraction(1, 2))
    one = DiffOp([Poly([0, 1]), 3])
    for run in (lambda: half.add(one, prob), lambda: one.sub(half, prob),
                lambda: half.eigen_residual(Poly([1, 1]), 2, prob)):
        with pytest.raises(ValueError, match="incommensurate"):
            run()


@given(st.data(), problems())
@settings(max_examples=40, deadline=None)
def test_one_changed_entry_is_seen(data, prob):
    """Negative control: the comparison fails once one row entry of the
    result moves."""
    a, ra = _pair(*data.draw(operators(prob)))
    s = data.draw(quarters)
    new = a.conjugate(s, 0, prob)
    if new.is_zero():
        return
    j = data.draw(st.integers(0, new.order))
    rows = [list(row) for row in new.rows]
    i = data.draw(st.integers(0, len(rows[j])))
    rows[j][i:i + 1] = [(rows[j][i] if i < len(rows[j]) else 0) + 1]
    bad = DiffOp._make(rows, new.den, new.h)
    assert _same(lambda: new, lambda: ra.conjugate(s, 0, prob))
    assert not _same(lambda: bad, lambda: ra.conjugate(s, 0, prob))


def test_hot_operations_build_no_poly(monkeypatch):
    """compose, conjugate, add, sub, scale, reduced and eigen_residual run
    on the integer rows and never read coeffs."""
    prob = jacobi(2, 3)
    h = hamiltonian(prob)
    ha = associated.assoc_hamiltonian(prob, 3)
    lower, raise_ = associated.assoc_ladders(prob, 2)
    root = DiffOp([Poly([1, 0, 2]), Poly([0, 1])], Fraction(1, 2))
    f = Poly([1, -2, 3])
    built = []
    make, init = Poly._make.__func__, Poly.__init__

    def counted_make(cls, num, den):
        built.append("_make")
        return make(cls, num, den)

    def counted_init(self, coeffs=()):
        built.append("__init__")
        init(self, coeffs)
    monkeypatch.setattr(Poly, "_make", classmethod(counted_make))
    monkeypatch.setattr(Poly, "__init__", counted_init)
    conj = ha.conjugate(Fraction(-3, 2), 0, prob)
    aligned = h.compose(root, prob)
    ops = [conj, aligned, lower.compose(raise_, prob),
           h.conjugate(Fraction(1, 4), Fraction(1, 2), prob),
           h.add(ha, prob), ha.sub(h, prob), aligned.sub(root, prob),
           ha.scale(Fraction(-2, 3)),
           DiffOp._make([[1, 0, -1], [0, 3, 0, -3]], 2, 0).reduced(
               prob),
           conj.eigen_residual(f, Fraction(5, 2), prob),
           root.eigen_residual(f, 0, prob)]
    assert built == []
    assert all(op._coeffs is None for op in ops)
    assert ops[8].k == 1 and ops[8].rows == ((1,), (0, 3))
    # the guard counts: reading the view builds one Poly per order
    assert len(conj.coeffs) == len(built) == conj.order + 1


def _poly_builders(prob, m, branch, l):
    """The package's operators from Poly formulas, as RefDiffOp: H0, the
    associated ladders and H^a_m, the ladder pair and H_l."""
    p, q, half = prob.p, prob.q, Fraction(1, 2)
    pprime = p.derivative()
    am = abs(m)
    shift = pprime * Fraction(-am, 2)
    lower = RefDiffOp([pprime * half - q + shift, -p], -half)
    raise_ = RefDiffOp([shift, p], -half)
    if m < 0:
        lower, raise_ = (RefDiffOp([-c for c in op.coeffs], -half)
                         for op in (raise_, lower))
    num = Fraction(am, 2) \
        * (p * taylor_data(prob).ppp + (q - pprime) * pprime) \
        + Fraction(am * am, 4) * pprime * pprime
    ops = {"hamiltonian": RefDiffOp([Poly(), -q, -p]),
           "assoc_ladders": (lower, raise_),
           "assoc_hamiltonian": RefDiffOp([num, -q * p, -p * p], -1)}
    try:
        entry = principal.factor_table(prob, branch, l)[-1]
    except principal.Breakdown:
        return ops
    wl, w0 = Poly([entry.beta, entry.alpha]), (pprime - q) * half
    ops["ladder_pair"] = (RefDiffOp([wl - w0, p]), RefDiffOp([wl + w0, -p]))
    if branch == "minus":
        ops["hypergeom_like_hl"] = RefDiffOp([Poly(), 2 * wl - pprime, -p])
    return ops


@given(problems(), st.integers(-4, 5), st.sampled_from(["minus", "plus"]),
       st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_operator_builders_match_the_poly_formulas(prob, m, branch, l):
    """Each operator built on integer rows off prob.taylor and the records
    equals its Poly formula, in the same canonical form."""
    ref = _poly_builders(prob, m, branch, l)
    lad = principal.Ladders(prob, l)
    got = {"hamiltonian": hamiltonian(prob),
           "assoc_ladders": associated.assoc_ladders(prob, m),
           "assoc_hamiltonian": associated.assoc_hamiltonian(prob, m)}
    if "ladder_pair" in ref:
        got["ladder_pair"] = principal.ladder_pair(prob, branch, l, lad)
    if "hypergeom_like_hl" in ref:
        got["hypergeom_like_hl"] = principal.hypergeom_like_hl(prob, l, lad)
    assert got.keys() == ref.keys()
    for name, ops in got.items():
        pairs = zip(ops, ref[name]) if isinstance(ops, tuple) \
            else [(ops, ref[name])]
        for new, old in pairs:
            assert _same(lambda: new, lambda: old), name


def _guard(monkeypatch, targets):
    """Wrap each (owner, name) of targets: returns (called, built), the
    names called and the kinds, "Fraction" or "Poly", constructed while
    one of them runs."""
    depth, built, called = [0], [], Counter()

    def guarded(name, fn):
        def run(*args, **kwargs):
            called[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return run

    for owner, name in targets:
        monkeypatch.setattr(owner, name, guarded(name, getattr(owner, name)))

    def counting(kind, fn):
        def run(*args, **kwargs):
            if depth[0]:
                built.append(kind)
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(Fraction, "__new__",
                        counting("Fraction", Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            counting("Fraction", Fraction._from_coprime_ints.__func__)))
    monkeypatch.setattr(Poly, "_make", classmethod(
        counting("Poly", Poly._make.__func__)))
    monkeypatch.setattr(Poly, "__init__", counting("Poly", Poly.__init__))
    return called, built


VERIFY_FAMILIES = ["legendre", "laguerre:1/2", "hermite", "jacobi:2,3"]


@pytest.mark.parametrize("family", VERIFY_FAMILIES)
def test_verify_builds_operators_without_fraction_or_poly(monkeypatch,
                                                          capsys, family):
    """One verify --levels 4 request: conjugate and the five operator
    builders construct no Fraction and no Poly while they run."""
    # hamiltonian is read under its name in each module that imports it
    called, built = _guard(monkeypatch, [
        (DiffOp, "conjugate"), (associated, "assoc_ladders"),
        (associated, "assoc_hamiltonian"), (principal, "ladder_pair"),
        (principal, "hypergeom_like_hl"),
        *((module, "hamiltonian") for module in (diffop, principal,
                                                 associated))])
    assert cli.main(["verify", "--family", family, "--levels", "4"]) == 0
    assert '"all_pass": true' in capsys.readouterr().out
    assert set(called) == {"conjugate", "assoc_ladders", "assoc_hamiltonian",
                           "hamiltonian", "ladder_pair", "hypergeom_like_hl"}
    assert built == []
    # the counters see a build inside a guarded call: with no context given,
    # ladder_pair makes its own Ladders, whose W0 is a Poly
    principal.ladder_pair(legendre(), "minus", 1)
    assert {"Fraction", "Poly"} <= set(built)


@pytest.mark.parametrize("family", VERIFY_FAMILIES)
def test_verify_builds_bottom_up_functions_without_fraction(monkeypatch,
                                                            capsys, family):
    """One verify --levels 4 request: assoc_bottom_up constructs no
    Fraction while it runs; the Poly of each derivative it takes is
    allowed, and shows that the counters see its builds."""
    called, built = _guard(monkeypatch, [(associated, "assoc_bottom_up")])
    assert cli.main(["verify", "--family", family, "--levels", "4"]) == 0
    assert '"all_pass": true' in capsys.readouterr().out
    assert called["assoc_bottom_up"] > 0
    assert "Fraction" not in built and "Poly" in built
