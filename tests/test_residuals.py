"""Every check family returns residuals: zero on the presets, and nonzero
once the Ladders context it reads holds one tampered integer record, the
data every check reads its fields from.  pHm_factorization's residual
equals the one both sides of its balance give when built apart."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from susyfactor.core import Poly, Problem
from susyfactor.diffop import DiffOp
from susyfactor import associated, degenerate, principal

from conftest import hermite, jacobi
from oracles import taylor_data
from test_ladders import _passes, problems


# the fields of an integer record (principal.ladder_records)
RECORD = ("a", "B", "X", "L")


def _field(lad, branch, level, field):
    """A field of the level's integer record."""
    i = level + (1 if branch == "plus" else 0)
    return lad.records(branch)[i][RECORD.index(field)]


def _tampered(prob, top, branch, level, **change) -> principal.Ladders:
    """A fresh context whose branch has one integer record changed."""
    lad = principal.Ladders(prob, top)
    i = level + (1 if branch == "plus" else 0)
    (field, value), = change.items()
    records = lad.records(branch)
    rec = list(records[i])
    rec[RECORD.index(field)] = value
    records[i] = tuple(rec)
    return lad


# (check, the record field to tamper): each check reads the tampered field,
# beta through W_l (B), delta and E through X, lambda through L;
# verify_associated reads the minus records through Phi_l
CHECKS = {
    "shape_invariance_minus": (
        lambda prob, lad: principal.shape_invariance_check(
            prob, "minus", 2, lad), ("minus", 2, "B")),
    "shape_invariance_plus": (
        lambda prob, lad: principal.shape_invariance_check(
            prob, "plus", 2, lad), ("plus", 2, "X")),
    "symmetry": (
        lambda prob, lad: principal.symmetry_check(prob, 2, lad),
        ("plus", 2, "L")),
    "three_term": (
        lambda prob, lad: principal.three_term_check(prob, 2, lad),
        ("minus", 2, "X")),
    "equivalent_forms": (
        lambda prob, lad: principal.equivalent_forms_check(prob, 2, lad),
        ("minus", 2, "L")),
    "standard_hermitian": (
        lambda prob, lad: associated.standard_hermitian_relation(
            prob, 2, lad), ("minus", 2, "X")),
    "associated": (
        lambda prob, lad: associated.verify_associated(prob, 3, 1, lad),
        ("minus", 1, "B")),
    "pHm": (
        lambda prob, lad: associated.pHm_factorization(prob, 3, 2, lad)[2],
        ("minus", 3, "X")),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_residuals_vanish_on_the_presets(family, name):
    check, _ = CHECKS[name]
    assert _passes(check(family, principal.Ladders(family, 4)))


@pytest.mark.parametrize("name", list(CHECKS))
def test_one_tampered_entry_leaves_a_residual(family, name):
    check, (branch, level, field) = CHECKS[name]
    value = _field(principal.Ladders(family, 4), branch, level, field)
    lad = _tampered(family, 4, branch, level, **{field: value + 1})
    assert not _passes(check(family, lad))


@pytest.mark.parametrize("field, key", [("a", "alpha"), ("B", "beta"),
                                        ("X", "E"), ("L", "lambda")])
def test_symmetry_names_the_tampered_field(family, field, key):
    # each field of a plus record shows in its own symmetry residual
    value = _field(principal.Ladders(family, 4), "plus", 2, field)
    lad = _tampered(family, 4, "plus", 2, **{field: value + 1})
    assert not principal.symmetry_check(family, 2, lad)[key].is_zero()


def test_momentum_map_sees_the_ladder_scale(family):
    # 2 h_m and h_m^dagger / 2 leave every product of the pair as it is;
    # only the momentum map, whose right side is built from p alone, fails
    lad = principal.Ladders(family, 4)
    lower, raise_ = associated.assoc_ladders(family, 2)
    lad.memo(("h", 2), lambda: (lower.scale(2), raise_.scale(Fraction(1, 2))))
    res = associated.verify_associated(family, 3, 2, lad)
    assert [k for k, r in res.items() if not r.is_zero()] == ["momentum_map"]


CONSTANT_P = [hermite(), Problem(Poly([2]), Poly([1, -3])),
              Problem(Poly([1]), Poly([0, 2]))]


@pytest.mark.parametrize("prob", CONSTANT_P, ids=str)
def test_collapse_residuals(prob):
    depth = degenerate.COLLAPSE_DEPTH
    res = degenerate.collapse_check(prob, 3, 1, lad=principal.Ladders(
        prob, depth))
    assert {f"delta_{n}" for n in range(1, depth + 1)} <= set(res)
    assert {f"lower_{j}" for j in range(1, depth + 1)} <= set(res)
    assert all(r.is_zero() for r in res.values())
    # the eigenvalue at level l - m = 2 (record L), and the ladder pair at
    # level 5 (record a, which W_5 reads): each names its own level, so the
    # tamper shows exactly there
    L = _field(principal.Ladders(prob, depth), "minus", 2, "L")
    lad = _tampered(prob, depth, "minus", 2, L=L + 1)
    res = degenerate.collapse_check(prob, 3, 1, lad=lad)
    assert [k for k, r in res.items() if not r.is_zero()] == ["eigenvalue"]
    a = _field(lad, "minus", 5, "a")
    lad = _tampered(prob, depth, "minus", 5, a=a + 1)
    res = degenerate.collapse_check(prob, 3, 1, lad=lad)
    assert [k for k, r in res.items() if not r.is_zero()] == \
        ["lower_5", "raise_5"]


def _six_operation_pHm(prob, l, m):
    """(C, E_lm, lambda_lm, residual) with Fraction scalars read off the
    Taylor data, and both sides of p H^a_m - lambda p + E_lm =
    B_l A_l + C (A_l + B_l) + C^2 built apart, through six additions."""
    m, t = abs(m), taylor_data(prob)
    if m == 0:
        C = Fraction(0)
    else:
        cm = ((l - 1) * t.ppp + t.qp) / 2
        if cm == 0:
            raise principal.Breakdown(l)
        C = Fraction(m, 4) * (t.pp0 * t.qp - t.ppp * t.q0) / cm
    lad = principal.Ladders(prob, l)
    ent = principal.factor_table(prob, "minus", l)[-1]
    E_lm = ent.E + C * (C + 2 * ent.beta) \
        + m * (t.qp + Fraction(m - 2, 2) * t.ppp) * t.p0 \
        - Fraction(m, 2) * (t.q0 + Fraction(m - 2, 2) * t.pp0) \
        * t.pp0
    lam = -(l - m) * t.qp \
        - Fraction(l * (l - 1) - m * (m - 1), 2) * t.ppp
    ham = associated.assoc_hamiltonian(prob, m)
    lhs = DiffOp(ham.coeffs, ham.k + 1).sub(DiffOp([prob.p * lam]), prob)
    lhs = lhs.add(DiffOp([E_lm]), prob)
    lower, raise_ = lad.pair("minus", l)
    rhs = lad.ba("minus", l).add(
        lower.add(raise_, prob).scale(C), prob)
    rhs = rhs.add(DiffOp([C * C]), prob)
    return C, E_lm, lam, lhs.sub(rhs, prob)


def _engine_pHm(prob, l, m, lad):
    C, E_lm, res = associated.pHm_factorization(prob, l, m, lad)
    return C, E_lm, associated.assoc_lambda(prob, l, m), res


def _record(run, *args):
    try:
        C, E_lm, lam, res = run(*args)
    except principal.Breakdown as ex:
        return "Breakdown", ex.level
    return C, E_lm, lam, res.k, res.coeffs


@given(st.one_of(problems(), st.sampled_from(CONSTANT_P)), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_pHm_matches_the_six_operation_form(prob, l):
    lad = principal.Ladders(prob, l)
    for m in range(-l, l + 1):
        assert _record(_engine_pHm, prob, l, m, lad) == \
            _record(_six_operation_pHm, prob, l, m)


def test_warm_pHm_makes_one_sub_and_one_add(monkeypatch):
    prob = jacobi(2, 3)
    lad = principal.Ladders(prob, 4)
    associated.pHm_factorization(prob, 3, 2, lad)
    signs, add = [], DiffOp.add

    def counted(self, other, prob, sign=1):
        signs.append(sign)
        return add(self, other, prob, sign)
    monkeypatch.setattr(DiffOp, "add", counted)
    associated.pHm_factorization(prob, 3, 2, lad)
    # sub is add with sign -1
    assert sorted(signs) == [-1, 1]
