"""Every check family returns residuals: zero on the presets, and nonzero
once the Ladders context it reads holds one tampered table entry."""

from dataclasses import replace
from fractions import Fraction

import pytest

from susyfactor.core import Poly, Problem
from susyfactor import associated, degenerate, principal

from conftest import hermite
from test_ladders import _passes


def _tampered(prob, top, branch, level, **change) -> principal.Ladders:
    """A fresh context whose branch table has one entry changed."""
    lad = principal.Ladders(prob, top)
    table = lad.table(branch)
    i = level + (1 if branch == "plus" else 0)
    table[i] = replace(table[i], **change)
    return lad


# (check, the table entry to tamper): each check reads the tampered field
CHECKS = {
    "shape_invariance_minus": (
        lambda prob, lad: principal.shape_invariance_check(
            prob, "minus", 2, lad), ("minus", 2, "beta")),
    "shape_invariance_plus": (
        lambda prob, lad: principal.shape_invariance_check(
            prob, "plus", 2, lad), ("plus", 2, "delta")),
    "three_term": (
        lambda prob, lad: principal.three_term_check(prob, 2, lad),
        ("minus", 2, "E")),
    "equivalent_forms": (
        lambda prob, lad: principal.equivalent_forms_check(prob, 2, lad),
        ("plus", 2, "lam")),
    "standard_hermitian": (
        lambda prob, lad: associated.standard_hermitian_relation(
            prob, 2, lad), ("minus", 2, "E")),
    "associated": (
        lambda prob, lad: associated.verify_associated(prob, 3, 1, lad),
        ("minus", 1, "beta")),
    "pHm": (
        lambda prob, lad: associated.pHm_factorization(prob, 3, 2, lad)[2],
        ("minus", 3, "E")),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_residuals_vanish_on_the_presets(family, name):
    check, _ = CHECKS[name]
    assert _passes(check(family, principal.Ladders(family, 4)))


@pytest.mark.parametrize("name", list(CHECKS))
def test_one_tampered_entry_leaves_a_residual(family, name):
    check, (branch, level, field) = CHECKS[name]
    lad = principal.Ladders(family, 4)
    value = getattr(lad.entry(branch, level), field)
    lad = _tampered(family, 4, branch, level, **{field: value + 1})
    assert not _passes(check(family, lad))


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
    # the eigenvalue at level l - m = 2, and the ladder pair at level 5:
    # each names its own level, so the tamper shows exactly there
    lad = principal.Ladders(prob, depth)
    lam = lad.entry("minus", 2).lam
    lad = _tampered(prob, depth, "minus", 2, lam=lam + 1)
    res = degenerate.collapse_check(prob, 3, 1, lad=lad)
    assert [k for k, r in res.items() if not r.is_zero()] == ["eigenvalue"]
    alpha = lad.entry("minus", 5).alpha
    lad = _tampered(prob, depth, "minus", 5, alpha=alpha + Fraction(1, 2))
    res = degenerate.collapse_check(prob, 3, 1, lad=lad)
    assert [k for k, r in res.items() if not r.is_zero()] == \
        ["lower_5", "raise_5"]
