"""Phi_l and the bottom-up and top-down Phi_lm against the power-series
oracle, which reads only p and q (oracles.series_phi)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from susyfactor import associated, principal
from susyfactor.core import Poly
from susyfactor.diffop import DiffOp

from oracles import series_phi
from test_ladders import problems


def test_phi_matches_the_series_at_level_300(family):
    l = 300
    assert principal.Ladders(family, l).phi(l) == \
        series_phi(family.p, family.q, l)


@given(problems(), st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_phi_matches_the_series_on_random_problems(prob, l):
    try:
        phi = principal.Ladders(prob, l).phi(l)
        ref = series_phi(prob.p, prob.q, l)
    except (principal.Breakdown, principal.DegreeError, ZeroDivisionError):
        return
    assert phi == ref


def test_bottom_up_is_the_derivative_of_the_series(family):
    # every m at one level: (-1)^m (d/dx)^|m| Phi_l for m < 0, taken one
    # derivative at a time over Fractions; the top-down form is
    # p^(|m|/2) times it, up to a nonzero rational
    l = 30
    lad = principal.Ladders(family, l)
    series = series_phi(family.p, family.q, l).coeffs
    for m in range(-l, l + 1):
        d = list(series)
        for _ in range(abs(m)):
            d = [k * c for k, c in enumerate(d)][1:]
        sign = -1 if m < 0 and m % 2 else 1
        assert associated.assoc_bottom_up(family, l, m, lad).coeff(0) == \
            Poly([sign * c for c in d]), m
        ref = DiffOp([Poly(d)], Fraction(abs(m), 2))
        assert associated.proportional(
            associated.assoc_top_down(family, l, m, lad), ref,
            family) is not None, m
