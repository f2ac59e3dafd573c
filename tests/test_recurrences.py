"""The integer ladder recurrences against the Fraction and QuasiFunction
code they replaced.

``_fraction_factor_table`` is factor_table as it ran on Fractions, ten
gcd-normalized operations per level; ``_fraction_direct_table`` is
direct_match_table as it ran with one Fraction per field and delta as a
Fraction difference; ``_derive_top_down`` is the top-down Phi_lm as it ran
through QuasiFunction.derive, one canonicalization per derivative.
Entries, Breakdown levels, partial tables and functions must match the
engine's exactly, and comparing integer records must decide what
comparing their entries decides.  The engine's Breakdown carries its
partial table as records, read here through factor_entries; the Fraction
references raise _PartialTable, which carries theirs as entries.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from susyfactor.core import Poly, Problem, QuasiFunction
from susyfactor import associated, principal
from susyfactor.principal import Breakdown, FactorEntry

from conftest import FAMILIES
from oracles import taylor_data

coefficients = st.one_of(
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=7))


class _PartialTable(Breakdown):
    """A Fraction reference's Breakdown, with the entries built below it."""

    def __init__(self, level, entries):
        super().__init__(level)
        self.entries = entries


def _partial_table(ex):
    """The entries of the levels below a Breakdown: a reference's own, or
    the engine's records read through factor_entries ([] for none)."""
    if isinstance(ex, _PartialTable):
        return ex.entries
    return principal.factor_entries(ex.prob, ex.branch, ex.records) \
        if ex.records else []


def _fraction_factor_table(prob, branch, max_level):
    t = taylor_data(prob)
    half_ppp = Fraction(t.ppp, 2)
    half_pp0 = Fraction(t.pp0, 2)
    entries = []
    if branch == "minus":
        alpha = Fraction(t.ppp - t.qp, 2)
        beta = Fraction(t.pp0 - t.q0, 2)
        E = lam = Fraction(0)
        entries.append(FactorEntry("minus", 0, alpha, beta, Fraction(0), E,
                                   lam))
        for l in range(1, max_level + 1):
            alpha_new = alpha - half_ppp
            if alpha_new == 0:
                raise _PartialTable(l, entries)
            beta_new = (alpha * beta - half_pp0 * (alpha_new + alpha)) \
                / alpha_new
            delta = t.p0 * (alpha_new + alpha) + beta_new ** 2 - beta ** 2
            lam = lam + 2 * alpha_new
            E = E + delta
            alpha, beta = alpha_new, beta_new
            entries.append(FactorEntry("minus", l, alpha, beta, delta, E,
                                       lam))
        return entries
    shift = t.ppp - t.qp
    alpha = Fraction(t.qp - t.ppp, 2)
    beta = Fraction(t.q0 - t.pp0, 2)
    E = lam = Fraction(0)
    entries.append(FactorEntry("plus", -1, alpha, beta, Fraction(0), E, lam))
    for l in range(0, max_level + 1):
        alpha_new = alpha + half_ppp
        if alpha_new == 0:
            raise _PartialTable(l, entries)
        beta_new = (alpha * beta + half_pp0 * (alpha_new + alpha)) / alpha_new
        delta = -t.p0 * (alpha_new + alpha) + beta_new ** 2 - beta ** 2
        E = E + delta
        lam = -l * t.qp - Fraction(l * (l - 1), 2) * t.ppp + shift
        alpha, beta = alpha_new, beta_new
        entries.append(FactorEntry("plus", l, alpha, beta, delta, E, lam))
    return entries


def _fraction_direct_table(prob, branch, max_level):
    lowest = -1 if branch == "plus" else 0
    D, P2, Q1, P1, Q0, P0 = prob.taylor
    D2, DD4 = 2 * D, 4 * D * D
    s = 1 if branch == "minus" else -1
    zero = Fraction(0)
    out = [FactorEntry(branch, lowest, Fraction(s * (P2 - Q1), D2),
                       Fraction(s * (P1 - Q0), D2), zero, zero, zero)]
    prev_E = zero
    for l in range(lowest + 1, max_level + 1):
        cl, cm = l * P2 + Q1, (l - 1) * P2 + Q1
        dl, dm = l * P1 + Q0, (l - 1) * P1 + Q0
        if branch == "minus":
            if cm == 0:
                raise Breakdown(l)
            alpha = Fraction(-cm, D2)
            beta = Fraction((l * cl - cm) * dm - l * cm * dl, D2 * cm)
            E = Fraction(l * (dm * (2 * cm * dl - (cm + cl) * dm)
                              - 2 * cm * cm * P0)
                         * ((l + 2) * cm - l * cl), DD4 * cm * cm)
            lam = Fraction(l * ((l - 1) * cl - (l + 1) * cm), D2)
        else:
            if cl == 0:
                raise Breakdown(l)
            alpha = Fraction(cl, D2)
            beta = Fraction(-(l + 1) * cl * dm + ((l + 1) * cm + cl) * dl,
                            D2 * cl)
            E = Fraction((l + 1) * (dl * ((cm + cl) * dl - 2 * cl * dm)
                                    - 2 * cl * cl * P0)
                         * ((l + 1) * cm - (l - 1) * cl), DD4 * cl * cl)
            lam = Fraction(l * ((l - 1) * cl - (l + 1) * cm) + 2 * (P2 - Q1),
                           D2)
        out.append(FactorEntry(branch, l, alpha, beta, E - prev_E, E, lam))
        prev_E = E
    return out


def _table_outcome(build, prob, branch, max_level):
    try:
        return build(prob, branch, max_level)
    except Breakdown as ex:
        return "Breakdown", ex.level, _partial_table(ex)


@st.composite
def table_problems(draw):
    """Rational (p, q), a third of them on a line where some c_k vanishes."""
    p = Poly(draw(st.lists(coefficients, min_size=1, max_size=3)))
    assume(not p.is_zero())
    q = draw(st.lists(coefficients, min_size=2, max_size=2))
    if draw(st.integers(0, 2)) == 0:
        # q' = -k p'' puts c_k = (k p'' + q')/2 = 0 (every c_l if p'' = 0);
        # k = -1/2, the line q' = p''/2, makes E_1 vanish instead
        k = draw(st.one_of(st.integers(-1, 12), st.just(Fraction(-1, 2))))
        q[1] = -k * 2 * p[2]
    return Problem(p, Poly(q))


@given(table_problems(), st.sampled_from(["minus", "plus"]),
       st.integers(-1, 30))
@settings(max_examples=400, deadline=None)
def test_integer_table_matches_fraction_recurrence(prob, branch, max_level):
    assume(max_level >= (-1 if branch == "plus" else 0))
    assert _table_outcome(principal.factor_table, prob, branch, max_level) \
        == _table_outcome(_fraction_factor_table, prob, branch, max_level)


@pytest.mark.parametrize("branch", ["minus", "plus"])
def test_integer_table_matches_fraction_recurrence_at_400(family, branch):
    assert principal.factor_table(family, branch, 400) == \
        _fraction_factor_table(family, branch, 400)


@given(table_problems(), st.sampled_from(["minus", "plus"]),
       st.integers(-1, 30))
@settings(max_examples=300, deadline=None)
def test_closed_form_entries_match_fraction_closed_forms(prob, branch,
                                                         max_level):
    assume(max_level >= (-1 if branch == "plus" else 0))
    assert _table_outcome(principal.direct_match_table, prob, branch,
                          max_level) \
        == _table_outcome(_fraction_direct_table, prob, branch, max_level)


# the fields of an integer record that factor_entries reads at the lowest
# level, and at every level above it
LOWEST_FIELDS, FIELDS = (0, 1), (0, 1, 2, 3)


@given(table_problems(), st.sampled_from(["minus", "plus"]),
       st.integers(0, 30), st.data())
@settings(max_examples=300, deadline=None)
def test_record_comparison_is_entry_comparison(prob, branch, max_level,
                                               data):
    lowest = -1 if branch == "plus" else 0
    try:
        records = principal.ladder_records(prob, branch, max_level)
    except Breakdown as ex:
        # the partial entries are the closed forms' below the break, entry
        # for entry, and the closed forms break at the same level
        if ex.level - 1 >= lowest:
            assert _partial_table(ex) == _fraction_direct_table(
                prob, branch, ex.level - 1)
        with pytest.raises(Breakdown) as closed:
            principal.closed_form_records(prob, branch, max_level)
        assert closed.value.level == ex.level
        return
    closed = principal.closed_form_records(prob, branch, max_level)
    assert records == closed
    assert principal.factor_entries(prob, branch, records) \
        == _fraction_direct_table(prob, branch, max_level)
    # one closed-form record moved by a drawn amount, zero included
    i = data.draw(st.integers(0, len(closed) - 1))
    field = data.draw(st.sampled_from(FIELDS if i else LOWEST_FIELDS))
    shift = data.draw(st.one_of(st.integers(-2, 2),
                                st.sampled_from([2 * prob.taylor[0],
                                                 closed[i][0] ** 2])))
    moved = list(closed[i])
    moved[field] += shift
    assume(i == 0 or moved[0] != 0)
    tampered = closed[:i] + [tuple(moved)] + closed[i + 1:]
    assert (records == tampered) == (
        principal.factor_entries(prob, branch, records)
        == principal.factor_entries(prob, branch, tampered))


def test_vanishing_E_keeps_the_table():
    # p = x^2 + x, q = -3x: E_1 = 0 and the recurrence goes on past it
    prob = Problem(Poly([0, 1, 1]), Poly([0, -3]))
    table = principal.factor_table(prob, "minus", 6)
    assert table[1].E == 0
    assert table == _fraction_factor_table(prob, "minus", 6)


def _derive_top_down(prob, l, m):
    am = abs(m)
    f = QuasiFunction(Poly.const(1), l, 1)
    for _ in range(l - am):
        f = f.derive(prob)
    value = QuasiFunction(f.c, f.s - Fraction(am, 2), 0)
    if (l - am) % 2 != 0:
        value = value.scale(-1)
    if m < 0 and m % 2 != 0:
        value = value.scale(-1)
    return value


@st.composite
def chain_problems(draw):
    """p constant (p(0) != 1), linear or quadratic, and any linear q."""
    degree = draw(st.integers(0, 2))
    lead = draw(coefficients.filter(lambda v: v != 0 and (degree or v != 1)))
    p = Poly(draw(st.lists(coefficients, min_size=degree, max_size=degree))
             + [lead])
    q = Poly(draw(st.lists(coefficients, min_size=2, max_size=2)))
    return Problem(p, q)


@given(chain_problems(), st.integers(0, 9), st.data())
@settings(max_examples=200, deadline=None)
def test_rodrigues_chain_matches_derive_loop(prob, l, data):
    m = data.draw(st.integers(-l, l))
    try:
        got = associated.assoc_top_down(prob, l, m)
    except Breakdown:
        assume(False)
    want = _derive_top_down(prob, l, m)
    assert (got.coeff(0), got.k, 0) == (want.c, want.s, want.e)


def test_rodrigues_chain_matches_derive_loop_on_presets(family):
    for l in (0, 1, 6, 13):
        for m in range(-l, l + 1):
            got = associated.assoc_top_down(family, l, m)
            want = _derive_top_down(family, l, m)
            assert (got.coeff(0), got.k, 0) == (want.c, want.s, want.e)


@pytest.mark.parametrize("name", ["legendre", "hypergeom(1/3,1/5,7/2)"])
def test_normsq_is_the_fraction_product(name):
    prob = FAMILIES[name]
    for l in range(9):
        for m in range(-l, l + 1):
            want = principal.principal_eigenfunction(prob, l)[1]
            for j in range(abs(m)):
                want *= associated.assoc_lambda(prob, l, j)
            assert associated.assoc_normsq(prob, l, m) == want
