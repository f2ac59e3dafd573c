"""The verify suite on one shared Ladders context against standalone checks."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import susyfactor
from susyfactor.core import Poly, Problem, QuasiFunction
from susyfactor.diffop import DiffOp
from susyfactor import associated, cli, degenerate, principal
from oracles import taylor_data


# small integers make vanishing norms and degenerate problems common
coefficients = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def problems(draw):
    p = Poly(draw(st.lists(coefficients, min_size=1, max_size=3)))
    assume(not p.is_zero())
    q = draw(st.lists(coefficients, min_size=2, max_size=2))
    if draw(st.integers(0, 5)) == 5:
        # q' = -(k/2) p'': an even k stops the plus table at level k/2 and
        # the minus table one level later, an odd k loses a degree while
        # raising to level (k + 3)/2
        q[1] = -draw(st.integers(0, 12)) * p[2]
    elif p[2]:
        # off the lines where c_l = (l p'' + q')/2 vanishes or Phi_l loses
        # a degree: 2 q'/p'' is no integer <= 1
        ratio = q[1] / p[2]
        assume(ratio.denominator != 1 or ratio > 1)
    else:
        assume(q[1] != 0)
    return Problem(p, Poly(q))


def _passes(res) -> bool:
    """A check passes when every residual it returns is zero."""
    if isinstance(res, dict):
        return all(r.is_zero() for r in res.values())
    return res.is_zero()


def _standalone_suite(prob, levels, perturb):
    """The suite as separate calls, each check building its own context."""
    checks, t = {}, taylor_data(prob)
    minus = principal.factor_table(prob, "minus", levels + 1)
    plus = principal.factor_table(prob, "plus", levels + 1)

    def sic(branch, l):
        res = principal.shape_invariance_check(prob, branch, l)
        if perturb:
            res = res.add(DiffOp([perturb]), prob)
        return res.is_zero()

    for l in range(levels + 1):
        if l >= 1:
            checks[f"shape_invariance_minus_{l}"] = sic("minus", l)
        checks[f"shape_invariance_plus_{l}"] = sic("plus", l)
        checks[f"symmetry_{l}"] = (
            plus[l + 1].alpha == -minus[l + 1].alpha
            and plus[l + 1].beta == -minus[l + 1].beta
            and plus[l + 1].E == minus[l + 1].E
            and plus[l + 1].lam - minus[l].lam == t.ppp - t.qp)
        checks[f"three_term_{l}"] = _passes(
            principal.three_term_check(prob, l))
        checks[f"equivalent_forms_{l}"] = _passes(
            principal.equivalent_forms_check(prob, l))
        if l <= 4:
            checks[f"standard_hermitian_{l}"] = _passes(
                associated.standard_hermitian_relation(prob, l))
        checks[f"assoc_shape_invariance_{l + 1}"] = \
            associated.assoc_shape_invariance(prob, l + 1).is_zero()
        for m in range(l + 1):
            checks[f"associated_{l}_{m}"] = _passes(
                associated.verify_associated(prob, l, m))
            _, _, res = associated.pHm_factorization(prob, l, m)
            checks[f"pHm_{l}_{m}"] = res.is_zero()
    if degenerate.detect(prob).is_degenerate:
        for l in range(levels + 1):
            for m in range(l + 1):
                checks[f"collapse_{l}_{m}"] = _passes(
                    degenerate.collapse_check(prob, l, m))
    return checks


def _outcome(run, *args):
    try:
        return run(*args)
    except (principal.Breakdown, principal.DegreeError) as ex:
        return type(ex).__name__, getattr(ex, "level", None), str(ex)


@given(problems(), st.integers(0, 4), st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_shared_context_matches_standalone_checks(prob, levels, perturb):
    perturb = Fraction(perturb)
    assert _outcome(cli._verify_suite, prob, levels, perturb) == \
        _outcome(_standalone_suite, prob, levels, perturb)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_one_table_per_branch_and_one_raise_per_level(monkeypatch):
    records, tables, raises = [], [], []
    ladder_records = principal.ladder_records
    factor_entries = principal.factor_entries
    raise_ = principal.Ladders._raise

    def counted_records(prob, branch, max_level):
        records.append((branch, max_level))
        return ladder_records(prob, branch, max_level)

    def counted_entries(prob, branch, recs):
        tables.append(branch)
        return factor_entries(prob, branch, recs)

    def counted_raise(self, j, *chain):
        raises.append(j)
        return raise_(self, j, *chain)
    monkeypatch.setattr(principal, "ladder_records", counted_records)
    monkeypatch.setattr(principal, "factor_entries", counted_entries)
    monkeypatch.setattr(principal.Ladders, "_raise", counted_raise)

    code, out, _ = _run(["verify", "--family", "jacobi:2,3", "--levels", "8"])
    assert code == 0 and json.loads(out)["all_pass"] is True
    # every check reads its fields off the records: no table of Fractions
    assert sorted(records) == [("minus", 9), ("plus", 9)]
    assert tables == []
    assert raises == list(range(1, 10))

    # the top-down form reads the norm from the records, raising nothing;
    # no form builds a table of Fractions
    records.clear()
    tables.clear()
    raises.clear()
    code, out, _ = _run(["eigenfunction", "--family", "jacobi:2,3",
                         "--l", "12", "--m", "3", "--form", "topdown"])
    assert code == 0 and json.loads(out)["proportional_to_alternate"]
    assert records == [("minus", 12)] and tables == []
    assert raises == list(range(1, 13))

    # factorize prints its tables straight from the records, and the
    # numeric commands read one level's E_l or W_l off its record
    for argv in (["factorize", "--family", "jacobi:2,3", "--levels", "400",
                  "--branch", "both"],
                 ["numeric", "residual", "--family", "jacobi:2,3", "--l", "5",
                  "--nodes", "200"],
                 ["numeric", "potentials", "--family", "jacobi:2,3", "--l",
                  "5", "--m", "2", "--nodes", "20"]):
        records.clear()
        code, out, _ = _run(argv)
        assert code == 0 and out and tables == [], argv
        assert sorted(records) == ([("minus", 400), ("plus", 400)]
                                   if argv[0] == "factorize"
                                   else [("minus", 5)])


def test_no_program_path_builds_a_quasi_function(monkeypatch):
    # QuasiFunction is the tests' reference only, and FactorEntry is the
    # library's Fraction view of a record: with both constructors refusing,
    # the suite (collapse_check on hermite included), every eigenfunction
    # form at m < 0, m = 0 and m > 0 (constant p too), the classify round
    # trip, the numeric residual and potentials, and factorize (its partial
    # table too, which exits 2) still run and print the same
    argv = [["verify", "--family", spec, "--levels", "4"]
            for spec in ("legendre", "jacobi:2,3", "laguerre:1", "hermite",
                         "hypergeom:1/3,1/5,7/2", "confluent:3")]
    argv += [["eigenfunction", "--family", spec, "--l", "5", "--m", str(m),
              "--form", form]
             for spec in ("jacobi:2,3", "hermite") for m in (-3, 0, 3)
             for form in ("ladder", "rodrigues", "topdown", "bottomup")]
    argv.append(["classify", "--family", "legendre", "--l", "3", "--m", "1"])
    argv += [["numeric", "residual", "--family", "jacobi:2,3", "--l", "5",
              "--form", "y", "--nodes", "200"],
             ["numeric", "potentials", "--family", "jacobi:2,3", "--l", "5",
              "--m", "2", "--nodes", "20"],
             ["factorize", "--family", "jacobi:2,3", "--levels", "400",
              "--branch", "both"]]
    partial = ["factorize", "--p", "1", "--q", "0,1", "--levels", "5",
               "--branch", "plus"]
    argv.append(partial)
    before = [_run(a) for a in argv]
    assert not hasattr(susyfactor, "QuasiFunction")

    def refuse(self, *args, **kwargs):
        raise AssertionError(
            f"a program path built a {type(self).__name__}")
    for cls in (QuasiFunction, principal.FactorEntry):
        monkeypatch.setattr(cls, "__init__", refuse)
    with pytest.raises(AssertionError):
        QuasiFunction(Poly.const(1))
    with pytest.raises(AssertionError):
        principal.factor_table(Problem(Poly([1]), Poly([0, -2])),
                               "minus", 0)
    for a, (code, out, _) in zip(argv, before):
        want = 2 if a is partial else 0
        assert code == want and out, a
        assert _run(a)[:2] == (want, out), a


def test_collapse_shares_the_context(monkeypatch):
    # constant p: the suite's tables reach collapse_check's depth at once
    tables = []
    ladder_records = principal.ladder_records

    def counted_records(prob, branch, max_level):
        tables.append((branch, max_level))
        return ladder_records(prob, branch, max_level)
    monkeypatch.setattr(principal, "ladder_records", counted_records)
    code, out, _ = _run(["verify", "--family", "hermite", "--levels", "2"])
    checks = json.loads(out)["checks"]
    assert code == 0 and checks["collapse_2_1"] is True
    assert sorted(tables) == [("minus", degenerate.COLLAPSE_DEPTH),
                              ("plus", degenerate.COLLAPSE_DEPTH)]


def test_top_down_norm_breakdown_without_raising():
    # p = x^2 + x, q = -3x: E_1 = 0, and no raise is needed to see it
    prob = Problem(Poly([0, 1, 1]), Poly([0, -3]))
    with pytest.raises(principal.Breakdown) as exc:
        associated.assoc_top_down(prob, 1, 0)
    assert exc.value.level == 1
