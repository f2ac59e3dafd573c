"""The verify suite in the polynomial gauge against the QuasiFunction path.

``_qf_suite`` is a copy of the suite with every operator kept on
QuasiFunction coefficients: the ladders, their products, p H^a_m and the
associated eigen-checks on Phi_lm = p^(m/2) C itself.  Its verdicts, and
the first Breakdown or DegreeError, must match the engine's.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from susyfactor.core import Poly, QuasiFunction
from susyfactor.diffop import DiffOp
from susyfactor import associated, cli, degenerate, principal

from test_ladders import _outcome, problems


def _qf(f) -> QuasiFunction:
    return f if isinstance(f, QuasiFunction) else QuasiFunction(f)


def _mul(f) -> DiffOp:
    return DiffOp.mul_by(_qf(f))


def _hamiltonian(prob) -> DiffOp:
    return DiffOp([QuasiFunction.zero(), _qf(-prob.q), _qf(-prob.p)])


def _pair(prob, lad, branch, l):
    wl, w0 = _qf(lad.wl(branch, l)), _qf(lad.w0)
    pd = DiffOp([QuasiFunction.zero(), _qf(prob.p)])
    lower = pd.add(_mul(wl).sub(_mul(w0), prob), prob)
    raise_ = pd.scale(-1).add(_mul(wl).add(_mul(w0), prob), prob)
    return lower, raise_


def _ab(prob, lad, branch, l):
    lower, raise_ = _pair(prob, lad, branch, l)
    return lower.compose(raise_, prob)


def _ba(prob, lad, branch, l):
    lower, raise_ = _pair(prob, lad, branch, l)
    return raise_.compose(lower, prob)


def _shape(prob, lad, branch, l):
    delta = lad.entry(branch, l).delta
    if branch == "minus":
        lhs, rhs = _ab(prob, lad, branch, l), _ba(prob, lad, branch, l - 1)
    else:
        lhs, rhs = _ba(prob, lad, branch, l), _ab(prob, lad, branch, l - 1)
    return lhs.sub(rhs, prob).sub(_mul(delta), prob)


def _equivalent_forms(prob, lad, l):
    H0 = _hamiltonian(prob)
    ent_minus, ent_plus = lad.entry("minus", l), lad.entry("plus", l)
    wl = lad.wl("minus", l)
    delta_w = wl - lad.w0
    Hl = DiffOp([QuasiFunction.zero(), _qf(2 * wl - prob.p.derivative()),
                 _qf(-prob.p)])
    first_order = DiffOp([QuasiFunction.zero(), _qf(delta_w * (-2))])
    a_ok = H0.equals(Hl.add(first_order, prob), prob)
    lam_plus = ent_minus.lam + prob.ppp - prob.qp
    phi = _qf(lad.phi(l))
    over_p = _ab(prob, lad, "minus", 0).lmul(
        QuasiFunction(Poly.const(1), -1, 0), prob)
    polynomial = all(c.s >= 0 and c.s.denominator == 1
                     for c in over_p.coeffs)
    b_ok = polynomial \
        and over_p.apply(phi, prob).eq(phi.scale(lam_plus), prob)
    c_ok = ent_plus.lam - ent_minus.lam == prob.ppp - prob.qp
    exps = principal._solve_weight_exponents(prob, -delta_w)
    if exps is None:
        d_ok = False
    else:
        s, e = exps
        lhs = H0.conjugate(-s, -e, prob)
        rhs = Hl.add(_mul(ent_minus.lam), prob).sub(
            _mul(QuasiFunction(Poly.const(ent_minus.E), -1, 0)), prob)
        d_ok = lhs.equals(rhs, prob)
    return a_ok and b_ok and c_ok and d_ok


def _standard_hermitian(prob, lad, l):
    ent = lad.entry("minus", l)
    lhs = _ba(prob, lad, "minus", l).conjugate(0, Fraction(1, 2), prob)
    inner = _hamiltonian(prob).conjugate(Fraction(1, 4), Fraction(1, 2), prob)
    rhs = inner.lmul(_qf(prob.p), prob).conjugate(Fraction(-1, 4), 0, prob)
    rhs = rhs.sub(_mul(prob.p * ent.lam), prob).add(_mul(ent.E), prob)
    return lhs.equals(rhs, prob)


def _assoc_shape(prob, n):
    lo_prev, hi_prev = associated.assoc_ladders(prob, n - 1)
    lo, hi = associated.assoc_ladders(prob, n)
    return hi_prev.compose(lo_prev, prob).sub(lo.compose(hi, prob), prob).sub(
        _mul(associated.assoc_delta_plus(prob, n)), prob)


def _phi_lm(prob, lad, l, m):
    return associated.assoc_bottom_up(prob, l, m, lad).value


def _verify_associated(prob, lad, l, m):
    lam = associated.assoc_lambda(prob, l, m)
    ham = associated.assoc_hamiltonian(prob, m)
    lower, raise_ = associated.assoc_ladders(prob, m)
    a_ok = lower.compose(raise_, prob).equals(ham, prob)
    phi = _phi_lm(prob, lad, l, m)
    b_ok = ham.apply(phi, prob).eq(phi.scale(lam), prob)
    if m == 0:
        c_ok, phi_neg = b_ok, phi
    else:
        nlo, nhi = associated.assoc_ladders(prob, -m)
        phi_neg = _phi_lm(prob, lad, l, -m)
        c_ok = nhi.compose(nlo, prob).apply(phi_neg, prob).eq(
            phi_neg.scale(lam), prob)
    d_ok = phi_neg.eq(phi.scale(-1 if m % 2 else 1), prob)
    return a_ok and b_ok and c_ok and d_ok


def _pHm(prob, lad, l, m):
    if m == 0:
        C = Fraction(0)
    else:
        cm = prob.c(l - 1)
        if cm == 0:
            raise principal.Breakdown(l)
        C = Fraction(m, 4) * (prob.pp0 * prob.qp - prob.ppp * prob.q0) / cm
    ent = lad.entry("minus", l)
    E_lm = ent.E + C * (C + 2 * ent.beta) \
        + m * (prob.qp + Fraction(m - 2, 2) * prob.ppp) * prob.p0 \
        - Fraction(m, 2) * (prob.q0 + Fraction(m - 2, 2) * prob.pp0) \
        * prob.pp0
    lam = associated.assoc_lambda(prob, l, m)
    lhs = associated.assoc_hamiltonian(prob, m).lmul(_qf(prob.p), prob)
    lhs = lhs.sub(_mul(prob.p * lam), prob).add(_mul(E_lm), prob)
    lower, raise_ = _pair(prob, lad, "minus", l)
    rhs = _ba(prob, lad, "minus", l).add(
        lower.add(raise_, prob).scale(C), prob).add(_mul(C * C), prob)
    return lhs.equals(rhs, prob)


def _collapse(prob, lad, l, m, depth=degenerate.COLLAPSE_DEPTH):
    lam_ok = associated.assoc_lambda(prob, l, m) == lad.entry(
        "minus", l - m).lam
    phi_lm = _phi_lm(prob, lad, l, m)
    fun_ok = _qf(phi_lm.c).proportional(_qf(lad.phi(l - m)), prob) \
        is not None
    delta_ok = all(associated.assoc_delta_plus(prob, n) == -prob.qp
                   for n in range(1, depth + 1))
    base, *pairs = [_pair(prob, lad, "minus", j) for j in range(depth + 1)]
    ladder_ok = all(lo.equals(base[0], prob) and hi.equals(base[1], prob)
                    for lo, hi in pairs)
    return lam_ok and fun_ok and delta_ok and ladder_ok


def _qf_suite(prob, levels, perturb):
    """cli._verify_suite's checks, in its order, on QuasiFunction."""
    checks = {}
    collapses = degenerate.detect(prob).is_degenerate
    top = max(levels + 1, degenerate.COLLAPSE_DEPTH) if collapses \
        else levels + 1
    lad = principal.Ladders(prob, top)
    minus, plus = lad.table("minus"), lad.table("plus")

    def sic(branch, l):
        return _shape(prob, lad, branch, l).add(_mul(perturb), prob).is_zero()

    for l in range(levels + 1):
        if l >= 1:
            checks[f"shape_invariance_minus_{l}"] = sic("minus", l)
        checks[f"shape_invariance_plus_{l}"] = sic("plus", l)
        checks[f"symmetry_{l}"] = (
            plus[l + 1].alpha == -minus[l + 1].alpha
            and plus[l + 1].beta == -minus[l + 1].beta
            and plus[l + 1].E == minus[l + 1].E
            and plus[l + 1].lam - minus[l].lam == prob.ppp - prob.qp)
        r1, r2 = principal.three_term_check(prob, l, lad)
        checks[f"three_term_{l}"] = r1.is_zero() and r2.is_zero()
        checks[f"equivalent_forms_{l}"] = _equivalent_forms(prob, lad, l)
        if l <= 4:
            checks[f"standard_hermitian_{l}"] = \
                _standard_hermitian(prob, lad, l)
        checks[f"assoc_shape_invariance_{l + 1}"] = \
            _assoc_shape(prob, l + 1).is_zero()
        for m in range(l + 1):
            checks[f"associated_{l}_{m}"] = _verify_associated(prob, lad, l, m)
            checks[f"pHm_{l}_{m}"] = _pHm(prob, lad, l, m)
    if collapses:
        for l in range(levels + 1):
            for m in range(l + 1):
                checks[f"collapse_{l}_{m}"] = _collapse(prob, lad, l, m)
    return checks


@given(problems(), st.integers(0, 4), st.sampled_from([0, 1]))
@settings(max_examples=100, deadline=None)
def test_polynomial_gauge_matches_quasi_function_path(prob, levels, perturb):
    perturb = Fraction(perturb)
    assert _outcome(cli._verify_suite, prob, levels, perturb) == \
        _outcome(_qf_suite, prob, levels, perturb)


@given(problems(), st.integers(0, 4), st.integers(-1, 1))
@settings(max_examples=40, deadline=None)
def test_ring_decision_keeps_the_eigen_verdict(prob, l, shift):
    """p^(-k/2) H^a_m p^(k/2) acting on C = Phi_l^(m): in the gauge
    (k = m) the polynomiality test passes, off it (k = m -+ 1) it may not,
    and either way the verdict is the one of the QuasiFunction operator on
    C lifted."""
    lad = principal.Ladders(prob, l)
    try:
        lad.phi(l)
    except (principal.Breakdown, principal.DegreeError):
        return
    for m in range(l + 1):
        k = m + shift
        op = associated.assoc_hamiltonian(prob, m).conjugate(
            Fraction(-k, 2), 0, prob)
        c = associated.assoc_bottom_up(prob, l, m, lad).value.c
        lam = associated.assoc_lambda(prob, l, m)
        gauged = op.as_poly(prob)
        assert gauged.is_eigen(c, lam, prob) == \
            op.apply(_qf(c), prob).eq(_qf(c).scale(lam), prob)
        if shift == 0:
            assert gauged.poly and gauged.is_eigen(c, lam, prob)
