"""The verify suite in the p^k gauge against a QuasiFunction reference.

``QFOp`` is the operator algebra with one QuasiFunction c p^s w^e per
coefficient, the representation the package used before every operator
became p^k times a polynomial operator.  ``_qf_suite`` is a copy of the
suite built on it: the ladders, their products, p H^a_m and the associated
eigen-checks on Phi_lm = p^(m/2) C itself.  Its verdicts, each whether
a residual vanishes, and the first Breakdown or DegreeError, must match
the engine's.
"""

from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st

from susyfactor.core import Poly, QuasiFunction
from susyfactor import associated, cli, degenerate, principal

from oracles import poly_ratio, taylor_data
from test_ladders import _outcome, _passes, problems


def _qf(f) -> QuasiFunction:
    if isinstance(f, QuasiFunction):
        return f
    return QuasiFunction(f if isinstance(f, Poly) else Poly.const(f))


class QFOp:
    """sum_j coeffs[j] (d/dx)^j with QuasiFunction coefficients."""

    def __init__(self, coeffs=()):
        cs = [_qf(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def of(cls, op, prob):
        """The engine's p^k sum c_j d^j, one coefficient c_j p^k at a time."""
        return cls([QuasiFunction(c, op.k).canonicalize(prob)
                    for c in op.coeffs])

    @property
    def order(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, j):
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return QuasiFunction.zero()

    def add(self, other, prob):
        n = max(len(self.coeffs), len(other.coeffs))
        return QFOp([self.coeff(j).add(other.coeff(j), prob)
                     for j in range(n)])

    def sub(self, other, prob):
        return self.add(other.scale(-1), prob)

    def scale(self, s):
        return QFOp([c.scale(s) for c in self.coeffs])

    def lmul(self, f, prob):
        return QFOp([f]).compose(self, prob)

    def compose(self, other, prob):
        out = {}
        for j, aj in enumerate(self.coeffs):
            if aj.is_zero():
                continue
            for k, bk in enumerate(other.coeffs):
                if bk.is_zero():
                    continue
                d = bk
                for i in range(j + 1):
                    term = aj.mul(d, prob).scale(comb(j, i))
                    n = j - i + k
                    out[n] = out[n].add(term, prob) if n in out else term
                    if i < j:
                        d = d.derive(prob)
        return QFOp([out.get(n, QuasiFunction.zero())
                     for n in range(max(out, default=-1) + 1)])

    def apply(self, f, prob):
        out, d = QuasiFunction.zero(), _qf(f)
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out.add(c.mul(d, prob), prob)
            if j < self.order:
                d = d.derive(prob)
        return out

    def eigen_residual(self, f, lam, prob):
        return self.apply(f, prob).sub(_qf(f).scale(lam), prob)

    def conjugate(self, s, e, prob):
        """(p^s w^e) self (p^s w^e)^-1: d/dx -> d/dx - g'/g, expanded by
        composing powers of the shifted derivative."""
        pprime = prob.p.derivative()
        mu = QuasiFunction(Fraction(s) * pprime
                           + Fraction(e) * (prob.q - pprime), -1, 0)
        shifted_d = QFOp([mu.canonicalize(prob).scale(-1), 1])
        out, power = QFOp(), QFOp([1])
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out.add(power.lmul(c, prob), prob)
            if j < self.order:
                power = power.compose(shifted_d, prob)
        return out


def _mul(f) -> QFOp:
    return QFOp([f])


def _hamiltonian(prob) -> QFOp:
    return QFOp([0, -prob.q, -prob.p])


def _assoc_ladders(prob, m):
    if m < 0:
        lo, hi = _assoc_ladders(prob, -m)
        return hi.scale(-1), lo.scale(-1)
    half = Fraction(1, 2)
    shift = QuasiFunction(prob.p.derivative() * Fraction(-m, 2), -half)
    w0a2 = QuasiFunction(prob.p.derivative() * half - prob.q, -half)
    lower = QFOp([w0a2.add(shift, prob), QuasiFunction(Poly.const(-1), half)])
    raise_ = QFOp([shift, QuasiFunction(Poly.const(1), half)])
    return lower, raise_


def _assoc_hamiltonian(prob, m):
    pprime = prob.p.derivative()
    num = Fraction(m, 2) \
        * (prob.p * taylor_data(prob).ppp + (prob.q - pprime) * pprime) \
        + Fraction(m * m, 4) * pprime * pprime
    return QFOp([QuasiFunction(num, -1).canonicalize(prob), -prob.q,
                 -prob.p])


def _pair(prob, lad, branch, l):
    wl, w0 = _qf(lad.wl(branch, l)), _qf(lad.w0)
    pd = QFOp([0, prob.p])
    lower = pd.add(_mul(wl).sub(_mul(w0), prob), prob)
    raise_ = pd.scale(-1).add(_mul(wl).add(_mul(w0), prob), prob)
    return lower, raise_


def _entry(lad, branch, l):
    """Level l of the branch as a FactorEntry: the last of factor_table."""
    return principal.factor_table(lad.prob, branch, l)[-1]


def _ab(prob, lad, branch, l):
    lower, raise_ = _pair(prob, lad, branch, l)
    return lower.compose(raise_, prob)


def _ba(prob, lad, branch, l):
    lower, raise_ = _pair(prob, lad, branch, l)
    return raise_.compose(lower, prob)


def _shape(prob, lad, branch, l):
    delta = _entry(lad, branch, l).delta
    if branch == "minus":
        lhs, rhs = _ab(prob, lad, branch, l), _ba(prob, lad, branch, l - 1)
    else:
        lhs, rhs = _ba(prob, lad, branch, l), _ab(prob, lad, branch, l - 1)
    return lhs.sub(rhs, prob).sub(_mul(delta), prob)


def _equivalent_forms(prob, lad, l):
    t = taylor_data(prob)
    H0 = _hamiltonian(prob)
    ent_minus, ent_plus = _entry(lad, "minus", l), _entry(lad, "plus", l)
    wl = lad.wl("minus", l)
    delta_w = wl - lad.w0
    Hl = QFOp([0, 2 * wl - prob.p.derivative(), -prob.p])
    first_order = QFOp([0, delta_w * (-2)])
    a_ok = H0.sub(Hl.add(first_order, prob), prob).is_zero()
    lam_plus = ent_minus.lam + t.ppp - t.qp
    phi = _qf(lad.phi(l))
    over_p = _ab(prob, lad, "minus", 0).lmul(
        QuasiFunction(Poly.const(1), -1, 0), prob)
    polynomial = all(c.s >= 0 and c.s.denominator == 1
                     for c in over_p.coeffs)
    b_ok = polynomial \
        and over_p.eigen_residual(phi, lam_plus, prob).is_zero()
    c_ok = ent_plus.lam - ent_minus.lam == t.ppp - t.qp
    exps = principal._solve_weight_exponents(prob, -delta_w)
    if exps is None:
        d_ok = False
    else:
        s, e = exps
        lhs = H0.conjugate(-s, -e, prob)
        rhs = Hl.add(_mul(ent_minus.lam), prob).sub(
            _mul(QuasiFunction(Poly.const(ent_minus.E), -1, 0)), prob)
        d_ok = lhs.sub(rhs, prob).is_zero()
    return a_ok and b_ok and c_ok and d_ok


def _standard_hermitian(prob, lad, l):
    ent = _entry(lad, "minus", l)
    lhs = _ba(prob, lad, "minus", l).conjugate(0, Fraction(1, 2), prob)
    inner = _hamiltonian(prob).conjugate(Fraction(1, 4), Fraction(1, 2), prob)
    rhs = inner.lmul(_qf(prob.p), prob).conjugate(Fraction(-1, 4), 0, prob)
    rhs = rhs.sub(_mul(prob.p * ent.lam), prob).add(_mul(ent.E), prob)
    return lhs.sub(rhs, prob).is_zero()


def _assoc_shape(prob, n):
    lo_prev, hi_prev = _assoc_ladders(prob, n - 1)
    lo, hi = _assoc_ladders(prob, n)
    return hi_prev.compose(lo_prev, prob).sub(lo.compose(hi, prob), prob).sub(
        _mul(associated.assoc_delta_plus(prob, n)), prob)


def _phi_lm(prob, lad, l, m):
    f = associated.assoc_bottom_up(prob, l, m, lad)
    return QuasiFunction(f.coeff(0), f.k)


def _verify_associated(prob, lad, l, m):
    lam = associated.assoc_lambda(prob, l, m)
    ham = _assoc_hamiltonian(prob, m)
    lower, raise_ = _assoc_ladders(prob, m)
    a_ok = lower.compose(raise_, prob).sub(ham, prob).is_zero()
    phi = _phi_lm(prob, lad, l, m)
    b_ok = ham.eigen_residual(phi, lam, prob).is_zero()
    if m == 0:
        c_ok, phi_neg = b_ok, phi
    else:
        nlo, nhi = _assoc_ladders(prob, -m)
        phi_neg = _phi_lm(prob, lad, l, -m)
        c_ok = nhi.compose(nlo, prob).eigen_residual(
            phi_neg, lam, prob).is_zero()
    d_ok = phi_neg.sub(phi.scale(-1 if m % 2 else 1), prob).is_zero()
    return a_ok and b_ok and c_ok and d_ok


def _pHm(prob, lad, l, m):
    t = taylor_data(prob)
    if m == 0:
        C = Fraction(0)
    else:
        cm = ((l - 1) * t.ppp + t.qp) / 2
        if cm == 0:
            raise principal.Breakdown(l)
        C = Fraction(m, 4) * (t.pp0 * t.qp - t.ppp * t.q0) / cm
    ent = _entry(lad, "minus", l)
    E_lm = ent.E + C * (C + 2 * ent.beta) \
        + m * (t.qp + Fraction(m - 2, 2) * t.ppp) * t.p0 \
        - Fraction(m, 2) * (t.q0 + Fraction(m - 2, 2) * t.pp0) \
        * t.pp0
    lam = associated.assoc_lambda(prob, l, m)
    lhs = _assoc_hamiltonian(prob, m).lmul(_qf(prob.p), prob)
    lhs = lhs.sub(_mul(prob.p * lam), prob).add(_mul(E_lm), prob)
    lower, raise_ = _pair(prob, lad, "minus", l)
    rhs = _ba(prob, lad, "minus", l).add(
        lower.add(raise_, prob).scale(C), prob).add(_mul(C * C), prob)
    return lhs.sub(rhs, prob).is_zero()


def _collapse(prob, lad, l, m, depth=degenerate.COLLAPSE_DEPTH):
    lam_ok = associated.assoc_lambda(prob, l, m) == _entry(
        lad, "minus", l - m).lam
    phi_lm = _phi_lm(prob, lad, l, m)
    fun_ok = poly_ratio(phi_lm.c, lad.phi(l - m)) is not None
    qp = taylor_data(prob).qp
    delta_ok = all(associated.assoc_delta_plus(prob, n) == -qp
                   for n in range(1, depth + 1))
    base, *pairs = [_pair(prob, lad, "minus", j) for j in range(depth + 1)]
    ladder_ok = all(lo.sub(base[0], prob).is_zero()
                    and hi.sub(base[1], prob).is_zero() for lo, hi in pairs)
    return lam_ok and fun_ok and delta_ok and ladder_ok


def _qf_suite(prob, levels, perturb):
    """cli._verify_suite's checks, in its order, on QuasiFunction."""
    t = taylor_data(prob)
    checks = {}
    collapses = degenerate.detect(prob).is_degenerate
    top = max(levels + 1, degenerate.COLLAPSE_DEPTH) if collapses \
        else levels + 1
    lad = principal.Ladders(prob, top)
    minus, plus = (principal.factor_table(prob, branch, top)
                   for branch in ("minus", "plus"))

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
            and plus[l + 1].lam - minus[l].lam == t.ppp - t.qp)
        checks[f"three_term_{l}"] = _passes(
            principal.three_term_check(prob, l, lad))
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
def test_conjugated_hamiltonian_matches_the_reference(prob, l, shift):
    """p^(-k/2) H^a_m p^(k/2) acting on C = Phi_l^(m): for k = m (the
    gauge) and k = m -+ 1 the engine's operator is the reference's, and so
    is its verdict on C; in the gauge it is a polynomial operator."""
    lad = principal.Ladders(prob, l)
    try:
        lad.phi(l)
    except (principal.Breakdown, principal.DegreeError):
        return
    for m in range(l + 1):
        s = Fraction(-(m + shift), 2)
        op = associated.assoc_hamiltonian(prob, m).conjugate(s, 0, prob)
        ref = _assoc_hamiltonian(prob, m).conjugate(s, 0, prob)
        c = associated.assoc_bottom_up(prob, l, m, lad).coeff(0)
        lam = associated.assoc_lambda(prob, l, m)
        assert QFOp.of(op, prob).sub(ref, prob).is_zero()
        res = op.eigen_residual(c, lam, prob)
        assert QuasiFunction(res.coeff(0), res.k).sub(
            ref.eigen_residual(c, lam, prob), prob).is_zero()
        if shift == 0:
            assert op.k.denominator == 1 and op.k >= 0
            assert res.is_zero()
