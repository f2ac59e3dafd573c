"""Associated operators and eigenfunctions built by iterated factorization.

The associated hierarchy replaces the kinetic piece -(p d/dx)^2 by
-(sqrt(p) d/dx)^2, producing ladder operators with half-integer powers of
p, the operators H^a_m = h_m h_m^dagger, eigenvalues lambda_lm, and the
eigenfunctions Phi_lm reachable bottom-up (differentiate Phi_l) or
top-down (generalized Rodrigues formula).  Negative association levels
ride on the sign relations that identify their ladders with the positive
ones.

Conventions mirror the principal module: ladders are unnormalized, all
proportionality statements are cross-multiplied, and the normsq prefactor
(a product of lambda_lj) is built apart, by assoc_normsq, where it is read.
Every Phi_lm is the function p^s c, with c a Poly, held as the DiffOp
p^(h/2) c (h = 2s) that the diffop module makes of every function;
proportional compares two of them in their reduced forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm, prod

from .core import (Poly, Problem, int_first_order, int_mul_add,
                   rational_sqrt)
from .diffop import DiffOp, hamiltonian
from .principal import (Breakdown, Ladders, Pair, _own, _plus,
                        principal_eigenfunction)


class RangeError(ValueError):
    """Association level outside |m| <= l."""


def _check_range(l: int, m: int) -> None:
    if l < 0:
        raise RangeError(f"level must be >= 0, got l = {l}")
    if abs(m) > l:
        raise RangeError(f"|m| = {abs(m)} exceeds l = {l}")


class ClassifyError(ValueError):
    """No integer association level fits the presented operator."""


def proportional(f: DiffOp, g: DiffOp, prob: Problem) -> Fraction | None:
    """Nonzero rational ratio f/g of two functions p^s c, or None if they
    are not proportional.

    Both sides are reduced, so equal functions have equal s; the
    polynomials are then cross-multiplied by their leading coefficients.
    """
    a, b = f.reduced(prob), g.reduced(prob)
    if a.is_zero() or b.is_zero() or a.h != b.h:
        return None
    (ca,), (cb,) = a.coeffs, b.coeffs
    ka, kb = ca.coeffs[-1], cb.coeffs[-1]
    return ka / kb if ca * kb == cb * ka else None


def assoc_ladders(prob: Problem, m: int) -> tuple[DiffOp, DiffOp]:
    """(h_m, h_m^dagger); negative m gives the descending pair.

    h_0 = -sqrt(p) d/dx + (p'/2 - q)/sqrt(p), h_0^dagger = sqrt(p) d/dx;
    level shift by -m (sqrt p)' = -m p'/(2 sqrt p).  Both are p^(-1/2)
    times a polynomial operator, built over 2D from prob.taylor: 2D p =
    P2 x^2 + 2 P1 x + 2 P0, D p' = P2 x + P1 and D q = Q1 x + Q0.  For m < 0
    the ladders are (-h_|m|^dagger, -h_|m|).
    """
    if m < 0:
        lo, hi = assoc_ladders(prob, -m)
        return hi.scale(-1), lo.scale(-1)
    D, P2, Q1, P1, Q0, P0 = prob.taylor
    # 2D ((1 - m) p'/2 - q) and 2D (-m p'/2)
    low0 = [(1 - m) * P1 - 2 * Q0, (1 - m) * P2 - 2 * Q1]
    up0 = [-m * P1, -m * P2]
    lower = DiffOp._make([low0, [-2 * P0, -2 * P1, -P2]], 2 * D, -1)
    raise_ = DiffOp._make([up0, [2 * P0, 2 * P1, P2]], 2 * D, -1)
    return lower, raise_


def assoc_hamiltonian(prob: Problem, m: int) -> DiffOp:
    """H^a_m expanded: -p d^2 - q d + [(m/2)p''p + (m/2)(q-p')p' + (m^2/4)p'^2]/p.

    Kept as p^-1 times a polynomial operator, over (2D)^2 from prob.taylor:
    with p2 = 2D p, dp = D p' and dq = D q (assoc_ladders), its rows are
    m (P2 p2 + (2 (dq - dp) + m dp) dp), -2 dq p2 and -p2^2."""
    m = abs(m)
    D, P2, Q1, P1, Q0, P0 = prob.taylor
    p2, dp = [2 * P0, 2 * P1, P2], [P1, P2]
    u = [m * (2 * (Q0 - P1) + m * P1), m * (2 * (Q1 - P2) + m * P2)]
    num = int_mul_add([m * P2 * c for c in p2], u, dp)
    return DiffOp._make([num, int_mul_add([], [-2 * Q0, -2 * Q1], p2),
                         int_mul_add([], [-c for c in p2], p2)],
                        4 * D * D, -2)


def _lambda_numerator(prob: Problem, l: int, m: int) -> int:
    """lambda_lm times 2D, over prob.taylor, for m >= 0."""
    _, P2, Q1, *_ = prob.taylor
    return -2 * (l - m) * Q1 - (l * (l - 1) - m * (m - 1)) * P2


def assoc_lambda(prob: Problem, l: int, m: int) -> Fraction:
    return Fraction(_lambda_numerator(prob, l, abs(m)), 2 * prob.taylor[0])


def assoc_delta_plus(prob: Problem, n: int) -> Fraction:
    """Delta^+_n = -q' - (n-1) p'', over D (prob.taylor)."""
    D, P2, Q1, *_ = prob.taylor
    return Fraction(-Q1 - (n - 1) * P2, D)


def assoc_normsq(prob: Problem, l: int, m: int,
                 lad: Ladders | None = None) -> Fraction:
    """normsq of Phi_lm: prod E_j over j = 1..l times prod lambda_lj over
    j < |m|.

    The second product runs on integers, the numerators of lambda_lj over
    (2D)^|m| (prob.taylor).
    """
    _check_range(l, m)
    num = prod(_lambda_numerator(prob, l, j) for j in range(abs(m)))
    return _own(prob, l, lad).normsq(l) * Fraction(
        num, (2 * prob.taylor[0]) ** abs(m))


def assoc_bottom_up(prob: Problem, l: int, m: int,
                    lad: Ladders | None = None) -> DiffOp:
    """Phi_lm = p^(|m|/2) (d/dx)^|m| Phi_l, times (-1)^m for m < 0.

    The |m|-th derivative is one integer step, x^k -> k!/(k - |m|)!
    x^(k - |m|) on Phi_l's numerators, reduced once, and that Poly is the
    function's coeff(0).  Raising Phi_l checks its degree and its norm: a
    vanishing E_j is Breakdown(j)."""
    _check_range(l, m)
    c = principal_eigenfunction(prob, l, lad)[0]
    am = abs(m)
    if am:
        sign = -1 if m < 0 and am % 2 else 1
        c = Poly._make([sign * perm(k, am) * n
                        for k, n in enumerate(c.num)][am:], c.den)
    return DiffOp._function(c, am)


def assoc_top_down(prob: Problem, l: int, m: int,
                   lad: Ladders | None = None) -> DiffOp:
    """(-1)^(l-|m|) w^-1 p^(-|m|/2) (d/dx)^(l-|m|) (w p^l), sign-flipped
    for negative m.

    Nikiforov and Uvarov's Rodrigues recurrence: with w'/w = (q - p')/p,
    (d/dx)^j (w p^l) = c_j w p^(l-j), where c_0 = 1 and

        c_{j+1} = p c_j' + ((l - j) p' + q - p') c_j.

    It runs on the integer numerators of (2D)^j c_j (prob.taylor), as
    2D p = P2 x^2 + 2 P1 x + 2 P0 and 2D ((l - j - 1) p' + q) are integer
    polynomials, and Poly._make reduces c_{l-|m|} once.  The full factors of
    p in it go into the exponent once, at the end.  Phi_l is never raised,
    but its norm is read: a vanishing E_j is Breakdown(j).
    """
    _check_range(l, m)
    am = abs(m)
    D, P2, Q1, P1, Q0, P0 = prob.taylor
    num = [1]
    for j in range(l - am):
        r = l - j - 1
        num = int_first_order(num, (2 * P0, 2 * P1, P2),
                              (2 * (r * P1 + Q0), 2 * (r * P2 + Q1)))
    # (-1)^(l-|m|), times (-1)^m for negative m: (-1)^l
    if (l if m < 0 else l - am) % 2:
        num = [-n for n in num]
    # w^-1 cancels the weight.  With no derivative taken, c = 1 over p^|m|
    # stays as it is: for constant p, reducing would fold p^|m| into c.
    f = DiffOp._function(Poly._make(num, (2 * D) ** (l - am)), 2 * am)
    if l > am:
        f = f.reduced(prob)
    _own(prob, l, lad).normsq(l)
    return f._at(f.h - am)


def _bottom_up(lad: Ladders, l: int, m: int) -> DiffOp:
    """assoc_bottom_up, kept in the context per (l, m)."""
    return lad.memo(("bottom-up", l, m),
                    lambda: assoc_bottom_up(lad.prob, l, m, lad))


def _ladders(lad: Ladders, m: int) -> tuple[DiffOp, DiffOp]:
    return lad.memo(("h", m), lambda: assoc_ladders(lad.prob, m))


def _hamiltonian(lad: Ladders, m: int) -> DiffOp:
    return lad.memo(("H^a", m), lambda: assoc_hamiltonian(lad.prob, m))


def _hh(lad: Ladders, m: int) -> DiffOp:
    """h_m h_m^dagger."""
    lower, raise_ = _ladders(lad, m)
    return lad.memo(("h h+", m), lambda: lower.compose(raise_, lad.prob))


def verify_associated(prob: Problem, l: int, m: int,
                      lad: Ladders | None = None) -> dict[str, DiffOp]:
    """Residuals at level (l, m), each zero exactly when its statement
    holds; a, c and e are operator identities, kept in the context per |m|.

    a: h_m h_m^dagger equals the expanded H^a_m.
    b: H^a_m Phi_lm = lambda_lm Phi_lm, on C = Phi_l^(|m|), on which H^a_m
       conjugated by p^(-|m|/2) acts as a polynomial operator.
    c: h_{-m}^dagger h_{-m} = H^a_m for the descending ladders (a at m = 0).
    d: Phi_{l,-m} = (-1)^m Phi_{lm}.
    e: the momentum map p^(-m/2) h_m^dagger p^(m/2) = sqrt(p) d/dx, its
       right side built from p alone: it fixes the ladders' scale.
    """
    lad = _own(prob, l, lad)
    am = abs(m)
    lam = _lambda_numerator(prob, l, am), 2 * prob.taylor[0]
    ham = _hamiltonian(lad, am)
    (_, raise_), (nlo, nhi) = _ladders(lad, am), _ladders(lad, -am)
    a = lad.memo(("check a", am), lambda: _hh(lad, am).sub(ham, prob))
    neg = lad.memo(("check a", -am), lambda: nhi.compose(nlo, prob).sub(
        ham, prob)) if am else a
    e = lad.memo(("momentum", am), lambda: raise_.conjugate(
        Fraction(-am, 2), 0, prob).sub(DiffOp([Poly(), prob.p],
                                              Fraction(-1, 2)), prob))

    phi = _bottom_up(lad, l, am)
    b = lad.memo(("H^a on C", am), lambda: ham.conjugate(
        Fraction(-am, 2), 0, prob)).eigen_residual(phi.coeff(0), lam, prob)
    d = _bottom_up(lad, l, -am).add(phi, prob, 1 if am % 2 else -1)
    return {"operator_expansion": a, "eigen_equation": b,
            "negative_level": neg, "sign_relation": d, "momentum_map": e}


def assoc_shape_invariance(prob: Problem, n: int,
                           lad: Ladders | None = None) -> DiffOp:
    """Residual of h_{n-1}^dagger h_{n-1} - h_n h_n^dagger - Delta^+_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lad = _own(prob, 0, lad)
    lo_prev, hi_prev = _ladders(lad, n - 1)
    lhs = hi_prev.compose(lo_prev, prob)
    rhs = _hh(lad, n)
    return lhs.sub(rhs, prob).sub(DiffOp([assoc_delta_plus(prob, n)]), prob)


def assoc_three_term(prob: Problem, l: int, m: int) -> dict[str, DiffOp]:
    """Residuals of the two three-term recurrences across (m-1, m, m+1).

    In the unnormalized convention both read (for 1 <= m < l)

        Phi_{l,m+1} + [(m-1)p' + q]/sqrt(p) Phi_lm
                    + lambda_{l,m-1} Phi_{l,m-1} = 0
        Phi_{l,m+1} - [2 sqrt(p) d/dx + (q - p')/sqrt(p)] Phi_lm
                    - lambda_{l,m-1} Phi_{l,m-1} = 0

    With Phi_lm = p^(m/2) C_m, C_m = Phi_l^(m), the left sides are the
    functions p^((m-1)/2) c, returned as DiffOp([c], (m-1)/2), with

        p C_{m+1} + ((m-1)p' + q) C_m + lambda_{l,m-1} C_{m-1}
        p C_{m+1} - 2p C_m' - ((m-1)p' + q) C_m - lambda_{l,m-1} C_{m-1}.

    They rest on the lowering identity h_{m-1} Phi_lm =
    lambda_{l,m-1} Phi_{l,m-1}, which needs m >= 1; at the m = 0 boundary
    the hierarchy crosses zero through the sign relation only, so both
    residuals reduce to Phi_{l,1} + Phi_{l,-1}, with Phi_{l,-1} = -Phi_{l1}.
    """
    if not 0 <= m < l:
        raise RangeError(f"need 0 <= m < l, got m={m}, l={l}")
    lad = Ladders(prob, l)
    if m == 0:
        res = assoc_bottom_up(prob, l, 1, lad).add(
            assoc_bottom_up(prob, l, -1, lad), prob)
        return {"multiplicative": res, "differential": res}
    up, c, dn = (assoc_bottom_up(prob, l, j, lad).coeff(0)
                 for j in (m + 1, m, m - 1))
    dn = dn * assoc_lambda(prob, l, m - 1)
    mid = ((m - 1) * prob.p.derivative() + prob.q) * c
    s = Fraction(m - 1, 2)
    return {"multiplicative": DiffOp([prob.p * up + mid + dn], s),
            "differential": DiffOp([prob.p * (up - 2 * c.derivative())
                                    - mid - dn], s)}


def principal_form_equivalence(prob: Problem, l: int,
                               m: int) -> dict[str, DiffOp]:
    """h_{2m} h_0^dagger is again a base-type operator; the residuals of
    its faces.

    a: h_{2m} h_0^dagger = -p d^2 - (q + m p') d.
    b: phi_lm = p^(-m/2) Phi_lm = Phi_l^(m) solves it with eigenvalue
       lambda_lm (eigen_equation), which equals the principal eigenvalue
       at level l - m of the substituted problem (p, q + m p')
       (substituted_eigenvalue).
    c: conjugating by p^((2m+1)/4) w^(1/2) supersymmetrizes it into
       (-sqrt(p) d/dx + W^a_m)(sqrt(p) d/dx + W^a_m) with
       W^a_m = -[(m - 1/2) p' + q]/(2 sqrt p).
    """
    _check_range(l, m)
    m = abs(m)
    pprime = prob.p.derivative()
    lower, _ = assoc_ladders(prob, 2 * m)
    _, raise0 = assoc_ladders(prob, 0)
    op = lower.compose(raise0, prob)
    target = DiffOp([Poly(), -(prob.q + m * pprime), -prob.p])

    lam = assoc_lambda(prob, l, m)
    eigen = op.eigen_residual(assoc_bottom_up(prob, l, m).coeff(0), lam,
                              prob)
    sub = Problem(prob.p, prob.q + m * pprime)
    shifted = DiffOp([Fraction(*Ladders(sub, l - m).fields("minus", l - m)[4])
                      - lam])

    s = Fraction(2 * m + 1, 4)
    conj = op.conjugate(s, Fraction(1, 2), prob)
    half = Fraction(1, 2)
    wam = ((m - half) * pprime + prob.q) * (-half)    # sqrt(p) W^a_m
    left = DiffOp([wam, -prob.p], -half)
    right = DiffOp([wam, prob.p], -half)
    return {"base_type_product": op.sub(target, prob),
            "eigen_equation": eigen, "substituted_eigenvalue": shifted,
            "supersymmetrized": conj.sub(left.compose(right, prob), prob)}


def standard_hermitian_relation(prob: Problem, l: int,
                                lad: Ladders | None = None) -> DiffOp:
    """Residual of the quarter-power bridge between the two factorized
    Hermitian forms:

    conjugating B_l A_l by w^(1/2) equals conjugating p * (p^(1/4) w^(1/2)
    conjugate of H0) by p^(-1/4), shifted by -p lambda_l + E_l.
    """
    lad = _own(prob, l, lad)
    _, _, _, (X, Xd), (L, Ld) = lad.fields("minus", l)
    lhs = lad.ba("minus", l).conjugate(0, Fraction(1, 2), prob)

    def conjugated_h0():
        inner = hamiltonian(prob).conjugate(Fraction(1, 4), Fraction(1, 2),
                                            prob)
        return inner._at(inner.h + 2).conjugate(Fraction(-1, 4), 0, prob)
    rhs = lad.memo("conjugated H0", conjugated_h0)
    p = prob.p
    rhs = rhs.sub(DiffOp._make([[L * n for n in p.num]], Ld * p.den, 0), prob)
    rhs = rhs.add(DiffOp._make([[X]], Xd, 0), prob)
    return lhs.sub(rhs, prob)


def _integer_roots(a: Fraction, b: Fraction, c: Fraction) -> list[int]:
    """Integer roots of a t^2 + b t + c = 0 (not identically zero), ascending."""
    if a == 0:
        return [] if b == 0 or (c / b).denominator != 1 else [int(-c / b)]
    root = rational_sqrt(b * b - 4 * a * c)
    if root is None:
        return []
    roots = {(-b - root) / (2 * a), (-b + root) / (2 * a)}
    return sorted(int(t) for t in roots if t.denominator == 1)


def classify_expanded(op: DiffOp, p: Poly
                      ) -> tuple[Problem, int, int, Fraction]:
    """Recover (q, m, l, lambda_lm) from an operator H^a_m - lambda_lm on p.

    The operator's p^k is a power of its own p, which its coefficients fix
    only up to sign (p^-1 (-p^2) is -p for p and for -p), so p is given
    and Problem(p, q) comes back.  Over p^-j, j >= 0, the second- and
    first-order coefficients must be -p^(j+1) and -q p^j.  The
    zeroth-order part is N/p with N = (m/2) U + (m^2/4) V - lambda p,
    U = p p'' + (q - p') p' and V = p'^2, so every coefficient of N's
    remainder mod p, and of N above x^deg p, is a quadratic in m that must
    vanish; m is the smallest non-negative integer root they share for
    which lambda = assoc_lambda(l, m), quadratic in l, has an integer root
    l >= m.  No bound applies to l or m.
    """
    if op.order != 2 or op.h & 1:
        raise ClassifyError("not a hypergeometric-like second-order operator")
    # op = p^-j (c0 + c1 d + c2 d^2)
    k = op.h >> 1
    j = max(-k, 0)
    c0, c1, c2 = (c * p ** (k + j) for c in op.coeffs)
    q, r1 = (-c1).divmod(p ** j)
    if c2 != -p ** (j + 1) or not r1.is_zero():
        raise ClassifyError("not a hypergeometric-like second-order operator")
    if q.degree > 1:
        raise ClassifyError("differential parts do not fit the p/q pattern")
    prob = Problem(p, q)
    # numerator of the zeroth-order part over p
    if j == 0:
        num = c0 * p
    else:
        num, r0 = c0.divmod(p ** (j - 1))
        if not r0.is_zero():
            raise ClassifyError("constant part is not a polynomial over p")
    if p.degree == 0:
        raise ClassifyError("degenerate: m unidentifiable")
    pprime = p.derivative()
    U = p * (2 * p[2]) + (q - pprime) * pprime
    V = pprime * pprime
    rn, ru, rv = (f.divmod(p)[1] for f in (num, U, V))
    d = p.degree
    # 4 x (coefficient of N) as (m^2, m, 1) coefficients
    conds = [(-rv[k], -2 * ru[k], 4 * rn[k]) for k in range(d)] \
        + [(-V[k], -2 * U[k], 4 * num[k])
           for k in range(d + 1, max(num.degree, d) + 1)]
    live = [cond for cond in conds if any(cond)]
    if not live:
        # p = a (x - r)^2 with q(r) = 0: H^a_m - H_0 is a constant
        raise ClassifyError("m unidentifiable")
    for m in _integer_roots(*live[0]):
        if m < 0 or any(a * m * m + b * m + c for a, b, c in live):
            continue
        lam = -(num - U * Fraction(m, 2) - V * Fraction(m * m, 4))[d] / p[d]
        # 2D (assoc_lambda(l, m) - lam) as a quadratic in l
        D, P2, Q1, *_ = prob.taylor
        a, b = -P2, P2 - 2 * Q1
        c = m * (2 * Q1 + (m - 1) * P2) - 2 * D * lam
        ls = [m] if not (a or b or c) else \
            [l for l in _integer_roots(a, b, c) if l >= m]
        if ls:
            return prob, m, ls[0], lam
    raise ClassifyError("no integer association level fits")


def pHm_factorization(prob: Problem, l: int, m: int, lad: Ladders | None = None
                      ) -> tuple[Fraction, Fraction, DiffOp]:
    """Factor p H^a_m through the shifted principal ladders.

    C_lm and E_lm close the balance

        p H^a_m - lambda_lm p + E_lm = (B_l + C)(A_l + C),

    returned together with the residual of that identity, left side minus
    right side.  Over prob.taylor, C_lm = |m| (P1 Q1 - P2 Q0)/(2D C_{l-1})
    with C_{l-1} = (l - 1) P2 + Q1, which is Breakdown(l) where it vanishes
    at m != 0.  A constant commutes with both ladders and A_l + B_l = 2 W_l,
    so the residual is p H^a_m - B_l A_l + (E_lm - C^2 - lambda_lm p -
    2 C W_l), with p H^a_m kept in the context per m and B_l A_l per l.
    The scalars run on integer pairs (n, d), d > 0, off the level's fields
    (principal.level_fields), and E_lm - C^2 - lambda_lm p - 2 C W_l is one
    integer polynomial over one denominator, reduced once.
    """
    _check_range(l, m)
    m = abs(m)
    D, P2, Q1, P1, Q0, P0 = prob.taylor
    if m == 0:
        C = (0, 1)
    else:
        cm = (l - 1) * P2 + Q1
        if cm == 0:
            raise Breakdown(l)
        sign = 1 if cm > 0 else -1     # keeps the denominator positive
        C = (sign * m * (P1 * Q1 - P2 * Q0), 2 * D * sign * cm)
    lad = _own(prob, l, lad)
    _, (bn, bd), _, E, _ = lad.fields("minus", l)
    # E_lm = E_l + C (C + 2 beta_l) + F/(2D)^2
    F = m * (2 * (2 * Q1 + (m - 2) * P2) * P0 - (2 * Q0 + (m - 2) * P1) * P1)
    E_lm = _plus(_plus(E, _times(C, _plus(C, (2 * bn, bd)))),
                 (F, 4 * D * D))
    ham = _hamiltonian(lad, m)
    p_ham = lad.memo(("p H^a", m), lambda: ham._at(ham.h + 2))
    # rest = S - lambda_lm p - 2 C W_l with S = E_lm - C^2 and lambda_lm =
    # lam/2D, over Sd (2D pd) (Cd wd)
    sn, sd = _plus(E_lm, _times((-C[0], C[1]), C))
    lam = _lambda_numerator(prob, l, m)
    p, w = prob.p, lad.wl("minus", l)
    fp, fw = 2 * D * p.den, C[1] * w.den
    row = [0] * max(len(p.num), len(w.num), 1)
    row[0] = sn * fp * fw
    for i, n in enumerate(p.num):
        row[i] -= n * lam * sd * fw
    for i, n in enumerate(w.num):
        row[i] -= 2 * C[0] * n * sd * fp
    rest = DiffOp._make([row], sd * fp * fw, 0)
    return Fraction(*C), Fraction(*E_lm), p_ham.sub(
        lad.ba("minus", l), prob).add(rest, prob)


def _times(x: Pair, y: Pair) -> Pair:
    """x y, unreduced."""
    return x[0] * y[0], x[1] * y[1]
