"""Iterative factorization of -p d^2/dx^2 - q d/dx into first-order ladders.

Both the downward (minus) and upward (plus) branches are built level by
level from recurrences on the linear-superpotential data (alpha_l, beta_l),
together with eigenfunction generation by repeated raising, closed-form
cross-check tables, shape-invariance residuals, three-term recurrences and
the equivalent operator forms.

factor_table runs its recurrence on integers over the common denominator D
of the Taylor data: alpha_l = a_l/2D, beta_l = B_l/(2D a_l) and
E_l = X_l/(2D a_l)^2, where a_l, B_l and X_l = B_l^2 + a_l^2 Y_l follow
from one integer update per level.  direct_match_table evaluates the
closed forms at each level instead and shares no recurrence with it, so
the two remain independent checks of each other.

Ladders are kept unnormalized: the usual 1/sqrt(E_l) factors would leave
the rational field, so normsq = prod E_j is tracked separately and all
proportionality statements are cross-multiplied.  normsq is the squared
norm int w Phi_l^2 / int w only when p'' = 0; in general that ratio is
prod E_j (q' - p''/2)/(q' + (l - 1/2) p'').
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Poly, Problem
from .diffop import DiffOp, hamiltonian


class Breakdown(ArithmeticError):
    """The factorization degenerates here: a recurrence divisor vanished,
    or E_l, a factor of the level's normsq prod E_j, is zero.  Raised by
    factor_table, it carries the levels built below it in ``entries``."""

    def __init__(self, level: int, message: str = "", entries=()):
        self.level = level
        self.entries = list(entries)
        super().__init__(message or f"factorization breaks down at level {level}")


class DegreeError(ArithmeticError):
    """A generated eigenfunction lost its expected leading coefficient."""


@dataclass(frozen=True)
class FactorEntry:
    branch: str            # "minus" or "plus"
    level: int
    alpha: Fraction
    beta: Fraction
    delta: Fraction        # E at this level minus E at the previous level
    E: Fraction
    lam: Fraction


@dataclass(frozen=True)
class LadderPair:
    lower: DiffOp          # A_l = p d/dx - W0 + W_l
    raise_: DiffOp         # B_l = -p d/dx + W0 + W_l


def superpotential_w0(prob: Problem) -> Poly:
    """W0 = (p' - q)/2, the piece common to every ladder."""
    return (prob.p.derivative() - prob.q) * Fraction(1, 2)


def factor_table(prob: Problem, branch: str, max_level: int) -> list[FactorEntry]:
    """Levels 0..max_level (minus) or -1..max_level (plus) by recurrence.

    The recurrence runs on integers.  With (D, P2, Q1, P1, Q0, P0) =
    prob.taylor, p'', q', p'(0), q(0), p(0) over their common denominator
    D, alpha_l = a_l / 2D, where a_l = -C_{l-1} (minus) or C_l (plus)
    and C_l = l P2 + Q1; a vanishing a_l is Breakdown(l).  With s = +1
    (minus) or -1 (plus), the ladder updates of beta and E read

        beta_l = B_l / (2D a_l),    B_l = B_{l-1} - s P1 (a_l + a_{l-1}),
        E_l - beta_l^2 = Y_l / (2D)^2,
                                    Y_l = Y_{l-1} + 2 s P0 (a_l + a_{l-1}),

    so E_l = X_l / (2D a_l)^2 with the integer X_l = B_l^2 + a_l^2 Y_l, and
    lambda_l = L_l / D with L_l = L_{l-1} + a_l (minus) or L_{l-1} - a_{l-1}
    (plus).  The lowest level seeds B = 2D a beta and Y = -(2D beta)^2
    from its initial data, which holds even where that a vanishes.  Each
    field of an entry is then one Fraction; direct_match_table stays an
    independent closed form, the cross-check of this recurrence.
    """
    if branch not in ("minus", "plus"):
        raise ValueError(f"unknown branch {branch!r}")
    lowest = -1 if branch == "plus" else 0
    if max_level < lowest:
        raise ValueError(f"max_level must be >= {lowest}")
    D, P2, Q1, P1, Q0, P0 = prob.taylor
    D2 = 2 * D
    s = 1 if branch == "minus" else -1
    # level `lowest`: alpha = s (p'' - q')/2, beta = s (p'(0) - q(0))/2
    a, b = s * (P2 - Q1), s * (P1 - Q0)
    B, Y, L = a * b, -b * b, 0
    E = zero = Fraction(0)
    entries = [FactorEntry(branch, lowest, Fraction(a, D2), Fraction(b, D2),
                           zero, zero, zero)]
    for l in range(lowest + 1, max_level + 1):
        a_prev = a
        a -= s * P2
        if a == 0:
            raise Breakdown(l, entries=entries)
        B -= s * P1 * (a + a_prev)
        Y += 2 * s * P0 * (a + a_prev)
        L += a if s == 1 else -a_prev
        E_prev, E = E, Fraction(B * B + a * a * Y, D2 * D2 * a * a)
        entries.append(FactorEntry(branch, l, Fraction(a, D2),
                                   Fraction(B, D2 * a), E - E_prev, E,
                                   Fraction(L, D)))
    return entries


def direct_match_table(prob: Problem, branch: str,
                       max_level: int) -> list[FactorEntry]:
    """One branch via closed forms; must equal factor_table entry-wise.

    The closed forms run on integers: with prob.taylor = (D, P2, Q1, P1,
    Q0, P0), C_l = l P2 + Q1 and d_l = l P1 + Q0 are D (l p'' + q') and
    D (l p'(0) + q(0)), and each field is one integer numerator over one
    integer denominator.  The divisors are the recurrence's, C_{l-1}
    (minus) and C_l (plus), so a level factor_table builds never breaks
    here; the lowest level is the shared initial data.
    """
    if branch not in ("minus", "plus"):
        raise ValueError(f"unknown branch {branch!r}")
    lowest = -1 if branch == "plus" else 0
    if max_level < lowest:
        raise ValueError(f"max_level must be >= {lowest}")
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
            # lambda^+_l = lambda^-_l + p'' - q'
            lam = Fraction(l * ((l - 1) * cl - (l + 1) * cm) + 2 * (P2 - Q1),
                           D2)
        out.append(FactorEntry(branch, l, alpha, beta, E - prev_E, E, lam))
        prev_E = E
    return out


class Ladders:
    """One problem's ladder data, each piece built on first use and kept.

    The factor tables run to level ``top`` (minus 0..top, plus -1..top) and
    are built one branch at a time, so a caller touching only one branch
    raises only that branch's Breakdown.  Ladder pairs, their products
    A_l B_l and B_l A_l (all polynomial operators), and the Phi chain
    hang off the tables; ``memo`` keeps whatever else the checks of the
    principal, associated and degenerate layers share, such as the per-m
    associated operators.  The verify suite builds one per request; a
    standalone check builds its own, so both run the same code.
    """

    def __init__(self, prob: Problem, top: int):
        self.prob = prob
        self.top = top
        self.w0 = superpotential_w0(prob)
        self._tables: dict[str, list[FactorEntry]] = {}
        self._phis = [Poly.const(1)]
        self._norms = [Fraction(1)]    # prefix products of E_j
        self._memo: dict = {}

    def memo(self, key, build):
        """The value kept under key, built by build() on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def table(self, branch: str) -> list[FactorEntry]:
        if branch not in self._tables:
            self._tables[branch] = factor_table(self.prob, branch, self.top)
        return self._tables[branch]

    def entry(self, branch: str, l: int) -> FactorEntry:
        lowest = -1 if branch == "plus" else 0
        table = self.table(branch)
        if not lowest <= l <= self.top:
            raise ValueError(f"level {l} outside {lowest}..{self.top}")
        return table[l - lowest]

    def wl(self, branch: str, l: int) -> Poly:
        """W_l = alpha_l x + beta_l from the branch table."""
        ent = self.entry(branch, l)
        return Poly([ent.beta, ent.alpha])

    def pair(self, branch: str, l: int) -> LadderPair:
        return self.memo(("pair", branch, l),
                         lambda: ladder_pair(self.prob, branch, l, self))

    def ab(self, branch: str, l: int) -> DiffOp:
        """A_l B_l."""
        pair = self.pair(branch, l)
        return self.memo(("AB", branch, l),
                         lambda: pair.lower.compose(pair.raise_, self.prob))

    def ba(self, branch: str, l: int) -> DiffOp:
        """B_l A_l."""
        pair = self.pair(branch, l)
        return self.memo(("BA", branch, l),
                         lambda: pair.raise_.compose(pair.lower, self.prob))

    def _raise(self, j: int) -> None:
        """Append Phi_j = -p Phi_{j-1}' + (W0 + W_j) Phi_{j-1}."""
        phi = self._phis[j - 1]
        self._phis.append(-self.prob.p * phi.derivative()
                          + (self.w0 + self.wl("minus", j)) * phi)

    def phi(self, l: int) -> Poly:
        """Phi_l, raised on Poly once per level.

        Each request checks what one raise from 1 to l would: no E_j,
        j <= l, vanishes (else Breakdown(j)), then Phi_l keeps degree l (a
        raise adds at most one degree, so a degree lost anywhere shows at
        l).  The norm goes first: a vanishing E_j can zero Phi_j itself
        (on the line q' = p''/2, E_1 = 0 and Phi_1 = 0), and Breakdown names
        that level where the degree count would not.
        """
        for j in range(len(self._phis), l + 1):
            self._raise(j)
        self.normsq(l)
        if self._phis[l].degree != l:
            raise DegreeError(
                f"expected degree {l}, got {self._phis[l].degree}")
        return self._phis[l]

    def normsq(self, l: int) -> Fraction:
        """prod E_j over j = 1..l; the first vanishing E_j is Breakdown(j)."""
        norms = self._norms
        for j in range(len(norms), l + 1):
            E = self.entry("minus", j).E
            if E == 0:
                raise Breakdown(j, f"E vanishes at level {j}")
            norms.append(norms[-1] * E)
        return norms[l]


def _own(prob: Problem, l: int, lad: Ladders | None) -> Ladders:
    """lad, or a fresh context whose tables reach level l."""
    return lad if lad is not None else Ladders(prob, max(l, 0))


def ladder_pair(prob: Problem, branch: str, l: int,
                lad: Ladders | None = None) -> LadderPair:
    lad = _own(prob, l, lad)
    wl = lad.wl(branch, l)
    return LadderPair(DiffOp([wl - lad.w0, prob.p]),
                      DiffOp([wl + lad.w0, -prob.p]))


def principal_eigenfunction(prob: Problem, l: int, lad: Ladders | None = None
                            ) -> tuple[Poly, Fraction]:
    """Unnormalized Phi_l = B_l ... B_1 applied to 1, with normsq = prod E_j
    (the squared norm int w Phi_l^2 / int w only when p'' = 0).

    The first vanishing E_j is Breakdown(j); with every E_j nonzero, a
    degree lost while raising is DegreeError.
    """
    if l < 0:
        raise ValueError("level must be >= 0")
    lad = _own(prob, l, lad)
    return lad.phi(l), lad.normsq(l)


def shape_invariance_check(prob: Problem, branch: str, l: int,
                           lad: Ladders | None = None) -> DiffOp:
    """Residual of the shape-invariance condition; zero operator when it holds.

    minus: A_l B_l - B_{l-1} A_{l-1} - delta_l
    plus:  B_l A_l - A_{l-1} B_{l-1} - delta (with delta = E_l - E_{l-1})
    """
    lad = _own(prob, l, lad)
    delta = lad.entry(branch, l).delta
    if branch == "minus":
        lhs, rhs = lad.ab(branch, l), lad.ba(branch, l - 1)
    else:
        lhs, rhs = lad.ba(branch, l), lad.ab(branch, l - 1)
    return lhs.sub(rhs, prob).sub(DiffOp([delta]), prob)


def three_term_check(prob: Problem, l: int,
                     lad: Ladders | None = None) -> dict[str, DiffOp]:
    """Residuals of the two three-term recurrences in the unnormalized
    convention: with normsq tracked outside, both read

        Phi_{l+1} = (W_{l+1} + W_l) Phi_l - E_l Phi_{l-1}
        Phi_{l+1} = (-2 p d/dx + W_{l+1} - W_l + 2 W0) Phi_l + E_l Phi_{l-1}

    with Phi_{-1} = 0.  Each residual is a polynomial, DiffOp([c]), and
    both must vanish exactly.
    """
    if l < 0:
        raise ValueError("level must be >= 0")
    lad = _own(prob, l + 1, lad)
    phi_next, phi = lad.phi(l + 1), lad.phi(l)
    phi_prev = lad.phi(l - 1) * lad.entry("minus", l).E if l else Poly([])
    wl, wl_next = lad.wl("minus", l), lad.wl("minus", l + 1)
    res1 = phi_next - (wl_next + wl) * phi + phi_prev
    res2 = phi_next + 2 * prob.p * phi.derivative() \
        - (wl_next - wl + 2 * lad.w0) * phi - phi_prev
    return {"multiplicative": DiffOp([res1]), "differential": DiffOp([res2])}


def hypergeom_like_hl(prob: Problem, l: int,
                      lad: Ladders | None = None) -> DiffOp:
    """H_l = -p d^2/dx^2 + (2 W_l - p') d/dx (minus branch)."""
    wl = _own(prob, l, lad).wl("minus", l)
    return DiffOp([Poly(), 2 * wl - prob.p.derivative(), -prob.p])


def _solve_weight_exponents(prob: Problem, target: Poly):
    """Exponents (s, e) with s p' + e (q - p') = target, or None.

    This is a 2x2 rational linear system in the coefficients of x^1, x^0.
    """
    a = prob.p.derivative()
    b = prob.q - prob.p.derivative()
    det = a[1] * b[0] - a[0] * b[1]
    if det != 0:
        s = (target[1] * b[0] - target[0] * b[1]) / det
        e = (a[1] * target[0] - a[0] * target[1]) / det
        return s, e
    # rank-deficient: try each generator alone
    for s, e, g in ((Fraction(1), Fraction(0), a), (Fraction(0), Fraction(1), b)):
        if not g.is_zero():
            k = target[1] / g[1] if g[1] != 0 else target[0] / g[0]
            if g * k == target:
                return k * s, k * e
    if target.is_zero():
        return Fraction(0), Fraction(0)
    return None


def equivalent_forms_check(prob: Problem, l: int,
                           lad: Ladders | None = None) -> dict[str, DiffOp]:
    """Residuals of the equivalent operator forms of the factorized
    eigen-problem; each is zero exactly when its form holds.

    a: H0 equals H_l - 2 (W_l - W0) d/dx.
    b: p^-1 A_0 B_0 has eigenvalue lambda^+_l on Phi_l.
    c: lambda^+_l - lambda^-_l = p'' - q' on the tables.
    d: conjugating H0 by u_l^-1 (u_l'/u_l = -(W_l - W0)/p) gives
       H_l + lambda^-_l - E^-_l / p.  Where no p^s w^e is such a u_l, the
       residual is the nonzero -(W_l - W0).
    """
    lad = _own(prob, l, lad)
    H0 = hamiltonian(prob)
    ent_minus = lad.entry("minus", l)
    ent_plus = lad.entry("plus", l)
    delta_w = lad.wl("minus", l) - lad.w0
    Hl = hypergeom_like_hl(prob, l, lad)

    first_order = DiffOp([Poly(), delta_w * (-2)])
    a = H0.sub(Hl.add(first_order, prob), prob)

    lam_plus = ent_minus.lam + prob.ppp - prob.qp
    phi = principal_eigenfunction(prob, l, lad)[0]

    over_p = DiffOp(lad.ab("minus", 0).coeffs, -1)
    b = over_p.eigen_residual(phi, lam_plus, prob)

    c = DiffOp([ent_plus.lam - ent_minus.lam - prob.ppp + prob.qp])

    exps = _solve_weight_exponents(prob, -delta_w)
    if exps is None:
        d = DiffOp([-delta_w])
    else:
        s, e = exps
        lhs = H0.conjugate(-s, -e, prob)
        rhs = Hl.add(DiffOp([ent_minus.lam]), prob).sub(
            DiffOp([ent_minus.E], -1), prob)
        d = lhs.sub(rhs, prob)

    return {"h0_vs_hl": a, "partner_eigenvalue": b,
            "lambda_shift": c, "partial_conjugation": d}
