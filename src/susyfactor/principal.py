"""Iterative factorization of -p d^2/dx^2 - q d/dx into first-order ladders.

Both the downward (minus) and upward (plus) branches are built level by
level from recurrences on the linear-superpotential data (alpha_l, beta_l),
together with eigenfunction generation by repeated raising, closed-form
cross-check tables, shape-invariance residuals, three-term recurrences and
the equivalent operator forms.

Every table shares one integer record per level, (a, B, X, L) over the
common denominator D of the Taylor data: alpha_l = a_l/2D, beta_l =
B_l/(2D a_l) (b/2D at the lowest level), E_l = X_l/(2D a_l)^2 and
lambda_l = L_l/2D.  ladder_records builds the records by one integer
update per level; closed_form_records evaluates the closed forms at each
level instead and shares no recurrence with it, so the two remain
independent checks of each other.  The closed forms' divisors are the
recurrence's own up to sign, a_l = -C_{l-1} on the minus branch and C_l on
the plus branch (C_l = D (l p'' + q')), so both write a level over the
same a_l.  With D fixed and a_l nonzero, each field is one rational read
off one integer and back (a = 2D alpha, B = 2D a beta, X = (2D a)^2 E,
L = 2D lambda, and delta follows from E), so two tables are equal as
rationals exactly when their integer records are equal.  level_fields is
the one map from a record to its fields, each an unreduced integer pair.
The record is the only form of a level on every program path: the checks
read its pairs and the CLI prints them.  factor_entries is the one
builder of FactorEntry, the Fraction view that factor_table and
direct_match_table give library callers.

Ladders are kept unnormalized: the usual 1/sqrt(E_l) factors would leave
the rational field, so normsq = prod E_j is tracked separately and all
proportionality statements are cross-multiplied.  normsq is the squared
norm int w Phi_l^2 / int w only when p'' = 0; in general that ratio is
prod E_j (q' - p''/2)/(q' + (l - 1/2) p'').
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .core import Poly, Problem, int_first_order
from .diffop import DiffOp, hamiltonian


class Breakdown(ArithmeticError):
    """The factorization degenerates here: a recurrence divisor vanished,
    or E_l, a factor of the level's normsq prod E_j, is zero.  Raised by
    ladder_records, it carries the records of the levels built below it in
    ``records``, with the problem and branch they belong to (the partial
    table, as factor_entries or record_fields read it)."""

    def __init__(self, level: int, message: str = "", *,
                 prob: Problem | None = None, branch: str = "minus",
                 records=()):
        self.level = level
        self.prob = prob
        self.branch = branch
        self.records = list(records)
        super().__init__(message or f"factorization breaks down at level {level}")


class DegreeError(ArithmeticError):
    """A generated eigenfunction lost its expected leading coefficient."""


# one level of a factor table on integers, (a, B, X, L): see the module
# docstring
Record = tuple[int, int, int, int]
# a rational as an unreduced integer pair (n, d) with d > 0
Pair = tuple[int, int]
# alpha, beta, delta, E and lambda of one level
Fields = tuple[Pair, Pair, Pair, Pair, Pair]
_ZERO: Pair = (0, 1)


@dataclass(frozen=True)
class FactorEntry:
    branch: str            # "minus" or "plus"
    level: int
    alpha: Fraction
    beta: Fraction
    delta: Fraction        # E at this level minus E at the previous level
    E: Fraction
    lam: Fraction


def superpotential_w0(prob: Problem) -> Poly:
    """W0 = (p' - q)/2, the piece common to every ladder."""
    return (prob.p.derivative() - prob.q) * Fraction(1, 2)


def lowest_level(branch: str) -> int:
    """The branch's lowest level: 0 (minus) or -1 (plus)."""
    if branch not in ("minus", "plus"):
        raise ValueError(f"unknown branch {branch!r}")
    return 0 if branch == "minus" else -1


def _lowest(branch: str, max_level: int) -> int:
    """The branch's lowest level, after checking max_level."""
    lowest = lowest_level(branch)
    if max_level < lowest:
        raise ValueError(f"max_level must be >= {lowest}")
    return lowest


def ladder_records(prob: Problem, branch: str,
                   max_level: int) -> list[Record]:
    """The branch's records (a, B, X, L), levels lowest..max_level, by the
    level recurrence on integers.

    With (D, P2, Q1, P1, Q0, P0) = prob.taylor, alpha_l = a_l / 2D, where
    a_l = -C_{l-1} (minus) or C_l (plus) and C_l = l P2 + Q1; a vanishing
    a_l is Breakdown(l), carrying the records of the levels below.  With
    s = +1 (minus) or -1 (plus), the ladder updates of beta and E read

        beta_l = B_l / (2D a_l),    B_l = B_{l-1} - s P1 (a_l + a_{l-1}),
        E_l - beta_l^2 = Y_l / (2D)^2,
                                    Y_l = Y_{l-1} + 2 s P0 (a_l + a_{l-1}),

    so E_l = X_l / (2D a_l)^2 with the integer X_l = B_l^2 + a_l^2 Y_l, and
    lambda_l = L_l / 2D with L_l = L_{l-1} + 2 a_l (minus) or
    L_{l-1} - 2 a_{l-1} (plus).  The lowest level seeds B = 2D a beta and
    Y = -(2D beta)^2 from its initial data, which holds even where that a
    vanishes; its record is (a, b, 0, 0) with beta = b / 2D.
    """
    lowest = _lowest(branch, max_level)
    _, P2, Q1, P1, Q0, P0 = prob.taylor
    s = 1 if branch == "minus" else -1
    # level `lowest`: alpha = s (p'' - q')/2, beta = s (p'(0) - q(0))/2
    a, b = s * (P2 - Q1), s * (P1 - Q0)
    B, Y, L = a * b, -b * b, 0
    records = [(a, b, 0, 0)]
    for l in range(lowest + 1, max_level + 1):
        a_prev = a
        a -= s * P2
        if a == 0:
            raise Breakdown(l, prob=prob, branch=branch, records=records)
        B -= s * P1 * (a + a_prev)
        Y += 2 * s * P0 * (a + a_prev)
        L += 2 * a if s == 1 else -2 * a_prev
        records.append((a, B, B * B + a * a * Y, L))
    return records


def closed_form_records(prob: Problem, branch: str,
                        max_level: int) -> list[Record]:
    """The branch's records (a, B, X, L), each level from its closed form.

    With prob.taylor = (D, P2, Q1, P1, Q0, P0), C_l = l P2 + Q1 and d_l =
    l P1 + Q0 are D (l p'' + q') and D (l p'(0) + q(0)).  Each level is
    evaluated on its own, sharing no recurrence with ladder_records; a
    vanishing divisor is Breakdown(l), with no records.  The lowest level
    is the shared initial data.
    """
    lowest = _lowest(branch, max_level)
    _, P2, Q1, P1, Q0, P0 = prob.taylor
    s = 1 if branch == "minus" else -1
    records = [(s * (P2 - Q1), s * (P1 - Q0), 0, 0)]
    for l in range(lowest + 1, max_level + 1):
        cl, cm = l * P2 + Q1, (l - 1) * P2 + Q1
        dl, dm = l * P1 + Q0, (l - 1) * P1 + Q0
        lam = l * ((l - 1) * cl - (l + 1) * cm)
        if branch == "minus":
            if cm == 0:
                raise Breakdown(l)
            records.append((
                -cm, l * cm * dl - (l * cl - cm) * dm,
                l * (dm * (2 * cm * dl - (cm + cl) * dm) - 2 * cm * cm * P0)
                * ((l + 2) * cm - l * cl),
                lam))
        else:
            if cl == 0:
                raise Breakdown(l)
            # lambda^+_l = lambda^-_l + p'' - q'
            records.append((
                cl, ((l + 1) * cm + cl) * dl - (l + 1) * cl * dm,
                (l + 1) * (dl * ((cm + cl) * dl - 2 * cl * dm)
                           - 2 * cl * cl * P0) * ((l + 1) * cm - (l - 1) * cl),
                lam + 2 * (P2 - Q1)))
    return records


def level_fields(D2: int, record: Record, below: Record | None) -> Fields:
    """One level's (alpha, beta, delta, E, lambda) as unreduced integer
    pairs (n, d) with d > 0, off its record and the record one level below
    (None at the lowest level); D2 = 2D.

    alpha = a/2D, beta = B/(2D a), E = X/(2D a)^2 and lambda = L/2D, with
    delta_l = E_l - E_{l-1} over the product of the two levels' divisors;
    a negative a moves its sign from beta's divisor to B.  The lowest
    level's beta is b/2D and its delta, E and lambda are 0; its a may be
    0, and its X is 0, so the level above it takes delta = E.
    """
    a, B, X, L = record
    if below is None:
        return (a, D2), (B, D2), _ZERO, _ZERO, _ZERO
    den = (D2 * a) ** 2
    a_below, _, X_below, _ = below
    if X_below:
        den_below = (D2 * a_below) ** 2
        delta = (X * den_below - X_below * den, den * den_below)
    else:
        delta = (X, den)
    return ((a, D2), (B, D2 * a) if a > 0 else (-B, -D2 * a), delta,
            (X, den), (L, D2))


def _plus(x: Pair, y: Pair) -> Pair:
    """x + y, unreduced."""
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _constant(x: Pair) -> DiffOp:
    """The constant operator x, reduced."""
    return DiffOp._make([[x[0]]], x[1], 0)


def record_fields(prob: Problem, records: list[Record]):
    """The Fields of each record, the lowest level first (level_fields)."""
    return map(partial(level_fields, 2 * prob.taylor[0]), records,
               [None, *records])


def factor_entries(prob: Problem, branch: str,
                   records: list[Record]) -> list[FactorEntry]:
    """The FactorEntry of each record, the lowest level first: the Fractions
    of record_fields.  The one builder of FactorEntry."""
    return [FactorEntry(branch, l, *[Fraction(n, d) for n, d in fields])
            for l, fields in enumerate(record_fields(prob, records),
                                       lowest_level(branch))]


def factor_table(prob: Problem, branch: str, max_level: int) -> list[FactorEntry]:
    """Levels 0..max_level (minus) or -1..max_level (plus) by recurrence:
    the entries of ladder_records.

    direct_match_table reads the same record (a, B, X, L) off the closed
    forms, with alpha = a/2D, beta = B/(2D a), E = X/(2D a)^2 and lambda =
    L/2D.  Its divisors are this recurrence's a_l, and with D fixed and a_l
    nonzero each field is one rational read off one integer, so the two
    tables are equal exactly when their record lists are: a caller that
    only compares them compares the records.
    """
    return factor_entries(prob, branch,
                          ladder_records(prob, branch, max_level))


def direct_match_table(prob: Problem, branch: str,
                       max_level: int) -> list[FactorEntry]:
    """One branch via closed forms; must equal factor_table entry-wise:
    the entries of closed_form_records."""
    return factor_entries(prob, branch,
                          closed_form_records(prob, branch, max_level))


class Ladders:
    """One problem's ladder data, each piece built on first use and kept.

    The integer records run to level ``top`` (minus 0..top, plus -1..top)
    and are built one branch at a time, so a caller touching only one
    branch raises only that branch's Breakdown.  A level is read only as
    its record: ``fields`` gives its (alpha, beta, delta, E, lambda) as
    integer pairs, and no FactorEntry is built here.
    W_l, the ladder pairs and their products A_l B_l and B_l A_l (all
    polynomial operators), the Phi chain and its norms hang off the
    records; ``memo`` keeps whatever else the checks of the
    principal, associated and degenerate layers share, such as the per-m
    associated operators.  The verify suite builds one per request; a
    standalone check builds its own, so both run the same code.
    """

    def __init__(self, prob: Problem, top: int):
        self.prob = prob
        self.top = top
        self.w0 = superpotential_w0(prob)
        self._records: dict[str, list[Record]] = {}
        self._phis = {0: Poly.const(1)}     # the levels a caller read
        self._norms = [Fraction(1)]    # prefix products of E_j
        self._memo: dict = {}

    def memo(self, key, build):
        """The value kept under key, built by build() on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def records(self, branch: str) -> list[Record]:
        """The branch's integer records (ladder_records) to level top."""
        if branch not in self._records:
            self._records[branch] = ladder_records(self.prob, branch,
                                                   self.top)
        return self._records[branch]

    def _record(self, branch: str, l: int) -> tuple[Record, Record | None]:
        """Level l's record and the one below it (None at the lowest)."""
        lowest = lowest_level(branch)
        records = self.records(branch)
        if not lowest <= l <= self.top:
            raise ValueError(f"level {l} outside {lowest}..{self.top}")
        i = l - lowest
        return records[i], records[i - 1] if i else None

    def fields(self, branch: str, l: int) -> Fields:
        """Level l's (alpha, beta, delta, E, lambda) as integer pairs
        (level_fields)."""
        return level_fields(2 * self.prob.taylor[0],
                            *self._record(branch, l))

    def w_numerators(self, branch: str, l: int) -> tuple[list[int], int]:
        """W_l = alpha_l x + beta_l straight from level l's record, as its
        integer numerators over one positive denominator, unreduced:
        (B + a^2 x)/(2D a), or (b + a x)/2D at the lowest level."""
        (a, B, _, _), below = self._record(branch, l)
        D2 = 2 * self.prob.taylor[0]
        if below is None:
            return [B, a], D2
        g = abs(a)                     # keeps the denominator positive
        return [B if a > 0 else -B, a * g], D2 * g

    def wl(self, branch: str, l: int) -> Poly:
        """W_l as a Poly (w_numerators)."""
        return self.memo(("W", branch, l), lambda: Poly._make(
            *self.w_numerators(branch, l)))

    def pair(self, branch: str, l: int) -> tuple[DiffOp, DiffOp]:
        """(A_l, B_l), ladder_pair."""
        return self.memo(("pair", branch, l),
                         lambda: ladder_pair(self.prob, branch, l, self))

    def ab(self, branch: str, l: int) -> DiffOp:
        """A_l B_l."""
        lower, raise_ = self.pair(branch, l)
        return self.memo(("AB", branch, l),
                         lambda: lower.compose(raise_, self.prob))

    def ba(self, branch: str, l: int) -> DiffOp:
        """B_l A_l."""
        lower, raise_ = self.pair(branch, l)
        return self.memo(("BA", branch, l),
                         lambda: raise_.compose(lower, self.prob))

    def _raise(self, j: int, num: list[int], den: int
               ) -> tuple[list[int], int]:
        """Phi_j from Phi_{j-1} = num/den, unreduced, over den 2D |a_j|.

        With the minus record (a_j, B_j, X_j, L_j) and prob.taylor,

            2D a_j Phi_j = -a_j (2D p) Phi_{j-1}'
                           + 2D a_j (W0 + W_j) Phi_{j-1},

        where 2D p = P2 x^2 + 2 P1 x + 2 P0 and 2D a_j (W0 + W_j) =
        a_j (P2 - Q1 + a_j) x + a_j (P1 - Q0) + B_j are integer polynomials.
        """
        D, P2, Q1, P1, Q0, P0 = self.prob.taylor
        a, B, _, _ = self.records("minus")[j]
        sign = 1 if a > 0 else -1      # keeps the denominator positive
        g = sign * a
        return (int_first_order(num, (-2 * g * P0, -2 * g * P1, -g * P2),
                                (sign * (a * (P1 - Q0) + B),
                                 g * (P2 - Q1 + a))),
                den * 2 * D * g)

    def phi(self, l: int) -> Poly:
        """Phi_l, raised on integers and reduced once per level read.

        Each request checks what one raise from 1 to l would: no E_j,
        j <= l, vanishes (else Breakdown(j)), then Phi_l keeps degree l (a
        raise adds at most one degree, so a degree lost anywhere shows at
        l).  The norm goes first: a vanishing E_j can zero Phi_j itself
        (on the line q' = p''/2, E_1 = 0 and Phi_1 = 0), and Breakdown names
        that level where the degree count would not.  The raise starts
        from the nearest level below l that a caller read, and Poly._make
        reduces only the level read.
        """
        self.normsq(l)
        if l in self._phis:
            return self._phis[l]
        k = max(k for k in self._phis if k <= l)
        num, den = self._phis[k].num, self._phis[k].den
        for j in range(k + 1, l + 1):
            num, den = self._raise(j, num, den)
        if len(num) - 1 != l:
            raise DegreeError(f"expected degree {l}, got {len(num) - 1}")
        self._phis[l] = Poly._make(list(num), den)
        return self._phis[l]

    def normsq(self, l: int) -> Fraction:
        """prod E_j over j = 1..l, E_j = X_j/(2D a_j)^2 off the minus
        records; the first vanishing E_j is Breakdown(j)."""
        records = self.records("minus")
        if not 0 <= l <= self.top:
            raise ValueError(f"level {l} outside 0..{self.top}")
        norms = self._norms
        D2 = 2 * self.prob.taylor[0]
        for j in range(len(norms), l + 1):
            a, _, X, _ = records[j]
            if X == 0:
                raise Breakdown(j, f"E vanishes at level {j}")
            norms.append(norms[-1] * Fraction(X, (D2 * a) ** 2))
        return norms[l]


def _own(prob: Problem, l: int, lad: Ladders | None) -> Ladders:
    """lad, or a fresh context whose tables reach level l."""
    return lad if lad is not None else Ladders(prob, max(l, 0))


def ladder_pair(prob: Problem, branch: str, l: int,
                lad: Ladders | None = None) -> tuple[DiffOp, DiffOp]:
    """(A_l, B_l), the lowering A_l = p d/dx - W0 + W_l and the raising
    B_l = -p d/dx + W0 + W_l, on integer rows over 2D wd, W_l = wn/wd
    (Ladders.w_numerators): with prob.taylor, 2D W0 = (P2 - Q1) x + P1 - Q0
    and 2D p = P2 x^2 + 2 P1 x + 2 P0."""
    D, P2, Q1, P1, Q0, P0 = prob.taylor
    wn, wd = _own(prob, l, lad).w_numerators(branch, l)
    w = [2 * D * n for n in wn]
    w0 = [wd * (P1 - Q0), wd * (P2 - Q1)]
    p = [2 * wd * P0, 2 * wd * P1, wd * P2]
    return (DiffOp._make([[a - b for a, b in zip(w, w0)], p], 2 * D * wd, 0),
            DiffOp._make([[a + b for a, b in zip(w, w0)], [-c for c in p]],
                         2 * D * wd, 0))


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
    delta = lad.fields(branch, l)[2]
    if branch == "minus":
        lhs, rhs = lad.ab(branch, l), lad.ba(branch, l - 1)
    else:
        lhs, rhs = lad.ba(branch, l), lad.ab(branch, l - 1)
    return lhs.sub(rhs, prob).sub(_constant(delta), prob)


def symmetry_check(prob: Problem, l: int,
                   lad: Ladders | None = None) -> dict[str, DiffOp]:
    """Residuals of the symmetry between the branches, each a constant:

    alpha^+_l + alpha^-_(l+1), beta^+_l + beta^-_(l+1), E^+_l - E^-_(l+1)
    and lambda^+_l - lambda^-_l - p'' + q',

    read as integer pairs off the records (level_fields).
    """
    lad = _own(prob, l + 1, lad)
    D, P2, Q1, *_ = prob.taylor
    hi, lo = lad.fields("plus", l), lad.fields("minus", l + 1)
    En, Ed = lo[3]
    # lambda = L/2D on both branches, and p'' - q' = 2 (P2 - Q1)/2D
    lam = hi[4][0] - lad.fields("minus", l)[4][0] - 2 * (P2 - Q1)
    return {"alpha": _constant(_plus(hi[0], lo[0])),
            "beta": _constant(_plus(hi[1], lo[1])),
            "E": _constant(_plus(hi[3], (-En, Ed))),
            "lambda": _constant((lam, 2 * D))}


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
    if l:
        prev, (n, d) = lad.phi(l - 1), lad.fields("minus", l)[3]
        phi_prev = Poly._make([n * c for c in prev.num], prev.den * d)
    else:
        phi_prev = Poly([])
    wl, wl_next = lad.wl("minus", l), lad.wl("minus", l + 1)
    res1 = phi_next - (wl_next + wl) * phi + phi_prev
    res2 = phi_next + 2 * prob.p * phi.derivative() \
        - (wl_next - wl + 2 * lad.w0) * phi - phi_prev
    return {"multiplicative": DiffOp([res1]), "differential": DiffOp([res2])}


def hypergeom_like_hl(prob: Problem, l: int,
                      lad: Ladders | None = None) -> DiffOp:
    """H_l = -p d^2/dx^2 + (2 W_l - p') d/dx (minus branch), on integer
    rows over 2D wd as in ladder_pair, with D p' = P2 x + P1."""
    D, P2, Q1, P1, Q0, P0 = prob.taylor
    wn, wd = _own(prob, l, lad).w_numerators("minus", l)
    return DiffOp._make([[], [4 * D * wn[0] - 2 * wd * P1,
                              4 * D * wn[1] - 2 * wd * P2],
                         [-2 * wd * P0, -2 * wd * P1, -wd * P2]],
                        2 * D * wd, 0)


def _solve_weight_exponents(prob: Problem, target: Poly):
    """Exponents (s, e) with s p' + e (q - p') = target, or None, for a
    target of degree <= 1.

    Over prob.taylor, D p' = P2 x + P1 and D (q - p') = (Q1 - P2) x +
    Q0 - P1, and target = (T1 x + T0)/Td, so this is the 2x2 integer system
    s (P2, P1) + e (Q1 - P2, Q0 - P1) = D (T1, T0)/Td.
    """
    D, P2, Q1, P1, Q0, _ = prob.taylor
    # (x^1, x^0) coefficients, each times D, and the target's times Td
    a, b = (P2, P1), (Q1 - P2, Q0 - P1)
    T0, T1 = (*target.num, 0, 0)[:2]
    t, Td = (T1, T0), target.den
    det = a[0] * b[1] - a[1] * b[0]
    if det:
        return (Fraction(D * (t[0] * b[1] - t[1] * b[0]), Td * det),
                Fraction(D * (a[0] * t[1] - a[1] * t[0]), Td * det))
    # rank-deficient: try each generator g alone, k g = target, with k read
    # off g's first nonzero coefficient g_i and checked on the other, g_j
    for s, e, g in ((1, 0, a), (0, 1, b)):
        if any(g):
            i = 0 if g[0] else 1
            if g[1 - i] * t[i] == t[1 - i] * g[i]:
                k = Fraction(D * t[i], Td * g[i])
                return k * s, k * e
    if target.is_zero():
        return Fraction(0), Fraction(0)
    return None


def equivalent_forms_check(prob: Problem, l: int,
                           lad: Ladders | None = None) -> dict[str, DiffOp]:
    """Residuals of the equivalent operator forms of the factorized
    eigen-problem; each is zero exactly when its form holds.

    a: H0 equals H_l - 2 (W_l - W0) d/dx.
    b: p^-1 A_0 B_0 has eigenvalue lambda^+_l = lambda^-_l + p'' - q' on
       Phi_l (symmetry_check holds that relation against the plus records).
    c: conjugating H0 by u_l^-1 (u_l'/u_l = -(W_l - W0)/p) gives
       H_l + lambda^-_l - E^-_l / p.  Where no p^s w^e is such a u_l, the
       residual is the nonzero -(W_l - W0).
    """
    lad = _own(prob, l, lad)
    H0 = hamiltonian(prob)
    D, P2, Q1, *_ = prob.taylor
    _, _, _, E, (L, _) = lad.fields("minus", l)
    delta_w = lad.wl("minus", l) - lad.w0
    Hl = hypergeom_like_hl(prob, l, lad)

    first_order = DiffOp([Poly(), delta_w * (-2)])
    a = H0.sub(Hl.add(first_order, prob), prob)

    # lambda = L/2D, and p'' - q' = 2 (P2 - Q1)/2D
    lam_plus = Fraction(L + 2 * (P2 - Q1), 2 * D)
    phi = principal_eigenfunction(prob, l, lad)[0]

    over_p = lad.ab("minus", 0)._at(-2)
    b = over_p.eigen_residual(phi, lam_plus, prob)

    exps = _solve_weight_exponents(prob, -delta_w)
    if exps is None:
        c = DiffOp([-delta_w])
    else:
        s, e = exps
        lhs = H0.conjugate(-s, -e, prob)
        rhs = Hl.add(_constant((L, 2 * D)), prob).sub(
            DiffOp._make([[E[0]]], E[1], -2), prob)
        c = lhs.sub(rhs, prob)

    return {"h0_vs_hl": a, "partner_eigenvalue": b,
            "partial_conjugation": c}
