"""Independent exact oracle for every benchmark request.

It uses only ``fractions.Fraction`` and the standard library and imports
nothing from susyfactor.  The factor-table data come from the factorization
identity itself rather than from the engine's recurrence: with
W0 = (p' - q)/2 and W_l = alpha_l x + beta_l, the shape-invariant
factorization requires the polynomial identity

    W_l^2 - W0^2 - p (W_l' - W0') = E_l - lambda_l p,

whose x^2, x^1 and x^0 coefficients give alpha_l = -c_{l-1}, beta_l and E_l
once lambda_l = -l q' - l(l-1) p''/2 is known in closed form.

``judge`` returns a Verdict for one request.  A failure either matches one
of the KNOWN_DEFECTS of the program (documented behaviour that is wrong but
present at the commit the benchmark was defined on) or is unexpected; only
unexpected failures make a run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

KNOWN_DEFECTS = {
    "verify.degree_error_escape":
        "DegreeError escapes cli.main on a ladder-degenerate verify input",
    "verify.zero_norm_accepted":
        "verify exits 0 on an input whose E_l vanishes",
    "classify.scan_cap":
        "classify fails past the scan caps m <= 128, l <= 4096",
    "factorize.plus_level0_no_table":
        "plus-branch breakdown at level 0 prints no partial table",
    "numeric.hypergeom_y_residual":
        "y-form residual on hypergeom:1/3,1/5,7/2 misses the bounds",
}

RESIDUAL_MAX = 1e-6
ORDER_RANGE = (1.7, 2.3)
ORTHOGONALITY_MAX = 1e-8
CLASSIFY_CAPS = (4096, 128)          # (l, m) scanned by classify_expanded


def _strip(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Pq:
    """The pair (p, q), coefficients ascending, trailing zeros stripped."""

    p: tuple
    q: tuple

    @classmethod
    def of(cls, p, q) -> "Pq":
        return cls(_strip(p), _strip(q))

    def _c(self, poly, k):
        return poly[k] if k < len(poly) else Fraction(0)

    p0 = property(lambda self: self._c(self.p, 0))
    p1 = property(lambda self: self._c(self.p, 1))
    p2 = property(lambda self: self._c(self.p, 2))
    q0 = property(lambda self: self._c(self.q, 0))
    q1 = property(lambda self: self._c(self.q, 1))

    @property
    def constant_p(self) -> bool:
        return len(self.p) == 1


# ---------------------------------------------------------------- polynomials

def padd(a, b):
    n = max(len(a), len(b))
    return _strip([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                   for k in range(n)])


def pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def pscale(a, k):
    return _strip([c * k for c in a])


def pderiv(a):
    return _strip([k * c for k, c in enumerate(a)][1:])


def peval(a, x: float) -> float:
    acc = 0.0
    for c in reversed(a):
        acc = acc * x + float(c)
    return acc


# ---------------------------------------------------------- closed forms

def c_l(pq: Pq, l: int) -> Fraction:
    """c_l = (l p'' + q')/2."""
    return l * pq.p2 + pq.q1 / 2


def lambda_minus(pq: Pq, l: int) -> Fraction:
    return -l * pq.q1 - l * (l - 1) * pq.p2


def lambda_assoc(pq: Pq, l: int, m: int) -> Fraction:
    m = abs(m)
    return -(l - m) * pq.q1 - (l * (l - 1) - m * (m - 1)) * pq.p2


def _w0(pq: Pq):
    """W0 = w1 x + w0."""
    return pq.p2 - pq.q1 / 2, (pq.p1 - pq.q0) / 2


def minus_entry(pq: Pq, l: int):
    """(alpha, beta, E, lambda) of minus level l, or None at a breakdown."""
    w1, w0 = _w0(pq)
    if l == 0:
        return w1, w0, Fraction(0), Fraction(0)
    alpha = -c_l(pq, l - 1)
    if alpha == 0:
        return None
    lam = lambda_minus(pq, l)
    beta = (2 * w1 * w0 + pq.p1 * (alpha - w1) - lam * pq.p1) / (2 * alpha)
    E = beta * beta - w0 * w0 + pq.p0 * (lam - alpha + w1)
    return alpha, beta, E, lam


def plus_entry(pq: Pq, l: int):
    """Plus level l >= -1 mirrors minus level l + 1."""
    if l >= 0 and c_l(pq, l) == 0:
        return None
    alpha, beta, E, _ = minus_entry(pq, l + 1)
    return -alpha, -beta, E, lambda_minus(pq, l) + 2 * pq.p2 - pq.q1


def zero_norm_p0(pq: Pq, l: int):
    """The p(0) that makes E_l vanish (E_l is affine in p(0)), or None."""
    w1, w0 = _w0(pq)
    alpha, beta, _, lam = minus_entry(pq, l)
    slope = lam - alpha + w1
    return (w0 * w0 - beta * beta) / slope if slope != 0 else None


def well_posed(pq: Pq, levels: int, check_norms: bool = True) -> bool:
    """No c_l, no repeated lambda_l and no E_l = 0 up to level levels + 1,
    the deepest level the verify suite touches."""
    top = levels + 1
    if any(c_l(pq, l) == 0 for l in range(top + 1)):
        return False
    lams = [lambda_minus(pq, l) for l in range(top + 1)]
    if len(set(lams)) < len(lams):
        return False
    return not check_norms or all(minus_entry(pq, l)[2] != 0
                                  for l in range(1, top + 1))


def verify_keys(pq: Pq, levels: int) -> set:
    """Names of the checks the verify suite must report."""
    keys = set()
    for l in range(levels + 1):
        if l >= 1:
            keys.add(f"shape_invariance_minus_{l}")
        keys |= {f"shape_invariance_plus_{l}", f"symmetry_{l}",
                 f"three_term_{l}", f"equivalent_forms_{l}",
                 f"assoc_shape_invariance_{l + 1}"}
        if l <= 4:
            keys.add(f"standard_hermitian_{l}")
        for m in range(l + 1):
            keys |= {f"associated_{l}_{m}", f"pHm_{l}_{m}"}
            if pq.constant_p and pq.p0 > 0:
                keys.add(f"collapse_{l}_{m}")
    return keys


# ------------------------------------------------------------------- verdicts

@dataclass
class Outcome:
    rc: object                 # exit code, or None when an exception escaped
    stdout: str = ""
    stderr: str = ""
    exc: tuple | None = None   # (type name, message) of an escaped exception
    value: object = None       # result of a library call


@dataclass
class Verdict:
    ok: bool
    defect: str | None = None  # a KNOWN_DEFECTS key
    reason: str = ""

    @property
    def unexpected(self) -> bool:
        return not self.ok and self.defect is None


PASS = Verdict(True)


def _fail(reason: str, defect: str | None = None) -> Verdict:
    return Verdict(False, defect, reason)


def _stderr_json(stderr: str) -> dict:
    """The JSON error object on the last stderr line, or {}."""
    try:
        err = json.loads(stderr.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {}
    return err if isinstance(err, dict) else {}


def _describe(out: Outcome) -> str:
    if out.exc:
        return f"{out.exc[0]} escaped: {out.exc[1]}"
    return f"exit {out.rc}, stderr {out.stderr.strip()[:120]!r}"


def _check_verify(req, out: Outcome) -> Verdict:
    cls = req.cls
    levels = req.params["levels"]
    if cls.startswith("verify.ill_posed"):
        if out.rc == 2 and _stderr_json(out.stderr).get("error"):
            return PASS
        if out.exc and out.exc[0] == "DegreeError":
            return _fail(_describe(out), "verify.degree_error_escape")
        if cls.endswith("zero_norm") and out.rc == 0 \
                and '"all_pass": true' in out.stdout:
            return _fail("exit 0 on E_l = 0", "verify.zero_norm_accepted")
        return _fail(f"ill-posed input: {_describe(out)}")
    perturbed = cls == "verify.perturbed"
    if out.rc != (1 if perturbed else 0):
        return _fail(_describe(out))
    try:
        report = json.loads(out.stdout)
        checks = report["checks"]
    except (ValueError, KeyError, TypeError):
        return _fail("verify output is not the JSON report")
    missing = verify_keys(req.pq, levels) - set(checks)
    if missing:
        return _fail(f"missing checks {sorted(missing)[:3]}")
    if perturbed:
        # the injected constant must break exactly the shape-invariance checks
        bad = [k for k, v in checks.items()
               if v is not (not k.startswith("shape_invariance_"))]
        if report.get("all_pass") is not False or bad:
            return _fail(f"negative control not detected: {bad[:3]}")
        return PASS
    bad = [k for k, v in checks.items() if v is not True]
    if report.get("all_pass") is not True or bad:
        return _fail(f"failed checks {bad[:3]}")
    return PASS


def _check_eigenfunction(req, out: Outcome) -> Verdict:
    pq, l, m, form = req.pq, req.params["l"], req.params["m"], \
        req.params["form"]
    if out.rc != 0:
        return _fail(_describe(out))
    try:
        d = json.loads(out.stdout)
        coeffs = tuple(Fraction(c) for c in d["coefficients"])
        s = Fraction(d["s"])
        normsq = Fraction(d["normsq"])
    except (ValueError, KeyError, TypeError):
        return _fail("eigenfunction output is not the JSON record")
    want_form = form if m == 0 else \
        {"ladder": "bottomup", "rodrigues": "topdown"}.get(form, form)
    if (d.get("l"), d.get("m"), d.get("form")) != (l, m, want_form):
        return _fail("echoed l, m or form differ")
    if d.get("proportional_to_alternate") is not True:
        return _fail("forms not proportional")
    # value = c p^s and Phi_lm = p^(m/2) C: C = c p^(s - m/2), where a
    # constant p only contributes a constant factor
    k = s - Fraction(m, 2)
    c = coeffs
    if not pq.constant_p:
        if k.denominator != 1 or k < 0:
            return _fail(f"unexpected exponent s = {s}")
        for _ in range(int(k)):
            c = pmul(c, pq.p)
    if len(c) - 1 != l - m:
        return _fail(f"degree {len(c) - 1}, expected {l - m}")
    # -p c'' - (q + m p') c' - lambda_lm c must vanish
    d1 = pderiv(c)
    lhs = padd(pscale(pmul(pq.p, pderiv(d1)), -1),
               pscale(pmul(padd(pq.q, pscale(pderiv(pq.p), m)), d1), -1))
    if padd(lhs, pscale(c, -lambda_assoc(pq, l, m))):
        return _fail("eigen-equation residual does not vanish")
    want = Fraction(1)
    for j in range(1, l + 1):
        want *= minus_entry(pq, j)[2]
    for j in range(m):
        want *= lambda_assoc(pq, l, j)
    if normsq != want:
        return _fail("normsq differs from prod E_j prod lambda_lj")
    return PASS


def _expected_table(pq: Pq, branches, levels):
    """Entries in output order and the (branch, level) of a breakdown."""
    rows = []
    for branch in branches:
        lo, entry = (0, minus_entry) if branch == "minus" else (-1, plus_entry)
        for l in range(lo, levels + 1):
            e = entry(pq, l)
            if e is None:
                return rows, (branch, l)
            rows.append((branch, l, *e))
    return rows, None


def _check_factorize(req, out: Outcome) -> Verdict:
    pq, levels, branches = req.pq, req.params["levels"], \
        req.params["branches"]
    rows, breakdown = _expected_table(pq, branches, levels)
    if breakdown:
        err = _stderr_json(out.stderr)
        if breakdown == ("plus", 0) and out.rc == 2 and not out.stdout \
                and err.get("error") == "ValueError":
            return _fail("no partial table", "factorize.plus_level0_no_table")
        if out.rc != 2 or (err.get("error"), err.get("level")) != \
                ("breakdown", breakdown[1]):
            return _fail(f"breakdown {breakdown} not reported: "
                         + _describe(out))
    elif out.rc != 0:
        return _fail(_describe(out))
    try:
        d = json.loads(out.stdout)
        got = [(e["branch"], e["l"], Fraction(e["alpha"]),
                Fraction(e["beta"]), Fraction(e["E"]), Fraction(e["lambda"]),
                Fraction(e["delta"])) for e in d["entries"]]
    except (ValueError, KeyError, TypeError):
        return _fail("factorize output is not the JSON table")
    want, prev = [], {}
    for branch, l, alpha, beta, E, lam in rows:
        delta = E - prev.get(branch, E)
        prev[branch] = E
        want.append((branch, l, alpha, beta, E, lam, delta))
    if got != want:
        diff = next((w for g, w in zip(got, want) if g != w), None)
        return _fail(f"table differs (first at {diff and diff[:2]}, "
                     f"{len(got)} vs {len(want)} entries)")
    if not breakdown and len(branches) == 2 and d.get("direct_match") \
            is not True:
        return _fail("direct_match is not true")
    return PASS


def _check_classify(req, out: Outcome) -> Verdict:
    l, m = req.params["l"], req.params["m"]
    if out.rc == 2 and (l > CLASSIFY_CAPS[0] or m > CLASSIFY_CAPS[1]) \
            and _stderr_json(out.stderr).get("error") == "ClassifyError":
        return _fail(f"l={l}, m={m} past the scan caps", "classify.scan_cap")
    if out.rc != 0:
        return _fail(_describe(out))
    try:
        rt = json.loads(out.stdout)["round_trip"]
        ok = (rt["m"], rt["l"], Fraction(rt["lambda"]), rt["match"]) == \
            (m, l, lambda_assoc(req.pq, l, m), True)
    except (ValueError, KeyError, TypeError):
        return _fail("classify output has no round trip")
    return PASS if ok else _fail(f"round trip differs: {rt}")


def _read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    cols = {h: [float(r[i]) for r in body] for i, h in enumerate(header)}
    return header, cols, len(body)


def _monotone(vals) -> bool:
    steps = [b - a for a, b in zip(vals, vals[1:])]
    return all(s > 0 for s in steps) or all(s < 0 for s in steps)


NUMERIC_COLUMNS = {
    "maps": ["x", "y", "z"],
    "potentials": ["x", "w", "y", "z", "W_l", "V_l", "V_s_l", "W_a_m",
                   "V_a_m", "psi_l", "s_phi_lm"],
    "sl1": ["x", "rho", "G", "U", "u"],
    "sl2": ["x", "W_rho", "V_rho", "v"],
}
MAP_COLUMNS = {"maps": ("x", "y", "z"), "potentials": ("x", "y", "z"),
               "sl1": ("x", "u"), "sl2": ("x", "v")}


def _close(got, want, tol=1e-9) -> bool:
    scale = max(1.0, max(abs(w) for w in want))
    return all(abs(g - w) <= tol * scale for g, w in zip(got, want))


def _check_numeric(req, out: Outcome) -> Verdict:
    task = req.cls.split(".", 1)[1]
    params = req.params
    if out.rc != 0:
        return _fail(_describe(out))
    if task == "residual":
        try:
            d = json.loads(out.stdout)
            rel, order = float(d["residual"]), float(d["order"])
        except (ValueError, KeyError, TypeError):
            return _fail("residual output is not JSON")
        if (d.get("form"), d.get("nodes")) != (params["form"],
                                               params["nodes"]):
            return _fail("echoed form or nodes differ")
        if rel <= RESIDUAL_MAX and ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
            return PASS
        reason = f"residual {rel:.3g}, order {order:.3g}"
        if params["preset"].startswith("hypergeom") and params["form"] == "y":
            return _fail(reason, "numeric.hypergeom_y_residual")
        return _fail(reason)
    try:
        header, cols, n = _read_csv(out.stdout)
    except (ValueError, IndexError):
        return _fail("output is not a numeric CSV")
    if header != NUMERIC_COLUMNS[task] or n != params["nodes"]:
        return _fail(f"CSV shape {header} x {n}")
    if not all(math.isfinite(v) for col in cols.values() for v in col):
        return _fail("non-finite values")
    for name in MAP_COLUMNS[task]:
        if not _monotone(cols[name]):
            return _fail(f"column {name} not strictly monotone")
    pq, x = req.pq, cols["x"]
    if task == "sl1":
        # U = -p W0' + W0^2 with W0 = (p' - q)/2 (R = E = Lambda = 0)
        w0 = pscale(padd(pderiv(pq.p), pscale(pq.q, -1)), Fraction(1, 2))
        u = padd(pscale(pmul(pq.p, pderiv(w0)), -1), pmul(w0, w0))
        if not _close(cols["U"], [peval(u, t) for t in x]):
            return _fail("U differs from -p W0' + W0^2")
    if task == "sl2":
        k = padd(pq.q, pscale(pderiv(pq.p), Fraction(-1, 2)))
        want = [-peval(k, t) / (2.0 * math.sqrt(abs(peval(pq.p, t))))
                for t in x]
        if not _close(cols["W_rho"], want):
            return _fail("W_rho differs from -(q - p'/2)/(2 sqrt p)")
    return PASS


def _check_orthogonality(req, out: Outcome) -> Verdict:
    if out.exc:
        return _fail(_describe(out))
    g = out.value
    n = req.params["nmax"] + 1
    if len(g) != n or any(len(row) != n for row in g):
        return _fail("Gram matrix has the wrong shape")
    d = [math.sqrt(abs(g[i][i])) for i in range(n)]
    if not all(v > 0 and math.isfinite(v) for v in d):
        return _fail("degenerate diagonal")
    worst = max(abs(g[i][j]) / (d[i] * d[j])
                for i in range(n) for j in range(n) if i != j)
    if worst > ORTHOGONALITY_MAX:
        return _fail(f"off-diagonal {worst:.3g}")
    return PASS


def judge(req, out: Outcome) -> Verdict:
    cmd = req.command
    if cmd == "verify":
        return _check_verify(req, out)
    if cmd == "eigenfunction":
        return _check_eigenfunction(req, out)
    if cmd == "factorize":
        return _check_factorize(req, out)
    if cmd == "classify":
        return _check_classify(req, out)
    if cmd == "numeric":
        return _check_numeric(req, out)
    return _check_orthogonality(req, out)


_FRACTION = re.compile(r"-?\d+(/\d+)?$")


def coeff_bits(stdout: str) -> int:
    """Largest numerator or denominator bit length among the exact values
    of a JSON output (0 for other outputs)."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return 0
    best, todo = 0, [data]
    while todo:
        v = todo.pop()
        if isinstance(v, dict):
            todo.extend(v.values())
        elif isinstance(v, list):
            todo.extend(v)
        elif isinstance(v, str) and _FRACTION.match(v):
            f = Fraction(v)
            best = max(best, abs(f.numerator).bit_length(),
                       f.denominator.bit_length())
    return best
