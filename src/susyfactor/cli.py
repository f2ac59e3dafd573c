"""Command-line front end: factorize, eigenfunction, verify, numeric, classify.

Exact values serialize as fraction strings ("n/d"); floats carry 17
significant digits.  Exit codes: 0 success, 1 failed identity, 2
input/domain error (breakdown, range, singular grid, unparsable input or
arguments, an unreadable or unwritable file), each with one JSON object
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from math import gcd

from .core import Poly, Problem
from .diffop import DiffOp
from . import associated, degenerate, principal


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _fraction(text: str) -> Fraction:
    """An exact rational from user input; a zero denominator is bad input."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def _parse_poly(text: str) -> Poly:
    """Comma-separated rational coefficients, highest degree first."""
    coeffs = [_fraction(tok) for tok in text.split(",")]
    return Poly(list(reversed(coeffs)))


# each family's --family spelling, which fixes its parameter count
_FAMILIES = {"legendre": "legendre", "jacobi": "jacobi:a,b",
             "laguerre": "laguerre:a", "hermite": "hermite",
             "hypergeom": "hypergeom:a,b,c", "confluent": "confluent:m"}


def _family_problem(spec: str) -> Problem:
    name, _, argstr = spec.partition(":")
    args = [_fraction(tok) for tok in argstr.split(",")] if argstr else []
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {spec!r}")
    params = _FAMILIES[name].partition(":")[2]
    want = len(params.split(",")) if params else 0
    if len(args) != want:
        raise ValueError(f"family {spec!r}: expected {_FAMILIES[name]}, "
                         f"with {want} parameter{'' if want == 1 else 's'}")
    x = Poly.x()
    if name == "legendre":
        return Problem(Poly([1, 0, -1]), Poly([0, -2]))
    if name == "jacobi":
        a, b = args
        return Problem(Poly([1, 0, -1]), Poly([b - a, -(a + b + 2)]))
    if name == "laguerre":
        (a,) = args
        return Problem(x, Poly([a + 1, -1]))
    if name == "hermite":
        return Problem(Poly([1]), Poly([0, -2]))
    if name == "hypergeom":
        a, b, c = args
        return Problem(Poly([0, -1, 1]), Poly([-c, a + b + 1]))
    if name == "confluent":
        (m,) = args
        return Problem(x, Poly([m, -1]))


def _problem_from_args(args) -> Problem:
    if getattr(args, "family", None):
        return _family_problem(args.family)
    if args.p is None or args.q is None:
        raise ValueError("provide --family or both --p and --q")
    return Problem(_parse_poly(args.p), _parse_poly(args.q))


# One factorize entry as json.dumps(..., indent=2) prints it.  Every value
# is a branch name, a level or a fraction string made of digits, "-" and
# "/", so none needs JSON escaping.
_ENTRY_JSON = ('    {\n      "branch": "%s",\n      "l": %d,\n'
               '      "alpha": "%s",\n      "beta": "%s",\n'
               '      "delta": "%s",\n      "E": "%s",\n'
               '      "lambda": "%s"\n    }')


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, with one gcd."""
    g = gcd(n, d)
    return f"{n // g}" if g == d else f"{n // g}/{d // g}"


def _entry_rows(prob: Problem, branch: str, records) -> list[str]:
    """Each record's entry as _ENTRY_JSON, read off principal.record_fields,
    the lowest level first."""
    return [_ENTRY_JSON % (branch, l, _ratio(*alpha), _ratio(*beta),
                           _ratio(*delta), _ratio(*E), _ratio(*lam))
            for l, (alpha, beta, delta, E, lam)
            in enumerate(principal.record_fields(prob, records),
                         principal.lowest_level(branch))]


def _factorize_json(rows, match) -> str:
    """json.dumps({"entries": entries, "direct_match": match}, indent=2)
    for the nonempty list of the entries' _entry_rows."""
    return '{\n  "entries": [\n%s\n  ],\n  "direct_match": %s\n}' % (
        ",\n".join(rows), json.dumps(match))


def _write(text, args):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(obj, args):
    _write(json.dumps(obj, indent=2), args)


def _emit_csv(header, columns, args):
    """A header row, then one row of `%.17g` values per node (as _fmt), comma
    separated, ending in "\\r\\n"; one `%` per row, one write of the text."""
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    text = ",".join(header) + "\r\n" + "".join(
        map(row.__mod__, zip(*(col.tolist() for col in columns))))
    if getattr(args, "output", None):
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_factorize(args) -> int:
    """Each branch's recurrence table, checked against its closed forms by
    comparing the integer records, and printed straight from the records:
    no Fraction is built."""
    prob = _problem_from_args(args)
    branches = ["minus", "plus"] if args.branch == "both" else [args.branch]
    rows, match = [], True
    for branch in branches:
        try:
            records = principal.ladder_records(prob, branch, args.levels)
        except principal.Breakdown as ex:
            rows += _entry_rows(prob, branch, ex.records)
            _write(_factorize_json(rows, None), args)
            print(json.dumps({"error": "breakdown", "level": ex.level,
                              "branch": branch}), file=sys.stderr)
            return 2
        rows += _entry_rows(prob, branch, records)
        match = match and records == principal.closed_form_records(
            prob, branch, args.levels)
    _write(_factorize_json(rows, match), args)
    return 0


def cmd_eigenfunction(args) -> int:
    prob = _problem_from_args(args)
    l, m = args.l, args.m
    form = args.form
    if form == "ladder" and m != 0:
        form = "bottomup"
    if form == "rodrigues" and m != 0:
        form = "topdown"
    # at m = 0 the ladder form is the bottom-up one and the Rodrigues form
    # the top-down one; bottom-up goes first, as it is the one that raises
    # (and checks) Phi_l, and top-down reads its norm from the same context
    lad = principal.Ladders(prob, max(l, 0))
    built = associated.assoc_bottom_up(prob, l, m, lad)
    other = associated.assoc_top_down(prob, l, m, lad)
    if form in ("topdown", "rodrigues"):
        built, other = other, built
    ratio = associated.proportional(built, other, prob)
    _emit({"l": l, "m": m, "form": form,
           "coefficients": [_fmt(c) for c in built.coeff(0).coeffs],
           "s": _fmt(built.k),
           "normsq": _fmt(associated.assoc_normsq(prob, l, m, lad)),
           "proportional_to_alternate": ratio is not None,
           "ratio": _fmt(ratio) if ratio is not None else None}, args)
    return 0


def _verify_residuals(prob: Problem, levels: int, perturb: Fraction
                      ) -> dict:
    """The residuals of every identity at levels 0..levels, all read from
    one context: per check, one DiffOp or a dict of them."""
    if levels < 0:
        raise ValueError(f"--levels must be >= 0, got {levels}")
    checks: dict = {}
    collapses = degenerate.detect(prob).is_degenerate
    top = max(levels + 1, degenerate.COLLAPSE_DEPTH) if collapses \
        else levels + 1
    lad = principal.Ladders(prob, top)
    # both branches' records first, minus before plus, so that an
    # ill-posed problem names the same Breakdown whichever check runs first
    for branch in ("minus", "plus"):
        lad.records(branch)

    def sic(branch, l):
        res = principal.shape_invariance_check(prob, branch, l, lad)
        return res.add(DiffOp([perturb]), prob) if perturb else res

    for l in range(levels + 1):
        if l >= 1:
            checks[f"shape_invariance_minus_{l}"] = sic("minus", l)
        checks[f"shape_invariance_plus_{l}"] = sic("plus", l)
        checks[f"symmetry_{l}"] = principal.symmetry_check(prob, l, lad)
        checks[f"three_term_{l}"] = principal.three_term_check(prob, l, lad)
        checks[f"equivalent_forms_{l}"] = \
            principal.equivalent_forms_check(prob, l, lad)
        if l <= 4:
            checks[f"standard_hermitian_{l}"] = \
                associated.standard_hermitian_relation(prob, l, lad)
        checks[f"assoc_shape_invariance_{l + 1}"] = \
            associated.assoc_shape_invariance(prob, l + 1, lad)
        for m in range(l + 1):
            checks[f"associated_{l}_{m}"] = \
                associated.verify_associated(prob, l, m, lad)
            checks[f"pHm_{l}_{m}"] = \
                associated.pHm_factorization(prob, l, m, lad)[2]
    if collapses:
        for l in range(levels + 1):
            for m in range(l + 1):
                checks[f"collapse_{l}_{m}"] = degenerate.collapse_check(
                    prob, l, m, lad=lad)
    return checks


def _verify_suite(prob: Problem, levels: int, perturb: Fraction) -> dict:
    """Each check of _verify_residuals, passed only when every one of its
    residuals is zero."""
    return {name: all(r.is_zero() for r in res.values())
            if isinstance(res, dict) else res.is_zero()
            for name, res in _verify_residuals(prob, levels, perturb).items()}


def cmd_verify(args) -> int:
    prob = _problem_from_args(args)
    perturb = _fraction(args.perturb_delta) if args.perturb_delta \
        else Fraction(0)
    checks = _verify_suite(prob, args.levels, perturb)
    ok = all(checks.values())
    _emit({"checks": checks, "all_pass": ok}, args)
    return 0 if ok else 1


def _grid_from_args(prob, args):
    """--nodes evenly spaced nodes from --lo to --hi, or over the natural
    domain less the share --inset of its width at each end."""
    import numpy as np
    from . import numeric
    if args.lo is not None:
        lo, hi = args.lo, args.hi
    else:
        numeric._check_inset(args.inset)
        lo, hi = numeric._natural_domain(prob)
        width = hi - lo
        lo, hi = lo + args.inset * width, hi - args.inset * width
    if not lo < hi:
        raise ValueError("need lo < hi")
    if args.nodes < 1:
        raise ValueError(f"nodes (--nodes) must be >= 1, got {args.nodes}")
    return np.linspace(lo, hi, args.nodes)


def _read_pqr_csv(path):
    import numpy as np
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or any(None in map(r.get, "xPQR") for r in rows):
        raise ValueError(f"--csv {path}: need rows with columns x,P,Q,R")
    x, P, Q, R = (np.array([float(r[key]) for r in rows]) for key in "xPQR")
    for key, col in zip("xPQR", (x, P, Q, R)):
        if not np.isfinite(col).all():
            raise ValueError(f"--csv {path}: column {key} holds a value "
                             f"that is not finite")
    # second-order differences of the samples need three increasing nodes
    if len(x) < 3 or not np.all(np.diff(x) > 0):
        raise ValueError(f"--csv {path}: need 3 or more rows with "
                         f"increasing x")
    return x, P, Q, R


# The flags each numeric task reads besides --output and its input: a
# problem (--family, or --p and --q) on --nodes nodes over --lo to --hi or
# over the natural domain less --inset, or for sl1, sl2 and slcheck, the
# samples of --csv.  A flag left out takes its default once every given
# flag is known to be read.
_NUMERIC_FLAGS = {"maps": (), "potentials": ("l", "m"),
                  "residual": ("l", "m", "form"),
                  "sl1": ("energy", "eigenvalue"), "sl2": (),
                  "slcheck": ("q1", "lambda1")}
_NUMERIC_DEFAULTS = {"l": 0, "m": 0, "form": "y", "nodes": 500,
                     "inset": 1e-3, "lambda1": 0.0, "energy": 0.0,
                     "eigenvalue": 0.0}


def _check_numeric_flags(args) -> None:
    """ValueError naming the first flag given that args.task does not read
    on its input; then the defaults of the flags left out."""
    task = args.task
    reads = {"command", "task", "fn", "output", *_NUMERIC_FLAGS[task]}
    if args.csv is not None and task in ("sl1", "sl2", "slcheck"):
        reads.add("csv")
        where = " on --csv input"
    else:
        reads |= {"family", "p", "q", "nodes"}
        given = args.lo is not None or args.hi is not None
        if given and task != "residual":
            reads |= {"lo", "hi"}
            where = " on --lo/--hi"
        else:
            reads.add("inset")
            where = ""
    for name, value in vars(args).items():
        if value is not None and name not in reads:
            raise ValueError(f"numeric {task}{where} reads no --{name}")
    if (args.lo is None) != (args.hi is None):
        raise ValueError("give --lo and --hi together")
    for name, value in _NUMERIC_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def cmd_numeric(args) -> int:
    from . import numeric
    _check_numeric_flags(args)
    task = args.task
    if task == "residual":
        rel, order = numeric.schrodinger_residual(
            _problem_from_args(args), args.l, args.m, nodes=args.nodes,
            form=args.form, inset=args.inset)
        _emit({"residual": rel, "order": order, "form": args.form,
               "nodes": args.nodes}, args)
        return 0
    if args.csv is not None:
        x, P, Q, R = _read_pqr_csv(args.csv)
        prob = None
    else:
        prob = _problem_from_args(args)
        x = _grid_from_args(prob, args)
        P, Q, R = prob.p, prob.q, Poly([])
    if task == "slcheck":
        q1 = _parse_poly(args.q1) if args.q1 else Poly([])
        res = numeric.sl_full_susy_residual(P, Q, R, q1, args.lambda1, x)
        _emit({"residual": res}, args)
        return 0
    # each task's columns, in CSV order, by name
    if task == "maps":
        out = dict(zip("yz", numeric.coordinate_maps(prob, x)))
    elif task == "potentials":
        out = numeric.potentials(prob, args.l, args.m, x)
    elif task == "sl1":
        out = numeric.sl_transform_typeI(P, Q, R, x, E=args.energy,
                                         Lambda=args.eigenvalue)
    else:
        out = numeric.sl_transform_typeII(P, Q, R, x)
    _emit_csv(["x", *out], (x, *out.values()), args)
    return 0


def cmd_classify(args) -> int:
    if args.m is not None and args.l is None:
        raise ValueError("classify reads --m only together with --l")
    prob = _problem_from_args(args)
    rep = degenerate.detect(prob)
    out = {"degenerate": rep.is_degenerate, "subcase": rep.subcase,
           "scaling": [_fmt(v) for v in rep.scaling] if rep.scaling else None}
    if args.l is not None:
        m = args.m or 0
        associated._check_range(args.l, m)
        ham = associated.assoc_hamiltonian(prob, m)
        lam = associated.assoc_lambda(prob, args.l, m)
        got_prob, got_m, got_l, got_lam = associated.classify_expanded(
            ham.sub(DiffOp([lam]), prob), prob.p)
        out["round_trip"] = {"m": got_m, "l": got_l, "lambda": _fmt(got_lam),
                             "match": (got_m, got_l) == (abs(m), args.l)}
    _emit(out, args)
    return 0


class UsageError(ValueError):
    """Arguments the parser rejected."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError, so that main
    reports them as JSON on stderr; its subparsers are of this class too."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="susyfactor",
        description="Exact factorization engine for hypergeometric-like "
                    "differential operators.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", help="p coefficients, highest degree first")
        p.add_argument("--q", help="q coefficients, highest degree first")
        p.add_argument("--family",
                       help=" | ".join(_FAMILIES.values()))
        p.add_argument("--output", help="write result to this path")

    f = sub.add_parser("factorize", help="build a branch factor table")
    common(f)
    f.add_argument("--levels", type=int, default=5)
    f.add_argument("--branch", choices=["minus", "plus", "both"],
                   default="minus")
    f.set_defaults(fn=cmd_factorize)

    e = sub.add_parser("eigenfunction", help="generate an eigenfunction")
    common(e)
    e.add_argument("--l", type=int, required=True)
    e.add_argument("--m", type=int, default=0)
    e.add_argument("--form",
                   choices=["ladder", "rodrigues", "topdown", "bottomup"],
                   default="ladder")
    e.set_defaults(fn=cmd_eigenfunction)

    v = sub.add_parser("verify", help="run the identity suite")
    common(v)
    v.add_argument("--levels", type=int, default=4)
    v.add_argument("--perturb-delta", dest="perturb_delta",
                   help="inject a constant into the shape-invariance "
                        "residuals (negative control)")
    v.set_defaults(fn=cmd_verify)

    n = sub.add_parser("numeric", help="numeric profiles and residuals")
    common(n)
    n.add_argument("task", choices=["maps", "potentials", "residual",
                                    "sl1", "sl2", "slcheck"])
    # defaults: _NUMERIC_DEFAULTS, applied by _check_numeric_flags
    n.add_argument("--l", type=int, help="default 0")
    n.add_argument("--m", type=int, help="default 0")
    n.add_argument("--form", choices=["y", "z"], help="default y")
    n.add_argument("--nodes", type=int, help="default 500")
    n.add_argument("--lo", type=float)
    n.add_argument("--hi", type=float)
    n.add_argument("--inset", type=float,
                   help="without --lo/--hi, the share of the natural "
                        "domain's width cut off at each end, in [0, 1/2); "
                        "default 1e-3")
    n.add_argument("--csv", help="sampled P,Q,R input (columns x,P,Q,R)")
    n.add_argument("--q1", help="candidate Q1 polynomial for slcheck")
    n.add_argument("--lambda1", type=float, help="default 0")
    n.add_argument("--energy", type=float, help="default 0")
    n.add_argument("--eigenvalue", type=float, help="default 0")
    n.set_defaults(fn=cmd_numeric)

    c = sub.add_parser("classify", help="degeneracy report and operator "
                                        "round trip")
    common(c)
    c.add_argument("--l", type=int)
    c.add_argument("--m", type=int)
    c.set_defaults(fn=cmd_classify)
    return top


_VALUE_FLAGS = {"--p", "--q", "--q1", "--perturb-delta", "--lo", "--hi",
                "--lambda1", "--energy", "--eigenvalue", "--m", "--l"}


def _merge_negative_values(argv):
    """Let values like '-1,0,1' follow their flag without an '=' sign."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_merge_negative_values(argv))
        return args.fn(args)
    except principal.Breakdown as ex:
        print(json.dumps({"error": "breakdown", "level": ex.level}),
              file=sys.stderr)
        return 2
    except (principal.DegreeError, ValueError, OSError) as ex:
        print(json.dumps({"error": type(ex).__name__, "message": str(ex)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
