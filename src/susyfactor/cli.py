"""Command-line front end: factorize, eigenfunction, verify, numeric, classify.

Exact values serialize as fraction strings ("n/d"); floats carry 17
significant digits.  Exit codes: 0 success, 1 failed identity, 2
input/domain error (breakdown, range, singular grid, unparsable input,
an unreadable or unwritable file).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

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


def _family_problem(spec: str) -> Problem:
    name, _, argstr = spec.partition(":")
    args = [_fraction(tok) for tok in argstr.split(",")] if argstr else []
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
    raise ValueError(f"unknown family {spec!r}")


def _problem_from_args(args) -> Problem:
    if getattr(args, "family", None):
        return _family_problem(args.family)
    if args.p is None or args.q is None:
        raise ValueError("provide --family or both --p and --q")
    return Problem(_parse_poly(args.p), _parse_poly(args.q))


def _entry_record(e: principal.FactorEntry) -> dict:
    return {"branch": e.branch, "l": e.level, "alpha": _fmt(e.alpha),
            "beta": _fmt(e.beta), "delta": _fmt(e.delta), "E": _fmt(e.E),
            "lambda": _fmt(e.lam)}


def _emit(obj, args):
    text = json.dumps(obj, indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(header, columns, args):
    """One CSV row per node; each column is formatted at once, with the
    same 17 significant digits as _fmt."""
    out = open(args.output, "w", newline="") if getattr(args, "output", None) \
        else sys.stdout
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(zip(*(map("%.17g".__mod__, col.tolist())
                           for col in columns)))
    if out is not sys.stdout:
        out.close()


def cmd_factorize(args) -> int:
    prob = _problem_from_args(args)
    branches = ["minus", "plus"] if args.branch == "both" else [args.branch]
    report = {"entries": [], "direct_match": None}
    tables = []
    for branch in branches:
        try:
            table = principal.factor_table(prob, branch, args.levels)
        except principal.Breakdown as ex:
            table = principal.factor_table(prob, branch, ex.level - 1)
            report["entries"] += [_entry_record(e) for e in table]
            _emit(report, args)
            print(json.dumps({"error": "breakdown", "level": ex.level,
                              "branch": branch}), file=sys.stderr)
            return 2
        tables.append(table)
        report["entries"] += [_entry_record(e) for e in table]
    try:
        closed = {(e.branch, e.level): e
                  for e in principal.direct_match_table(prob, args.levels)}
        report["direct_match"] = all(
            closed[(e.branch, e.level)] == e
            for table in tables for e in table)
    except principal.Breakdown:
        report["direct_match"] = None
    _emit(report, args)
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
    value = built.value
    ratio = value.proportional(other.value, prob)
    _emit({"l": l, "m": m, "form": form,
           "coefficients": [_fmt(c) for c in value.c.coeffs],
           "s": _fmt(value.s), "normsq": _fmt(built.normsq),
           "proportional_to_alternate": ratio is not None,
           "ratio": _fmt(ratio) if ratio is not None else None}, args)
    return 0


def _verify_suite(prob: Problem, levels: int, perturb: Fraction) -> dict:
    """Every identity at levels 0..levels, all read from one context."""
    if levels < 0:
        raise ValueError(f"--levels must be >= 0, got {levels}")
    checks: dict[str, bool] = {}
    collapses = degenerate.detect(prob).is_degenerate
    top = max(levels + 1, degenerate.COLLAPSE_DEPTH) if collapses \
        else levels + 1
    lad = principal.Ladders(prob, top)
    minus, plus = lad.table("minus"), lad.table("plus")

    def sic(branch, l):
        res = principal.shape_invariance_check(prob, branch, l, lad)
        if perturb:
            res = res.add(DiffOp.mul_by(perturb), prob)
        return res.is_zero()

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
        checks[f"equivalent_forms_{l}"] = all(
            principal.equivalent_forms_check(prob, l, lad).values())
        if l <= 4:
            checks[f"standard_hermitian_{l}"] = \
                associated.standard_hermitian_relation(prob, l, lad)
        checks[f"assoc_shape_invariance_{l + 1}"] = \
            associated.assoc_shape_invariance(prob, l + 1, lad).is_zero()
        for m in range(l + 1):
            checks[f"associated_{l}_{m}"] = all(
                associated.verify_associated(prob, l, m, lad).values())
            checks[f"pHm_{l}_{m}"] = \
                associated.pHm_factorization(prob, l, m, lad)[2]
    if collapses:
        for l in range(levels + 1):
            for m in range(l + 1):
                checks[f"collapse_{l}_{m}"] = all(degenerate.collapse_check(
                    prob, l, m, lad=lad).values())
    return checks


def cmd_verify(args) -> int:
    prob = _problem_from_args(args)
    perturb = _fraction(args.perturb_delta) if args.perturb_delta \
        else Fraction(0)
    checks = _verify_suite(prob, args.levels, perturb)
    ok = all(checks.values())
    _emit({"checks": checks, "all_pass": ok}, args)
    return 0 if ok else 1


def _grid_from_args(prob, args):
    from . import numeric
    if args.lo is not None and args.hi is not None:
        lo, hi = args.lo, args.hi
    else:
        lo, hi = numeric._natural_domain(prob)
        width = hi - lo
        lo, hi = lo + args.inset * width, hi - args.inset * width
    return numeric.Grid.uniform(lo, hi, args.nodes)


def _read_pqr_csv(path):
    import numpy as np
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or any(None in map(r.get, "xPQR") for r in rows):
        raise ValueError(f"--csv {path}: need rows with columns x,P,Q,R")
    x, *cols = (np.array([float(r[key]) for r in rows]) for key in "xPQR")
    P, Q, R = (lambda t, vv=vals: np.interp(t, x, vv) for vals in cols)
    return x, P, Q, R


def cmd_numeric(args) -> int:
    from . import numeric
    task = args.task
    if task == "residual":
        rel, order = numeric.schrodinger_residual(
            _problem_from_args(args), args.l, args.m, nodes=args.nodes,
            form=args.form, inset=args.inset)
        _emit({"residual": rel, "order": order, "form": args.form,
               "nodes": args.nodes}, args)
        return 0
    if task in ("sl1", "sl2", "slcheck") and args.csv:
        x, P, Q, R = _read_pqr_csv(args.csv)
        grid = numeric.Grid(x, float(x[0]), float(x[-1]))
        prob = None
    else:
        prob = _problem_from_args(args)
        grid = _grid_from_args(prob, args)
        P, Q, R = prob.p, prob.q, Poly([])
    if task == "maps":
        y, z = numeric.coordinate_maps(prob, grid)
        _emit_csv(["x", "y", "z"], (grid.nodes, y, z), args)
    elif task == "potentials":
        prof = numeric.potentials(prob, args.l, args.m, grid)
        _emit_csv(["x", "w", "y", "z", "W_l", "V_l", "V_s_l", "W_a_m",
                   "V_a_m", "psi_l", "s_phi_lm"],
                  (grid.nodes, prof.w, prof.y, prof.z, prof.W_l,
                   prof.V_l, prof.V_s_l, prof.W_a_m, prof.V_a_m,
                   prof.psi_l, prof.s_phi_lm), args)
    elif task == "sl1":
        out = numeric.sl_transform_typeI(P, Q, R, grid, E=args.energy,
                                         Lambda=args.eigenvalue)
        _emit_csv(["x", "rho", "G", "U", "u"],
                  (grid.nodes, out["rho"], out["G"], out["U"], out["u"]),
                  args)
    elif task == "sl2":
        out = numeric.sl_transform_typeII(P, Q, R, grid)
        _emit_csv(["x", "W_rho", "V_rho", "v"],
                  (grid.nodes, out["W_rho"], out["V_rho"], out["v"]),
                  args)
    elif task == "slcheck":
        q1 = _parse_poly(args.q1) if args.q1 else Poly([])
        res = numeric.sl_full_susy_residual(P, Q, R, q1, args.lambda1, grid)
        _emit({"residual": res}, args)
    else:
        raise ValueError(f"unknown numeric task {task!r}")
    return 0


def cmd_classify(args) -> int:
    prob = _problem_from_args(args)
    rep = degenerate.detect(prob)
    out = {"degenerate": rep.is_degenerate, "subcase": rep.subcase,
           "scaling": [_fmt(v) for v in rep.scaling] if rep.scaling else None}
    if args.l is not None:
        m = args.m or 0
        ham = associated.assoc_hamiltonian(prob, m)
        lam = associated.assoc_lambda(prob, args.l, m)
        op = ham.sub(DiffOp.mul_by(lam), prob)
        got_prob, got_m, got_l, got_lam = associated.classify_expanded(op)
        out["round_trip"] = {"m": got_m, "l": got_l, "lambda": _fmt(got_lam),
                             "match": (got_m, got_l) == (m, args.l)}
    _emit(out, args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="susyfactor",
        description="Exact factorization engine for hypergeometric-like "
                    "differential operators.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", help="p coefficients, highest degree first")
        p.add_argument("--q", help="q coefficients, highest degree first")
        p.add_argument("--family",
                       help="legendre | jacobi:a,b | laguerre:a | hermite | "
                            "hypergeom:a,b,c | confluent:m")
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
    n.add_argument("--l", type=int, default=0)
    n.add_argument("--m", type=int, default=0)
    n.add_argument("--form", choices=["y", "z"], default="y")
    n.add_argument("--nodes", type=int, default=500)
    n.add_argument("--lo", type=float)
    n.add_argument("--hi", type=float)
    n.add_argument("--inset", type=float, default=1e-3)
    n.add_argument("--csv", help="sampled P,Q,R input (columns x,P,Q,R)")
    n.add_argument("--q1", help="candidate Q1 polynomial for slcheck")
    n.add_argument("--lambda1", type=float, default=0.0)
    n.add_argument("--energy", type=float, default=0.0)
    n.add_argument("--eigenvalue", type=float, default=0.0)
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
    args = _build_parser().parse_args(_merge_negative_values(argv))
    try:
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
