"""Every check can still fail: each one-line mutant of the program's
builders is caught by the verify suite, and these tests pin which checks
catch it.

Each mutant is applied to a copy of src/ under tmp_path (the checkout is
never edited) and run in its own subprocess, one at a time: the verify
suite's residuals at level 6 on the six presets, and the eigenfunction
command's cross-check of the bottom-up form against the top-down one,
which is the only check that reads assoc_top_down.  A failing check is
named family.key, with the levels dropped (associated_3_1's
sign_relation is associated.sign_relation); an exception is raised.Name.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# run with -I -S: sys.argv[1] is the mutated src/; prints the sorted names
# of the failing checks
WORKER = r"""
import json, re, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from susyfactor import associated, cli, principal

def family(name):
    return re.sub(r"(_\d+)+$", "", name)

failed = set()
for spec in ("legendre", "jacobi:2,3", "laguerre:1", "hermite",
             "hypergeom:1/3,1/5,7/2", "confluent:3"):
    prob = cli._family_problem(spec)
    try:
        res = cli._verify_residuals(prob, 6, Fraction(0))
        for name, r in res.items():
            rs = r.items() if isinstance(r, dict) else [("", r)]
            failed.update(".".join(filter(None, (family(name), family(k))))
                          for k, v in rs if not v.is_zero())
        for l in range(7):
            lad = principal.Ladders(prob, l)
            for m in range(-l, l + 1):
                up = associated.assoc_bottom_up(prob, l, m, lad)
                down = associated.assoc_top_down(prob, l, m, lad)
                if associated.proportional(up, down, prob) is None:
                    failed.add("eigenfunction.proportional_to_alternate")
    except Exception as ex:
        failed.add("raised." + type(ex).__name__)
print(json.dumps(sorted(failed)))
"""

# name: (module, text as it stands, its mutant, the checks that fail)
MUTANTS = {
    # assoc_bottom_up: Phi_{l,-m} loses its (-1)^m
    "bottom_up_sign": (
        "associated", "sign = -1 if m < 0 and am % 2 else 1", "sign = 1",
        ["associated.sign_relation"]),
    # assoc_ladders, m < 0: either ladder loses its sign
    "descending_raise_sign": (
        "associated", "return hi.scale(-1), lo.scale(-1)",
        "return hi, lo.scale(-1)", ["associated.negative_level"]),
    "descending_lower_sign": (
        "associated", "return hi.scale(-1), lo.scale(-1)",
        "return hi.scale(-1), lo", ["associated.negative_level"]),
    # assoc_ladders: 2 h_m and h_m^dagger / 2 leave every product as it is
    "ladder_scale": (
        "associated", "return lower, raise_",
        "return lower.scale(2), raise_.scale(Fraction(1, 2))",
        ["associated.momentum_map"]),
    # ladder_records
    "plus_lambda_step": (
        "principal", "L += 2 * a if s == 1 else -2 * a_prev",
        "L += 2 * a if s == 1 else -2 * a", ["symmetry.lambda"]),
    "minus_lambda_step": (
        "principal", "L += 2 * a if s == 1 else -2 * a_prev",
        "L += 2 * a_prev if s == 1 else -2 * a_prev",
        ["equivalent_forms.partial_conjugation",
         "equivalent_forms.partner_eigenvalue", "standard_hermitian",
         "symmetry.lambda"]),
    "beta_step": (
        "principal", "B -= s * P1 * (a + a_prev)",
        "B -= s * P1 * (a - a_prev)",
        ["associated.eigen_equation",
         "eigenfunction.proportional_to_alternate",
         "equivalent_forms.partial_conjugation",
         "equivalent_forms.partner_eigenvalue", "pHm", "raised.Breakdown",
         "shape_invariance_minus", "shape_invariance_plus",
         "standard_hermitian", "three_term.differential",
         "three_term.multiplicative"]),
    "energy_step": (
        "principal", "Y += 2 * s * P0 * (a + a_prev)",
        "Y += 2 * s * P0 * a",
        ["equivalent_forms.partial_conjugation", "pHm",
         "shape_invariance_minus", "shape_invariance_plus",
         "standard_hermitian", "three_term.differential",
         "three_term.multiplicative"]),
    # assoc_hamiltonian
    "hamiltonian_pp_term": (
        "associated", "[m * P2 * c for c in p2]", "[m * P1 * c for c in p2]",
        ["associated.eigen_equation", "associated.negative_level",
         "associated.operator_expansion", "pHm"]),
    "hamiltonian_first_order": (
        "associated", "int_mul_add([], [-2 * Q0, -2 * Q1], p2)",
        "int_mul_add([], [-2 * Q0, 2 * Q1], p2)",
        ["associated.eigen_equation", "associated.negative_level",
         "associated.operator_expansion", "pHm"]),
    # assoc_top_down
    "rodrigues_step": (
        "associated", "2 * (r * P2 + Q1)))", "2 * (r * P2 - Q1)))",
        ["eigenfunction.proportional_to_alternate"]),
    "rodrigues_exponent": (
        "associated", "return f._at(f.h - am)", "return f._at(f.h)",
        ["eigenfunction.proportional_to_alternate"]),
    # pHm_factorization
    "pHm_shift": (
        "associated", "m * (P1 * Q1 - P2 * Q0)", "m * (P1 * Q1 + P2 * Q0)",
        ["pHm"]),
    "pHm_energy": (
        "associated", "(2 * Q1 + (m - 2) * P2)", "(2 * Q1 + (m - 1) * P2)",
        ["pHm"]),
    "pHm_cross_term": (
        "associated", "row[i] -= 2 * C[0] * n * sd * fp",
        "row[i] -= C[0] * n * sd * fp", ["pHm"]),
    # hypergeom_like_hl
    "hl_first_order": (
        "principal", "4 * D * wn[1] - 2 * wd * P2]",
        "4 * D * wn[1] - wd * P2]",
        ["equivalent_forms.h0_vs_hl",
         "equivalent_forms.partial_conjugation"]),
    # hamiltonian
    "h0_first_order": (
        "diffop", "[-2 * Q0, -2 * Q1]", "[-2 * Q0, -Q1]",
        ["equivalent_forms.h0_vs_hl",
         "equivalent_forms.partial_conjugation", "standard_hermitian"]),
}

# mutants that give the same program, so no check can catch them
EQUIVALENT = {
    # m % 2 == |m| % 2 for every int m, as Python's % is never negative
    "bottom_up_sign_parity": (
        "associated", "sign = -1 if m < 0 and am % 2 else 1",
        "sign = -1 if m < 0 and m % 2 else 1"),
}


def _mutate(tmp_path, module, line, mutant) -> Path:
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "susyfactor" / f"{module}.py"
    text = path.read_text()
    assert text.count(line) == 1, f"{line!r} is not one line of {module}"
    path.write_text(text.replace(line, mutant))
    return src


def _failed(src: Path) -> list[str]:
    out = subprocess.run([sys.executable, "-I", "-S", "-c", WORKER, str(src)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_the_program_fails_no_check():
    assert _failed(SRC) == []


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_mutant_fails_its_checks(tmp_path, name):
    module, line, mutant, caught = MUTANTS[name]
    assert _failed(_mutate(tmp_path, module, line, mutant)) == caught


@pytest.mark.parametrize("name", list(EQUIVALENT))
def test_equivalent_mutants_apply(tmp_path, name):
    # an equivalent mutant still names one line of the program, so the
    # exclusion stays tied to the code it describes
    _mutate(tmp_path, *EQUIVALENT[name])
