import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from susyfactor import cli


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "susyfactor.cli", *args],
                          capture_output=True, text=True, **kw)


def test_factorize_legendre_minus():
    r = run_cli("factorize", "--p", "-1,0,1", "--q", "-2,0",
                "--levels", "5", "--branch", "minus")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert [e["lambda"] for e in out["entries"]] == \
        ["0", "2", "6", "12", "20", "30"]
    assert out["direct_match"] is True


def test_factorize_fraction_coefficients():
    r = run_cli("factorize", "--family", "jacobi:1/2,1/2", "--levels", "3",
                "--branch", "both")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    minus = [e for e in out["entries"] if e["branch"] == "minus"]
    # lambda_n = n(n + alpha + beta + 1) = n(n + 2)
    assert [e["lambda"] for e in minus] == ["0", "3", "8", "15"]
    assert out["direct_match"] is True


def test_factorize_breakdown_exit_2():
    r = run_cli("factorize", "--p", "-1,0,1", "--q", "6,0", "--levels", "6",
                "--branch", "minus")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["error"] == "breakdown" and err["level"] == 4
    partial = json.loads(r.stdout)
    assert [e["l"] for e in partial["entries"]] == [0, 1, 2, 3]


def test_eigenfunction_forms_agree():
    r = run_cli("eigenfunction", "--family", "legendre", "--l", "4",
                "--form", "ladder")
    out = json.loads(r.stdout)
    assert r.returncode == 0
    assert out["proportional_to_alternate"] is True
    assert out["coefficients"] == ["9", "0", "-90", "0", "105"]
    assert out["normsq"] == "576"


def test_eigenfunction_associated():
    r = run_cli("eigenfunction", "--family", "laguerre:1", "--l", "3",
                "--m", "2", "--form", "bottomup")
    out = json.loads(r.stdout)
    assert r.returncode == 0
    assert out["s"] == "1"        # carries a factor p^(m/2) = x
    assert out["proportional_to_alternate"] is True


def test_verify_passes_and_negative_control(monkeypatch):
    r = run_cli("verify", "--family", "legendre", "--levels", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["all_pass"] is True

    bad = run_cli("verify", "--family", "legendre", "--levels", "2",
                  "--perturb-delta", "1")
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["all_pass"] is False


def test_numeric_residual_json():
    r = run_cli("numeric", "residual", "--family", "legendre", "--l", "4",
                "--form", "y", "--nodes", "2000")
    out = json.loads(r.stdout)
    assert r.returncode == 0
    assert out["residual"] <= 1e-6
    assert 1.7 <= out["order"] <= 2.3


def test_numeric_residual_small_grids():
    # a residual needs an interior node; below that, --nodes is rejected
    for nodes in range(-2, 7):
        r = run_cli("numeric", "residual", "--family", "legendre", "--l", "1",
                    "--nodes", str(nodes))
        if nodes < 3:
            assert r.returncode == 2 and r.stdout == ""
            err = json.loads(r.stderr)
            assert err["error"] == "ValueError"
            assert "--nodes" in err["message"]
            continue
        assert r.returncode == 0 and r.stderr == ""
        out = json.loads(r.stdout, parse_constant=_reject_constant)
        # at nodes = 3 only the coarse grid's residual vanishes: no rate
        if nodes == 3:
            assert out["residual"] == 0 and out["order"] is None
        else:
            assert isinstance(out["order"], float)


def test_verify_negative_levels_exit_2():
    for levels in ("-1", "-2"):
        r = run_cli("verify", "--family", "legendre", "--levels", levels)
        assert r.returncode == 2 and r.stdout == ""
        err = json.loads(r.stderr)
        assert err["error"] == "ValueError" and "--levels" in err["message"]


def test_numeric_maps_csv_header():
    r = run_cli("numeric", "maps", "--family", "legendre", "--nodes", "9")
    lines = r.stdout.strip().splitlines()
    assert r.returncode == 0
    assert lines[0] == "x,y,z"
    assert len(lines) == 10


def test_numeric_sl2_csv_ingestion(tmp_path):
    path = tmp_path / "radial2d.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "P", "Q", "R"])
        for k in range(200):
            x = 0.5 + 2.5 * k / 199
            w.writerow([x, 1.0, 1.0 / x, 0.0])
    r = run_cli("numeric", "sl2", "--csv", str(path))
    assert r.returncode == 0
    rows = list(csv.DictReader(r.stdout.splitlines()))
    assert set(rows[0]) == {"x", "W_rho", "V_rho", "v"}
    for row in rows:
        x = float(row["x"])
        assert abs(float(row["W_rho"]) + 1 / (2 * x)) < 1e-9


def test_numeric_file_errors_exit_2(tmp_path):
    header_only = tmp_path / "header.csv"
    header_only.write_text("x,P,Q,R\n")
    no_r = tmp_path / "no_r.csv"
    no_r.write_text("x,P,Q\n0.5,1,2\n1.0,1,1\n")
    # derivatives of samples need three or more increasing nodes
    two_rows = tmp_path / "two_rows.csv"
    two_rows.write_text("x,P,Q,R\n0.5,1,2,0\n1.0,1,1,0\n")
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("x,P,Q,R\n0.5,1,2,0\n1.0,1,1,0\n1.0,1,1,0\n")
    cases = [(["--csv", str(tmp_path / "missing.csv")], "FileNotFoundError"),
             (["--csv", str(header_only)], "ValueError"),
             (["--csv", str(no_r)], "ValueError"),
             (["--csv", str(two_rows)], "ValueError"),
             (["--csv", str(repeated)], "ValueError"),
             (["--family", "legendre", "--output", str(tmp_path)],
              "IsADirectoryError")]
    for extra, error in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["numeric", "sl2", *extra])
        assert code == 2 and out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] == error


def test_numeric_singular_grid_exit_2():
    r = run_cli("numeric", "maps", "--family", "legendre",
                "--lo", "-2", "--hi", "2", "--nodes", "20")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "SingularGrid"


def test_classify_degenerate_and_round_trip():
    r = run_cli("classify", "--family", "hermite")
    out = json.loads(r.stdout)
    assert out["degenerate"] is True and out["subcase"] == "hermite"

    r = run_cli("classify", "--family", "legendre", "--l", "5", "--m", "2")
    out = json.loads(r.stdout)
    assert out["round_trip"]["match"] is True
    assert out["round_trip"]["lambda"] == "24"


def test_bad_input_exit_2():
    r = run_cli("factorize", "--p", "0,0,0", "--q", "1,0")
    assert r.returncode == 2
    r = run_cli("factorize", "--family", "nosuchfamily")
    assert r.returncode == 2


def test_degree_error_exit_2():
    # p = 1 - x^2, q = 3: raising loses degree at level 3
    r = run_cli("verify", "--p", "-1,0,1", "--q", "3,0", "--levels", "3")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "DegreeError"


@pytest.mark.parametrize("argv", [
    ["eigenfunction", "--family", "jacobi:-1/2,-1/2", "--l", "1"],
    ["eigenfunction", "--family", "jacobi:-1/2,-1/2", "--l", "3",
     "--form", "rodrigues"],
    ["eigenfunction", "--family", "jacobi:1/2,-3/2", "--l", "2"],
    ["verify", "--family", "jacobi:-1/2,-1/2", "--levels", "2"],
])
def test_zero_mode_on_the_chebyshev_line_is_breakdown(argv):
    # q' = p''/2: E_1 = 0 and the raised Phi_1 is the zero polynomial, so
    # the vanishing norm is reported, not a degree of -1
    code, out, err = _main(argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "breakdown", "level": 1}


def test_vanishing_norm_is_breakdown_exit_2():
    # p = x^2 + x, q = -3x: E_1 = 0 although the table itself builds
    r = run_cli("verify", "--p", "1,1,0", "--q", "-3,0", "--levels", "1")
    assert r.returncode == 2
    assert json.loads(r.stderr) == {"error": "breakdown", "level": 1}


def test_numeric_m_above_l_is_range_error():
    for task in (("residual", "--form", "z", "--nodes", "200"),
                 ("potentials",)):
        r = run_cli("numeric", task[0], "--family", "legendre", "--l", "2",
                    "--m", "5", *task[1:])
        assert r.returncode == 2
        assert r.stdout == ""
        assert json.loads(r.stderr)["error"] == "RangeError"


def test_zero_denominator_exit_2():
    r = run_cli("factorize", "--p", "1/0", "--q", "0,1")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ValueError"
    r = run_cli("factorize", "--family", "jacobi:1/0,1")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ValueError"


@pytest.mark.parametrize("spec, want", [
    ("legendre:3", "expected legendre, with 0 parameters"),
    ("hermite:1", "expected hermite, with 0 parameters"),
    ("jacobi:1", "expected jacobi:a,b, with 2 parameters"),
    ("jacobi:1,2,3", "expected jacobi:a,b, with 2 parameters"),
])
def test_family_parameter_count_exit_2(spec, want):
    code, out, err = _main(["factorize", "--family", spec])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError",
                               "message": f"family {spec!r}: {want}"}


def test_eigenfunction_negative_level_exit_2():
    code, out, err = _main(["eigenfunction", "--family", "legendre",
                            "--l", "-1"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "RangeError",
                               "message": "level must be >= 0, got l = -1"}


def test_classify_rejects_m_without_l():
    code, out, err = _main(["classify", "--family", "legendre", "--m", "2"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "classify reads --m only together with --l"}


def test_plus_breakdown_at_level_0_keeps_partial_table():
    r = run_cli("factorize", "--p", "1", "--q", "0,1", "--branch", "plus")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["error"] == "breakdown" and err["level"] == 0
    partial = json.loads(r.stdout)
    assert [(e["branch"], e["l"]) for e in partial["entries"]] == \
        [("plus", -1)]


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_breakdown_prints_the_entries_already_built(monkeypatch):
    calls = []
    factor_table = cli.principal.factor_table

    def counted(prob, branch, max_level):
        calls.append(branch)
        return factor_table(prob, branch, max_level)
    monkeypatch.setattr(cli.principal, "factor_table", counted)
    # p = x^2, q = -4x: the plus table stops at level 2
    code, out, err = _main(["factorize", "--p", "1,0,0", "--q", "-4,0",
                            "--levels", "4", "--branch", "plus"])
    assert code == 2 and calls == ["plus"]
    assert json.loads(err) == {"error": "breakdown", "level": 2,
                               "branch": "plus"}
    assert [e["l"] for e in json.loads(out)["entries"]] == [-1, 0, 1]


def test_numeric_rejects_flags_the_task_does_not_read(tmp_path):
    legendre = ["--family", "legendre", "--nodes", "3"]
    sampled = tmp_path / "pqr.csv"
    sampled.write_text("x,P,Q,R\n0,1,0,0\n0.5,1,0,0\n1,1,0,0\n")
    for argv in (["maps", *legendre, "--lo", "0"],
                 ["maps", *legendre, "--hi", "0.5"],
                 ["residual", *legendre, "--l", "2", "--lo", "0",
                  "--hi", "0.5"],
                 ["maps", *legendre, "--csv", "/nonexistent"],
                 ["potentials", *legendre, "--csv", str(sampled)],
                 ["residual", *legendre, "--csv", str(sampled)],
                 ["sl2", "--csv", str(sampled), "--lo", "0", "--hi", "1"]):
        code, out, err = _main(["numeric", *argv])
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"] == "ValueError"
    # a whole pair still sets the grid of the tasks that read it
    code, out, _ = _main(["numeric", "maps", *legendre, "--lo", "-0.5",
                          "--hi", "0.5"])
    assert code == 0
    assert [float(row[0]) for row in csv.reader(out.splitlines()[1:])] \
        == [-0.5, 0.0, 0.5]


CSV_TASKS = ["maps", "potentials", "sl1", "sl2"]
PRESETS = ["legendre", "jacobi:2,3", "jacobi:1/2,1/2", "laguerre:1",
           "hermite", "hypergeom:1/3,1/5,7/2", "confluent:3"]
_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _coeff_arg(cs):
    return ",".join(str(c) for c in cs)


_problem_args = st.one_of(
    st.sampled_from(PRESETS).map(lambda f: ["--family", f]),
    st.tuples(st.lists(_coeffs, min_size=1, max_size=3),
              st.lists(_coeffs, min_size=1, max_size=2)).map(
        lambda pq: ["--p", _coeff_arg(pq[0]), "--q", _coeff_arg(pq[1])]))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(
        ["factorize", "eigenfunction", "verify", "classify", "numeric"]))
    l, m = str(draw(st.integers(-2, 6))), str(draw(st.integers(-8, 8)))
    if command == "numeric":
        task = draw(st.sampled_from(["residual", *CSV_TASKS, "slcheck"]))
        nodes = 150 if task == "residual" else draw(st.integers(-2, 40))
        return ["numeric", task, "--family", draw(st.sampled_from(PRESETS)),
                "--l", l, "--m", m, "--form", draw(st.sampled_from("yz")),
                "--nodes", str(nodes)]
    argv = [command, *draw(_problem_args)]
    if command == "factorize":
        return argv + ["--levels", l, "--branch",
                       draw(st.sampled_from(["minus", "plus", "both"]))]
    if command == "eigenfunction":
        return argv + ["--l", l, "--m", m, "--form", draw(st.sampled_from(
            ["ladder", "rodrigues", "topdown", "bottomup"]))]
    if command == "verify":
        return argv + ["--levels", str(draw(st.integers(-2, 2)))]
    return argv + (["--l", l, "--m", m] if draw(st.booleans()) else [])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(_argvs())
@settings(max_examples=120, deadline=None)
def test_cli_contract(argv):
    code, out, err = _main(argv)
    assert code in (0, 1, 2)
    if code == 0 and argv[1] in CSV_TASKS:
        header, *rows = csv.reader(out.splitlines())
        assert rows and all(len(row) == len(header) for row in rows)
        assert all(math.isfinite(float(v)) for row in rows for v in row)
    elif code in (0, 1):
        json.loads(out, parse_constant=_reject_constant)
    else:
        json.loads(err.strip().splitlines()[-1])
