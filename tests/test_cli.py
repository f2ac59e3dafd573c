import argparse
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from susyfactor import cli, principal
from susyfactor.core import Poly, Problem


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


def test_direct_match_reads_only_the_requested_branch():
    # p = x^2 + 1, q = -6x: C_3 = 0 stops the plus table at level 3 and the
    # minus table at level 4, so the minus table to level 3 is complete
    # and is cross-checked against its own closed form
    r = run_cli("factorize", "--p", "1,0,1", "--q", "-6,0", "--levels", "3",
                "--branch", "minus")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert [e["l"] for e in out["entries"]] == [0, 1, 2, 3]
    assert out["direct_match"] is True
    r = run_cli("factorize", "--p", "1,0,1", "--q", "-6,0", "--levels", "3",
                "--branch", "plus")
    assert r.returncode == 2
    assert json.loads(r.stderr)["level"] == 3
    assert json.loads(r.stdout)["direct_match"] is None


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


def test_numeric_csv_values_that_are_not_finite_exit_2(tmp_path):
    # P = inf and Q = nan once read as nan rows with exit 0; each is a
    # ValueError that names its column, before numpy sees it
    rows = "x,P,Q,R\n0.5,1,2,0\n1.0,{},{},0\n1.5,1,1,0\n"
    for P, Q, column in (("inf", "1", "P"), ("1", "nan", "Q")):
        path = tmp_path / f"{column}.csv"
        path.write_text(rows.format(P, Q))
        for task in ("sl1", "sl2"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = _main(["numeric", task, "--csv", str(path)])
            assert code == 2 and out == ""
            err = json.loads(err)
            assert err["error"] == "ValueError"
            assert f"column {column}" in err["message"]


@pytest.mark.parametrize("argv", [
    ["residual", "--family", "legendre", "--l", "2", "--inset", "-0.1",
     "--nodes", "50"],
    # log|x| would fold the cut ends back through the root of p
    ["residual", "--family", "laguerre:1", "--l", "2", "--inset", "-0.5",
     "--nodes", "10"],
    # the cut ends cross (0.6) or meet (0.5)
    ["residual", "--family", "legendre", "--l", "2", "--inset", "0.6",
     "--nodes", "10"],
    ["residual", "--family", "legendre", "--l", "2", "--inset", "0.5",
     "--nodes", "10"],
    ["maps", "--family", "legendre", "--inset", "0.6", "--nodes", "10"]])
def test_numeric_inset_outside_its_range_exit_2(argv):
    r = run_cli("numeric", *argv)
    assert r.returncode == 2 and r.stdout == ""
    err = json.loads(r.stderr)
    assert err["error"] == "ValueError" and "--inset" in err["message"]


def test_numeric_residual_inset_zero_clips_the_root_ends_quietly():
    # u = y maps the roots +-1 of p to +-inf, clipped to +-SPAN: the bytes
    # of the run that printed a divide-by-zero warning, with no stderr
    r = run_cli("numeric", "residual", "--family", "legendre", "--l", "2",
                "--inset", "0", "--nodes", "10")
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout == ('{\n  "residual": 0.028070683715607208,\n'
                        '  "order": -1.2767736939837764,\n  "form": "y",\n'
                        '  "nodes": 10\n}\n')


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


@pytest.mark.parametrize("argv, names", [
    (["factorize", "--family", "legendre", "--levels", "abc"], "--levels"),
    (["factorize", "--family", "legendre", "--bogus", "1"], "--bogus"),
    (["nosuchcommand", "--family", "legendre"], "nosuchcommand"),
    (["eigenfunction", "--family", "legendre"], "--l")])
def test_argument_errors_are_one_json_object_exit_2(argv, names):
    code, out, err = _main(argv)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "UsageError" and names in report["message"]


def test_help_prints_usage_and_exits_0():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert out.getvalue().startswith("usage: susyfactor verify")


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


def test_classify_negative_m_round_trips_to_its_absolute_value():
    # H^a_m depends on |m| only, so the operator recovers m = 2
    code, out, err = _main(["classify", "--family", "legendre", "--l", "3",
                            "--m", "-2"])
    assert (code, err) == (0, "")
    assert json.loads(out)["round_trip"] == {"m": 2, "l": 3, "lambda": "6",
                                             "match": True}


# p = x^2, q = -x has E_1 = 0: level 1 is a breakdown, not a traceback
@pytest.mark.parametrize("task, code, err", [
    (["residual", "--p", "1,0,0", "--q", "-1,0", "--l", "0", "--nodes",
      "400"], 0, ""),
    (["residual", "--p", "1,0,0", "--q", "-1,0", "--l", "1", "--nodes",
      "400"], 2, '{"error": "breakdown", "level": 1}\n'),
    (["residual", "--p", "1,-2,1", "--q", "-3,1", "--l", "2", "--nodes",
      "50"], 0, ""),
    (["maps", "--p", "1,0,0", "--q", "-1,0", "--nodes", "4"], 0, ""),
    (["potentials", "--p", "1,-2,1", "--q", "-3,1", "--l", "2", "--m", "1",
      "--nodes", "5"], 0, ""),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_numeric_at_a_double_root_of_p_stays_on_one_side(task, code, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, got_err = _main(["numeric", *task])
    assert (got, got_err) == (code, err)
    if task[0] != "residual":
        r = 0 if task[2] == "1,0,0" else 1
        xs = [float(row["x"]) for row in csv.DictReader(io.StringIO(out))]
        assert all(x > r for x in xs) or all(x < r for x in xs)


def _no_constant(name):
    raise ValueError(f"not JSON: {name}")


# the numeric commands that print JSON, and inputs whose weight overflows
NUMERIC_JSON = [["residual", "--l", "2", "--nodes", "200"],
                ["residual", "--l", "2", "--m", "1", "--form", "z",
                 "--nodes", "200"],
                ["slcheck", "--nodes", "50", "--q1", "0,1"]]
OVERFLOWING = [
    (["residual", "--p", "1,0", "--q", "-1,300", "--l", "1"], 2),
    (["potentials", "--p", "1,0", "--q", "-1,300", "--lo", "1", "--hi",
      "1e3", "--nodes", "5", "--l", "1"], 0),
    (["potentials", "--p", "1,0", "--q", "300", "--lo", "1", "--hi", "1e6",
      "--nodes", "5", "--l", "1"], 2),
    (["potentials", "--p", "-1,0,1", "--q", "0,300", "--lo", "1.5", "--hi",
      "10", "--nodes", "5", "--l", "1"], 2)]


def test_numeric_json_holds_no_nan_and_numpy_warns_nothing():
    """Every JSON output of a numeric command, on stdout or as an error on
    stderr, parses with no NaN or Infinity constant, and no numpy warning
    is raised: a residual that is not finite is a DomainError (exit 2)."""
    runs = [(["numeric", *task, "--family", family], None)
            for task in NUMERIC_JSON for family in PRESETS]
    runs += [(["numeric", *task], code) for task, code in OVERFLOWING]
    for argv, want in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _main(argv)
        assert want is None or code == want, argv
        if code == 0 and argv[1] != "potentials":
            json.loads(out, parse_constant=_no_constant)
            assert err == "", argv
        elif code:
            assert out == "", argv
            json.loads(err, parse_constant=_no_constant)
    _, _, err = _main(["numeric", *OVERFLOWING[0][0]])
    assert json.loads(err)["error"] == "DomainError"


def test_breakdown_prints_the_entries_already_built(monkeypatch):
    calls = []

    def count(name):
        build = getattr(cli.principal, name)

        def counted(prob, branch, max_level):
            calls.append((name, branch))
            return build(prob, branch, max_level)
        monkeypatch.setattr(cli.principal, name, counted)
    count("ladder_records")
    count("closed_form_records")
    # p = x^2, q = -4x: the plus table stops at level 2
    code, out, err = _main(["factorize", "--p", "1,0,0", "--q", "-4,0",
                            "--levels", "4", "--branch", "plus"])
    assert code == 2 and calls == [("ladder_records", "plus")]
    assert json.loads(err) == {"error": "breakdown", "level": 2,
                               "branch": "plus"}
    assert [e["l"] for e in json.loads(out)["entries"]] == [-1, 0, 1]


# (factorize arguments, exit code): a full table over fractions, both
# branches, a full minus table then a plus table that stops at level 3
# ("direct_match": null), and a partial plus table alone
FACTORIZE = [
    (["--family", "jacobi:1/2,1/2", "--levels", "6", "--branch", "both"], 0),
    (["--p", "-1/2,1/3,2", "--q", "-3/2,1/4", "--levels", "9", "--branch",
      "both"], 0),
    (["--p", "1,0,1", "--q", "-6,0", "--levels", "3", "--branch", "both"], 2),
    (["--p", "1,0,0", "--q", "-4,0", "--levels", "4", "--branch", "plus"], 2),
]


@pytest.mark.parametrize("argv, code", FACTORIZE)
def test_factorize_prints_the_bytes_of_json_dumps(tmp_path, argv, code):
    got, out, _ = _main(["factorize", *argv])
    obj = json.loads(out)
    assert got == code and out == json.dumps(obj, indent=2) + "\n"
    assert obj["direct_match"] is (True if code == 0 else None)
    # no value needs JSON escaping: branch names, and fraction strings made
    # of digits, "-" and "/"
    for e in obj["entries"]:
        assert e["branch"] in ("minus", "plus") and isinstance(e["l"], int)
        for key in ("alpha", "beta", "delta", "E", "lambda"):
            assert re.fullmatch(r"-?[0-9]+(/[0-9]+)?", e[key]), e
    path = tmp_path / "table.json"
    assert _main(["factorize", *argv, "--output", str(path)])[:2] \
        == (code, "")
    assert path.read_text() == out


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                min_size=1, max_size=3),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                min_size=2, max_size=2),
       st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_factorize_json_on_random_problems(p, q, levels):
    if not any(p):
        p[0] = 1
    argv = ["factorize", "--p", ",".join(map(str, p)), "--q",
            ",".join(map(str, q)), "--levels", str(levels), "--branch", "both"]
    code, out, _ = _main(argv)
    assert code in (0, 2)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_factorize_reports_a_tampered_closed_form(monkeypatch):
    # negative control: one closed-form record off by one in X (E_3 off by
    # 1/(2D a_3)^2) makes the integer comparison fail
    closed = cli.principal.closed_form_records

    def tampered(prob, branch, max_level):
        records = closed(prob, branch, max_level)
        a, B, X, L = records[3]
        records[3] = (a, B, X + 1, L)
        return records
    monkeypatch.setattr(cli.principal, "closed_form_records", tampered)
    code, out, err = _main(["factorize", "--family", "legendre",
                            "--levels", "5", "--branch", "both"])
    assert (code, err) == (0, "")
    assert json.loads(out)["direct_match"] is False


_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def _factorize_problems(draw):
    """(p, q) ascending, with p constant, linear or quadratic; on about a
    third of the draws q' = -k p'', where one branch breaks down."""
    degree = draw(st.integers(0, 2))
    p = draw(st.lists(_rationals, min_size=degree, max_size=degree))
    p.append(draw(_rationals.filter(bool)))
    q = draw(st.lists(_rationals, min_size=2, max_size=2))
    if draw(st.integers(0, 2)) == 0:
        q[1] = -draw(st.integers(0, 8)) * (p[2] if degree == 2 else 0)
    return p, q


@given(_factorize_problems(), st.integers(0, 12),
       st.sampled_from(["minus", "plus", "both"]))
@settings(max_examples=150, deadline=None)
def test_factorize_prints_the_fields_of_factor_table(pq, levels, branch):
    p, q = pq
    prob = Problem(Poly(p), Poly(q))
    want, want_code = [], 0
    for b in (["minus", "plus"] if branch == "both" else [branch]):
        try:
            want += principal.factor_table(prob, b, levels)
        except principal.Breakdown as ex:
            # the partial table: the entries of the levels below the break
            want += principal.factor_entries(prob, b, ex.records)
            want_code = 2
            break
    code, out, _ = _main(["factorize", "--p", ",".join(map(str, p[::-1])),
                          "--q", ",".join(map(str, q[::-1])),
                          "--levels", str(levels), "--branch", branch])
    assert code == want_code
    assert [tuple(e.values()) for e in json.loads(out)["entries"]] == [
        (e.branch, e.level, str(e.alpha), str(e.beta), str(e.delta),
         str(e.E), str(e.lam)) for e in want]


@pytest.mark.parametrize("n, d", [
    (0, 1), (0, 12), (7, 1), (-7, 1), (6, 4), (-6, 4), (-12, 4), (12, 4),
    (1, 3 ** 200), (-(2 ** 400) * 3, 2 ** 300 * 9),
    (-(7 ** 300) * 10, 7 ** 250 * 4), (5 ** 400 * 11, 5 ** 400)])
def test_ratio_is_the_string_of_a_fraction(n, d):
    assert cli._ratio(n, d) == str(Fraction(n, d))


@given(st.integers(-2 ** 900, 2 ** 900), st.integers(1, 2 ** 900),
       st.integers(1, 2 ** 300))
@settings(max_examples=200, deadline=None)
def test_ratio_on_large_integers(n, d, g):
    assert cli._ratio(n, d) == str(Fraction(n, d))
    assert cli._ratio(n * g, d * g) == str(Fraction(n, d))


@pytest.mark.parametrize("level, field", [
    (level, field) for level in (1, 3, 5) for field in range(4)])
def test_factorize_prints_each_record_field(monkeypatch, level, field):
    # negative control: one record field off by one changes the printed
    # entries (the lowest level prints only its a and b)
    argv = ["factorize", "--p", "-1/2,1/3,2", "--q", "-3/2,1/4",
            "--levels", "6", "--branch", "minus"]
    _, before, _ = _main(argv)
    records = principal.ladder_records

    def tampered(prob, branch, max_level):
        recs = records(prob, branch, max_level)
        rec = list(recs[level])
        rec[field] += 1
        recs[level] = tuple(rec)
        return recs
    monkeypatch.setattr(principal, "ladder_records", tampered)
    _, after, _ = _main(argv)
    before, after = (json.loads(out)["entries"] for out in (before, after))
    assert before[:level] == after[:level]
    assert before[level] != after[level]


@pytest.mark.parametrize("argv, code", [
    (["--family", "jacobi:2,3", "--levels", "400", "--branch", "both"], 0),
    (["--p", "1,0,0", "--q", "-800,0", "--levels", "400", "--branch",
      "both"], 2)])
def test_factorize_output_file_holds_the_stdout_bytes(tmp_path, argv, code):
    cmd = [sys.executable, "-m", "susyfactor.cli", "factorize", *argv]
    shown = subprocess.run(cmd, capture_output=True)
    path = tmp_path / "table.json"
    written = subprocess.run([*cmd, "--output", str(path)],
                             capture_output=True)
    assert (shown.returncode, written.returncode) == (code, code)
    assert (written.stdout, written.stderr) == (b"", shown.stderr)
    assert path.read_bytes() == shown.stdout


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
    # each task's own flags pass; every other one is named in the error
    reads = {"maps": (), "potentials": ("--l", "--m"),
             "residual": ("--l", "--m", "--form"),
             "sl1": ("--energy", "--eigenvalue"), "sl2": (),
             "slcheck": ("--q1", "--lambda1")}
    values = {"--l": "1", "--m": "0", "--form": "z", "--q1": "1,0",
              "--lambda1": "3", "--energy": "2", "--eigenvalue": "1"}
    grid = {"--lo": ["--lo", "-0.5", "--hi", "0.5", "--inset", "0.1"],
            "--csv": ["--csv", str(sampled)]}
    cases = [(task, [*legendre, flag, value], flag)
             for task in reads for flag, value in values.items()]
    # --inset with --lo/--hi, and the problem and grid flags with --csv
    cases += [(task, [*legendre, *grid["--lo"]], "--inset")
              for task in reads if task != "residual"]
    cases += [(task, [*grid["--csv"], *extra], extra[0])
              for task in ("sl1", "sl2", "slcheck")
              for extra in (["--nodes", "3"], ["--family", "legendre"],
                            ["--p", "1"], ["--q", "1"], grid["--lo"][:4],
                            ["--inset", "0.1"])]
    for task, argv, flag in cases:
        code, out, err = _main(["numeric", task, *argv])
        if flag in reads[task]:
            assert code == 0, (task, argv, err)
            continue
        assert (code, out) == (2, ""), (task, argv)
        message = json.loads(err)["message"]
        assert message.startswith(f"numeric {task} "), message
        assert message.endswith(f"reads no {flag}"), message
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
        # only the flags the task reads, so that a CSV task can exit 0
        task = draw(st.sampled_from(["residual", *CSV_TASKS, "slcheck"]))
        nodes = 150 if task == "residual" else draw(st.integers(-2, 40))
        argv = ["numeric", task, "--family", draw(st.sampled_from(PRESETS)),
                "--nodes", str(nodes)]
        if task in ("residual", "potentials"):
            argv += ["--l", l, "--m", m]
        if task == "residual":
            argv += ["--form", draw(st.sampled_from("yz"))]
        return argv
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


def _reference_bytes(header, columns) -> bytes:
    """The reference emitter: csv.writer over `%.17g` columns."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(zip(*(map("%.17g".__mod__, col.tolist())
                           for col in columns)))
    return out.getvalue().encode()


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
            1.7976931348623157e308, -1.7976931348623157e308, 2.0, -3.0,
            1e16, 1e17, 0.1, 1 / 3, 2.2250738585072014e-308]


def _columns(k, nodes):
    import numpy as np
    rng = np.random.default_rng(1000 * k + nodes)
    cols = []
    for j in range(k):
        col = rng.standard_normal(nodes) * 10.0 ** rng.integers(
            -300, 300, nodes)
        col[:: 7] = np.round(col[:: 7])       # floats with integer values
        for i, v in enumerate(_SPECIAL):
            col[(i * (j + 3)) % nodes] = v
        cols.append(col)
    return cols


@pytest.mark.parametrize("k", [3, 4, 5, 11])
@pytest.mark.parametrize("nodes", [1, 2000])
def test_emit_csv_matches_the_csv_writer_bytes(k, nodes, tmp_path):
    header = [f"c{j}" for j in range(k)]
    columns = _columns(k, nodes)
    want = _reference_bytes(header, columns)
    out = io.StringIO(newline="")
    with contextlib.redirect_stdout(out):
        cli._emit_csv(header, columns, argparse.Namespace(output=None))
    assert out.getvalue().encode() == want
    path = tmp_path / "out.csv"
    cli._emit_csv(header, columns, argparse.Namespace(output=str(path)))
    # read back in binary, so "\r\n" is neither lost nor doubled
    assert path.read_bytes() == want
    assert want.count(b"\r\n") == nodes + 1 and b"\r\r" not in want


def test_emit_csv_special_values():
    import numpy as np
    out = io.StringIO(newline="")
    with contextlib.redirect_stdout(out):
        cli._emit_csv(["x", "y"], [np.array(_SPECIAL[:10]),
                                   np.arange(10.0)],
                      argparse.Namespace(output=None))
    assert out.getvalue() == (
        "x,y\r\nnan,0\r\ninf,1\r\n-inf,2\r\n-0,3\r\n0,4\r\n"
        "4.9406564584124654e-324,5\r\n-4.9406564584124654e-324,6\r\n"
        "1.7976931348623157e+308,7\r\n"
        "-1.7976931348623157e+308,8\r\n2,9\r\n")


def _api_columns(task, spec, nodes):
    """What `numeric <task>` prints, computed through the numeric API."""
    from susyfactor import numeric
    from susyfactor.core import Poly
    prob = cli._family_problem(spec)
    grid = cli._grid_from_args(prob, argparse.Namespace(
        lo=None, hi=None, inset=1e-3, nodes=nodes))
    if task == "maps":
        return ["x", "y", "z"], (grid,
                                 *numeric.coordinate_maps(prob, grid))
    if task == "potentials":
        prof = numeric.potentials(prob, 3, 1, grid)
        return (["x", "w", "y", "z", "W_l", "V_l", "V_s_l", "W_a_m", "V_a_m",
                 "psi_l", "s_phi_lm"],
                (grid, prof["w"], prof["y"], prof["z"], prof["W_l"],
                 prof["V_l"], prof["V_s_l"], prof["W_a_m"], prof["V_a_m"],
                 prof["psi_l"], prof["s_phi_lm"]))
    if task == "sl1":
        out = numeric.sl_transform_typeI(prob.p, prob.q, Poly([]), grid,
                                         E=0.0, Lambda=0.0)
        names = ["rho", "G", "U", "u"]
    else:
        out = numeric.sl_transform_typeII(prob.p, prob.q, Poly([]), grid)
        names = ["W_rho", "V_rho", "v"]
    return ["x", *names], (grid, *(out[n] for n in names))


@pytest.mark.parametrize("task", CSV_TASKS)
@pytest.mark.parametrize("spec", PRESETS)
def test_numeric_csv_matches_the_csv_writer_on_the_presets(task, spec):
    nodes = 9
    argv = ["numeric", task, "--family", spec, "--nodes", str(nodes)]
    if task == "potentials":
        argv += ["--l", "3", "--m", "1"]
    code, out, err = _main(argv)
    assert (code, err) == (0, "")
    assert out.encode() == _reference_bytes(*_api_columns(task, spec, nodes))


def test_numeric_csv_same_bytes_on_stdout_and_output(tmp_path):
    argv = ["numeric", "potentials", "--family", "jacobi:2,3", "--l", "3",
            "--m", "1", "--nodes", "6"]
    r = subprocess.run([sys.executable, "-m", "susyfactor.cli", *argv],
                       capture_output=True)
    path = tmp_path / "out.csv"
    assert run_cli(*argv, "--output", str(path)).returncode == 0
    assert r.returncode == 0 and r.stderr == b""
    assert r.stdout == path.read_bytes() and r.stdout.count(b"\r\n") == 7


def test_exact_commands_never_load_numpy():
    # README: only the numeric commands load numpy
    code = """
import contextlib, io, sys
from susyfactor import cli
for argv in (["factorize", "--family", "jacobi:2,3", "--levels", "4",
              "--branch", "both"],
             ["eigenfunction", "--family", "legendre", "--l", "4", "--m", "2"],
             ["verify", "--family", "hermite", "--levels", "2"],
             ["classify", "--family", "laguerre:1", "--l", "3", "--m", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


@pytest.mark.parametrize("levels, message", [
    (["--l", "-1"], "level must be >= 0, got l = -1"),
    (["--l", "2", "--m", "5"], "|m| = 5 exceeds l = 2"),
])
def test_classify_level_out_of_range_is_range_error(levels, message):
    code, out, err = _main(["classify", "--family", "legendre", *levels])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "RangeError", "message": message}
