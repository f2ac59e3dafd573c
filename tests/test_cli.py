import csv
import json
import subprocess
import sys


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


def test_zero_denominator_exit_2():
    r = run_cli("factorize", "--p", "1/0", "--q", "0,1")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ValueError"
    r = run_cli("factorize", "--family", "jacobi:1/0,1")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ValueError"


def test_plus_breakdown_at_level_0_keeps_partial_table():
    r = run_cli("factorize", "--p", "1", "--q", "0,1", "--branch", "plus")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["error"] == "breakdown" and err["level"] == 0
    partial = json.loads(r.stdout)
    assert [(e["branch"], e["l"]) for e in partial["entries"]] == \
        [("plus", -1)]
