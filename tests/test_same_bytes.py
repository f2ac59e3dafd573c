"""tools/same_bytes.py: its compare step on records with one field
tampered, one side's records from this checkout, and its off-preset argv,
one problem per branch of the maps."""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
spec = importlib.util.spec_from_file_location("same_bytes",
                                              TOOLS / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bytes)


def _record(i, **fields):
    rec = {"argv": ["numeric", "maps", "--nodes", str(i)], "rc": 0,
           "stdout": f"x,y,z\r\n{i},0,0\r\n", "stderr": "", "exc": None,
           "value": None}
    rec.update(fields)
    return rec


def test_identical_records_compare_equal():
    records = [_record(i) for i in range(4)]
    records.append(_record(4, argv=None, stdout="",
                           value=[[float("nan"), -0.0], [1.5, 2.0]]))
    copy = json.loads(json.dumps(records))
    assert same_bytes.compare(records, copy) == (5, [])


def test_a_tampered_field_is_named_with_its_argv():
    records = [_record(i) for i in range(4)]
    for field, value in (("stdout", "x,y,z\r\n2,0,1\r\n"), ("rc", 2),
                         ("stderr", "warning\n"), ("exc", ("E", "m"))):
        tampered = [dict(r) for r in records]
        tampered[2][field] = value
        count, diffs = same_bytes.compare(records, tampered)
        assert count == 4
        assert diffs == [(2, records[2]["argv"], [field])]
    # a sign of zero in a library value is a difference
    old = [_record(0, argv=None, value=[[0.0]])]
    new = [_record(0, argv=None, value=[[-0.0]])]
    assert same_bytes.compare(old, new) == (1, [(0, None, ["value"])])


def test_a_side_that_stops_early_differs():
    records = [_record(i) for i in range(3)]
    count, diffs = same_bytes.compare(records, records[:2])
    assert count == 3
    [(index, argv, fields)] = diffs
    assert (index, argv) == (2, records[2]["argv"]) and "argv" in fields


def test_records_of_this_checkout(tmp_path):
    path = same_bytes._records(TOOLS.parent, "eigen-ladder", 3, [1],
                               tmp_path / "side.jsonl")
    records = list(same_bytes._read(path))
    assert len(records) == 3
    assert all(set(r) == set(same_bytes.FIELDS) for r in records)
    assert same_bytes.compare(records, records) == (3, [])
    tampered = [dict(r) for r in records]
    tampered[1]["stdout"] += " "
    assert same_bytes.compare(records, tampered)[1] == [
        (1, records[1]["argv"], ["stdout"])]


def _branch(p_text, lo, hi):
    """The branch of the maps y = int dx/p and z = int dx/sqrt|p| at the
    middle of [lo, hi], named as in BRANCHES, from p's roots over
    Fraction."""
    c = [Fraction(t) for t in p_text.split(",")]     # highest degree first
    x0 = (Fraction(lo) + Fraction(hi)) / 2
    p_x0 = sum(ci * x0 ** k for k, ci in enumerate(reversed(c)))
    if len(c) == 1:
        return "constant"
    if len(c) == 2:
        return (f"{'rising' if c[0] > 0 else 'falling'} line, "
                f"p {'>' if p_x0 > 0 else '<'} 0")
    a, b, c0 = c
    disc, vertex = b * b - 4 * a * c0, -b / (2 * a)
    if disc == 0:
        return f"{'above' if x0 > vertex else 'below'} a double root"
    if disc < 0:
        return "no real root"
    if a * p_x0 < 0:
        return "between the roots"
    return f"beyond the roots, {'above' if x0 > vertex else 'below'}"


def test_off_preset_takes_each_branch_of_the_maps_once():
    branches = {"constant", "rising line, p > 0", "falling line, p > 0",
                "rising line, p < 0", "above a double root",
                "below a double root", "no real root", "between the roots",
                "beyond the roots, above", "beyond the roots, below"}
    assert set(same_bytes.BRANCHES) == branches
    for name, (p, q, lo, hi) in same_bytes.BRANCHES.items():
        assert _branch(p, lo, hi) == name
    # six argv per problem, in order: its four CSV tasks on its interval,
    # then both residuals
    assert len(same_bytes.OFF_PRESET) == 6 * len(branches)
    for i, (p, q, lo, hi) in enumerate(same_bytes.BRANCHES.values()):
        argvs = same_bytes.OFF_PRESET[6 * i:6 * i + 6]
        assert [a[1] for a in argvs] == [
            "maps", "sl1", "sl2", "potentials", "residual", "residual"]
        for argv in argvs:
            assert argv[argv.index("--p"):argv.index("--q") + 2] == [
                "--p", p, "--q", q]
            assert argv[1] == "residual" or argv[-6:-2] == [
                "--lo", lo, "--hi", hi]


def test_off_preset_records_of_this_checkout(tmp_path):
    path = same_bytes._records(TOOLS.parent,
                               json.dumps(same_bytes.OFF_PRESET), 0, [],
                               tmp_path / "side.jsonl")
    records = list(same_bytes._read(path))
    assert [r["argv"] for r in records] == same_bytes.OFF_PRESET
    # every request runs to its output, with nothing on stderr
    assert all((r["rc"], r["stderr"], r["exc"]) == (0, "", None)
               and r["stdout"] for r in records)
    assert same_bytes.compare(records, records) == (
        len(same_bytes.OFF_PRESET), [])
