"""tools/same_bytes.py: its compare step on records with one field
tampered, and one side's records from this checkout."""

import importlib.util
import json
import sys
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
