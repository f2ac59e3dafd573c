"""tools/bench_pairs.py's summary: medians, inclusive quartiles and the
pairs the change wins, in each metric's declared direction."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools"
    / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(rps, rss):
    return {"metrics": {"w/throughput_rps": {"value": rps},
                        "w/peak_rss_mb": {"value": rss}}}


def test_summary_counts_wins_in_the_declared_direction():
    runs = {"parent": {"1": _run(10, 30), "2": _run(12, 31),
                       "3": _run(11, 32)},
            "change": {"1": _run(13, 30), "2": _run(11, 30),
                       "3": _run(14, 33), "4": _run(99, 99)}}
    out = bench_pairs.summary(runs, {"throughput_rps": "higher",
                                     "peak_rss_mb": "lower"})
    # seed 4 has no parent run, so it is not a pair
    assert out["medians"]["change"]["w/throughput_rps"] == 13
    assert out["quartiles"]["parent"]["w/throughput_rps"] == [10.5, 11.5]
    assert out["pairs_won"] == {"w/throughput_rps": 2, "w/peak_rss_mb": 1}


def test_seed_ranges_and_lists():
    assert bench_pairs._seeds("2600-2603") == [2600, 2601, 2602, 2603]
    assert bench_pairs._seeds("5,9") == [5, 9]
