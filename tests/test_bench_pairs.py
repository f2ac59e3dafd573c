"""tools/bench_pairs.py's summary: medians, inclusive quartiles, the
pairs the change wins, in each metric's declared direction, and the gain
and regression verdicts against each metric's bound."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools"
    / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


END_TO_END = [{"name": "throughput_rps", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def _run(rps, rss):
    return {"metrics": {"w/throughput_rps": {"value": rps},
                        "w/peak_rss_mb": {"value": rss}}}


def _pairs(parent, change):
    """One seed per rss value of each side; rps 100 on both."""
    return {"parent": {str(k): _run(100, v) for k, v in enumerate(parent)},
            "change": {str(k): _run(100, v) for k, v in enumerate(change)}}


def test_summary_counts_wins_in_the_declared_direction():
    runs = {"parent": {"1": _run(10, 30), "2": _run(12, 31),
                       "3": _run(11, 32)},
            "change": {"1": _run(13, 30), "2": _run(11, 30),
                       "3": _run(14, 33), "4": _run(99, 99)}}
    out = bench_pairs.summary(runs, END_TO_END)
    # seed 4 has no parent run, so it is not a pair
    assert out["medians"]["change"]["w/throughput_rps"] == 13
    assert out["quartiles"]["parent"]["w/throughput_rps"] == [10.5, 11.5]
    assert out["pairs_won"] == {"w/throughput_rps": 2, "w/peak_rss_mb": 1}


def test_seed_ranges_and_lists():
    assert bench_pairs._seeds("2600-2603") == [2600, 2601, 2602, 2603]
    assert bench_pairs._seeds("5,9") == [5, 9]


def test_gain_needs_nine_in_ten_pairs_and_a_gap_beyond_the_quartiles():
    parent = [30, 31, 32, 33, 34, 30, 31, 32, 33, 34]     # quartiles 31, 33
    # 9 of 10 pairs won, median 32 -> 27: a gain in rss
    out = bench_pairs.summary(_pairs(parent, [27] * 9 + [35]), END_TO_END)
    assert out["pairs_won"]["w/peak_rss_mb"] == 9
    assert out["gain"]["w/peak_rss_mb"] is True
    # ties win nothing: equal rps is no gain
    assert out["gain"]["w/throughput_rps"] is False
    # 8 of 10 pairs
    out = bench_pairs.summary(_pairs(parent, [27] * 8 + [35] * 2),
                              END_TO_END)
    assert out["gain"]["w/peak_rss_mb"] is False
    # every pair won, but by less than the parent's interquartile range 2
    out = bench_pairs.summary(_pairs(parent, [v - 1 for v in parent]),
                              END_TO_END)
    assert out["pairs_won"]["w/peak_rss_mb"] == 10
    assert out["gain"]["w/peak_rss_mb"] is False


def test_regression_worse_unresolved_or_none():
    narrow = [30, 30.5] * 5                       # quartiles 30, 30.5
    # median 30.25 -> 34: worse by more than 10% of the parent's median
    out = bench_pairs.summary(_pairs(narrow, [34] * 10), END_TO_END)
    assert out["regression"]["w/peak_rss_mb"] == "worse"
    # worse, but inside the bound
    out = bench_pairs.summary(_pairs(narrow, [32] * 10), END_TO_END)
    assert out["regression"]["w/peak_rss_mb"] == "none"
    assert out["regression"]["w/throughput_rps"] == "none"
    # the parent's quartiles 26, 34 spread wider than 10% of its median 30
    wide = [26, 34] * 5
    out = bench_pairs.summary(_pairs(wide, [30] * 10), END_TO_END)
    assert out["regression"]["w/peak_rss_mb"] == "unresolved"
    # unless every change run reads better than every parent run
    out = bench_pairs.summary(_pairs(wide, [25] * 10), END_TO_END)
    assert out["regression"]["w/peak_rss_mb"] == "none"
