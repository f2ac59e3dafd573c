"""Paired benchmark runs of two commits, parent and change, alternately.

    python3 tools/bench_pairs.py --parent REV --change REV \\
        --seeds 2600-2604 --trace-seed 2605 --out BENCH_26.json

Each side runs from a clean copy of its commit (``git archive`` into a
temporary directory, under $TMPDIR when set), so no cached bytecode,
untracked file or local edit reaches a run.  For each seed both sides run

    python3 perfbench/run.py --workload all --seed N --seconds S

(S is ``run_seconds`` of the parent's BENCHMARK.json) one after the other,
parent first on even seeds and change first on odd ones, and the final
JSON line of each run is kept.  With --trace-seed, each
side then makes one traced verify-suite run
(``--workload verify-suite --seed T --seconds S --trace 1``).

The output file holds ``about`` (this method), ``medians`` and
``quartiles`` (inclusive method) per side and metric over the runs,
``pairs_won`` (per metric, the pairs in which the change reads better in
the direction BENCHMARK.json declares; ties count for neither), two
verdicts per metric, ``runs`` (each run's JSON line, by side and seed) and
``traced``.  The verdicts read the parent's BENCHMARK.json (``end_to_end``:
each metric's direction and bound) and write nothing to it:

- ``gain``: true when the change wins at least 9 in 10 of the pairs and
  its median reads better than the parent's by more than the parent's
  interquartile range;
- ``regression``: ``worse`` where the change's median reads worse than the
  parent's by more than the bound (a share of the parent's median),
  ``unresolved`` where the parent's interquartile range exceeds that share
  and not every change run reads better than every parent run, else
  ``none``.

The file is rewritten after every pair, so an interrupted run keeps the
pairs it finished.
Use seeds that were not used while the change was written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    """'2600-2604' or '2600,2602,2609'."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _checkout(rev: str, into: Path) -> Path:
    """A clean copy of rev's tree in into."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _run(tree: Path, args: list[str]) -> dict:
    """The final JSON line of perfbench/run.py in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} in {tree} failed: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: dict, end_to_end: list[dict]) -> dict:
    """medians, quartiles, pairs_won, gain and regression over the seeds
    both sides ran, for BENCHMARK.json's end_to_end metrics (each with its
    name, better and bound)."""
    spec = {m["name"]: m for m in end_to_end}
    seeds = [s for s in runs["parent"] if s in runs["change"]]
    values = {side: {} for side in SIDES}
    for side in SIDES:
        for seed in seeds:
            for name, m in runs[side][seed]["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
    out = {"medians": {}, "quartiles": {}, "pairs_won": {}, "gain": {},
           "regression": {}}
    for side in SIDES:
        out["medians"][side] = {k: statistics.median(v)
                                for k, v in values[side].items()}
        out["quartiles"][side] = {
            k: (statistics.quantiles(v, n=4, method="inclusive")[::2]
                if len(v) > 1 else [v[0], v[0]])
            for k, v in values[side].items()}
    for name, old in values["parent"].items():
        metric = spec[name.split("/")[-1]]
        sign = 1 if metric["better"] == "higher" else -1
        new = values["change"].get(name, [])
        won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        out["pairs_won"][name] = won
        if not new:
            continue
        # gap > 0: the change's median reads better
        ref = out["medians"]["parent"][name]
        gap = sign * (out["medians"]["change"][name] - ref)
        lo, hi = out["quartiles"]["parent"][name]
        allowed = metric["bound"] * abs(ref)
        out["gain"][name] = 10 * won >= 9 * len(seeds) and gap > hi - lo
        out["regression"][name] = (
            "worse" if gap < -allowed else
            "unresolved" if hi - lo > allowed and min(
                sign * v for v in new) <= max(sign * v for v in old)
            else "none")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", default="HEAD", help="git revision")
    ap.add_argument("--seeds", required=True, help="'2600-2604' or a list")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    revs = {side: subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", rev],
        capture_output=True, text=True, check=True).stdout.strip()
        for side, rev in (("parent", args.parent), ("change", args.change))}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {side: _checkout(revs[side], work / side) for side in SIDES}
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        seconds = f"{spec['run_seconds']:g}"
        about = (
            f"Final JSON line of `python3 perfbench/run.py --workload all "
            f"--seed N --seconds {seconds}` for the parent "
            f"({revs['parent']}) and the change ({revs['change']}), seeds "
            f"{args.seeds}, pairs run alternately (even seeds parent "
            f"first), each side in a clean copy of its commit (git "
            f"archive); `medians` and `quartiles` (inclusive method) are per "
            f"metric over the runs, `pairs_won` counts the pairs in "
            f"which the change reads better (ties count for neither), and "
            f"`gain` and `regression` are the verdicts of "
            f"tools/bench_pairs.py against the parent's BENCHMARK.json "
            f"bounds."
            + (f" `traced` holds the final line of `--workload verify-suite "
               f"--seed {args.trace_seed} --seconds {seconds} "
               f"--trace 1` on each side." if args.trace_seed is not None
               else ""))
        runs = {side: {} for side in SIDES}
        result = {"about": about}
        for seed in seeds:
            for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
                runs[side][str(seed)] = _run(trees[side], [
                    "--workload", "all", "--seed", str(seed),
                    "--seconds", seconds])
            result.update(summary(runs, spec["end_to_end"]), runs=runs)
            Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        if args.trace_seed is not None:
            result["traced"] = {side: _run(trees[side], [
                "--workload", "verify-suite", "--seed", str(args.trace_seed),
                "--seconds", seconds, "--trace", "1"])
                for side in SIDES}
            Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
