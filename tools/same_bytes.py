"""Byte comparison of two commits on the benchmark's own request streams.

    python3 tools/same_bytes.py --parent REV --change REV \\
        --workload all --seeds 1-5 --requests 120

Each side runs from a clean copy of its commit (``git archive``, as
tools/bench_pairs.py makes them) and sends the first ``--requests``
requests of each seed's stream (``perfbench/workloads.py``) through its
own ``perfbench/client.py``, in a child process that writes no bytecode.
Request by request the two sides must agree on the argv, the exit code,
stdout and stderr, and any escaped exception, or for a library call on
the orthogonality values.  The tool prints the count of requests compared
and of those that differ, with the first differing argv, and exits 1 on
any difference.  It writes nothing to either checkout's ``perfbench/``;
the records go to a temporary directory (under $TMPDIR when set).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from bench_pairs import SIDES, _checkout, _seeds

WORKLOADS = ("verify-suite", "eigen-ladder", "numeric-schrodinger")
FIELDS = ("argv", "rc", "stdout", "stderr", "exc", "value")

# Run in a side's perfbench/: one JSON record per request, FIELDS each.
_SIDE = r"""
import itertools, json, sys
from client import Client
from workloads import stream
workload, count, seeds = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
client = Client()
for seed in seeds:
    for req in itertools.islice(stream(workload, int(seed)), count):
        out = client.send(req)
        print(json.dumps({"argv": req.argv, "rc": out.rc,
                          "stdout": out.stdout, "stderr": out.stderr,
                          "exc": out.exc, "value": out.value}))
"""


def _records(tree: Path, workload: str, count: int, seeds: list[int],
             into: Path) -> Path:
    """The side's records, one JSON line per request, in the file into."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with open(into, "w") as fh:
        subprocess.run([sys.executable, "-c", _SIDE, workload, str(count),
                        *map(str, seeds)], cwd=tree / "perfbench", env=env,
                       stdout=fh, check=True)
    return into


def compare(parent, change) -> tuple[int, list[tuple]]:
    """(requests compared, differences) of two record streams, request by
    request; a difference is (index, argv, the fields that differ), and a
    request that one stream lacks differs in its argv.  Fields compare as
    their JSON text, so nan equals nan and -0.0 differs from 0.0."""
    count, diffs = 0, []
    for i, (old, new) in enumerate(zip_longest(parent, change, fillvalue={})):
        count += 1
        fields = [f for f in FIELDS
                  if json.dumps(old.get(f)) != json.dumps(new.get(f))]
        if fields:
            diffs.append((i, (old or new).get("argv"), fields))
    return count, diffs


def _read(path: Path):
    with open(path) as fh:
        for line in fh:
            yield json.loads(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", default="HEAD", help="git revision")
    ap.add_argument("--workload", default="all",
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seeds", default="1-5", help="'1-5' or a list")
    ap.add_argument("--requests", type=int, default=120,
                    help="requests per seed, from the start of its stream")
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    revs = {"parent": args.parent, "change": args.change}
    work = Path(tempfile.mkdtemp(prefix="same_bytes_"))
    differs = False
    try:
        trees = {side: _checkout(revs[side], work / side) for side in SIDES}
        for workload in workloads:
            paths = [_records(trees[side], workload, args.requests, seeds,
                              work / f"{side}.jsonl") for side in SIDES]
            count, diffs = compare(*map(_read, paths))
            line = (f"{workload}: {count} requests, seeds {args.seeds}, "
                    f"{len(diffs)} differ")
            if diffs:
                index, first, fields = diffs[0]
                line += (f"; first at request {index}: "
                         f"{' '.join(first or ['orthogonality'])} "
                         f"({', '.join(fields)})")
            print(line, flush=True)
            differs = differs or bool(diffs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
