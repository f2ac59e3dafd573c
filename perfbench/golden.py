"""Byte-exact golden outputs of the exact CLI commands.

A fixed matrix of presets x {factorize, eigenfunction, verify, classify} x
levels, independent of any workload seed.  ``golden.json`` holds the exit
code and the exact stdout of each entry as recorded when the benchmark was
defined; a change that claims a speed-up must leave every byte unchanged.

    python3 perfbench/golden.py check     # diff the program against the file
    python3 perfbench/golden.py record    # rewrite the file (new outputs)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import PRESETS

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def matrix() -> list[tuple]:
    out = []
    for spec in PRESETS:
        fam = ("--family", spec)
        out += [("factorize", *fam, "--levels", "3", "--branch", "both"),
                ("factorize", *fam, "--levels", "12"),
                ("eigenfunction", *fam, "--l", "4"),
                ("eigenfunction", *fam, "--l", "7", "--m", "3",
                 "--form", "topdown"),
                ("verify", *fam, "--levels", "1"),
                ("verify", *fam, "--levels", "2"),
                ("classify", *fam),
                ("classify", *fam, "--l", "6", "--m", "2")]
    return out


def record(client) -> list[dict]:
    entries = []
    for argv in matrix():
        out = client.run_cli(argv)
        entries.append({"argv": list(argv), "exit": out.rc,
                        "stdout": out.stdout})
    return entries


def check(client, commands=None) -> list[str]:
    """Mismatches against golden.json, restricted to the given commands."""
    problems = []
    for entry in json.loads(GOLDEN.read_text())["entries"]:
        argv = entry["argv"]
        if commands is not None and argv[0] not in commands:
            continue
        out = client.run_cli(argv)
        if out.rc != entry["exit"]:
            problems.append(f"{' '.join(argv)}: exit {out.rc}, "
                            f"golden {entry['exit']}")
        elif out.stdout != entry["stdout"]:
            got, want = out.stdout.splitlines(), entry["stdout"].splitlines()
            line = next((i for i, (a, b) in enumerate(zip(got, want))
                         if a != b), min(len(got), len(want)))
            problems.append(f"{' '.join(argv)}: stdout differs at line "
                            f"{line + 1}")
    return problems


def main(argv) -> int:
    from client import Client, have_program
    if argv not in (["check"], ["record"]):
        print(__doc__, file=sys.stderr)
        return 2
    if not have_program():
        print("susyfactor sources not found under src/", file=sys.stderr)
        return 2
    client = Client()
    if argv == ["record"]:
        GOLDEN.write_text(json.dumps({"entries": record(client)}, indent=1)
                          + "\n")
        return 0
    problems = check(client)
    for p in problems:
        print(p)
    print(f"golden: {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
