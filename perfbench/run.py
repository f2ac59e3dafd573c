#!/usr/bin/env python3
"""Benchmark of susyfactor: seeded closed-loop workloads checked by an exact
oracle, with a separate traced run for the per-layer figures.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload eigen-ladder --seed 1 --seconds 20 \\
        --trace 1

One client sends requests one after another (a closed loop) for about
--seconds seconds of request time at the reference speed, in whole rounds of
the workload's fixed mix; the oracle checks each answer between requests
with the clock stopped.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  ``failed``
counts answers the oracle rejects that are not a known defect of the program
(see oracle.KNOWN_DEFECTS); known-defect failures are counted in
``error_rate`` and listed per kind.  Request times are scaled to a reference
speed of the machine (see ``kernel_s``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import golden  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from client import ROOT, SRC, Client, have_program  # noqa: E402

END_TO_END = (("setup_s", "s"), ("latency_p50_s", "s"),
              ("latency_p90_s", "s"), ("throughput_rps", "req/s"),
              ("peak_rss_mb", "MB"))
SETUP_PROBES = 3        # set-up launches per run, each after a reference launch
# the reference launch for setup_s: the program's libraries and nothing of
# the program, which takes REF_LAUNCH_S at the reference speed
REF_LAUNCH = "import argparse, fractions, json, numpy, scipy.integrate"
REF_LAUNCH_S = 0.9
# The speed reference.  On a shared machine the speed of a core drifts by up
# to half within a minute, for every process alike.  A fixed pure-Python
# kernel is timed between requests, with the request clock stopped, and
# every request time is scaled by REF_KERNEL_S over the median of the
# kernel times just before and just after it: a time in seconds at the speed
# at which the kernel takes REF_KERNEL_S.  A change to the program moves the
# scaled and the wall times alike; the kernel calls nothing in it.
REF_KERNEL_S = 0.002
KERNEL_PER_GAP = 2      # kernel samples between two requests
IMPORT_PROBES = 3       # `python -X importtime` children per traced run
# requests generated during set-up; the stream continues if a run needs more
PREGENERATE = {"verify-suite": 60, "eigen-ladder": 150,
               "numeric-schrodinger": 400}
# (requests per round, seconds per round untraced at the reference speed).
# Timed runs end on a round boundary; the round time only sizes the traced
# run, to whole rounds covering about TRACE_SHARE of --seconds, so that its
# call counts depend on the arguments alone.
ROUNDS = {"verify-suite": (len(workloads.VERIFY_ROUND), 9.0),
          "eigen-ladder": (36, 10.0), "numeric-schrodinger": (20, 1.7)}
TRACE_SHARE = 0.5
GOLDEN_COMMANDS = {"verify-suite": {"verify"},
                   "eigen-ladder": {"factorize", "eigenfunction", "classify"},
                   "numeric-schrodinger": set()}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SUSYFACTOR_THREADS", None)
    return env


def kernel_s() -> float:
    """Wall time of the speed reference: a Fraction harmonic sum, which
    tracks interpreted code and C extensions alike on this kind of machine
    better than integer or NumPy loops do."""
    gc_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    dt = time.perf_counter() - t0
    if gc_on:
        gc.enable()
    return dt


def kernel_gap() -> list[float]:
    return [kernel_s() for _ in range(KERNEL_PER_GAP)]


def scales(gaps: list[list[float]], n: int) -> list[float]:
    """The scale of each of n requests, where gaps[i] was taken just before
    request i and gaps[n] after the last: REF_KERNEL_S over the median of the
    samples on both sides of the request."""
    return [REF_KERNEL_S / statistics.median(gaps[i] + gaps[i + 1])
            for i in range(n)]


def prepare(workload: str, seed: int):
    """Everything a run does before its first timed request."""
    client = Client()
    stream = workloads.stream(workload, seed)
    head = list(islice(stream, PREGENERATE[workload]))
    for argv in workloads.WARMUP[workload]:
        out = client.run_cli(argv) if argv else client.orthogonality(
            workloads.preset_pq("legendre"), 2)
        if out.rc != 0:
            raise RuntimeError(f"warm-up request {argv} failed: "
                               f"{out.exc or out.stderr}")
    return client, chain(head, stream)


def measure_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """Median launch-to-ready time of fresh interpreters doing the set-up,
    at the reference launch speed.

    Launches slow down with the machine in a way the kernel does not track
    (a set-up runs library threads and maps large shared objects), so each
    set-up launch alternates with a reference launch that imports only the
    libraries, and the median set-up time is scaled by REF_LAUNCH_S over the
    median reference time.  Returns the scaled time and both medians."""
    setups, refs = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", REF_LAUNCH], cwd=ROOT,
                       env=child_env(), capture_output=True, check=True,
                       timeout=120)
        refs.append(time.monotonic() - t0)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
            timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        setups.append(float(proc.stdout.split()[-1]) - t0)
    setup, ref = statistics.median(setups), statistics.median(refs)
    return setup * REF_LAUNCH_S / ref, setup, ref


def measure_imports() -> dict:
    """Import costs from `python -X importtime`, median of several children:
    the whole `import susyfactor.cli`, and the self time of numpy's and
    scipy's modules."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import susyfactor.cli"
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        rows = []                      # (nesting indent, name, self, cum)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 \
                    or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(),
                         int(parts[0].split(":")[1]), int(parts[1])))
        top = min(indent for indent, *_ in rows)
        totals = Counter()
        for indent, name, self_us, cum_us in rows:
            pkg = name.split(".")[0]
            if pkg == "susyfactor" and indent == top:
                totals["susyfactor"] += cum_us
            elif pkg in ("numpy", "scipy"):
                totals[pkg] += self_us
        runs.append(totals)
    return {k: statistics.median(r[k] for r in runs) / 1e6
            for k in ("susyfactor", "numpy", "scipy")}


def tally(pairs):
    """Known-defect counts, unexpected failures and the error rate."""
    errors, unexpected = Counter(), []
    for req, verdict in pairs:
        if verdict.defect:
            errors[verdict.defect] += 1
        elif not verdict.ok:
            unexpected.append(f"{' '.join(req.argv or (req.command,))}: "
                              f"{verdict.reason}")
    failed = sum(errors.values()) + len(unexpected)
    return errors, unexpected, failed / max(1, len(pairs))


def describe(requests) -> str:
    n = len(requests)
    cls = Counter(r.cls.split(".")[1] if r.cls.startswith("verify.") else
                  r.cls for r in requests)
    bits = [max(max(abs(Fraction(c).numerator).bit_length(),
                    Fraction(c).denominator.bit_length())
                for c in r.pq.p + r.pq.q) for r in requests]
    return (f"reuse share {workloads.reuse_share(requests):.3f}, ill-posed "
            f"{cls['ill_posed'] / n:.3f}, negative control "
            f"{cls['perturbed'] / n:.3f}, input coefficient bits "
            f"{min(bits)}-{max(bits)}")


def report_lines(workload, errors, unexpected, error_rate, mismatches):
    lines = [f"  error_rate {error_rate:.4f} fraction"]
    lines += [f"    {kind}: {errors.get(kind, 0)} (known defect: {text})"
              for kind, text in oracle.KNOWN_DEFECTS.items()]
    lines += [f"    UNEXPECTED {u}" for u in unexpected[:10]]
    if GOLDEN_COMMANDS[workload]:
        lines.append(f"  golden outputs: {len(mismatches)} mismatches")
        lines += [f"    GOLDEN {m}" for m in mismatches[:10]]
    return lines


def run_untraced(workload, seed, seconds):
    setup, setup_wall, ref_wall = measure_setup(workload, seed)
    client, stream = prepare(workload, seed)
    per_round = ROUNDS[workload][0]
    walls, kernel, pairs = [], [], []
    busy = busy_ref = 0.0
    clock = time.perf_counter
    for req in stream:
        kernel.append(kernel_gap())
        t0 = clock()
        out = client.send(req)
        dt = clock() - t0
        walls.append(dt)
        busy += dt
        busy_ref += dt * REF_KERNEL_S / statistics.median(kernel[-1])
        pairs.append((req, oracle.judge(req, out)))
        # whole rounds only, so every run has the same mix: stop at the
        # round boundary nearest to `seconds` of request time at the
        # reference speed, so that the machine's speed does not change
        # the number of rounds
        rounds = len(walls) / per_round
        if rounds.is_integer() and busy_ref + busy_ref / rounds / 2 > seconds:
            break
    kernel.append(kernel_gap())
    latencies = [w * k for w, k in zip(walls, scales(kernel, len(walls)))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    mismatches = golden.check(client, GOLDEN_COMMANDS[workload])
    errors, unexpected, error_rate = tally(pairs)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    values = {"setup_s": setup,
              "latency_p50_s": statistics.median(latencies),
              "latency_p90_s": p90,
              "throughput_rps": len(latencies) / sum(latencies),
              "peak_rss_mb": peak_rss_mb}
    lines = [f"workload {workload}, seed {seed}: {len(latencies)} requests, "
             f"{busy:.2f} s of request time, "
             f"{sum(t > p90 for t in latencies)} beyond p90",
             f"  wall times: latency_p50 {statistics.median(walls):.6g} s, "
             f"throughput {len(walls) / busy:.6g} req/s; kernel median "
             f"{statistics.median(chain(*kernel)) * 1e3:.4g} ms, scaled to "
             f"{REF_KERNEL_S * 1e3:.4g} ms; set-up {setup_wall:.4g} s, "
             f"reference launch {ref_wall:.4g} s, scaled to {REF_LAUNCH_S} s",
             f"  {describe([r for r, _ in pairs])}"]
    lines += [f"  {name} {values[name]:.6g} {unit}" for name, unit in END_TO_END]
    lines += report_lines(workload, errors, unexpected, error_rate, mismatches)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return lines, {"correct": not unexpected and not mismatches,
                   "attempted": len(latencies), "failed": len(unexpected),
                   "metrics": metrics}


def trace_count(workload, seconds) -> int:
    per_round, round_s = ROUNDS[workload]
    return per_round * max(1, round(seconds * TRACE_SHARE / round_s))


def run_traced(workload, seed, seconds):
    imports = measure_imports()
    client, stream = prepare(workload, seed)
    requests = list(islice(stream, trace_count(workload, seconds)))
    tr = tracer.Tracer()
    tr.attach(client.package)
    root = tr.wrap(tracer.ROOT, client.send)
    clock = time.perf_counter
    outs, plain = [], 0.0
    for req in requests:
        tr.install()
        try:
            outs.append(root(req))
        finally:
            tr.uninstall()
        # the same request untraced right after, for the tracing overhead
        t0 = clock()
        client.send(req)
        plain += clock() - t0
    pairs = [(req, oracle.judge(req, out)) for req, out in zip(requests, outs)]
    mismatches = golden.check(client, GOLDEN_COMMANDS[workload])
    errors, unexpected, error_rate = tally(pairs)
    extras = {"requests": len(requests), "imports": imports,
              "overhead_ratio": plain / tr.busy_s(tracer.ROOT),
              "stdout_bytes": sum(len(o.stdout.encode()) for o in outs),
              "coeff_bits_max": max(oracle.coeff_bits(o.stdout) for o in outs),
              "error_rate": error_rate, "errors": errors}
    metrics = tracer.per_layer(tr, extras)
    lines = [f"workload {workload}, seed {seed}: traced run of "
             f"{len(requests)} requests"]
    lines += [f"  {name} {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    lines += report_lines(workload, errors, unexpected, error_rate, mismatches)
    return lines, {"correct": not unexpected and not mismatches,
                   "attempted": len(requests), "failed": len(unexpected),
                   "metrics": metrics}


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
            timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            raise SystemExit(f"workload {workload} failed")
        results[workload] = json.loads(lines[-1])
    names = list(results[workloads.WORKLOADS[0]]["metrics"])
    width = max(map(len, names))
    print(f"{'metric':<{width}} {'unit':<8}"
          + "".join(f" {w:>20}" for w in workloads.WORKLOADS))
    for name in names:
        unit = results[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:<{width}} {unit:<8}" + "".join(
            f" {results[w]['metrics'][name]['value']:>20.6g}"
            for w in workloads.WORKLOADS))
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a user's thread setting must not leak into the numbers
    os.environ.pop("SUSYFACTOR_THREADS", None)
    if not have_program():
        print(f"susyfactor sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        prepare(args.workload, args.seed)
        print(time.monotonic(), flush=True)
        return 0
    if args.workload == "all":
        payload = run_all(args)
    else:
        run = run_traced if args.trace else run_untraced
        lines, payload = run(args.workload, args.seed, args.seconds)
        print("\n".join(lines))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
