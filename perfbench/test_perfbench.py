"""Tests of the benchmark itself: generators and oracle.

They import nothing from susyfactor and run in about a second:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import Outcome, Pq, judge  # noqa: E402
from workloads import Request  # noqa: E402

LEGENDRE = Pq.of((1, 0, -1), (0, -2))


def _argvs(workload, seed, n):
    return [r.argv for r in islice(workloads.stream(workload, seed), n)]


def test_same_seed_same_requests_other_seed_other_requests():
    for workload in workloads.WORKLOADS:
        assert _argvs(workload, 7, 40) == _argvs(workload, 7, 40)
        assert _argvs(workload, 7, 40) != _argvs(workload, 8, 40)


def test_reuse_share_absent_on_verify_high_on_eigen_ladder():
    verify = list(islice(workloads.stream("verify-suite", 3), 80))
    eigen = list(islice(workloads.stream("eigen-ladder", 3), 72))
    assert workloads.reuse_share(verify) == 0.0
    assert workloads.reuse_share(eigen) > 0.85


def test_verify_classes_are_what_they_claim():
    for req in islice(workloads.stream("verify-suite", 5), 60):
        levels = req.params["levels"]
        posed = oracle.well_posed(req.pq, levels)
        assert posed == (not req.cls.startswith("verify.ill_posed")), req
        if req.cls == "verify.ill_posed.zero_norm":
            assert oracle.well_posed(req.pq, levels, check_norms=False)
            assert any(oracle.minus_entry(req.pq, l)[2] == 0
                       for l in range(1, levels + 1))


def test_closed_forms_match_known_legendre_table():
    # the CLI's Legendre figures: lambda_l = l(l+1), normsq of Phi_4 = 576
    lams = [oracle.minus_entry(LEGENDRE, l)[3] for l in range(6)]
    assert lams == [0, 2, 6, 12, 20, 30]
    norm = 1
    for l in range(1, 5):
        norm *= oracle.minus_entry(LEGENDRE, l)[2]
    assert norm == 576


def _eigen_request():
    return Request("eigenfunction", ("eigenfunction", "--family", "legendre",
                                     "--l", "4"), LEGENDRE,
                   {"l": 4, "m": 0, "form": "ladder", "preset": "legendre"})


def _eigen_output(coefficients):
    return Outcome(0, json.dumps({
        "l": 4, "m": 0, "form": "ladder", "coefficients": coefficients,
        "s": "0", "normsq": "576", "proportional_to_alternate": True,
        "ratio": "1"}))


def test_oracle_rejects_altered_coefficient():
    good = ["9", "0", "-90", "0", "105"]
    assert judge(_eigen_request(), _eigen_output(good)).ok
    bad = judge(_eigen_request(), _eigen_output(["9", "0", "-91", "0", "105"]))
    assert bad.unexpected


def _verify_output(pq, levels, rc, all_pass, perturbed_values):
    checks = {k: (not k.startswith("shape_invariance_")) or not perturbed_values
              for k in sorted(oracle.verify_keys(pq, levels))}
    return Outcome(rc, json.dumps({"checks": checks, "all_pass": all_pass}))


def test_oracle_rejects_perturbed_report_presented_as_pass():
    pq = Pq.of((1, 0, -1), (1, -7))
    req = Request("verify.perturbed", ("verify", "--levels", "2",
                                       "--perturb-delta", "1"),
                  pq, {"levels": 2})
    assert judge(req, _verify_output(pq, 2, 1, False, True)).ok
    assert judge(req, _verify_output(pq, 2, 0, True, False)).unexpected
    assert judge(req, _verify_output(pq, 2, 1, False, False)).unexpected


def test_oracle_rejects_residual_above_bound():
    params = {"preset": "legendre", "l": 4, "m": 0, "form": "y",
              "nodes": 2000}
    req = Request("numeric.residual", ("numeric", "residual"), LEGENDRE,
                  params)

    def out(rel, order):
        return Outcome(0, json.dumps({"residual": rel, "order": order,
                                      "form": "y", "nodes": 2000}))
    assert judge(req, out(3e-9, 2.0)).ok
    assert judge(req, out(2e-6, 2.0)).unexpected
    assert judge(req, out(3e-9, 1.4)).unexpected


def test_known_defect_is_narrow():
    # the hypergeometric y-form defect does not excuse the z form
    req = Request("numeric.residual", ("numeric", "residual"),
                  workloads.preset_pq("hypergeom:1/3,1/5,7/2"),
                  {"preset": "hypergeom:1/3,1/5,7/2", "l": 3, "m": 0,
                   "form": "y", "nodes": 2000})
    out = Outcome(0, json.dumps({"residual": 1e-3, "order": 1.4,
                                 "form": "y", "nodes": 2000}))
    assert judge(req, out).defect == "numeric.hypergeom_y_residual"
    req.params["form"] = "z"
    out.stdout = out.stdout.replace('"y"', '"z"')
    assert judge(req, out).unexpected


def test_benchmark_json_lists_every_reported_metric():
    import run
    import tracer
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in tracer.PER_LAYER]


def test_eigen_round_pairs_mirror_their_levels():
    reqs = list(islice(workloads.stream("eigen-ladder", 4), 72))
    for spec, base in workloads.EIGEN_BASES.items():
        ls = {r.params["l"] for r in reqs[:36]
              if r.command == "eigenfunction" and r.params["preset"] == spec}
        mirrored = {r.params["l"] for r in reqs[36:]
                    if r.command == "eigenfunction"
                    and r.params["preset"] == spec}
        assert len(ls) == 1 and {2 * base - l for l in ls} == mirrored


def test_times_scale_by_the_kernel_around_each_request():
    import run
    ref = run.REF_KERNEL_S
    # a machine at half the reference speed throughout: every time halves
    assert run.scales([[2 * ref, 2 * ref]] * 6, 5) == [0.5] * 5
    # one stray kernel sample does not move the median around a request
    gaps = [[ref, ref] for _ in range(12)]
    gaps[3][0] = 10 * ref
    assert run.scales(gaps, 11) == [1.0] * 11
    # a request is scaled by the samples on both sides of it only
    gaps = [[ref, ref], [2 * ref, 2 * ref], [4 * ref, 4 * ref]]
    assert run.scales(gaps, 2) == [1 / 1.5, 1 / 3]
