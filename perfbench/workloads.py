"""Seeded request streams for the three benchmark workloads.

Every workload is a closed loop of one client.  A stream is an endless
sequence of *rounds*.  The order of request classes inside a round is fixed
and the same for every seed; the seed draws the parameters inside each class
(random problems, levels, association levels, node counts), and parameters
that drive the cost are drawn stratified (``_strata``), so that every round
holds the same spread of costs.  A run measures whole rounds, so its
percentiles and throughput depend on the program and the machine, not on
the seed's luck.

Nothing here imports susyfactor: requests are plain CLI argument lists (or a
library-call description) plus the exact data the oracle needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count

from oracle import Pq, well_posed, zero_norm_p0

WORKLOADS = ("verify-suite", "eigen-ladder", "numeric-schrodinger")

# The six README presets: CLI spec -> (p, q), coefficients in ascending order.
PRESETS = {
    "legendre": ((1, 0, -1), (0, -2)),
    "jacobi:2,3": ((1, 0, -1), (1, -7)),
    "laguerre:1": ((0, 1), (2, -1)),
    "hermite": ((1,), (0, -2)),
    "hypergeom:1/3,1/5,7/2": ((0, -1, 1), (Fraction(-7, 2), Fraction(23, 15))),
    "confluent:3": ((0, 1), (3, -1)),
}
# p'' > 0 makes the weight indefinite: no orthogonality interval.
DEFINITE_WEIGHT = [s for s, (p, _) in PRESETS.items()
                   if len(p) < 3 or p[2] <= 0]
# constant p leaves the association level unidentifiable in classify
NON_DEGENERATE = [s for s, (p, _) in PRESETS.items() if len(p) > 1]


def preset_pq(spec: str) -> Pq:
    p, q = PRESETS[spec]
    return Pq.of(p, q)


@dataclass
class Request:
    """One client request and the label the oracle judges it against."""

    cls: str                  # request class, e.g. "verify.well_posed"
    argv: tuple | None        # CLI arguments; None for a library call
    pq: Pq
    params: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else "orthogonality"


def _coeff_text(cs) -> str:
    """CLI polynomial flag: highest degree first."""
    return ",".join(str(c) for c in reversed(cs))


def _pq_flags(pq: Pq) -> list[str]:
    return ["--p", _coeff_text(pq.p), "--q", _coeff_text(pq.q)]


# --------------------------------------------------------------------------
# verify-suite: fresh random problems, never repeated

# slot classes of one 20-request round: W well-posed, L well-posed with
# linear p, C constant p, N negative control (--perturb-delta 1),
# I ill-posed; digits are levels.  W, N and I have quadratic p.
VERIFY_ROUND = ("W4", "W4", "W8", "I4", "C4", "L4", "W4", "N4", "I4", "W12",
                "W4", "W4", "L8", "W4", "C4", "I4", "W4", "L4", "W8", "W4")
SHAPES = {"C": "constant", "L": "linear"}
# the ill-posed slots of a round take these kinds in turn
ILL_POSED_KINDS = ("breakdown", "zero_norm", "repeated_lambda")


def _rand_frac(rng: random.Random, zero_ok: bool = False) -> Fraction:
    if zero_ok and rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                    rng.choice((1, 1, 2, 3, 4)))


def _random_pq(rng: random.Random, shape: str) -> Pq:
    q = (_rand_frac(rng, True), _rand_frac(rng))
    if shape == "constant":
        return Pq.of((abs(_rand_frac(rng)),), q)
    if shape == "linear":
        return Pq.of((_rand_frac(rng, True), _rand_frac(rng)), q)
    return Pq.of((_rand_frac(rng, True), _rand_frac(rng, True),
                  _rand_frac(rng)), q)


def _ill_posed_pq(rng: random.Random, kind: str, levels: int) -> Pq:
    """A quadratic-p problem that is ill-posed within `levels` by design."""
    while True:
        p2 = _rand_frac(rng)
        p1, p0, q0 = (_rand_frac(rng, True) for _ in range(3))
        if kind == "breakdown":
            # c_l = l p2 + q1/2 vanishes at some l in 0..levels
            q1 = -2 * rng.randint(0, levels) * p2
        elif kind == "repeated_lambda":
            # lambda_j = lambda_k for j + k - 1 odd, so no c_l vanishes
            j = rng.randint(0, levels)
            k = rng.choice([k for k in range(levels + 2)
                            if k != j and (j + k) % 2 == 0])
            q1 = -(j + k - 1) * p2
        else:
            # E_l is affine in p(0): solve for the p(0) that makes it vanish
            q1 = _rand_frac(rng)
            pq = Pq.of((p0, p1, p2), (q0, q1))
            if not well_posed(pq, levels, check_norms=False):
                continue
            p0 = zero_norm_p0(pq, rng.randint(1, levels))
            if p0 is None:
                continue
        return Pq.of((p0, p1, p2), (q0, q1))


def _verify_stream(seed: int):
    rng = random.Random(f"verify-suite:{seed}")
    seen = set()
    ill = count()
    while True:
        for slot in VERIFY_ROUND:
            cls_code, levels = slot[0], int(slot[1:])
            if cls_code == "I":
                kind = ILL_POSED_KINDS[next(ill) % len(ILL_POSED_KINDS)]
                while True:
                    pq = _ill_posed_pq(rng, kind, levels)
                    if pq not in seen:
                        break
                cls, extra = f"verify.ill_posed.{kind}", []
            else:
                shape = SHAPES.get(cls_code, "quadratic")
                while True:
                    pq = _random_pq(rng, shape)
                    if pq not in seen and well_posed(pq, levels):
                        break
                if cls_code == "N":
                    cls, extra = "verify.perturbed", ["--perturb-delta", "1"]
                else:
                    cls, extra = "verify.well_posed", []
            seen.add(pq)
            yield Request(cls, ("verify", *_pq_flags(pq), "--levels",
                                str(levels), *extra),
                          pq, {"levels": levels})


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers, one from each of k equal slices of [lo, hi], shuffled.

    A round draws each cost-bearing parameter this way, so every round holds
    the same spread of costs whatever the seed.
    """
    width = (hi - lo + 1) / k
    out = [rng.randint(lo + round(i * width), lo + round((i + 1) * width) - 1)
           for i in range(k)]
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# eigen-ladder: the presets again and again, large l

# base level of each preset's block; the seed moves l by at most 1.  The
# cost of a request grows like l^3, so a fixed pairing keeps every round's
# cost, and the run-to-run spread, the same for every seed; an odd round
# mirrors the draws of the round before it (moves l the other way, and m to
# the other end of its range), so every pair of rounds holds the same
# spread of l and m whatever the seed.  Legendre and
# the hypergeometric preset take the top bases: their coefficients grow to
# several hundred bits.
EIGEN_BASES = {"legendre": 52, "jacobi:2,3": 32, "laguerre:1": 18,
               "hermite": 12, "hypergeom:1/3,1/5,7/2": 40, "confluent:3": 24}
# the plus branch of p = 1, q = 1 breaks down at level 0 (known defect)
PLUS_LEVEL0 = Pq.of((1,), (1,))


def _eigen_request(spec, l, m, form):
    return Request("eigenfunction", ("eigenfunction", "--family", spec,
                                     "--l", str(l), "--m", str(m),
                                     "--form", form),
                   preset_pq(spec), {"l": l, "m": m, "form": form,
                                     "preset": spec})


def _factorize_request(spec, levels):
    if spec == "hermite":
        return Request("factorize", ("factorize", *_pq_flags(PLUS_LEVEL0),
                                     "--levels", str(levels),
                                     "--branch", "plus"),
                       PLUS_LEVEL0, {"levels": levels, "branches": ("plus",)})
    return Request("factorize", ("factorize", "--family", spec, "--levels",
                                 str(levels), "--branch", "both"),
                   preset_pq(spec),
                   {"levels": levels, "branches": ("minus", "plus")})


def _classify_request(spec, l, m):
    return Request("classify", ("classify", "--family", spec, "--l", str(l),
                                "--m", str(m)),
                   preset_pq(spec), {"l": l, "m": m})


def _pick(lo: int, hi: int, u: float) -> int:
    """The integer at share u of [lo, hi]; 1 - u gives its mirror image."""
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


def _eigen_stream(seed: int):
    rng = random.Random(f"eigen-ladder:{seed}")
    n = len(PRESETS)
    for rnd in count():
        levels = _strata(rng, 100, 400, n)
        # classify reaches past the scan caps l <= 4096 and m <= 128
        cl, cm = _strata(rng, 2, 5000, n), _strata(rng, 0, 160, n)
        cspecs = rng.sample(NON_DEGENERATE, len(NON_DEGENERATE))
        if rnd % 2 == 0:
            draws = [(rng.randint(-1, 1), [rng.random() for _ in range(3)])
                     for _ in PRESETS]
        else:
            draws = [(-d, [1 - u for u in us]) for d, us in draws]
        for i, spec in enumerate(PRESETS):
            d, us = draws[i]
            l = EIGEN_BASES[spec] + d
            third = l // 3
            alt = (i + rnd) % 2
            yield _eigen_request(spec, l, 0, ("ladder", "rodrigues")[alt])
            yield _factorize_request(spec, levels[i])
            yield _eigen_request(spec, l, _pick(1, third, us[0]),
                                 ("topdown", "bottomup")[alt])
            yield _classify_request(cspecs[i % len(cspecs)], cl[i],
                                    min(cm[i], cl[i]))
            yield _eigen_request(spec, l, _pick(third + 1, 2 * third, us[1]),
                                 ("bottomup", "topdown")[alt])
            # forms ladder/rodrigues at m > 0 fall back to bottomup/topdown
            yield _eigen_request(spec, l, _pick(2 * third + 1, l, us[2]),
                                 ("rodrigues", "ladder")[alt])


# --------------------------------------------------------------------------
# numeric-schrodinger: float realisation on the presets

# one CSV request per preset each round, after that preset's residuals; the
# tasks rotate over the presets from round to round, the same for every seed,
# so the seed never changes which costly pairings a run holds
NUMERIC_TASKS = ("maps", "potentials", "sl1", "maps", "potentials", "sl2")
NUMERIC_NODES = {"maps": (500, 2000), "potentials": (500, 2000),
                 "sl1": (500, 1000), "sl2": (500, 2000)}


def _residual_request(spec, l, m, form, nodes):
    return Request("numeric.residual",
                   ("numeric", "residual", "--family", spec, "--l", str(l),
                    "--m", str(m), "--form", form, "--nodes", str(nodes)),
                   preset_pq(spec), {"preset": spec, "l": l, "m": m,
                                     "form": form, "nodes": nodes})


def _csv_request(task, spec, nodes, l, m):
    argv = ["numeric", task, "--family", spec, "--nodes", str(nodes)]
    params = {"preset": spec, "nodes": nodes}
    if task == "potentials":
        argv += ["--l", str(l), "--m", str(m)]
        params.update(l=l, m=m)
    return Request(f"numeric.{task}", tuple(argv), preset_pq(spec), params)


def _numeric_stream(seed: int):
    rng = random.Random(f"numeric-schrodinger:{seed}")
    n = len(PRESETS)
    for rnd in count():
        # the repo's bound rel <= 1e-6 is stated at 2000 nodes; below 1000
        # nodes second-order differencing alone misses it
        nodes = iter(_strata(rng, 1000, 4000, 2 * n))
        tasks = [NUMERIC_TASKS[(i + rnd) % n] for i in range(n)]
        csv_nodes = {t: iter(_strata(rng, *NUMERIC_NODES[t],
                                     tasks.count(t)))
                     for t in NUMERIC_NODES}
        for i, spec in enumerate(PRESETS):
            for form in ("y", "z"):
                l = rng.randint(0, 6)
                m = 0 if form == "y" else rng.randint(0, l)
                yield _residual_request(spec, l, m, form, next(nodes))
            l = rng.randint(0, 6)
            yield _csv_request(tasks[i], spec, next(csv_nodes[tasks[i]]), l,
                               rng.randint(0, l))
        for j in range(2):
            spec = DEFINITE_WEIGHT[(2 * rnd + j) % len(DEFINITE_WEIGHT)]
            yield Request("orthogonality", None, preset_pq(spec),
                          {"preset": spec, "nmax": 5})


STREAMS = {"verify-suite": _verify_stream, "eigen-ladder": _eigen_stream,
           "numeric-schrodinger": _numeric_stream}

# one small request of each command kind, run untimed during set-up
WARMUP = {
    "verify-suite": [("verify", "--family", "legendre", "--levels", "1")],
    "eigen-ladder": [
        ("eigenfunction", "--family", "legendre", "--l", "2"),
        ("factorize", "--family", "legendre", "--levels", "3",
         "--branch", "both"),
        ("classify", "--family", "legendre", "--l", "3", "--m", "1")],
    "numeric-schrodinger": [
        ("numeric", "residual", "--family", "legendre", "--l", "1",
         "--nodes", "200"),
        ("numeric", "maps", "--family", "legendre", "--nodes", "50"),
        ("numeric", "potentials", "--family", "legendre", "--nodes", "50"),
        ("numeric", "sl1", "--family", "legendre", "--nodes", "50"),
        ("numeric", "sl2", "--family", "legendre", "--nodes", "50"),
        None],                       # None: a small orthogonality call
}


def stream(workload: str, seed: int):
    """The endless request stream of a workload; the same seed gives the
    same stream."""
    return STREAMS[workload](seed)


def reuse_share(requests) -> float:
    """Share of requests whose (p, q) appeared in an earlier request."""
    seen, reused = set(), 0
    for req in requests:
        reused += req.pq in seen
        seen.add(req.pq)
    return reused / len(requests)
