import os
from fractions import Fraction
from pathlib import Path

import pytest

from susyfactor.core import Poly, Problem

# the CLI runs in subprocesses import the package from this checkout too
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH")]))


def legendre() -> Problem:
    return Problem(Poly([1, 0, -1]), Poly([0, -2]))


def jacobi(a, b) -> Problem:
    a, b = Fraction(a), Fraction(b)
    return Problem(Poly([1, 0, -1]), Poly([b - a, -(a + b + 2)]))


def laguerre(a) -> Problem:
    return Problem(Poly([0, 1]), Poly([Fraction(a) + 1, -1]))


def hermite() -> Problem:
    return Problem(Poly([1]), Poly([0, -2]))


def hypergeom(a, b, c) -> Problem:
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return Problem(Poly([0, -1, 1]), Poly([-c, a + b + 1]))


def confluent(m) -> Problem:
    return Problem(Poly([0, 1]), Poly([Fraction(m), -1]))


FAMILIES = {
    "legendre": legendre(),
    "jacobi(2,3)": jacobi(2, 3),
    "laguerre(1)": laguerre(1),
    "hermite": hermite(),
    "hypergeom(1/3,1/5,7/2)": hypergeom(Fraction(1, 3), Fraction(1, 5),
                                        Fraction(7, 2)),
    "confluent(3)": confluent(3),
}


@pytest.fixture(params=list(FAMILIES), ids=list(FAMILIES))
def family(request) -> Problem:
    return FAMILIES[request.param]
