"""Byte identity of the exact CLI commands against perfbench/golden.json,
and of a few requests at the sizes the eigen-ladder workload reaches."""

import hashlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from client import Client  # noqa: E402
import golden  # noqa: E402


def test_golden_outputs_unchanged():
    assert golden.check(Client()) == []


# sha256 of stdout as recorded on commit 8206ff9, whose Poly held a tuple of
# Fractions; golden.json stops at l <= 7 and 12 levels
LARGE = {
    "eigenfunction --family legendre --l 53 --m 0 --form ladder":
        "85fd2beb2b2076b96ae47812aba022b0fb11927e534ddb7023ba0075f418eb24",
    "eigenfunction --family legendre --l 53 --m 20 --form topdown":
        "f18bdf1575f90668e41c302c0666b1a212bd2be826e762f9e3668a88d08e889b",
    "eigenfunction --family hypergeom:1/3,1/5,7/2 --l 40 --m 1 "
    "--form topdown":
        "9ee3cce84ea483ff08ab19405a1a38bea32d900570f5fee723eae5ba219c9a78",
    "factorize --family jacobi:2,3 --levels 400 --branch both":
        "552cc2b7ed7bc8fe97b5d84003659c1483c14ef9b6d50c6ba84c38285ff4918d",
    "verify --family jacobi:2,3 --levels 12":
        "62b9a3a298362e619b9f1969b9fdb885bcf0f87af4b3972661e9a74922675525",
}


@pytest.mark.parametrize("command", list(LARGE))
def test_large_outputs_unchanged(command):
    out = Client().run_cli(command.split())
    assert (out.rc, out.exc) == (0, None)
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == LARGE[command]
