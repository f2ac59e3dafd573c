"""Byte identity of the exact CLI commands against perfbench/golden.json,
and of a few requests at the sizes the eigen-ladder workload reaches."""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from client import Client  # noqa: E402
import golden  # noqa: E402

from susyfactor import cli  # noqa: E402


def test_golden_outputs_unchanged():
    assert golden.check(Client()) == []


# sha256 of stdout as recorded on commit 8206ff9, whose Poly held a tuple of
# Fractions; (the next four) on commit 9330ab6, whose factor table ran on
# Fractions and whose top-down chain ran QuasiFunction.derive; and (the last
# four: negative m, and the bottom-up form at m != 0) on commit e3446e8,
# whose eigenfunctions were QuasiFunctions; (the verify suites after them)
# on commit 6e72839, whose checks returned booleans; (the last two, where
# p'', q', p'(0), q(0) and p(0) are all nonzero, as on no preset, and whose
# normsq runs through the lambda product) on commit 0f7b77c, whose tables and
# lambda each put (p, q) over their own common denominator; (the l = 300
# eigenfunctions and the factorize whose plus table breaks at level 400) on
# commit d9596fe, whose factor tables built a Fraction per field and whose
# Phi and Rodrigues chains built a reduced Poly per step; (the factorize
# requests after them) on commit 2f95706, whose factorize printed each
# entry through a FactorEntry of Fractions.  golden.json
# stops at l <= 7, 12 levels and verify at level 2, with no negative m, no
# bottom-up form at m != 0, no perturbed suite and no constant p off the
# presets
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
    "factorize --family hypergeom:1/3,1/5,7/2 --levels 400 --branch both":
        "bedc707e94435adedf04676def30f66434693999c8607658bae441ddfcef02b8",
    "factorize --family laguerre:1 --levels 400 --branch plus":
        "ec0e185a49fc7d78ea0e2cc314d2578b879343cdde6b87f2b5fba5597e1ba059",
    "eigenfunction --family hypergeom:1/3,1/5,7/2 --l 41 --m 0 "
    "--form rodrigues":
        "4f42c5de892658e6ef74e117876d715a820463c714d8f1d53d1a8177ad80a788",
    "eigenfunction --p 3 --q -2,1/2 --l 7 --m 3 --form topdown":
        "6dc8ca64895981c61ac9bda5a5b2e6a54b657a924de88db4d6d8201bda53e9bb",
    "eigenfunction --family legendre --l 53 --m -21 --form topdown":
        "b7bd0be3c2d44525969490cc192b4828f0ad015c1a379dbc6fcedf93c9c02d7f",
    "eigenfunction --family jacobi:2,3 --l 32 --m -11 --form bottomup":
        "a9b464a4fb1e780e69508d7be840e49d4a0e7112c05364d40af193e8b8acd6cf",
    "eigenfunction --family hermite --l 12 --m -5 --form ladder":
        "473eac056e01fbb70a207094205bf48f5575b68866aaf365985fccb5d8308bcd",
    "eigenfunction --family hypergeom:1/3,1/5,7/2 --l 40 --m 13 "
    "--form bottomup":
        "25bf3f506b261401b691688f6bef36499115cd0ac68e3ef712c0871ba3fedb5c",
    "verify --family legendre --levels 8":
        "82d7c4caaa472289da986fc31ca0409864a5b31d0d47d316fe4a46847ae3134a",
    "verify --family legendre --levels 12":
        "62b9a3a298362e619b9f1969b9fdb885bcf0f87af4b3972661e9a74922675525",
    "verify --family jacobi:2,3 --levels 8":
        "82d7c4caaa472289da986fc31ca0409864a5b31d0d47d316fe4a46847ae3134a",
    "verify --family laguerre:1 --levels 8":
        "82d7c4caaa472289da986fc31ca0409864a5b31d0d47d316fe4a46847ae3134a",
    "verify --family laguerre:1 --levels 12":
        "62b9a3a298362e619b9f1969b9fdb885bcf0f87af4b3972661e9a74922675525",
    "verify --family hermite --levels 8":
        "045db04e3d6050113267a5ffd2765984ec3452b7e6e29e6e6d4d6319f64c6b3b",
    "verify --family hermite --levels 12":
        "f4e3948619ec2a9c4ef5b716e02d9604579bc67b3d9a8639bb8c7d66a282119a",
    "verify --family hypergeom:1/3,1/5,7/2 --levels 8":
        "82d7c4caaa472289da986fc31ca0409864a5b31d0d47d316fe4a46847ae3134a",
    "verify --family hypergeom:1/3,1/5,7/2 --levels 12":
        "62b9a3a298362e619b9f1969b9fdb885bcf0f87af4b3972661e9a74922675525",
    "verify --family confluent:3 --levels 8":
        "82d7c4caaa472289da986fc31ca0409864a5b31d0d47d316fe4a46847ae3134a",
    "verify --family confluent:3 --levels 12":
        "62b9a3a298362e619b9f1969b9fdb885bcf0f87af4b3972661e9a74922675525",
    "verify --family legendre --levels 4 --perturb-delta 1":
        "2e2d9e1974a4f8f5f567c268bec9711281592e0bc9891cdbc8279b6af4f66afd",
    "verify --p 1 --q 1,0 --levels 4":
        "64278ff566604429ab73c8b9b6b783eee76e90de6c860fdb9f69dbb5ef7aa63b",
    "verify --p 2 --q -3,1 --levels 4":
        "64278ff566604429ab73c8b9b6b783eee76e90de6c860fdb9f69dbb5ef7aa63b",
    "eigenfunction --p -1/2,1/3,2 --q -3/2,1/4 --l 9 --m 4 --form topdown":
        "d355e7e90b0dcd2ffc9ddb2afc81a82e017967a60279a157c082cfceb839f209",
    "eigenfunction --p -1/2,1/3,2 --q -3/2,1/4 --l 9 --m -4 --form bottomup":
        "7d2decaf197ae9e3e48640712bff935b15ac9cc1315c57f02968353d34d6bfae",
    "eigenfunction --family legendre --l 300 --m 0 --form bottomup":
        "06809728f9ce61e6b36531b7c8cce719f850d38b569b7a2e939a2170b73cd4a8",
    "eigenfunction --family legendre --l 300 --m 0 --form topdown":
        "737cf62408ddb3b0c7a64fdcd8f223b6ee5d57652cb36548cea7962c914d0fea",
    "eigenfunction --family jacobi:2,3 --l 300 --m 0 --form bottomup":
        "9ba61edd9ae1f6b46d0253f3d9218689128080bba89f7adf2d1b0c7476d2f409",
    "eigenfunction --family jacobi:2,3 --l 300 --m 0 --form topdown":
        "4c1030250955d24a410c97862e7d9ae8e2e7045e60fb5d3dbd3a8e45fb543c49",
    "eigenfunction --family laguerre:1 --l 300 --m 0 --form bottomup":
        "bc65027e6bf90857f081ff9c18408fb394586d77f403e23715bad406bea97001",
    "eigenfunction --family laguerre:1 --l 300 --m 0 --form topdown":
        "94506c5a902698e5b208dff7838b6e81b45bb967deb1dd62e8e7f4b29513e425",
    "eigenfunction --family hermite --l 300 --m 0 --form bottomup":
        "2a7c7d6ff51011a32a85aea264e13e7126bc040311ba21ba959b3064a8c4bc69",
    "eigenfunction --family hermite --l 300 --m 0 --form topdown":
        "1beba36a95bfd6b78ec5a841c0784fe3d23bd83a621e86d671612ddc3ba5f575",
    "eigenfunction --family hypergeom:1/3,1/5,7/2 --l 300 --m 0 "
    "--form bottomup":
        "d1fae22dc5d9a45df9a22506a2e47636515e4529d2504022f6766b5ca95b586f",
    "eigenfunction --family hypergeom:1/3,1/5,7/2 --l 300 --m 0 "
    "--form topdown":
        "abf4d678927277fc1f09e3def77bf965032f7d5bd94deb5836066210e3c2642d",
    "eigenfunction --family hypergeom:1/3,1/5,7/2 --l 300 --m 100 "
    "--form bottomup":
        "1859e79052ec16485ceec32e396601c5f0167ba9c966da27a58617c5de652d17",
    "eigenfunction --family hypergeom:1/3,1/5,7/2 --l 300 --m 100 "
    "--form topdown":
        "894decd208213bf4da4907c80bdcb761e5b249e749326e4c6413a990e9177f87",
    "eigenfunction --family confluent:3 --l 300 --m 0 --form bottomup":
        "7371c11f2631fe9a228d140b1c4b44ca17be5876457ab223930dd64f3248bdeb",
    "eigenfunction --family confluent:3 --l 300 --m 0 --form topdown":
        "dd3e898178a9dbaa7c99a4d99142148fd93752d1c97151e227c29a821321aa25",
    "factorize --p 1,0,0 --q -800,0 --levels 400 --branch both":
        "a82c87fc93251c04f5ffd397c9f92d460c4b1f2a05aaf4b13827cef94eec8b98",
    "factorize --family legendre --levels 400 --branch both":
        "cf9f96a5c3f53b59356a47aeafb83e5fd3afa637b7ab5a5caeb7bed86274da76",
    "factorize --family confluent:3 --levels 400 --branch both":
        "e8e2597afd79cd0a5e63bb191d4ffd680358e234923b5ef370211dc95b8eff2e",
    # every Taylor numerator nonzero; a_l < 0 on the plus branch
    "factorize --p -1/2,1/3,2 --q -3/2,1/4 --levels 400 --branch both":
        "adc95f8fd0bbd920cf42a6638f0c5268c7c16d5d831a89c5246ecec6fb8a07a1",
    "factorize --p 1 --q 0,1 --levels 250 --branch plus":
        "c8f56fba4794c4faa513824f5ed1465d3be702f21e87491642bcf3379707fe7a",
}


# exit codes other than 0; the perturbed suite must fail, the plus table
# of p = x^2, q = -800 x breaks at level 400, and that of p = 1, q = x (the
# eigen-ladder workload's request for its hermite block) at level 0
EXIT = {"verify --family legendre --levels 4 --perturb-delta 1": 1,
        "factorize --p 1,0,0 --q -800,0 --levels 400 --branch both": 2,
        "factorize --p 1 --q 0,1 --levels 250 --branch plus": 2}


@pytest.mark.parametrize("command", list(LARGE))
def test_large_outputs_unchanged(command):
    out = Client().run_cli(command.split())
    assert (out.rc, out.exc) == (EXIT.get(command, 0), None)
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == LARGE[command]


# sha256 of every residual of the verify suite, each serialized as
# (k, [str(c) for c in coeffs]), as recorded on commit 25be5bb, whose
# operators held one Poly per coefficient.  verify prints only booleans, so
# a residual that changes but stays nonzero shows only here; the perturbed
# suites' shape-invariance residuals are the nonzero ones
ZERO_8 = "21f59ac3100d9ae5d84eaf272943f4b4083a5500c48c9478f0c9f1be930aea8e"
RESIDUALS = {
    "verify --family legendre --levels 8": ZERO_8,
    "verify --family jacobi:2,3 --levels 8": ZERO_8,
    "verify --family laguerre:1 --levels 8": ZERO_8,
    "verify --family hermite --levels 8":
        "25a76d6778a991544fb44e8980fbb6fb89ccec5655543f0aeb6549807fb3e073",
    "verify --family hypergeom:1/3,1/5,7/2 --levels 8": ZERO_8,
    "verify --family confluent:3 --levels 8": ZERO_8,
    "verify --family legendre --levels 4 --perturb-delta 1":
        "f8e67bbd7afcd38fe4eca82558eaf259bc8df9479487f9a89ab209eb8e2bad67",
    "verify --family jacobi:2,3 --levels 8 --perturb-delta 1":
        "aa4ac6d5c645235f53f0c277d8e1ff9ce03d5f017d7c73521d1cef599bbf5da8",
    "verify --p -1/2,1/3,2 --q -3/2,1/4 --levels 4":
        "239b9f96054860df9eee1799f8e971d0e2e09f4588e222bd649de752e730153d",
    "verify --p 2 --q -3,1 --levels 4 --perturb-delta 1":
        "18bfbdcb5e59f73da04860ddc9de0c8689bbb29c03e1baa01e750dd8990ea788",
}


def _serial(res):
    if isinstance(res, dict):
        return {name: _serial(r) for name, r in res.items()}
    return [str(res.k), [str(c) for c in res.coeffs]]


@pytest.mark.parametrize("command", list(RESIDUALS))
def test_verify_residuals_unchanged(command):
    args = cli._build_parser().parse_args(
        cli._merge_negative_values(command.split()))
    res = cli._verify_residuals(cli._problem_from_args(args), args.levels,
                                Fraction(args.perturb_delta or 0))
    text = json.dumps(_serial(res))
    assert hashlib.sha256(text.encode()).hexdigest() == RESIDUALS[command]
