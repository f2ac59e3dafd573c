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
# (k, [str(c) for c in coeffs]).  verify prints only booleans, so a
# residual that changes but stays nonzero shows only here; the perturbed
# suites' shape-invariance residuals are the nonzero ones
ZERO_8 = "9ba7088874ef4fcfb89c5ccb50bf3f407efc4cec1d9b8d4caac4edef92e95bfb"
RESIDUALS = {
    "verify --family legendre --levels 8": ZERO_8,
    "verify --family jacobi:2,3 --levels 8": ZERO_8,
    "verify --family laguerre:1 --levels 8": ZERO_8,
    "verify --family hermite --levels 8":
        "169523fca2851604569d1747b10239c0e80eddaba9fd78d075ed1d579828ae7d",
    "verify --family hypergeom:1/3,1/5,7/2 --levels 8": ZERO_8,
    "verify --family confluent:3 --levels 8": ZERO_8,
    "verify --family legendre --levels 4 --perturb-delta 1":
        "01734b2844da17512cb00919511f65bed7bf16081623f08493d8b15b3b8b2397",
    "verify --family jacobi:2,3 --levels 8 --perturb-delta 1":
        "82932002c5b7e797457b8616e45081d8f5a366d2fa1e9a6a5e4454835db06440",
    "verify --p -1/2,1/3,2 --q -3/2,1/4 --levels 4":
        "f5f063243adf97a21b02ce5c8b4777b2f72f2ecc34960a1cc98f655d649136b7",
    "verify --p 2 --q -3,1 --levels 4 --perturb-delta 1":
        "46aafe55b53b0c197c2091ac79f40b92515c7cff098d342e95f191b084ba7ad1",
}

# the same, without the associated checks' momentum_map, as recorded on
# commit aff0631 without the equivalent-forms lambda_shift it still had
# (symmetry's lambda states that relation): every other residual is the
# one that commit gave, whose negative_level was an eigen-residual on
# Phi_{l,-m} and is now an operator identity
ZERO_8_AFF0631 = \
    "63bce008a41ae0f94360e48e71f00b62d838a55adbe58cfe776ccd8fc96fe8b7"
RESIDUALS_AFF0631 = {
    "verify --family legendre --levels 8": ZERO_8_AFF0631,
    "verify --family jacobi:2,3 --levels 8": ZERO_8_AFF0631,
    "verify --family laguerre:1 --levels 8": ZERO_8_AFF0631,
    "verify --family hermite --levels 8":
        "23f051f15e4db79b5090bf412716e838e0387f819ceee6aa20842bee51f38c40",
    "verify --family hypergeom:1/3,1/5,7/2 --levels 8": ZERO_8_AFF0631,
    "verify --family confluent:3 --levels 8": ZERO_8_AFF0631,
    "verify --family legendre --levels 4 --perturb-delta 1":
        "b62150424ceb1fc9dfe439c42765f02b7e75f0278c172c21e20046b2c696c452",
    "verify --family jacobi:2,3 --levels 8 --perturb-delta 1":
        "0a1ebb4a3da75f2ccbe4c5114eb6f7f199e3e96d614885518da7e5b6c20134bb",
    "verify --p -1/2,1/3,2 --q -3/2,1/4 --levels 4":
        "03acdc4017c43afb40780ddf2f27a3835f5611dc228a2bb58353ef9832789ba5",
    "verify --p 2 --q -3,1 --levels 4 --perturb-delta 1":
        "4d3126d8b09ab1dbed6936e3370362f8b1c53a8e94af679a1349da10c2444a26",
}


def _serial(res):
    if isinstance(res, dict):
        return {name: _serial(r) for name, r in res.items()}
    return [str(res.k), [str(c) for c in res.coeffs]]


def _residuals_serial(command):
    args = cli._build_parser().parse_args(
        cli._merge_negative_values(command.split()))
    return _serial(cli._verify_residuals(
        cli._problem_from_args(args), args.levels,
        Fraction(args.perturb_delta or 0)))


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("command", list(RESIDUALS))
def test_verify_residuals_unchanged(command):
    assert _sha(_residuals_serial(command)) == RESIDUALS[command]


@pytest.mark.parametrize("command", list(RESIDUALS_AFF0631))
def test_verify_residuals_without_momentum_map_match_aff0631(command):
    serial = _residuals_serial(command)
    for res in serial.values():
        if isinstance(res, dict):
            res.pop("momentum_map", None)
    assert _sha(serial) == RESIDUALS_AFF0631[command]


# sha256 of the stdout of the numeric commands on the presets, as recorded
# on commit b12f258 with numpy 2.4.6, whose weight, domain and mu0 each
# worked out the roots of p, the weight's exponents and the working side on
# their own.  Floats print in full, so each pin holds every digit
NUMERIC = {
    "numeric residual --family legendre --l 3 --nodes 40 --form y":
        "1f256e773955351e1dba68d12131564ad240ffd676ba31ebb2cec3055928530b",
    "numeric residual --family legendre --l 3 --m 1 --nodes 40 --form z":
        "9a52586aa9cc2585035f2bb4047a2eff128af15001a868f59a4d1491c10fbe3b",
    "numeric maps --family legendre --nodes 7":
        "6349ad9d220acb4d0b11721621feebb10ad9fd52bbdcd305a9163dcfdbeeb091",
    "numeric potentials --family legendre --l 2 --m 1 --nodes 7":
        "cf07225e2311d3eb32052a5db038748f48ebab56307ebd26252866b73a9b00dd",
    "numeric sl1 --family legendre --nodes 7":
        "00b758f007ce0c7b9f436ea3fa1fd121701568f4416a72ebfc57f0e1cd428c1d",
    "numeric sl2 --family legendre --nodes 7":
        "1376ff21875c112ceeb5efb7c797d1901a89c4590379c59abb62203ad93cb3da",
    "numeric residual --family jacobi:2,3 --l 3 --nodes 40 --form y":
        "4b0e5114d81e75f1ff66f71a4d9da4841d9d3e49df0cb5d3ab42b0f86d815004",
    "numeric residual --family jacobi:2,3 --l 3 --m 1 --nodes 40 --form z":
        "844c9a060900af96d6d970bd29037f1123f87fc2706e989d3387b64091604177",
    "numeric maps --family jacobi:2,3 --nodes 7":
        "6349ad9d220acb4d0b11721621feebb10ad9fd52bbdcd305a9163dcfdbeeb091",
    "numeric potentials --family jacobi:2,3 --l 2 --m 1 --nodes 7":
        "4ff98455d6e3fff476fac820c39d0c1db26ecf488a70d346326fe8ced9f00c1f",
    "numeric sl1 --family jacobi:2,3 --nodes 7":
        "3a0737ab7c4afbf80f74b6f2fa5115b160a6a3891caf1055edd87a8c9877417e",
    "numeric sl2 --family jacobi:2,3 --nodes 7":
        "5f5ab9555cd5af0bec6a5dc364a1ee74f91414f5f3eaa4d7daf819d5e860e68e",
    "numeric residual --family laguerre:1 --l 3 --nodes 40 --form y":
        "e505d456cfb8037354393cebda7b8c11d6042382e6c2742b3a8771fc63e5b8b4",
    "numeric residual --family laguerre:1 --l 3 --m 1 --nodes 40 --form z":
        "a6e8cb31d351c0308670d45c56d2e2675227e476cffd59cc5e481275f402014d",
    "numeric maps --family laguerre:1 --nodes 7":
        "e38e1f7ffb15d0753ed342caa83d85ea4f9689e6c70b62683236eab4f32e7e98",
    "numeric potentials --family laguerre:1 --l 2 --m 1 --nodes 7":
        "205e5326dcb3a6c5af9a94827a7aa4ae0c37f530226b8c73d274f6aaafe7ffa7",
    "numeric sl1 --family laguerre:1 --nodes 7":
        "6f801a87b990565b0cb38895a6e5b27ab7df402908dd0bb97db255444a504928",
    "numeric sl2 --family laguerre:1 --nodes 7":
        "40701d6fbb2edf66fe18c9bc0d9fb354eca6bd9d0dc835d62e499382953ac80f",
    "numeric residual --family hermite --l 3 --nodes 40 --form y":
        "dcafe9d59808fa7c2bba2bb97fed13f416b8f8d2ee6ebb02df596c9d5d8a762e",
    "numeric residual --family hermite --l 3 --m 1 --nodes 40 --form z":
        "78a290a030938bfa26a391daf6ef7b5c95ad67405817103cd509f651c3dac190",
    "numeric maps --family hermite --nodes 7":
        "4a4a659037ee7f4305331aa164c112a2aa93fcff8fe515d275383baf33f82cbe",
    "numeric potentials --family hermite --l 2 --m 1 --nodes 7":
        "5f3bbbb93389087ee036713bd823476aba5f077bbd3d671530498238dad7b6b9",
    "numeric sl1 --family hermite --nodes 7":
        "edcc0925598482cd163fc434d600e3376d48c40604e7c2fff687c9072945e9e8",
    "numeric sl2 --family hermite --nodes 7":
        "e8cc7866b7e5790a33de153796b29f5199ad1772a9e7a755b6c25adfe999a4e7",
    "numeric residual --family hypergeom:1/3,1/5,7/2 --l 3 --nodes 40 "
    "--form y":
        "523f4d282f8a6443cb1b8189491a3a5468044fe115e64e2f79f881c7dd4128fd",
    "numeric residual --family hypergeom:1/3,1/5,7/2 --l 3 --m 1 "
    "--nodes 40 --form z":
        "b2c80e309bc03f82ffed6ffd338764e56f582ba86685b0870255d32a2bcda198",
    "numeric maps --family hypergeom:1/3,1/5,7/2 --nodes 7":
        "4fb113b00a44a2b459c794ca05ebc697348bb0bb6300f533fce2769f6cacb825",
    "numeric potentials --family hypergeom:1/3,1/5,7/2 --l 2 --m 1 --nodes 7":
        "3a6230791eeaa4278ce42d5f0bddf9e1e7c2c92e83890f2f2661bdd003cb2073",
    "numeric sl1 --family hypergeom:1/3,1/5,7/2 --nodes 7":
        "8237c7f9ee9ee7976515b95b05207334b2aee35fd531e12acab21102c6d561e1",
    "numeric sl2 --family hypergeom:1/3,1/5,7/2 --nodes 7":
        "a007feca339a52b38f8b40544e53c0f202bfd5ea8aa5ff22706fd1db7198430b",
    "numeric residual --family confluent:3 --l 3 --nodes 40 --form y":
        "6e8764c4d1e093e3d0498ee355c22051b5a1eec2cd7a83cec7745cf84047cc10",
    "numeric residual --family confluent:3 --l 3 --m 1 --nodes 40 --form z":
        "dbc5e112f5b9b5b73153d6213cda242cd614231539a33bbf470a56c18ed3be14",
    "numeric maps --family confluent:3 --nodes 7":
        "390629eec5fc4dee38ecc58b6d6feb39a3f59c20a67a34df593285a0f0037804",
    "numeric potentials --family confluent:3 --l 2 --m 1 --nodes 7":
        "682f083d97e995b2779f5e3a9d7431807740d7d9cc60a80bd6bfd50c2832425f",
    "numeric sl1 --family confluent:3 --nodes 7":
        "7a568c248ab8515a2ff2c47b12220633743a646d01edd7cf68347e5238e668c3",
    "numeric sl2 --family confluent:3 --nodes 7":
        "94f4c9a25c31bef2cf3174c3d9368750c963f0c0d1ed3028e662ac27badc5b32",
}


@pytest.mark.parametrize("command", list(NUMERIC))
def test_numeric_outputs_unchanged(command):
    out = Client().run_cli(command.split())
    assert (out.rc, out.stderr, out.exc) == (0, "", None)
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == NUMERIC[command]
