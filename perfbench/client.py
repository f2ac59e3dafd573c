"""The benchmark's one client: sends requests to susyfactor in-process.

A CLI request is ``cli.main(argv)`` with stdout and stderr captured, exactly
what the console script runs after start-up; a library request calls the
numeric API directly.  The program is imported from ``src/`` of the checkout
that holds this directory.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from oracle import Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def have_program() -> bool:
    return (SRC / "susyfactor" / "cli.py").is_file()


class Client:
    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import susyfactor
        from susyfactor import cli, numeric
        from susyfactor.core import Poly, Problem
        self.package = susyfactor
        self._main = cli.main
        self._numeric = numeric
        self._poly, self._problem = Poly, Problem

    def run_cli(self, argv) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self._main(list(argv))
            except SystemExit as ex:          # argparse rejected the argv
                rc = ex.code
            except Exception as ex:           # an escaped error is an outcome
                rc, exc = None, (type(ex).__name__, str(ex))
        return Outcome(rc, out.getvalue(), err.getvalue(), exc)

    def orthogonality(self, pq, nmax) -> Outcome:
        prob = self._problem(self._poly(pq.p), self._poly(pq.q))
        try:
            gram = self._numeric.orthogonality_matrix(prob, nmax)
        except Exception as ex:
            return Outcome(None, exc=(type(ex).__name__, str(ex)))
        return Outcome(0, value=gram.tolist())

    def send(self, req) -> Outcome:
        if req.argv is None:
            return self.orthogonality(req.pq, req.params["nmax"])
        return self.run_cli(req.argv)
