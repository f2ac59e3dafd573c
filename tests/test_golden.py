"""Byte identity of the exact CLI commands against perfbench/golden.json."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from client import Client  # noqa: E402
import golden  # noqa: E402


def test_golden_outputs_unchanged():
    assert golden.check(Client()) == []
