"""Golden CLI reports: the JSON of fixed `qcat` commands on the Ising fixture
must match the stored reports in tests/golden/ising under `qcat diff --tol 1e-10`.

The stored reports are regenerated only when a change is meant to alter them:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qcat.cli import _diff, run

GOLDEN_DIR = Path(__file__).parent / "golden" / "ising"
TOL = 1e-10

# The mixed boundary pairs (trivial with ising_q) are left out: their
# eigenvector phases from `range_isometry` may move between correct versions.
COMMANDS = {
    "validate": ["validate", "ising"],
    "canonical": ["canonical", "ising"],
    "centre": ["centre", "ising", "ising_q"],
    "full-centre": ["full-centre", "ising", "ising_q"],
    "zmatrix": ["zmatrix", "ising", "ising_q"],
    "modules-left": ["modules", "ising", "ising_q", "--side", "left"],
    "modules-right": ["modules", "ising", "ising_q", "--side", "right"],
    "bimodules": ["bimodules", "ising", "ising_q", "ising_q"],
    "bimodules-trivial-ising_q": ["bimodules", "ising", "trivial", "ising_q"],
    "decompose-central": ["decompose", "ising", "ising_q", "--mode", "central"],
    "decompose-irreducible": ["decompose", "ising", "ising_q", "--mode", "irreducible"],
    "boundary-trivial-trivial": ["boundary", "ising", "--A", "trivial", "--B", "trivial"],
    "boundary-ising_q-ising_q": ["boundary", "ising", "--A", "ising_q", "--B", "ising_q"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_report_matches_golden(name, capsys):
    assert run(COMMANDS[name]) == 0
    live = json.loads(capsys.readouterr().out)
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    differences: list[str] = []
    _diff(golden, live, TOL, "", differences)
    assert differences == []


def _write_golden() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv)
        if code != 0:
            raise SystemExit(f"{name}: qcat exited {code}")
        (GOLDEN_DIR / f"{name}.json").write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {name}.json", file=sys.stderr)


if __name__ == "__main__":
    _write_golden()
