"""Golden CLI reports: the JSON of fixed `qcat` commands must match the stored
reports under `qcat diff --tol 1e-10`.  Two gates: the Ising fixture
(tests/golden/ising) and a gauged Z3 with non-self-dual labels, whose category
file is tests/golden/gauged_z3/category.json (tests/golden/gauged_z3).

The stored reports are regenerated only when a change is meant to alter them:
every report of each named gate (of both gates when none is named), or only
the reports named after a gate, so that no other report picks up float noise:

    PYTHONPATH=src python tests/test_golden.py [ising [name ...]] [gauged_z3 [name ...]]

For example `python tests/test_golden.py ising boundary-ising_q-ising_q`
rewrites that one report.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qcat.cli import _diff, run

GOLDEN_ROOT = Path(__file__).parent / "golden"
GAUGED_Z3 = str(GOLDEN_ROOT / "gauged_z3" / "category.json")
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

GAUGED_Z3_COMMANDS = {
    "validate": ["validate", GAUGED_Z3],
    "canonical": ["canonical", GAUGED_Z3],
    "full-centre-trivial": ["full-centre", GAUGED_Z3, "trivial"],
    "zmatrix-trivial": ["zmatrix", GAUGED_Z3, "trivial"],
    "modules-trivial": ["modules", GAUGED_Z3, "trivial"],
    "boundary-trivial-trivial": ["boundary", GAUGED_Z3, "--A", "trivial", "--B", "trivial"],
}

GATES = {"ising": COMMANDS, "gauged_z3": GAUGED_Z3_COMMANDS}


def _check(gate: str, name: str, capsys) -> None:
    assert run(GATES[gate][name]) == 0
    live = json.loads(capsys.readouterr().out)
    golden = json.loads((GOLDEN_ROOT / gate / f"{name}.json").read_text(encoding="utf-8"))
    differences: list[str] = []
    _diff(golden, live, TOL, "", differences)
    assert differences == []


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_report_matches_golden(name, capsys):
    _check("ising", name, capsys)


@pytest.mark.parametrize("name", sorted(GAUGED_Z3_COMMANDS))
def test_gauged_z3_report_matches_golden(name, capsys):
    _check("gauged_z3", name, capsys)


def test_gauged_z3_file_is_the_test_category():
    from test_category import gauged_z3_data

    stored = json.loads(Path(GAUGED_Z3).read_text(encoding="utf-8"))
    assert stored == json.loads(json.dumps(gauged_z3_data()))


def _selection(args: list[str]) -> dict[str, list[str]]:
    """Gate -> the report names that follow it (all of its reports if none);
    every report of every gate when args is empty."""
    if not args:
        return {gate: list(commands) for gate, commands in GATES.items()}
    picked: dict[str, list[str]] = {}
    gate = None
    for arg in args:
        if arg in GATES:
            gate = arg
            picked.setdefault(gate, [])
        elif gate is not None and arg in GATES[gate]:
            picked[gate].append(arg)
        else:
            raise SystemExit(f"{arg!r} is neither a gate ({', '.join(GATES)}) nor a report of the gate before it")
    return {gate: names or list(GATES[gate]) for gate, names in picked.items()}


def _write_golden(selection: dict[str, list[str]]) -> None:
    for gate, names in selection.items():
        (GOLDEN_ROOT / gate).mkdir(parents=True, exist_ok=True)
        for name in names:
            argv = GATES[gate][name]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run(argv)
            if code != 0:
                raise SystemExit(f"{gate}/{name}: qcat exited {code}")
            (GOLDEN_ROOT / gate / f"{name}.json").write_text(buf.getvalue(), encoding="utf-8")
            print(f"wrote {gate}/{name}.json", file=sys.stderr)


if __name__ == "__main__":
    _write_golden(_selection(sys.argv[1:]))
