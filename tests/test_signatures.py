"""The library's knobs: a category carries the one tolerance every check
reads (`cat.tol`), and a seed reaches only the searches for minimal
idempotents."""
from __future__ import annotations

import inspect

import pytest

import qcat
from qcat.frobenius import AlgebraPresentation

SEEDED = {"central_decomposition", "irreducible_decomposition", "decompose_module", "minimal_idempotents"}


# every function the package exports, and the methods of AlgebraPresentation
FUNCTIONS = {
    **{name: obj for name, obj in vars(qcat).items() if inspect.isfunction(obj)},
    **{f"AlgebraPresentation.{name}": obj for name, obj in vars(AlgebraPresentation).items() if inspect.isfunction(obj)},
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_no_tolerance_knob_and_seeds_only_on_searches(name):
    params = inspect.signature(FUNCTIONS[name]).parameters
    assert not {"tol", "cluster_tol"} & set(params)
    assert ("seed" in params) == (name.rsplit(".", 1)[-1] in SEEDED)


def test_the_walk_sees_the_seeded_functions():
    assert {name.rsplit(".", 1)[-1] for name in FUNCTIONS} >= SEEDED
