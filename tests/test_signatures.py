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


def test_the_methods_the_benchmark_tracer_patches_exist():
    """perfbench/spans.py patches these methods by name: renaming one breaks
    `perfbench/run.py --trace 1`."""
    from qcat.category import build_category
    from qcat.fixtures import ising_category
    from qcat.morphisms import Engine

    for owner, name in [(AlgebraPresentation, "minimal_idempotents"), (Engine, "obj_offsets"), (Engine, "split")]:
        assert inspect.isfunction(getattr(owner, name, None)), f"{owner.__name__}.{name}"
    # its split counter calls split(self, w1, w2) and counts a miss when (w1, w2) is not a key of _split
    assert list(inspect.signature(Engine.split).parameters) == ["self", "w1", "w2"]
    eng = Engine(build_category(ising_category()))
    w1, w2 = ("sig",), ("sig", "sig")
    assert (w1, w2) not in eng._split
    eng.split(w1, w2)
    assert (w1, w2) in eng._split
