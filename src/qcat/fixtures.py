"""Built-in category and Q-system fixtures: ising, trivial, z2."""
from __future__ import annotations

import json
import os

import numpy as np

from .errors import UnknownFixtureError

_SQRT2 = float(np.sqrt(2.0))


def _series(key_name, entries):
    """F or R symbols as documents: each key under key_name ("abc_d" or
    "ab_c") with the real and imaginary parts of its matrix."""
    out = []
    for key, mat in entries:
        arr = np.asarray(mat, dtype=complex)
        out.append({key_name: list(key), "re": np.real(arr).tolist(), "im": np.imag(arr).tolist()})
    return out


def ising_category() -> dict:
    """The Ising fusion category with its standard braiding.

    Labels: 1 (unit), eps (the fermion), sig (the order sector, d = sqrt 2).
    kappa_sig = exp(i pi/8), eps_{eps,eps} = -1.
    """
    one, e, s = "1", "eps", "sig"
    fusion = [
        [one, one, one, 1],
        [one, e, e, 1],
        [e, one, e, 1],
        [one, s, s, 1],
        [s, one, s, 1],
        [e, e, one, 1],
        [e, s, s, 1],
        [s, e, s, 1],
        [s, s, one, 1],
        [s, s, e, 1],
    ]
    f = [
        ((s, s, s, s), np.array([[1, 1], [1, -1]]) / _SQRT2),
        ((s, e, s, one), [[1]]),
        ((s, e, s, e), [[-1]]),
        ((e, s, e, s), [[-1]]),
        ((e, s, s, one), [[1]]),
        ((e, s, s, e), [[1]]),
        ((s, s, e, one), [[1]]),
        ((s, s, e, e), [[1]]),
        ((e, e, s, s), [[1]]),
        ((s, e, e, s), [[1]]),
        ((e, e, e, e), [[1]]),
    ]
    r = [
        ((e, e, one), [[-1]]),
        ((e, s, s), [[-1j]]),
        ((s, e, s), [[-1j]]),
        ((s, s, one), [[np.exp(-1j * np.pi / 8)]]),
        ((s, s, e), [[np.exp(3j * np.pi / 8)]]),
    ]
    return {
        "labels": [one, e, s],
        "dual": {one: one, e: e, s: s},
        "fusion": fusion,
        "F": _series("abc_d", f),
        "R": _series("ab_c", r),
        "tol": 1e-9,
    }


def trivial_category() -> dict:
    one = "1"
    return {
        "labels": [one],
        "dual": {one: one},
        "fusion": [[one, one, one, 1]],
        "F": [],
        "R": [],
        "tol": 1e-9,
    }


def z2_category() -> dict:
    """Pointed Z2 category with the symmetric (degenerate) braiding."""
    one, g = "1", "g"
    fusion = [
        [one, one, one, 1],
        [one, g, g, 1],
        [g, one, g, 1],
        [g, g, one, 1],
    ]
    return {
        "labels": [one, g],
        "dual": {one: one, g: g},
        "fusion": fusion,
        "F": _series("abc_d", [((g, g, g, g), [[1]])]),
        "R": _series("ab_c", [((g, g, one), [[1]])]),
        "tol": 1e-9,
    }


FIXTURE_CATEGORIES = {
    "ising": ising_category,
    "trivial": trivial_category,
    "z2": z2_category,
}


def fixture_category(name: str) -> dict:
    try:
        return FIXTURE_CATEGORIES[name]()
    except KeyError:
        raise UnknownFixtureError(f"unknown fixture {name!r}") from None


def emit_fixture(name: str, directory: str) -> list[str]:
    """Write the category file (and Q-system file where defined) for a fixture."""
    data = fixture_category(name)
    os.makedirs(directory, exist_ok=True)
    paths = []
    cat_path = os.path.join(directory, f"{name}.json")
    with open(cat_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
    paths.append(cat_path)
    from .category import load_category
    from .frobenius import qsystem_as_json, trivial_qsystem_in, ising_q

    cat = load_category(data)
    if name == "ising":
        q = ising_q(cat)
    else:
        q = trivial_qsystem_in(cat)
    q_path = os.path.join(directory, f"{name}_q.json")
    with open(q_path, "w", encoding="utf-8") as fh:
        json.dump(qsystem_as_json(q, category_ref=f"{name}.json"), fh, indent=1)
    paths.append(q_path)
    return paths
