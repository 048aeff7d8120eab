from __future__ import annotations

import numpy as np
import pytest

from qcat.braided import (
    braided_product,
    canonical_qsystem,
    centre_projections,
    centre_qsystem,
    embed_left,
    full_centre,
    opposite_product_category,
    z_matrix,
)
from qcat.category import build_category
from qcat.errors import NotModularError
from qcat.fixtures import z2_category
from qcat.frobenius import (
    check_commutative,
    check_qsystem,
    qsystems_equivalent,
    trivial_qsystem_in,
)
from qcat.morphisms import identity
from tests_helpers import killing_check


def test_centre_projections_are_projections(ising, iq):
    for p in (centre_projections(ising, iq, sign) for sign in ("+", "-")):
        assert (p - p.adjoint()).max_abs() < 1e-10
        from qcat.morphisms import compose

        assert (compose(p, p) - p).max_abs() < 1e-10


def test_centre_of_ising_q_is_trivial(ising, iq, tq):
    for sign in ("+", "-"):
        red = centre_qsystem(ising, iq, sign)
        assert abs(red.child.d - 1.0) < 1e-9
        assert qsystems_equivalent(ising, red.child, tq)


def test_centre_of_commutative_is_everything(ising, tq):
    idt = identity(ising, tq.theta)
    assert (centre_projections(ising, tq, "+") - idt).max_abs() < 1e-10
    assert (centre_projections(ising, tq, "-") - idt).max_abs() < 1e-10


def test_braided_product_is_qsystem(ising, iq, tq):
    for sign in ("+", "-"):
        q = braided_product(ising, iq, iq, sign)
        assert check_qsystem(ising, q).ok
        assert abs(q.d - 2.0) < 1e-9
    q2 = braided_product(ising, tq, tq, "+")
    assert abs(q2.d - 1.0) < 1e-9


def test_canonical_qsystem(ising):
    prod, qr = canonical_qsystem(ising)
    assert len(prod.labels) == 9
    rep = check_qsystem(prod, qr)
    assert rep.ok
    assert abs(qr.d - 2.0) < 1e-9  # d_R = sqrt(global dim)
    comm, res = check_commutative(prod, qr)
    assert comm and res < 1e-9


def test_embed_left_preserves_axioms(ising, iq):
    prod = opposite_product_category(ising)
    q = embed_left(ising, prod, iq)
    assert check_qsystem(prod, q).ok


def test_full_centres_all_canonical(ising, iq, tq):
    prod, qr = canonical_qsystem(ising)
    for q in (tq, iq):
        prod2, red = full_centre(ising, q)
        assert prod2 is prod
        assert abs(red.child.d - 2.0) < 1e-9
        assert check_qsystem(prod, red.child).ok
        assert check_commutative(prod, red.child)[0]
        assert qsystems_equivalent(prod, red.child, qr)


def test_z_matrix_identity(ising, iq, tq):
    for q in (tq, iq):
        z, info = z_matrix(ising, q)
        assert np.array_equal(z, np.eye(3, dtype=int))
        assert info["s_commutator"] < 1e-9
        assert info["t_commutator"] < 1e-9
        assert info["z11"] == 1


def test_z_matrix_needs_modular():
    z2 = build_category(z2_category())
    q = trivial_qsystem_in(z2)
    with pytest.raises(NotModularError):
        z_matrix(z2, q)


def test_killing_ring_annihilation(ising):
    out = killing_check(ising)
    for a, entry in out.items():
        assert entry["ok"], (a, entry)
        if a == "1":
            assert abs(entry["value"] - ising.global_dim) < 1e-8
        else:
            assert abs(entry["value"]) < 1e-8
