from __future__ import annotations

import numpy as np
import pytest

from qcat.category import build_category
from qcat.decompose import (
    central_decomposition,
    check_intermediate,
    direct_sum_qsystems,
    irreducible_decomposition,
    reduced_qsystem,
)
from qcat.errors import ConditionError, NormalizationError, NotProjectionError, NotSimpleError, ShapeError
from qcat.fixtures import ising_category
from qcat.frobenius import QSystem, check_qsystem, frobenius_conj, left_endo_algebra, matrix_qsystem, qsystems_equivalent
from qcat.morphisms import ObjectExpr, compose, hom_basis, identity, obj_dim, random_morphism, tensor
from test_category import vertex_gauge, zn_data
from tests_helpers import inclusion


def _summand_projection(cat, theta, idxs):
    p = None
    for i in idxs:
        inc = inclusion(cat, theta, i)
        term = compose(inc, inc.adjoint())
        p = term if p is None else p + term
    return p


def test_trivial_projection_is_intermediate(ising, iq):
    red = check_intermediate(ising, iq, identity(ising, iq.theta))
    assert check_qsystem(ising, red.child).ok
    assert abs(red.child.d - iq.d) < 1e-9


def test_unnormalized_unit_rejected_unless_intermediate(ising, iq):
    """With w doubled, r*(PxP)r = 8 for P = 1 against dim theta = 2: the
    normalized reduction refuses it; the intermediate check, which asks for
    no normalization, accepts it."""
    q = QSystem(ising, iq.theta, 2.0 * iq.w, iq.x)
    p = identity(ising, iq.theta)
    with pytest.raises(NormalizationError, match=r"r\*\(PxP\)r = 8\+0j, dim = 2"):
        reduced_qsystem(ising, q, p)
    assert check_intermediate(ising, q, p).n_p_scalar


def test_not_projection_rejected(ising, iq):
    bad = 0.5 * random_morphism(ising, iq.theta, iq.theta, np.random.default_rng(0))
    with pytest.raises(NotProjectionError):
        reduced_qsystem(ising, iq, bad)


def test_incompatible_projection_rejected(ising, iq, tq):
    # projecting a direct sum onto one block discards part of the unit, so it
    # cannot cut out an intermediate Q-system
    total = direct_sum_qsystems(ising, [tq, iq])
    p = _summand_projection(ising, total.theta, [1])
    with pytest.raises(ConditionError):
        check_intermediate(ising, total, p)


def test_direct_sum_of_no_qsystems_raises(ising):
    with pytest.raises(ShapeError):
        direct_sum_qsystems(ising, [])


def test_direct_sum_round_trip(ising, iq, tq):
    total = direct_sum_qsystems(ising, [tq, iq])
    assert check_qsystem(ising, total).ok
    parts = central_decomposition(ising, total)
    assert len(parts) == 2
    ds = sorted(red.child.d for _, red in parts)
    assert np.allclose(ds, sorted([tq.d, iq.d]), atol=1e-8)
    for _, red in parts:
        assert check_qsystem(ising, red.child).ok
        target = tq if abs(red.child.d - tq.d) < 1e-6 else iq
        assert qsystems_equivalent(ising, red.child, target)


def test_simple_qsystem_has_trivial_centre(ising, iq):
    parts = central_decomposition(ising, iq)
    assert len(parts) == 1


def test_irreducible_decomposition_of_matrix_qsystem(ising):
    q = matrix_qsystem(ising, ObjectExpr(((), ("sig",))))
    parts = irreducible_decomposition(ising, q)
    assert len(parts) == 2
    ds = sorted(red.child.d for _, _, _, red in parts)
    assert np.allclose(ds, [1.0, np.sqrt(2.0)], atol=1e-8)
    for _, _, _, red in parts:
        assert check_qsystem(ising, red.child).ok


def _gauged_matrix_qsystems(seed):
    """Matrix Q-systems of sums of two and three simples, in a seeded vertex
    gauge of Ising and of Z3."""
    rng = np.random.default_rng(seed)
    phase = {(a, b): np.exp(2j * np.pi * rng.random()) for a in range(1, 3) for b in range(1, 3)}
    ising = vertex_gauge(build_category(ising_category()), seed)
    z3 = build_category(zn_data(3, lambda a, b: phase[(a, b)]))
    sums = [(ising, ["sig", "1"]), (ising, ["eps", "sig"]), (ising, ["1", "eps", "sig"]),
            (z3, ["1", "2"]), (z3, ["0", "1", "2"])]
    return [(cat, labels, matrix_qsystem(cat, ObjectExpr.from_words([(a,) for a in labels]))) for cat, labels in sums]


@pytest.mark.parametrize("seed", range(2))
def test_irreducible_decomposition_of_gauged_matrix_qsystems(seed):
    """The matrix Q-system of a sum of k simples splits into the k matrix
    Q-systems of its summands.  The rotations of a minimal projection p by
    r = x w from the left (`frobenius_conj`) and from the right agree, and
    each part is an irreducible Q-system: Hom(1, theta_child) is one-dimensional."""
    for cat, labels, q in _gauged_matrix_qsystems(seed):
        idt = identity(cat, q.theta)
        for p in left_endo_algebra(cat, q).minimal_idempotents(seed):
            right = compose(tensor(idt, q.r.adjoint()), compose(tensor(tensor(idt, p), idt), tensor(q.r, idt)))
            assert (frobenius_conj(q, q, p) - right).max_abs() < 1e-10
        parts = irreducible_decomposition(cat, q, seed)
        assert len(parts) == len(labels)
        assert np.allclose(sorted(red.child.d for *_, red in parts), sorted(obj_dim(cat, ObjectExpr.word(a)) for a in labels))
        for *_, red in parts:
            assert check_qsystem(cat, red.child).ok
            assert len(hom_basis(cat, ObjectExpr.unit(), red.child.theta)) == 1


def test_irreducible_decomposition_requires_simple(ising, iq, tq):
    total = direct_sum_qsystems(ising, [tq, iq])
    with pytest.raises(NotSimpleError):
        irreducible_decomposition(ising, total)


def test_non_scalar_n_p_is_reported(ising):
    """The diagonal subalgebra of the (1 + sig) matrix Q-system has unequal
    corner dimensions: its n_P is non-scalar and the report must say so."""
    q = matrix_qsystem(ising, ObjectExpr(((), ("sig",))))
    p = _summand_projection(ising, q.theta, [0, 3])
    red = check_intermediate(ising, q, p)
    assert not red.n_p_scalar
    assert max(red.n_p_spectrum) - min(red.n_p_spectrum) > 0.1
    # the deformed child is nevertheless a genuine Q-system
    assert check_qsystem(ising, red.child).ok


@pytest.mark.parametrize("seed", range(100))
def test_direct_sum_decomposition_property(ising, iq, tq, seed):
    """Random direct sums decompose back into their parts (by dimension)."""
    rng = np.random.default_rng(seed)
    pool = [tq, iq]
    picks = [pool[rng.integers(0, 2)] for _ in range(int(rng.integers(2, 4)))]
    total = direct_sum_qsystems(ising, picks)
    assert check_qsystem(ising, total).ok
    parts = central_decomposition(ising, total, seed=int(seed))
    assert len(parts) == len(picks)
    assert np.allclose(
        sorted(red.child.d for _, red in parts),
        sorted(p.d for p in picks),
        atol=1e-7,
    )
