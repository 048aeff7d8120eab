from __future__ import annotations

import numpy as np
import pytest

from qcat.braided import centre_projections
from qcat.errors import MismatchError, NonStandardizableError, ShapeError
from qcat.frobenius import matrix_qsystem, trivial_qsystem_in
from qcat.modules import (
    Module,
    bimodule_tensor,
    d_intertwiner,
    decompose_module,
    enumerate_bimodules,
    enumerate_modules,
    free_module,
    morphism_space,
    standardize_module,
    validate_module,
)
from qcat.morphisms import ObjectExpr, compose, identity, tensor, trace


def _trivial_bimodule(cat, q):
    """The Q-system as a bimodule over itself: m = (x (x) 1) x."""
    return Module(q.theta, compose(tensor(q.x, identity(cat, q.theta)), q.x), (q, q), "trivial")


def test_qsystem_is_its_own_bimodule(ising, iq):
    tb = _trivial_bimodule(ising, iq)
    assert validate_module(ising, tb).ok


def test_free_modules_valid(ising, iq):
    for a in ising.labels:
        for side in ("left", "right"):
            assert validate_module(ising, free_module(ising, iq, ObjectExpr.word(a), side)).ok
        assert validate_module(
            ising, free_module(ising, (iq, iq), ObjectExpr.word(a), "bi")
        ).ok


def test_left_and_right_modules_are_bimodules_over_the_trivial_qsystem(ising, iq):
    rho = ObjectExpr.word("sig")
    one = trivial_qsystem_in(ising)
    for side, parents in (("left", (iq, one)), ("right", (one, iq))):
        f = free_module(ising, iq, rho, side)
        bi = free_module(ising, parents, rho, "bi")
        assert f.beta == bi.beta
        assert [q.theta for q in f.parents] == [q.theta for q in parents]
        assert (f.m - bi.m).max_abs() == 0.0


def test_left_and_right_modules_do_not_intertwine(ising, iq):
    rho = ObjectExpr.word("sig")
    left = free_module(ising, iq, rho, "left")
    right = free_module(ising, iq, rho, "right")
    with pytest.raises(MismatchError):
        morphism_space(left, right)


def test_scaled_module_fails(ising, iq):
    f = free_module(ising, iq, ObjectExpr.word("1"), "left")
    bad = Module(f.beta, 2.0 * f.m, f.parents)
    assert not validate_module(ising, bad).ok


def test_wrong_shape_raises(ising, iq):
    f = free_module(ising, iq, ObjectExpr.word("1"), "left")
    # the left action as a right one: m lies in Hom(beta, theta beta), not Hom(beta, beta theta)
    with pytest.raises(ShapeError):
        validate_module(ising, Module(f.beta, f.m, f.parents[::-1]))


def test_free_sigma_module_splits_in_two(ising, iq):
    free = free_module(ising, iq, ObjectExpr.word("sig"), "left")
    parts = decompose_module(free)
    assert len(parts) == 2
    for p in parts:
        assert validate_module(ising, p).ok
        assert abs(p.dim - np.sqrt(2.0)) < 1e-9
    # the two summands are inequivalent
    assert len(morphism_space(parts[0], parts[1])) == 0


def test_three_left_module_classes(ising, iq):
    mods = enumerate_modules(ising, iq, "left")
    assert len(mods) == 3
    dims = sorted(m.dim for m in mods)
    assert np.allclose(dims, [np.sqrt(2.0), np.sqrt(2.0), 2.0], atol=1e-9)


def test_three_right_module_classes(ising, iq):
    assert len(enumerate_modules(ising, iq, "right")) == 3


def test_bimodule_counts(ising, iq, tq):
    assert len(enumerate_bimodules(ising, tq, tq)) == 3
    assert len(enumerate_bimodules(ising, iq, iq)) == 3
    assert len(enumerate_bimodules(ising, iq, tq)) == 3


def test_trivial_bimodules_fuse_like_sectors(ising, tq):
    one, eps, sig = enumerate_bimodules(ising, tq, tq)
    tt = bimodule_tensor(sig, sig)
    assert validate_module(ising, tt).ok
    assert len(morphism_space(tt, one)) == 1
    assert len(morphism_space(tt, eps)) == 1
    assert len(morphism_space(tt, sig)) == 0
    te = bimodule_tensor(eps, eps)
    assert len(morphism_space(te, one)) == 1


def test_left_module_tensor_right_module_over_the_trivial_middle(ising, iq):
    # each free_module call builds its own trivial Q-system: the middles are equal, not identical
    sig = ObjectExpr.word("sig")
    left, right = free_module(ising, iq, sig, "left"), free_module(ising, iq, sig, "right")
    assert left.parents[1] is not right.parents[0]
    prod = bimodule_tensor(left, right)
    assert prod.parents[0] is iq and prod.parents[1] is iq
    assert validate_module(ising, prod).ok
    assert abs(prod.dim - left.dim * right.dim) < 1e-9


def test_bimodule_tensor_rejects_different_middles(ising, iq):
    sig = ObjectExpr.word("sig")
    left = free_module(ising, iq, sig, "left")
    with pytest.raises(MismatchError):
        bimodule_tensor(left, free_module(ising, (iq, iq), sig, "bi"))


def test_d_of_trivial_bimodule_is_left_centre(ising, iq):
    tb = _trivial_bimodule(ising, iq)
    d = d_intertwiner(ising, tb)
    assert (d - iq.d * centre_projections(ising, iq, "+")).max_abs() < 1e-10
    # unit pairing: w* D w = dim(beta)
    val = compose(iq.w.adjoint(), compose(d, iq.w)).scalar()
    assert abs(val - 2.0) < 1e-9


def test_d_multiplicative_over_tensor(ising, tq):
    mods = enumerate_bimodules(ising, tq, tq)
    sig = mods[2]
    tt = bimodule_tensor(sig, sig)
    lhs = compose(d_intertwiner(ising, sig), d_intertwiner(ising, sig))
    rhs = d_intertwiner(ising, tt)  # d_B = 1 for the trivial middle
    assert (lhs - rhs).max_abs() < 1e-9


def test_d_with_threaded_object(ising, tq):
    mods = enumerate_bimodules(ising, tq, tq)
    for m in mods:
        for a in ising.labels:
            rho = ObjectExpr.word(a)
            d = d_intertwiner(ising, m, rho)
            assert d.dom == ObjectExpr.word("1", a) or d.dom == rho
            # threading the unit agrees with no threading
        d0 = d_intertwiner(ising, m, ObjectExpr.word("1"))
        dn = d_intertwiner(ising, m)
        assert abs(trace(ising, d0) - trace(ising, dn)) < 1e-9


def test_module_decomposition_of_wide_bimodule(ising):
    q = matrix_qsystem(ising, ObjectExpr(((), ("sig",))))
    mods = enumerate_modules(ising, q, "left")
    # (1 + sig) matrix Q-system is Morita-trivial: one module class per sector
    assert len(mods) == 3


def test_standardize_rejects_a_vanishing_module_map(ising, iq):
    f = free_module(ising, iq, ObjectExpr.word("sig"), "left")
    with pytest.raises(NonStandardizableError):
        standardize_module(Module(f.beta, 0.0 * f.m, f.parents))
