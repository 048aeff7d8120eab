from __future__ import annotations

import time

import numpy as np
import pytest

import qcat.modules as modules
from qcat.braided import centre_projections, full_centre
from qcat.category import build_category
from qcat.errors import MismatchError, NonStandardizableError, ShapeError
from qcat.fixtures import ising_category
from qcat.frobenius import QSystem, check_qsystem, ising_q, matrix_qsystem, trivial_qsystem_in
from qcat.modules import (
    Module,
    _reaches,
    _summands,
    bimodule_tensor,
    d_intertwiner,
    decompose_module,
    enumerate_bimodules,
    enumerate_modules,
    free_module,
    module_end_algebra,
    morphism_space,
    r_lift,
    restrict_bimodule,
    validate_module,
)
from qcat.morphisms import (
    Morphism,
    ObjectExpr,
    compose,
    engine,
    hom_basis,
    identity,
    morphism_vector,
    random_morphism,
    tensor,
)
from test_category import gauged_z3, vertex_gauge, zn_data
from tests_helpers import gauge_qsystem, intertwiner_condition, random_gauge, rep_a4_category, solved_morphism_space


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


def test_modules_over_a_regauged_qsystem_do_not_intertwine(ising, iq):
    """A unitary regauge keeps theta but moves x: its modules share no
    parent with the modules over the original, and neither the range of E
    nor the tensor product over the middle may treat them as one."""
    gauged = gauge_qsystem(ising, iq, random_gauge(ising, iq.theta, np.random.default_rng(0)))
    assert gauged.theta == iq.theta and (gauged.x - iq.x).max_abs() > 0.1
    sig = ObjectExpr.word("sig")
    left, gauged_left = (free_module(ising, q, sig, "left") for q in (iq, gauged))
    with pytest.raises(MismatchError):
        morphism_space(left, gauged_left)
    with pytest.raises(MismatchError):
        bimodule_tensor(free_module(ising, (iq, iq), sig, "bi"), free_module(ising, gauged, sig, "left"))


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


def test_whiskering_one_letter_at_a_time_makes_no_recoupling():
    """`_whisker` tensors 1_y on the right one letter of a one-word y at a
    time, and against a right factor whose words have one letter `tensor`
    needs no F-move: on a fresh gauged Ising and on Rep(A4), a cold whisker
    stores no recoupling, and 1_y in one piece does."""
    for cat in (vertex_gauge(build_category(ising_category()), 3), rep_a4_category()):
        a = cat.labels[-1]
        x = ObjectExpr.from_words([(a, a), (), (a,)])
        y, z = ObjectExpr.word(a, a, a), ObjectExpr.from_words([(a,), (cat.unit,)])
        f = random_morphism(cat, x, x, np.random.default_rng(27))
        split = engine(cat)._split
        got = modules._whisker(f, z, y)
        assert all(s is None for per_sector in split.values() for s in per_sector.values())
        want = tensor(tensor(f, identity(cat, z)), identity(cat, y))
        assert any(s is not None for per_sector in split.values() for s in per_sector.values())
        assert (got.dom, got.cod) == (x @ z @ y, x @ z @ y)
        assert (got - want).max_abs() < 1e-12 * want.max_abs()


def test_module_decomposition_of_wide_bimodule(ising):
    q = matrix_qsystem(ising, ObjectExpr(((), ("sig",))))
    mods = enumerate_modules(ising, q, "left")
    # (1 + sig) matrix Q-system is Morita-trivial: one module class per sector
    assert len(mods) == 3


def test_decompose_rejects_a_vanishing_module_map(ising, iq):
    f = free_module(ising, iq, ObjectExpr.word("sig"), "left")
    with pytest.raises(NonStandardizableError):
        decompose_module(Module(f.beta, 0.0 * f.m, f.parents))


def _tensor_products(ising, iq, tq):
    """Every `bimodule_tensor` product this file builds."""
    _, eps, sig = enumerate_bimodules(ising, tq, tq)
    left, right = (free_module(ising, iq, ObjectExpr.word("sig"), side) for side in ("left", "right"))
    return [(sig, sig), (eps, eps), (left, right), (left, free_module(ising, iq, ObjectExpr.word("1"), "right"))]


def test_tensor_products_of_standard_bimodules_are_standard(ising, iq, tq, monkeypatch):
    """bimodule_tensor checks standardness instead of repairing it: with the
    check switched off, every product here has m* m = d_A d_C 1."""
    monkeypatch.setattr(modules, "_require_standard", lambda mod: mod)
    for m1, m2 in _tensor_products(ising, iq, tq):
        prod = bimodule_tensor(m1, m2)
        assert validate_module(ising, prod).standard < 1e2 * ising.tol, (m1.label, m2.label)


def _reciprocity_inputs():
    """(category, Q-system, words rho): ising_q, the matrix Q-system of
    sig (x) eps, and the trivial Q-system on gauged Z3."""
    ising = build_category(ising_category())
    z3 = gauged_z3()
    ising_words = [("1",), ("sig",), ("sig", "eps")]
    return [
        pytest.param(ising, ising_q(ising), ising_words, id="ising_q"),
        pytest.param(ising, matrix_qsystem(ising, ObjectExpr.word("sig", "eps")), ising_words, id="sig_eps"),
        pytest.param(z3, trivial_qsystem_in(z3), [("1",), ("2",), ("1", "2")], id="z3_trivial"),
    ]


@pytest.mark.parametrize("side", ["left", "right", "bi"])
@pytest.mark.parametrize("cat, q, words", _reciprocity_inputs())
def test_reciprocity_basis_is_a_basis_of_intertwiners(side, cat, q, words):
    """Phi_phi = m* (1 (x) phi (x) 1) over phi in Hom(rho, F) is a linearly
    independent set of self-intertwiners of F as large as the solved space."""
    for w in words:
        free = free_module(cat, (q, q) if side == "bi" else q, ObjectExpr.word(*w), side)
        assert free.free_on == ObjectExpr.word(*w)
        basis = module_end_algebra(free).basis
        (cond,) = intertwiner_condition(free, free)
        for phi in basis:
            assert cond(phi).max_abs() < 1e2 * cat.tol
        coords = np.stack([morphism_vector(phi) for phi in basis], axis=1)
        assert np.linalg.matrix_rank(coords, tol=1e-8) == len(basis)
        assert len(basis) == len(solved_morphism_space(free, free))


def test_cut_and_tensor_modules_are_not_free(ising, iq):
    free = free_module(ising, iq, ObjectExpr.word("sig"), "left")
    parts = decompose_module(free)
    assert all(p.free_on is None for p in parts)
    assert bimodule_tensor(free, free_module(ising, iq, ObjectExpr.word("1"), "right")).free_on is None


def test_module_enumeration_solves_nothing(ising, iq, monkeypatch):
    """Enumeration reads every intertwiner off a reciprocity basis: it takes
    no range of the expectation E."""
    def no_range(*args):
        raise AssertionError("image_basis called")

    monkeypatch.setattr(modules, "image_basis", no_range)
    assert len(enumerate_modules(ising, iq, "left")) == 3
    assert len(enumerate_bimodules(ising, iq, iq)) == 3


def group_qsystem(cat, n: int) -> QSystem:
    """The Q-system of the group Z_n in an ungauged Z_n category: theta the
    sum of every simple, w = n^(1/4) on the unit summand, and x with the
    entry n^(-1/4) at every pair (g, h) of each sector g + h."""
    theta = ObjectExpr.from_words([(str(g),) for g in range(n)])
    w = Morphism(cat, ObjectExpr.unit(), theta, {"0": np.full((1, 1), n ** 0.25, dtype=complex)})
    x = Morphism(cat, theta, theta @ theta, {str(c): np.full((n, 1), n ** -0.25, dtype=complex) for c in range(n)})
    return QSystem(cat, theta, w, x)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_group_qsystem_has_one_bimodule_per_group_element(n):
    cat = build_category(zn_data(n, lambda a, b: 1))
    g = group_qsystem(cat, n)
    rep = check_qsystem(cat, g)
    assert rep.ok, rep.as_dict()
    # CPU time of this process, which other load on the machine does not inflate
    start = time.process_time()
    mods = enumerate_bimodules(cat, g, g)
    elapsed = time.process_time() - start
    assert len(mods) == n
    assert all(validate_module(cat, m).ok for m in mods)
    assert n > 5 or elapsed < 2.0


def _equivalence_inputs():
    """(category, q, side) on which every comparison of `enumerate_modules`
    is checked against a solve."""
    ising = build_category(ising_category())
    iq, tq = ising_q(ising), trivial_qsystem_in(ising)
    z3 = gauged_z3()
    zn = {n: build_category(zn_data(n, lambda a, b: 1)) for n in (3, 5)}
    return [
        *(pytest.param(ising, iq, side, id=f"ising_q-{side}") for side in ("left", "right")),
        pytest.param(ising, (iq, iq), "bi", id="ising_q-bi"),
        pytest.param(ising, (tq, iq), "bi", id="trivial-ising_q"),
        pytest.param(ising, matrix_qsystem(ising, ObjectExpr.word("sig", "eps")), "right", id="sig_eps-right"),
        pytest.param(z3, trivial_qsystem_in(z3), "left", id="z3_trivial"),
        *(pytest.param(zn[n], (group_qsystem(zn[n], n),) * 2, "bi", id=f"z{n}_group") for n in (3, 5)),
    ]


@pytest.mark.parametrize("cat, q, side", _equivalence_inputs())
def test_reciprocity_equivalence_agrees_with_the_solve(cat, q, side):
    """Walk the comparisons of `enumerate_modules`: for each summand of a free
    module and each earlier representative, `_reaches` answers whether the
    solved intertwiner space is non-zero."""
    reps = []
    for a in cat.labels:
        rho = ObjectExpr.word(a)
        for part, s in _summands(free_module(cat, q, rho, side)):
            found = [_reaches(rho, s, r) for r in reps]
            assert found == [len(solved_morphism_space(part, r)) > 0 for r in reps], a
            if not any(found):
                reps.append(part)
    assert [r.beta for r in reps] == [m.beta for m in enumerate_modules(cat, q, side)]


def _module_pool(cat, q, side, words, rng) -> list[Module]:
    """Side left or right: the free modules over two seeded words, and their
    summands.  Side bi: the tensor product t of a summand of the free left
    and of the free right module over a seeded word, and the summands of t.
    Every module of a pool has the same parents."""
    seed = lambda: int(rng.integers(1 << 16))
    if side == "bi":
        rho = ObjectExpr.word(*words[rng.integers(len(words))])
        left = decompose_module(free_module(cat, q, rho, "left"), seed())[0]
        t = bimodule_tensor(left, free_module(cat, q, rho, "right"))
        return [t, *decompose_module(t, seed())]
    pool = []
    for i in rng.choice(len(words), size=2, replace=False):
        free = free_module(cat, q, ObjectExpr.word(*words[i]), side)
        pool += [free, *decompose_module(free, seed())]
    return pool


def _r_lifted_pools(qa, qb) -> list[list[Module]]:
    """The lifted R[m] of every A-B bimodule m of Ising, over R[A] and R[B]
    in Ising x Ising^opp, and their restrictions to the full centres."""
    cat = qa.cat
    prod, red_a = full_centre(cat, qa)
    red_b = red_a if qb is qa else full_centre(cat, qb)[1]
    lifted = [r_lift(m, red_a.parent, red_b.parent) for m in enumerate_bimodules(cat, qa, qb)]
    return [lifted, [restrict_bimodule(prod, m, red_a, red_b) for m in lifted]]


def _expectation_pools(name, seed) -> list[list[Module]]:
    rng = np.random.default_rng(seed)
    if name == "gauged ising":
        cat = vertex_gauge(build_category(ising_category()), seed)
        q = [ising_q(cat), matrix_qsystem(cat, ObjectExpr.word("sig", "eps"))][seed % 2]
        words = [("1",), ("eps",), ("sig",), ("sig", "eps")]
    elif name == "gauged z3":
        phase = {(a, b): np.exp(2j * np.pi * rng.random()) for a in range(1, 3) for b in range(1, 3)}
        cat = build_category(zn_data(3, lambda a, b: phase[(a, b)]))
        # the matrix Q-system of 1 + 2, a sum of two labels dual to each other
        q = matrix_qsystem(cat, ObjectExpr.from_words([("1",), ("2",)]))
        words = [("0",), ("1",), ("2",), ("1", "1")]
    else:
        cat = build_category(ising_category())
        iq, tq = ising_q(cat), trivial_qsystem_in(cat)
        return _r_lifted_pools(*[(tq, tq), (iq, iq), (tq, iq)][seed % 3])
    return [_module_pool(cat, q, side, words, rng) for side in ("left", "right", "bi")]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["gauged ising", "gauged z3", "R[m]"])
def test_the_expectation_projects_onto_the_solved_intertwiners(name, seed):
    """E of `morphism_space` against the reference solve, on every pair of a
    pool of modules with equal parents: E o E = E on the images of
    `hom_basis`, E fixes each solved intertwiner, and E's range has the rank
    of the solved space and spans it."""
    for pool in _expectation_pools(name, seed):
        for m1 in pool:
            for m2 in pool:
                e = modules._expectation(m1, m2)
                for b in hom_basis(m1.cat, m1.beta, m2.beta):
                    eb = e(b)
                    assert (e(eb) - eb).max_abs() < 1e-9
                want = solved_morphism_space(m1, m2)
                for t in want:
                    assert (e(t) - t).max_abs() < 1e-9
                got = morphism_space(m1, m2)
                vecs = [morphism_vector(t) for t in got + want]
                assert len(got) == len(want) == (np.linalg.matrix_rank(np.stack(vecs, axis=1), tol=1e-8) if vecs else 0)
