from __future__ import annotations

import itertools

import numpy as np
import pytest

from qcat import frobenius
from qcat.braided import canonical_qsystem, full_centre
from qcat.category import build_category
from qcat.decompose import direct_sum_qsystems
from qcat.errors import CategoryMismatchError, ShapeError
from qcat.fixtures import ising_category
from qcat.frobenius import (
    DEFAULT_SEED,
    AxiomReport,
    QSystem,
    check_commutative,
    check_qsystem,
    hom0_algebra,
    ising_q,
    make_special_standard,
    matrix_qsystem,
    qsystem_as_json,
    qsystem_from_json,
    qsystems_equivalent,
    trivial_qsystem_in,
)
from qcat.modules import free_module, module_end_algebra
from qcat.morphisms import (
    Morphism,
    ObjectExpr,
    compose,
    endo_power,
    hom_basis,
    identity,
    morphism_vector,
    random_morphism,
    tensor,
    zero_morphism,
)
from test_category import gauged_z3, gauged_z5, vertex_gauge
from tests_helpers import intertwiner_condition, solve_morphism_space, solved_centre


def _random_gauge(cat, theta, rng):
    """A random unitary in End(theta)."""
    u = random_morphism(cat, theta, theta, rng)
    blocks = {}
    for c, b in u.blocks.items():
        uu, _, vh = np.linalg.svd(b)
        blocks[c] = uu @ vh
    return Morphism(cat, theta, theta, blocks)


def _gauge(cat, q, u):
    return QSystem(
        cat,
        q.theta,
        compose(u, q.w),
        compose(tensor(u, u), compose(q.x, u.adjoint())),
    )


def test_ising_qsystem_axioms(ising, iq):
    rep = check_qsystem(ising, iq)
    assert rep.ok
    assert max(rep.unit, rep.associativity, rep.frobenius, rep.special,
               rep.standard_w, rep.standard_x) < 1e-9
    assert abs(rep.d - np.sqrt(2.0)) < 1e-9
    assert iq.theta == ObjectExpr.word("sig", "sig")


def test_ising_qsystem_not_commutative(ising, iq):
    for sign in ("+", "-"):
        comm, res = check_commutative(ising, iq, sign)
        assert not comm
        assert res > 1e-2


def test_trivial_qsystem(ising, tq):
    assert check_qsystem(ising, tq).ok
    assert check_commutative(ising, tq)[0]
    assert abs(tq.d - 1.0) < 1e-12


def test_matrix_qsystem_two_by_two(ising):
    q = matrix_qsystem(ising, ObjectExpr(((), ("sig",))))
    rep = check_qsystem(ising, q)
    assert rep.ok
    assert abs(q.d - (1.0 + np.sqrt(2.0))) < 1e-9


def test_scaled_qsystem_fails(ising, iq):
    bad = QSystem(ising, iq.theta, 2.0 * iq.w, iq.x)
    rep = check_qsystem(ising, bad)
    assert not rep.ok


def test_make_special_standard_restores_a_rescaled_qsystem(ising, iq):
    bad = QSystem(ising, iq.theta, 2.0 * iq.w, 0.5 * iq.x)
    rep = check_qsystem(ising, bad)
    assert not rep.ok
    assert abs(rep.standard_w - 3.0 * np.sqrt(2.0)) < 1e-9
    fixed = make_special_standard(ising, bad)
    assert check_qsystem(ising, fixed).ok
    assert qsystems_equivalent(ising, fixed, iq)


def test_axiom_report_fails_on_a_nan_residual():
    fields = ("unit", "associativity", "frobenius", "special", "standard_w", "standard_x")
    good = dict.fromkeys(fields, 0.0)
    assert AxiomReport(**good, d=1.0, tol=1e-9).ok
    for name in fields:
        rep = AxiomReport(**{**good, name: float("nan")}, d=1.0, tol=1e-9)
        assert rep.ok is False
        assert rep.as_dict()["ok"] is False


def test_shape_mismatch_raises(ising, iq, tq):
    bad = QSystem(ising, iq.theta, tq.w, iq.x)
    with pytest.raises(ShapeError):
        check_qsystem(ising, bad)


@pytest.mark.parametrize("seed", range(100))
def test_unit_asso_special_implies_frobenius(ising, iq, tq, seed):
    """Random instances satisfying unit + associativity + speciality also
    satisfy the Frobenius relation below 1e-9."""
    rng = np.random.default_rng(seed)
    q = iq if seed % 2 else tq
    u = _random_gauge(ising, q.theta, rng)
    q2 = _gauge(ising, q, u)
    rep = check_qsystem(ising, q2)
    assert rep.unit < 1e-9 and rep.associativity < 1e-9 and rep.special < 1e-9
    assert rep.frobenius < 1e-9


@pytest.fixture(scope="module")
def z3_matrix_q():
    """The matrix Q-system of the word 1 1 in the gauged Z3: an irreducible
    one, whose multiplication reads the gauge phases of the F-moves."""
    return matrix_qsystem(gauged_z3(), ObjectExpr.word("1", "1"))


def _deformed(q, rng):
    """q deformed by a seeded invertible positive n: w -> n^-1 w and
    x -> (n (x) n) x n^-1.  Returns the deformed triple and n."""
    cat = q.cat
    h = random_morphism(cat, q.theta, q.theta, rng)
    n = endo_power(
        identity(cat, q.theta) + 0.3 * compose(h.adjoint(), h) * (1.0 / max(h.max_abs() ** 2, 1.0)),
        1.0,
    )
    n_inv = endo_power(n, -1.0)
    return QSystem(cat, q.theta, compose(n_inv, q.w), compose(tensor(n, n), compose(q.x, n_inv))), n


@pytest.mark.parametrize("seed", range(100))
def test_specialize_round_trip(iq, z3_matrix_q, seed):
    """Deform a Q-system by an invertible n; the n-deformation by the
    positive d n n gives back its w and x.  This is `_special_standard` with
    a non-scalar n, as `reduced_qsystem` applies it with n = n_P."""
    rng = np.random.default_rng(seed)
    for q in (iq, z3_matrix_q):
        cat = q.cat
        deformed, n = _deformed(q, rng)
        rep = check_qsystem(cat, deformed)
        assert rep.unit < 1e-9 and rep.associativity < 1e-9
        assert not rep.ok  # speciality broken by the deformation in general
        fixed = frobenius._special_standard(deformed, q.d * compose(n, n))
        assert (fixed.w - q.w).max_abs() < 1e-9
        assert (fixed.x - q.x).max_abs() < 1e-9


def test_centre_of_ising_q_is_trivial(ising, iq):
    alg = hom0_algebra(ising, iq)
    assert alg.dim == 1
    # the relative commutant Hom(theta, 1): the unit channel appears once in theta = sig sig
    assert len(hom_basis(ising, iq.theta, ObjectExpr.unit())) == 1
    wide = matrix_qsystem(ising, ObjectExpr(((), ("sig",))))
    assert len(hom_basis(ising, wide.theta, ObjectExpr.unit())) == 2


@pytest.mark.parametrize("name", ["ising_q", "trivial", "direct sum", "matrix sig+1", "matrix sig+1 + trivial", "R[A]"])
def test_right_multiplications_span_the_solved_algebras(ising, iq, tq, name):
    """left_endo_algebra and hom0_algebra span the subspaces of End(theta)
    that a solve over End(theta) finds with the defining conditions, and
    hom0_algebra is as large as the solved centre in Hom(1, theta)."""
    sig1 = matrix_qsystem(ising, ObjectExpr.from_words([("sig",), ()]))
    q = {
        "ising_q": lambda: iq,
        "trivial": lambda: tq,
        "direct sum": lambda: direct_sum_qsystems(ising, [iq, tq, tq]),
        "matrix sig+1": lambda: sig1,
        "matrix sig+1 + trivial": lambda: direct_sum_qsystems(ising, [sig1, tq]),
        # the braided product (A x 1) x+ R in Ising x Ising^opp
        "R[A]": lambda: full_centre(ising, iq)[1].parent,
    }[name]()
    cat = q.cat
    idt = identity(cat, q.theta)
    left = [lambda t: compose(tensor(idt, t), q.x) - compose(q.x, t)]
    right = [lambda t: compose(tensor(t, idt), q.x) - compose(q.x, t)]
    rank = lambda vs: np.linalg.matrix_rank(np.stack(vs, axis=1), tol=1e-8)
    for alg, conds in ((frobenius.left_endo_algebra(cat, q), left), (hom0_algebra(cat, q), left + right)):
        got = [morphism_vector(b) for b in alg.basis]
        want = [morphism_vector(b) for b in solve_morphism_space(cat, q.theta, q.theta, conds)]
        assert rank(got) == len(got) == len(want) == rank(got + want)
    assert hom0_algebra(cat, q).dim == len(solved_centre(q))


def test_equivalence_detects_gauge(ising, iq):
    rng = np.random.default_rng(5)
    u = _random_gauge(ising, iq.theta, rng)
    q2 = _gauge(ising, iq, u)
    assert qsystems_equivalent(ising, iq, q2)


def test_equivalence_rejects_different(ising, iq, tq):
    assert not qsystems_equivalent(ising, iq, tq)


def _newton_counts(monkeypatch) -> dict:
    """Count the Newton steps (one condition matrix each) and the seeded
    starts (one random morphism each) of the equivalence tests that follow."""
    counts = {"steps": 0, "starts": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(frobenius, "_condition_matrix", counted("steps", frobenius._condition_matrix))
    monkeypatch.setattr(frobenius, "random_morphism", counted("starts", frobenius.random_morphism))
    return counts


def _ising_matrix_qsystems(seed: int) -> tuple:
    """ising_q and the matrix Q-systems of sig eps and eps sig, on Ising in
    the vertex gauge of the seed."""
    cat = vertex_gauge(build_category(ising_category()), seed)
    return cat, [ising_q(cat)] + [matrix_qsystem(cat, ObjectExpr.word(*w)) for w in (("sig", "eps"), ("eps", "sig"))]


def test_equivalence_converges_in_few_newton_steps(monkeypatch):
    cat, (q1, q2, _) = _ising_matrix_qsystems(1)
    counts = _newton_counts(monkeypatch)
    assert qsystems_equivalent(cat, q1, q2)
    assert counts["starts"] == 1 and counts["steps"] <= 10


def test_full_centre_of_ising_q_is_found_after_a_stalled_start(ising, iq, monkeypatch):
    """The first seeded start stalls on this pair; the second converges."""
    prod, red = full_centre(ising, iq)
    _, qr = canonical_qsystem(ising)
    counts = _newton_counts(monkeypatch)
    assert qsystems_equivalent(prod, red.child, qr)
    assert counts["starts"] <= 2
    assert counts["steps"] <= 35


def test_equivalence_rejects_matching_sectors(ising, tq):
    """C^4 and M_2(C) both live on 1 + 1 + 1 + 1 but are not equivalent: the
    sector pre-check passes and every seeded start fails."""
    c4 = direct_sum_qsystems(ising, [tq] * 4)
    m2 = matrix_qsystem(ising, ObjectExpr.from_words([(), ()]))
    assert c4.theta.summands == m2.theta.summands
    assert not qsystems_equivalent(ising, c4, m2)


def test_equivalence_rejects_qsystems_of_another_category(ising, iq):
    other = ising_q(vertex_gauge(ising, 3))
    for q1, q2 in ((iq, other), (other, iq)):
        with pytest.raises(CategoryMismatchError):
            qsystems_equivalent(ising, q1, q2)


@pytest.mark.parametrize("seed", range(1, 6))
def test_matrix_qsystems_of_gauged_ising_are_equivalent(seed, monkeypatch):
    """ising_q, M(sig eps) and M(eps sig) are pairwise equivalent, in both
    argument orders, each from the first seeded start."""
    cat, qs = _ising_matrix_qsystems(seed)
    counts = _newton_counts(monkeypatch)
    for q1, q2 in itertools.permutations(qs, 2):
        counts.update(steps=0, starts=0)
        assert qsystems_equivalent(cat, q1, q2)
        assert counts["starts"] == 1 and counts["steps"] <= 10


@pytest.mark.parametrize("make", [gauged_z3, gauged_z5])
def test_full_centre_of_the_trivial_qsystem_is_r_on_gauged_zn(make):
    cat = make()
    prod, red = full_centre(cat, trivial_qsystem_in(cat))
    assert qsystems_equivalent(prod, red.child, canonical_qsystem(cat)[1])


def test_json_round_trip(ising, iq):
    data = qsystem_as_json(iq)
    back = qsystem_from_json(ising, data)
    assert (back.w - iq.w).max_abs() < 1e-12
    assert (back.x - iq.x).max_abs() < 1e-12
    builder = qsystem_from_json(ising, {"builder": "ising_q"})
    assert (builder.w - iq.w).max_abs() < 1e-12


def test_nan_block_fails_qsystem_check(ising, iq):
    x = Morphism(ising, iq.x.dom, iq.x.cod, dict(iq.x.blocks))
    x.blocks[ising.unit] = np.full_like(x.blocks[ising.unit], np.nan)
    rep = check_qsystem(ising, QSystem(ising, iq.theta, iq.w, x))
    assert rep.ok is False


def _reference_solve(cat, dom, cod, conditions, tol):
    """The solve as built before the Hom-space coordinate map: the SVD null
    space of the condition columns, each null vector accumulated into a
    Morphism one basis element at a time."""
    basis = hom_basis(cat, dom, cod)
    cols = [np.concatenate([morphism_vector(cond(b)) for cond in conditions]) for b in basis]
    _, s, vh = np.linalg.svd(np.stack(cols, axis=1))
    rank = int(np.sum(s > max(tol, s[0] * 1e-10)))
    null = vh[rank:].conj().T
    out = []
    for k in range(null.shape[1]):
        f = zero_morphism(cat, dom, cod)
        for i, b in enumerate(basis):
            if abs(null[i, k]) > 1e-14:
                f = f + null[i, k] * b
        out.append(f)
    return out


def _condition_sets(ising, iq, tq):
    """The two-sided centre conditions of a non-simple Q-system, and the
    intertwiner condition of a reducible free module."""
    q = direct_sum_qsystems(ising, [tq, iq])
    idt = identity(ising, q.theta)
    centre = [
        lambda t: compose(tensor(idt, t), q.x) - compose(q.x, t),
        lambda t: compose(tensor(t, idt), q.x) - compose(q.x, t),
    ]
    free = free_module(ising, iq, ObjectExpr.word("sig"), "left")
    return [(q.theta, q.theta, centre), (free.beta, free.beta, intertwiner_condition(free, free))]


@pytest.mark.parametrize("which", [0, 1])
def test_solve_morphism_space_matches_reference(ising, iq, tq, which):
    dom, cod, conds = _condition_sets(ising, iq, tq)[which]
    got = solve_morphism_space(ising, dom, cod, conds)
    want = _reference_solve(ising, dom, cod, conds, ising.tol)
    assert len(got) == len(want) > 1
    for f, g in zip(got, want):
        assert (f.dom, f.cod) == (g.dom, g.cod)
        assert f.blocks.keys() == g.blocks.keys()
        for c in f.blocks:
            assert np.array_equal(f.blocks[c], g.blocks[c])


def test_minimal_idempotents_default_seed(ising, iq):
    alg = module_end_algebra(free_module(ising, iq, ObjectExpr.word("sig"), "left"))
    got, want = alg.minimal_idempotents(), alg.minimal_idempotents(DEFAULT_SEED)
    assert len(got) == len(want) == 2
    for f, g in zip(got, want):
        assert f.blocks.keys() == g.blocks.keys()
        for c in f.blocks:
            assert np.array_equal(f.blocks[c], g.blocks[c])


def _algebra(ising, iq, tq, name):
    """An algebra of intertwiners and its count of minimal projections."""
    sig = ObjectExpr.word("sig")
    build = {
        # End_A(theta rho) = End(sig* rho) for the matrix Q-system A of sig
        "left sig": lambda: (module_end_algebra(free_module(ising, iq, sig, "left")), 2),
        "left sig sig": lambda: (module_end_algebra(free_module(ising, iq, ObjectExpr.word("sig", "sig"), "left")), 2),
        "bi 1": lambda: (module_end_algebra(free_module(ising, (iq, iq), ObjectExpr.unit(), "bi")), 2),
        "bi sig": lambda: (module_end_algebra(free_module(ising, (iq, iq), sig, "bi")), 2),
        # End(sig + sig + eps) = M_2 + C
        "trivial sig+sig+eps": lambda: (
            module_end_algebra(free_module(ising, tq, ObjectExpr.from_words([("sig",), ("sig",), ("eps",)]), "left")),
            3,
        ),
        "hom0 of a direct sum": lambda: (hom0_algebra(ising, direct_sum_qsystems(ising, [iq, tq, tq])), 3),
        # End_A(A) = End(sig + 1)
        "left endo": lambda: (
            frobenius.left_endo_algebra(ising, matrix_qsystem(ising, ObjectExpr.from_words([("sig",), ()]))),
            2,
        ),
    }
    return build[name]()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["left sig", "left sig sig", "bi 1", "bi sig", "trivial sig+sig+eps", "hom0 of a direct sum", "left endo"])
def test_minimal_idempotents_are_the_minimal_projections(ising, iq, tq, name, seed):
    alg, count = _algebra(ising, iq, tq, name)
    ps = alg.minimal_idempotents(seed)
    assert len(ps) == count
    span = np.stack([morphism_vector(b) for b in alg.basis], axis=1)
    x = alg.basis[0].dom
    total = zero_morphism(ising, x, x)
    for i, p in enumerate(ps):
        assert (p.adjoint() - p).max_abs() < 1e-10
        assert (compose(p, p) - p).max_abs() < 1e-10
        for q in ps[i + 1 :]:
            assert compose(p, q).max_abs() < 1e-10
        v = morphism_vector(p)
        assert np.linalg.norm(span @ np.linalg.lstsq(span, v, rcond=None)[0] - v) < 1e-10
        # minimal: the corner p A p is one-dimensional
        corner = np.stack([morphism_vector(compose(p, compose(b, p))) for b in alg.basis], axis=1)
        assert np.sum(np.linalg.svd(corner, compute_uv=False) > 1e-8) == 1
        total = total + p
    assert (total - identity(ising, x)).max_abs() < 1e-10
