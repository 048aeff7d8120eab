from __future__ import annotations

import numpy as np
import pytest

import qcat
from qcat.braided import (
    _conj_hom_matrix,
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
from qcat.fixtures import ising_category, z2_category
from qcat.frobenius import (
    check_commutative,
    check_qsystem,
    ising_q,
    matrix_qsystem,
    qsystems_equivalent,
    trivial_qsystem_in,
)
from qcat.morphisms import ObjectExpr, identity, left_trace
from test_category import gauged_z3, gauged_z5, vertex_gauge, zn_data
from tests_helpers import killing_check, reference_centre_projection, reference_conj_hom_matrix, rep_a4_category


def test_centre_projections_are_projections(ising, iq):
    for p in (centre_projections(ising, iq, sign) for sign in ("+", "-")):
        assert (p - p.adjoint()).max_abs() < 1e-10
        from qcat.morphisms import compose

        assert (compose(p, p) - p).max_abs() < 1e-10


def _centre_projection_cases():
    """(name, category, Q-system): the Q-systems the suite builds on gauged
    Ising (seeds 1 and 2) and gauged Z3, the canonical R, and the braided
    product (A x 1) x+ R in C x C^opp of each A, whose left centre is the
    full centre."""
    ising_seeds = [(f"ising{seed}", vertex_gauge(build_category(ising_category()), seed)) for seed in (1, 2)]
    for name, cat in ising_seeds + [("z3", gauged_z3())]:
        if "sig" in cat.labels:
            qs = {
                "ising_q": ising_q(cat),
                "sig_eps": matrix_qsystem(cat, ObjectExpr.word("sig", "eps")),
                "sig+1": matrix_qsystem(cat, ObjectExpr.from_words([("sig",), ()])),
            }
        else:
            qs = {"z1+z2": matrix_qsystem(cat, ObjectExpr.from_words([("1",), ("2",)]))}
        qs["trivial"] = trivial_qsystem_in(cat)
        prod, qr = canonical_qsystem(cat)
        yield from ((f"{name}-{k}", cat, q) for k, q in qs.items())
        yield f"{name}-R", prod, qr
        for k, q in qs.items():
            yield f"{name}-{k}xR", prod, braided_product(prod, embed_left(cat, prod, q), qr, "+")


CENTRE_PROJECTION_CASES = list(_centre_projection_cases())


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("name,cat,q", CENTRE_PROJECTION_CASES, ids=[c[0] for c in CENTRE_PROJECTION_CASES])
def test_centre_projection_is_the_four_morphism_formula(name, cat, q, sign):
    """d^-1 Tr^left_theta(eps x x*) equals d^-1 (r* x 1)(1 x eps)(x x 1)x,
    built on theta theta theta, for standard Q-systems."""
    got, want = centre_projections(cat, q, sign), reference_centre_projection(cat, q, sign)
    assert (got - want).max_abs() <= 1e-12


def test_partial_traces_and_centre_projections_make_no_tensor_product(monkeypatch):
    """`left_trace` and `centre_projections` build no object three factors
    long, and `canonical_qsystem` reads its conjugate vertices off F and R:
    on a fresh category, none of them calls `tensor`, through
    `qcat.morphisms` or through `qcat.braided`."""
    calls = []

    def counted(real):
        def tensor(f, g):
            calls.append((f.dom, g.dom))
            return real(f, g)

        return tensor

    for mod in (qcat.morphisms, qcat.braided):
        monkeypatch.setattr(mod, "tensor", counted(mod.tensor))
    cat = vertex_gauge(build_category(ising_category()), 3)
    q = ising_q(cat)  # its matrix_qsystem builds x by tensor products
    calls.clear()
    theta = q.theta
    for sign in ("+", "-"):
        centre_projections(cat, q, sign)
    x = ObjectExpr.from_words([("sig", "sig"), ("eps",)])
    left_trace(cat, identity(cat, x @ theta), x, theta, theta)
    canonical_qsystem(cat)
    assert calls == []


def test_centre_of_ising_q_is_trivial(ising, iq, tq):
    for sign in ("+", "-"):
        red = centre_qsystem(ising, iq, sign)
        assert abs(red.child.d - 1.0) < 1e-9
        assert qsystems_equivalent(ising, red.child, tq)
    # the braiding sign is a keyword too, named as in centre_projections
    assert abs(centre_qsystem(ising, iq, sign="-").child.d - 1.0) < 1e-9


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


def test_canonical_qsystem_with_a_multiplicity_two_channel():
    """Rep(A4) has the channel 3 x 3 -> 3 of multiplicity 2, so its canonical
    Q-system pairs the two vertices of that channel by a 2 x 2 unitary."""
    prod, qr = canonical_qsystem(rep_a4_category())
    assert check_qsystem(prod, qr).ok
    assert abs(qr.d - np.sqrt(12.0)) < 1e-9  # d_R = sqrt(global dim)
    comm, res = check_commutative(prod, qr)
    assert comm and res < 1e-9


CONJUGATE_VERTEX_CATEGORIES = {
    "ising": lambda: build_category(ising_category()),
    "ising_seed1": lambda: vertex_gauge(build_category(ising_category()), 1),
    "ising_seed2": lambda: vertex_gauge(build_category(ising_category()), 2),
    "gauged_z3": gauged_z3,
    "gauged_z5": gauged_z5,
    "z5_seed3": lambda: vertex_gauge(build_category(zn_data(5)), 3),
    "rep_a4": rep_a4_category,
}


@pytest.mark.parametrize("name", list(CONJUGATE_VERTEX_CATEGORIES))
def test_conjugate_vertex_matches_the_rotation_reference(name):
    """The conjugate vertices of the canonical Q-system, read off F and R,
    equal the rotation composed from standard pairs and eps^- on every
    fusion channel rho sigma -> tau."""
    cat = CONJUGATE_VERTEX_CATEGORIES[name]()
    channels = [(r, s, t) for r in cat.labels for s in cat.labels for t in cat.labels if cat.n(r, s, t)]
    for channel in channels:
        got, want = _conj_hom_matrix(cat, *channel), reference_conj_hom_matrix(cat, *channel)
        assert got.shape == want.shape == (cat.n(*channel),) * 2
        assert np.abs(got - want).max() <= 1e-12, channel
    assert max(cat.n(*channel) for channel in channels) == (2 if name == "rep_a4" else 1)


def test_a_cached_product_takes_the_category_tolerance():
    """The one tolerance of every check on a category and on its products:
    C x C^opp, cached on the category, reads the category's tol afresh."""
    cat = build_category(ising_category())
    opposite_product_category(cat)
    canonical_qsystem(cat)
    cat.tol = 1e-6
    assert opposite_product_category(cat).tol == 1e-6
    assert full_centre(cat, ising_q(cat))[0].tol == 1e-6


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
