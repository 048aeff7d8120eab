"""End-to-end gate: one test per headline requirement, at stated tolerances."""
from __future__ import annotations

import numpy as np

from qcat.braided import canonical_qsystem, centre_qsystem, full_centre, z_matrix
from qcat.category import modular_data, validate_category
from qcat.decompose import central_decomposition, check_intermediate, direct_sum_qsystems
from qcat.frobenius import (
    check_commutative,
    check_qsystem,
    matrix_qsystem,
    qsystems_equivalent,
)
from qcat.modules import boundary_conditions, enumerate_bimodules, enumerate_modules
from qcat.morphisms import (
    ObjectExpr,
    compose,
    identity,
    random_morphism,
    standard_pair,
    tensor,
    trace,
)


def test_criterion_01_ising_validates(ising):
    rep = validate_category(ising)
    assert rep.ok
    assert max(rep.pentagon, rep.hexagon_plus, rep.hexagon_minus) < 1e-9


def test_criterion_02_modular_data(ising):
    md = modular_data(ising)
    assert np.allclose(sorted(md.dims), [1.0, 1.0, np.sqrt(2.0)], atol=1e-9)
    assert abs(md.global_dim - 4.0) < 1e-9
    tw = dict(zip(md.labels, md.twists))
    assert abs(tw["sig"] - np.exp(1j * np.pi / 8)) < 1e-9
    s, t, c = md.s_matrix, md.t_matrix, md.charge_conjugation
    n = len(md.labels)
    assert np.max(np.abs(s @ s.conj().T - np.eye(n))) < 1e-9
    st = s @ np.linalg.inv(t)
    assert np.max(np.abs(np.linalg.matrix_power(st, 3) - s @ s)) < 1e-9
    assert np.max(np.abs(np.linalg.matrix_power(s, 4) - np.eye(n))) < 1e-9
    assert np.max(np.abs(s @ s - c)) < 1e-9


def test_criterion_03_ising_qsystem(ising, iq):
    rep = check_qsystem(ising, iq)
    assert iq.theta == ObjectExpr.word("sig", "sig")
    assert max(rep.unit, rep.associativity, rep.frobenius, rep.special,
               rep.standard_w, rep.standard_x) < 1e-9
    assert abs(rep.d - np.sqrt(2.0)) < 1e-9


def test_criterion_04_centres(ising, iq, tq):
    assert not check_commutative(ising, iq)[0]
    for sign in ("+", "-"):
        red = centre_qsystem(ising, iq, sign)
        assert abs(red.child.d - 1.0) < 1e-9
        assert qsystems_equivalent(ising, red.child, tq)
    from qcat.braided import centre_projections

    idt = identity(ising, tq.theta)
    assert (centre_projections(ising, tq, "+") - idt).max_abs() < 1e-9
    assert (centre_projections(ising, tq, "-") - idt).max_abs() < 1e-9


def test_criterion_05_module_counts(ising, iq, tq):
    mods = enumerate_modules(ising, iq, "left")
    assert len(mods) == 3
    from qcat.modules import decompose_module, free_module, morphism_space

    free = free_module(ising, iq, ObjectExpr.word("sig"), "left")
    parts = decompose_module(free)
    assert len(parts) == 2
    assert len(morphism_space(parts[0], parts[1])) == 0
    assert len(enumerate_bimodules(ising, tq, tq)) == 3
    assert len(enumerate_bimodules(ising, iq, iq)) == 3


def test_criterion_06_canonical_qsystem(ising):
    prod, qr = canonical_qsystem(ising)
    assert check_qsystem(prod, qr).ok
    assert check_commutative(prod, qr)[0]
    assert abs(qr.d - 2.0) < 1e-9


def test_criterion_07_full_centres(ising, iq, tq):
    prod, qr = canonical_qsystem(ising)
    for q in (tq, iq):
        _, red = full_centre(ising, q)
        assert abs(red.child.d - 2.0) < 1e-9
        assert qsystems_equivalent(prod, red.child, qr)


def test_criterion_08_z_matrices(ising, iq, tq):
    for q in (tq, iq):
        z, info = z_matrix(ising, q)
        assert np.array_equal(z, np.eye(3, dtype=int))
        assert info["s_commutator"] < 1e-9
        assert info["t_commutator"] < 1e-9


def test_criterion_09_boundary_classification(ising, tq, ising_s):
    rep = boundary_conditions(ising, tq, tq)
    assert len(rep.idempotents) == 3
    for v in rep.residuals.values():
        assert v < 1e-8
    assert np.max(np.abs(rep.pairings - 16.0 * np.eye(3))) < 1e-8
    # S_mT matches the Ising S-matrix up to row order
    target = {tuple(np.round(row, 8)) for row in ising_s}
    got = {tuple(np.round(row.real, 8)) for row in rep.smT}
    assert got == target
    assert np.max(np.abs(rep.smT.imag)) < 1e-8
    # three field-identification sign patterns
    cols = {c["sector"]: k for k, c in enumerate(rep.smT_columns)}
    pats = {
        (
            int(np.sign(np.round(rep.c_matrix[r, cols["eps|eps"]].real, 8))),
            int(np.sign(np.round(rep.c_matrix[r, cols["sig|sig"]].real, 8))),
        )
        for r in range(3)
    }
    assert pats == {(1, 1), (1, -1), (-1, 0)}
    assert rep.cross_check == "pass"


def test_criterion_10a_trace_properties(ising):
    x = ObjectExpr.word("sig", "sig")
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = random_morphism(ising, x, x, rng)
        g = random_morphism(ising, x, x, rng)
        assert abs(trace(ising, compose(f, g)) - trace(ising, compose(g, f))) < 1e-9
        assert trace(ising, compose(f.adjoint(), f)).real > -1e-12


def test_criterion_10b_left_right_traces(ising):
    x = ObjectExpr.word("sig", "sig")
    pair = standard_pair(ising, x)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = random_morphism(ising, x, x, rng)
        lt = compose(pair.r.adjoint(), compose(tensor(identity(ising, pair.conj), f), pair.r))
        rt = compose(pair.rbar.adjoint(), compose(tensor(f, identity(ising, pair.conj)), pair.rbar))
        assert abs(lt.scalar() - rt.scalar()) < 1e-9
    # a zig-zag pair that is not standard breaks the equality
    r2, rbar2 = 2.0 * pair.r, 0.5 * pair.rbar
    f = random_morphism(ising, x, x, np.random.default_rng(0))
    lt = compose(r2.adjoint(), compose(tensor(identity(ising, pair.conj), f), r2))
    rt = compose(rbar2.adjoint(), compose(tensor(f, identity(ising, pair.conj)), rbar2))
    assert abs(lt.scalar() - rt.scalar()) > 1e-3 * abs(lt.scalar())


def test_criterion_10c_unit_asso_special_forces_frobenius(ising, iq, tq):
    from tests_helpers import gauge_qsystem, random_gauge

    for seed in range(100):
        rng = np.random.default_rng(seed)
        q = iq if seed % 2 else tq
        q2 = gauge_qsystem(ising, q, random_gauge(ising, q.theta, rng))
        rep = check_qsystem(ising, q2)
        assert max(rep.unit, rep.associativity, rep.special) < 1e-9
        assert rep.frobenius < 1e-9


def test_criterion_10d_killing_annihilation(ising):
    from tests_helpers import killing_check

    out = killing_check(ising)
    for a, entry in out.items():
        assert entry["ok"]


def test_criterion_10e_direct_sum_round_trip(ising, iq, tq):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pool = [tq, iq]
        picks = [pool[rng.integers(0, 2)] for _ in range(int(rng.integers(2, 4)))]
        total = direct_sum_qsystems(ising, picks)
        assert check_qsystem(ising, total).ok
        if seed % 10 == 0:  # the costly inverse direction on a sample
            parts = central_decomposition(ising, total, seed=seed)
            assert sorted(np.round(r.child.d, 6) for _, r in parts) == sorted(
                np.round(p.d, 6) for p in picks
            )


def test_criterion_10f_nonscalar_n_p_reported(ising):
    from tests_helpers import inclusion

    q = matrix_qsystem(ising, ObjectExpr(((), ("sig",))))
    p = None
    for i in (0, 3):
        inc = inclusion(ising, q.theta, i)
        term = compose(inc, inc.adjoint())
        p = term if p is None else p + term
    red = check_intermediate(ising, q, p)
    assert not red.n_p_scalar
    assert max(red.n_p_spectrum) - min(red.n_p_spectrum) > 0.1
