from __future__ import annotations

import json

import numpy as np
import pytest

import qcat.modules as modules
from qcat.braided import full_centre
from qcat.category import build_category
from qcat.cli import _diff, _load_cat, _load_q, _round, run
from qcat.errors import ConsistencyError, MismatchError
from qcat.fixtures import ising_category
from qcat.frobenius import frobenius_conj, ising_q, trivial_qsystem_in
from qcat.modules import (
    boundary_conditions,
    convolution,
    r_lift,
    restrict_bimodule,
    validate_module,
)
from qcat.morphisms import compose, hom_basis, morphism_from_vector, morphism_vector, random_morphism
from test_category import vertex_gauge
from test_golden import GAUGED_Z3
from tests_helpers import reference_boundary


def _convolution_idempotents(qa, qb, seed):
    """The minimal idempotents of Hom(theta_B, theta_A) under convolution, a
    commutative algebra: the eigenvectors of a seeded random element's
    convolution matrix in `hom_basis` coordinates, each scaled to e * e = e.
    The reference whose idempotents the boundary formula must reproduce."""
    cat, dom, cod = qa.cat, qb.theta, qa.theta
    a = random_morphism(cat, dom, cod, np.random.default_rng(seed))
    conv = np.stack([morphism_vector(convolution(qa, qb, a, b)) for b in hom_basis(cat, dom, cod)], axis=1)
    out = []
    for v in np.linalg.eig(conv)[1].T:
        f = morphism_from_vector(cat, dom, cod, v)
        # f = c e with e * e = e, so f * f = c f
        c = np.vdot(v, morphism_vector(convolution(qa, qb, f, f))) / np.vdot(v, v)
        out.append((1.0 / c) * f)
    return out


def _match_rows(mat, target):
    """Match rows of mat to rows of target up to permutation; return max error."""
    n = len(target)
    used = set()
    worst = 0.0
    for i in range(n):
        best, best_j = np.inf, None
        for j in range(n):
            if j in used:
                continue
            err = np.max(np.abs(mat[i] - target[j]))
            if err < best:
                best, best_j = err, j
        used.add(best_j)
        worst = max(worst, best)
    return worst


def test_cardy_case_counts_and_residuals(ising, tq):
    rep = boundary_conditions(ising, tq, tq)
    assert len(rep.idempotents) == 3
    assert rep.cross_check == "pass"
    for v in rep.residuals.values():
        assert v < 1e-8
    assert np.max(np.abs(rep.pairings - 16.0 * np.eye(3))) < 1e-8


def test_cardy_smT_is_the_s_matrix(ising, tq, ising_s):
    rep = boundary_conditions(ising, tq, tq)
    assert _match_rows(rep.smT.real, ising_s) < 1e-8
    assert np.max(np.abs(rep.smT.imag)) < 1e-8


@pytest.mark.parametrize("gauge", [None, 5])
@pytest.mark.parametrize("a, b", [("trivial", "trivial"), ("trivial", "ising_q"), ("ising_q", "trivial"), ("ising_q", "ising_q")])
def test_abs_smT_is_the_abs_s_matrix_for_every_morita_pair(ising, ising_s, gauge, a, b):
    """ising_q is Morita equivalent to the trivial Q-system, so for every pair
    of the two |S_mT| is the Ising |S| up to row order, in a vertex gauge too."""
    cat = ising if gauge is None else vertex_gauge(ising, gauge)
    qs = {"trivial": trivial_qsystem_in(cat), "ising_q": ising_q(cat)}
    rep = boundary_conditions(cat, qs[a], qs[b])
    assert rep.smT.shape == ising_s.shape
    assert _match_rows(np.abs(rep.smT), np.abs(ising_s)) < 1e-8


def test_cardy_sign_patterns(ising, tq):
    """Field identification coefficients across the three boundary conditions:
    all plus, an eps sign flip, and the sig channel killed."""
    rep = boundary_conditions(ising, tq, tq)
    cols = {c["sector"]: k for k, c in enumerate(rep.smT_columns)}
    eps_col = cols["eps|eps"]
    sig_col = cols["sig|sig"]
    c = rep.c_matrix
    signs = set()
    for row in range(3):
        e = int(np.sign(np.round(c[row, eps_col].real, 8)))
        s = int(np.sign(np.round(c[row, sig_col].real, 8)))
        signs.add((e, s))
    # all-plus, a sig sign flip, and eps flipped with the sig channel absent
    assert signs == {(1, 1), (1, -1), (-1, 0)}
    assert np.max(np.abs(c.imag)) < 1e-8


def test_aa_case(ising, iq):
    rep = boundary_conditions(ising, iq, iq)
    assert len(rep.idempotents) == 3
    assert rep.cross_check == "pass"
    for v in rep.residuals.values():
        assert v < 1e-8
    # pairing value d_A^2 d_B^2 d_R^4 / d_R^2... with d_A = d_B = sqrt 2: 64
    assert np.max(np.abs(rep.pairings - 64.0 * np.eye(3))) < 1e-7


def test_mixed_case(ising, iq, tq):
    rep = boundary_conditions(ising, iq, tq)
    assert len(rep.idempotents) == 3
    assert rep.cross_check == "pass"
    for v in rep.residuals.values():
        assert v < 1e-8
    assert np.max(np.abs(rep.smT @ rep.smT.conj().T - np.eye(3))) < 1e-8


@pytest.mark.parametrize(
    "category, a, b",
    [
        ("ising", "trivial", "trivial"),
        ("ising", "trivial", "ising_q"),
        ("ising", "ising_q", "trivial"),
        ("ising", "ising_q", "ising_q"),
        ("gauged_z3", "trivial", "trivial"),
    ],
)
def test_boundary_numbers_match_the_block_walk(category, a, b):
    """The pairings are Tr(D_j* D_i), one trace per pair; S_mT is the
    sector-by-sector walk of each D_m's blocks; its columns are the
    coordinates of `hom_basis(Z[B], Z[A])`, in order."""
    cat = _load_cat(GAUGED_Z3 if category == "gauged_z3" else category)
    qa, qb = _load_q(cat, a), _load_q(cat, b)
    rep = boundary_conditions(cat, qa, qb)
    pairings, smT = reference_boundary(cat, qa, qb)
    assert np.max(np.abs(rep.pairings - pairings)) <= 1e-12 * np.max(np.abs(pairings))
    assert np.max(np.abs(rep.smT - smT)) <= 1e-14
    prod, red_a = full_centre(cat, qa)
    zb = full_centre(cat, qb)[1].child
    entries = []
    for e in hom_basis(prod, zb.theta, red_a.child.theta):
        ((c, block),) = e.blocks.items()
        ((i, j),) = np.argwhere(block != 0)
        entries.append({"sector": c, "slot_a": int(i), "slot_b": int(j)})
    assert rep.smT_columns == entries


def test_lifted_bimodules_are_bimodules(ising, tq):
    bims = modules.enumerate_bimodules(ising, tq, tq)
    prod, red = full_centre(ising, tq)
    for m in bims:
        lifted = r_lift(m, red.parent, red.parent)
        assert validate_module(prod, lifted).ok
        restricted = restrict_bimodule(prod, lifted, red, red)
        assert validate_module(prod, restricted).ok


def test_r_lift_rejects_products_of_other_parents(ising, iq, tq):
    """R[A] and R[B] must be the braided products of the module's own parents."""
    m = modules.enumerate_bimodules(ising, tq, tq)[0]
    _, red_iq = full_centre(ising, iq)
    with pytest.raises(MismatchError):
        r_lift(m, red_iq.parent, red_iq.parent)


def test_convolution_algebra_structure(ising, tq):
    prod, red = full_centre(ising, tq)
    za = red.child
    basis = hom_basis(za.cat, za.theta, za.theta)
    assert len(basis) == 3
    unit = compose(za.w, za.w.adjoint())
    for b in basis:
        lhs = convolution(za, za, unit, b)
        rhs = convolution(za, za, b, unit)
        assert (lhs - b).max_abs() < 1e-9
        assert (rhs - b).max_abs() < 1e-9  # commutative convolution
        twice = frobenius_conj(za, za, frobenius_conj(za, za, b))
        assert (twice - b).max_abs() < 1e-9  # antilinear involution


@pytest.mark.parametrize("a, b", [("tq", "tq"), ("iq", "iq"), ("tq", "iq")])
def test_formula_idempotents_are_the_minimal_ones(ising, a, b, request):
    """The seeded reference search for minimal idempotents of the convolution
    algebra finds the formula's idempotents, one per bimodule."""
    qa, qb = request.getfixturevalue(a), request.getfixturevalue(b)
    rep = boundary_conditions(ising, qa, qb)
    za, zb = full_centre(ising, qa)[1].child, full_centre(ising, qb)[1].child
    for seed in (1, 2):
        found = _convolution_idempotents(za, zb, seed)
        assert len(found) == len(rep.idempotents) == 3
        for ii in rep.idempotents:
            assert min((f - ii).max_abs() for f in found) < 1e-8


def test_determinism_across_seeds(ising, tq):
    """Two cold runs, each on a freshly loaded category, agree."""
    runs = []
    for _ in range(2):
        cat = build_category(ising_category())
        tq_cold = trivial_qsystem_in(cat)
        runs.append(boundary_conditions(cat, tq_cold, tq_cold))
    r1, r2 = runs
    assert np.max(np.abs(r1.smT - r2.smT)) < 1e-10
    for a, b in zip(r1.idempotents, r2.idempotents):
        assert (a - b).max_abs() < 1e-10


def test_a_missing_bimodule_raises(ising, tq, monkeypatch):
    """One bimodule short of the convolution algebra's dimension."""
    real = modules.enumerate_bimodules
    monkeypatch.setattr(modules, "enumerate_bimodules", lambda cat, qa, qb: real(cat, qa, qb)[1:])
    with pytest.raises(ConsistencyError, match="dimension 3"):
        boundary_conditions(ising, tq, tq)


@pytest.mark.parametrize("scale, message", [(0.0, "zero"), (2.0, "idempotency")])
def test_a_wrong_idempotent_raises(ising, tq, monkeypatch, scale, message):
    real = modules.d_intertwiner
    monkeypatch.setattr(modules, "d_intertwiner", lambda cat, mod: scale * real(cat, mod))
    with pytest.raises(ConsistencyError, match=message):
        boundary_conditions(ising, tq, tq)


@pytest.mark.parametrize("builder", [ising_q, trivial_qsystem_in])
def test_one_full_centre_when_a_is_b(ising, builder, monkeypatch):
    """boundary(A, A) computes Z[A] once, and reports what two separately
    built copies of A give."""
    apart = _round(boundary_conditions(ising, builder(ising), builder(ising)))
    calls = []
    real = modules.full_centre
    monkeypatch.setattr(modules, "full_centre", lambda cat, q: calls.append(q) or real(cat, q))
    q = builder(ising)
    shared = _round(boundary_conditions(ising, q, q))
    assert len(calls) == 1
    differences: list[str] = []
    _diff(apart, shared, 1e-12, "", differences)
    assert differences == []


def test_cli_boundary_loads_one_qsystem_for_a_and_b(monkeypatch, capsys):
    calls = []
    real = modules.full_centre
    monkeypatch.setattr(modules, "full_centre", lambda cat, q: calls.append(q) or real(cat, q))
    assert run(["boundary", "ising", "--A", "ising_q", "--B", "ising_q"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["bimodules"]
