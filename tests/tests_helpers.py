from __future__ import annotations

import numpy as np

from qcat.braided import canonical_qsystem, full_centre
from qcat.category import CategoryData, pair_label
from qcat.errors import MismatchError
from qcat.frobenius import QSystem, _condition_matrix
from qcat.modules import _action_slot, d_intertwiner, enumerate_bimodules, r_lift, restrict_bimodule
from qcat.morphisms import (
    Morphism,
    _word_obj,
    ObjectExpr,
    braiding,
    compose,
    engine,
    hom_basis,
    identity,
    morphism_from_vector,
    random_morphism,
    right_trace,
    summand_matrix,
    tensor,
    trace,
    unit_free,
)


def random_gauge(cat, theta, rng):
    """A Haar-ish random unitary in End(theta)."""
    u = random_morphism(cat, theta, theta, rng)
    blocks = {}
    for c, b in u.blocks.items():
        uu, _, vh = np.linalg.svd(b)
        blocks[c] = uu @ vh
    return Morphism(cat, theta, theta, blocks)


def gauge_qsystem(cat, q, u):
    """Transport a Q-system along a unitary of its object."""
    return QSystem(
        cat,
        q.theta,
        compose(u, q.w),
        compose(tensor(u, u), compose(q.x, u.adjoint())),
    )


# ---- the reference solve: a null space of condition matrices ----------


def solve_morphism_space(
    cat: CategoryData,
    dom: ObjectExpr,
    cod: ObjectExpr,
    conditions,
) -> list[Morphism]:
    """Orthonormal basis of {t in Hom(dom, cod): cond(t) = 0 for all conditions}.

    Each condition maps a Morphism linearly to a Morphism; solved by SVD
    thresholding in the coordinates of `hom_basis`.
    """
    basis = hom_basis(cat, dom, cod)
    if not basis:
        return []
    _, s, vh = np.linalg.svd(_condition_matrix(basis, conditions))
    # singular values at most max(tol, 1e-10 s_max) count as zero
    rank = int(np.sum(s > max(cat.tol, 1e-10 * s[0])))
    return [morphism_from_vector(cat, dom, cod, v) for v in vh[rank:].conj()]


def intertwiner_condition(mod1, mod2):
    """t in Hom(beta1, beta2) is an A-B intertwiner iff (1 (x) t (x) 1) m1 = m2 t."""
    if any(q1.theta != q2.theta for q1, q2 in zip(mod1.parents, mod2.parents)):
        raise MismatchError("modules must share their parent Q-systems")
    slot = _action_slot(mod1)
    return [lambda t: compose(slot(t), mod1.m) - compose(mod2.m, t)]


def centre_condition(q):
    """phi in Hom(1, theta) is central iff x* (1 (x) phi) = x* (phi (x) 1)."""
    idt = identity(q.cat, q.theta)
    return [lambda phi: compose(q.x.adjoint(), tensor(idt, phi) - tensor(phi, idt))]


def solved_morphism_space(mod1, mod2) -> list[Morphism]:
    """The intertwiners from mod1 to mod2 by the reference solve."""
    return solve_morphism_space(mod1.cat, mod1.beta, mod2.beta, intertwiner_condition(mod1, mod2))


def solved_centre(q) -> list[Morphism]:
    """The central phi in Hom(1, theta) by the reference solve."""
    return solve_morphism_space(q.cat, ObjectExpr.unit(), q.theta, centre_condition(q))


def killing_check(cat: CategoryData) -> dict:
    """Partial trace of the monodromy of each (rho, 1) around the canonical
    object: annihilates every rho except the unit, where it gives dim(C)."""
    prod, qr = canonical_qsystem(cat)
    out = {}
    for a in cat.labels:
        obj = ObjectExpr.word(pair_label(a, cat.unit))
        mono = compose(
            braiding(prod, qr.theta, obj, "+"), braiding(prod, obj, qr.theta, "+")
        )
        k = right_trace(prod, mono, qr.theta, obj, obj)
        target = cat.global_dim if a == cat.unit else 0.0
        val = complex(k.scalar()) if a == cat.unit else complex(
            np.max(np.abs(np.concatenate([b.reshape(-1) for b in k.blocks.values()])))
            if k.blocks
            else 0.0
        )
        out[a] = {"value": val, "target": target, "ok": abs(val - target) < 1e3 * cat.tol}
    return out


# ---- the reference braiding: a hexagon recursion on word length -------


def word_braiding(cat: CategoryData, u, v, sign: str, memo: dict) -> Morphism:
    """The braiding u (x) v -> v (x) u of two words, built through the
    hexagon from the R-moves of single letters: the blocks of the unit-free
    words' braiding, placed on u v and v u.  `memo` caches it per word pair
    and sign.  It equals the braiding only where R satisfies the hexagon."""
    if sign not in ("+", "-"):
        raise ValueError(f"braiding sign must be '+' or '-', not {sign!r}")
    key = (u, v, sign)
    got = memo.get(key)
    if got is not None:
        return got
    bare = (unit_free(cat, u), unit_free(cat, v))
    if bare != (u, v):
        out = Morphism(cat, _word_obj(u + v), _word_obj(v + u), word_braiding(cat, *bare, sign, memo).blocks)
    elif len(u) == 0 or len(v) == 0:
        out = identity(cat, _word_obj(u + v))
    elif len(u) == 1 and len(v) == 1:
        a, b = u[0], v[0]
        blocks = {e: cat.rmat(a, b, e, sign) for e, _ in cat.fuse(a, b)}
        out = Morphism(cat, _word_obj((a, b)), _word_obj((b, a)), blocks)
    elif len(v) > 1:
        v1, b = v[:-1], (v[-1],)
        e1 = tensor(word_braiding(cat, u, v1, sign, memo), identity(cat, _word_obj(b)))
        e2 = tensor(identity(cat, _word_obj(v1)), word_braiding(cat, u, b, sign, memo))
        out = compose(e2, e1)
    else:
        u1, a = u[:-1], (u[-1],)
        e1 = tensor(identity(cat, _word_obj(u1)), word_braiding(cat, a, v, sign, memo))
        e2 = tensor(word_braiding(cat, u1, v, sign, memo), identity(cat, _word_obj(a)))
        out = compose(e2, e1)
    memo[key] = out
    return out


def reference_braiding(cat: CategoryData, x: ObjectExpr, y: ObjectExpr, sign: str, memo: dict) -> Morphism:
    """The braiding x (x) y -> y (x) x assembled from the word braidings of
    its summand pairs."""
    nx, ny = len(x.summands), len(y.summands)
    parts = {
        (j * nx + i, i * ny + j): word_braiding(cat, u, v, sign, memo)
        for i, u in enumerate(x.summands)
        for j, v in enumerate(y.summands)
    }
    return summand_matrix(cat, x @ y, y @ x, parts)


# ---- the reference boundary numbers: block traces and the sector walk --


def trace_pairing(cat: CategoryData, t1: Morphism, t2: Morphism) -> complex:
    """(t2, t1) = Tr(t1* t2)."""
    return trace(cat, compose(t1.adjoint(), t2))


def reference_boundary(cat: CategoryData, qa: QSystem, qb: QSystem) -> tuple[np.ndarray, np.ndarray]:
    """(pairings, S_mT) of the boundary conditions between Z[A] and Z[B]:
    Tr(D_j* D_i) by one trace per pair, and S_mT by walking the (sector,
    row, column) entries of each D_m's blocks."""
    prod, red_a = full_centre(cat, qa)
    red_b = full_centre(cat, qb)[1]
    za, zb = red_a.child, red_b.child
    d_r = float(np.sqrt(cat.global_dim))
    dvals = [
        d_intertwiner(prod, restrict_bimodule(prod, r_lift(mod, red_a.parent, red_b.parent), red_a, red_b))
        for mod in enumerate_bimodules(cat, qa, qb)
    ]
    n = len(dvals)
    pairings = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            pairings[i, j] = trace_pairing(prod, dvals[j], dvals[i])
    # S_{mT} against the common sector channels
    eng = engine(prod)
    columns = [
        (c, i, j)
        for c, offs in eng.sectors(za.theta).items()
        for i in range(offs[-1])
        for j in range(eng.obj_sector_dim(zb.theta, c))
    ]
    # S_mT[c, i, j] = Tr(D (tb_j ta_i*)) / (d_A d_B d_R^2 sqrt(d_c)) = sqrt(d_c) D_c[i, j] / (d_A d_B d_R^2)
    smT = np.zeros((n, len(columns)), dtype=complex)
    for row, d_rm in enumerate(dvals):
        for col, (c, i, j) in enumerate(columns):
            smT[row, col] = np.sqrt(prod.dims[c]) * d_rm.block(c)[i, j]
    smT /= qa.d * qb.d * d_r ** 2
    return pairings, smT
