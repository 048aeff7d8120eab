from __future__ import annotations

import numpy as np

from qcat.braided import canonical_qsystem
from qcat.category import CategoryData, pair_label
from qcat.errors import MismatchError
from qcat.frobenius import QSystem, _condition_matrix
from qcat.modules import _action_slot
from qcat.morphisms import (
    Morphism,
    ObjectExpr,
    braiding,
    compose,
    hom_basis,
    identity,
    morphism_from_vector,
    random_morphism,
    right_trace,
    tensor,
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
