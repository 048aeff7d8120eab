from __future__ import annotations

import itertools

import numpy as np

from qcat.braided import canonical_qsystem, full_centre
from qcat.category import CategoryData, load_category, pair_label
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
    morphism_vector,
    random_morphism,
    standard_pair,
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


def inclusion(cat: CategoryData, x: ObjectExpr, i: int) -> Morphism:
    """The isometry embedding the i-th summand word into x."""
    sub = _word_obj(x.summands[i])
    return summand_matrix(cat, sub, x, {(i, 0): identity(cat, sub)})


def op_norm(f: Morphism) -> float:
    """Largest operator norm over sectors; NaN if any entry is not finite."""
    blocks = [b for b in f.blocks.values() if b.size]
    if not all(np.isfinite(b).all() for b in blocks):
        return float("nan")
    return float(np.max([np.linalg.norm(b, 2) for b in blocks], initial=0.0))


def gauge_qsystem(cat, q, u):
    """Transport a Q-system along a unitary of its object."""
    return QSystem(
        cat,
        q.theta,
        compose(u, q.w),
        compose(tensor(u, u), compose(q.x, u.adjoint())),
    )


# ---- Rep(A4): a category with fusion multiplicity 2 --------------------


def rep_a4_category() -> CategoryData:
    """Rep(A4), the symmetric category of the alternating group on four
    letters: labels 1, 1p, 1pp (1p and 1pp dual) and 3, with 3 x 3 =
    1 + 1p + 1pp + 2 (3), so the channel 3 x 3 -> 3 has multiplicity 2.

    Its data are computed from the irreducible representations on the
    generators s (order 2) and t (order 3): the vertices e -> a b are an
    orthonormal basis of the intertwiners C^e -> C^a (x) C^b (the identity
    on a unit leg), F^{abc}_d[(e, al, be), (f, mu, nu)] is the overlap of the
    tree (v_al (x) 1) v_be with the tree (1 (x) v_mu) v_nu, and R^{ab}_c
    that of the flip of a b with the vertices of b a."""
    w = np.exp(2j * np.pi / 3)
    reps = {
        "1": (np.eye(1), np.eye(1)),
        "1p": (np.eye(1), np.array([[w]])),
        "1pp": (np.eye(1), np.array([[w * w]])),
        "3": (np.diag([1.0, -1.0, -1.0]), np.roll(np.eye(3), 1, axis=0)),
    }
    dim = {a: s.shape[0] for a, (s, _) in reps.items()}

    def vertices(a, b, c):
        eqs = [
            np.kron(np.kron(ga, gb), np.eye(dim[c])) - np.kron(np.eye(dim[a] * dim[b]), gc.T)
            for ga, gb, gc in zip(reps[a], reps[b], reps[c])
        ]
        _, s, vh = np.linalg.svd(np.vstack(eqs))
        return [np.sqrt(dim[c]) * v.reshape(dim[a] * dim[b], dim[c]) for v in vh[int(np.sum(s > 1e-9)) :].conj()]

    v = {}
    for a, b, c in itertools.product(reps, repeat=3):
        vs = vertices(a, b, c)
        if vs:
            v[a, b, c] = [np.eye(dim[c])] if "1" in (a, b) else vs

    def overlaps(rows, cols, d):
        """[i, j]: the inner product of cols[j] with rows[i], as maps C^d -> C^n."""
        return np.array([[np.trace(col.conj().T @ row) / d for col in cols] for row in rows])

    def entry(mat):
        return {"re": mat.real.tolist(), "im": mat.imag.tolist()}

    f_entries = []
    for a, b, c, d in itertools.product(reps, repeat=4):
        rows = [
            np.kron(va, np.eye(dim[c])) @ vb
            for e in reps
            for va in v.get((a, b, e), [])
            for vb in v.get((e, c, d), [])
        ]
        cols = [
            np.kron(np.eye(dim[a]), vm) @ vn
            for f in reps
            for vm in v.get((b, c, f), [])
            for vn in v.get((a, f, d), [])
        ]
        if rows and "1" not in (a, b, c):
            f_entries.append({"abc_d": [a, b, c, d], **entry(overlaps(rows, cols, dim[d]))})
    r_entries = []
    for (a, b, c), vs in v.items():
        if "1" not in (a, b):
            flip = np.eye(dim[a] * dim[b])[[i * dim[b] + j for j in range(dim[b]) for i in range(dim[a])]]
            r_entries.append({"ab_c": [a, b, c], **entry(overlaps([flip @ vm for vm in vs], v[b, a, c], dim[c]).T)})
    return load_category(
        {
            "labels": list(reps),
            "dual": {"1": "1", "1p": "1pp", "1pp": "1p", "3": "3"},
            "fusion": [[a, b, c, len(vs)] for (a, b, c), vs in v.items()],
            "F": f_entries,
            "R": r_entries,
        }
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


# ---- the reference partial traces and centre projections: standard pairs --


def reference_left_trace(cat: CategoryData, f: Morphism, x: ObjectExpr, rest_dom: ObjectExpr, rest_cod: ObjectExpr) -> Morphism:
    """Partial trace over the left factor x of f in Hom(x rest_dom, x rest_cod),
    (r* (x) 1)(1 (x) f)(r (x) 1) through the standard pair of x."""
    pair = standard_pair(cat, x)
    idxbar = identity(cat, pair.conj)
    return compose(
        tensor(pair.r.adjoint(), identity(cat, rest_cod)),
        compose(tensor(idxbar, f), tensor(pair.r, identity(cat, rest_dom))),
    )


def right_trace(cat: CategoryData, f: Morphism, x: ObjectExpr, rest_dom: ObjectExpr, rest_cod: ObjectExpr) -> Morphism:
    """Partial trace over the right factor x of f in Hom(rest_dom x, rest_cod x),
    (1 (x) rbar*)(f (x) 1)(1 (x) rbar) through the standard pair of x."""
    pair = standard_pair(cat, x)
    idxbar = identity(cat, pair.conj)
    return compose(
        tensor(identity(cat, rest_cod), pair.rbar.adjoint()),
        compose(tensor(f, idxbar), tensor(identity(cat, rest_dom), pair.rbar)),
    )


def reference_centre_projection(cat: CategoryData, q: QSystem, sign: str) -> Morphism:
    """The centre projection P = d^-1 (r* (x) 1)(1 (x) eps)(x (x) 1)x of the
    given sign, built on theta theta theta."""
    idt = identity(cat, q.theta)
    eps = braiding(cat, q.theta, q.theta, sign)
    p = compose(tensor(q.r.adjoint(), idt), compose(tensor(idt, eps), compose(tensor(q.x, idt), q.x)))
    return (1.0 / q.d) * p


# ---- the reference conjugate vertex: a rotation by standard pairs ------


def reference_conj_hom_matrix(cat: CategoryData, rho: str, sigma: str, tau: str) -> np.ndarray:
    """The antiunitary map Hom(tau, rho sigma) -> Hom(taubar, rhobar sigmabar)
    of the canonical Q-system, composed: each basis vertex t (a real 0/1
    matrix, its own entrywise conjugate) is rotated to taubar -> sigmabar rhobar
    by the standard pairs of rho sigma and of tau, then braided by eps^-.
    Column mu holds the `morphism_vector` coordinates of the image of
    hom_basis(tau, rho sigma)[mu]; the matrix is unitarized."""
    rb, sb = cat.dual[rho], cat.dual[sigma]
    dom = ObjectExpr.word(tau)
    cod = ObjectExpr.word(rho, sigma)
    pair_w = standard_pair(cat, cod)  # conj = (sigmabar rhobar)
    pair_t = standard_pair(cat, dom)  # conj = taubar
    id_c = identity(cat, pair_w.conj)
    eps = braiding(cat, ObjectExpr.word(sb), ObjectExpr.word(rb), "-")
    cols = []
    for t in hom_basis(cat, dom, cod):
        g = compose(tensor(id_c, t.adjoint()), pair_w.r)  # Hom(1, sb rb tau)
        rot = compose(tensor(id_c, pair_t.rbar.adjoint()), tensor(g, identity(cat, pair_t.conj)))  # Hom(taubar, sb rb)
        cols.append(morphism_vector(compose(eps, rot)))  # Hom(taubar, rb sb)
    u, _, vh = np.linalg.svd(np.stack(cols, axis=1))
    return u @ vh


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
