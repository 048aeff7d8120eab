"""Braiding-dependent constructions: braided products, left and right centres,
the canonical Q-system of a rational category, full centres, and Z-matrices."""
from __future__ import annotations

import numpy as np

from .category import CategoryData, deligne_product, modular_data, pair_label
from .errors import (
    CategoryMismatchError,
    NotModularError,
    RoundingError,
)
from .decompose import ReducedQSystem, check_intermediate
from .frobenius import QSystem
from .morphisms import (
    Morphism,
    ObjectExpr,
    braiding,
    compose,
    hom_basis,
    identity,
    morphism_vector,
    standard_pair,
    summand_matrix,
    tensor,
)


def braided_product(cat: CategoryData, qa: QSystem, qb: QSystem, sign: str = "+") -> QSystem:
    """The product Q-system on theta_A theta_B with the braiding inserted."""
    if qa.cat is not cat or qb.cat is not cat:
        raise CategoryMismatchError("factors must live in the given category")
    theta = qa.theta @ qb.theta
    w = tensor(qa.w, qb.w)
    eps = braiding(cat, qa.theta, qb.theta, sign)
    ida = identity(cat, qa.theta)
    idb = identity(cat, qb.theta)
    x = compose(tensor(tensor(ida, eps), idb), tensor(qa.x, qb.x))
    return QSystem(cat, theta, w, x)


def centre_projections(cat: CategoryData, q: QSystem, sign: str = "+") -> Morphism:
    """The left (sign "+") or right ("-") centre projection
    P = d^-1 (r* x 1)(1 x eps)(x x 1)x, with eps the braiding of that sign."""
    idt = identity(cat, q.theta)
    eps = braiding(cat, q.theta, q.theta, sign)
    p = compose(tensor(q.r.adjoint(), idt), compose(tensor(idt, eps), compose(tensor(q.x, idt), q.x)))
    return (1.0 / q.d) * p


def centre_qsystem(cat: CategoryData, q: QSystem, side: str = "+") -> ReducedQSystem:
    """The maximal commutative intermediate Q-system cut out by P+ or P-."""
    return check_intermediate(cat, q, centre_projections(cat, q, side))


# ---- the canonical Q-system in C x C^opp -----------------------------


def embed_left(cat: CategoryData, prod: CategoryData, q: QSystem) -> QSystem:
    """Carry a Q-system of C into C x C^opp along a -> (a, unit)."""
    return QSystem(
        prod,
        _embed_obj(cat, prod, q.theta),
        _embed_morphism(cat, prod, q.w),
        _embed_morphism(cat, prod, q.x),
    )


def _embed_obj(cat: CategoryData, prod: CategoryData, x: ObjectExpr) -> ObjectExpr:
    unit2 = cat.unit
    return ObjectExpr.from_words(
        [tuple(pair_label(a, unit2) for a in w) for w in x.summands]
    )


def _embed_morphism(cat: CategoryData, prod: CategoryData, f: Morphism) -> Morphism:
    unit2 = cat.unit
    blocks = {pair_label(c, unit2): b for c, b in f.blocks.items()}
    return Morphism(prod, _embed_obj(cat, prod, f.dom), _embed_obj(cat, prod, f.cod), blocks)


def opposite_product_category(cat: CategoryData) -> CategoryData:
    """C x C^opp, cached on the category."""
    prod = getattr(cat, "_opp_product", None)
    if prod is None:
        prod = deligne_product(cat, cat, reverse_right=True)
        cat._opp_product = prod
    return prod


def _conj_hom_matrix(cat: CategoryData, rho: str, sigma: str, tau: str) -> np.ndarray:
    """Matrix of the antiunitary map Hom(tau, rho sigma) -> Hom(taubar, rhobar sigmabar)
    realized by entrywise conjugation followed by Frobenius rotation and the
    opposite braiding, unitarized.  Column mu holds the `morphism_vector`
    coordinates of the image of hom_basis(tau, rho sigma)[mu]; that basis is
    of real 0/1 matrices, so each element is its own entrywise conjugate."""
    rb, sb = cat.dual[rho], cat.dual[sigma]
    dom = ObjectExpr.word(tau)
    cod = ObjectExpr.word(rho, sigma)
    basis = hom_basis(cat, dom, cod)
    if not basis:
        return np.zeros((0, 0))
    pair_w = standard_pair(cat, cod)          # conj = (sigmabar rhobar)
    pair_t = standard_pair(cat, dom)          # conj = taubar
    id_c = identity(cat, pair_w.conj)
    eps = braiding(cat, ObjectExpr.word(sb), ObjectExpr.word(rb), "-")
    cols = []
    for t in basis:
        g = compose(tensor(id_c, t.adjoint()), pair_w.r)       # Hom(1, sb rb tau)
        rot0 = compose(
            tensor(id_c, pair_t.rbar.adjoint()),
            tensor(g, identity(cat, pair_t.conj)),
        )                                                       # Hom(taubar, sb rb)
        rot = compose(eps, rot0)                                # Hom(taubar, rb sb)
        cols.append(morphism_vector(rot))
    u, _, vh = np.linalg.svd(np.stack(cols, axis=1))
    return u @ vh


def canonical_qsystem(cat: CategoryData) -> tuple[CategoryData, QSystem]:
    """The canonical commutative Q-system R in C x C^opp with
    Theta = sum_rho (rho, rhobar) and d_R = dim(C)^(1/2)."""
    cached = getattr(cat, "_canonical_q", None)
    if cached is not None:
        return cached
    prod = opposite_product_category(cat)
    words = [(pair_label(a, cat.dual[a]),) for a in cat.labels]
    theta = ObjectExpr.from_words(words)
    d_r = float(np.sqrt(cat.global_dim))
    unit_idx = cat.labels.index(cat.unit)
    pu = pair_label(cat.unit, cat.unit)
    w_unit = Morphism(prod, ObjectExpr.unit(), ObjectExpr.word(pu), {pu: np.full((1, 1), np.sqrt(d_r), dtype=complex)})
    w = summand_matrix(prod, ObjectExpr.unit(), theta, {(unit_idx, 0): w_unit})
    n = len(cat.labels)
    parts = {}
    for it, tau in enumerate(cat.labels):
        for ir, rho in enumerate(cat.labels):
            for isg, sigma in enumerate(cat.labels):
                n_mult = cat.n(rho, sigma, tau)
                if n_mult == 0:
                    continue
                u_mat = _conj_hom_matrix(cat, rho, sigma, tau)
                pr, ps, pt = (
                    pair_label(rho, cat.dual[rho]),
                    pair_label(sigma, cat.dual[sigma]),
                    pair_label(tau, cat.dual[tau]),
                )
                col = u_mat.T.reshape(-1, 1)  # row mu * n2 + nu holds u_mat[nu, mu]
                coeff = np.sqrt(cat.dims[rho] * cat.dims[sigma] / cat.dims[tau]) / np.sqrt(d_r)
                cod = ObjectExpr.word(pr, ps)
                parts[(ir * n + isg, it)] = Morphism(prod, ObjectExpr.word(pt), cod, {pt: coeff * col})
    x = summand_matrix(prod, theta, theta @ theta, parts)
    q = QSystem(prod, theta, w, x)
    cat._canonical_q = (prod, q)
    return prod, q


def full_centre(cat: CategoryData, q: QSystem) -> tuple[CategoryData, ReducedQSystem]:
    """Z[A] = left centre of (A x 1) x+ R inside C x C^opp."""
    prod, qr = canonical_qsystem(cat)
    qa1 = embed_left(cat, prod, q)
    bp = braided_product(prod, qa1, qr, "+")
    return prod, centre_qsystem(prod, bp, "+")


def z_matrix(cat: CategoryData, q: QSystem) -> tuple[np.ndarray, dict]:
    """The modular invariant matrix: Z[rho, sigma] = multiplicity of
    (rho, sigmabar) in the full centre of the Q-system."""
    md = modular_data(cat)
    if not md.is_modular:
        raise NotModularError("Z-matrix requires a modular category")
    prod, rz = full_centre(cat, q)
    n = len(cat.labels)
    z = np.zeros((n, n), dtype=int)
    for word in rz.child.theta.summands:
        if len(word) != 1:
            raise RoundingError(f"full-centre object contains a non-simple word {word}")
        a, b = prod.label_pairs[word[0]]
        z[cat.labels.index(a), cat.labels.index(cat.dual[b])] += 1
    s, t = md.s_matrix, md.t_matrix
    res_s = float(np.abs(z @ s - s @ z).max())
    res_t = float(np.abs(z @ t - t @ z).max())
    info = {"s_commutator": res_s, "t_commutator": res_t, "z11": int(z[0, 0])}
    return z, info

