"""Projection-driven decompositions of Q-systems: central, irreducible,
intermediate, plus direct sums and reduced Q-system construction."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category import CategoryData
from .errors import (
    CategoryMismatchError,
    ConditionError,
    NormalizationError,
    NotProjectionError,
    NotSimpleError,
    ShapeError,
)
from .frobenius import (
    QSystem,
    _special_standard,
    frobenius_conj,
    hom0_algebra,
    left_endo_algebra,
)
from .morphisms import (
    Morphism,
    ObjectExpr,
    _spectra,
    compose,
    identity,
    obj_dim,
    range_isometry,
    summand_matrix,
    tensor,
)


@dataclass
class ReducedQSystem:
    parent: QSystem
    isometry: Morphism
    child: QSystem
    n_p_scalar: bool
    n_p_spectrum: list[float]


def _projection_residual(p: Morphism) -> float:
    return max((compose(p, p) - p).max_abs(), (p - p.adjoint()).max_abs())


def two_to_three_residual(q: QSystem, p: Morphism) -> float:
    """Residual of the compatible-projection relations
    (p x p) o x = (p x 1) o x o p = (1 x p) o x o p."""
    cat = q.cat
    idt = identity(cat, q.theta)
    a = compose(tensor(p, p), q.x)
    b = compose(tensor(p, idt), compose(q.x, p))
    c = compose(tensor(idt, p), compose(q.x, p))
    return max((a - b).max_abs(), (a - c).max_abs(), (b - c).max_abs())


def reduced_qsystem(
    cat: CategoryData,
    q: QSystem,
    p: Morphism,
    require_normalized: bool = True,
) -> ReducedQSystem:
    if _projection_residual(p) > 1e2 * cat.tol:
        raise NotProjectionError("p is not an orthogonal projection")
    res23 = two_to_three_residual(q, p)
    if res23 > 1e2 * cat.tol:
        raise ConditionError(f"compatibility relations violated: residual {res23:g}")
    theta_p, s = range_isometry(cat, p)
    w1 = compose(s.adjoint(), q.w)
    x1 = compose(tensor(s.adjoint(), s.adjoint()), compose(q.x, s))
    n_p = compose(x1.adjoint(), x1)
    spectrum = sorted(lam for _, vals, _ in _spectra(n_p) for lam in vals.tolist())
    scalar = bool(spectrum) and (spectrum[-1] - spectrum[0]) < 1e3 * cat.tol
    if require_normalized:
        dim_p = obj_dim(cat, theta_p)
        r = q.r
        norm_val = complex(compose(r.adjoint(), compose(tensor(p, p), r)).scalar())
        if abs(norm_val - dim_p) > 1e3 * cat.tol * max(1.0, dim_p):
            raise NormalizationError(
                f"trace normalization fails: r*(PxP)r = {norm_val:g}, dim = {dim_p:g}; "
                f"n_p spectrum {np.round(spectrum, 10).tolist()}"
            )
    child = _special_standard(QSystem(cat, theta_p, w1, x1), n_p)
    return ReducedQSystem(
        parent=q,
        isometry=s,
        child=child,
        n_p_scalar=scalar,
        n_p_spectrum=spectrum,
    )


def central_decomposition(
    cat: CategoryData, q: QSystem, seed: int | None = None
) -> list[tuple[Morphism, ReducedQSystem]]:
    """Split a Q-system into factor Q-systems along the minimal projections of
    its two-sided centre algebra."""
    alg = hom0_algebra(cat, q)
    return [(p, reduced_qsystem(cat, q, p)) for p in alg.minimal_idempotents(seed)]


def irreducible_decomposition(
    cat: CategoryData, q: QSystem, seed: int | None = None
) -> list[tuple[Morphism, Morphism, Morphism, ReducedQSystem]]:
    """Decompose a simple Q-system into irreducible sub-Q-systems via minimal
    projections p of the left module endomorphism algebra, their Frobenius
    conjugates pbar (`frobenius_conj`), and the compatible projections
    P = pbar p."""
    h0 = hom0_algebra(cat, q)
    if h0.dim != 1:
        raise NotSimpleError(f"Q-system is not simple: centre dimension {h0.dim}")
    alg = left_endo_algebra(cat, q)
    out = []
    for p in alg.minimal_idempotents(seed):
        pbar = frobenius_conj(q, q, p)
        big_p = compose(pbar, p)
        comm = (big_p - compose(p, pbar)).max_abs()
        if not (comm < 1e2 * cat.tol and _projection_residual(big_p) < 1e2 * cat.tol):
            raise ConditionError(f"pbar p is not a projection, or |pbar p - p pbar| = {comm:g}")
        out.append((p, pbar, big_p, reduced_qsystem(cat, q, big_p)))
    return out


def check_intermediate(cat: CategoryData, q: QSystem, p: Morphism) -> ReducedQSystem:
    """Verify that p cuts out an intermediate Q-system and build it: p must
    preserve the unit, p w = w; `reduced_qsystem` checks that p is a
    projection compatible with the multiplication."""
    if p.dom != q.theta or p.cod != q.theta:
        raise ShapeError(f"p must lie in Hom(theta, theta), not in Hom({p.dom.as_json()}, {p.cod.as_json()})")
    res_pw = (compose(p, q.w) - q.w).max_abs()
    if res_pw > 1e2 * cat.tol:
        raise ConditionError(f"unit preservation p w = w fails (residual {res_pw:g})")
    return reduced_qsystem(cat, q, p, require_normalized=False)


def direct_sum_qsystems(cat: CategoryData, parts: list[QSystem]) -> QSystem:
    """Direct sum of Q-systems: d^2 = sum d_i^2, with unit sum_i (d_i/d)^(1/2) w_i
    and multiplication sum_i (d/d_i)^(1/2) x_i over the summands."""
    if not parts:
        raise ShapeError("a direct sum needs at least one Q-system")
    for part in parts:
        if part.cat is not cat:
            raise CategoryMismatchError("all parts must live in the same category")
    if len(parts) == 1:
        return parts[0]
    theta = ObjectExpr(tuple(u for part in parts for u in part.theta.summands))
    d = float(np.sqrt(sum(part.d ** 2 for part in parts)))
    w = x = None
    off = 0
    for part in parts:
        words = part.theta.summands
        pieces = {(off + k, k): identity(cat, ObjectExpr((u,))) for k, u in enumerate(words)}
        s = summand_matrix(cat, part.theta, theta, pieces)  # the isometry of summand part into theta
        off += len(words)
        wi = np.sqrt(part.d / d) * compose(s, part.w)
        xi = np.sqrt(d / part.d) * compose(tensor(s, s), compose(part.x, s.adjoint()))
        w = wi if w is None else w + wi
        x = xi if x is None else x + xi
    return QSystem(cat, theta, w, x)
