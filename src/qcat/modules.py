"""Modules and bimodules of Q-systems: validation, enumeration, tensor
products, traced intertwiners, and boundary condition classification."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category import CategoryData, modular_data
from .errors import (
    ConsistencyError,
    MismatchError,
    NonStandardizableError,
    NotModularError,
    ShapeError,
)
from .braided import _embed_morphism, _embed_obj, canonical_qsystem, full_centre
from .decompose import ReducedQSystem
from .frobenius import (
    AlgebraPresentation,
    QSystem,
    frobenius_conj,
    image_basis,
    trivial_qsystem_in,
)
from .morphisms import (
    Morphism,
    ObjectExpr,
    _shared_sectors,
    braiding,
    compose,
    hom_basis,
    identity,
    left_trace,
    morphism_vector,
    obj_dim,
    range_isometry,
    tensor,
    zero_morphism,
)


@dataclass
class Module:
    """An A-B bimodule (beta, m), m in Hom(beta, theta_A beta theta_B), over
    parents = (A, B).  A left A-module is an A-1 bimodule and a right
    B-module a 1-B bimodule, 1 the trivial Q-system.  `free_on` is rho when
    the module is the free module theta_A rho theta_B of `free_module`, and
    None for every other module."""

    beta: ObjectExpr
    m: Morphism
    parents: tuple
    label: str = ""
    free_on: ObjectExpr | None = None

    @property
    def cat(self) -> CategoryData:
        return self.m.cat

    @property
    def dim(self) -> float:
        return obj_dim(self.cat, self.beta)

    def as_json(self) -> dict:
        return {"label": self.label, "beta": self.beta.as_json(), "dim": self.dim}


@dataclass
class ModuleReport:
    unit: float
    representation: float
    standard: float
    e_projection: float
    ok: bool


def validate_module(cat: CategoryData, mod: Module) -> ModuleReport:
    qa, qb = mod.parents
    if mod.m.dom != mod.beta or mod.m.cod != qa.theta @ mod.beta @ qb.theta:
        raise ShapeError("module map must lie in Hom(beta, thetaA beta thetaB)")
    id_a, id_beta, id_b = (identity(cat, x) for x in (qa.theta, mod.beta, qb.theta))
    unit = (compose(tensor(tensor(qa.w.adjoint(), id_beta), qb.w.adjoint()), mod.m) - id_beta).max_abs()
    # the left and the right action alone
    m1 = compose(tensor(identity(cat, qa.theta @ mod.beta), qb.w.adjoint()), mod.m)
    m2 = compose(tensor(qa.w.adjoint(), identity(cat, mod.beta @ qb.theta)), mod.m)
    rep = np.max([
        (compose(tensor(id_a, m1), m1) - compose(tensor(qa.x, id_beta), m1)).max_abs(),
        (compose(tensor(m2, id_b), m2) - compose(tensor(id_beta, qb.x), m2)).max_abs(),
        (compose(tensor(id_a, m2), m1) - mod.m).max_abs(),
        (compose(tensor(m1, id_b), m2) - mod.m).max_abs(),
    ])
    d = qa.d * qb.d
    standard = (compose(mod.m.adjoint(), mod.m) - d * id_beta).max_abs()
    e = (1.0 / d) * compose(mod.m, mod.m.adjoint())
    e_proj = float(np.max([(compose(e, e) - e).max_abs(), (e - e.adjoint()).max_abs()]))
    ok = all(r < 1e2 * cat.tol for r in (unit, rep, standard, e_proj))
    return ModuleReport(unit=unit, representation=float(rep), standard=standard, e_projection=e_proj, ok=ok)


def free_module(cat: CategoryData, q, rho: ObjectExpr, side: str = "left") -> Module:
    """The free module theta_A rho theta_B with m = x_A (x) 1 (x) x_B over
    (q, 1), (1, q) or q = (qa, qb) for side left, right or bi.  It records
    rho as `free_on`, from which `module_end_algebra` reads its
    endomorphisms by Frobenius reciprocity."""
    if side == "left":
        parents = (q, trivial_qsystem_in(cat))
    elif side == "right":
        parents = (trivial_qsystem_in(cat), q)
    elif side == "bi":
        parents = tuple(q)
    else:
        raise ShapeError(f"unknown module side {side!r}")
    qa, qb = parents
    m = tensor(tensor(qa.x, identity(cat, rho)), qb.x)
    return Module(qa.theta @ rho @ qb.theta, m, parents, free_on=rho)


def _action_slot(mod: Module):
    """k -> 1 (x) k (x) 1: k in the module leg of the action of mod's Q-systems."""
    id_a, id_b = (identity(mod.cat, q.theta) for q in mod.parents)
    return lambda k: tensor(tensor(id_a, k), id_b)


def _require_same_qsystems(pairs, message: str) -> None:
    """MismatchError unless each pair holds the same Q-system twice: equal
    theta, with w and x equal within cat.tol."""
    for q1, q2 in pairs:
        tol = q1.cat.tol
        if not (q1.theta == q2.theta and (q1.w - q2.w).max_abs() < tol and (q1.x - q2.x).max_abs() < tol):
            raise MismatchError(message)


def _expectation(mod1: Module, mod2: Module):
    """E(f) = (d_A d_B)^-1 mod2.m* (1 (x) f (x) 1) mod1.m on Hom(beta1, beta2)
    for standard A-B bimodules: the conditional expectation onto the
    intertwiners.  Its range is Hom_{A-B}(mod1, mod2), and it fixes every
    intertwiner, since m* m = d_A d_B 1 (cf. the module-morphism projectors
    of Fuchs-Runkel-Schweigert); a module that is not standard raises
    NonStandardizableError."""
    _require_same_qsystems(zip(mod1.parents, mod2.parents), "modules must share their parent Q-systems")
    _require_standard(mod1)
    _require_standard(mod2)
    slot, m_star = _action_slot(mod1), mod2.m.adjoint()
    scale = 1.0 / (mod1.parents[0].d * mod1.parents[1].d)
    return lambda f: scale * compose(m_star, compose(slot(f), mod1.m))


def morphism_space(mod1: Module, mod2: Module) -> list[Morphism]:
    """An orthonormal basis (in `hom_basis` coordinates) of the A-B
    intertwiners from mod1 to mod2: the range of the expectation E."""
    return image_basis(mod1.cat, mod1.beta, mod2.beta, _expectation(mod1, mod2))


def _reciprocity_basis(rho: ObjectExpr, n: Module) -> list[Morphism]:
    """A basis of the A-B intertwiners from the free module F = theta_A rho
    theta_B to n: Phi_phi = n.m* (1 (x) phi (x) 1), phi over
    `hom_basis(rho, n.beta)`.  Frobenius reciprocity Hom_{A-B}(F, n) =
    Hom(rho, beta_n) makes phi -> Phi_phi a bijection, whose inverse is
    restriction along w_A (x) 1 (x) w_B; nothing is solved."""
    slot, m_star = _action_slot(n), n.m.adjoint()
    return [compose(m_star, slot(phi)) for phi in hom_basis(n.cat, rho, n.beta)]


def module_end_algebra(mod: Module) -> AlgebraPresentation:
    """The algebra of A-B intertwiners of mod with itself: the range of the
    expectation E (`morphism_space`).  For a free module F = theta_A rho
    theta_B it is the reciprocity basis, which is E's free-module case:
    E(phi (w_A* (x) 1 (x) w_B*)) = (d_A d_B)^-1 m* (1 (x) phi (x) 1) for phi
    in Hom(rho, F), and these images are already a basis of the range."""
    if mod.free_on is None:
        return AlgebraPresentation(morphism_space(mod, mod))
    return AlgebraPresentation(_reciprocity_basis(mod.free_on, mod))


def _cut_module(mod: Module, iso: Morphism, beta_i: ObjectExpr) -> Module:
    m = compose(_action_slot(mod)(iso.adjoint()), compose(mod.m, iso))
    return Module(beta_i, m, mod.parents, mod.label)


def _require_standard(mod: Module) -> Module:
    """mod, once m* m = d_A d_B 1 within 1e2 cat.tol: a module cut from a
    standard module, or a tensor product of standard bimodules, is standard."""
    d = mod.parents[0].d * mod.parents[1].d
    gap = (compose(mod.m.adjoint(), mod.m) - d * identity(mod.cat, mod.beta)).max_abs()
    if not gap < 1e2 * mod.cat.tol:
        raise NonStandardizableError(f"module map is not standard: |m* m - {d:g}| = {gap:g}")
    return mod


def _summands(mod: Module, seed: int | None = None) -> list[tuple[Module, Morphism]]:
    """Each irreducible summand of mod with its isometry s into mod.beta, an
    intertwiner; mod itself with the identity when End(mod) is one-dimensional."""
    alg = module_end_algebra(mod)
    if alg.dim == 1:
        return [(mod, identity(mod.cat, mod.beta))]
    out = []
    for p in alg.minimal_idempotents(seed):
        beta_i, iso = range_isometry(mod.cat, p)
        out.append((_require_standard(_cut_module(mod, iso, beta_i)), iso))
    return out


def decompose_module(mod: Module, seed: int | None = None) -> list[Module]:
    return [part for part, _ in _summands(mod, seed)]


def _reaches(rho: ObjectExpr, s: Morphism, r: Module) -> bool:
    """Whether a summand of the free module over rho, with isometry s into
    it, has a non-zero intertwiner to r: the compressed images Phi s of the
    reciprocity basis span those intertwiners."""
    return any(compose(phi, s).max_abs() >= 1e2 * r.cat.tol for phi in _reciprocity_basis(rho, r))


def enumerate_modules(cat: CategoryData, q, side: str = "left") -> list[Module]:
    """Irreducible left, right or bi (q = (qa, qb)) modules up to equivalence,
    from decomposing the free modules over every simple object; a summand is
    new unless it `_reaches` an earlier one."""
    reps: list[Module] = []
    for a in cat.labels:
        rho = ObjectExpr.word(a)
        for part, s in _summands(free_module(cat, q, rho, side)):
            if not any(_reaches(rho, s, r) for r in reps):
                part.label = f"m{len(reps)}[{a}]"
                reps.append(part)
    return reps


def enumerate_bimodules(cat: CategoryData, qa: QSystem, qb: QSystem) -> list[Module]:
    return enumerate_modules(cat, (qa, qb), "bi")


def bimodule_tensor(mod1: Module, mod2: Module) -> Module:
    """Tensor product over the middle Q-system of an A-B and a B-C bimodule.

    The two middle Q-systems must be equal: the same theta, with w and x
    equal within cat.tol."""
    cat = mod1.cat
    qa, qb = mod1.parents
    qb2, qc = mod2.parents
    _require_same_qsystems([(qb, qb2)], "middle Q-systems must coincide")
    mhat = compose(
        tensor(tensor(identity(cat, qa.theta @ mod1.beta), qb.r.adjoint()), identity(cat, mod2.beta @ qc.theta)),
        tensor(mod1.m, mod2.m),
    )
    p = (1.0 / qb.d) * compose(
        tensor(tensor(qa.w.adjoint(), identity(cat, mod1.beta @ mod2.beta)), qc.w.adjoint()), mhat
    )
    beta, s = range_isometry(cat, p)
    m12 = (1.0 / qb.d) * compose(
        tensor(tensor(identity(cat, qa.theta), s.adjoint()), identity(cat, qc.theta)), compose(mhat, s)
    )
    return _require_standard(Module(beta, m12, (qa, qc), f"{mod1.label}(x){mod2.label}"))


def d_intertwiner(cat: CategoryData, mod: Module) -> Morphism:
    """The beta-traced braided intertwiner of an A-B bimodule."""
    qa, qb = mod.parents
    beta = mod.beta
    t = compose(
        braiding(cat, qa.theta, beta, "+"),
        compose(tensor(identity(cat, qa.theta @ beta), qb.r.adjoint()), tensor(mod.m, identity(cat, qb.theta))),
    )
    return left_trace(cat, t, beta, qb.theta, qa.theta)


# ---- the boundary machinery ------------------------------------------


def r_lift(mod: Module, ra: QSystem, rb: QSystem) -> Module:
    """The R[m] bimodule over the braided products R[A] = (A x 1) x+ R and
    R[B] of the full centres (`ReducedQSystem.parent`): carry an A-B bimodule
    along the canonical commutative Q-system R, routing the spectator legs
    around it by the braiding."""
    cat = mod.cat
    prod, qr = canonical_qsystem(cat)
    qa, qb = mod.parents
    theta_a = _embed_obj(cat, prod, qa.theta)
    theta_b = _embed_obj(cat, prod, qb.theta)
    th = qr.theta
    if ra.cat is not prod or rb.cat is not prod or ra.theta != theta_a @ th or rb.theta != theta_b @ th:
        raise MismatchError("ra and rb must be the braided products R[A], R[B] of the module's parents")
    m_e = _embed_morphism(cat, prod, mod.m)
    beta_e = _embed_obj(cat, prod, mod.beta)
    x2 = compose(tensor(qr.x, identity(prod, th)), qr.x)
    # each routing step is composed as soon as it is built, so that no two steps are alive at once
    m_lift = tensor(m_e, x2)
    m_lift = compose(
        tensor(
            tensor(identity(prod, theta_a @ beta_e), braiding(prod, theta_b, th @ th, "+")),
            identity(prod, th),
        ),
        m_lift,
    )
    m_lift = compose(
        _whisker(tensor(identity(prod, theta_a), braiding(prod, beta_e, th, "+")), th, theta_b, th),
        m_lift,
    )
    return Module(beta_e @ th, m_lift, (ra, rb), f"R[{mod.label}]")


def _whisker(f: Morphism, *objects: ObjectExpr) -> Morphism:
    """f (x) 1_x1 (x) 1_x2 ..., each identity tensored on the right in turn,
    and that of a one-word object one letter at a time: on a right factor
    whose words have one letter each, `tensor` needs no F-move."""
    for x in objects:
        for y in [ObjectExpr.word(a) for a in x.summands[0]] if len(x.summands) == 1 else [x]:
            f = tensor(f, identity(f.cat, y))
    return f


def restrict_bimodule(prod: CategoryData, mod: Module, red_a: ReducedQSystem, red_b: ReducedQSystem) -> Module:
    """Restrict a bimodule over two parent Q-systems to intermediate ones cut
    out by the given reductions."""
    ra, rb = mod.parents
    scale = float(np.sqrt(ra.d * rb.d / (red_a.child.d * red_b.child.d)))
    m2 = scale * compose(
        tensor(
            tensor(red_a.isometry.adjoint(), identity(prod, mod.beta)),
            red_b.isometry.adjoint(),
        ),
        mod.m,
    )
    return Module(mod.beta, m2, (red_a.child, red_b.child), f"{mod.label}|Z")


def convolution(qa: QSystem, qb: QSystem, t1: Morphism, t2: Morphism) -> Morphism:
    """The convolution product on Hom(theta_B, theta_A) for commutative parents."""
    return compose(qa.x.adjoint(), compose(tensor(t1, t2), qb.x))


@dataclass
class BoundaryReport:
    bimodules: list
    idempotents: list
    smT: np.ndarray
    smT_columns: list
    c_matrix: np.ndarray
    residuals: dict
    cross_check: str
    pairings: np.ndarray


def boundary_conditions(cat: CategoryData, qa: QSystem, qb: QSystem) -> BoundaryReport:
    """Classify the boundary conditions between the full centres of two simple
    Q-systems: one central idempotent per irreducible A-B bimodule.

    The convolution algebra Hom(Z[B], Z[A]) has dimension #A-B bimodules
    (Fuchs-Runkel-Schweigert), and n non-zero idempotents that are orthogonal
    and sum to the unit in an algebra of dimension n are its minimal ones; a
    count, idempotency or completeness that fails raises ConsistencyError.
    When qb is qa, Z[A] is computed once."""
    if not modular_data(cat).is_modular:
        raise NotModularError("boundary classification requires a modular category")
    prod, red_a = full_centre(cat, qa)
    red_b = red_a if qb is qa else full_centre(cat, qb)[1]
    za, zb = red_a.child, red_b.child
    d_r = float(np.sqrt(cat.global_dim))
    bimods = enumerate_bimodules(cat, qa, qb)
    n = len(bimods)
    # the coordinates of Hom(Z[B], Z[A]), in `morphism_vector` order
    columns = [
        (c, i, j)
        for c, co, do in _shared_sectors(prod, zb.theta, za.theta)
        for i in range(co[-1])
        for j in range(do[-1])
    ]
    if n != len(columns):
        raise ConsistencyError(f"{n} A-B bimodules, but the convolution algebra has dimension {len(columns)}")
    idems = []
    coords = []
    for mod in bimods:
        lifted = r_lift(mod, red_a.parent, red_b.parent)
        restricted = restrict_bimodule(prod, lifted, red_a, red_b)
        d_rm = d_intertwiner(prod, restricted)
        coords.append(morphism_vector(d_rm))
        coeff = mod.dim / (qa.d ** 2 * qb.d ** 2 * d_r ** 2)
        idems.append(coeff * d_rm)
    # residuals of the idempotent system
    unit = compose(za.w, zb.w.adjoint())
    res_complete = (sum(idems[1:], idems[0]) - unit).max_abs()
    zero = zero_morphism(prod, zb.theta, za.theta)
    res_idem = float(np.max([
        (convolution(za, zb, ii, jj) - (ii if i == j else zero)).max_abs()
        for i, ii in enumerate(idems)
        for j, jj in enumerate(idems)
    ]))
    bound = 1e4 * cat.tol
    if any(ii.max_abs() <= bound for ii in idems):
        raise ConsistencyError("a boundary idempotent is zero")
    if not (res_idem <= bound and res_complete <= bound):
        raise ConsistencyError(f"boundary idempotents: idempotency {res_idem:g}, completeness {res_complete:g}")
    res_selfadj = max((frobenius_conj(za, zb, ii) - ii).max_abs() for ii in idems)
    # S_mT[c, i, j] = Tr(D (tb_j ta_i*)) / N = sqrt(d_c) D_c[i, j] / N, N = d_A d_B d_R^2
    big_n = qa.d * qb.d * d_r ** 2
    smT = np.sqrt([prod.dims[c] for c, _, _ in columns]) * np.array(coords) / big_n
    dims = np.array([mod.dim for mod in bimods])
    c_matrix = (qa.d * qb.d / dims)[:, None] * smT.conj()
    # Tr(D_j* D_i) = sum_c d_c tr(D_j,c* D_i,c) = N^2 (S_mT S_mT*)_ij
    gram = smT @ smT.conj().T
    pairings = big_n ** 2 * gram
    res_unitary = float(np.abs(gram - np.eye(n)).max())
    residuals = {
        "completeness": float(res_complete),
        "idempotency": float(res_idem),
        "selfadjointness": float(res_selfadj),
        "smT_unitarity": res_unitary,
    }
    return BoundaryReport(
        bimodules=bimods,
        idempotents=idems,
        smT=smT,
        smT_columns=[{"sector": c, "slot_a": i, "slot_b": j} for (c, i, j) in columns],
        c_matrix=c_matrix,
        residuals=residuals,
        cross_check="pass",
        pairings=pairings,
    )
