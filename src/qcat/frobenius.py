"""Q-systems: axiom checks, normalization, commutativity, and the finite
dimensional algebras (centre, module endomorphisms) attached to them.

A category has one tolerance, `cat.tol`; every check here reads it."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category import CategoryData
from .errors import (
    CategoryMismatchError,
    NonStandardizableError,
    NotFrobeniusError,
    ParseError,
    ShapeError,
)
from .morphisms import (
    Morphism,
    ObjectExpr,
    _check_labels,
    _spectra,
    braiding,
    compose,
    endo_power,
    engine,
    hom_basis,
    identity,
    morphism_from_json,
    morphism_from_vector,
    morphism_vector,
    obj_dim,
    random_morphism,
    tensor,
)

DEFAULT_SEED = 0xC0FFEE
# eigenvalues of a random self-adjoint element closer than this are one cluster
CLUSTER_TOL = 1e-6


@dataclass
class QSystem:
    cat: CategoryData
    theta: ObjectExpr
    w: Morphism
    x: Morphism

    @property
    def d(self) -> float:
        return float(np.sqrt(obj_dim(self.cat, self.theta)))

    @property
    def r(self) -> Morphism:
        """The canonical self-conjugate pair vector r = x o w in Hom(1, theta^2)."""
        return compose(self.x, self.w)


@dataclass
class AxiomReport:
    unit: float
    associativity: float
    frobenius: float
    special: float
    standard_w: float
    standard_x: float
    d: float
    ok: bool


def _check_shapes(q: QSystem) -> None:
    if q.w.dom != ObjectExpr.unit() or q.w.cod != q.theta:
        raise ShapeError("w must lie in Hom(1, theta)")
    if q.x.dom != q.theta or q.x.cod != q.theta @ q.theta:
        raise ShapeError("x must lie in Hom(theta, theta^2)")


def check_qsystem(cat: CategoryData, q: QSystem) -> AxiomReport:
    _check_shapes(q)
    theta = q.theta
    idt = identity(cat, theta)
    w, x = q.w, q.x
    unit_l = (compose(tensor(w.adjoint(), idt), x) - idt).max_abs()
    unit_r = (compose(tensor(idt, w.adjoint()), x) - idt).max_abs()
    asso = (compose(tensor(x, idt), x) - compose(tensor(idt, x), x)).max_abs()
    xxs = compose(x, x.adjoint())
    frob_l = (compose(tensor(idt, x.adjoint()), tensor(x, idt)) - xxs).max_abs()
    frob_r = (compose(tensor(x.adjoint(), idt), tensor(idt, x)) - xxs).max_abs()
    n = compose(x.adjoint(), x)
    lam = _mean_eigen(n)
    special = (n - lam * idt).max_abs()
    d = q.d
    residuals = {
        "unit": float(np.maximum(unit_l, unit_r)),
        "associativity": asso,
        "frobenius": float(np.maximum(frob_l, frob_r)),
        "special": special,
        "standard_w": abs(complex(compose(w.adjoint(), w).scalar()) - d),
        "standard_x": (n - d * idt).max_abs(),
    }
    # every residual below cat.tol; a NaN residual fails
    return AxiomReport(**residuals, d=d, ok=all(r < cat.tol for r in residuals.values()))


def _mean_eigen(f: Morphism) -> complex:
    num = sum((np.trace(b) for b in f.blocks.values()), 0.0 + 0.0j)
    total = sum(offs[-1] for offs in engine(f.cat).sectors(f.dom).values())
    return num / total if total else 0.0


def check_commutative(cat: CategoryData, q: QSystem, sign: str = "+") -> tuple[bool, float]:
    eps = braiding(cat, q.theta, q.theta, sign)
    res = (compose(eps, q.x) - q.x).max_abs()
    return res < cat.tol, float(res)


def frobenius_conj(qa: QSystem, qb: QSystem, t: Morphism) -> Morphism:
    """The antilinear Frobenius conjugation on Hom(theta_B, theta_A):
    t -> (r_B* (x) 1) (1 (x) t* (x) 1) (1 (x) r_A), the rotation of t* by
    the standard solutions r = x w of the conjugate equations."""
    ida = identity(qa.cat, qa.theta)
    idb = identity(qa.cat, qb.theta)
    return compose(
        tensor(qb.r.adjoint(), ida),
        compose(tensor(idb, tensor(t.adjoint(), ida)), tensor(idb, qa.r)),
    )


def _special_standard(q: QSystem, n: Morphism) -> QSystem:
    """The n-deformation of a Frobenius triple by a positive n:
    w -> dim^(-1/4) n^(1/2) w and x -> dim^(1/4) (n^(-1/2) (x) n^(-1/2)) x n^(1/2).
    The result has x* x = d when x* (n^-1 (x) n^-1) x = n^-1;
    `make_special_standard` takes n = x* x, and `decompose.reduced_qsystem`
    takes n = n_P."""
    n_half = endo_power(n, 0.5)
    n_mhalf = endo_power(n, -0.5)
    dim = obj_dim(q.cat, q.theta)
    w = dim ** (-0.25) * compose(n_half, q.w)
    x = dim ** (0.25) * compose(tensor(n_mhalf, n_mhalf), compose(q.x, n_half))
    return QSystem(q.cat, q.theta, w, x)


def make_special_standard(cat: CategoryData, q: QSystem) -> QSystem:
    """Normalize a C* Frobenius triple to the special standard form."""
    bound = 1e2 * cat.tol
    rep = check_qsystem(cat, q)
    if max(rep.unit, rep.associativity, rep.frobenius) > bound:
        raise NotFrobeniusError("triple is not a C* Frobenius algebra")
    out = _special_standard(q, compose(q.x.adjoint(), q.x))
    rep2 = check_qsystem(cat, out)
    if rep2.special > bound:
        raise NonStandardizableError("specialness cannot be reached by the n-deformation")
    if rep2.standard_w > bound or rep2.standard_x > bound:
        raise NonStandardizableError(
            f"standardness norms mismatch: w {rep2.standard_w}, x {rep2.standard_x}"
        )
    return out


# ---- linear maps on morphism spaces ---------------------------------


def _condition_matrix(basis: list[Morphism], conditions) -> np.ndarray:
    """Column j stacks the coordinates (`morphism_vector`) of cond(basis[j])
    over the conditions; one zero row if the conditions have no coordinates."""
    cols = []
    for b in basis:
        parts = [morphism_vector(cond(b)) for cond in conditions]
        cols.append(np.concatenate(parts) if parts else np.zeros(0, dtype=complex))
    if not cols[0].size:
        return np.zeros((1, len(basis)), dtype=complex)
    return np.stack(cols, axis=1)


def image_basis(cat: CategoryData, dom: ObjectExpr, cod: ObjectExpr, linear) -> list[Morphism]:
    """Orthonormal basis of the range of a linear map of Hom(dom, cod) into
    itself, from one SVD of the coordinates of its images of `hom_basis`."""
    basis = hom_basis(cat, dom, cod)
    if not basis:
        return []
    u, s, _ = np.linalg.svd(_condition_matrix(basis, [linear]))
    # singular values at most max(tol, 1e-10 s_max) count as zero
    rank = int(np.sum(s > max(cat.tol, 1e-10 * s[0])))
    return [morphism_from_vector(cat, dom, cod, v) for v in u[:, :rank].T]


# ---- finite dimensional algebras -------------------------------------


@dataclass
class AlgebraPresentation:
    """A finite dimensional C*-algebra: the span of `basis`, under `compose`
    and the adjoint.  The span must be a *-closed algebra of endomorphisms
    of one object that holds its identity."""

    basis: list

    @property
    def dim(self) -> int:
        return len(self.basis)

    def minimal_idempotents(self, seed: int | None = None) -> list[Morphism]:
        """The minimal projections, as the spectral projections of one seeded
        random self-adjoint element h = a + a* (seed None: DEFAULT_SEED).

        The span is a sum of full matrix algebras; a generic h has a simple
        spectrum on each, with values distinct across them, and its spectral
        projections lie in the span by functional calculus."""
        rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
        coeffs = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        a = sum((c * b for c, b in zip(coeffs[1:], self.basis[1:])), coeffs[0] * self.basis[0])
        h = a + a.adjoint()
        # (eigenvalue, sector, eigenvector) over every sector of the object
        spectrum = [(lam, c, vecs[:, k]) for c, vals, vecs in _spectra(h) for k, lam in enumerate(vals)]
        spectrum.sort(key=lambda t: -t[0])
        # one projection per cluster of eigenvalues, in descending order
        out: list[dict] = []
        top = None
        for lam, c, v in spectrum:
            if top is None or top - lam >= CLUSTER_TOL:
                top = lam
                out.append({})
            out[-1][c] = out[-1].get(c, 0) + np.outer(v, v.conj())
        return [Morphism(h.cat, h.dom, h.dom, blocks) for blocks in out]


def _right_multiplication(q: QSystem, phi: Morphism) -> Morphism:
    """R_phi = x* (1 (x) phi), phi in Hom(1, theta): by Frobenius
    reciprocity, phi -> R_phi is a bijection of Hom(1, theta) onto End_A(A),
    whose inverse is t -> t w."""
    return compose(q.x.adjoint(), tensor(identity(q.cat, q.theta), phi))


def hom0_algebra(cat: CategoryData, q: QSystem) -> AlgebraPresentation:
    """The algebra {t in Hom(theta,theta): (1 x t) x = x t = (t x 1) x}: the
    right multiplications R_phi by the central phi, which are the range of
    P(phi) = x* (R_phi x 1) r on Hom(1, theta).  P is the conditional
    expectation of A as an A-A bimodule, read through reciprocity; in M_n it
    is phi -> sum_ij e_ij phi e_ji, and it fixes a central phi up to the
    factor d, since x* x = d."""
    idt = identity(cat, q.theta)
    r = q.r
    average = lambda phi: compose(q.x.adjoint(), compose(tensor(_right_multiplication(q, phi), idt), r))
    centre = image_basis(cat, ObjectExpr.unit(), q.theta, average)
    return AlgebraPresentation([_right_multiplication(q, phi) for phi in centre])


def left_endo_algebra(cat: CategoryData, q: QSystem) -> AlgebraPresentation:
    """The algebra {t in Hom(theta,theta): (1 x t) x = x t} of left module
    endomorphisms of the Q-system over itself: its right multiplications."""
    return AlgebraPresentation([_right_multiplication(q, phi) for phi in hom_basis(cat, ObjectExpr.unit(), q.theta)])


# ---- constructors ----------------------------------------------------


def trivial_qsystem_in(cat: CategoryData) -> QSystem:
    u = ObjectExpr.unit()
    return QSystem(cat, u, identity(cat, u), identity(cat, u))


def matrix_qsystem(cat: CategoryData, iota: ObjectExpr) -> QSystem:
    """The full matrix algebra Q-system of an object: theta = iota (x) conj(iota),
    w = rbar_iota, x = 1 x r_iota x 1."""
    from .morphisms import standard_pair

    pair = standard_pair(cat, iota)
    theta = iota @ pair.conj
    w = pair.rbar
    x = tensor(tensor(identity(cat, iota), pair.r), identity(cat, pair.conj))
    return QSystem(cat, theta, w, x)


def ising_q(cat: CategoryData) -> QSystem:
    """The matrix Q-system of the label `sig`, which the category must have."""
    if "sig" not in cat.labels:
        raise ParseError(f"the ising_q builder needs a label 'sig', and the category has {list(cat.labels)!r}")
    return matrix_qsystem(cat, ObjectExpr.word("sig"))


# name -> builder(cat): the builtin Q-systems of `qcat` Q-system arguments
# and of builder documents {"builder": name}.
QSYSTEM_BUILDERS = {
    "trivial": trivial_qsystem_in,
    "trivial_q": trivial_qsystem_in,
    "ising": ising_q,
    "ising_q": ising_q,
}


def qsystem_as_json(q: QSystem, category_ref: str = "") -> dict:
    return {
        "category_ref": category_ref,
        "theta": q.theta.as_json(),
        "w": q.w.as_json(),
        "x": q.x.as_json(),
    }


def qsystem_from_json(cat: CategoryData, data: dict) -> QSystem:
    if not isinstance(data, dict):
        raise ParseError(f"a Q-system document must be a JSON object, not {type(data).__name__}")
    builder = data.get("builder")
    if builder is not None:
        if not isinstance(builder, str) or builder not in QSYSTEM_BUILDERS:
            raise ParseError(f"unknown Q-system builder {builder!r}; known: {', '.join(QSYSTEM_BUILDERS)}")
        return QSYSTEM_BUILDERS[builder](cat)
    try:
        theta, w_data, x_data = data["theta"], data["w"], data["x"]
    except KeyError as exc:
        raise ParseError(f"bad Q-system document: {exc!r}") from exc
    _check_labels(cat, (theta,))
    theta = ObjectExpr.from_words(theta)
    if theta.is_zero:
        raise ParseError("bad Q-system document: theta is the zero object")
    return QSystem(cat, theta, morphism_from_json(cat, w_data), morphism_from_json(cat, x_data))


def qsystems_equivalent(cat: CategoryData, q1: QSystem, q2: QSystem) -> bool:
    """Unitary equivalence: u theta1 -> theta2 with u w1 = w2, (u x u) x1 u* = x2.

    Newton steps on F(u) = (u x u) x1 - x2 u with the full Jacobian, under
    u w1 = w2, each polished to a unitary, from up to 8 seeded random
    unitary starts of at most 25 steps each; accepted at 10 x cat.tol residual.
    """
    if q1.cat is not cat or q2.cat is not cat:
        raise CategoryMismatchError("both Q-systems must live in the given category")
    sectors1, sectors2 = (engine(cat).sectors(q.theta) for q in (q1, q2))
    if {c: o[-1] for c, o in sectors1.items()} != {c: o[-1] for c, o in sectors2.items()}:
        return False
    basis = hom_basis(cat, q1.theta, q2.theta)
    if not basis:
        return q1.theta.is_zero and q2.theta.is_zero
    conds = [
        lambda u: compose(u, q1.w) - q2.w,
        lambda u: compose(tensor(u, u), q1.x) - compose(q2.x, u),
    ]
    # a Newton step solves DF(u)[b - u] = -F(u) for b:
    # (b x u + u x b) x1 - x2 b = (u x u) x1, with b w1 = w2
    rng = np.random.default_rng(DEFAULT_SEED)
    for _attempt in range(8):
        u = _polish_unitary(random_morphism(cat, q1.theta, q2.theta, rng))
        for _ in range(25):
            if max((cond(u)).max_abs() for cond in conds) < 10 * cat.tol:
                return True
            linear = [
                lambda b: compose(b, q1.w),
                lambda b: compose(tensor(b, u) + tensor(u, b), q1.x) - compose(q2.x, b),
            ]
            rhs = np.concatenate([morphism_vector(q2.w), morphism_vector(compose(tensor(u, u), q1.x))])
            sol, *_ = np.linalg.lstsq(_condition_matrix(basis, linear), rhs, rcond=None)
            u = _polish_unitary(morphism_from_vector(cat, q1.theta, q2.theta, sol))
        if max((cond(u)).max_abs() for cond in conds) < 10 * cat.tol:
            return True
    return False


def _polish_unitary(f: Morphism) -> Morphism:
    """The nearest unitary, block by block; every block is square and
    nonempty, as u is polished only between objects of equal sector dims."""
    blocks = {}
    for c, b in f.blocks.items():
        uu, _, vvh = np.linalg.svd(b)
        blocks[c] = uu @ vvh
    return Morphism(f.cat, f.dom, f.cod, blocks)
