"""Braided fusion category data: loading, validation, modular data, Deligne products.

A category is presented by simple labels, duals, fusion multiplicities
N_{ab}^c, F-symbols and R-symbols.  Conventions:

  |(ab)c; d; e,alpha,beta>  =  sum_{f,mu,nu} F^{abc}_d[(e,alpha,beta),(f,mu,nu)] |a(bc); d; f,mu,nu>
  braiding on a fusion channel:  |ab; c, mu>  ->  sum_nu R^{ab}_c[nu, mu] |ba; c, nu>

F-symbol rows (e,alpha,beta) run over e in label order, alpha < N_{ab}^e,
beta < N_{ec}^d; columns (f,mu,nu) over f in label order, mu < N_{bc}^f,
nu < N_{af}^d.  F- and R-symbols with a unit leg are the identity (canonical gauge).
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .coherence import axiom_residuals, unitarity_residuals
from .errors import (
    DataError,
    ParseError,
    SchemaError,
)

DEFAULT_TOL = 1e-9

PAIR_SEP = "|"


@dataclass
class CategoryData:
    labels: tuple[str, ...]
    dual: dict[str, str]
    fusion: dict[tuple[str, str, str], int]
    f_symbols: dict[tuple[str, str, str, str], np.ndarray]
    r_symbols: dict[tuple[str, str, str], np.ndarray]
    dims: dict[str, float] = field(default_factory=dict)
    twists: dict[str, complex] = field(default_factory=dict)
    tol: float = DEFAULT_TOL

    _adjacency: dict[tuple[str, str], tuple[tuple[str, int], ...]] = field(
        init=False, repr=False, compare=False
    )
    # per key, the F-move table `_f_row` builds once from `fmat`; F-symbols are fixed
    # once read: a table already built does not see an in-place edit of `f_symbols`
    _f_moves: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # per (key, sign), the R-move table `_r_col` builds once from `rmat`, fixed likewise
    _r_moves: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # a Deligne product's two factors and the right one's braiding sign, read by `fmat` and `rmat`
    _factors: tuple[CategoryData, CategoryData, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # a Deligne product's label -> (left, right) factor labels
    label_pairs: dict[str, tuple[str, str]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the fusion index behind `fuse`; `fusion` is fixed from here on
        order = {l: i for i, l in enumerate(self.labels)}
        adj: dict[tuple[str, str], list[tuple[str, int]]] = {}
        for (a, b, c), m in sorted(self.fusion.items(), key=lambda kv: order[kv[0][2]]):
            adj.setdefault((a, b), []).append((c, m))
        self._adjacency = {ab: tuple(cs) for ab, cs in adj.items()}

    @property
    def unit(self) -> str:
        return self.labels[0]

    def n(self, a: str, b: str, c: str) -> int:
        return self.fusion.get((a, b, c), 0)

    def fuse(self, a: str, b: str) -> tuple[tuple[str, int], ...]:
        """Simple sectors of a x b with multiplicities, in label order.

        Built once from `fusion`, this is the one fusion adjacency that the
        F-symbol bases (`f_rows`, `f_cols`) and the Deligne product walk.
        """
        return self._adjacency.get((a, b), ())

    def f_rows(self, a: str, b: str, c: str, d: str) -> list[tuple[str, int, int]]:
        return [
            (e, alpha, beta)
            for e, n_abe in self.fuse(a, b)
            for alpha in range(n_abe)
            for beta in range(self.n(e, c, d))
        ]

    def f_cols(self, a: str, b: str, c: str, d: str) -> list[tuple[str, int, int]]:
        return [
            (f, mu, nu)
            for f, n_bcf in self.fuse(b, c)
            for mu in range(n_bcf)
            for nu in range(self.n(a, f, d))
        ]

    def fmat(self, a: str, b: str, c: str, d: str) -> np.ndarray:
        """F^{abc}_d in the canonical row/column ordering; zeros, kept nowhere,
        when (ab)c -> d has no channel.  A unit-leg identity, and a Deligne
        product's Kronecker gather (`_product_fmat`), is built on first use and
        kept in `f_symbols`."""
        key = (a, b, c, d)
        if key in self.f_symbols:
            return self.f_symbols[key]
        if self._factors is not None and self.unit not in key[:3]:
            mat = _product_fmat(key, *self._factors[:2], self.label_pairs)
        else:
            rows, cols = self.f_rows(a, b, c, d), self.f_cols(a, b, c, d)
            if rows and cols and self.unit not in key[:3]:
                raise SchemaError(f"missing F-symbol for {key}")
            # canonical gauge: unit-leg F-moves are trivial; no channel, an empty matrix
            mat = np.eye(len(rows), len(cols), dtype=complex)
        if mat.size:
            self.f_symbols[key] = mat
        return mat

    def rmat(self, a: str, b: str, c: str, sign: str = "+") -> np.ndarray:
        """R^{ab}_c as an N_{ba}^c x N_{ab}^c matrix; for sign '-', the
        opposite braiding (R^{ba}_c)^dagger.  An R-symbol that a Deligne product
        computes from its factors is built on first use and kept in `r_symbols`."""
        if sign == "-":
            return self.rmat(b, a, c).conj().T
        if sign != "+":
            raise ValueError(f"braiding sign must be '+' or '-', not {sign!r}")
        key = (a, b, c)
        if key in self.r_symbols:
            return self.r_symbols[key]
        n_ab = self.n(a, b, c)
        n_ba = self.n(b, a, c)
        if n_ab == 0 or n_ba == 0:
            return np.zeros((n_ba, n_ab), dtype=complex)
        if self.unit in (a, b):
            return np.eye(n_ba, dtype=complex)
        if self._factors is None:
            raise SchemaError(f"missing R-symbol for {key}")
        cat_l, cat_r, sign_r = self._factors
        (a1, a2), (b1, b2), (c1, c2) = (self.label_pairs[x] for x in key)
        mat = self.r_symbols[key] = _kron(cat_l.rmat(a1, b1, c1), cat_r.rmat(a2, b2, c2, sign_r))
        return mat

    @property
    def global_dim(self) -> float:
        return sum(d * d for d in self.dims.values())


@dataclass
class ModularData:
    labels: tuple[str, ...]
    dims: np.ndarray
    global_dim: float
    twists: np.ndarray
    omega: complex
    s_matrix: np.ndarray
    t_matrix: np.ndarray
    charge_conjugation: np.ndarray
    is_modular: bool


@dataclass
class ValidationReport:
    ok: bool
    f_unitarity: float
    r_unitarity: float
    pentagon: float
    hexagon_plus: float
    hexagon_minus: float
    dim_residual: float
    worst_pentagon: tuple | None = None
    worst_hexagon: tuple | None = None


def _json_int(x) -> bool:
    """Whether x is a JSON integer: an int, not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _complex_array(entry: dict, nrow: int, ncol: int, what: str) -> np.ndarray:
    try:
        re = np.asarray(entry["re"], dtype=float)
        im = np.asarray(entry["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{what}: bad re/im entries: {exc}") from exc
    if re.shape != im.shape:
        raise ParseError(f"{what}: re/im shape mismatch")
    if re.size != nrow * ncol:
        raise ParseError(f"{what}: {re.size} entries, expected {nrow} x {ncol}")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ParseError(f"{what}: non-finite entries")
    return (re + 1j * im).reshape(nrow, ncol)


def _reorder(basis: list, given, what: str) -> list[int]:
    """Position in `given` of each canonical basis vector; `given` must be a permutation of `basis`."""
    try:
        pos = {tuple(t): i for i, t in enumerate(given)}
    except TypeError as exc:
        raise ParseError(f"{what}: bad basis listing: {exc}") from exc
    if len(pos) != len(basis) or any(t not in pos for t in basis):
        raise ParseError(f"{what}: basis listing is not a permutation of {basis}")
    return [pos[t] for t in basis]


def _entry_key(entry, name: str, labels: tuple[str, ...], size: int) -> tuple[str, ...]:
    """The labels an F (`abc_d`) or R (`ab_c`) entry is for; each must be known."""
    key = entry.get(name) if isinstance(entry, dict) else None
    if not isinstance(key, list) or len(key) != size or any(x not in labels for x in key):
        raise ParseError(f"bad {name} {key!r}: expected a list of {size} known labels")
    return tuple(key)


def build_category(data: dict) -> CategoryData:
    """Build CategoryData from a parsed category file dict."""
    if not isinstance(data, dict):
        raise ParseError("a category document must be a JSON object")
    try:
        labels, dual, fusion_list = data["labels"], data["dual"], data["fusion"]
    except KeyError as exc:
        raise ParseError(f"category file missing key: {exc}") from exc
    for name in ("labels", "fusion", "F", "R"):
        if not isinstance(data.get(name, []), list):
            raise ParseError(f"{name!r} must be a list")
    tol = data.get("tol", DEFAULT_TOL)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0.0 < tol < float("inf"):
        raise ParseError(f"tol must be a finite number > 0, not {tol!r}")
    if not labels:
        raise ParseError("empty label list")
    if not all(isinstance(l, str) for l in labels):
        raise ParseError("labels must be strings")
    for l in labels:
        if PAIR_SEP in l:  # the separator of product labels (pair_label)
            raise ParseError(f"label {l!r} contains {PAIR_SEP!r}, which only a product's labels may hold")
    if not isinstance(dual, dict):
        raise ParseError("dual must be an object mapping each label to its dual")
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate labels")
    unit = labels[0]
    ordered = [unit] + sorted(l for l in labels if l != unit)
    labels = tuple(ordered)
    for a in labels:
        if a not in dual or dual[a] not in labels:
            raise ParseError(f"bad dual entry for {a!r}")
    if len(dual) != len(labels):
        raise ParseError("dual maps a label that is not in labels")
    fusion: dict[tuple[str, str, str], int] = {}
    seen = set()
    for item in fusion_list:
        try:
            a, b, c, nn = item
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad fusion rule {item!r}: expected [a, b, c, N_ab^c]") from exc
        if a not in labels or b not in labels or c not in labels:
            raise ParseError(f"fusion rule references unknown label: {item}")
        if not _json_int(nn) or nn < 0:
            raise ParseError(f"bad fusion multiplicity in {item!r}: expected an integer >= 0")
        if (a, b, c) in seen:
            raise ParseError(f"fusion rule for {(a, b, c)} given twice")
        seen.add((a, b, c))
        if nn:
            fusion[(a, b, c)] = nn
    cat = CategoryData(
        labels=labels,
        dual=dual,
        fusion=fusion,
        f_symbols={},
        r_symbols={},
        tol=float(tol),
    )
    for entry in data.get("F", []):
        a, b, c, d = _entry_key(entry, "abc_d", labels, 4)
        if (a, b, c, d) in cat.f_symbols:
            raise ParseError(f"F{(a, b, c, d)} given twice")
        rows = cat.f_rows(a, b, c, d)
        cols = cat.f_cols(a, b, c, d)
        what = f"F{(a, b, c, d)}"
        mat = _complex_array(entry, len(rows), len(cols), what)
        if "rows" in entry:
            mat = mat[_reorder(rows, entry["rows"], what)]
        if "cols" in entry:
            mat = mat[:, _reorder(cols, entry["cols"], what)]
        cat.f_symbols[(a, b, c, d)] = mat
    for entry in data.get("R", []):
        a, b, c = _entry_key(entry, "ab_c", labels, 3)
        if (a, b, c) in cat.r_symbols:
            raise ParseError(f"R{(a, b, c)} given twice")
        mat = _complex_array(entry, cat.n(b, a, c), cat.n(a, b, c), f"R{(a, b, c)}")
        cat.r_symbols[(a, b, c)] = mat
    _check_schema(cat)
    _derive(cat)
    return cat


def load_category(source) -> CategoryData:
    """Load a category from a path, JSON string/bytes, file object, or parsed document.
    A string is JSON text if its first non-blank character is `{`, else a path."""
    if hasattr(source, "read"):
        source = source.read()
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        if isinstance(source, str) and not source.lstrip().startswith("{"):
            with open(source, "r", encoding="utf-8") as fh:
                source = fh.read()
        if isinstance(source, str):
            source = json.loads(source)
    except (OSError, ValueError) as exc:  # unreadable path, bad UTF-8 or bad JSON
        raise ParseError(f"cannot load a category: {exc}") from exc
    return build_category(source)


def _check_schema(cat: CategoryData) -> None:
    """Fusion laws on one int64 array N[a, b, c] = N_ab^c: unit and dual laws as
    array comparisons, associativity sum_e N_ab^e N_ec^d = sum_f N_bc^f N_af^d as
    two integer matrix products per a; a DataError names the first failing tuple, a before
    b (the unit laws at (a, b) before the dual law, a's involution after every b).
    Then the canonical gauge, and that every F and R the fusion rules demand resolves."""
    labels, n = cat.labels, len(cat.labels)
    idx = {l: i for i, l in enumerate(labels)}
    fus = np.zeros((n, n, n), dtype=np.int64)
    for (a, b, c), m in cat.fusion.items():
        fus[idx[a], idx[b], idx[c]] = m
    eye, dual = np.eye(n, dtype=np.int64), np.array([idx[cat.dual[a]] for a in labels])
    laws = np.stack([fus[0] != eye, fus[:, 0] != eye, fus[:, :, 0] != eye[dual]], axis=2).reshape(n, 3 * n)
    bad = np.flatnonzero(np.hstack([laws, (dual[dual] != np.arange(n))[:, None]]))
    if bad.size:
        a, j = np.unravel_index(bad[0], (n, 3 * n + 1))
        if j == 3 * n:
            raise DataError(f"dual is not an involution at {labels[a]}")
        b, law = divmod(j, 3)
        raise DataError(f"{'dual' if law == 2 else 'unit'} fusion law fails at ({labels[a]},{labels[b]})")
    for a in range(n):  # [b, c, d] of both sides, n^3 entries at a time
        bad = np.flatnonzero((fus[a] @ fus.reshape(n, n * n)).ravel() != (fus.reshape(n * n, n) @ fus[a]).ravel())
        if bad.size:
            b, c, d = (labels[i] for i in np.unravel_index(bad[0], (n,) * 3))
            raise DataError(f"fusion not associative at ({labels[a]},{b},{c};{d})")
    # canonical gauge: a listed F- or R-symbol with a unit leg is the identity
    listed = [(f"F{k}", m) for k, m in cat.f_symbols.items() if cat.unit in k[:3]]
    listed += [(f"R{k}", m) for k, m in cat.r_symbols.items() if cat.unit in k[:2]]
    for what, mat in listed:
        if not np.max(np.abs(mat - np.eye(len(mat))), initial=0.0) <= cat.tol:
            raise DataError(f"{what} has a unit leg and is not the identity (canonical gauge)")
    # every F/R demanded by the fusion rules must be resolvable
    for key in _admissible_tuples(cat):
        cat.fmat(*key)
    for a, b, c in cat.fusion:
        cat.rmat(a, b, c)


def _derive(cat: CategoryData) -> None:
    """Quantum dimensions (Perron-Frobenius) and twists of a presented category."""
    idx = {a: i for i, a in enumerate(cat.labels)}
    dims = {}
    for a in cat.labels:
        mat = np.zeros((len(cat.labels), len(cat.labels)))
        for b in cat.labels:
            for c, m in cat.fuse(a, b):
                mat[idx[c], idx[b]] = m
        dims[a] = float(np.max(np.abs(np.linalg.eigvals(mat))))
    cat.dims = dims
    twists = {}
    for a in cat.labels:
        acc = 0.0 + 0.0j
        for c, _ in cat.fuse(a, a):
            acc += dims[c] * np.trace(cat.rmat(a, a, c))
        twists[a] = complex(acc / dims[a])
    cat.twists = twists


def _unitarity_residual(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))))


def _f_row(cat: CategoryData, key: tuple[str, ...], row: tuple) -> tuple:
    """The F-move of one tree: row `row` of F^{key} as (column, coefficient)
    pairs, from a table built once per key."""
    table = cat._f_moves.get(key)
    if table is None:
        cols = cat.f_cols(*key)
        table = cat._f_moves[key] = {r: tuple(zip(cols, v)) for r, v in zip(cat.f_rows(*key), cat.fmat(*key).tolist())}
    return table[row]


def _r_col(cat: CategoryData, key: tuple[str, ...], sign: str, i: int) -> tuple:
    """The R-move of one vertex: column i of `rmat(*key, sign)` as (row,
    coefficient) pairs, from a table built once per key and sign."""
    table = cat._r_moves.get((key, sign))
    if table is None:
        table = cat._r_moves[key, sign] = [tuple(enumerate(col)) for col in cat.rmat(*key, sign).T.tolist()]
    return table[i]


def _worst(residuals) -> float:
    """The largest of the residuals, 0 if there are none; NaN if any is NaN."""
    if not isinstance(residuals, np.ndarray):
        residuals = np.fromiter(residuals, float)
    return float(np.max(residuals, initial=0.0))


def _admissible_tuples(cat: CategoryData) -> list[tuple[str, str, str, str]]:
    """Every (a, b, c, d) with a fusion channel (ab)c -> d, in label order."""
    order = {l: i for i, l in enumerate(cat.labels)}
    return [
        (a, b, c, d)
        for a, b, c in itertools.product(cat.labels, repeat=3)
        for d in sorted({d for e, _ in cat.fuse(a, b) for d, _ in cat.fuse(e, c)}, key=order.__getitem__)
    ]


def validate_category(cat: CategoryData) -> ValidationReport:
    """Unitarity, pentagon, hexagons and dims.  Unitarity is checked on F^{abc}_d
    for every admissible (a, b, c, d) through `fmat` and on R^{ab}_c for every
    fusion channel through `rmat`, so a product checks them all; each as one
    stacked product per matrix size (`unitarity_residuals`)."""
    labels = cat.labels
    admissible = _admissible_tuples(cat)
    f_all, pent_all, hexp_all, hexm_all = axiom_residuals(cat, admissible)
    f_res = _worst(f_all)
    rs = [cat.rmat(*channel) for channel in cat.fusion]
    r_res = _worst(unitarity_residuals(np.concatenate([r.ravel() for r in rs]), *np.array([r.shape for r in rs]).T))
    pent, hexp, hexm = _worst(pent_all), _worst(hexp_all), _worst(hexm_all)
    dim_res = _worst(
        abs(cat.dims[a] * cat.dims[b] - sum(m * cat.dims[c] for c, m in cat.fuse(a, b)))
        for a, b in itertools.product(labels, repeat=2)
    )
    ok = (
        f_res < cat.tol
        and r_res < cat.tol
        and pent < cat.tol
        and hexp < cat.tol
        and hexm < cat.tol
        and dim_res < cat.tol * 100
    )
    return ValidationReport(
        ok=ok,
        f_unitarity=f_res,
        r_unitarity=r_res,
        pentagon=pent,
        hexagon_plus=hexp,
        hexagon_minus=hexm,
        dim_residual=dim_res,
        worst_pentagon=_first_worst(
            pent_all, cat.tol, lambda i: tuple(labels[x] for x in np.unravel_index(i, (len(labels),) * 4))
        ),
        worst_hexagon=_first_worst(np.maximum(hexp_all, hexm_all), cat.tol, admissible.__getitem__),
    )


def _first_worst(residuals: np.ndarray, tol: float, key):
    """None when the worst residual is below tol; otherwise the `key` of the
    first index whose residual is NaN or within tol of the worst, so that
    residuals tied up to rounding name the same tuple on every platform."""
    worst = _worst(residuals)
    if worst < tol:
        return None
    return key(int(np.flatnonzero(np.isnan(residuals) | (residuals >= worst - tol))[0]))


def modular_data(cat: CategoryData) -> ModularData:
    labels = cat.labels
    n = len(labels)
    idx = {a: i for i, a in enumerate(labels)}
    d = np.array([cat.dims[a] for a in labels])
    kappa = np.array([cat.twists[a] for a in labels])
    big_d = float(np.sqrt(cat.global_dim))
    s = np.zeros((n, n), dtype=complex)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            acc = 0.0 + 0.0j
            abar = cat.dual[a]
            for c, m in cat.fuse(abar, b):
                k = idx[c]
                acc += m * d[k] * kappa[k] / (kappa[i] * kappa[j])
            s[i, j] = acc / big_d
    conj_perm = np.zeros((n, n))
    for i, a in enumerate(labels):
        conj_perm[idx[cat.dual[a]], i] = 1.0
    gauss = complex(np.sum(d * d / kappa) / big_d)
    omega = gauss ** (1.0 / 3.0)
    t = omega * np.diag(kappa)
    is_modular = _unitarity_residual(s) < max(cat.tol, 1e-9) * 100
    return ModularData(
        labels=labels,
        dims=d,
        global_dim=cat.global_dim,
        twists=kappa,
        omega=omega,
        s_matrix=s,
        t_matrix=t,
        charge_conjugation=conj_perm,
        is_modular=is_modular,
    )


def pair_label(a: str, b: str) -> str:
    return a + PAIR_SEP + b


def _kron(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """np.kron(m1, m2) of two matrices as an owning array, by broadcasting as
    in `tensor`'s Kronecker blocks: entry (i1 r2 + i2, j1 k2 + j2) is m1[i1, j1] m2[i2, j2]."""
    (r1, k1), (r2, k2) = m1.shape, m2.shape
    out = np.empty((r1 * r2, k1 * k2), dtype=complex)
    np.multiply(m1[:, None, :, None], m2[None, :, None, :], out=out.reshape(r1, r2, k1, k2))
    return out


def _kron_order(basis_l: list, basis_r: list, unit: str) -> list[int]:
    """The Kronecker position i_l * len(basis_r) + i_r of each pair of factor
    basis vectors (x_l, i_l', j_l'), (x_r, i_r', j_r'), in product-basis order:
    by product label x_l|x_r (unit first, then by name), then i_l', i_r',
    j_l', j_r', as a product multiplicity index is i = i_l' n_r + i_r'."""
    keyed = [
        ((x != unit, x, i_l, i_r, j_l, j_r), pos)
        for pos, ((x_l, i_l, j_l), (x_r, i_r, j_r)) in enumerate(itertools.product(basis_l, basis_r))
        for x in (pair_label(x_l, x_r),)
    ]
    return [pos for _, pos in sorted(keyed)]


def _product_fmat(key, cat_l: CategoryData, cat_r: CategoryData, pairs) -> np.ndarray:
    """F^{key} of C x D, for a key with no unit leg: the Kronecker product
    F1 (x) F2 of the factors' F-symbols, its rows and columns taken in
    product-basis order (`_kron_order`); a 1 x 1 or empty one needs no order.
    `pairs` maps a product label to its factor labels."""
    (a1, a2), (b1, b2), (c1, c2), (d1, d2) = (pairs[x] for x in key)
    mat = _kron(cat_l.fmat(a1, b1, c1, d1), cat_r.fmat(a2, b2, c2, d2))
    if mat.size <= 1:
        return mat
    unit = pair_label(cat_l.unit, cat_r.unit)
    rows = _kron_order(cat_l.f_rows(a1, b1, c1, d1), cat_r.f_rows(a2, b2, c2, d2), unit)
    cols = _kron_order(cat_l.f_cols(a1, b1, c1, d1), cat_r.f_cols(a2, b2, c2, d2), unit)
    return mat[np.ix_(rows, cols)]


def deligne_product(cat_l: CategoryData, cat_r: CategoryData, reverse_right: bool = False) -> CategoryData:
    """C x D (Deligne product); with reverse_right, D carries the opposite braiding.

    Every datum is read off the factors: `fmat` and `rmat` gather each F- and
    R-symbol on first use, dims are d_a d_b and twists theta_a theta_b, with
    theta_b conjugated when D is reversed.
    """
    pairs = {pair_label(a, b): (a, b) for a in cat_l.labels for b in cat_r.labels}
    dual = {l: pair_label(cat_l.dual[a], cat_r.dual[b]) for l, (a, b) in pairs.items()}
    unit = pair_label(cat_l.unit, cat_r.unit)
    labels = tuple([unit] + sorted(l for l in dual if l != unit))
    twists_r = {b: t.conjugate() if reverse_right else t for b, t in cat_r.twists.items()}
    prod = CategoryData(
        labels=labels,
        dual=dual,
        fusion={
            (pair_label(a1, b1), pair_label(a2, b2), pair_label(a3, b3)): m_l * m_r
            for (a1, a2, a3), m_l in cat_l.fusion.items()
            for (b1, b2, b3), m_r in cat_r.fusion.items()
        },
        f_symbols={},
        r_symbols={},
        dims={l: cat_l.dims[pairs[l][0]] * cat_r.dims[pairs[l][1]] for l in labels},
        twists={l: cat_l.twists[pairs[l][0]] * twists_r[pairs[l][1]] for l in labels},
        tol=max(cat_l.tol, cat_r.tol),
    )
    prod._factors = (cat_l, cat_r, "-" if reverse_right else "+")
    prod.label_pairs = pairs
    return prod
