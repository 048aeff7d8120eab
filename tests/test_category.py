from __future__ import annotations

import cmath
import copy
import itertools
import json

import numpy as np
import pytest

from qcat.braided import canonical_qsystem, centre_projections, opposite_product_category, z_matrix
from qcat.category import (
    CategoryData,
    _admissible_tuples,
    _derive,
    _f_row,
    _worst,
    build_category,
    deligne_product,
    load_category,
    modular_data,
    pair_label,
    validate_category,
)
from qcat.coherence import axiom_residuals
from qcat.errors import DataError, ParseError
from qcat.fixtures import ising_category, z2_category
from qcat.frobenius import ising_q, trivial_qsystem_in
from qcat.morphisms import ObjectExpr, braiding


def test_ising_validates(ising):
    rep = validate_category(ising)
    assert rep.ok
    assert rep.pentagon < 1e-9
    assert max(rep.hexagon_plus, rep.hexagon_minus) < 1e-9
    assert rep.f_unitarity < 1e-9
    assert rep.dim_residual < 1e-9


def test_z2_and_trivial_validate(z2, trivial):
    assert validate_category(z2).ok
    assert validate_category(trivial).ok


def broken_pentagon_ising():
    data = ising_category()
    for entry in data["F"]:
        if entry["abc_d"] == ["sig", "sig", "sig", "sig"]:
            entry["re"].reverse()  # swap rows: still unitary, breaks pentagon
    return build_category(data)


def test_broken_f_symbol_fails_pentagon():
    cat = broken_pentagon_ising()
    rep = validate_category(cat)
    assert not rep.ok
    assert rep.pentagon > 1e-3


def test_schema_errors():
    data = ising_category()
    del data["fusion"]
    with pytest.raises(ParseError):
        load_category(data)
    with pytest.raises(ParseError):
        load_category("{not json")


def test_unreadable_path_raises_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_category(str(tmp_path / "missing" / "cat.json"))
    with pytest.raises(ParseError):
        load_category(str(tmp_path))  # a directory


def test_path_with_a_brace_is_a_path(tmp_path, ising):
    path = tmp_path / "a{b}.json"
    text = json.dumps(ising_category())
    path.write_text(text, encoding="utf-8")
    assert load_category(str(path)).labels == ising.labels
    # JSON text may start with blanks
    assert load_category(" \n" + text).labels == ising.labels


def test_f_entry_in_listed_row_and_column_order(ising):
    data = ising_category()
    key = ("sig", "sig", "sig", "sig")
    (entry,) = [e for e in data["F"] if tuple(e["abc_d"]) == key]
    entry["re"] = [row[::-1] for row in entry["re"][::-1]]
    entry["im"] = [row[::-1] for row in entry["im"][::-1]]
    entry["rows"] = [["eps", 0, 0], ["1", 0, 0]]
    entry["cols"] = [["eps", 0, 0], ["1", 0, 0]]
    assert np.array_equal(build_category(data).f_symbols[key], ising.f_symbols[key])
    entry["rows"] = [["eps", 0, 0], ["eps", 0, 0]]
    with pytest.raises(ParseError):
        build_category(data)


def test_ising_dims_and_global_dim(ising):
    md = modular_data(ising)
    assert np.allclose(sorted(md.dims), [1.0, 1.0, np.sqrt(2.0)], atol=1e-9)
    assert abs(md.global_dim - 4.0) < 1e-9
    assert abs(ising.global_dim - 4.0) < 1e-9


def test_ising_twists_and_omega(ising):
    md = modular_data(ising)
    tw = dict(zip(md.labels, md.twists))
    assert abs(tw["1"] - 1.0) < 1e-9
    assert abs(tw["eps"] + 1.0) < 1e-9
    assert abs(tw["sig"] - np.exp(1j * np.pi / 8)) < 1e-9


def test_ising_s_matrix(ising, ising_s):
    md = modular_data(ising)
    order = [md.labels.index(a) for a in ("1", "eps", "sig")]
    s = md.s_matrix[np.ix_(order, order)]
    assert np.max(np.abs(s - ising_s)) < 1e-9


def test_modular_relations(ising):
    md = modular_data(ising)
    s, t, c = md.s_matrix, md.t_matrix, md.charge_conjugation
    n = len(md.labels)
    assert np.max(np.abs(s @ s.conj().T - np.eye(n))) < 1e-9
    st = s @ np.linalg.inv(t)
    assert np.max(np.abs(np.linalg.matrix_power(st, 3) - s @ s)) < 1e-9
    assert np.max(np.abs(np.linalg.matrix_power(s, 4) - np.eye(n))) < 1e-9
    assert np.max(np.abs(s @ s - c)) < 1e-9
    assert md.is_modular


def test_z2_not_modular(z2):
    md = modular_data(z2)
    assert not md.is_modular


def zn_data(n: int, gauge=lambda a, b: 1.0) -> dict:
    """Z_n pointed category: trivial F, R^{ab} = exp(2 pi i ab / n), in a vertex gauge.

    The vertex (a, b -> a + b) is rescaled by gauge(a, b) (1 on unit legs),
    so F^{abc}_d = u(a,b) u(a+b,c) / (u(b,c) u(a,b+c)) and
    R^{ab} = exp(2 pi i ab / n) u(a,b) / u(b,a).  Labels a and -a are dual,
    so only "0" is self-dual for odd n.
    """

    def u(a, b):
        return 1.0 if 0 in (a, b) else gauge(a, b)

    def entry(key_name, key, z):
        return {key_name: [str(x) for x in key], "re": [[z.real]], "im": [[z.imag]]}

    f_entries = [
        entry(
            "abc_d",
            (a, b, c, (a + b + c) % n),
            complex(u(a, b) * u((a + b) % n, c) / (u(b, c) * u(a, (b + c) % n))),
        )
        for a, b, c in itertools.product(range(1, n), repeat=3)
    ]
    r_entries = [
        entry("ab_c", (a, b, (a + b) % n), cmath.exp(2j * cmath.pi * a * b / n) * u(a, b) / u(b, a))
        for a, b in itertools.product(range(1, n), repeat=2)
    ]
    return {
        "labels": [str(a) for a in range(n)],
        "dual": {str(a): str(-a % n) for a in range(n)},
        "fusion": [[str(a), str(b), str((a + b) % n), 1] for a in range(n) for b in range(n)],
        "F": f_entries,
        "R": r_entries,
    }


def gauged_z3_data() -> dict:
    rng = np.random.default_rng(5)
    phase = {(a, b): cmath.exp(2j * cmath.pi * rng.random()) for a in range(1, 3) for b in range(1, 3)}
    return zn_data(3, lambda a, b: phase[(a, b)])


def gauged_z3():
    return build_category(gauged_z3_data())


def gauged_z5():
    rng = np.random.default_rng(7)
    phase = {(a, b): cmath.exp(2j * cmath.pi * rng.random()) for a in range(1, 5) for b in range(1, 5)}
    return build_category(zn_data(5, lambda a, b: phase[(a, b)]))


def scan_rows(cat, x, y, z, w):
    """Rows (e, alpha, beta) of F^{xyz}_w, scanning every label."""
    return [(e, i, j) for e in cat.labels for i in range(cat.n(x, y, e)) for j in range(cat.n(e, z, w))]


def scan_cols(cat, x, y, z, w):
    """Columns (f, mu, nu) of F^{xyz}_w, scanning every label."""
    return [(f, i, j) for f in cat.labels for i in range(cat.n(y, z, f)) for j in range(cat.n(x, f, w))]


def reference_product_f(cat_l, cat_r, prod):
    """F-symbols of C x D entry by entry:
    F[(e,al,be),(f,mu,nu)] = F1[(e1,al1,be1),(f1,mu1,nu1)] * F2[(e2,al2,be2),(f2,mu2,nu2)],
    with a product multiplicity index al = al1 * n2 + al2 as in np.kron.
    A product label's factors are read from `prod.label_pairs`."""
    labels, pairs = prod.labels, prod.label_pairs

    def n(x, y, z):
        (x1, x2), (y1, y2), (z1, z2) = pairs[x], pairs[y], pairs[z]
        return cat_l.n(x1, y1, z1) * cat_r.n(x2, y2, z2)

    def split_vector(vec, n_inner_r, n_outer_r):
        x, i, j = vec
        x1, x2 = pairs[x]
        i1, i2 = divmod(i, n_inner_r(x2))
        j1, j2 = divmod(j, n_outer_r(x2))
        return (x1, i1, j1), (x2, i2, j2)

    out = {}
    for la, lb, lc, ld in itertools.product(labels, repeat=4):
        if labels[0] in (la, lb, lc):
            continue
        rows = [(e, i, j) for e in labels for i in range(n(la, lb, e)) for j in range(n(e, lc, ld))]
        cols = [(f, i, j) for f in labels for i in range(n(lb, lc, f)) for j in range(n(la, f, ld))]
        if not rows or not cols:
            continue
        (a1, a2), (b1, b2), (c1, c2), (d1, d2) = (pairs[x] for x in (la, lb, lc, ld))
        f1 = cat_l.fmat(a1, b1, c1, d1)
        f2 = cat_r.fmat(a2, b2, c2, d2)
        rows1, cols1 = scan_rows(cat_l, a1, b1, c1, d1), scan_cols(cat_l, a1, b1, c1, d1)
        rows2, cols2 = scan_rows(cat_r, a2, b2, c2, d2), scan_cols(cat_r, a2, b2, c2, d2)
        mat = np.zeros((len(rows), len(cols)), dtype=complex)
        for ri, row in enumerate(rows):
            r1, r2 = split_vector(row, lambda e2: cat_r.n(a2, b2, e2), lambda e2: cat_r.n(e2, c2, d2))
            for ci, col in enumerate(cols):
                k1, k2 = split_vector(col, lambda f2: cat_r.n(b2, c2, f2), lambda f2: cat_r.n(a2, f2, d2))
                mat[ri, ci] = f1[rows1.index(r1), cols1.index(k1)] * f2[rows2.index(r2), cols2.index(k2)]
        out[(la, lb, lc, ld)] = mat
    return out


@pytest.mark.parametrize("factor", ["ising", "gauged_z3"])
def test_deligne_product_f_symbols_match_reference(factor, ising):
    cat = ising if factor == "ising" else gauged_z3()
    prod = deligne_product(cat, cat, reverse_right=True)
    assert set(prod.labels) == {pair_label(a, b) for a in cat.labels for b in cat.labels}
    ref = reference_product_f(cat, cat, prod)
    # the reference keys are the admissible tuples without a unit leg, in label order
    assert list(ref) == [t for t in _admissible_tuples(prod) if prod.unit not in t[:3]]
    for key, mat in ref.items():
        # one complex product per entry: agreement to a few ulp
        assert prod.fmat(*key).shape == mat.shape
        assert np.max(np.abs(prod.fmat(*key) - mat)) < 1e-14, key
    # the product kept exactly the F-symbols that were asked for
    assert list(prod.f_symbols) == list(ref)


def test_deligne_product_validates(ising):
    prod = deligne_product(ising, ising, reverse_right=True)
    assert len(prod.labels) == 9
    assert abs(prod.global_dim - 16.0) < 1e-9
    assert prod.label_pairs[pair_label("sig", "eps")] == ("sig", "eps")
    rep = validate_category(prod)
    assert rep.ok, rep.as_dict()
    z3 = gauged_z3()
    assert validate_category(z3).ok
    assert validate_category(deligne_product(z3, z3, reverse_right=True)).ok


def test_a_product_of_products_validates(z2):
    """A product label such as 1|g|1 reads its factors from the product,
    not by cutting the string at the first separator."""
    prod = deligne_product(deligne_product(z2, z2), z2)
    assert prod.label_pairs[pair_label(pair_label("1", "g"), "1")] == (pair_label("1", "g"), "1")
    assert validate_category(prod).ok


def test_the_opposite_product_of_a_product_validates(z2):
    assert validate_category(opposite_product_category(deligne_product(z2, z2))).ok


def test_z_matrix_of_a_product_is_the_identity():
    prod = deligne_product(gauged_z3(), gauged_z3())
    z, _ = z_matrix(prod, trivial_qsystem_in(prod))
    assert np.array_equal(z, np.eye(9, dtype=int))


def test_rank25_product_has_one_f_symbol_per_admissible_tuple():
    z5 = build_category(zn_data(5))
    prod = deligne_product(z5, z5, reverse_right=True)
    assert len(prod.labels) == 25
    admissible = [
        t
        for t in itertools.product(z5.labels, repeat=4)
        if any(z5.n(t[0], t[1], e) and z5.n(e, t[2], t[3]) for e in z5.labels)
    ]
    # a product leg is the unit exactly when both factor legs are
    expected = sum(
        1
        for t1 in admissible
        for t2 in admissible
        if not any(x1 == z5.unit and x2 == z5.unit for x1, x2 in zip(t1[:3], t2[:3]))
    )
    assert expected == 24**3
    # the tuples validate_category walks, less those with a unit leg (identities)
    walked = [t for t in _admissible_tuples(prod) if prod.unit not in t[:3]]
    assert len(walked) == expected
    for key in walked:
        prod.fmat(*key)
    assert len(prod.f_symbols) == expected


def test_deligne_product_computes_no_f_symbol(ising):
    prod = deligne_product(ising, ising, reverse_right=True)
    assert prod.f_symbols == {}
    key = tuple(pair_label("sig", "sig") for _ in range(4))
    mat = prod.fmat(*key)
    # computed once from the factors, then kept
    assert list(prod.f_symbols) == [key]
    assert prod.fmat(*key) is mat


def test_deligne_product_computes_no_r_symbol(ising, monkeypatch):
    import qcat.category as category

    def refuse(cat):
        raise AssertionError("a Perron-Frobenius solve on a product")

    monkeypatch.setattr(category, "_derive", refuse)
    prod = deligne_product(ising, ising, reverse_right=True)
    assert prod.r_symbols == {}
    key = (pair_label("sig", "sig"), pair_label("sig", "sig"), pair_label("eps", "1"))
    mat = prod.rmat(*key)
    # computed once from the factors, then kept
    assert list(prod.r_symbols) == [key]
    assert prod.rmat(*key) is mat


def test_product_dims_and_twists_are_read_off_the_factors(ising, z2):
    """d_a d_b and theta_a theta_b (conjugated on a reversed right factor)
    equal the Perron-Frobenius dims and the R-symbol twists of the product."""
    from test_morphisms import MULT2

    z3 = gauged_z3()
    for cat_l, cat_r, reverse in (
        (ising, ising, True),
        (z3, z3, True),
        (MULT2, z3, True),
        (MULT2, MULT2, False),
        (deligne_product(z2, z2), z2, False),
    ):
        prod = deligne_product(cat_l, cat_r, reverse_right=reverse)
        ref = copy.copy(prod)
        _derive(ref)
        assert list(prod.dims) == list(prod.twists) == list(ref.dims) == list(prod.labels)
        for l in prod.labels:
            assert abs(prod.dims[l] - ref.dims[l]) < 1e-12, l
            assert abs(prod.twists[l] - ref.twists[l]) < 1e-12, l


def test_product_of_a_non_unitary_factor_fails_f_unitarity():
    data = gauged_z3_data()
    data["F"][0]["re"] = [[2 * x for x in row] for row in data["F"][0]["re"]]
    data["F"][0]["im"] = [[2 * x for x in row] for row in data["F"][0]["im"]]
    z3 = build_category(data)
    rep = validate_category(deligne_product(z3, z3, reverse_right=True))
    assert not rep.ok
    assert rep.f_unitarity > z3.tol


def test_canonical_then_trivial_z_matrix_on_gauged_z5():
    z5 = gauged_z5()
    prod, qr = canonical_qsystem(z5)
    assert len(prod.labels) == 25
    z, _ = z_matrix(z5, trivial_qsystem_in(z5))
    assert np.array_equal(z, np.eye(5, dtype=int))


def test_worst_hexagon_follows_the_minus_hexagon():
    # a non-unitary vertex gauge keeps the + hexagon (gauge covariant) but
    # breaks the - hexagon, which uses R^dagger in place of R^{-1}
    cat = build_category(zn_data(3, lambda a, b: 2.0 if (a, b) == (1, 2) else 1.0))
    rep = validate_category(cat)
    assert rep.hexagon_plus < 1e-9
    assert rep.hexagon_minus > 1.0
    _, _, minus = batch_residuals(cat)
    worst = max(itertools.product(cat.labels, repeat=4), key=lambda t: reference_hexagon_residual(cat, *t, "-"))
    assert rep.worst_hexagon == worst == _admissible_tuples(cat)[int(np.argmax(minus))]


def test_product_r_symbols_are_kronecker_products(ising):
    from test_morphisms import MULT2

    z3 = gauged_z3()
    for cat_l, cat_r in ((ising, ising), (z3, z3), (MULT2, z3), (MULT2, MULT2)):
        prod = deligne_product(cat_l, cat_r, reverse_right=True)
        for la, lb, lc in prod.fusion:
            (a1, a2), (b1, b2), (c1, c2) = (prod.label_pairs[x] for x in (la, lb, lc))
            want = np.kron(cat_l.rmat(a1, b1, c1), cat_r.rmat(a2, b2, c2, "-"))
            assert np.array_equal(prod.rmat(la, lb, lc), want), (la, lb, lc)
    assert any(m.shape == (2, 2) for m in MULT2.r_symbols.values())


def test_product_braiding_reversed_on_right(ising):
    # the right factor of the product carries the opposite braiding:
    # its twist is conjugated relative to the left factor
    prod = deligne_product(ising, ising, reverse_right=True)
    md = modular_data(prod)
    tw = dict(zip(md.labels, md.twists))
    assert abs(tw[pair_label("sig", "1")] - np.exp(1j * np.pi / 8)) < 1e-9
    assert abs(tw[pair_label("1", "sig")] - np.exp(-1j * np.pi / 8)) < 1e-9


def test_nan_r_symbol_in_memory_fails_validation(ising):
    """Loading rejects non-finite entries, but a NaN that arises in memory
    must still make the report not ok."""
    from qcat.category import CategoryData

    r_symbols = dict(ising.r_symbols)
    r_symbols[("sig", "sig", "eps")] = np.full((1, 1), np.nan, dtype=complex)
    cat = CategoryData(
        labels=ising.labels,
        dual=ising.dual,
        fusion=ising.fusion,
        f_symbols=ising.f_symbols,
        r_symbols=r_symbols,
        dims=ising.dims,
        twists=ising.twists,
    )
    rep = validate_category(cat)
    assert rep.ok is False
    assert np.isnan(rep.r_unitarity)
    assert rep.worst_hexagon is not None


# ---- the pentagon and hexagon checks against their dense references ----------


def reference_pentagon_residual(cat: CategoryData, a: str, b: str, c: str, d: str) -> float:
    """Compare the two F-move paths ((ab)c)d -> a(b(cd)), summed over sectors.

    The dense-matrix check that the batched `_Kernel.pentagon` replaced, kept
    as its reference: five tree bases per sector, one F-move matrix per step.
    """
    fuse, n = cat.fuse, cat.n
    moves: dict[tuple[str, str, str, str], tuple] = {}

    def fmove(*key: str) -> tuple[np.ndarray, dict, list]:
        """F^{key}, the index of each of its rows, and its columns."""
        if key not in moves:
            rows = cat.f_rows(*key)
            moves[key] = (cat.fmat(*key), {t: i for i, t in enumerate(rows)}, cat.f_cols(*key))
        return moves[key]

    reached = {e for f, _ in fuse(a, b) for g, _ in fuse(f, c) for e, _ in fuse(g, d)}
    worst = 0.0
    for e in cat.labels:
        if e not in reached:
            continue
        b1 = [
            (f, al, g, be, ga)
            for f, n_abf in fuse(a, b)
            for al in range(n_abf)
            for g, n_fcg in fuse(f, c)
            for be in range(n_fcg)
            for ga in range(n(g, d, e))
        ]
        b2 = [
            (h, mu, g, nu, ga)
            for h, n_bch in fuse(b, c)
            for mu in range(n_bch)
            for g, n_ahg in fuse(a, h)
            for nu in range(n_ahg)
            for ga in range(n(g, d, e))
        ]
        b3 = [
            (h, mu, l, si, ta)
            for h, n_bch in fuse(b, c)
            for mu in range(n_bch)
            for l, n_hdl in fuse(h, d)
            for si in range(n_hdl)
            for ta in range(n(a, l, e))
        ]
        b4 = [
            (k, ka, l, lam, ta)
            for k, n_cdk in fuse(c, d)
            for ka in range(n_cdk)
            for l, n_bkl in fuse(b, k)
            for lam in range(n_bkl)
            for ta in range(n(a, l, e))
        ]
        b5 = [
            (f, al, k, ka, ta)
            for f, n_abf in fuse(a, b)
            for al in range(n_abf)
            for k, n_cdk in fuse(c, d)
            for ka in range(n_cdk)
            for ta in range(n(f, k, e))
        ]
        i2 = {t: i for i, t in enumerate(b2)}
        i3 = {t: i for i, t in enumerate(b3)}
        i4 = {t: i for i, t in enumerate(b4)}
        i5 = {t: i for i, t in enumerate(b5)}

        m12 = np.zeros((len(b2), len(b1)), dtype=complex)
        for j, (f, al, g, be, ga) in enumerate(b1):
            fm, ri, cols = fmove(a, b, c, g)
            row = fm[ri[(f, al, be)]]
            for ci, (h, mu, nu) in enumerate(cols):
                if row[ci]:
                    m12[i2[(h, mu, g, nu, ga)], j] += row[ci]
        m23 = np.zeros((len(b3), len(b2)), dtype=complex)
        for j, (h, mu, g, nu, ga) in enumerate(b2):
            fm, ri, cols = fmove(a, h, d, e)
            row = fm[ri[(g, nu, ga)]]
            for ci, (l, si, ta) in enumerate(cols):
                if row[ci]:
                    m23[i3[(h, mu, l, si, ta)], j] += row[ci]
        m34 = np.zeros((len(b4), len(b3)), dtype=complex)
        for j, (h, mu, l, si, ta) in enumerate(b3):
            fm, ri, cols = fmove(b, c, d, l)
            row = fm[ri[(h, mu, si)]]
            for ci, (k, ka, lam) in enumerate(cols):
                if row[ci]:
                    m34[i4[(k, ka, l, lam, ta)], j] += row[ci]
        m15 = np.zeros((len(b5), len(b1)), dtype=complex)
        for j, (f, al, g, be, ga) in enumerate(b1):
            fm, ri, cols = fmove(f, c, d, e)
            row = fm[ri[(g, be, ga)]]
            for ci, (k, ka, ta) in enumerate(cols):
                if row[ci]:
                    m15[i5[(f, al, k, ka, ta)], j] += row[ci]
        m54 = np.zeros((len(b4), len(b5)), dtype=complex)
        for j, (f, al, k, ka, ta) in enumerate(b5):
            fm, ri, cols = fmove(a, b, k, e)
            row = fm[ri[(f, al, ta)]]
            for ci, (l, lam, nu) in enumerate(cols):
                if row[ci]:
                    m54[i4[(k, ka, l, lam, nu)], j] += row[ci]
        res = np.max(np.abs(m34 @ m23 @ m12 - m54 @ m15)) if b4 else 0.0
        worst = max(worst, float(res))
    return worst


def reference_hexagon_residual(cat: CategoryData, c: str, a: str, b: str, d: str, sign: str) -> float:
    """Residual of the hexagon identity for braiding c over a then b, total d.

    Every basis on the two paths is the row or column basis of one of
    F^{cab}_d, F^{acb}_d, F^{abc}_d, so each F-move is its F-matrix transposed.
    The dense-matrix check that the batched `_Kernel.hexagon` replaced, kept
    as its reference.
    """

    def rb(x: str, y: str, z: str) -> np.ndarray:
        if sign == "+":
            return cat.rmat(x, y, z)
        return cat.rmat(y, x, z).conj().T

    start = cat.f_rows(c, a, b, d)
    end = cat.f_cols(a, b, c, d)
    if not start or not end:
        return 0.0
    mid1 = cat.f_rows(a, c, b, d)
    mid2 = cat.f_cols(a, c, b, d)
    mid3 = cat.f_cols(c, a, b, d)
    mid4 = cat.f_rows(a, b, c, d)

    def braid_first(src: list, dst: list, x: str, y: str) -> np.ndarray:
        """R^{xy}_e on the first vertex of each (e, alpha, beta) in src."""
        i_dst = {t: i for i, t in enumerate(dst)}
        out = np.zeros((len(dst), len(src)), dtype=complex)
        for j, (e, al, be) in enumerate(src):
            rm = rb(x, y, e)
            for alp in range(rm.shape[0]):
                if rm[alp, al]:
                    out[i_dst[(e, alp, be)], j] += rm[alp, al]
        return out

    # path 1: R^{ca}_e, then F^{acb}_d, then R^{cb}_g
    lhs = braid_first(mid2, end, c, b) @ cat.fmat(a, c, b, d).T @ braid_first(start, mid1, c, a)

    # path 2: F^{cab}_d, then R^{cf}_d, then F^{abc}_d
    i_m4 = {t: i for i, t in enumerate(mid4)}
    r3 = np.zeros((len(mid4), len(mid3)), dtype=complex)
    for j, (f, mu, nu) in enumerate(mid3):
        rm = rb(c, f, d)
        for nup in range(rm.shape[0]):
            if rm[nup, nu]:
                r3[i_m4[(f, mu, nup)], j] += rm[nup, nu]
    rhs = cat.fmat(a, b, c, d).T @ r3 @ cat.fmat(c, a, b, d).T
    return float(np.max(np.abs(lhs - rhs)))


def batch_residuals(cat: CategoryData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batched pentagon, + hexagon and - hexagon residual arrays of `cat`."""
    return axiom_residuals(cat, _admissible_tuples(cat))[1:]


def assert_batch_matches_the_reference(cat: CategoryData, res: tuple, quads) -> None:
    """The batch pentagon residual of each of `quads`, and both batch hexagon
    residuals of every admissible tuple, agree with the dense references."""
    pent, plus_all, minus_all = res
    n = len(cat.labels)
    index = {l: i for i, l in enumerate(cat.labels)}
    for quad in quads:
        at = int(np.ravel_multi_index([index[x] for x in quad], (n,) * 4))
        got, want = pent[at], reference_pentagon_residual(cat, *quad)
        assert abs(got - want) < 1e-12, (quad, got, want)
    for key, plus, minus in zip(_admissible_tuples(cat), plus_all, minus_all, strict=True):
        for sign, got in (("+", plus), ("-", minus)):
            want = reference_hexagon_residual(cat, *key, sign)
            assert abs(got - want) < 1e-12, (key, sign, got, want)


def vertex_gauge(cat: CategoryData, seed: int) -> CategoryData:
    """A multiplicity-free `cat` in a seeded unitary vertex gauge: every vertex
    (a, b -> c) with a and b away from the unit gets a phase u."""
    rng = np.random.default_rng(seed)
    u = {k: 1.0 if cat.unit in k[:2] else cmath.exp(2j * cmath.pi * rng.random()) for k in sorted(cat.fusion)}
    f_symbols = {}
    for (a, b, c, d), mat in cat.f_symbols.items():
        rows = [u[a, b, e] * u[e, c, d] for e, _, _ in cat.f_rows(a, b, c, d)]
        cols = [u[b, c, f] * u[a, f, d] for f, _, _ in cat.f_cols(a, b, c, d)]
        f_symbols[(a, b, c, d)] = mat * np.outer(rows, np.reciprocal(cols))
    r_symbols = {(a, b, c): mat * u[a, b, c] / u[b, a, c] for (a, b, c), mat in cat.r_symbols.items()}
    return CategoryData(cat.labels, cat.dual, cat.fusion, f_symbols, r_symbols, cat.dims, cat.twists)


def unit_gauged_ising_data(seed: int = 3) -> dict:
    """The Ising document in a seeded vertex gauge that moves the unit
    vertices too, with every F- and R-symbol listed: a gauge-equivalent
    presentation outside the canonical gauge, whose unit-leg F-symbols are
    phases and not 1."""
    cat = build_category(ising_category())
    rng = np.random.default_rng(seed)
    u = {k: cmath.exp(2j * cmath.pi * rng.random()) for k in sorted(cat.fusion)}
    f_entries, r_entries = [], []
    for a, b, c, d in _admissible_tuples(cat):
        rows = [u[a, b, e] * u[e, c, d] for e, _, _ in cat.f_rows(a, b, c, d)]
        cols = [u[b, c, f] * u[a, f, d] for f, _, _ in cat.f_cols(a, b, c, d)]
        mat = cat.fmat(a, b, c, d) * np.outer(rows, np.reciprocal(cols))
        f_entries.append({"abc_d": [a, b, c, d], "re": mat.real.tolist(), "im": mat.imag.tolist()})
    for a, b, c in sorted(cat.fusion):
        mat = cat.rmat(a, b, c) * u[a, b, c] / u[b, a, c]
        r_entries.append({"ab_c": [a, b, c], "re": mat.real.tolist(), "im": mat.imag.tolist()})
    return {**ising_category(), "F": f_entries, "R": r_entries}


def test_unit_leg_symbols_must_be_the_identity(ising):
    data = unit_gauged_ising_data()
    moved = [e["abc_d"] for e in data["F"] if "1" in e["abc_d"][:3] and e["re"] != [[1.0]]]
    assert len(moved) == 18  # every unit-leg F-symbol but F^{111}_1
    with pytest.raises(DataError, match=r"F\('1', '1', 'eps', 'eps'\) has a unit leg"):
        build_category(data)
    # a listed R-symbol with a unit leg is checked too
    data = ising_category()
    data["R"].append({"ab_c": ["sig", "1", "sig"], "re": [[0.0]], "im": [[1.0]]})
    with pytest.raises(DataError, match=r"R\('sig', '1', 'sig'\)"):
        build_category(data)
    # listed identities, within tol, still load
    data = ising_category()
    unit_legged = [k for k in _admissible_tuples(ising) if "1" in k[:3]]
    data["F"] += [{"abc_d": list(k), "re": [[1.0 + 1e-12]], "im": [[0.0]]} for k in unit_legged]
    data["R"] += [{"ab_c": ["1", a, a], "re": [[1.0]], "im": [[0.0]]} for a in ising.labels]
    assert validate_category(build_category(data)).ok


def test_rmat_rejects_a_sign_other_than_plus_or_minus(ising):
    sig = ObjectExpr.word("sig")
    for call in (
        lambda: ising.rmat("sig", "sig", "1", "left"),
        lambda: braiding(ising, sig, sig, "left"),
        lambda: centre_projections(ising, ising_q(ising), "left"),
    ):
        with pytest.raises(ValueError, match="'left'"):
            call()


def check_categories() -> dict:
    from test_morphisms import MULT2, _multiplicity_two_category

    z3 = gauged_z3()
    return {
        "gauged_ising": vertex_gauge(build_category(ising_category()), 11),
        "gauged_z3": z3,
        "mult2": MULT2,
        # its largest pentagon gap is on a tree with vertex index 1 at (g, d -> e)
        "mult2_seed18": _multiplicity_two_category(18),
        "z3xz3opp": deligne_product(z3, z3, reverse_right=True),
        # multiplicity 2 inside a product
        "mult2xz3opp": deligne_product(MULT2, z3, reverse_right=True),
        "non_unitary_z3": build_category(zn_data(3, lambda a, b: 2.0 if (a, b) == (1, 2) else 1.0)),
    }


@pytest.mark.parametrize(
    "name", ["gauged_ising", "gauged_z3", "mult2", "mult2_seed18", "z3xz3opp", "mult2xz3opp", "non_unitary_z3"]
)
def test_pentagon_and_hexagons_match_the_dense_reference(name):
    cat = check_categories()[name]
    assert name != "gauged_ising" or validate_category(cat).ok
    res = batch_residuals(cat)
    assert_batch_matches_the_reference(cat, res, itertools.product(cat.labels, repeat=4))


@pytest.mark.parametrize("name", ["gauged_z3", "mult2", "z3xz3opp"])
def test_f_move_table_is_fmat_row_by_row(name):
    cat = check_categories()[name]
    keys = _admissible_tuples(cat)
    mats = {key: cat.fmat(*key) for key in keys}
    kept = {k: v.copy() for k, v in cat.f_symbols.items()}
    for key in keys:
        cols = cat.f_cols(*key)
        for i, row in enumerate(cat.f_rows(*key)):
            assert list(_f_row(cat, key, row)) == list(zip(cols, mats[key][i])), (key, row)
    # the tables add no F-symbol and change none of those `fmat` keeps
    assert cat.f_symbols.keys() == kept.keys()
    assert all(np.array_equal(cat.f_symbols[k], v) for k, v in kept.items())
    assert all(cat.fmat(*key) is mat for key, mat in mats.items())


def test_worst_keeps_nan_and_inf():
    nan, inf = float("nan"), float("inf")
    for residuals in ([nan, 1.0, 2.0], [1.0, nan, 2.0], [1.0, 2.0, nan], [nan]):
        assert np.isnan(_worst(residuals)), residuals
    assert _worst([]) == 0.0
    assert _worst([1.0, inf, 2.0]) == inf
    assert _worst(x for x in (0.5, 3.0, 1.5)) == 3.0
    assert np.isnan(_worst(x for x in (0.5, nan, 1.5)))


def test_worst_pentagon_is_the_argmax():
    cat = broken_pentagon_ising()
    rep = validate_category(cat)
    assert rep.pentagon > 1e-3
    quads = list(itertools.product(cat.labels, repeat=4))
    pent, _, _ = batch_residuals(cat)
    worst = max(quads, key=lambda q: reference_pentagon_residual(cat, *q))
    assert rep.worst_pentagon == worst == quads[int(np.argmax(pent))]


def test_tied_worst_residuals_name_the_first_tuple_walked():
    """On MULT2 x gauged Z3^opp the worst pentagon and hexagon residuals are
    tied, up to rounding, on many tuples; the report names the first one walked."""
    cat = check_categories()["mult2xz3opp"]
    rep = validate_category(cat)
    pent, plus, minus = batch_residuals(cat)
    assert sum(r >= rep.pentagon - cat.tol for r in pent) > 1
    assert rep.worst_pentagon == ("x|0", "x|0", "x|0", "x|0")
    keys = _admissible_tuples(cat)
    hexes = np.maximum(plus, minus)
    worst = max(rep.hexagon_plus, rep.hexagon_minus)
    tied = [key for key, r in zip(keys, hexes) if r >= worst - cat.tol]
    assert len(tied) > 1
    assert rep.worst_hexagon == tied[0]


def test_nan_f_symbol_in_memory_fails_pentagon(ising):
    f_symbols = dict(ising.f_symbols)
    key = ("sig", "sig", "sig", "sig")
    f_symbols[key] = f_symbols[key].copy()
    f_symbols[key][0, 0] = np.nan
    cat = CategoryData(ising.labels, ising.dual, ising.fusion, f_symbols, ising.r_symbols, ising.dims, ising.twists)
    rep = validate_category(cat)
    assert rep.ok is False
    assert np.isnan(rep.pentagon)
    assert rep.worst_pentagon is not None


def test_nan_f_symbol_of_a_product_fails_pentagon():
    prod = deligne_product(gauged_z3(), gauged_z3(), reverse_right=True)
    key = next(t for t in _admissible_tuples(prod) if prod.unit not in t[:3])
    prod.fmat(*key)
    prod.f_symbols[key][0, 0] = np.nan
    rep = validate_category(prod)
    assert rep.ok is False
    assert np.isnan(rep.pentagon)
    assert rep.worst_pentagon in set(itertools.product(prod.labels, repeat=4))


def test_validation_gathers_each_f_symbol_once(monkeypatch):
    """One gather per admissible key without a unit leg; validation reads
    `fmat` and `rmat` afresh, and no F- or R-move table of `_f_row` or `_r_col`."""
    import qcat.category as category

    calls = []
    gather = category._product_fmat
    monkeypatch.setattr(category, "_product_fmat", lambda key, *rest: calls.append(key) or gather(key, *rest))
    prod = deligne_product(gauged_z3(), gauged_z3(), reverse_right=True)
    rep = validate_category(prod)
    assert rep.ok
    admissible = _admissible_tuples(prod)
    assert sorted(calls) == sorted(t for t in admissible if prod.unit not in t[:3])
    assert len(calls) == 512
    assert len(admissible) == 729

    def refuse(*args):
        raise AssertionError("validation reads a move table")

    monkeypatch.setattr(category, "_f_row", refuse)
    monkeypatch.setattr(category, "_r_col", refuse)
    assert validate_category(deligne_product(gauged_z3(), gauged_z3(), reverse_right=True)) == rep


# ---- the batched checks on broken data ----------------------------------------


@pytest.mark.filterwarnings("error")
def test_nan_r_symbol_of_a_product_fails_both_hexagons():
    prod = deligne_product(gauged_z3(), gauged_z3(), reverse_right=True)
    key = next(k for k in sorted(prod.fusion) if prod.unit not in k[:2])
    prod.r_symbols[key] = np.full_like(prod.rmat(*key), np.nan)
    rep = validate_category(prod)
    assert np.isnan(rep.hexagon_plus) and np.isnan(rep.hexagon_minus)
    assert rep.ok is False
    assert rep.worst_hexagon in set(_admissible_tuples(prod))
    assert rep.pentagon < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("inf", [complex(np.inf, 0.0), complex(0.0, -np.inf)])
def test_an_infinite_f_entry_never_validates(ising, inf):
    key = ("sig", "sig", "sig", "sig")
    for at in itertools.product(range(2), repeat=2):
        f_symbols = dict(ising.f_symbols)
        f_symbols[key] = f_symbols[key].copy()
        f_symbols[key][at] = inf
        cat = CategoryData(ising.labels, ising.dual, ising.fusion, f_symbols, ising.r_symbols, ising.dims, ising.twists)
        rep = validate_category(cat)
        assert rep.ok is False, at
        assert not rep.pentagon < cat.tol and not rep.f_unitarity < cat.tol, (at, rep)
        assert rep.worst_pentagon is not None


def test_an_f_symbol_of_the_wrong_shape_raises(ising):
    f_symbols = dict(ising.f_symbols)
    f_symbols[("sig", "sig", "sig", "sig")] = np.eye(1, dtype=complex)
    cat = CategoryData(ising.labels, ising.dual, ising.fusion, f_symbols, ising.r_symbols, ising.dims, ising.twists)
    with pytest.raises(DataError, match="shapes do not match"):
        validate_category(cat)


@pytest.mark.filterwarnings("error")
def test_a_perturbed_product_f_symbol_matches_the_reference():
    """One F entry of gauged Z3 x Z3^opp moved by 1e-6 in memory: the batch
    residuals agree with the dense references on every quadruple with a leg
    among that key's labels, and on every hexagon."""
    prod = deligne_product(gauged_z3(), gauged_z3(), reverse_right=True)
    key = next(t for t in _admissible_tuples(prod) if prod.unit not in t[:3])
    prod.f_symbols[key] = prod.fmat(*key) + 1e-6
    res = batch_residuals(prod)
    assert 1e-7 < np.max(res[0]) < 1e-5
    quads = [q for q in itertools.product(prod.labels, repeat=4) if set(q) & set(key)]
    assert_batch_matches_the_reference(prod, res, quads)
    assert validate_category(prod).ok is False
