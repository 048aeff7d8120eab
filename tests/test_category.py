from __future__ import annotations

import cmath
import itertools
import json

import numpy as np
import pytest

from qcat.braided import canonical_qsystem, z_matrix
from qcat.category import (
    _admissible_tuples,
    _hexagon_residual,
    build_category,
    deligne_product,
    load_category,
    modular_data,
    pair_label,
    split_label,
    validate_category,
)
from qcat.errors import ParseError
from qcat.fixtures import ising_category, z2_category
from qcat.frobenius import trivial_qsystem_in


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


def test_broken_f_symbol_fails_pentagon():
    data = ising_category()
    for entry in data["F"]:
        if entry["abc_d"] == ["sig", "sig", "sig", "sig"]:
            entry["re"].reverse()  # swap rows: still unitary, breaks pentagon
    cat = build_category(data)
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


def reference_product_f(cat_l, cat_r, labels):
    """F-symbols of C x D entry by entry:
    F[(e,al,be),(f,mu,nu)] = F1[(e1,al1,be1),(f1,mu1,nu1)] * F2[(e2,al2,be2),(f2,mu2,nu2)],
    with a product multiplicity index al = al1 * n2 + al2 as in np.kron."""

    def n(x, y, z):
        (x1, x2), (y1, y2), (z1, z2) = split_label(x), split_label(y), split_label(z)
        return cat_l.n(x1, y1, z1) * cat_r.n(x2, y2, z2)

    def split_vector(vec, n_inner_r, n_outer_r):
        x, i, j = vec
        x1, x2 = split_label(x)
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
        (a1, a2), (b1, b2), (c1, c2), (d1, d2) = map(split_label, (la, lb, lc, ld))
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
    ref = reference_product_f(cat, cat, prod.labels)
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
    a, b = split_label(pair_label("sig", "eps"))
    assert (a, b) == ("sig", "eps")
    rep = validate_category(prod)
    assert rep.ok, rep.as_dict()
    z3 = gauged_z3()
    assert validate_category(z3).ok
    assert validate_category(deligne_product(z3, z3, reverse_right=True)).ok


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
    worst = max(itertools.product(cat.labels, repeat=4), key=lambda t: _hexagon_residual(cat, *t, "-"))
    assert rep.worst_hexagon == worst


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
