from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest

from qcat.braided import canonical_qsystem
from qcat.category import build_category, deligne_product, load_category
from qcat.errors import ConjugacyError, ParseError, ShapeError, UnknownLabelError
from qcat.fixtures import ising_category
from qcat.frobenius import ising_q
from qcat.modules import boundary_conditions
from qcat.morphisms import (
    Morphism,
    ObjectExpr,
    braiding,
    compose,
    endo_power,
    engine,
    hom_basis,
    identity,
    left_trace,
    morphism_from_json,
    morphism_from_vector,
    morphism_vector,
    obj_dim,
    random_morphism,
    range_isometry,
    standard_pair,
    summand_matrix,
    tensor,
    trace,
    unit_free,
    zero_morphism,
)
from test_category import gauged_z3, vertex_gauge
from test_golden import GAUGED_Z3
from tests_helpers import inclusion, op_norm, reference_braiding, rep_a4_category, right_trace

SIG2 = ObjectExpr.word("sig", "sig")
SSS = ObjectExpr.word("sig", "sig", "sig")


def test_identity_and_compose(ising):
    f = random_morphism(ising, SIG2, SSS, np.random.default_rng(0))
    assert (compose(identity(ising, SSS), f) - f).max_abs() == 0.0
    assert (compose(f, identity(ising, SIG2)) - f).max_abs() == 0.0


def test_tensor_functorial(ising):
    rng = np.random.default_rng(1)
    a = random_morphism(ising, SIG2, SIG2, rng)
    b = random_morphism(ising, SIG2, SIG2, rng)
    c = random_morphism(ising, SSS, SSS, rng)
    d = random_morphism(ising, SSS, SSS, rng)
    lhs = compose(tensor(a, c), tensor(b, d))
    rhs = tensor(compose(a, b), compose(c, d))
    assert (lhs - rhs).max_abs() < 1e-12


def test_standard_pair_zigzag(ising):
    unit_lettered = (ObjectExpr.word("1", "sig"), ObjectExpr.from_words([("sig",), ()]))
    for x in (SIG2, SSS, ObjectExpr.word("eps", "sig")) + unit_lettered:
        pair = standard_pair(ising, x)
        idx = identity(ising, x)
        idc = identity(ising, pair.conj)
        zig = compose(tensor(pair.rbar.adjoint(), idx), tensor(idx, pair.r))
        zag = compose(tensor(pair.r.adjoint(), idc), tensor(idc, pair.rbar))
        assert (zig - idx).max_abs() < 1e-10
        assert (zag - idc).max_abs() < 1e-10
        d = obj_dim(ising, x)
        assert abs(compose(pair.r.adjoint(), pair.r).scalar() - d) < 1e-10


@pytest.mark.parametrize("seed", range(100))
def test_trace_properties(ising, seed):
    rng = np.random.default_rng(seed)
    f = random_morphism(ising, SIG2, SIG2, rng)
    g = random_morphism(ising, SIG2, SIG2, rng)
    assert abs(trace(ising, compose(f, g)) - trace(ising, compose(g, f))) < 1e-9
    assert trace(ising, compose(f.adjoint(), f)).real > -1e-12
    assert abs(trace(ising, identity(ising, SIG2)) - obj_dim(ising, SIG2)) < 1e-10


@pytest.mark.parametrize("seed", range(100))
def test_left_equals_right_trace_standard(ising, seed):
    rng = np.random.default_rng(1000 + seed)
    f = random_morphism(ising, SIG2 @ SIG2, SIG2 @ SIG2, rng)
    lt = right_trace(ising, f, SIG2, SIG2, SIG2)
    rt = left_trace(ising, f, SIG2, SIG2, SIG2)
    assert abs(trace(ising, lt) - trace(ising, rt)) < 1e-9
    full = trace(ising, f)
    assert abs(trace(ising, lt) - full) < 1e-9


def test_partial_traces_of_full_swap_agree(ising):
    rng = np.random.default_rng(7)
    f = random_morphism(ising, SIG2 @ SIG2, SIG2 @ SIG2, rng)
    lt = left_trace(ising, f, SIG2, SIG2, SIG2)
    rt = right_trace(ising, f, SIG2, SIG2, SIG2)
    # both are genuine conditional expectations onto the remaining leg
    assert lt.dom == SIG2 and rt.dom == SIG2


def test_deformed_pair_breaks_left_right(ising):
    """With a zig-zag pair that is not standard, left and right loop traces of
    the same endomorphism disagree."""
    x = SIG2
    pair = standard_pair(ising, x)
    lam = 2.0
    r = lam * pair.r
    rbar = (1.0 / lam) * pair.rbar
    idx = identity(ising, x)
    idc = identity(ising, pair.conj)
    # zig-zag still holds for the deformed pair
    zig = compose(tensor(rbar.adjoint(), idx), tensor(idx, r))
    assert (zig - idx).max_abs() < 1e-10
    rng = np.random.default_rng(11)
    f = random_morphism(ising, x, x, rng)
    lt = compose(r.adjoint(), compose(tensor(identity(ising, pair.conj), f), r))
    rt = compose(rbar.adjoint(), compose(tensor(f, idc), rbar))
    assert abs(lt.scalar() - rt.scalar()) > 1e-2 * abs(lt.scalar())


def test_range_isometry_and_inclusion(ising):
    rng = np.random.default_rng(3)
    f = random_morphism(ising, SIG2, SIG2, rng)
    p_raw = compose(f.adjoint(), f)
    # spectral projection onto the top eigenvalue block via powers
    p = endo_power(p_raw, 0.0)
    obj, s = range_isometry(ising, p)
    assert (compose(s, s.adjoint()) - p).max_abs() < 1e-9
    assert (compose(s.adjoint(), s) - identity(ising, obj)).max_abs() < 1e-9
    x = ObjectExpr(SIG2.summands + SSS.summands)
    for i in range(2):
        inc = inclusion(ising, x, i)
        assert (compose(inc.adjoint(), inc) - identity(ising, ObjectExpr((x.summands[i],)))).max_abs() < 1e-12


def test_hom_basis_and_json_round_trip(ising):
    basis = hom_basis(ising, SIG2, SIG2)
    assert len(basis) == 2  # channels 1 and eps
    f = random_morphism(ising, SIG2, SSS, np.random.default_rng(4))
    back = morphism_from_json(ising, f.as_json())
    assert (back - f).max_abs() < 1e-14


# Multi-summand objects with the empty word, of different sizes per sector.
COORD_OBJECTS = [
    ObjectExpr(((), ("sig",), ("sig", "eps"))),
    ObjectExpr((("sig", "sig"), ("eps",), ())),
    ObjectExpr((("sig", "sig", "sig"),)),
]


@pytest.mark.parametrize("dom, cod", itertools.product(COORD_OBJECTS, repeat=2))
def test_morphism_vector_round_trip(ising, dom, cod):
    f = random_morphism(ising, dom, cod, np.random.default_rng(11))
    v = morphism_vector(f)
    basis = hom_basis(ising, dom, cod)
    assert v.shape == (len(basis),)
    assert np.array_equal(v, [np.vdot(b.block(c), f.block(c)) for b in basis for c in b.blocks])
    back = morphism_from_vector(ising, dom, cod, v)
    assert (back.dom, back.cod) == (dom, cod)
    assert back.blocks.keys() == f.blocks.keys()
    for c, b in f.blocks.items():
        assert np.array_equal(back.blocks[c], b)


def test_morphism_from_vector_drops_tiny_coefficients(ising):
    dom = cod = ObjectExpr(((), ("sig", "sig")))  # sectors 1 (2 x 2) and eps (1 x 1)
    assert [tuple(b.blocks) for b in hom_basis(ising, dom, cod)] == [("1",)] * 4 + [("eps",)]
    v = np.array([1.0, 1e-14, -2e-15j, 0.5j, 1e-14 + 0j])
    f = morphism_from_vector(ising, dom, cod, v)
    assert list(f.blocks) == ["1"]  # the eps coefficient is cut, so it gets no block
    assert np.array_equal(f.blocks["1"], [[1.0, 0.0], [0.0, 0.5j]])
    assert morphism_from_vector(ising, dom, cod, np.zeros(5)).blocks == {}
    with pytest.raises(ShapeError):
        morphism_from_vector(ising, dom, cod, np.ones(4))


def _multiplicity_two_category(seed: int):
    """Labels 1, x with x x = 1 + 2x, and seeded random unitary F and R.

    The F-symbols satisfy no pentagon, and `tensor` does not need one: it
    recouples with single F-moves only, so every identity below that holds
    for any unitary F is checked here with fusion multiplicity 2.
    """
    rng = np.random.default_rng(seed)

    def entry(field, key, n):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return {field: list(key), "re": q.real.tolist(), "im": q.imag.tolist()}

    return load_category(
        {
            "labels": ["1", "x"],
            "dual": {"1": "1", "x": "x"},
            "fusion": [["1", "1", "1", 1], ["1", "x", "x", 1], ["x", "1", "x", 1], ["x", "x", "1", 1], ["x", "x", "x", 2]],
            "F": [entry("abc_d", ("x", "x", "x", "1"), 2), entry("abc_d", ("x", "x", "x", "x"), 5)],
            "R": [entry("ab_c", ("x", "x", "1"), 1), entry("ab_c", ("x", "x", "x"), 2)],
        }
    )


MULT2 = _multiplicity_two_category(17)

# (category, objects): multi-summand, with the empty word and words of
# different lengths.  The Ising objects have two or more trees in most
# sectors, but each of their words has at most one tree per sector, so the
# single-word tensors they split into pin the order inside each channel.
KERNEL_CASES = {
    "ising": (
        build_category(ising_category()),
        [
            ObjectExpr.from_words([("sig",), (), ("eps", "sig"), ("sig", "sig")]),
            ObjectExpr.from_words([("sig", "sig"), ("eps",), ("sig",), ("eps", "eps")]),
            ObjectExpr.from_words([(), ("sig", "eps", "sig"), ("sig",)]),
        ],
    ),
    "mult2": (
        MULT2,
        [
            ObjectExpr.from_words([("x",), (), ("x", "x")]),
            ObjectExpr.from_words([("x", "x"), ("x",)]),
            ObjectExpr.from_words([(), ("x", "x", "x")]),
        ],
    ),
}


def _sliced(cat, f, i, k):
    """The part of f from summand i of its domain to summand k of its codomain."""
    return compose(inclusion(cat, f.cod, k).adjoint(), compose(f, inclusion(cat, f.dom, i)))


def _reference_tensor(f, g):
    """f (x) g entry by entry: between each summand pair of the domain and of
    the codomain, f_c[i1', i1] g_d[i2', i2] joins split basis entries of the
    same channel (c, d, mu), and the S of `Engine.split` recouples it.  The
    split bases are those of the label scan (`_reference_split_list`)."""
    cat = f.cat
    eng = engine(cat)
    dom, cod = f.dom @ g.dom, f.cod @ g.cod
    blocks = {}
    for e in cat.labels:
        if not eng.obj_sector_dim(cod, e) or not eng.obj_sector_dim(dom, e):
            continue
        out = np.zeros((eng.obj_sector_dim(cod, e), eng.obj_sector_dim(dom, e)), dtype=complex)
        dom_offs, cod_offs = eng.obj_offsets(dom, e), eng.obj_offsets(cod, e)
        dom_pairs = list(itertools.product(enumerate(f.dom.summands), enumerate(g.dom.summands)))
        cod_pairs = list(itertools.product(enumerate(f.cod.summands), enumerate(g.cod.summands)))
        for (di, ((i, u1), (j, u2))), (ci, ((k, v1), (l, v2))) in itertools.product(
            enumerate(dom_pairs), enumerate(cod_pairs)
        ):
            if e not in eng.split(u1, u2) or e not in eng.split(v1, v2):
                continue
            s_dom, dom_list = eng.split(u1, u2)[e], _reference_split_list(cat, u1, u2, e)
            s_cod, cod_list = eng.split(v1, v2)[e], _reference_split_list(cat, v1, v2, e)
            s_dom = np.eye(len(dom_list)) if s_dom is None else s_dom  # None: no recoupling
            s_cod = np.eye(len(cod_list)) if s_cod is None else s_cod
            m = np.zeros((len(cod_list), len(dom_list)), dtype=complex)
            for r, (c, i1p, d, i2p, mu) in enumerate(cod_list):
                for q, (c2, i1, d2, i2, mu2) in enumerate(dom_list):
                    if (c, d, mu) == (c2, d2, mu2):
                        fv = f.block(c)[eng.obj_offsets(f.cod, c)[k] + i1p, eng.obj_offsets(f.dom, c)[i] + i1]
                        gv = g.block(d)[eng.obj_offsets(g.cod, d)[l] + i2p, eng.obj_offsets(g.dom, d)[j] + i2]
                        m[r, q] = fv * gv
            out[cod_offs[ci] : cod_offs[ci + 1], dom_offs[di] : dom_offs[di + 1]] += s_cod.conj().T @ m @ s_dom
        blocks[e] = out
    return Morphism(cat, dom, cod, blocks)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_tensor_matches_entrywise_reference(name):
    cat, objs = KERNEL_CASES[name]
    rng = np.random.default_rng(20)
    for x, y, z, w in itertools.product(objs, repeat=4):
        f, g = random_morphism(cat, x, y, rng), random_morphism(cat, z, w, rng)
        got, want = tensor(f, g), _reference_tensor(f, g)
        assert set(got.blocks) == set(want.blocks)
        assert (got - want).max_abs() < 1e-12 * max(1.0, want.max_abs())
    assert op_norm(want) > 1.0


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_tensor_is_the_sum_of_single_word_tensors(name):
    cat, (x, y, z) = KERNEL_CASES[name]
    rng = np.random.default_rng(21)
    f = random_morphism(cat, x, y, rng)
    g = random_morphism(cat, z, x, rng)
    fg = tensor(f, g)
    want = zero_morphism(cat, x @ z, y @ x)
    ranges = [range(len(o.summands)) for o in (x, z, y, x)]
    for i, j, k, l in itertools.product(*ranges):
        inc_dom = tensor(inclusion(cat, x, i), inclusion(cat, z, j))
        inc_cod = tensor(inclusion(cat, y, k), inclusion(cat, x, l))
        part = tensor(_sliced(cat, f, i, k), _sliced(cat, g, j, l))
        want = want + compose(inc_cod, compose(part, inc_dom.adjoint()))
    assert op_norm(fg) > 1.0
    assert (fg - want).max_abs() < 1e-12


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_tensor_of_identities_and_functoriality(name):
    cat, (x, y, z) = KERNEL_CASES[name]
    assert (tensor(identity(cat, x), identity(cat, z)) - identity(cat, x @ z)).max_abs() < 1e-14
    rng = np.random.default_rng(22)
    a, b = random_morphism(cat, y, z, rng), random_morphism(cat, x, y, rng)
    c, d = random_morphism(cat, x, y, rng), random_morphism(cat, z, x, rng)
    lhs = compose(tensor(a, c), tensor(b, d))
    assert op_norm(lhs) > 1.0
    assert (lhs - tensor(compose(a, b), compose(c, d))).max_abs() < 1e-11


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_tensor_with_a_unit_factor_matches_reference(name):
    """A factor 1 -> 1, on either side, only scales the other factor; the
    scalar may be zero or of modulus other than one."""
    cat, objs = KERNEL_CASES[name]
    rng = np.random.default_rng(24)
    for s in (0.0, 1.0, 2.5 - 1.5j):
        unit_map = s * identity(cat, ObjectExpr.unit())
        for x, y in itertools.product(objs, repeat=2):
            f = random_morphism(cat, x, y, rng)
            for got, want in (
                (tensor(f, unit_map), _reference_tensor(f, unit_map)),
                (tensor(unit_map, f), _reference_tensor(unit_map, f)),
            ):
                assert (got.dom, got.cod) == (want.dom, want.cod) == (x, y)
                assert set(got.blocks) == set(want.blocks)
                assert (got - want).max_abs() < 1e-12 * max(1.0, want.max_abs())
            assert (tensor(f, unit_map) - s * f).max_abs() == 0.0


# KERNEL_CASES with gauged Z3 and Rep(A4): unit letters, the empty word, and
# (on MULT2 and Rep(A4)) chains through multiplicity-2 vertices.
WHISKER_CASES = {
    **KERNEL_CASES,
    "gauged_z3": (
        gauged_z3(),
        [
            ObjectExpr.from_words([("1",), (), ("2", "0", "1"), ("1", "1")]),
            ObjectExpr.from_words([("2", "2"), ("0",), ("1", "2", "2")]),
        ],
    ),
    "rep_a4": (
        rep_a4_category(),
        [
            ObjectExpr.from_words([("3",), (), ("3", "1p")]),
            ObjectExpr.from_words([("3", "3"), ("1pp", "1", "3")]),
            ObjectExpr.from_words([("3", "3", "3")]),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(WHISKER_CASES))
def test_tensor_with_an_identity_factor_matches_reference(name):
    """An identity on the right (a whisker f (x) 1_z), on the left, or on
    both sides gives the entrywise reference product."""
    cat, objs = WHISKER_CASES[name]
    rng = np.random.default_rng(26)
    for x, y, z in itertools.product(objs, repeat=3):
        f, one = random_morphism(cat, x, y, rng), identity(cat, z)
        for got, want in (
            (tensor(f, one), _reference_tensor(f, one)),
            (tensor(one, f), _reference_tensor(one, f)),
            (tensor(identity(cat, x), one), identity(cat, x @ z)),
        ):
            assert (got.dom, got.cod) == (want.dom, want.cod)
            assert set(got.blocks) == set(want.blocks)
            assert (got - want).max_abs() < 1e-12 * max(1.0, want.max_abs())


def _first_split(eng, w1, w2):
    """The first-factor split of two unit-free words, by recursion over the
    letters of w2: per sector c of w1 and sector e, P[i1, t] is the
    canonical position in w1 w2 at e of tree i1 of w1 at c followed by tree
    t of c w2 at e (of w2 when c is the unit).  Returns {e: {c: P}}."""
    cat = eng.cat

    def position(head, v, i1, e, t):
        if not v:
            return i1
        a, rest = v[-1], v[:-1]
        for (b, _), start in eng._blocks(head + rest, (a,))[1][e].items():
            m = cat.n(b, a, e)
            if start <= t < start + eng.trees(head + rest)[b] * m:
                k, mu = divmod(t - start, m)
                return eng._blocks(w1 + rest, (a,))[1][e][b, a] + position(head, rest, i1, b, k) * m + mu
        raise AssertionError((head, v, e, t))

    out: dict[str, dict[str, np.ndarray]] = {}
    for c, n1 in eng.trees(w1).items():
        head = () if c == cat.unit else (c,)
        for e, n in eng.trees(head + w2).items():
            out.setdefault(e, {})[c] = np.array(
                [[position(head, w2, i1, e, t) for t in range(n)] for i1 in range(n1)], dtype=np.intp
            )
    return out


@pytest.mark.parametrize("name", ["gauged_ising", "mult2", "gauged_z3", "rep_a4"])
def test_recoupling_is_block_diagonal_over_the_first_factor(name):
    """F-moves never act inside w1.  The pairs (tree i1 of w1 at c, tree t
    of c w2) are the canonical trees of w1 w2 (`_first_split`, a
    permutation), and through them the recoupling S(w1, w2) is one block
    S((c,), w2) per tree i1 of w1 at c: split entry (c, i1, d, i2, mu) of
    w1 w2 against canonical tree pi[c][i1, t] is split entry (c, 0, d, i2,
    mu) of c w2 against tree t, and every other entry is zero, for every
    pair of unit-free words of total length at most 5."""
    cat = {
        "gauged_ising": vertex_gauge(build_category(ising_category()), 5),
        "mult2": MULT2,
        "gauged_z3": gauged_z3(),
        "rep_a4": rep_a4_category(),
    }[name]
    eng, letters = engine(cat), cat.labels[1:]
    words = [w for n in range(6) for w in itertools.product(letters, repeat=n)]
    checked = 0
    for w1, w2 in itertools.product(words, repeat=2):
        if len(w1) + len(w2) > 5:
            continue
        n1, n2 = eng.trees(w1), eng.trees(w2)
        start = eng._blocks(w1, w2)[1]
        for e, pi in _first_split(eng, w1, w2).items():
            dim = eng.trees(w1 + w2)[e]
            placed = np.concatenate([p.reshape(-1) for p in pi.values()])
            assert np.array_equal(np.sort(placed), np.arange(dim)), (w1, w2, e)
            s = eng.split(w1, w2)[e]
            s = np.eye(dim) if s is None else s  # None: no recoupling
            want = np.zeros_like(s)
            for c, p in pi.items():
                head = () if c == cat.unit else (c,)
                sc = eng.split(head, w2)[e]
                sc = np.eye(p.shape[1]) if sc is None else sc
                head_start = eng._blocks(head, w2)[1][e]
                for i1 in range(n1[c]):
                    for d in n2:
                        m = cat.n(c, d, e)
                        for i2, mu in itertools.product(range(n2[d]), range(m)):
                            r = start[e][c, d] + (i1 * n2[d] + i2) * m + mu
                            want[r, p[i1]] = sc[head_start[cat.unit if not head else c, d] + i2 * m + mu]
            assert np.max(np.abs(s - want), initial=0.0) < 1e-12, (w1, w2, e)
            checked += not np.allclose(s, np.eye(len(s)))
    assert checked > 10


def _reference_trees(cat, w, c):
    """The canonical trees of w at c by a scan over every label (the engine's
    former enumeration): b in label order, then the sub-tree, then mu."""
    if len(w) <= 1:
        return [()] if c == (w[0] if w else cat.unit) else []
    return [
        t + ((b, mu),)
        for b in cat.labels
        for t in _reference_trees(cat, w[:-1], b)
        for mu in range(cat.n(b, w[-1], c))
    ]


def _reference_split_list(cat, w1, w2, e):
    """The split basis of w1 w2 at e by a scan over every label pair."""
    n1 = {c: len(_reference_trees(cat, w1, c)) for c in cat.labels}
    n2 = {d: len(_reference_trees(cat, w2, d)) for d in cat.labels}
    return [
        (c, i1, d, i2, mu)
        for c in cat.labels
        for d in cat.labels
        for i1 in range(n1[c])
        for i2 in range(n2[d])
        for mu in range(cat.n(c, d, e))
    ]


@pytest.mark.parametrize("name", ["ising", "mult2", "gauged_z3"])
def test_sector_tables_match_label_scan(name):
    """The engine's tree counts are those of the label scan; tree k of
    w[:-1] at b with vertex mu of b x w[-1] -> c sits at place
    start[c][b, w[-1]] + k N + mu of the scan's trees of w at c; and split
    entry (c, i1, d, i2, mu) of w1 w2 at e at place
    start[e][c, d] + (i1 n2 + i2) N + mu of the scan's split basis."""
    cat = {"ising": KERNEL_CASES["ising"][0], "mult2": MULT2, "gauged_z3": gauged_z3()}[name]
    eng = engine(cat)
    words = [w for n in range(5) for w in itertools.product(cat.labels, repeat=n)]
    for w in words:
        want = {c: _reference_trees(cat, w, c) for c in cat.labels}
        got = eng.trees(w)
        assert list(got) == [c for c in cat.labels if want[c]]
        assert got == {c: len(t) for c, t in want.items() if t}
        if len(w) < 2:
            continue
        size, start = eng._blocks(w[:-1], w[-1:])
        assert size == got and set(start) == set(got)
        for c, firsts in start.items():
            placed = [None] * size[c]
            for (b, a), j in firsts.items():
                assert a == w[-1]
                m = cat.n(b, a, c)
                for k, t in enumerate(_reference_trees(cat, w[:-1], b)):
                    for mu in range(m):
                        placed[j + k * m + mu] = t + ((b, mu),)
            assert placed == want[c], (w, c)
    for w1, w2 in itertools.product(words, repeat=2):
        if len(w1) + len(w2) > 4:
            continue
        want = {e: _reference_split_list(cat, w1, w2, e) for e in cat.labels}
        want = {e: s for e, s in want.items() if s}
        n1 = {c: len(_reference_trees(cat, w1, c)) for c in cat.labels}
        n2 = {d: len(_reference_trees(cat, w2, d)) for d in cat.labels}
        size, start = eng._blocks(w1, w2)
        assert size == {e: len(s) for e, s in want.items()} and set(start) == set(want)
        placed = {e: [None] * n for e, n in size.items()}
        for e, firsts in start.items():
            for (c, d), j in firsts.items():
                m = cat.n(c, d, e)
                for i1, i2, mu in itertools.product(range(n1[c]), range(n2[d]), range(m)):
                    placed[e][j + (i1 * n2[d] + i2) * m + mu] = (c, i1, d, i2, mu)
        assert placed == want, (w1, w2)
        assert list(eng.split(w1, w2)) == list(want)
    for x in KERNEL_CASES.get(name, (None, []))[1]:
        dims = {c: [len(_reference_trees(cat, w, c)) for w in x.summands] for c in cat.labels}
        assert eng.sectors(x) == {c: list(itertools.accumulate(n, initial=0)) for c, n in dims.items() if sum(n)}


def _reference_split(cat, w1, w2, memo):
    """An independent `Engine.split`, on the trees of the label scan
    (`_reference_trees`) with no engine table read: the empty-word and
    one-letter splits built entry by entry, then one inline F-move per
    further letter of w2, read from `fmat` by its row and column lists.
    `memo` caches it per word pair."""
    key = (w1, w2)
    got = memo.get(key)
    if got is not None:
        return got
    unit = cat.unit
    trees = functools.cache(lambda w, c: _reference_trees(cat, w, c))
    index = functools.cache(lambda w, c: {t: i for i, t in enumerate(trees(w, c))})
    out = {}
    for e in (e for e in cat.labels if trees(w1 + w2, e)):
        n = len(trees(w1 + w2, e))
        if len(w2) == 0:
            out[e] = (np.eye(n, dtype=complex), [(e, i, unit, 0, 0) for i in range(n)])
            continue
        if len(w1) == 0:
            out[e] = (np.eye(n, dtype=complex), [(unit, 0, e, i, 0) for i in range(n)])
            continue
        split_list = _reference_split_list(cat, w1, w2, e)
        sidx = {t: i for i, t in enumerate(split_list)}
        s = np.zeros((len(split_list), n), dtype=complex)
        v, a = w2[:-1], w2[-1]
        for col, tt in enumerate(trees(w1 + w2, e)):
            b, mu = tt[-1]
            if not v:
                s[sidx[(b, index(w1, b)[tt[:-1]], a, 0, mu)], col] = 1.0
                continue
            prev_s, prev_list = _reference_split(cat, w1, v, memo)[b]
            t_pre_idx = index(w1 + v, b)[tt[:-1]]
            for row_idx, (c, i1, dp, i2p, nu) in enumerate(prev_list):
                coeff = prev_s[row_idx, t_pre_idx]
                if abs(coeff) < 1e-15:
                    continue
                fm = cat.fmat(c, dp, a, e)
                rows = cat.f_rows(c, dp, a, e)
                cols = cat.f_cols(c, dp, a, e)
                ri = rows.index((b, nu, mu))
                t2p = trees(v, dp)[i2p]
                for ci, (dd, sig, tau) in enumerate(cols):
                    val = fm[ri, ci]
                    if abs(val) < 1e-15:
                        continue
                    i2 = index(w2, dd)[t2p + ((dp, sig),)]
                    s[sidx[(c, i1, dd, i2, tau)], col] += coeff * val
        out[e] = (s, split_list)
    memo[key] = out
    return out


@pytest.mark.parametrize("name", ["ising", "mult2", "gauged_z3"])
def test_split_matches_inline_f_move_reference(name):
    """The identity cases and the F-move recursion of `Engine.split` give the
    recouplings of the hand-built cases and inline F-move."""
    cat = {"ising": KERNEL_CASES["ising"][0], "mult2": MULT2, "gauged_z3": gauged_z3()}[name]
    eng, memo = engine(cat), {}
    words = [w for n in range(5) for w in itertools.product(cat.labels, repeat=n)]
    for w1, w2 in itertools.product(words, repeat=2):
        if len(w1) + len(w2) > 4:
            continue
        got, want = eng.split(w1, w2), _reference_split(cat, w1, w2, memo)
        assert list(got) == list(want)
        for e, s in got.items():
            s = np.eye(len(want[e][1]), dtype=complex) if s is None else s  # None: no recoupling
            assert s.shape == want[e][0].shape
            assert np.max(np.abs(s - want[e][0]), initial=0.0) < 1e-14, (w1, w2, e)


def test_split_stores_no_identity_recoupling():
    """After a cold Ising boundary computation, a cached split maps each
    sector to its S, an array, or to None exactly when w1 is empty or w2 has
    at most one letter."""
    cat = build_category(ising_category())
    q = ising_q(cat)
    boundary_conditions(cat, q, q)
    kinds = set()
    for (w1, w2), per_sector in engine(cat)._split.items():
        assert set(per_sector) <= set(cat.labels)
        for s in per_sector.values():
            assert (s is None) == (not w1 or len(w2) <= 1), (w1, w2)
            assert s is None or isinstance(s, np.ndarray)
            kinds.add(s is None)
    assert kinds == {True, False}


@pytest.mark.parametrize("name", ["ising", "mult2", "gauged_z3"])
def test_split_of_words_with_unit_letters_is_that_of_the_unit_free_words(name):
    """The canonical gauge makes the unit strict: F-moving through the unit
    letters (the reference) recouples w1 w2 as `Engine.split` recouples the
    unit-free words, position by position."""
    cat = {"ising": KERNEL_CASES["ising"][0], "mult2": MULT2, "gauged_z3": gauged_z3()}[name]
    eng, memo = engine(cat), {}
    words = [w for n in range(5) for w in itertools.product(cat.labels, repeat=n)]
    for w1, w2 in itertools.product(words, repeat=2):
        if len(w1) + len(w2) > 4 or cat.unit not in w1 + w2:
            continue
        got, want = eng.split(unit_free(cat, w1), unit_free(cat, w2)), _reference_split(cat, w1, w2, memo)
        assert list(got) == list(want)
        for e, s in got.items():
            s = np.eye(len(want[e][1]), dtype=complex) if s is None else s  # None: no recoupling
            assert s.shape == want[e][0].shape
            assert np.max(np.abs(s - want[e][0]), initial=0.0) < 1e-14, (w1, w2, e)


def test_engine_tables_hold_no_unit_letter():
    """After a cold Ising boundary computation, neither the category's
    engine nor that of C x C^opp has recoupled a word with a unit letter."""
    cat = build_category(ising_category())
    q = ising_q(cat)
    boundary_conditions(cat, q, q)
    prod, _ = canonical_qsystem(cat)
    for c in (cat, prod):
        assert engine(c)._split
        assert not [key for key in engine(c)._split if c.unit in key[0] + key[1]]


def test_braiding_with_a_unit_factor_checks_its_sign():
    """A braiding whose factor is the unit, or a word of unit letters, is an
    identity, but a bad sign still raises."""
    cat = build_category(ising_category())
    sig, unit, one = ObjectExpr.word("sig"), ObjectExpr.unit(), ObjectExpr.word("1")
    for x, y in ((sig, unit), (unit, sig), (unit, unit), (sig, one), (one, ObjectExpr.word("sig", "1"))):
        with pytest.raises(ValueError, match="'left'"):
            braiding(cat, x, y, "left")
        got, want = braiding(cat, x, y, "-"), identity(cat, x @ y)
        assert all(np.array_equal(got.blocks[c], b) for c, b in want.blocks.items())


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_braiding_unitary_and_inverse(name):
    """For any unitary R the braiding is unitary, and the opposite braiding
    of y, x is its adjoint; `rmat`'s '-' sign is the adjoint R-move."""
    cat, (x, y, z) = KERNEL_CASES[name]
    for a, b in ((x, y), (y, z), (z, x)):
        for sign in ("+", "-"):
            eps = braiding(cat, a, b, sign)
            assert (compose(eps, eps.adjoint()) - identity(cat, b @ a)).max_abs() < 1e-12
            assert (compose(eps.adjoint(), eps) - identity(cat, a @ b)).max_abs() < 1e-12
        assert (braiding(cat, b, a, "-") - braiding(cat, a, b, "+").adjoint()).max_abs() < 1e-12
    for a, b, c in cat.fusion:
        assert np.array_equal(cat.rmat(a, b, c, "-"), cat.rmat(b, a, c).conj().T)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_braiding_naturality(name):
    """eps(y, x) (f (x) g) = (g (x) f) eps(x, z) for any unitary F and R:
    on MULT2 neither the pentagon nor the hexagon holds."""
    cat, (x, y, z) = KERNEL_CASES[name]
    rng = np.random.default_rng(2)
    f = random_morphism(cat, x, y, rng)
    g = random_morphism(cat, z, x, rng)
    for sign in ("+", "-"):
        lhs = compose(braiding(cat, y, x, sign), tensor(f, g))
        rhs = compose(tensor(g, f), braiding(cat, x, z, sign))
        assert op_norm(lhs) > 1.0
        assert (lhs - rhs).max_abs() < 1e-11


def test_braiding_of_a_multiplicity_two_channel_is_its_r_move():
    """On MULT2 the x block of eps(x, x) is R^{xx}_x itself: row nu is the
    vertex of x x -> x on the codomain, column mu that on the domain."""
    x = ObjectExpr.word("x")
    for sign in ("+", "-"):
        got = braiding(MULT2, x, x, sign)
        assert got.blocks["x"].shape == (2, 2)
        assert np.array_equal(got.blocks["x"], MULT2.rmat("x", "x", "x", sign))


def _braiding_categories() -> dict:
    ising = build_category(ising_category())
    return {
        "gauged_ising": vertex_gauge(ising, 11),
        "gauged_z3": load_category(GAUGED_Z3),
        "ising_x_ising_opp": deligne_product(ising, ising, reverse_right=True),
    }


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("name", ["gauged_ising", "gauged_z3", "ising_x_ising_opp"])
def test_braiding_matches_the_hexagon_recursion(name, sign):
    """Where R satisfies the hexagon, the R-move per channel is the braiding
    that the hexagon builds from single letters, on seeded multi-summand
    objects with the empty word and unit letters."""
    cat = _braiding_categories()[name]
    rng = np.random.default_rng(30)
    a, b = (c for c in cat.labels[1:3])

    def random_object():
        sizes = rng.integers(0, 4, size=rng.integers(1, 4))
        return ObjectExpr.from_words([[cat.labels[i] for i in rng.integers(len(cat.labels), size=n)] for n in sizes])

    objects = [ObjectExpr.from_words([(), (cat.unit, a), (a, cat.unit, b)]), ObjectExpr.word(a, b, a)]
    objects += [random_object() for _ in range(4)]
    memo: dict = {}
    for x, y in itertools.product(objects, repeat=2):
        got, want = braiding(cat, x, y, sign), reference_braiding(cat, x, y, sign, memo)
        assert (got.dom, got.cod) == (want.dom, want.cod)
        assert (got - want).max_abs() < 1e-12
    assert op_norm(got) > 0.5 and any(len(x.summands) > 1 for x in objects[2:])


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_summand_matrix_reassembles_sliced_parts(name):
    cat, objs = KERNEL_CASES[name]
    rng = np.random.default_rng(25)
    for x, y in itertools.product(objs, repeat=2):
        f = random_morphism(cat, x, y, rng)
        parts = {(k, i): _sliced(cat, f, i, k) for i in range(len(x.summands)) for k in range(len(y.summands))}
        got = summand_matrix(cat, x, y, parts)
        assert set(got.blocks) == set(f.blocks)
        assert (got - f).max_abs() == 0.0
    assert op_norm(f) > 1.0
    with pytest.raises(ShapeError):
        summand_matrix(cat, x, y, {(1, 0): parts[(0, 0)]})


@pytest.mark.parametrize(
    "f_sss, message",
    [
        ([[0, 1], [1, 0]], "zig-zag vanishes for label 'sig'"),
        ([[1, 1], [1, -1]], "no unimodular conjugacy phase for 'sig'"),
        (np.array([[1j, 1], [1, 1j]]) / np.sqrt(2), "conjugacy relations unsolvable for 'sig'"),
    ],
)
def test_standard_pair_of_a_bad_f_symbol_raises(f_sss, message):
    """F^{sig sig sig}_sig fixes both zig-zags of sig's standard pair: a
    vanishing one, a non-unimodular phase and an unsolvable second relation
    each raise, in `standard_pair` and in the conjugate vertices of
    `canonical_qsystem`."""
    cat = build_category(ising_category())
    cat.f_symbols[("sig", "sig", "sig", "sig")] = np.array(f_sss, dtype=complex)
    with pytest.raises(ConjugacyError, match=message):
        standard_pair(cat, ObjectExpr.word("sig"))
    with pytest.raises(ConjugacyError, match=message):
        canonical_qsystem(cat)


def test_unknown_label_anywhere_in_a_word_raises(ising):
    for w in (("zz",), ("sig", "zz"), ("zz", "sig", "eps")):
        with pytest.raises(UnknownLabelError):
            engine(ising).trees(w)


def test_tensor_strictly_associative():
    """Associativity of the left-nested canonical bases rests on the
    pentagon, so it is checked on Ising and on the gauged (non-self-dual)
    Z3, not on the random-F ring."""
    z3_objects = [
        ObjectExpr.from_words([("1",), (), ("2", "1"), ("1", "1")]),
        ObjectExpr.from_words([("2", "2"), ("1",), ("2",)]),
        ObjectExpr.from_words([(), ("1", "2", "1"), ("2",)]),
    ]
    for cat, (x, y, z) in (KERNEL_CASES["ising"], (gauged_z3(), z3_objects)):
        rng = np.random.default_rng(23)
        f, g, h = random_morphism(cat, x, y, rng), random_morphism(cat, y, z, rng), random_morphism(cat, z, x, rng)
        lhs = tensor(tensor(f, g), h)
        assert op_norm(lhs) > 1.0
        assert (lhs - tensor(f, tensor(g, h))).max_abs() < 1e-13


def test_morphism_json_rejects_bad_blocks(ising, z2):
    doc = random_morphism(z2, ObjectExpr.word("1", "g"), ObjectExpr.word("g"), np.random.default_rng(5)).as_json()
    assert morphism_from_json(z2, doc).dom == ObjectExpr.word("1", "g")
    # a string is not a list of words, nor a word a string of letters
    for key, value in (("dom", "1g"), ("dom", ["1g"]), ("cod", "g"), ("cod", [["g", 1]]), ("dom", [("1", "g")])):
        with pytest.raises(ParseError):
            morphism_from_json(z2, {**doc, key: value})
    y = KERNEL_CASES["ising"][1][1]
    data = random_morphism(ising, SIG2, y, np.random.default_rng(5)).as_json()
    data["blocks"][0]["re"][0][0] = float("nan")
    with pytest.raises(ParseError):
        morphism_from_json(ising, data)
    data = random_morphism(ising, SIG2, y, np.random.default_rng(5)).as_json()
    data["blocks"][0]["rows"] += 1
    with pytest.raises(ParseError):
        morphism_from_json(ising, data)


def test_nan_block_fails_max_abs_and_norm(ising):
    f = random_morphism(ising, SIG2, KERNEL_CASES["ising"][1][1], np.random.default_rng(6))
    f.blocks[ising.unit] = np.full_like(f.blocks[ising.unit], np.nan)
    assert np.isnan(f.max_abs())
    assert np.isnan(op_norm(f))
