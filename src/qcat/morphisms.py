"""Intertwiners between tensor words of simples as per-sector block matrices.

An ObjectExpr is a formal direct sum of tensor words of simple labels.  A
Morphism stores, for every simple sector c, the matrix of the intertwiner
between the canonical fusion-tree bases (left-nested coupling paths) of its
domain and codomain.  Composition is per-sector matrix product.

The monoidal product has one kernel.  A tree of x (x) y at sector e is
recoupled by F-moves (`Engine.split`) into a split basis: a tree of x at c,
a tree of y at d and a vertex mu of c x d -> e.  Grouped by fusion channel
(c, d, mu), that basis carries f (x) g as one Kronecker block per channel:

    (f (x) g)_e = S_cod^dagger . blockdiag_(c,d,mu) kron(f_c, g_d) . S_dom
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category import CategoryData, _complex_array, _f_row, _json_int, _r_col
from .errors import ConjugacyError, ParseError, ShapeError, UnknownLabelError

Word = tuple[str, ...]
_UNIT_WORDS: tuple[Word, ...] = ((),)


@dataclass(frozen=True)
class ObjectExpr:
    summands: tuple[Word, ...]

    @staticmethod
    def word(*labels: str) -> "ObjectExpr":
        return ObjectExpr((tuple(labels),))

    @staticmethod
    def from_words(words) -> "ObjectExpr":
        return ObjectExpr(tuple(tuple(w) for w in words))

    @staticmethod
    def unit() -> "ObjectExpr":
        return ObjectExpr(((),))

    @property
    def is_zero(self) -> bool:
        return not self.summands

    def tensor(self, other: "ObjectExpr") -> "ObjectExpr":
        return ObjectExpr(tuple(w1 + w2 for w1 in self.summands for w2 in other.summands))

    def __matmul__(self, other: "ObjectExpr") -> "ObjectExpr":
        return self.tensor(other)

    def as_json(self) -> list:
        return [list(w) for w in self.summands]


def conj_word(cat: CategoryData, w: Word) -> Word:
    return tuple(cat.dual[a] for a in reversed(w))


def conj_object(cat: CategoryData, x: ObjectExpr) -> ObjectExpr:
    return ObjectExpr(tuple(conj_word(cat, w) for w in x.summands))


def unit_free(cat: CategoryData, x):
    """A word, or each word of an object, with every unit letter dropped.

    In the canonical gauge the unit is strict: w and unit_free(w) have the
    same canonical trees in every sector, in the same order, and every table
    the engine builds for one serves the other position by position."""
    if isinstance(x, ObjectExpr):
        return ObjectExpr(tuple(unit_free(cat, w) for w in x.summands))
    return tuple(a for a in x if a != cat.unit)


def word_dim(cat: CategoryData, w: Word) -> float:
    d = 1.0
    for a in w:
        d *= cat.dims[a]
    return d


def obj_dim(cat: CategoryData, x: ObjectExpr) -> float:
    return sum(word_dim(cat, w) for w in x.summands)


@dataclass
class Morphism:
    cat: CategoryData
    dom: ObjectExpr
    cod: ObjectExpr
    blocks: dict[str, np.ndarray]

    def block(self, c: str) -> np.ndarray:
        b = self.blocks.get(c)
        if b is not None:
            return b
        eng = engine(self.cat)
        return np.zeros((eng.obj_sector_dim(self.cod, c), eng.obj_sector_dim(self.dom, c)), dtype=complex)

    def adjoint(self) -> "Morphism":
        return Morphism(self.cat, self.cod, self.dom, {c: b.conj().T for c, b in self.blocks.items()})

    def __matmul__(self, other: "Morphism") -> "Morphism":
        return compose(self, other)

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.dom != other.dom or self.cod != other.cod:
            raise ShapeError("addition of morphisms with different shapes")
        out = dict(self.blocks)
        for c, b in other.blocks.items():
            out[c] = out[c] + b if c in out else b
        return Morphism(self.cat, self.dom, self.cod, out)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "Morphism":
        return Morphism(self.cat, self.dom, self.cod, {c: scalar * b for c, b in self.blocks.items()})

    __rmul__ = __mul__

    def norm(self) -> float:
        """Largest operator norm over sectors; NaN if any entry is not finite."""
        blocks = [b for b in self.blocks.values() if b.size]
        if not all(np.isfinite(b).all() for b in blocks):
            return float("nan")
        return float(np.max([np.linalg.norm(b, 2) for b in blocks], initial=0.0))

    def max_abs(self) -> float:
        """Largest entry modulus; NaN if any entry is NaN."""
        return float(np.max([np.max(np.abs(b)) for b in self.blocks.values() if b.size], initial=0.0))

    def hs_norm(self) -> float:
        """Hilbert-Schmidt norm over all sectors."""
        return float(np.sqrt(sum(np.sum(np.abs(b) ** 2) for b in self.blocks.values())))

    def scalar(self) -> complex:
        """The coefficient of a morphism 1 -> 1."""
        b = self.blocks.get(self.cat.unit)
        if b is None or b.size == 0:
            return 0.0 + 0.0j
        return complex(b[0, 0])

    def as_json(self) -> dict:
        blocks = []
        for c in self.cat.labels:
            b = self.blocks.get(c)
            if b is None or b.size == 0:
                continue
            blocks.append(
                {
                    "sector": c,
                    "rows": b.shape[0],
                    "cols": b.shape[1],
                    "re": np.real(b).tolist(),
                    "im": np.imag(b).tolist(),
                }
            )
        return {"dom": self.dom.as_json(), "cod": self.cod.as_json(), "blocks": blocks}


def morphism_from_json(cat: CategoryData, data: dict) -> Morphism:
    try:
        objects = (data["dom"], data["cod"])
        shapes = [(e["sector"], e["rows"], e["cols"], e) for e in data["blocks"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad morphism: {exc!r}") from exc
    sectors = [c for c, *_ in shapes]
    _check_labels(cat, objects, sectors)
    dom, cod = (ObjectExpr.from_words(words) for words in objects)
    if len(set(sectors)) != len(sectors):
        raise ParseError(f"a sector is given more than one block: {sectors!r}")
    eng = engine(cat)
    for c, nr, nc, _ in shapes:
        if not (_json_int(nr) and _json_int(nc)):
            raise ParseError(f"block {c!r}: rows and cols must be integers, not {nr!r} and {nc!r}")
        if (nr, nc) != (eng.obj_sector_dim(cod, c), eng.obj_sector_dim(dom, c)):
            raise ParseError(f"block {c!r} is {nr} x {nc}, not the size of sector {c!r} of Hom(dom, cod)")
    blocks = {c: _complex_array(e, nr, nc, f"block {c!r}") for c, nr, nc, e in shapes}
    return Morphism(cat, dom, cod, blocks)


def _check_labels(cat: CategoryData, objects, sectors=()) -> None:
    """Each of `objects`, as read from a document, must be a list of words,
    each a list of label strings, and every label in them and every one of
    `sectors` a label of `cat`."""
    for x in objects:
        if not isinstance(x, list) or not all(isinstance(w, list) and all(isinstance(l, str) for l in w) for w in x):
            raise ParseError(f"an object must be a list of lists of labels, not {x!r}")
    labels = [l for x in objects for w in x for l in w] + list(sectors)
    unknown = [l for l in labels if l not in cat.labels]
    if unknown:
        raise ParseError(f"unknown labels {unknown!r}")


class Engine:
    """Per-category fusion-tree machinery with recoupling caches.

    It keeps one sector table per word (`trees`, the tree counts) and per
    object (`sectors`), holding only the sectors they reach, and every walk
    goes over those.  A tree's place is read off the counts (`_blocks`).
    Object tables, recouplings and standard pairs are built for unit-free
    words only (`unit_free`); a word with unit letters reads the table of
    its unit-free word, so `split` never sees a unit letter.
    """

    def __init__(self, cat: CategoryData):
        self.cat = cat
        self._rank = {c: i for i, c in enumerate(cat.labels)}
        self._trees: dict[Word, dict[str, int]] = {}
        self._sectors: dict[ObjectExpr, dict[str, list[int]]] = {}
        self._split: dict[tuple[Word, Word], dict] = {}
        self._word_pair: dict[Word, tuple[Morphism, Morphism]] = {}
        self._pair_index: dict[tuple[ObjectExpr, ObjectExpr], dict[str, _SectorIndex]] = {}

    def _in_label_order(self, table: dict) -> dict:
        return {c: table[c] for c in sorted(table, key=self._rank.__getitem__)}

    # ---- fusion trees -------------------------------------------------

    def trees(self, w: Word) -> dict[str, int]:
        """How many canonical trees w has in each sector c it reaches: a tree
        of w[:-1] at b, then a vertex mu of b x w[-1] -> c, placed by `_blocks`."""
        got = self._trees.get(w)
        if got is not None:
            return got
        cat = self.cat
        if not w:
            out = {cat.unit: 1}
        elif w[-1] not in cat.dual:
            raise UnknownLabelError(f"unknown label {w[-1]!r}")
        elif len(w) == 1:
            out = {w[0]: 1}
        else:
            out = self._in_label_order(self._blocks(w)[0])
        self._trees[w] = out
        return out

    def _blocks(self, w: Word) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
        """(size, start) for a word of two or more letters: tree k of w[:-1] at
        b, then vertex mu of b x w[-1] -> c, is tree start[c][b] + k N_{b w[-1]}^c
        + mu of the size[c] trees of w at c, ordered by b (in label order), k, mu."""
        size, start = {}, {}
        for b, n in self.trees(w[:-1]).items():
            for c, m in self.cat.fuse(b, w[-1]):
                start.setdefault(c, {})[b] = size.get(c, 0)
                size[c] = size.get(c, 0) + n * m
        return size, start

    def sectors(self, x: ObjectExpr) -> dict[str, list[int]]:
        """Per sector c that x reaches: the offsets of x's summands in c,
        those of unit_free(x)."""
        got = self._sectors.get(x)
        if got is not None:
            return got
        bare = unit_free(self.cat, x)
        if bare != x:
            out = self._sectors[x] = self.sectors(bare)
            return out
        tables = [self.trees(w) for w in x.summands]
        out = {}
        for c in self._in_label_order({c: None for t in tables for c in t}):
            offs = [0]
            for t in tables:
                offs.append(offs[-1] + t.get(c, 0))
            out[c] = offs
        self._sectors[x] = out
        return out

    def obj_sector_dim(self, x: ObjectExpr, c: str) -> int:
        offs = self.sectors(x).get(c)
        return offs[-1] if offs else 0

    def obj_offsets(self, x: ObjectExpr, c: str) -> list[int]:
        return self.sectors(x).get(c) or [0] * (len(x.summands) + 1)

    # ---- recoupling ---------------------------------------------------

    def split(self, w1: Word, w2: Word) -> dict:
        """Per sector e: (S, split_list) with |canonical t> = sum_s S[s,t] |split s>.

        The split basis entries are (c, i1, d, i2, mu): tree i1 of w1 at c,
        tree i2 of w2 at d, fusion vertex mu of c x d -> e.  When w1 is empty
        or w2 has at most one letter, the canonical trees of w1 w2 are the
        split basis in the same order, and S is None: no identity is stored.
        Otherwise a tree of (w1 v) a, with v = w2[:-1], is split as a tree of
        w1 v, and one F-move recouples (c v) a -> c (v a).
        """
        key = (w1, w2)
        got = self._split.get(key)
        if got is not None:
            return got
        split_lists = self._enumerate_split(w1, w2)
        if not w1 or len(w2) <= 1:
            out = {e: (None, sl) for e, sl in split_lists.items()}
        else:
            cat = self.cat
            v, a = w2[:-1], w2[-1]
            prev, n_wv = self.split(w1, v), self.trees(w1 + v)
            (_, start), (_, start2) = self._blocks(w1 + w2), self._blocks(w2)
            out = {}
            for e, n_e in self.trees(w1 + w2).items():
                split_list = split_lists[e]
                sidx = {t: i for i, t in enumerate(split_list)}
                s = np.zeros((len(split_list), n_e), dtype=complex)
                for b, j in start[e].items():
                    prev_s, prev_list, m = *prev[b], cat.n(b, a, e)
                    for k in range(n_wv[b]):
                        if prev_s is None:  # a one-hot column
                            vec = [(prev_list[k], 1.0)]
                        else:
                            column = prev_s[:, k].tolist()
                            vec = [(t, x) for t, x in zip(prev_list, column) if not abs(x) < 1e-15]  # a NaN stays
                        for mu in range(m):
                            # F^{c d' a}_e at the vertices (nu, mu) of each split tree
                            for (c, i1, dp, i2p, nu), x in vec:
                                for (d, sig, tau), y in _f_row(cat, (c, dp, a, e), (b, nu, mu)):
                                    i2 = start2[d][dp] + i2p * cat.n(dp, a, d) + sig
                                    s[sidx[c, i1, d, i2, tau], j + k * m + mu] += x * y
                out[e] = (s, split_list)
        self._split[key] = out
        return out

    def _enumerate_split(self, w1: Word, w2: Word) -> dict[str, list]:
        """Per sector e of w1 w2: its split basis (c, i1, d, i2, mu), ordered
        by c, then d (in label order), then i1, i2, mu."""
        out: dict[str, list] = {}
        t2 = self.trees(w2)
        for c, n1 in self.trees(w1).items():
            for d, n2 in t2.items():
                for e, m in self.cat.fuse(c, d):
                    out.setdefault(e, []).extend(
                        (c, i1, d, i2, mu) for i1 in range(n1) for i2 in range(n2) for mu in range(m)
                    )
        return self._in_label_order(out)

    def pair_index(self, x: ObjectExpr, y: ObjectExpr) -> dict[str, _SectorIndex]:
        """Per sector e of x (x) y: its split basis grouped by fusion channel,
        that of unit_free(x) (x) unit_free(y)."""
        key = (x, y)
        got = self._pair_index.get(key)
        if got is not None:
            return got
        bare = (unit_free(self.cat, x), unit_free(self.cat, y))
        if bare != key:
            out = self._pair_index[key] = self.pair_index(*bare)
            return out
        offs_x, offs_y = self.sectors(x), self.sectors(y)
        groups: dict[str, dict[tuple[str, str, int], int]] = {}
        size: dict[str, int] = {}
        for c, ox in offs_x.items():
            for d, oy in offs_y.items():
                n = ox[-1] * oy[-1]
                for e, m in self.cat.fuse(c, d):
                    start = size.get(e, 0)
                    for mu in range(m):
                        groups.setdefault(e, {})[(c, d, mu)] = start + mu * n
                    size[e] = start + m * n
        order: dict[str, list[int]] = {e: [] for e in groups}
        recouplings: dict[str, list[tuple[int, int, np.ndarray]]] = {e: [] for e in groups}
        for i, w1 in enumerate(x.summands):
            for j, w2 in enumerate(y.summands):
                for e, (s, split_list) in self.split(w1, w2).items():
                    g, start = groups[e], len(order[e])
                    order[e] += [
                        g[(c, d, mu)] + (offs_x[c][i] + i1) * offs_y[d][-1] + offs_y[d][j] + i2
                        for c, i1, d, i2, mu in split_list
                    ]
                    if s is not None:
                        recouplings[e].append((start, len(order[e]), s))
        out = {
            e: _SectorIndex(size[e], g, np.array(order[e], dtype=np.intp), tuple(recouplings[e]))
            for e, g in self._in_label_order(groups).items()
        }
        self._pair_index[key] = out
        return out


@dataclass(frozen=True, slots=True)
class _SectorIndex:
    """Sector e of an object pair x (x) y, in its split and canonical bases.

    The split basis is grouped by fusion channel (c, d, mu); `groups` gives
    the first row of each group.  Inside a group, row ix * ny + iy holds tree
    ix of x at c and tree iy of y at d, which is the row order of
    kron(f_c, g_d).  The summand pairs (w1, w2) of x (x) y own consecutive
    spans of canonical trees, and entry s of the split list of the pair whose
    span starts at a is row order[a + s] of the grouped split basis.  A span
    (start, stop, S) in `recouplings` is recoupled by the S of
    `Engine.split(w1, w2)` at e; every other span's split list is already its
    canonical basis, so nothing is stored or applied for it.
    """

    dim: int
    groups: dict[tuple[str, str, int], int]
    order: np.ndarray
    recouplings: tuple[tuple[int, int, np.ndarray], ...]

    def cols_to_canonical(self, m: np.ndarray) -> np.ndarray:
        """m . S: the columns of m from the split to the canonical basis."""
        m = m[:, self.order]
        for a, b, s in self.recouplings:
            m[:, a:b] = m[:, a:b] @ s
        return m

    def rows_to_canonical(self, m: np.ndarray) -> np.ndarray:
        """S^dagger . m: the rows of m from the split to the canonical basis."""
        m = m[self.order]
        for a, b, s in self.recouplings:
            m[a:b] = s.conj().T @ m[a:b]
        return m


def engine(cat: CategoryData) -> Engine:
    eng = getattr(cat, "_engine", None)
    if eng is None:
        eng = Engine(cat)
        cat._engine = eng
    return eng


# ---- basic constructors ----------------------------------------------


def _word_obj(w: Word) -> ObjectExpr:
    return ObjectExpr((w,))


def zero_morphism(cat: CategoryData, dom: ObjectExpr, cod: ObjectExpr) -> Morphism:
    return Morphism(cat, dom, cod, {})


def _shared_sectors(cat: CategoryData, dom: ObjectExpr, cod: ObjectExpr):
    """(c, cod offsets, dom offsets) for each sector c that both dom and cod
    reach, in label order."""
    eng = engine(cat)
    dom_sectors = eng.sectors(dom)
    for c, cod_offs in eng.sectors(cod).items():
        dom_offs = dom_sectors.get(c)
        if dom_offs is not None:
            yield c, cod_offs, dom_offs


def identity(cat: CategoryData, x: ObjectExpr) -> Morphism:
    return Morphism(cat, x, x, {c: np.eye(offs[-1], dtype=complex) for c, offs, _ in _shared_sectors(cat, x, x)})


def summand_matrix(cat: CategoryData, dom: ObjectExpr, cod: ObjectExpr, parts: dict) -> Morphism:
    """The morphism dom -> cod given as a matrix of morphisms between summand
    words: parts[(i, j)], from word j of dom to word i of cod, fills that
    pair's rows and columns of each sector block; every other entry is zero."""
    for (i, j), part in parts.items():
        if part.dom.summands != (dom.summands[j],) or part.cod.summands != (cod.summands[i],):
            raise ShapeError(f"part {(i, j)} is not a morphism from word {j} of dom to word {i} of cod")
    blocks = {}
    for c, co, do in _shared_sectors(cat, dom, cod):
        out = np.zeros((co[-1], do[-1]), dtype=complex)
        for (i, j), part in parts.items():
            b = part.blocks.get(c)
            if b is not None and b.size:
                out[co[i] : co[i + 1], do[j] : do[j + 1]] = b
        blocks[c] = out
    return Morphism(cat, dom, cod, blocks)


def inclusion(cat: CategoryData, x: ObjectExpr, i: int) -> Morphism:
    """The isometry embedding the i-th summand word into x."""
    sub = _word_obj(x.summands[i])
    return summand_matrix(cat, sub, x, {(i, 0): identity(cat, sub)})


def hom_basis(cat: CategoryData, dom: ObjectExpr, cod: ObjectExpr) -> list[Morphism]:
    """Elementary-matrix basis of the full Hom space, in sector order."""
    out = []
    for c, cod_offs, dom_offs in _shared_sectors(cat, dom, cod):
        nr, nc = cod_offs[-1], dom_offs[-1]
        for i in range(nr):
            for j in range(nc):
                b = np.zeros((nr, nc), dtype=complex)
                b[i, j] = 1.0
                out.append(Morphism(cat, dom, cod, {c: b}))
    return out


def morphism_vector(f: Morphism) -> np.ndarray:
    """The coordinates of f in `hom_basis(f.dom, f.cod)`: its nonempty sector
    blocks, flattened row-major, in sector order."""
    parts = [f.block(c).reshape(-1) for c, _, _ in _shared_sectors(f.cat, f.dom, f.cod)]
    if not parts:
        return np.zeros(0, dtype=complex)
    return np.concatenate(parts)


def morphism_from_vector(cat: CategoryData, dom: ObjectExpr, cod: ObjectExpr, v) -> Morphism:
    """sum_i v[i] hom_basis(dom, cod)[i], the inverse of `morphism_vector`.

    Coefficients with |v[i]| <= 1e-14 are dropped, and a sector whose
    coefficients are all dropped gets no block."""
    v = np.asarray(v, dtype=complex)
    blocks = {}
    pos = 0
    for c, cod_offs, dom_offs in _shared_sectors(cat, dom, cod):
        nr, nc = cod_offs[-1], dom_offs[-1]
        seg = v[pos : pos + nr * nc]
        pos += nr * nc
        keep = np.abs(seg) > 1e-14
        if keep.any():
            blocks[c] = np.where(keep, seg, 0.0).reshape(nr, nc)
    if pos != v.size:
        raise ShapeError(f"coordinate vector of length {v.size} for a Hom space of dimension {pos}")
    return Morphism(cat, dom, cod, blocks)


def random_morphism(cat: CategoryData, dom: ObjectExpr, cod: ObjectExpr, rng: np.random.Generator) -> Morphism:
    blocks = {}
    for c, cod_offs, dom_offs in _shared_sectors(cat, dom, cod):
        nr, nc = cod_offs[-1], dom_offs[-1]
        blocks[c] = rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc))
    return Morphism(cat, dom, cod, blocks)


# ---- composition and monoidal product --------------------------------


def compose(g: Morphism, f: Morphism) -> Morphism:
    if f.cod != g.dom:
        raise ShapeError("compose: codomain/domain mismatch")
    blocks = {}
    for c in set(f.blocks) & set(g.blocks):
        b = g.blocks[c] @ f.blocks[c]
        blocks[c] = b
    return Morphism(f.cat, f.dom, g.cod, blocks)


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """The monoidal product f (x) g, one Kronecker block per fusion channel.

    In each sector e,

        (f (x) g)_e = S_cod^dagger . blockdiag_(c,d,mu) kron(f_c, g_d) . S_dom

    where f_c, g_d are whole sector blocks, the block of channel (c, d, mu)
    sits on that channel's group of the split bases of f.cod (x) g.cod and
    f.dom (x) g.dom (`Engine.pair_index`), and S recouples a split basis to
    the canonical one.  S acts only on the summand pairs that need an F-move;
    on the others (`Engine.split` gives S None) the split basis is already
    canonical and is only reordered.  The unit is strict (words concatenate),
    so a factor 1 -> 1 only scales the other one.
    """
    if g.dom.summands == _UNIT_WORDS and g.cod.summands == _UNIT_WORDS:
        return g.scalar() * f
    if f.dom.summands == _UNIT_WORDS and f.cod.summands == _UNIT_WORDS:
        return f.scalar() * g
    eng = engine(f.cat)
    dom_index = eng.pair_index(f.dom, g.dom)
    cod_index = eng.pair_index(f.cod, g.cod)
    blocks: dict[str, np.ndarray] = {}
    for e, cod_e in cod_index.items():
        dom_e = dom_index.get(e)
        if dom_e is None:
            continue
        mid = np.zeros((cod_e.dim, dom_e.dim), dtype=complex)
        for (c, d, mu), r in cod_e.groups.items():
            k = dom_e.groups.get((c, d, mu))
            fc = f.blocks.get(c)
            gd = g.blocks.get(d)
            if k is not None and fc is not None and gd is not None:
                nr, nc = fc.shape[0] * gd.shape[0], fc.shape[1] * gd.shape[1]
                # kron(fc, gd), without np.kron's overhead on small blocks
                mid[r : r + nr, k : k + nc] = (fc[:, None, :, None] * gd[None, :, None, :]).reshape(nr, nc)
        blocks[e] = cod_e.rows_to_canonical(dom_e.cols_to_canonical(mid))
    return Morphism(f.cat, f.dom @ g.dom, f.cod @ g.cod, blocks)


# ---- braiding --------------------------------------------------------


def braiding(cat: CategoryData, x: ObjectExpr, y: ObjectExpr, sign: str = "+") -> Morphism:
    """The braiding x (x) y -> y (x) x, one R-move per fusion channel; sign
    '-' gives the opposite braiding.  Tree pair (i, j) of channel (c, d, mu)
    of x (x) y at e goes to tree pair (j, i) of channel (d, c, nu) of
    y (x) x with coefficient R^{cd}_e[nu, mu], read from the R-move table
    (`_r_col`), in the split bases of `Engine.pair_index`, recoupled as in
    `tensor`: natural for any unitary F and R, and the identity with a unit
    factor."""
    if sign not in ("+", "-"):
        raise ValueError(f"braiding sign must be '+' or '-', not {sign!r}")
    eng = engine(cat)
    x_sectors, y_sectors = eng.sectors(x), eng.sectors(y)
    cod_index = eng.pair_index(y, x)
    blocks: dict[str, np.ndarray] = {}
    for e, dom_e in eng.pair_index(x, y).items():
        cod_e = cod_index[e]
        rows, cols, coeffs = [], [], []
        for (c, d, mu), k in dom_e.groups.items():
            nx, ny = x_sectors[c][-1], y_sectors[d][-1]
            # column k + i ny + j holds trees (i, j); row j nx + i of a y (x) x group
            for nu, coeff in _r_col(cat, (c, d, e), sign, mu):
                r = cod_e.groups[(d, c, nu)]
                rows += [r + j * nx + i for i in range(nx) for j in range(ny)]
                cols += range(k, k + nx * ny)
                coeffs += [coeff] * (nx * ny)
        mid = np.zeros((cod_e.dim, dom_e.dim), dtype=complex)
        mid[rows, cols] = coeffs
        blocks[e] = cod_e.rows_to_canonical(dom_e.cols_to_canonical(mid))
    return Morphism(cat, x @ y, y @ x, blocks)


# ---- standard pairs, traces, rotations -------------------------------


@dataclass
class StandardPair:
    conj: ObjectExpr
    r: Morphism
    rbar: Morphism


def _word_pair(cat: CategoryData, w: Word) -> tuple[Morphism, Morphism]:
    """The standard pair (r: 1 -> wbar w, rbar: 1 -> w wbar) of a word: the
    blocks of the unit-free word's pair, placed on w's objects."""
    eng = engine(cat)
    got = eng._word_pair.get(w)
    if got is not None:
        return got
    unit_obj = ObjectExpr.unit()
    bare = unit_free(cat, w)
    if bare != w:
        (r, rbar), wbar = _word_pair(cat, bare), conj_word(cat, w)
        r = Morphism(cat, unit_obj, _word_obj(wbar + w), r.blocks)
        rbar = Morphism(cat, unit_obj, _word_obj(w + wbar), rbar.blocks)
    elif len(w) == 0:
        r = rbar = identity(cat, unit_obj)
    elif len(w) == 1:
        a = w[0]
        abar = cat.dual[a]
        d = cat.dims[a]
        # the zig-zags of r = rbar = sqrt(d): d F^{a abar a}_a[0, 0], d conj(F^{abar a abar}_abar[0, 0])
        zeta = d * complex(cat.fmat(a, abar, a, a)[0, 0])
        if abs(zeta) < 1e-12:
            raise ConjugacyError(f"zig-zag vanishes for label {a!r}")
        phi = 1.0 / zeta
        if abs(abs(phi) - 1.0) > 1e2 * cat.tol:
            raise ConjugacyError(f"no unimodular conjugacy phase for {a!r}: |phi| = {abs(phi)}")
        if abs(d * phi * np.conj(cat.fmat(abar, a, abar, abar)[0, 0]) - 1.0) > 1e2 * cat.tol:
            raise ConjugacyError(f"conjugacy relations unsolvable for {a!r}")
        root = np.array([[np.sqrt(d)]], dtype=complex)
        r = Morphism(cat, unit_obj, _word_obj((abar, a)), {cat.unit: root})
        rbar = Morphism(cat, unit_obj, _word_obj((a, abar)), {cat.unit: phi * root})
    else:
        v, a = w[:-1], (w[-1],)
        rv, rvbar = _word_pair(cat, v)
        ra, rabar = _word_pair(cat, a)
        abar_obj = _word_obj(conj_word(cat, a))
        vbar_obj = _word_obj(conj_word(cat, v))
        r = compose(tensor(tensor(identity(cat, abar_obj), rv), identity(cat, _word_obj(a))), ra)
        rbar = compose(tensor(tensor(identity(cat, _word_obj(v)), rabar), identity(cat, vbar_obj)), rvbar)
    eng._word_pair[w] = (r, rbar)
    return r, rbar


def standard_pair(cat: CategoryData, x: ObjectExpr) -> StandardPair:
    """r = sum_i (wbar_i (x) w_i) r_i: the pair of each summand word w_i sits
    at summand i * n + i of xbar (x) x (and of x (x) xbar for rbar)."""
    xbar = conj_object(cat, x)
    n = len(x.summands)
    pairs = [_word_pair(cat, w) for w in x.summands]
    r = summand_matrix(cat, ObjectExpr.unit(), xbar @ x, {(i * n + i, 0): rw for i, (rw, _) in enumerate(pairs)})
    rbar = summand_matrix(cat, ObjectExpr.unit(), x @ xbar, {(i * n + i, 0): rb for i, (_, rb) in enumerate(pairs)})
    return StandardPair(conj=xbar, r=r, rbar=rbar)


def left_trace(cat: CategoryData, f: Morphism, x: ObjectExpr, rest_dom: ObjectExpr, rest_cod: ObjectExpr) -> Morphism:
    """Partial trace over the left factor x of f in Hom(x rest_dom, x rest_cod)."""
    pair = standard_pair(cat, x)
    idb = identity(cat, rest_dom)
    idc = identity(cat, rest_cod)
    idxbar = identity(cat, pair.conj)
    return compose(
        tensor(pair.r.adjoint(), idc),
        compose(tensor(idxbar, f), tensor(pair.r, idb)),
    )


def right_trace(cat: CategoryData, f: Morphism, x: ObjectExpr, rest_dom: ObjectExpr, rest_cod: ObjectExpr) -> Morphism:
    """Partial trace over the right factor x of f in Hom(rest_dom x, rest_cod x)."""
    pair = standard_pair(cat, x)
    idb = identity(cat, rest_dom)
    idc = identity(cat, rest_cod)
    idxbar = identity(cat, pair.conj)
    return compose(
        tensor(idc, pair.rbar.adjoint()),
        compose(tensor(f, idxbar), tensor(idb, pair.rbar)),
    )


def trace(cat: CategoryData, f: Morphism) -> complex:
    """Standard trace of an endomorphism, sum_c d_c tr(f_c) over its sector
    blocks: the canonical trees of each sector are an orthonormal basis of
    isometries, and the trace is additive over them (Longo-Roberts)."""
    if f.dom != f.cod:
        raise ShapeError("trace requires an endomorphism")
    return complex(sum(cat.dims[c] * np.trace(b) for c, b in f.blocks.items()))


# ---- numeric helpers on endomorphisms --------------------------------


def _spectra(f: Morphism):
    """(c, eigenvalues, eigenvectors) of (b + b*)/2 for the block b of the
    endomorphism f in each sector c of f.dom, in label order; a sector
    without a block reads as zero."""
    for c in engine(f.cat).sectors(f.dom):
        b = f.block(c)
        yield c, *np.linalg.eigh((b + b.conj().T) / 2.0)


def endo_function(f: Morphism, fn) -> Morphism:
    """Apply a real spectral function to a self-adjoint endomorphism."""
    blocks = {c: vecs @ np.diag(fn(vals)) @ vecs.conj().T for c, vals, vecs in _spectra(f)}
    return Morphism(f.cat, f.dom, f.cod, blocks)


def endo_power(f: Morphism, p: float) -> Morphism:
    """f^p on the eigenvalues above 1e-12; the rest map to 0."""

    def fn(vals):
        out = np.zeros_like(vals)
        mask = vals > 1e-12
        out[mask] = vals[mask] ** p
        return out

    return endo_function(f, fn)


def range_isometry(cat: CategoryData, p: Morphism) -> tuple[ObjectExpr, Morphism]:
    """Split a projection p = s s*: returns (range object, isometry s).

    The range object is a sum of single-letter words, one per eigenvalue of
    p above 1/2, in sector label order.
    """
    words = []
    cols: dict[str, np.ndarray] = {}
    for c, vals, vecs in _spectra(p):
        rank = int(np.sum(vals > 0.5))
        if rank:
            words.extend([(c,)] * rank)
            cols[c] = vecs[:, np.argsort(-vals)[:rank]]
    sub = ObjectExpr.from_words(words)
    return sub, Morphism(cat, sub, p.dom, cols)
