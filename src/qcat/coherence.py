"""The pentagon and hexagon checks of a category as one batched array kernel.

Every F^{abc}_d, read through `fmat` once per admissible key, becomes a flat
move table: per matrix entry, an int64 mixed-radix code of its key and row,
the parts of its column and its value.  Each R^{ab}_c, read through `rmat`,
becomes the same kind of table, once per braiding sign.  Each side of an
identity is a chain of sorted joins (`_matches`) on these codes, applied to
every tree of its source basis at once, and the two sides are summed per
(source tree, target tree).  The fusion-tree engine is not used: it assumes
the pentagon.  Conventions are those of `qcat.category`.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError

if TYPE_CHECKING:
    from .category import CategoryData


def _matches(codes: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every entry of the sorted `codes` equal to each query code, in query
    order: the query index and the entry index of each match."""
    lo = codes.searchsorted(q, "left")
    count = codes.searchsorted(q, "right") - lo
    qi = np.arange(len(q)).repeat(count)
    return qi, np.arange(len(qi)) + (lo - count.cumsum() + count)[qi]


def _runs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct value of the sorted `codes`, its first position and its count."""
    start = np.flatnonzero(np.diff(codes, prepend=-1))
    return codes[start], start, np.diff(start, append=len(codes))


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For blocks of the given sizes laid end to end: the block of each
    position and the position within it."""
    block = np.arange(len(counts)).repeat(counts)
    return block, np.arange(len(block)) - (counts.cumsum() - counts)[block]


def _push(moves: tuple, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every move of the table `moves` out of each queried code: the query
    index, the target parts and the coefficient of each."""
    code, to, val = moves
    qi, ei = _matches(code, q)
    return qi, to[:, ei], val[ei]


def _tree_gaps(keys: np.ndarray, vals: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """|sum of vals| per distinct key, a tree index times `span` plus a target
    code: the tree index and the gap of each; a NaN stays."""
    order = keys.argsort()
    uniq, start, _ = _runs(keys[order])
    tree, _ = np.divmod(uniq, span)
    return tree, np.abs(np.add.reduceat(vals[order], start))


def unitarity_residuals(vals: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """max |M M^dagger - 1| of each rows[i] x cols[i] matrix M, laid end to end
    in `vals` row by row; inf for a non-square one.  The matrices of each size
    are one stacked product."""
    size = rows * cols
    start = size.cumsum() - size  # each matrix's first entry
    out = np.full(len(size), np.inf)
    square = np.flatnonzero(rows == cols)
    by_size = square[rows[square].argsort()]
    for s, lo, count in zip(*_runs(rows[by_size])):
        sel = by_size[lo : lo + count]
        m = vals[start[sel, None] + np.arange(s * s)].reshape(-1, s, s)
        out[sel] = np.abs(m @ m.conj().swapaxes(1, 2) - np.eye(s)).max(axis=(1, 2))
    return out


class _Kernel:
    """A category's F- and R-moves as flat arrays in label indices, and the
    pentagon and hexagon residuals they give.

    A move table (code, to, val) holds one entry per matrix entry, sorted by
    code: the mixed-radix code of its key and source basis vector (radix n
    for a label, m for a multiplicity index), the parts of its target basis
    vector (one row per part) and its coefficient.  An F code (a, b, c, d; e,
    alpha, beta) stands for row (e, alpha, beta) of F^{abc}_d, an R code (a,
    b, c; i) for column i of R^{ab}_c."""

    def __init__(self, cat: CategoryData, fmats: list):
        """`fmats` holds F^{key} for each admissible key, in order."""
        idx = {l: i for i, l in enumerate(cat.labels)}
        channels = sorted(cat.fusion, key=lambda abc: [idx[x] for x in abc])
        n_ab = np.array([cat.fusion[abc] for abc in channels])
        n_ba = np.array([cat.n(b, a, c) for a, b, c in channels])
        abc = np.array([[idx[x] for x in key] for key in channels]).T
        self.n, self.m = len(cat.labels), int(n_ab.max())
        # every vertex (x, y, z, k), k < N_{xy}^z, in lexicographic order
        self.vertices = np.vstack([abc.repeat(n_ab, 1), _expand(n_ab)[1]])
        x, y, z, k = self.vertices

        def by_code(parts: list) -> np.ndarray:
            parts = np.stack(parts)
            return parts[:, self.fcode(*parts).argsort()]

        # F rows (a, b, c, d; e, alpha, beta): (a b -> e, alpha), (e c -> d, beta);
        # columns (a, b, c, d; f, mu, nu): (b c -> f, mu), (a f -> d, nu)
        i, j = _matches(x, z)
        self.rows = by_code([x[i], y[i], y[j], z[j], z[i], k[i], k[j]])
        by_y = y.argsort()
        i, j = _matches(y[by_y], z)
        j = by_y[j]
        cols = by_code([x[j], x[i], y[i], z[j], z[i], k[i], k[j]])
        keys, row_start, n_rows = _runs(self.fcode(*self.rows[:4], 0, 0, 0))
        col_keys, col_start, n_cols = _runs(self.fcode(*cols[:4], 0, 0, 0))
        sizes = n_rows.tolist()
        shapes = [f.shape for f in fmats]
        if keys.tolist() != col_keys.tolist() or n_cols.tolist() != sizes or shapes != [(s, s) for s in sizes]:
            raise DataError("F-symbol shapes do not match the fusion rules")
        self.row_code = self.fcode(*self.rows)
        self.row_key = np.arange(len(keys)).repeat(n_rows)
        size = n_rows * n_rows
        key, pos = _expand(size)
        row, col = np.divmod(pos, n_rows[key])
        fval = np.concatenate([np.ravel(f) for f in fmats]).astype(complex)
        self.f = (self.row_code[row_start[key] + row], cols[4:, col_start[key] + col], fval)
        self.f_unitarity = unitarity_residuals(fval, n_rows, n_rows)
        # R^{xy}_z column i moves to rows j; the - braiding (R^{yx}_z)^dagger swaps x, y and i, j
        key, pos = _expand(n_ab * n_ba)
        ri, rj = np.divmod(pos, n_ba[key])
        rval = np.concatenate([cat.rmat(*ch).T.ravel() for ch in channels]).astype(complex)
        rx, ry, rz = abc[:, key]
        minus = self.rcode(ry, rx, rz, rj)
        order = minus.argsort()
        self.r = {
            "+": (self.rcode(rx, ry, rz, ri), rj[None], rval),
            "-": (minus[order], ri[None, order], rval[order].conj()),
        }

    def fcode(self, a, b, c, d, e, alpha, beta):
        n, m = self.n, self.m
        return (((((a * n + b) * n + c) * n + d) * n + e) * m + alpha) * m + beta

    def rcode(self, a, b, c, i):
        return ((a * self.n + b) * self.n + c) * self.m + i

    def pentagon(self) -> np.ndarray:
        """The pentagon residual of every (a, b, c, d), in product order: the
        largest gap between the two F-move paths ((ab)c)d -> a(b(cd)) on any
        ((ab)c)d tree (f, alpha, g, beta, e, gamma).  Each tree is pushed down
        F^{abc}_g, F^{ahd}_e, F^{bcd}_l and down F^{fcd}_e, F^{abk}_e, and each
        side summed per (tree, a(b(cd)) tree (k, kappa, l, lambda, tau)).  One
        first label a at a time, so that the join arrays of one a only are alive."""
        n, m, fc, fm = self.n, self.m, self.fcode, self.f
        span = n * m * n * m * m
        out = np.zeros(n**4)
        vx, vy, vz, vk = self.vertices
        for a in range(n):
            lo, hi = np.searchsorted(self.rows[0], [a, a + 1])
            # a tree: a row (f, alpha, beta) of F^{abc}_g and a vertex (g d -> e, gamma)
            i, j = _matches(vx, self.rows[3, lo:hi])
            _, b, c, g, f, al, be = self.rows[:, lo + i]
            d, e, ga = vy[j], vz[j], vk[j]
            # each push gives, per move, the index of the move or tree it continues
            i, (h, mu, nu), x = _push(fm, self.row_code[lo + i])
            j, (l, si, ta), y = _push(fm, fc(a, h, d[i], e[i], g[i], nu, ga[i]))
            i = i[j]
            k, (kk, ka, lam), z = _push(fm, fc(b[i], c[i], d[i], l, h[j], mu[j], si))
            lhs = i[k] * span + (((kk * m + ka) * n + l[k]) * m + lam) * m + ta[k]
            lhs_val = x[j[k]] * y[k] * z
            i, (kk, ka, ta), x = _push(fm, fc(f, c, d, e, g, be, ga))
            j, (l, lam, nu), y = _push(fm, fc(a, b[i], kk, e[i], f[i], al[i], ta))
            rhs = i[j] * span + (((kk[j] * m + ka[j]) * n + l) * m + lam) * m + nu
            tree, gap = _tree_gaps(np.concatenate([lhs, rhs]), np.concatenate([lhs_val, -x[j] * y]), span)
            np.maximum.at(out, ((a * n + b[tree]) * n + c[tree]) * n + d[tree], gap)
        return out

    def hexagon(self, sign: str) -> np.ndarray:
        """The hexagon residual of every admissible (c, a, b, d), in key order,
        for braiding c over a then b, total d: each row (e, alpha, beta) of
        F^{cab}_d is pushed down R^{ca}_e, F^{acb}_d, R^{cb}_g and down
        F^{cab}_d, R^{cf}_d, F^{abc}_d, and each side summed per (row, column
        (g, kappa, nu) of F^{abc}_d)."""
        n, m, fc, fm, rm = self.n, self.m, self.fcode, self.f, self.r[sign]
        span = n * m * m
        c, a, b, d, e, al, be = self.rows
        i, (jj,), x = _push(rm, self.rcode(c, a, e, al))
        j, (g, mu, nu), y = _push(fm, fc(a[i], c[i], b[i], d[i], e[i], jj, be[i]))
        i = i[j]
        k, (ka,), z = _push(rm, self.rcode(c[i], b[i], g, mu))
        lhs = i[k] * span + (g[k] * m + ka) * m + nu[k]
        lhs_val = x[j[k]] * y[k] * z
        i, (f, mu, nu), x = _push(fm, self.row_code)
        j, (jj,), y = _push(rm, self.rcode(c[i], f, d[i], nu))
        i = i[j]
        k, (g, ka, nu), z = _push(fm, fc(a[i], b[i], c[i], d[i], f[j], mu[j], jj))
        rhs = i[k] * span + (g * m + ka) * m + nu
        row, gap = _tree_gaps(np.concatenate([lhs, rhs]), np.concatenate([lhs_val, -x[j[k]] * y[k] * z]), span)
        out = np.zeros(len(self.f_unitarity))
        np.maximum.at(out, self.row_key[row], gap)
        return out


def axiom_residuals(cat: CategoryData, admissible: list) -> tuple[np.ndarray, ...]:
    """The F unitarity residual of each admissible key, the pentagon residual
    of each (a, b, c, d) in product order, and the + and - hexagon residuals
    of each admissible key, from one `fmat` per admissible key and one `rmat`
    per fusion channel."""
    with np.errstate(invalid="ignore"):
        kernel = _Kernel(cat, [cat.fmat(*key) for key in admissible])
        return kernel.f_unitarity, kernel.pentagon(), kernel.hexagon("+"), kernel.hexagon("-")
