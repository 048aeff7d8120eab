"""Seeded inputs for the benchmark: Z_N pointed categories and vertex gauge
transforms of multiplicity-free category dicts.

Everything here produces plain category dicts in the qcat JSON schema; the
program under test only ever sees these dicts or files written from them.
"""
from __future__ import annotations

import cmath
import math
import random


def _complex_entry(key_name, key, mat):
    return {
        key_name: list(key),
        "re": [[v.real for v in row] for row in mat],
        "im": [[v.imag for v in row] for row in mat],
    }


def zn_category(n: int) -> dict:
    """Pointed Z_N category with trivial F and the bicharacter braiding
    R^{ab} = exp(2 pi i ab / N); modular for odd N.

    Labels are z0 (unit), z1, ..., z{N-1}.  Every F-symbol whose legs are all
    non-unit is listed explicitly: qcat rejects a missing one with
    SchemaError, and a gauge transform needs it to act on.
    """
    if n < 2 or n % 2 == 0:
        raise ValueError("zn_category needs an odd N >= 3")
    lab = [f"z{k}" for k in range(n)]
    fusion = [[lab[a], lab[b], lab[(a + b) % n], 1] for a in range(n) for b in range(n)]
    f_entries = [
        _complex_entry("abc_d", (lab[a], lab[b], lab[c], lab[(a + b + c) % n]), [[1 + 0j]])
        for a in range(1, n)
        for b in range(1, n)
        for c in range(1, n)
    ]
    r_entries = [
        _complex_entry(
            "ab_c", (lab[a], lab[b], lab[(a + b) % n]), [[cmath.exp(2j * math.pi * a * b / n)]]
        )
        for a in range(1, n)
        for b in range(1, n)
    ]
    return {
        "labels": lab,
        "dual": {lab[a]: lab[(-a) % n] for a in range(n)},
        "fusion": fusion,
        "F": f_entries,
        "R": r_entries,
        "tol": 1e-9,
    }


def gauge_transform(data: dict, seed: int) -> dict:
    """Apply a seeded vertex gauge transform to a multiplicity-free category.

    Every fusion vertex (a, b -> c) with a and b away from the unit gets a
    phase u; vertices with a unit leg keep u = 1, so the canonical gauge
    (unit-leg F and R are the identity) is preserved.  The symbols change as

        F^{abc}_d[e, f] -> F^{abc}_d[e, f] u^{ab}_e u^{ec}_d / (u^{bc}_f u^{af}_d)
        R^{ab}_c        -> R^{ab}_c u^{ab}_c / u^{ba}_c

    which leaves every gauge invariant (dims, twists, S, T, Z, module
    counts) unchanged.  The input dict is not modified.
    """
    unit = data["labels"][0]
    # qcat's canonical label order, which fixes the F-symbol rows and columns
    labels = [unit] + sorted(l for l in data["labels"] if l != unit)
    fusion = set()
    for a, b, c, m in data["fusion"]:
        if int(m) > 1:
            raise ValueError("gauge_transform needs a multiplicity-free category")
        if int(m):
            fusion.add((a, b, c))
    rng = random.Random(seed)
    phase = {}
    for a, b, c in sorted(fusion):
        if unit in (a, b):
            phase[(a, b, c)] = 1.0 + 0j
        else:
            phase[(a, b, c)] = cmath.exp(2j * math.pi * rng.random())

    def rows(a, b, c, d):
        return [e for e in labels if (a, b, e) in fusion and (e, c, d) in fusion]

    def cols(a, b, c, d):
        return [f for f in labels if (b, c, f) in fusion and (a, f, d) in fusion]

    out = dict(data)
    f_out = []
    for entry in data.get("F", []):
        if "rows" in entry or "cols" in entry:
            raise ValueError("gauge_transform expects F-symbols in canonical order")
        a, b, c, d = entry["abc_d"]
        r_lab, c_lab = rows(a, b, c, d), cols(a, b, c, d)
        mat = [
            [
                complex(re, im)
                * phase[(a, b, e)] * phase[(e, c, d)]
                / (phase[(b, c, f)] * phase[(a, f, d)])
                for f, re, im in zip(c_lab, row_re, row_im)
            ]
            for e, row_re, row_im in zip(r_lab, entry["re"], entry["im"])
        ]
        f_out.append(_complex_entry("abc_d", (a, b, c, d), mat))
    r_out = []
    for entry in data.get("R", []):
        a, b, c = entry["ab_c"]
        z = complex(entry["re"][0][0], entry["im"][0][0])
        r_out.append(_complex_entry("ab_c", (a, b, c), [[z * phase[(a, b, c)] / phase[(b, a, c)]]]))
    out["F"] = f_out
    out["R"] = r_out
    return out
