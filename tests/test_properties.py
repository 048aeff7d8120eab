from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcat.category import build_category, deligne_product, validate_category
from qcat.cli import run
from qcat.fixtures import ising_category
from qcat.morphisms import ObjectExpr, compose, engine, identity, left_trace, random_morphism, tensor, trace
from tests_helpers import reference_left_trace, rep_a4_category, right_trace

CAT = build_category(ising_category())
X = ObjectExpr.word("sig", "sig")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=st.complex_numbers(max_magnitude=10, allow_nan=False))
def test_trace_linear_and_cyclic(seed, a):
    rng = np.random.default_rng(seed)
    f = random_morphism(CAT, X, X, rng)
    g = random_morphism(CAT, X, X, rng)
    assert abs(trace(CAT, a * f + g) - (a * trace(CAT, f) + trace(CAT, g))) < 1e-8 * (1 + abs(a))
    assert abs(trace(CAT, compose(f, g)) - trace(CAT, compose(g, f))) < 1e-8


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_trace_multiplicative_over_tensor(seed):
    rng = np.random.default_rng(seed)
    f = random_morphism(CAT, X, X, rng)
    g = random_morphism(CAT, X, X, rng)
    lhs = trace(CAT, tensor(f, g))
    rhs = trace(CAT, f) * trace(CAT, g)
    assert abs(lhs - rhs) < 1e-7 * (1.0 + abs(rhs))


def _trace_categories() -> dict:
    from test_category import vertex_gauge

    golden_z3 = Path(__file__).parent / "golden" / "gauged_z3" / "category.json"
    return {
        "gauged_ising": vertex_gauge(CAT, 11),
        "gauged_z3": build_category(json.loads(golden_z3.read_text(encoding="utf-8"))),
        "ising_x_ising_opp": deligne_product(CAT, CAT, reverse_right=True),
        "rep_a4": rep_a4_category(),
    }


TRACE_CATS = _trace_categories()


@st.composite
def endomorphisms(draw):
    """A random endomorphism of a sum of one or two words of two or three letters."""
    cat = TRACE_CATS[draw(st.sampled_from(sorted(TRACE_CATS)))]
    word = st.lists(st.sampled_from(cat.labels), min_size=2, max_size=3)
    x = ObjectExpr.from_words(draw(st.lists(word, min_size=1, max_size=2)))
    return cat, random_morphism(cat, x, x, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=60, deadline=None)
@given(endomorphisms())
def test_block_trace_matches_the_standard_pair_traces(case):
    """The block trace sum_c d_c tr(f_c) equals the traces through the standard
    pair of the object, on the left and on the right."""
    cat, f = case
    u = ObjectExpr.unit()
    got = trace(cat, f)
    for ref in (reference_left_trace(cat, f, f.dom, u, u), right_trace(cat, f, f.dom, u, u)):
        want = ref.scalar()
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@st.composite
def partial_trace_cases(draw):
    """A category of `TRACE_CATS` and three objects x, y, z, each a sum of one
    or two words of one or two letters, with a seeded generator."""
    cat = TRACE_CATS[draw(st.sampled_from(sorted(TRACE_CATS)))]
    word = st.lists(st.sampled_from(cat.labels), min_size=1, max_size=2)
    x, y, z = (ObjectExpr.from_words(draw(st.lists(word, min_size=1, max_size=2))) for _ in range(3))
    return cat, x, y, z, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(partial_trace_cases())
def test_partial_traces_split_off_and_commute_with_the_rest(case):
    """left_trace(f (x) g) = Tr(f) g = right_trace(g (x) f), and
    left_trace((1 (x) a) h) = a left_trace(h), for f: x -> x, g: y -> z,
    h: x y -> x z and a: z -> y."""
    cat, x, y, z, rng = case
    f, g = random_morphism(cat, x, x, rng), random_morphism(cat, y, z, rng)
    h, a = random_morphism(cat, x @ y, x @ z, rng), random_morphism(cat, z, y, rng)
    want = trace(cat, f) * g
    tol = 1e-11 * max(1.0, want.max_abs())
    assert (left_trace(cat, tensor(f, g), x, y, z) - want).max_abs() <= tol
    assert (right_trace(cat, tensor(g, f), x, y, z) - want).max_abs() <= tol
    got = left_trace(cat, compose(tensor(identity(cat, x), a), h), x, y, y)
    want = compose(a, left_trace(cat, h, x, y, z))
    assert (got - want).max_abs() <= 1e-11 * max(1.0, want.max_abs())


@settings(max_examples=40, deadline=None)
@given(partial_trace_cases())
def test_left_trace_matches_the_standard_pair_reference(case):
    """The partial trace read off the split bases equals
    (r* (x) 1)(1 (x) f)(r (x) 1) through the standard pair of x, for
    f: x y -> x z."""
    cat, x, y, z, rng = case
    f = random_morphism(cat, x @ y, x @ z, rng)
    want = reference_left_trace(cat, f, x, y, z)
    assert (left_trace(cat, f, x, y, z) - want).max_abs() <= 1e-11 * max(1.0, want.max_abs())


@pytest.mark.parametrize(
    "name,x,y,z",
    [
        ("gauged_ising", [("sig",), ("sig", "eps")], [("sig",), ("eps", "sig")], [("eps", "sig"), ()]),
        # 1 and 2 are dual, and neither is self-dual
        ("gauged_z3", [("1",), ("1", "1")], [("2",), ("1", "1")], [("1", "2"), ("2", "2")]),
        # the channels 3 x 3 -> 3 have multiplicity 2
        ("rep_a4", [("3",), ("1p", "3")], [("3",), ("1pp", "3")], [("3", "3"), ("1p",)]),
    ],
)
def test_left_trace_matches_the_reference_on_pinned_objects(name, x, y, z):
    """The block contraction against `reference_left_trace` within 1e-11
    relative, on rest objects of two summands; those of y share a sector."""
    cat = TRACE_CATS[name]
    x, y, z = (ObjectExpr.from_words(w) for w in (x, y, z))
    assert any(0 < offs[1] < offs[2] for offs in engine(cat).sectors(y).values())
    rng = np.random.default_rng(27)
    for _ in range(3):
        f = random_morphism(cat, x @ y, x @ z, rng)
        want = reference_left_trace(cat, f, x, y, z)
        assert (left_trace(cat, f, x, y, z) - want).max_abs() <= 1e-11 * max(1.0, want.max_abs())


def test_rep_a4_is_a_category_with_a_multiplicity_two_channel():
    cat = TRACE_CATS["rep_a4"]
    assert validate_category(cat).ok
    assert cat.n("3", "3", "3") == 2
    x = ObjectExpr.word("3")
    assert ("3", "3", 1) in engine(cat).pair_index(x, x)["3"].groups


# ---- malformed category documents -------------------------------------------

def _category_documents() -> dict:
    from test_category import gauged_z3_data

    return {"ising": ising_category(), "gauged_z3": gauged_z3_data()}


DOCUMENTS = _category_documents()
LABEL_SITES = ("labels", "dual", "fusion", "F", "R")
WRONG_TYPES = {
    "list": [None, True, 3, 2.5, "x", {}, {"k": 1}],
    "dual": [None, True, 3, "x", [], [["1", "1"]]],
    "tol": [None, True, "x", "1e-9", [], [1e-9], {}, float("nan"), float("inf"), 0, -1],
    "entry": [None, 3, "x", [1], []],
    "matrix": [None, True, "x", {}, {"k": 1}],
}


def _set_label(doc: dict, site: str, draw, value) -> None:
    """Replace one label occurrence at `site` by `value`."""
    if site == "labels":
        doc["labels"][draw(st.integers(0, len(doc["labels"]) - 1))] = value
    elif site == "dual":
        key = draw(st.sampled_from(sorted(doc["dual"])))
        if draw(st.booleans()) and isinstance(value, str):
            doc["dual"][value] = doc["dual"].pop(key)
        else:
            doc["dual"][key] = value
    else:
        name, size = {"fusion": (None, 3), "F": ("abc_d", 4), "R": ("ab_c", 3)}[site]
        entry = draw(st.sampled_from(doc[site]))
        key = entry if name is None else entry[name]
        key[draw(st.integers(0, size - 1))] = value


@st.composite
def malformed_categories(draw):
    """A copy of the Ising or gauged Z3 category document with one defect."""
    doc = json.loads(json.dumps(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))]))
    kind = draw(st.sampled_from(
        ["top-level", "drop key", "drop entry", "wrong type", "unhashable label", "unknown label", "non-finite", "wrong size"]
    ))
    if kind == "top-level":
        return draw(st.sampled_from([[doc], 3, "ising", None, []]))
    if kind == "drop key":
        del doc[draw(st.sampled_from(LABEL_SITES))]
    elif kind == "drop entry":
        site = draw(st.sampled_from(["F", "R"]))
        entries = doc[site]
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        if draw(st.booleans()):
            entries.remove(entry)
        else:
            del entry[draw(st.sampled_from(["abc_d" if site == "F" else "ab_c", "re", "im"]))]
    elif kind == "wrong type":
        where = draw(st.sampled_from(["labels", "fusion", "F", "R", "dual", "tol", "entry", "matrix"]))
        if where in ("labels", "fusion", "F", "R"):
            doc[where] = draw(st.sampled_from(WRONG_TYPES["list"]))
        elif where in ("dual", "tol"):
            doc[where] = draw(st.sampled_from(WRONG_TYPES[where]))
        else:
            entries = doc[draw(st.sampled_from(["F", "R"]))]
            i = draw(st.integers(0, len(entries) - 1))
            if where == "entry":
                entries[i] = draw(st.sampled_from(WRONG_TYPES["entry"]))
            else:
                entries[i][draw(st.sampled_from(["re", "im"]))] = draw(st.sampled_from(WRONG_TYPES["matrix"]))
    elif kind in ("unhashable label", "unknown label"):
        site = draw(st.sampled_from(LABEL_SITES))
        label = draw(st.sampled_from(doc["labels"]))
        value = draw(st.sampled_from([[label], {"k": label}])) if kind == "unhashable label" else "zz"
        _set_label(doc, site, draw, value)
    else:
        entry = draw(st.sampled_from(doc["F"] + doc["R"]))
        part = draw(st.sampled_from(["re", "im"]))
        if kind == "non-finite":
            row = entry[part][draw(st.integers(0, len(entry[part]) - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        elif draw(st.booleans()):
            entry["re"].append(entry["re"][0])
            entry["im"].append(entry["im"][0])
        else:
            entry[part][0].append(0.0)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=malformed_categories())
def test_malformed_category_document_exits_two(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cat.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["validate", path])
    assert code == 2, (code, err.getvalue())
    assert "ParseError" in err.getvalue() or "SchemaError" in err.getvalue()


# ---- malformed Q-system documents -------------------------------------------

def _ising_q_document() -> dict:
    from qcat.frobenius import ising_q, qsystem_as_json

    return qsystem_as_json(ising_q(CAT))


Q_DOCUMENT = _ising_q_document()
MORPHISMS = ("w", "x")
BLOCK_KEYS = ("sector", "rows", "cols", "re", "im")
Q_WRONG_TYPES = {
    # an empty list or object is the zero object or a morphism without blocks: well formed
    "object": [None, True, 3, 2.5, "x", {"k": 1}, [3], [None], [[None]]],
    "morphism": [None, True, 3, "x", [], [1], {}],
    "blocks": [None, True, 3, "x", {"k": 1}],
    "block": [None, 3, "x", [1], [], {}],
    "size": [None, "x", [], {}, [1]],
    "matrix": [None, True, "x", {}, {"k": 1}],
}


def _words(doc: dict, draw) -> list:
    """One of the label lists of the document: theta, or the dom or cod of w or x."""
    site = draw(st.sampled_from(["theta"] + [(m, end) for m in MORPHISMS for end in ("dom", "cod")]))
    return doc[site] if site == "theta" else doc[site[0]][site[1]]


@st.composite
def malformed_qsystems(draw):
    """A copy of the ising_q Q-system document with one defect."""
    doc = json.loads(json.dumps(Q_DOCUMENT))
    kind = draw(st.sampled_from(
        ["top-level", "drop key", "wrong type", "unhashable label", "unknown label", "non-finite", "wrong size"]
    ))
    if kind == "top-level":
        return draw(st.sampled_from([[doc], 3, "ising_q", None, []]))
    morphism = doc[draw(st.sampled_from(MORPHISMS))]
    i = draw(st.integers(0, len(morphism["blocks"]) - 1))
    block = morphism["blocks"][i]
    if kind == "drop key":
        where, keys = draw(st.sampled_from([(doc, ("theta",) + MORPHISMS), (morphism, ("dom", "cod", "blocks")), (block, BLOCK_KEYS)]))
        del where[draw(st.sampled_from(keys))]
    elif kind == "wrong type":
        where = draw(st.sampled_from(["theta", "morphism", "dom", "cod", "blocks", "block", "rows", "cols", "re", "im"]))
        if where == "theta":
            doc["theta"] = draw(st.sampled_from(Q_WRONG_TYPES["object"]))
        elif where == "morphism":
            doc[draw(st.sampled_from(MORPHISMS))] = draw(st.sampled_from(Q_WRONG_TYPES["morphism"]))
        elif where in ("dom", "cod"):
            morphism[where] = draw(st.sampled_from(Q_WRONG_TYPES["object"]))
        elif where == "blocks":
            morphism["blocks"] = draw(st.sampled_from(Q_WRONG_TYPES["blocks"]))
        elif where == "block":
            morphism["blocks"][i] = draw(st.sampled_from(Q_WRONG_TYPES["block"]))
        else:
            block[where] = draw(st.sampled_from(Q_WRONG_TYPES["size" if where in ("rows", "cols") else "matrix"]))
    elif kind in ("unhashable label", "unknown label"):
        label = draw(st.sampled_from(sorted(CAT.labels)))
        value = draw(st.sampled_from([[label], {"k": label}])) if kind == "unhashable label" else "zz"
        if draw(st.booleans()):
            block["sector"] = value
        else:
            word = draw(st.sampled_from(_words(doc, draw)))
            if word and draw(st.booleans()):
                word[draw(st.integers(0, len(word) - 1))] = value
            else:  # the unit word [] has no label to replace
                word.insert(draw(st.integers(0, len(word))), value)
    elif kind == "non-finite":
        part = block[draw(st.sampled_from(["re", "im"]))]
        row = part[draw(st.integers(0, len(part) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    else:
        grow = draw(st.sampled_from(["rows", "cols", "ragged", "declared"]))
        if grow == "ragged":
            block[draw(st.sampled_from(["re", "im"]))][0].append(0.0)
        elif grow == "declared":
            block[draw(st.sampled_from(["rows", "cols"]))] += 1
        else:
            # the size and the entries grown together: the block no longer fits its sector
            if grow == "rows":
                block["re"].append(list(block["re"][0]))
                block["im"].append(list(block["im"][0]))
            else:
                for row in block["re"] + block["im"]:
                    row.append(0.0)
            block[grow] += 1
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=malformed_qsystems())
def test_malformed_qsystem_document_exits_two(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "q.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["check-qsystem", "ising", path])
    assert code == 2, (code, err.getvalue())
    assert "ParseError" in err.getvalue()
