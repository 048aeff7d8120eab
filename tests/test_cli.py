from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcat.cli import run


def _capture(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_validate_fixture_exit_zero(capsys):
    assert run(["validate", "ising"]) == 0
    rep = _capture(capsys)
    assert rep["ok"] is True
    assert rep["pentagon"] < 1e-9


def test_usage_error_exit_one(capsys):
    assert run(["no-such-verb"]) == 1
    assert run(["check-qsystem", "ising"]) == 1
    assert run(["boundary", "ising"]) == 1


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["validate", str(bad)]) == 2
    assert run(["validate", str(tmp_path / "missing.json")]) == 2
    assert run(["emit-fixture", "nope", "--dir", str(tmp_path)]) == 2


def _set(*path, value):
    """A damage that sets the entry at `path` of a document to `value`."""

    def damage(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value

    return damage


def _drop_a_row(data):
    for entry in data["F"]:
        if entry["abc_d"] == ["sig", "sig", "sig", "sig"]:
            entry["re"], entry["im"] = entry["re"][:1], entry["im"][:1]


def _short_fusion_row(data):
    data["fusion"][0] = data["fusion"][0][:3]


def _dual_as_list(data):
    data["dual"] = list(data["dual"])


def _nan_r_symbol(data):
    data["R"][0]["re"] = [[float("nan")]]


def _tol_string(data):
    data["tol"] = "abc"


def _tol_list(data):
    data["tol"] = [1]


def _tol_nan(data):
    data["tol"] = float("nan")


def _tol_negative(data):
    data["tol"] = -1


def _f_r_fusion_not_lists(data):
    data["F"] = data["R"] = data["fusion"] = 5


def _list_label_in_f(data):
    data["F"][0]["abc_d"][0] = ["sig"]


def _list_label_in_r(data):
    data["R"][0]["ab_c"][0] = ["sig"]


def _f_on_unknown_labels(data):
    data["F"].append({"abc_d": ["x", "y", "z", "w"], "re": [], "im": []})


def _repeat(*path):
    """A damage that appends a copy of the entry at `path` to the list holding it."""

    def damage(data):
        for key in path[:-1]:
            data = data[key]
        data.append(copy.deepcopy(data[path[-1]]))

    return damage


@pytest.mark.parametrize(
    "damage",
    [
        _drop_a_row, _short_fusion_row, _dual_as_list, _nan_r_symbol,
        _tol_string, _tol_list, _tol_nan, _tol_negative, _f_r_fusion_not_lists,
        _list_label_in_f, _list_label_in_r, _f_on_unknown_labels,
        pytest.param(_set("fusion", 1, 3, value=1.5), id="fractional-multiplicity"),
        pytest.param(_set("fusion", 1, 3, value="1"), id="string-multiplicity"),
        pytest.param(_set("fusion", 1, 3, value=True), id="bool-multiplicity"),
        pytest.param(_repeat("fusion", 1), id="repeated-fusion-rule"),
        pytest.param(_repeat("F", 0), id="repeated-f-entry"),
        pytest.param(_repeat("R", 0), id="repeated-r-entry"),
    ],
)
def test_malformed_category_exit_two(tmp_path, capsys, damage):
    from qcat.fixtures import ising_category

    data = ising_category()
    damage(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["validate", str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[1, 2], 5, "ising"])
def test_category_document_that_is_not_an_object_exit_two(tmp_path, capsys, doc):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_a_label_holding_the_product_separator_exit_two(tmp_path, capsys):
    """`|` joins the factor labels of a product category, so a document's own
    label may not hold it: every verb stops at load with exit 2."""
    from qcat.fixtures import ising_category

    data = ising_category()
    new = {a: f"x{i}|y{i}" for i, a in enumerate(data["labels"])}

    def relabel(v):
        if isinstance(v, dict):
            return {new.get(k, k): relabel(x) for k, x in v.items()}
        if isinstance(v, list):
            return [relabel(x) for x in v]
        return new.get(v, v) if isinstance(v, str) else v

    path = tmp_path / "cat.json"
    path.write_text(json.dumps(relabel(data)))
    for argv in (["validate", str(path)], ["zmatrix", str(path), "trivial"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "'x0|y0'" in err


def test_axiom_failure_exit_three(tmp_path, capsys):
    import numpy as np

    from qcat.category import build_category
    from qcat.fixtures import ising_category
    from qcat.frobenius import QSystem, ising_q, qsystem_as_json

    cat = build_category(ising_category())
    q = ising_q(cat)
    bad = QSystem(cat, q.theta, 2.0 * q.w, q.x)
    qp = tmp_path / "bad_q.json"
    qp.write_text(json.dumps(qsystem_as_json(bad)))
    assert run(["check-qsystem", "ising", str(qp)]) == 3
    capsys.readouterr()


def test_emit_and_check_fixture_files(tmp_path, capsys):
    assert run(["emit-fixture", "ising", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    cat_path = str(tmp_path / "ising.json")
    q_path = str(tmp_path / "ising_q.json")
    assert run(["validate", cat_path]) == 0
    capsys.readouterr()
    assert run(["check-qsystem", cat_path, q_path]) == 0
    rep = _capture(capsys)
    assert rep["ok"] is True
    assert not rep["commutative"]


def test_emit_fixture_into_a_path_under_a_file_is_a_usage_error(tmp_path, capsys):
    """A --dir that cannot be made (its parent is a regular file) gives one
    `qcat: error:` line naming it and exit 1, not a traceback."""
    blocker = tmp_path / "F"
    blocker.write_text("")
    target = str(blocker / "sub")
    assert run(["emit-fixture", "ising", "--dir", target]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("qcat: error:") and target in err[0]


def test_emit_trivial_and_z2(tmp_path, capsys):
    for name in ("trivial", "z2"):
        assert run(["emit-fixture", name, "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert run(["validate", str(tmp_path / f"{name}.json")]) == 0
        capsys.readouterr()
    assert run(["modular", str(tmp_path / "z2.json")]) == 0
    rep = _capture(capsys)
    assert rep["is_modular"] is False


def test_modular_report(capsys):
    assert run(["modular", "ising"]) == 0
    rep = _capture(capsys)
    assert abs(rep["global_dim"] - 4.0) < 1e-9
    assert rep["is_modular"] is True


def test_zmatrix_report(capsys):
    assert run(["zmatrix", "ising", "ising_q"]) == 0
    rep = _capture(capsys)
    assert rep["z"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_modules_and_bimodules(capsys):
    assert run(["modules", "ising", "ising_q"]) == 0
    assert _capture(capsys)["count"] == 3
    assert run(["bimodules", "ising", "trivial", "trivial"]) == 0
    assert _capture(capsys)["count"] == 3


def test_boundary_verb(capsys):
    assert run(["boundary", "ising", "--A", "trivial", "--B", "trivial"]) == 0
    rep = _capture(capsys)
    assert len(rep["bimodules"]) == 3
    assert rep["cross_check"] == "pass"


def test_full_centre_and_canonical(capsys):
    assert run(["full-centre", "ising", "ising_q"]) == 0
    rep = _capture(capsys)
    assert abs(rep["d"] - 2.0) < 1e-9
    assert rep["commutative"] is True
    capsys.readouterr()
    assert run(["canonical", "ising"]) == 0
    rep = _capture(capsys)
    assert abs(rep["d"] - 2.0) < 1e-9


def test_table_format(capsys):
    assert run(["validate", "ising", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "pentagon" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_deterministic_output(capsys):
    assert run(["boundary", "ising", "--A", "trivial", "--B", "trivial", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert run(["boundary", "ising", "--A", "trivial", "--B", "trivial", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_boundary_output_does_not_depend_on_the_hash_seed():
    """Two processes with different string hashes print the same bytes, so no
    float sum follows the order of a set of labels.  One process, as in
    `test_deterministic_output`, cannot see such an order."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "qcat", "boundary", "ising", "--A", "ising_q", "--B", "ising_q"]
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_diff_verb(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    a.write_text(json.dumps({"x": 1.0, "y": [1, 2]}))
    b.write_text(json.dumps({"x": 1.0 + 1e-12, "y": [1, 2]}))
    c.write_text(json.dumps({"x": 2.0, "y": [1, 2]}))
    assert run(["diff", str(a), str(b)]) == 0
    capsys.readouterr()
    assert run(["diff", str(a), str(c)]) == 4
    rep = _capture(capsys)
    assert rep["differences"]


def test_intermediate_verb(tmp_path, capsys):
    import json as _json

    from qcat.category import build_category
    from qcat.fixtures import ising_category
    from qcat.frobenius import ising_q
    from qcat.morphisms import identity

    cat = build_category(ising_category())
    q = ising_q(cat)
    p = identity(cat, q.theta)
    pp = tmp_path / "p.json"
    pp.write_text(_json.dumps(p.as_json()))
    assert run(["intermediate", "ising", "ising_q", str(pp)]) == 0
    rep = _capture(capsys)
    assert rep["axioms"]["ok"] is True


def test_intermediate_of_a_map_outside_end_theta_names_its_shape(tmp_path, capsys):
    """p: sig -> sig is not in End(theta): a ShapeError (exit 3) that names
    Hom(theta, theta) and p's dom and cod, raised before any composition."""
    from qcat.category import build_category
    from qcat.fixtures import ising_category
    from qcat.morphisms import ObjectExpr, identity

    sig = ObjectExpr.word("sig")
    pp = tmp_path / "p.json"
    pp.write_text(json.dumps(identity(build_category(ising_category()), sig).as_json()))
    assert run(["intermediate", "ising", "ising_q", str(pp)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qcat: ShapeError:")
    assert "Hom(theta, theta)" in err and "Hom([['sig']], [['sig']])" in err
    assert "compose" not in err


def test_decompose_and_centre_verbs(capsys):
    assert run(["decompose", "ising", "ising_q"]) == 0
    rep = _capture(capsys)
    assert len(rep["summands"]) == 1
    assert run(["centre", "ising", "ising_q", "--sign", "-"]) == 0
    rep = _capture(capsys)
    assert abs(rep["d"] - 1.0) < 1e-9


def _ising_q_file(tmp_path, damage):
    from qcat.category import build_category
    from qcat.fixtures import ising_category
    from qcat.frobenius import ising_q, qsystem_as_json

    data = qsystem_as_json(ising_q(build_category(ising_category())))
    damage(data)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    return str(path)


def _nan_x_blocks(data):
    for block in data["x"]["blocks"]:
        block["re"] = [[float("nan")] * block["cols"] for _ in range(block["rows"])]


def _wrong_rows(data):
    data["x"]["blocks"][0]["rows"] += 1


def _grow_x_block(data):
    """Rows, re and im agree with each other, but not with the sector of Hom(theta, theta^2)."""
    block = data["x"]["blocks"][0]
    block["rows"] += 1
    block["re"].append(block["re"][0])
    block["im"].append(block["im"][0])


@pytest.mark.parametrize(
    "damage",
    [
        _nan_x_blocks,
        _wrong_rows,
        pytest.param(_set("x", "blocks", 0, "sector", value=["sig"]), id="unhashable-sector"),
        pytest.param(_set("x", "blocks", 0, "sector", value="zz"), id="unknown-sector"),
        pytest.param(_set("theta", 0, value=["zz", "sig"]), id="unknown-theta-label"),
        pytest.param(_set("theta", 0, value=[["sig"], "sig"]), id="unhashable-theta-label"),
        pytest.param(_set("w", "dom", value=[["zz"]]), id="unknown-dom-label"),
        pytest.param(_grow_x_block, id="block-not-the-sector-size"),
        pytest.param(_set("x", "blocks", 0, "rows", value=2.5), id="fractional-rows"),
        pytest.param(_set("x", "blocks", 0, "cols", value=1.9), id="fractional-cols"),
        pytest.param(_set("x", "blocks", 0, "rows", value="2"), id="string-rows"),
        pytest.param(_set("w", "blocks", 0, "rows", value=True), id="bool-rows"),
        pytest.param(_repeat("x", "blocks", 0), id="repeated-block"),
        pytest.param(_set("x", "blocks", 1, "sector", value="1"), id="two-blocks-on-one-sector"),
    ],
)
def test_malformed_qsystem_exit_two(tmp_path, capsys, damage):
    assert run(["check-qsystem", "ising", _ising_q_file(tmp_path, damage)]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [{"w": {}, "x": {}}, [1, 2], "ising_q", {"theta": [["sig", "sig"]], "w": {}}, {"theta": 5, "w": {}, "x": {}}],
)
def test_qsystem_document_without_theta_w_x_exit_two(tmp_path, capsys, doc):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    assert run(["check-qsystem", "ising", str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("builder", ["foo", ["ising_q"], 3])
def test_unknown_builder_document_exit_two(tmp_path, capsys, builder):
    """An unknown builder is named, with the known ones, not read as a
    document missing theta."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"builder": builder}))
    assert run(["check-qsystem", "ising", str(path)]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and f"unknown Q-system builder {builder!r}" in err
    assert "theta" not in err and "ising_q" in err


@pytest.mark.parametrize("builder", ["trivial", "trivial_q", "ising", "ising_q"])
def test_builder_document_takes_every_builder_name(tmp_path, capsys, builder):
    """A builder document and a Q-system argument read the same names."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"builder": builder}))
    assert run(["check-qsystem", "ising", str(path)]) == 0
    by_document = _capture(capsys)
    assert run(["check-qsystem", "ising", builder]) == 0
    assert _capture(capsys) == by_document


@pytest.mark.parametrize("cat", ["z2", "trivial"])
def test_ising_q_on_a_category_without_sig_exit_two(tmp_path, capsys, cat):
    """The ising_q builder, by name or as a builder document, needs a label sig."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"builder": "ising_q"}))
    for argv in (
        ["check-qsystem", cat, "ising_q"],
        ["check-qsystem", cat, "ising"],
        ["full-centre", cat, "ising_q"],
        ["check-qsystem", cat, str(path)],
        ["full-centre", cat, str(path)],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "'sig'" in err


def _z2_matrix_q_file(tmp_path, damage):
    """The matrix Q-system of the label g of z2, theta = [["g", "g"]], damaged."""
    from qcat.category import build_category
    from qcat.fixtures import z2_category
    from qcat.frobenius import matrix_qsystem, qsystem_as_json
    from qcat.morphisms import ObjectExpr

    data = qsystem_as_json(matrix_qsystem(build_category(z2_category()), ObjectExpr.word("g")))
    damage(data)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(_set("theta", value=["gg"]), id="theta-word-as-a-string"),
        pytest.param(_set("theta", value="gg"), id="theta-as-a-string"),
        pytest.param(_set("theta", value=[["g", 1]]), id="theta-label-not-a-string"),
        pytest.param(_set("w", "cod", value=["gg"]), id="cod-word-as-a-string"),
        pytest.param(_set("x", "dom", value="gg"), id="dom-as-a-string"),
    ],
)
def test_word_list_given_as_a_string_exit_two(tmp_path, capsys, damage):
    """Each string below reads, letter by letter, as a word or object of z2."""
    assert run(["check-qsystem", "z2", _z2_matrix_q_file(tmp_path, lambda data: None)]) == 0
    capsys.readouterr()
    assert run(["check-qsystem", "z2", _z2_matrix_q_file(tmp_path, damage)]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_is_a_usage_error(capsys, tol):
    assert run(["validate", "ising", "--tol", tol]) == 1
    assert "tolerance" in capsys.readouterr().err


def test_bad_tol_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QCAT_TOL", "abc")
    assert run(["validate", "ising"]) == 1
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary", "ising", "--A", "trivial", "--B", "trivial"],
        ["modules", "ising", "ising_q"],
        ["decompose", "ising", "ising_q"],
    ],
)
def test_negative_seed_is_a_usage_error(capsys, argv):
    assert run(argv + ["--seed", "-5"]) == 1
    captured = capsys.readouterr()
    assert "--seed" in captured.err
    assert captured.out == ""


def test_python_dash_m_qcat_matches_run(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "qcat", "validate", "ising"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert run(["validate", "ising"]) == 0
    assert proc.stdout == capsys.readouterr().out


def _zero_q_file(tmp_path, theta):
    """A Q-system document on `theta` whose w and x are zero."""
    doc = {
        "theta": theta,
        "w": {"dom": [[]], "cod": theta, "blocks": []},
        "x": {"dom": theta, "cod": [u + v for u in theta for v in theta], "blocks": []},
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _verbs_on(q):
    return [
        ["check-qsystem", "ising", q],
        ["centre", "ising", q],
        ["full-centre", "ising", q],
        ["zmatrix", "ising", q],
        ["modules", "ising", q],
        ["bimodules", "ising", q, q],
        ["decompose", "ising", q],
        ["boundary", "ising", "--A", q, "--B", "trivial"],
    ]


_VERB_IDS = [argv[0] for argv in _verbs_on("")]


@pytest.mark.parametrize("verb", range(len(_VERB_IDS)), ids=_VERB_IDS)
def test_empty_theta_exit_two(tmp_path, capsys, verb):
    argv = _verbs_on(_zero_q_file(tmp_path, []))[verb]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", range(len(_VERB_IDS)), ids=_VERB_IDS)
def test_qsystem_document_failing_its_axioms_exit_three(tmp_path, capsys, verb):
    """Only check-qsystem reports the residuals; every other verb stops on one line."""
    argv = _verbs_on(_zero_q_file(tmp_path, [[]]))[verb]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if argv[0] == "check-qsystem":
        assert json.loads(captured.out)["ok"] is False
    else:
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "AxiomError" in captured.err and "unit" in captured.err


@pytest.mark.parametrize("verb", [["validate"], ["zmatrix", "ising_q"], ["boundary", "--A", "trivial", "--B", "trivial"]])
def test_category_outside_the_canonical_gauge_exit_three(tmp_path, capsys, verb):
    """Ising presented with unit-leg F-symbols that are phases: every verb
    stops at load with one line naming the symbol."""
    from test_category import unit_gauged_ising_data

    path = tmp_path / "cat.json"
    path.write_text(json.dumps(unit_gauged_ising_data()))
    assert run([verb[0], str(path), *verb[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "DataError: F('1', " in captured.err and "unit leg" in captured.err


def _scale_x_re(data):
    """Finite, but far outside the range the axiom residuals can square."""
    for block in data["x"]["blocks"]:
        block["re"] = [[1e300 * v for v in row] for row in block["re"]]


def _no_bare_constant(token):
    raise AssertionError(f"bare {token} in the JSON output")


def test_non_finite_values_print_as_strings(tmp_path, capsys):
    """Residuals that overflow print as "NaN" / "Infinity" strings, so the
    output is RFC 8259 JSON that strict parsers accept."""
    assert run(["check-qsystem", "ising", _ising_q_file(tmp_path, _scale_x_re)]) == 3
    rep = json.loads(capsys.readouterr().out, parse_constant=_no_bare_constant)
    assert rep["ok"] is False
    assert {"NaN", "Infinity"} <= set(rep.values())


# One minimal command per category verb on the ising fixture; {p} is the
# identity of ising_q's theta, a projection document.
SMOKE = {
    "validate": ["validate", "ising"],
    "modular": ["modular", "ising"],
    "check-qsystem": ["check-qsystem", "ising", "ising_q"],
    "centre": ["centre", "ising", "ising_q"],
    "intermediate": ["intermediate", "ising", "ising_q", "{p}"],
    "decompose": ["decompose", "ising", "trivial"],
    "braided-product": ["braided-product", "ising", "trivial", "trivial"],
    "canonical": ["canonical", "ising"],
    "full-centre": ["full-centre", "ising", "trivial"],
    "zmatrix": ["zmatrix", "ising", "trivial"],
    "modules": ["modules", "ising", "trivial"],
    "bimodules": ["bimodules", "ising", "trivial", "trivial"],
    "boundary": ["boundary", "ising", "--A", "trivial", "--B", "trivial"],
}


def test_every_verb_has_a_smoke_case():
    from qcat.cli import VERBS

    assert set(SMOKE) == set(VERBS)


@pytest.mark.parametrize("verb", sorted(SMOKE))
def test_every_verb_exits_zero_with_json(tmp_path, capsys, verb):
    from qcat.category import build_category
    from qcat.fixtures import ising_category
    from qcat.frobenius import ising_q
    from qcat.morphisms import identity

    pp = tmp_path / "p.json"
    cat = build_category(ising_category())
    pp.write_text(json.dumps(identity(cat, ising_q(cat).theta).as_json()))
    assert run([a.format(p=pp) for a in SMOKE[verb]]) == 0
    assert isinstance(_capture(capsys), dict)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_braided_product_verb(capsys, sign):
    assert run(["braided-product", "ising", "ising_q", "ising_q", "--sign", sign]) == 0
    rep = _capture(capsys)
    assert abs(rep["d"] - 2.0) < 1e-9 and rep["axioms"]["ok"] is True
    assert run(["braided-product", "ising", "trivial", "ising_q", "--sign", sign]) == 0
    assert abs(_capture(capsys)["d"] - 2.0**0.5) < 1e-9


@pytest.mark.parametrize("verb", sorted(SMOKE))
def test_input_count_is_checked_before_any_file_is_read(tmp_path, capsys, verb):
    """A wrong number of inputs is a usage error (exit 1) even when the
    category file does not exist: no file is read first."""
    from qcat.cli import VERBS

    missing = str(tmp_path / "missing.json")
    for inputs in ([], [missing] + ["ising_q"] * VERBS[verb][0]):
        assert run([verb, *inputs]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"usage: qcat {verb} ")
