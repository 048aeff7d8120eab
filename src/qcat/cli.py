"""Command-line front end: load category and Q-system files, dispatch the
library operations, and emit JSON or table reports.

Exit codes: 0 all checks pass, 1 usage, 2 parse or schema error, 3 axiom
failure, 4 numeric inconsistency.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .braided import (
    braided_product,
    canonical_qsystem,
    centre_qsystem,
    full_centre,
    z_matrix,
)
from .category import build_category, modular_data, validate_category
from .decompose import central_decomposition, check_intermediate, irreducible_decomposition
from .errors import AxiomError, ParseError, QcatError, SchemaMismatch
from .fixtures import FIXTURE_CATEGORIES, emit_fixture, fixture_category
from .frobenius import QSYSTEM_BUILDERS, check_commutative, check_qsystem, qsystem_from_json
from .modules import boundary_conditions, enumerate_bimodules, enumerate_modules
from .morphisms import morphism_from_json

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _round(obj):
    """Normalize a report tree to 12 significant digits for stable output; a
    non-finite float becomes the string "NaN", "Infinity" or "-Infinity",
    since RFC 8259 JSON has no such numbers."""
    if isinstance(obj, dict):
        return {k: _round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(f"{float(obj):.12g}")
        return x if math.isfinite(x) else json.dumps(x)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_round(obj.real), _round(obj.imag)]
    return obj


def _emit(report: dict, fmt: str) -> None:
    report = _round(report)
    if fmt == "json":
        print(json.dumps(report, indent=1, allow_nan=False))
        return
    _emit_table(report, "")


def _emit_table(obj, prefix: str) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _emit_table(v, f"{prefix}{k}." if isinstance(v, (dict, list)) else f"{prefix}{k}")
        return
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            _emit_table(v, f"{prefix}{i}." if isinstance(v, (dict, list)) else f"{prefix}{i}")
        return
    print(f"{prefix:<40} {obj}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _load_cat(spec: str):
    # a parsed document, never re-read as a path: a top-level JSON string is malformed
    return build_category(fixture_category(spec) if spec in FIXTURE_CATEGORIES else _load_json(spec))


def _load_q(cat, spec: str, check: bool = True):
    """A builtin Q-system by name, or one read from a document; with `check`,
    a document's Q-system must pass its axioms (AxiomError, exit 3)."""
    if spec in QSYSTEM_BUILDERS:
        return QSYSTEM_BUILDERS[spec](cat)
    q = qsystem_from_json(cat, _load_json(spec))
    if check:
        rep = check_qsystem(cat, q)
        if not rep.ok:
            failing = ", ".join(f"{k} {v:g}" for k, v in rep.residuals().items() if not v < rep.tol)
            raise AxiomError(f"the Q-system in {spec} fails its axioms: {failing}")
    return q


def _qsystem_summary(cat, q) -> dict:
    rep = check_qsystem(cat, q)
    comm, comm_res = check_commutative(cat, q)
    return {
        "theta": q.theta.as_json(),
        "d": q.d,
        "axioms": rep.as_dict(),
        "commutative": comm,
        "commutativity_residual": comm_res,
    }


def _reduced_summary(cat, red) -> dict:
    out = _qsystem_summary(cat, red.child)
    out["n_p_scalar"] = red.n_p_scalar
    out["n_p_spectrum"] = list(red.n_p_spectrum)
    return out


# ---- one handler per category verb -------------------------------------
# handler(cat, args, *inputs after the category) -> (report, ok); the run
# exits 3 when ok is false.


def _validate(cat, args):
    rep = validate_category(cat)
    return rep.as_dict(), rep.ok


def _modular(cat, args):
    md = modular_data(cat)
    return {
        "labels": list(md.labels),
        "dims": md.dims.tolist(),
        "global_dim": md.global_dim,
        "twists": [[v.real, v.imag] for v in md.twists],
        "omega": [md.omega.real, md.omega.imag],
        "s_matrix": [[[v.real, v.imag] for v in row] for row in md.s_matrix],
        "t_matrix": [[[v.real, v.imag] for v in row] for row in md.t_matrix],
        "charge_conjugation": md.charge_conjugation.tolist(),
        "is_modular": md.is_modular,
    }, True


def _check_qsystem(cat, args, q_spec):
    q = _load_q(cat, q_spec, check=False)
    rep = check_qsystem(cat, q)
    out = rep.as_dict()
    out["commutative"], out["commutativity_residual"] = check_commutative(cat, q, args.sign)
    return out, rep.ok


def _centre(cat, args, q_spec):
    return _reduced_summary(cat, centre_qsystem(cat, _load_q(cat, q_spec), args.sign)), True


def _intermediate(cat, args, q_spec, p_spec):
    q = _load_q(cat, q_spec)
    p = morphism_from_json(cat, _load_json(p_spec))
    return _reduced_summary(cat, check_intermediate(cat, q, p)), True


def _decompose(cat, args, q_spec):
    q = _load_q(cat, q_spec)
    if args.mode == "central":
        parts = [red for _, red in central_decomposition(cat, q, args.seed)]
    else:
        parts = [red for _, _, _, red in irreducible_decomposition(cat, q, args.seed)]
    return {"summands": [_reduced_summary(cat, red) for red in parts]}, True


def _braided_product(cat, args, qa_spec, qb_spec):
    q = braided_product(cat, _load_q(cat, qa_spec), _load_q(cat, qb_spec), args.sign)
    out = _qsystem_summary(cat, q)
    return out, out["axioms"]["ok"]


def _canonical(cat, args):
    prod, qr = canonical_qsystem(cat)
    out = _qsystem_summary(prod, qr)
    out["product_labels"] = list(prod.labels)
    return out, out["axioms"]["ok"]


def _full_centre(cat, args, q_spec):
    prod, red = full_centre(cat, _load_q(cat, q_spec))
    return _reduced_summary(prod, red), True


def _zmatrix(cat, args, q_spec):
    z, info = z_matrix(cat, _load_q(cat, q_spec))
    return {"z": z.tolist(), **info}, max(info["s_commutator"], info["t_commutator"]) < 1e2 * cat.tol


def _modules(cat, args, q_spec):
    mods = enumerate_modules(cat, _load_q(cat, q_spec), args.side)
    return {"count": len(mods), "modules": [m.as_json() for m in mods]}, True


def _bimodules(cat, args, qa_spec, qb_spec):
    mods = enumerate_bimodules(cat, _load_q(cat, qa_spec), _load_q(cat, qb_spec))
    return {"count": len(mods), "bimodules": [m.as_json() for m in mods]}, True


def _boundary(cat, args):
    qa = _load_q(cat, args.qa)
    qb = qa if args.qb == args.qa else _load_q(cat, args.qb)
    rep = boundary_conditions(cat, qa, qb)
    return rep.as_dict(), max(rep.residuals.values()) < 1e2 * cat.tol


# verb -> (number of inputs, the category among them; usage after the verb; handler)
VERBS = {
    "validate": (1, "<category>", _validate),
    "modular": (1, "<category>", _modular),
    "check-qsystem": (2, "<category> <qsystem> [--sign +|-]", _check_qsystem),
    "centre": (2, "<category> <qsystem> [--sign +|-]", _centre),
    "intermediate": (3, "<category> <qsystem> <projection>", _intermediate),
    "decompose": (2, "<category> <qsystem> [--mode central|irreducible] [--seed N]", _decompose),
    "braided-product": (3, "<category> <qA> <qB> [--sign +|-]", _braided_product),
    "canonical": (1, "<category>", _canonical),
    "full-centre": (2, "<category> <qsystem>", _full_centre),
    "zmatrix": (2, "<category> <qsystem>", _zmatrix),
    "modules": (2, "<category> <qsystem> [--side left|right]", _modules),
    "bimodules": (3, "<category> <qA> <qB>", _bimodules),
    "boundary": (1, "<category> --A <qsystem> --B <qsystem>", _boundary),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qcat", description=__doc__.splitlines()[0])
    p.add_argument("verb", choices=[*VERBS, "emit-fixture", "diff"])
    p.add_argument("inputs", nargs="*", help="category / Q-system / report files")
    p.add_argument("--A", dest="qa", help="first Q-system (file or builtin name)")
    p.add_argument("--B", dest="qb", help="second Q-system (file or builtin name)")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument("--seed", type=int, default=None, help="RNG seed for the idempotent searches of decompose")
    p.add_argument("--sign", choices=["+", "-"], default="+", help="braiding chirality")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--mode", choices=["central", "irreducible"], default="central")
    p.add_argument("--dir", default=".", help="output directory for emit-fixture")
    return p


def _need(args, n: int, usage: str) -> list[str]:
    if len(args.inputs) != n:
        raise SystemExit(_usage_error(usage))
    return args.inputs


def _usage_error(usage: str) -> int:
    print(f"usage: qcat {usage}", file=sys.stderr)
    return 1


def _diff(a, b, tol: float, path: str, out: list) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append(f"{path}{k}: only in one report")
            else:
                _diff(a[k], b[k], tol, f"{path}{k}.", out)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, tol, f"{path}{i}.", out)
        return
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not (
        isinstance(a, bool) or isinstance(b, bool)
    ):
        if abs(a - b) > tol:
            out.append(f"{path.rstrip('.')}: {a} vs {b}")
        return
    if type(a) is not type(b):
        raise SchemaMismatch(f"{path.rstrip('.')}: incompatible types")
    if a != b:
        out.append(f"{path.rstrip('.')}: {a!r} vs {b!r}")


def _dispatch(args) -> int:
    tol = args.tol
    if tol is None and os.environ.get("QCAT_TOL"):
        try:
            tol = float(os.environ["QCAT_TOL"])
        except ValueError:
            tol = float("nan")
    if tol is not None and not 0.0 < tol < float("inf"):
        print("qcat: error: the tolerance (--tol or QCAT_TOL) must be a finite number > 0", file=sys.stderr)
        return 1
    if args.seed is not None and args.seed < 0:
        print("qcat: error: --seed must be an integer >= 0", file=sys.stderr)
        return 1
    fmt = args.format

    if args.verb == "emit-fixture":
        (name,) = _need(args, 1, "emit-fixture <name> [--dir DIR]")
        try:
            paths = emit_fixture(name, args.dir)
        except OSError as exc:
            print(f"qcat: error: cannot write to --dir {args.dir}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        _emit({"written": paths}, fmt)
        return 0

    if args.verb == "diff":
        a_path, b_path = _need(args, 2, "diff <report-a> <report-b> [--tol T]")
        out: list[str] = []
        _diff(_load_json(a_path), _load_json(b_path), tol if tol is not None else 1e-9, "", out)
        _emit({"differences": out}, fmt)
        return 0 if not out else 4

    n, usage, handler = VERBS[args.verb]
    if len(args.inputs) != n or (args.verb == "boundary" and not (args.qa and args.qb)):
        return _usage_error(f"{args.verb} {usage}")  # before any file is read
    cat_spec, *inputs = args.inputs
    cat = _load_cat(cat_spec)
    if tol is not None:  # the one tolerance every check of this run reads
        cat.tol = tol
    with np.errstate(all="ignore"):  # an overflow shows in the report as "NaN" or "Infinity"
        report, ok = handler(cat, args, *inputs)
    _emit(report, fmt)
    return 0 if ok else 3


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except QcatError as exc:
        print(f"qcat: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
