"""The benchmark's three workloads.  Each one turns a seed into inputs and a
fixed list of jobs; a pass runs every job once and checks its output against
a known answer.

- cli-ising: 13 in-process `qcat.cli.run` calls on a gauged Ising category
  file.  Every call rebuilds the category, so the engine caches start cold
  for every job.
- zn-canonical: gauged Z_3 and Z_5 categories through validation, modular
  data, the canonical Q-system and Z(trivial), plus validation of the
  Z_3 x Z_3^opp product.  Category data (L1) dominates.
- ising-session: one gauged Ising category kept for the whole run, with
  warm engine caches; module, bimodule, decomposition, equivalence and Z
  jobs over several Q-systems.  Algebra (L2 reads, L3) dominates.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qcat import braided, category, cli, decompose, fixtures, frobenius, modules
from qcat.morphisms import ObjectExpr

from .gen import gauge_transform, zn_category

ISING_ABS_S = np.array(
    [[0.5, 0.5, math.sqrt(0.5)], [0.5, 0.5, math.sqrt(0.5)], [math.sqrt(0.5), math.sqrt(0.5), 0.0]]
)
Q_PAIRS = [(a, b) for a in ("trivial", "ising_q") for b in ("trivial", "ising_q")]
ZN_ORDERS = (3, 5)
CHECK_TOL = 1e-6


@dataclass
class Job:
    """One unit of work in a pass; `check` returns None or why the output is wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---- known-answer checks ---------------------------------------------


def check_identity(z) -> str | None:
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[0] != z.shape[1] or not np.array_equal(z, np.eye(len(z), dtype=int)):
        return f"Z is not the identity: {z.tolist()}"
    return None


def check_count(got: int, want: int, what: str) -> str | None:
    return None if got == want else f"{what}: {got} found, {want} expected"


def check_abs_rows(mat, want: np.ndarray) -> str | None:
    """|mat| equals `want` up to the order of the rows."""
    got = np.abs(np.asarray(mat))
    if got.shape != want.shape:
        return f"shape {got.shape}, {want.shape} expected"
    key = lambda m: sorted(tuple(np.round(r, 6)) for r in m)  # noqa: E731
    if key(got) != key(want):
        return f"|S_mT| rows {np.round(got, 6).tolist()} differ from |S|"
    return None


def check_close(got: float, want: float, what: str) -> str | None:
    return None if abs(got - want) < CHECK_TOL else f"{what}: {got}, {want} expected"


def check_boundary(out: dict, abs_s: np.ndarray | None) -> str | None:
    """Three boundary idempotents, the oracle agrees, and for the trivial
    pair |S_mT| equals |S| up to row order."""
    bad = check_count(len(out["idempotents"]), 3, "boundary idempotents")
    if bad is None and out["cross_check"] != "pass":
        bad = f"cross_check {out['cross_check']!r}"
    if bad is None and abs_s is not None:
        smt = np.array([[complex(*v) for v in row] for row in out["smT"]])
        bad = check_abs_rows(smt, abs_s)
    return bad


def _all(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


# ---- cli-ising ---------------------------------------------------------


def _cli_call(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _cli_check(expect: Callable[[dict], str | None]):
    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        return expect(json.loads(text))

    return check


def _modular_ok(out: dict) -> str | None:
    if not out["is_modular"]:
        return "not modular"
    s = np.array([[complex(*v) for v in row] for row in out["s_matrix"]])
    return check_abs_rows(s, ISING_ABS_S)


def cli_ising_jobs(path: str, seed: int) -> list[Job]:
    """The 13 command-line jobs on the category file at `path`."""
    specs = [
        (["validate", path], lambda o: None if o["ok"] else "validation failed"),
        (["modular", path], _modular_ok),
        (["check-qsystem", path, "ising_q"], lambda o: None if o["ok"] else "axioms fail"),
        (
            ["centre", path, "ising_q"],
            lambda o: _all(
                None if o["axioms"]["ok"] else "axioms fail", check_close(o["d"], 1.0, "centre d")
            ),
        ),
        (
            ["canonical", path],
            lambda o: _all(
                None if o["axioms"]["ok"] else "axioms fail",
                check_close(o["d"], 2.0, "canonical d"),
                check_count(len(o["product_labels"]), 9, "product labels"),
            ),
        ),
        (
            ["full-centre", path, "ising_q"],
            lambda o: _all(
                None if o["axioms"]["ok"] else "axioms fail",
                check_close(o["d"], 2.0, "full centre d"),
                check_count(len(o["theta"]), 3, "full centre summands"),
            ),
        ),
        (["zmatrix", path, "ising_q"], lambda o: check_identity(o["z"])),
        (["modules", path, "ising_q"], lambda o: check_count(o["count"], 3, "modules")),
        (
            ["bimodules", path, "ising_q", "ising_q"],
            lambda o: check_count(o["count"], 3, "bimodules"),
        ),
    ]
    for a, b in Q_PAIRS:
        abs_s = ISING_ABS_S if (a, b) == ("trivial", "trivial") else None
        specs.append(
            (["boundary", path, "--A", a, "--B", b], lambda o, s=abs_s: check_boundary(o, s))
        )
    jobs = []
    for argv, expect in specs:
        argv = argv + ["--seed", str(seed)]
        name = " ".join(a for a in argv[:1] + argv[2:] if a != path)
        jobs.append(Job(name, lambda argv=argv: _cli_call(argv), _cli_check(expect)))
    return jobs


# ---- zn-canonical ------------------------------------------------------


def _zn_modular_ok(md, n: int) -> str | None:
    if not md.is_modular:
        return "not modular"
    if np.max(np.abs(np.abs(md.s_matrix) - 1.0 / math.sqrt(n))) > CHECK_TOL:
        return "|S| is not constant 1/sqrt(N)"
    return None


def zn_jobs(data: dict[int, dict]) -> list[Job]:
    """Per N: load, validate, modular data, canonical Q-system, Z(trivial);
    then validation of the Z_3 x Z_3^opp product."""
    jobs: list[Job] = []
    cats: dict[int, category.CategoryData] = {}

    def load(n: int):
        cats[n] = category.load_category(data[n])
        return cats[n]

    for n in ZN_ORDERS:
        jobs += [
            Job(
                f"Z{n} load",
                lambda n=n: load(n),
                lambda c, n=n: check_count(len(c.labels), n, "labels"),
            ),
            Job(
                f"Z{n} validate",
                lambda n=n: category.validate_category(cats[n]),
                lambda r: None if r.ok else "validation failed",
            ),
            Job(
                f"Z{n} modular",
                lambda n=n: category.modular_data(cats[n]),
                lambda md, n=n: _zn_modular_ok(md, n),
            ),
            Job(
                f"Z{n} canonical",
                lambda n=n: braided.canonical_qsystem(cats[n]),
                lambda out, n=n: _all(
                    check_close(out[1].d, math.sqrt(n), "canonical d"),
                    check_count(len(out[1].theta.summands), n, "canonical summands"),
                ),
            ),
            Job(
                f"Z{n} zmatrix trivial",
                lambda n=n: braided.z_matrix(cats[n], frobenius.trivial_qsystem_in(cats[n]))[0],
                check_identity,
            ),
        ]
    jobs.append(
        Job(
            "Z3xZ3opp validate",
            lambda: category.validate_category(braided.opposite_product_category(cats[3])),
            lambda r: None if r.ok else "validation failed",
        )
    )
    return jobs


# ---- ising-session -----------------------------------------------------


def session_jobs(cat) -> list[Job]:
    """Algebra jobs on one Ising category whose engine caches stay warm."""
    prod, qr = braided.canonical_qsystem(cat)
    iq = frobenius.ising_q(cat)
    tq = frobenius.trivial_qsystem_in(cat)
    q_se = frobenius.matrix_qsystem(cat, ObjectExpr.word("sig", "eps"))
    q_s1 = frobenius.matrix_qsystem(cat, ObjectExpr.from_words([("sig",), ()]))
    n_is = lambda what: lambda out: check_count(len(out), 3, what)  # noqa: E731
    return [
        Job("modules R", lambda: modules.enumerate_modules(prod, qr), n_is("R modules")),
        Job(
            "bimodules ising_q ising_q",
            lambda: modules.enumerate_bimodules(cat, iq, iq),
            n_is("bimodules"),
        ),
        Job(
            "bimodules trivial ising_q",
            lambda: modules.enumerate_bimodules(cat, tq, iq),
            n_is("bimodules"),
        ),
        Job(
            "right modules sig.eps",
            lambda: modules.enumerate_modules(cat, q_se, "right"),
            n_is("right modules"),
        ),
        Job(
            "central decomposition sig+1",
            lambda: decompose.central_decomposition(cat, q_s1),
            lambda out: None if out else "empty decomposition",
        ),
        Job(
            "equivalent ising_q sig.eps",
            lambda: frobenius.qsystems_equivalent(cat, iq, q_se),
            lambda same: None if same else "not equivalent",
        ),
        Job("zmatrix ising_q", lambda: braided.z_matrix(cat, iq)[0], check_identity),
        Job("zmatrix sig.eps", lambda: braided.z_matrix(cat, q_se)[0], check_identity),
    ]


# ---- passes and workloads ---------------------------------------------


def run_job(job: Job) -> str | None:
    """Run and check one job; an exception is a failed job, not a crash."""
    try:
        return job.check(job.run())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def run_pass(jobs: list[Job], rec=None) -> list[tuple[str, str | None]]:
    """Run every job once, each in a `bench` span when a recorder is given;
    a failure is recorded and never stops the pass."""
    out = []
    for job in jobs:
        if rec is None:
            reason = run_job(job)
        else:
            with rec.span(f"bench.{job.name}"):
                reason = run_job(job)
        out.append((job.name, reason))
    return out


def cli_ising(seed: int, workdir: str) -> list[Job]:
    path = os.path.join(workdir, f"ising-gauged-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(gauge_transform(fixtures.ising_category(), seed), fh)
    return cli_ising_jobs(path, seed)


def zn_canonical(seed: int, workdir: str) -> list[Job]:
    return zn_jobs({n: gauge_transform(zn_category(n), seed) for n in ZN_ORDERS})


def ising_session(seed: int, workdir: str) -> list[Job]:
    cat = category.load_category(gauge_transform(fixtures.ising_category(), seed))
    jobs = session_jobs(cat)
    run_pass(jobs)  # warm-up pass, part of set-up
    return jobs


# name -> setup(seed, workdir): builds the inputs in `workdir` (and, for the
# session, warms it up) and returns the jobs of one pass.
WORKLOADS = {"cli-ising": cli_ising, "zn-canonical": zn_canonical, "ising-session": ising_session}
