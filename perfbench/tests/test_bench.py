"""Self-tests of the benchmark: inputs, known-answer checks, and tracing.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import qcat.modules
import qcat.morphisms
from perfbench import run, spans, workloads
from perfbench.gen import gauge_transform, zn_category
from qcat import category, fixtures

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize(
    "make", [fixtures.ising_category, lambda: zn_category(3), lambda: zn_category(5)]
)
def test_generated_categories_validate(make, seed):
    plain = make()
    data = gauge_transform(plain, seed)
    cat = category.load_category(data)
    assert category.validate_category(cat).ok
    assert category.modular_data(cat).is_modular
    # the gauge really moves the numbers the program sees
    before = {tuple(e["abc_d"]): np.array(e["re"]) + 1j * np.array(e["im"]) for e in plain["F"]}
    after = {tuple(e["abc_d"]): np.array(e["re"]) + 1j * np.array(e["im"]) for e in data["F"]}
    assert before.keys() == after.keys()
    assert any(not np.allclose(before[k], after[k]) for k in before)


def test_gauge_is_seeded():
    a = gauge_transform(zn_category(3), 7)
    assert a == gauge_transform(zn_category(3), 7)
    assert a != gauge_transform(zn_category(3), 8)


def test_checker_flags_corrupted_results(tmp_path):
    z = np.eye(3, dtype=int)
    assert workloads.check_identity(z) is None
    z[0, 2] = 1
    assert workloads.check_identity(z) is not None

    jobs = {job.name: job for job in workloads.cli_ising(1, str(tmp_path))}
    job = jobs["boundary --A trivial --B trivial --seed 1"]
    code, text = job.run()
    assert job.check((code, text)) is None
    out = json.loads(text)
    out["idempotents"].pop()
    assert job.check((code, json.dumps(out))) is not None
    assert job.check((3, text)) is not None


def test_failing_job_is_counted_not_raised():
    def boom():
        raise ValueError("bad input")

    jobs = [
        workloads.Job("boom", boom, lambda _: None),
        workloads.Job("ok", lambda: 1, lambda _: None),
    ]
    assert workloads.run_pass(jobs) == [("boom", "ValueError: bad input"), ("ok", None)]


def test_speed_probe_scales_by_the_samples_inside():
    probe = run.SpeedProbe()
    nominal = run.REF_NOMINAL_S
    probe.samples = [(0.5, nominal, 0.001), (1.0, 2 * nominal, 0.002), (1.5, nominal, 0.001)]
    wall, scaled, ref, cost = probe.measure(1.0, 2.0)
    assert cost == pytest.approx(0.003)
    assert wall == pytest.approx(0.997)
    # half the interval ran at nominal speed and half at half of it
    assert scaled == pytest.approx(0.997 * 0.75)
    assert ref == pytest.approx(1.5 * nominal)
    # an interval with no sample in it takes the last one before it
    assert probe.measure(1.6, 1.7)[1] == pytest.approx(0.1)


def test_speed_probe_samples_and_restores():
    probe = run.SpeedProbe().start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sum(t0 <= s[0] < t1 for s in probe.samples) >= 5
    wall, _, _, cost = probe.measure(t0, t1)
    assert cost > 0
    assert wall == pytest.approx(t1 - t0 - cost)


def _traced_pass(seed, tmp_path):
    """Metrics and span tree of one traced ising-session pass."""
    jobs = workloads.ising_session(seed, str(tmp_path))
    passes, outcomes = run.timed_passes(workloads, jobs, 0.0, trace=True)
    assert all(why is None for _, why in outcomes)
    assert [p.rec is not None for p in passes] == [False, True]
    rec = passes[1].rec
    return spans.pass_metrics(rec), spans.span_tree([rec])


def test_tracer_restores_the_program():
    before = (qcat.morphisms.tensor, qcat.morphisms.Engine.split, qcat.modules.tensor)
    with spans.traced():
        assert qcat.morphisms.tensor is not before[0]
        assert qcat.modules.tensor is qcat.morphisms.tensor
    assert (qcat.morphisms.tensor, qcat.morphisms.Engine.split, qcat.modules.tensor) == before


def test_traced_counts_repeat(tmp_path):
    first, _ = _traced_pass(5, tmp_path)
    second, _ = _traced_pass(5, tmp_path)
    counts = [k for k, unit in spans.PER_LAYER.items() if unit == "count"]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["morphisms.tensor_calls"] > 0
    assert first["morphisms.split_miss_ratio"] == 0.0  # warm session: every read hits


def test_spans_cover_the_pass(tmp_path):
    m, tree = _traced_pass(5, tmp_path)
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert abs(m["pass_s"] - layers - m["trace.uncovered_s"]) < 1e-6
    # Almost all of the pass is inside wrapped qcat functions: a layer whose
    # functions went unwrapped would show up here.
    assert m["trace.uncovered_s"] < 0.15 * m["pass_s"]
    # `from .morphisms import tensor` in modules was rebound, so tensor calls
    # made from modules are seen, as morphisms spans under a modules span.
    callers = {path.split("/")[-2] for path in tree if path.endswith("/morphisms.tensor")}
    assert "modules.free_module" in callers
    assert m["morphisms.self_s"] > m["modules.self_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-ising", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
