"""Smoke test of the benchmark's workloads (perfbench/): every job of one
pass at seed 1 runs and passes its known-answer check, untraced and, for the
session, under the span tracer.  A rename or deletion in `qcat` that a
workload or the tracer reads shows here, in the tier-1 suite."""
from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import spans, workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_pass_is_correct(name, tmp_path):
    jobs = workloads.WORKLOADS[name](1, str(tmp_path))
    assert jobs
    assert [(job, reason) for job, reason in workloads.run_pass(jobs) if reason is not None] == []


def test_traced_session_pass_is_correct(tmp_path):
    jobs = workloads.WORKLOADS["ising-session"](1, str(tmp_path))
    with spans.traced() as rec:
        results = workloads.run_pass(jobs, rec)
    assert [(job, reason) for job, reason in results if reason is not None] == []
