"""The benchmark's oracle gates pass on tiny inputs, so a library change
that breaks a workload fails here rather than only in a benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, Recorder  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_gates_pass(name):
    rec = Recorder()
    workload = WORKLOADS[name](seed=3, tiny=True)
    workload.setup(rec)
    workload.reference(rec)
    workload.step(rec, 0)
    assert rec.failures == []
