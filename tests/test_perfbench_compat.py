"""The benchmark's workloads still run and pass their own checks against this tree.

``perfbench/workloads.py`` builds its inputs through eqrc's public API
(for example ``StationLog`` from ``StationReport`` rows, and the dataset
record lines it digests). Each workload is built at its warm-up size,
run once and checked, so an API change that would fail the benchmark
fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["sweep", "suite", "export", "live"])
def test_workload_runs_and_passes_its_check(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](1, workloads.WARM_UP_SIZES[name], tmp_path)
    problems, digests = workload.check(workload.op())
    assert problems == []
    assert digests
