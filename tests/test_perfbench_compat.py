"""The benchmark's workloads still run and pass their own checks against this tree.

``perfbench/workloads.py`` builds its inputs through eqrc's public API
(for example ``StationLog`` from ``StationReport`` rows, and the dataset
record lines it digests). Each workload is built at its warm-up size,
run once and checked, so an API change that would fail the benchmark
fails here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from eqrc import formats

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    try:
        yield _module("perfbench_workloads", _PERFBENCH / "workloads.py")
    finally:
        del sys.modules["perfbench_workloads"]


@pytest.fixture(scope="module")
def tracing():
    try:
        yield _module("perfbench_tracing", _PERFBENCH / "tracing.py")
    finally:
        del sys.modules["perfbench_tracing"]


def test_every_traced_layer_resolves(tracing):
    """Each (module, attribute) the tracer wraps is in eqrc: one that is not is named here, before a run."""
    missing = []
    for layer, targets in tracing.LAYERS.items():
        for module_name, attr, _ in targets:
            owner = importlib.import_module(module_name)
            try:
                for part in attr.split("."):
                    owner = getattr(owner, part)
            except AttributeError:
                missing.append(f"{layer}: {module_name}.{attr}")
    assert missing == []


@pytest.mark.parametrize("name", ["sweep", "suite", "export", "live"])
def test_workload_runs_and_passes_its_check(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](1, workloads.WARM_UP_SIZES[name], tmp_path)
    problems, digests = workload.check(workload.op())
    assert problems == []
    assert digests


def test_export_files_at_benchmark_size_load_without_json(workloads, tmp_path, monkeypatch):
    """Every data line of export's four files comes from the chunk parsers: json decodes the headers only.

    A codec that fell back to the JSON path would load the same columns,
    several times slower; this is where that shows.
    """
    workload = workloads.WORKLOADS["export"](1, workloads.SIZES["export"], tmp_path)
    workload.op()
    decoded, decode = [], formats._decode
    monkeypatch.setattr(formats, "_decode", lambda line: decoded.append(line) or decode(line))
    problems, _ = workload.check(workload.op())
    headers = [path.read_text(encoding="utf-8").split("\n", 1)[0] + "\n" for path in workload.paths.values()]
    assert problems == [] and sorted(decoded) == sorted(headers)


def test_live_op_runs_under_the_tracer(workloads, tracing, tmp_path):
    """``--trace 1`` wraps send_frame and JSON-dumps its header argument: the columns must travel apart from it."""
    workload = workloads.WORKLOADS["live"](1, workloads.WARM_UP_SIZES["live"], tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = tracer.run("op", workload.op, tracer, op=True)
    finally:
        tracer.uninstall()
    problems, _ = workload.check(out)
    sends = [span for span in tracer.spans if span.name == "stations.send_frame"]
    assert problems == [] and sends and all(span.counts["bytes"] > 4 for span in sends)
