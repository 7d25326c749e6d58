"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that the traced run's spans nest (each child inside its parent),
and that per-layer self times plus the reported residual account for the
traced wall time. Also pins the known shape of the profile: no dataset
checks on sweep, the dataset check as the largest self time on suite,
and four frames each way per pair on live.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracing

TINY = {
    "sweep": {"pairs_per_step": 2_000, "steps": 72},
    "suite": {"pairs": 50_000},
    "export": {"pairs": 500},
    "live": {"pairs": 300},
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def nesting_errors(spans, slack=1e-6):
    """Spans whose parent is missing or whose interval leaves the parent's."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            errors.append(f"{s.name}#{s.id}: parent {s.parent} was never closed")
        elif s.start < p.start - slack or s.end > p.end + slack:
            errors.append(f"{s.name}#{s.id} [{s.start}, {s.end}] leaves {p.name}#{p.id} [{p.start}, {p.end}]")
    return errors


def thread_root_seconds(spans):
    """Total duration of spans with no same-thread parent (per-thread wall covered)."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        p = by_id.get(s.parent)
        if p is None or p.thread != s.thread:
            total += s.duration
    return total


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def traced(request):
    return request.param, run.measure(request.param, seed=7, seconds=0.01, trace=True, sizes=TINY[request.param])


def test_every_metric_is_emitted_with_its_unit(traced):
    _, result = traced
    assert result["correct"], result["problems"]
    assert result["ops"]["untraced"] >= 1 and result["ops"]["traced"] >= 1
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(result, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: m["unit"] for k, m in line["metrics"].items()} == want
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert all(result["end_to_end"][m["name"]] > 0 for m in BENCHMARK["end_to_end"])


def test_spans_nest_inside_their_parents(traced):
    _, result = traced
    spans = result["spans"]
    assert spans
    assert nesting_errors(spans) == []
    roots = [s for s in spans if s.parent is None]
    assert roots and all(s.name == "bench.op" for s in roots)


def test_self_times_and_residual_account_for_traced_wall(traced):
    workload, result = traced
    spans, ops = result["spans"], result["ops"]["traced"]
    layer_self = sum(s.self_s for s in spans if not s.name.startswith(tracing.BENCH_PREFIX))
    residual = result["per_layer"]["trace.residual_s"] * ops
    covered = thread_root_seconds(spans)
    assert layer_self + residual == pytest.approx(covered, rel=1e-9, abs=1e-9)
    assert residual >= 0
    op_wall = sum(s.duration for s in spans if s.name == "bench.op")
    assert op_wall == pytest.approx(result["traced_wall_s"], rel=0.02, abs=2e-3)
    if workload != "live":  # one thread: the thread roots are the operations
        assert covered == pytest.approx(op_wall, rel=1e-9)


def test_profile_shape(traced):
    workload, result = traced
    layers = result["per_layer"]
    if workload == "sweep":
        assert layers["experiments.dataset_check.calls"] == 0
    if workload == "suite":
        totals = tracing.layer_totals(result["spans"])
        layer_self = {name: row["self_s"] for name, row in totals.items() if name in tracing.LAYERS}
        assert max(layer_self, key=layer_self.get) == "experiments.dataset_check"
    if workload == "live":
        pairs = TINY["live"]["pairs"]
        assert layers["stations.send_frame.calls"] == 4 * pairs + 8
        assert layers["stations.recv_frame.calls"] == 4 * pairs + 8
        assert layers["stations.incomplete"] == 0 and layers["stations.rejected"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
