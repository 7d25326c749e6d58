"""eqrc benchmark runner.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of an eqrc checkout; the package is imported from its
``src/`` tree, nothing is installed. One run builds the workload (timed
several times, the median is ``setup_s``), then repeats the workload's
operation for ``--seconds`` seconds, checking every output. With
``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` traced and untraced operations
alternate and the last line holds the per-layer metrics instead. The
line before it holds the run's stamp (machine, versions, seed, sizes),
the sha256 digests of its output data, ``failed_frac`` and any problems.

``--workload all`` runs every workload in its own process and prints
each metric as ``workload.metric value unit``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "suite", "export", "live")
SETUP_REPEATS = 3

END_TO_END = {
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics, each a per-operation mean over the traced operations.
PER_LAYER = {
    "experiments.dataset_check.calls": "count",
    "experiments.dataset_check.s": "s",
    "experiments.dataset_check.indices": "count",
    "experiments.run_experiment.self_s": "s",
    "experiments.sort_wigner_sets.self_s": "s",
    "model.sample_pair_stream.calls": "count",
    "model.sample_pair_stream.s": "s",
    "model.gauge_eval.calls": "count",
    "model.gauge_eval.s": "s",
    "model.gauge_eval.ns_per_draw": "ns",
    "model.measure_pairs.self_s": "s",
    "model.pairs_sampled": "count",
    "model.measure_scalar.calls": "count",
    "model.measure_scalar.s": "s",
    "stations.send_frame.calls": "count",
    "stations.send_frame.s": "s",
    "stations.recv_frame.calls": "count",
    "stations.recv_frame.s": "s",
    "stations.validate_message.calls": "count",
    "stations.validate_message.s": "s",
    "stations.frames_per_pair": "count",
    "stations.wire_bytes_per_pair": "B",
    "stations.role_cpu_s.source": "s",
    "stations.role_cpu_s.L": "s",
    "stations.role_cpu_s.R": "s",
    "stations.role_cpu_s.collator": "s",
    "stations.max_lead": "count",
    "stations.rejected": "count",
    "stations.incomplete": "count",
    "formats.write_run_dataset.s": "s",
    "formats.load_run_dataset.s": "s",
    "formats.bytes_per_pair": "B",
    "formats.write_us_per_pair": "us",
    "formats.load_us_per_pair": "us",
    "stations.write_report_log.s": "s",
    "stations.load_report_log.s": "s",
    "stations.collate.s": "s",
    "stations.inject_fault.s": "s",
    "stations.report_log_bytes_per_pair": "B",
    "stats.estimate_expectation.calls": "count",
    "stats.estimate_expectation.s": "s",
    "stats.build_triple_table.self_s": "s",
    "inequalities.cyclic_concatenate.self_s": "s",
    "inequalities.checks.s": "s",
    "trace.residual_s": "s",
    "trace_overhead_frac": "frac",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "eqrc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(workload: str, seed: int, seconds: float, sizes: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "sizes": sizes,
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _import_package() -> float:
    """Import eqrc from the checkout's src tree; returns the seconds it took."""
    if not (SRC / "eqrc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no eqrc package at {SRC / 'eqrc'}; run from an eqrc checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import eqrc
    import workloads  # noqa: F401  (imports numpy and every eqrc module)

    elapsed = time.perf_counter() - t0
    if Path(eqrc.__file__).resolve().parent != (SRC / "eqrc").resolve():
        raise SystemExit(f"perfbench: eqrc was imported from {eqrc.__file__}, not from {SRC}")
    return elapsed


def _per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def layer_metrics(spans, ops: int, extras: list[dict], pairs: int) -> dict[str, float]:
    """Per-layer values per traced operation from the spans and workload extras."""
    tracing.compute_self_times(spans)
    totals = tracing.layer_totals(spans)
    values: dict[str, float] = {}
    for layer in tracing.LAYERS:
        row = totals.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        values[f"{layer}.calls"] = _per_op(row["calls"], ops)
        values[f"{layer}.s"] = _per_op(row["s"], ops)
        values[f"{layer}.self_s"] = _per_op(row["self_s"], ops)
        for name, count in row["counts"].items():
            values[f"{layer}.{name}"] = _per_op(count, ops)

    def time_per(layer: str, count: str, scale: float) -> float:
        row = totals.get(layer)
        n = row["counts"].get(count, 0) if row else 0
        return row["s"] * scale / n if n else 0.0

    values["model.gauge_eval.ns_per_draw"] = time_per("model.gauge_eval", "draws", 1e9)
    values["formats.write_us_per_pair"] = time_per("formats.write_run_dataset", "pairs", 1e6)
    values["formats.load_us_per_pair"] = time_per("formats.load_run_dataset", "pairs", 1e6)
    values["model.pairs_sampled"] = values.get("model.sample_pair_stream.pairs", 0.0)
    values["stations.frames_per_pair"] = values["stations.send_frame.calls"] / pairs
    values["stations.wire_bytes_per_pair"] = values.get("stations.send_frame.bytes", 0.0) / pairs
    values["trace.residual_s"] = _per_op(
        sum(s.self_s for s in spans if s.name.startswith(tracing.BENCH_PREFIX)), ops)
    for key in {k for e in extras for k in e}:
        values[key] = statistics.fmean(e.get(key, 0.0) for e in extras)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """One benchmark run in this process; returns metrics, checks, stamp and spans."""
    import_s = _import_package()
    import workloads

    sizes = sizes or workloads.SIZES[workload]
    make = workloads.WORKLOADS[workload]
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            w = make(seed, sizes, workdir)
            make(seed, workloads.WARM_UP_SIZES[workload], workdir).op()
            setups.append(time.perf_counter() - t0)

        tracer = tracing.Tracer()
        walls, cpus, rates, traced_walls, extras = [], [], [], [], []
        problems: list[str] = []
        attempted = failed = 0
        first_digests = None
        start = time.perf_counter()
        while True:
            traced = trace and attempted % 2 == 1
            if traced:
                tracer.install()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                out = tracer.run("op", w.op, tracer, op=True) if traced else w.op(None)
                error = None
            except Exception as exc:  # a failed operation is counted, never retried
                out, error = None, "".join(traceback.format_exception_only(exc)).strip()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if traced:
                tracer.uninstall()
            attempted += 1
            if error is None:
                try:
                    found, digests = w.check(out)
                except Exception as exc:  # malformed output fails the operation
                    found, digests = [f"check raised {exc!r}"], first_digests
                if first_digests is None:
                    first_digests = digests
                elif digests != first_digests:
                    found.append("output bytes differ from the run's first operation")
            else:
                found = [error]
            if found:
                failed += 1
                problems.extend(f"op {attempted}: {p}" for p in found)
            if traced:
                traced_walls.append(wall)
                if out is not None:
                    extras.append(w.extras(out, cpu))
            else:
                walls.append(wall)
                cpus.append(cpu)
                rates.append(w.pairs / wall)
            if getattr(out, "alive", None):
                break  # a hung live role: stop measuring, report the failure
            enough = walls and (traced_walls or not trace)
            if enough and time.perf_counter() - start + wall > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems[:20],
        "digests": first_digests or {},
        "stamp": stamp(workload, seed, seconds, sizes),
        "end_to_end": {
            "wall_s": statistics.median(walls),
            "pairs_per_s": statistics.median(rates),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_s + statistics.median(setups),
        },
        "ops": {"untraced": len(walls), "traced": len(traced_walls), "untraced_wall_s": walls},
    }
    if trace:
        layers = layer_metrics(tracer.spans, len(traced_walls), extras, w.pairs)
        layers["trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        result["per_layer"] = {name: layers.get(name, 0.0) for name in PER_LAYER}
        result["spans"] = tracer.spans
        result["traced_wall_s"] = sum(traced_walls)
    return result


def result_line(result: dict, trace: bool) -> dict:
    units, values = (PER_LAYER, result["per_layer"]) if trace else (END_TO_END, result["end_to_end"])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_subprocess(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload in a fresh interpreter; returns (detail line, result line)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: bool) -> int:
    metrics, attempted, failed = {}, 0, 0
    for workload in WORKLOAD_NAMES:
        detail, line = run_subprocess(workload, seed, seconds, trace)
        attempted += line["attempted"]
        failed += line["failed"]
        print(f"{workload}.failed_frac {detail['failed_frac']!r} frac")
        for problem in detail["problems"]:
            print(f"{workload}: {problem}")
        for name, m in line["metrics"].items():
            metrics[f"{workload}.{name}"] = m
            print(f"{workload}.{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = {k: result[k] for k in ("stamp", "digests", "failed_frac", "problems", "ops")}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
