"""Layer-boundary spans recorded from outside the eqrc package.

The tracer replaces a function by a timing wrapper in every eqrc
namespace that holds it (the defining module, each module that imported
the name, and the package itself), so calls made through any of those
names are seen. Nothing inside the package is edited or timed.

Spans are kept in memory until the run ends. A span's self time is its
duration minus the part of it covered by child spans of the same thread;
child spans of other threads (the live workload's role threads) nest
inside their parent's interval but do not reduce its self time, because
the parent thread was waiting, not working, while they ran.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass

def _gauge_draws(args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    return {"draws": int(getattr(t, "size", 1))}


def _pairs_sampled(args, kwargs, result):
    return {"pairs": len(result)}


def _indices_checked(args, kwargs, result):
    ds = args[0]
    return {"indices": sum(len(g.pair_index) for g in ds.groups)}


def _dataset_pairs(ds):
    return {"pairs": len(ds.interleaved) if ds.interleaved is not None else sum(len(g) for g in ds.groups)}


def _pairs_written(args, kwargs, result):
    return _dataset_pairs(args[0])


def _pairs_loaded(args, kwargs, result):
    return _dataset_pairs(result)


def _frame_bytes(args, kwargs, result):
    obj = args[1] if len(args) > 1 else kwargs["obj"]
    raw = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return {"bytes": 4 + len(raw)}


#: Wrapped layer functions: metric prefix -> [(module, attribute, count_fn)].
#: count_fn(args, kwargs, result) returns extra counts recorded on the span
#: of a call that returned.
LAYERS = {
    "experiments.dataset_check": [("eqrc.experiments", "RunDataset.__post_init__", _indices_checked)],
    "experiments.run_experiment": [("eqrc.experiments", "run_experiment", None)],
    "experiments.sort_wigner_sets": [("eqrc.experiments", "sort_wigner_sets", None)],
    "model.sample_pair_stream": [("eqrc.model", "sample_pair_stream", _pairs_sampled)],
    "model.gauge_eval": [("eqrc.model", "gauge_eval", _gauge_draws)],
    "model.measure_pairs": [("eqrc.model", "measure_pairs", None)],
    "model.measure_scalar": [("eqrc.model", "measure_left", None), ("eqrc.model", "measure_right", None)],
    "stations.send_frame": [("eqrc.stations", "send_frame", _frame_bytes)],
    "stations.recv_frame": [("eqrc.stations", "recv_frame", None)],
    "stations.validate_message": [("eqrc.stations", "validate_message", None)],
    "stations.write_report_log": [("eqrc.stations", "write_report_log", None)],
    "stations.load_report_log": [("eqrc.stations", "load_report_log", None)],
    "stations.collate": [("eqrc.stations", "collate", None)],
    "stations.inject_fault": [("eqrc.stations", "inject_fault", None)],
    "formats.write_run_dataset": [("eqrc.formats", "write_run_dataset", _pairs_written)],
    "formats.load_run_dataset": [("eqrc.formats", "load_run_dataset", _pairs_loaded)],
    "stats.estimate_expectation": [("eqrc.stats", "estimate_expectation", None)],
    "stats.build_triple_table": [("eqrc.stats", "build_triple_table", None)],
    "inequalities.cyclic_concatenate": [("eqrc.inequalities", "cyclic_concatenate", None)],
    "inequalities.checks": [
        ("eqrc.inequalities", "bell_check", None),
        ("eqrc.inequalities", "chsh_check", None),
        ("eqrc.inequalities", "wigner_check", None),
    ],
}

#: Prefix of the spans the benchmark opens itself (operation, live roles).
BENCH_PREFIX = "bench."

_AUTO = object()  # parent: the thread's open span, else the current operation


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    counts: dict | None = None
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped layer functions and from benchmark blocks.

    ``install`` patches every namespace, ``uninstall`` restores the
    originals, so untraced and traced operations can alternate in one
    process. A span opened on a thread with no open span takes the current
    operation span as its parent; that is how spans on threads started
    inside the package (the collator's readers) join the operation tree.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.current_op: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, count_fn, parent=_AUTO, sid=None):
        stack = self._stack()
        if parent is _AUTO:
            parent = stack[-1] if stack else self.current_op
        if sid is None:
            sid = next(self._ids)
        stack.append(sid)
        returned = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, parent, name, threading.get_ident(), start, end)
            if count_fn is not None and returned:
                span.counts = count_fn(args, kwargs, result)
            self.spans.append(span)

    def run(self, name: str, fn, *args, parent=_AUTO, op: bool = False, **kwargs):
        """Call ``fn`` inside a benchmark span; ``op=True`` marks an operation root."""
        if op:
            self.current_op = sid = next(self._ids)
            try:
                return self._record(BENCH_PREFIX + name, fn, args, kwargs, None, parent=None, sid=sid)
            finally:
                self.current_op = None
        return self._record(BENCH_PREFIX + name, fn, args, kwargs, None, parent=parent)

    def current_span(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _wrapper(self, name, fn, count_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._record(name, fn, args, kwargs, count_fn)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items() if n == "eqrc" or n.startswith("eqrc.")]
        for layer, targets in LAYERS.items():
            for module_name, attr, count_fn in targets:
                owner = sys.modules[module_name]
                *cls_path, fn_name = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, fn_name)
                wrapper = self._wrapper(layer, fn, count_fn)
                holders = [owner] if cls_path else [m for m in namespaces if getattr(m, fn_name, None) is fn]
                for holder in holders:
                    self._patches.append((holder, fn_name, fn))
                    setattr(holder, fn_name, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()


def compute_self_times(spans: list[Span]) -> None:
    """Fill ``self_s``: duration minus the union of same-thread child intervals."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children.setdefault(parent.id, []).append(s)
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        s.self_s = s.duration - covered


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, summed counts."""
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += s.self_s
        for k, v in (s.counts or {}).items():
            row["counts"][k] = row["counts"].get(k, 0) + v
    return out
