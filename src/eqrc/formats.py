"""File schemas: JSON-lines for datasets and reports, CSV for tables.

Every file carries a schema-version marker. Wall-clock metadata is
isolated in the JSONL header line (CSV outputs carry none at all), so
identical inputs give byte-identical data lines. Floats are written via
their shortest round-trip decimal form, which re-parses to the same
64-bit value.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .experiments import ExperimentSpec, InterleavedRecords, RunDataset, RunGroup, SweepPoint
from .inequalities import InequalityReport
from .model import GaugeKey, Setting
from .stats import TripleTable

__all__ = [
    "dataset_record_lines",
    "run_dataset_text",
    "write_run_dataset",
    "load_run_dataset",
    "sweep_csv_text",
    "write_sweep_csv",
    "expectation_csv_text",
    "write_expectation_csv",
    "write_triple_csv",
    "write_reports_jsonl",
]

DATASET_KIND = "run-dataset"
SCHEMA_VERSION = 1


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _setting_json(s: Setting) -> list[float]:
    return [s.b2, s.b3]


def _record_line(group_label: str, n: int, station: str, setting: Setting, outcome: int) -> str:
    return _dumps(
        {
            "v": SCHEMA_VERSION,
            "group": group_label,
            "n": n,
            "station": station,
            "setting": _setting_json(setting),
            "outcome": outcome,
        }
    )


def dataset_record_lines(ds: RunDataset) -> Iterable[str]:
    """The dataset payload: one record per line, L before R per pair.

    Grouped datasets stream group by group in pair-index order;
    interleaved (randomly switched, unsorted) datasets stream in
    emission order with the active-pair tag.
    """
    if ds.interleaved is not None:
        inter = ds.interleaved
        for i in range(len(inter)):
            gid = int(inter.group_ids[i])
            lft, rgt = ds.canonical_pairs[gid]
            n = int(inter.pair_index[i])
            yield _record_line(f"pair{gid}", n, "L", lft, int(inter.left[i]))
            yield _record_line(f"pair{gid}", n, "R", rgt, int(inter.right[i]))
        return
    for grp in ds.groups:
        for i in range(len(grp)):
            n = int(grp.pair_index[i])
            yield _record_line(grp.label, n, "L", grp.left_setting, int(grp.left[i]))
            yield _record_line(grp.label, n, "R", grp.right_setting, int(grp.right[i]))


def _dataset_header(ds: RunDataset) -> dict:
    spec = ds.spec
    header = {
        "v": SCHEMA_VERSION,
        "kind": DATASET_KIND,
        "pairs": [[_setting_json(l), _setting_json(r)] for l, r in ds.canonical_pairs],
        "spec_pairs": (
            [[_setting_json(l), _setting_json(r)] for l, r in spec.setting_pairs] if spec else None
        ),
        "switching": spec.switching if spec else None,
        "pairs_per_setting": spec.pairs_per_setting if spec else None,
        "seed": spec.seed if spec else None,
        "gauge": spec.key.to_json() if spec else None,
        "meta": ds.meta,
    }
    return header


def _dataset_file_lines(ds: RunDataset) -> Iterable[str]:
    """Header line, then record lines, each newline-terminated."""
    yield _dumps(_dataset_header(ds)) + "\n"
    for line in dataset_record_lines(ds):
        yield line + "\n"


def run_dataset_text(ds: RunDataset) -> str:
    """The dataset file's full text."""
    return "".join(_dataset_file_lines(ds))


def write_run_dataset(ds: RunDataset, path) -> None:
    """Stream the dataset file to ``path`` line by line."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(_dataset_file_lines(ds))


def load_run_dataset(path) -> RunDataset:
    """Rebuild a dataset from its JSONL form.

    Fixed-mode files come back as groups; randomly switched files come
    back interleaved (file order) so they can be sorted downstream.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != DATASET_KIND or header.get("v") != SCHEMA_VERSION:
            raise ValueError(f"not a v{SCHEMA_VERSION} {DATASET_KIND} file: {path}")
        pairs = tuple(
            (Setting(*l), Setting(*r)) for l, r in header["pairs"]
        )
        labels = [f"pair{i}" for i in range(len(pairs))]
        # (group, n) -> {"L": outcome, "R": outcome}, in first-appearance order
        slots: dict[tuple[int, int], dict] = {}
        for raw in fh:
            rec = json.loads(raw)
            if rec.get("v") != SCHEMA_VERSION:
                raise ValueError(f"record with unsupported schema version: {raw!r}")
            try:
                gid = labels.index(rec["group"])
            except ValueError:
                raise ValueError(f"record tagged with unknown group {rec['group']!r}") from None
            slot = slots.setdefault((gid, int(rec["n"])), {})
            slot[rec["station"]] = int(rec["outcome"])

    for (gid, n), slot in slots.items():
        if set(slot) != {"L", "R"}:
            raise ValueError(f"pair {n} in group pair{gid} is incomplete in file {path}")

    spec = None
    if header.get("seed") is not None:
        spec_pairs = tuple((Setting(*l), Setting(*r)) for l, r in header["spec_pairs"])
        spec = ExperimentSpec(
            setting_pairs=spec_pairs,
            pairs_per_setting=int(header["pairs_per_setting"]),
            seed=int(header["seed"]),
            key=GaugeKey.from_json(header["gauge"]),
            switching=header["switching"],
        )
    meta = dict(header.get("meta", {}))

    if header.get("switching") == "random-switched":
        keys = list(slots)
        gids = np.array([g for g, _ in keys], dtype=np.int64)
        idx = np.array([n for _, n in keys], dtype=np.int64)
        left = np.array([slots[k]["L"] for k in keys], dtype=np.int8)
        right = np.array([slots[k]["R"] for k in keys], dtype=np.int8)
        inter = InterleavedRecords(group_ids=gids, pair_index=idx, left=left, right=right)
        return RunDataset(canonical_pairs=pairs, groups=(), interleaved=inter, spec=spec, meta=meta)

    groups = []
    for gid, (lft, rgt) in enumerate(pairs):
        ns = sorted(n for g, n in slots if g == gid)
        idx = np.array(ns, dtype=np.int64)
        left = np.array([slots[(gid, n)]["L"] for n in ns], dtype=np.int8)
        right = np.array([slots[(gid, n)]["R"] for n in ns], dtype=np.int8)
        groups.append(
            RunGroup(
                label=labels[gid],
                left_setting=lft,
                right_setting=rgt,
                pair_index=idx,
                left=left,
                right=right,
            )
        )
    return RunDataset(canonical_pairs=pairs, groups=tuple(groups), spec=spec, meta=meta)


def sweep_csv_text(points: Sequence[SweepPoint]) -> str:
    buf = io.StringIO()
    buf.write("# schema=eqrc.sweep.v1\n")
    writer = csv.writer(buf)
    writer.writerow(["theta_radians", "expectation", "std_error", "n"])
    for p in points:
        writer.writerow([repr(p.theta), repr(p.estimate.value), repr(p.estimate.std_error), p.estimate.n_samples])
    return buf.getvalue()


def write_sweep_csv(points: Sequence[SweepPoint], path) -> None:
    Path(path).write_text(sweep_csv_text(points), encoding="utf-8", newline="")


def expectation_csv_text(rows: Sequence[dict]) -> str:
    """One estimate per row, as produced by the run command."""
    cols = ["left_b2", "left_b3", "right_b2", "right_b3", "n", "expectation", "std_error", "seed", "gauge"]
    buf = io.StringIO()
    buf.write("# schema=eqrc.expectation.v1\n")
    writer = csv.DictWriter(buf, fieldnames=cols)
    writer.writeheader()
    for row in rows:
        out = dict(row)
        for key in ("left_b2", "left_b3", "right_b2", "right_b3", "expectation", "std_error"):
            out[key] = repr(float(out[key]))
        writer.writerow(out)
    return buf.getvalue()


def write_expectation_csv(rows: Sequence[dict], path) -> None:
    Path(path).write_text(expectation_csv_text(rows), encoding="utf-8", newline="")


def write_triple_csv(tables: Sequence[TripleTable], path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("# schema=eqrc.triples.v1\n")
        writer = csv.writer(fh)
        writer.writerow(["kind", "s1", "s2", "s3", "count", "total", "fraction"])
        for table in tables:
            for pattern in sorted(table.counts, reverse=True):
                writer.writerow(
                    [
                        table.kind,
                        *pattern,
                        table.counts[pattern],
                        table.total,
                        repr(table.fraction(pattern)),
                    ]
                )


def write_reports_jsonl(reports: Sequence[InequalityReport], path, created: str | None = None) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {"v": SCHEMA_VERSION, "kind": "inequality-reports"}
        if created is not None:
            header["created"] = created
        fh.write(_dumps(header) + "\n")
        for rep in reports:
            fh.write(_dumps(rep.to_json()) + "\n")
