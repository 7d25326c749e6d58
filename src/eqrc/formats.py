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
from array import array
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


def _line_template(group_label: str, station: str, setting: Setting) -> tuple[str, str]:
    """The constant head and tail of a record line for one group and station.

    A record's sorted keys are group, n, outcome, setting, station, v, so
    only ``n`` and ``outcome`` sit between the two pieces. JSON renders an
    int as ``str(int)``, so head, n, ``,"outcome":``, outcome and tail
    joined are the same bytes as ``_dumps`` of the whole record.
    """
    head = _dumps({"group": group_label})[:-1] + ',"n":'
    tail = "," + _dumps({"setting": _setting_json(setting), "station": station, "v": SCHEMA_VERSION})[1:]
    return head, tail


def dataset_record_lines(ds: RunDataset) -> Iterable[str]:
    """The dataset payload: one record per line, L before R per pair.

    Grouped datasets stream group by group in pair-index order;
    interleaved (randomly switched, unsorted) datasets stream in
    emission order with the active-pair tag.
    """
    if ds.interleaved is not None:
        inter = ds.interleaved
        templates = [
            (*_line_template(f"pair{gid}", "L", lft), _line_template(f"pair{gid}", "R", rgt)[1])
            for gid, (lft, rgt) in enumerate(ds.canonical_pairs)
        ]
        cols = (inter.group_ids.tolist(), inter.pair_index.tolist(), inter.left.tolist(), inter.right.tolist())
        for gid, n, lo, ro in zip(*cols):
            head, ltail, rtail = templates[gid]
            yield f'{head}{n},"outcome":{lo}{ltail}'
            yield f'{head}{n},"outcome":{ro}{rtail}'
        return
    for grp in ds.groups:
        head, ltail = _line_template(grp.label, "L", grp.left_setting)
        rtail = _line_template(grp.label, "R", grp.right_setting)[1]
        for n, lo, ro in zip(grp.pair_index.tolist(), grp.left.tolist(), grp.right.tolist()):
            yield f'{head}{n},"outcome":{lo}{ltail}'
            yield f'{head}{n},"outcome":{ro}{rtail}'


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
    Raises ValueError, naming the line or pair, for a record of another
    schema version or an unknown group, a pair index that is not an
    integer >= 1, an outcome other than -1/+1, a station other than
    L/R, and a pair without exactly one L and one R record.
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
        gid_of = {label: gid for gid, label in enumerate(labels)}
        # (gid, n, station 0/1, outcome) per record, flat, in file order
        flat = array("q")
        for lineno, raw in enumerate(fh, start=2):
            rec = json.loads(raw)
            if rec.get("v") != SCHEMA_VERSION:
                raise ValueError(f"line {lineno}: record with unsupported schema version: {raw!r}")
            try:
                gid = gid_of[rec.get("group")]
            except (KeyError, TypeError):
                raise ValueError(f"line {lineno}: record tagged with unknown group {rec.get('group')!r}") from None
            n = rec.get("n")
            if type(n) is not int or not 0 < n < 2**63:  # bools and floats are refused too
                raise ValueError(f"line {lineno}: pair index {n!r} is not an integer >= 1 in {path}")
            station, outcome = rec.get("station"), rec.get("outcome")
            if station not in ("L", "R"):
                raise ValueError(f"line {lineno}: unknown station {station!r} for pair {n} in {path}")
            if type(outcome) is not int or outcome not in (-1, 1):
                raise ValueError(f"line {lineno}: outcome {outcome!r} of pair {n} is not -1 or +1 in {path}")
            flat.extend((gid, n, station == "R", outcome))

    gids, ns, sides, outcomes = np.frombuffer(flat, dtype=np.int64).reshape(-1, 4).T
    # Sorted by (gid, n, station), a valid file is a run of (L, R) couples;
    # the first couple that is not starts a pair with a missing or extra record.
    order = np.lexsort((sides, ns, gids))
    lrow, rrow = order[0::2], order[1::2]
    m = len(rrow)
    coupled = (gids[lrow[:m]] == gids[rrow]) & (ns[lrow[:m]] == ns[rrow]) & (sides[lrow[:m]] < sides[rrow])
    bad = np.flatnonzero(~coupled)
    if bad.size or len(lrow) != m:
        at = int(lrow[bad[0]] if bad.size else lrow[m])
        raise ValueError(
            f"pair {int(ns[at])} in group {labels[gids[at]]} (line {at + 2}) is incomplete or repeated: "
            f"it needs exactly one L and one R record in file {path}"
        )

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
        # First-appearance order: a pair sits where the earlier of its records does.
        first_seen = np.argsort(np.minimum(lrow, rrow))
        lrow, rrow = lrow[first_seen], rrow[first_seen]
        inter = InterleavedRecords(
            group_ids=gids[lrow], pair_index=ns[lrow],
            left=outcomes[lrow].astype(np.int8), right=outcomes[rrow].astype(np.int8),
        )
        return RunDataset(canonical_pairs=pairs, groups=(), interleaved=inter, spec=spec, meta=meta)

    bounds = np.searchsorted(gids[lrow], np.arange(len(pairs) + 1))
    pair_index, left, right = ns[lrow], outcomes[lrow].astype(np.int8), outcomes[rrow].astype(np.int8)
    groups = tuple(
        RunGroup(
            label=labels[gid],
            left_setting=lft,
            right_setting=rgt,
            pair_index=pair_index[lo:hi],
            left=left[lo:hi],
            right=right[lo:hi],
        )
        for gid, ((lft, rgt), lo, hi) in enumerate(zip(pairs, bounds[:-1], bounds[1:]))
    )
    return RunDataset(canonical_pairs=pairs, groups=groups, spec=spec, meta=meta)


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
