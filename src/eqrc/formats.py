"""File schemas: JSON-lines for datasets and reports, CSV for tables.

Every file carries a schema-version marker. Wall-clock metadata is
isolated in the JSONL header line (CSV outputs carry none at all), so
identical inputs give byte-identical data lines. Floats are written via
their shortest round-trip decimal form, which re-parses to the same
64-bit value. Table writers write to an open text stream.

Each record file kind states its layout once, as one template of
literal fields per slot. The templates give the ``_LineCodec`` that
renders blocks of dataset and report-log lines from numpy columns for
the writers and parses chunks of them into columns with array
operations for the loaders, and the JSON path's record check. A chunk
is taken only if its columns render back to its bytes; any other takes
the JSON path line by line. Emission logs always take the latter.
"""

from __future__ import annotations

import csv
import io
import json
import re
from array import array
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .experiments import ExperimentSpec, InterleavedRecords, RunDataset, RunGroup, SweepPoint
from .inequalities import InequalityReport
from .model import GaugeKey, Setting, _dumps
from .stats import TripleTable

__all__ = [
    "dataset_record_lines",
    "run_dataset_blocks",
    "write_run_dataset",
    "load_run_dataset",
    "write_sweep_csv",
    "write_expectation_csv",
    "write_triple_csv",
    "write_reports_jsonl",
]

DATASET_KIND = "run-dataset"
SCHEMA_VERSION = 1
#: Version of the emission-log and report-log files.
LOG_SCHEMA_VERSION = 1


def _setting_json(s: Setting) -> list[float]:
    return [s.b2, s.b3]


def _written(value) -> str:
    """What two values as written, such as settings from ``_setting_json`` or a JSON reader, share when they
    are the same: -0.0 == 0 == 0.0 == False, but repr, like JSON, writes each apart."""
    return repr(value)


def _dataset_header(ds: RunDataset) -> dict:
    spec = ds.spec
    return {
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


# ---------------------------------------------------------------------------
# The line codec behind the dataset and report-log writers and their chunked loads

# Most lines a writer renders at once: a block's arrays stay under glibc's 128 KiB mmap threshold. Freed
# larger blocks raise it, and the heap then held about 3 MB more in the live benchmark's checks.
_RENDER_ROWS = 1 << 10


def _digit_block(col: np.ndarray) -> np.ndarray:
    """Rows of each value's sign and decimal digits, right-aligned, with NULs for no byte."""
    neg, mag = col < 0, col.view(np.uint64)
    mag = np.where(neg, -mag, mag)  # int64 min's magnitude, 2**63, is a uint64
    width = len(str(top := mag.max(initial=0)))
    if 1 < width and top < 2**32:  # uint32 division is the faster; one digit is not worth the cast
        mag = mag.astype(np.uint32)
    text = np.empty((len(col), width + 1), np.uint8)
    text[:, 0] = neg * ord("-")
    for at in range(width, 0, -1):
        lead = mag == 0  # a leading zero, unless it is the last digit
        mag, digit = np.divmod(mag, mag.dtype.type(10))
        text[:, at] = digit + ord("0") if at == width else np.where(lead, 0, digit + ord("0"))
    return text


def _span_ints(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The int64 each b[lo:hi] reads as, '-' and up to 19 digits (None: longer); a render check refuses a wrap."""
    neg = b.take(lo, mode="clip") == ord("-")
    lo = lo + neg
    if (width := int((hi - lo).max(initial=0))) > 19:
        return None
    value = np.zeros(len(lo), np.int64)
    for at in range(width, 0, -1):  # most significant first
        value = value * 10 + np.where(hi - at >= lo, b.take(hi - at, mode="clip").astype(np.int64) - ord("0"), 0)
    return np.where(neg, -value, value)


class _LineCodec:
    """The lines of a file kind's records, rendered from int64 columns and parsed back into them.

    Each template is one slot's literal fields. A slot's line is the
    dump of its template with the ``columns`` added, split where their
    decimal text sits into literal bytes and column numbers. A column is
    parsed from the end of the literal before it to the next comma, so a
    layout parses only if a comma follows each column and the literal
    before it holds a comma or starts the line. A parsed line's slot is
    read from the bytes of its first and last literal that tell the
    slots apart, and the render check refuses any other difference.
    """

    def __init__(self, templates: Sequence[dict], columns: Sequence[str]) -> None:
        marks = {name: f"\0{col}" for col, name in enumerate(columns)}  # dumped as "\u0000<col>"
        lines = [re.split(r'"\\u0000(\d)"', _dumps({**template, **marks}) + "\n") for template in templates]
        if any(len(line) != 2 * len(columns) + 1 for line in lines):
            raise ValueError(f"a template holds a column mark: {templates}")
        tables = [int(part) if i % 2 else [line[i].encode() for line in lines] for i, part in enumerate(lines[0])]
        # Each column: its number, the commas before it in slot 0's line, and how far past the last it starts.
        self.fields = [(int(col), "".join(lines[0][:i:2]).count(","), len(lines[0][i - 1]) - lines[0][i - 1].rfind(","))
                       for i, col in enumerate(lines[0]) if i % 2]
        # A literal: a row of bytes per slot, padded with NULs, or one row that every slot shares.
        self.parts = [table if type(table) is int else np.array(table[:1] if len(set(table)) == 1 else table)
                      .view(np.uint8).reshape(-1, max(map(len, table))) for table in tables]
        # Probes: offsets from a line's start (>= 0) and past its newline (< 0) within every slot's first and
        # last literal, where a byte splits slots that the probes before it do not.
        head, tail = min(map(len, tables[0])), min(map(len, tables[-1]))
        edges = np.frombuffer(b"".join(f[:head] + l[len(l) - tail:] for f, l in zip(tables[0], tables[-1])), np.uint8)
        edges, probes = edges.reshape(len(lines), head + tail), [0]  # a key of one byte at least: the "{"
        for at in np.flatnonzero((edges != edges[0]).any(axis=0)):
            if len(set(map(bytes, edges[:, probes + [at]]))) > len(set(map(bytes, edges[:, probes]))):
                probes.append(at)
        keys = np.ascontiguousarray(edges[:, probes]).view(f"V{len(probes)}").ravel()
        self.order, self.keys = np.argsort(keys), np.sort(keys)
        self.probes = np.array([at if at < head else at - head - tail for at in probes])

    def render(self, slot: np.ndarray, cols: Sequence[np.ndarray]) -> bytes:
        """The lines of rows with these slots and columns: laid out at a fixed width, less the NULs."""
        rows = len(slot)
        blocks = [_digit_block(np.asarray(cols[part], np.int64)) if type(part) is int
                  else part.take(slot, axis=0) if len(part) > 1 else np.broadcast_to(part, (rows, part.shape[1]))
                  for part in self.parts]
        return np.concatenate(blocks, axis=1).tobytes().translate(None, b"\0")  # JSON text holds no NUL

    def parse(self, data: bytes) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """The slots and columns of newline-ended lines, if they render back to ``data`` byte for byte."""
        b = np.frombuffer(data, np.uint8)
        ends, commas = np.flatnonzero(b == ord("\n")), np.flatnonzero(b == ord(","))
        if not data.endswith(b"\n") or not len(commas):
            return None
        starts = np.r_[0, ends[:-1] + 1]
        at = np.where(self.probes >= 0, starts[:, None], ends[:, None] + 1) + self.probes
        keys = np.ascontiguousarray(b.take(at, mode="clip")).view(self.keys.dtype).ravel()
        found = np.searchsorted(self.keys, keys).clip(max=len(self.keys) - 1)
        if (self.keys[found] != keys).any():  # a line of no slot: refused before any column is read
            return None
        first = np.searchsorted(commas, starts)  # each line's first comma
        cols = [None] * len(self.fields)
        for col, before, since in self.fields:
            lo = (commas.take(first + before - 1, mode="clip") if before else starts - 1) + since
            if (value := _span_ints(b, lo, commas.take(first + before, mode="clip"))) is None:
                return None
            cols[col] = value
        return None if self.render(slot := self.order[found], cols) != data else (slot, cols)


def _dataset_templates(groups: Iterable[tuple[str, Setting, Setting]]) -> list[dict]:
    """Record templates of groups (label, left, right): slot 2g is group g's L record, 2g + 1 its R."""
    return [{"group": label, "setting": _setting_json(setting), "station": station, "v": SCHEMA_VERSION}
            for label, *settings in groups for station, setting in zip("LR", settings)]


def run_dataset_blocks(ds: RunDataset) -> Iterator[bytes]:
    """The dataset file: its header line, then record lines, L before R per pair, ``_RENDER_ROWS`` at most at
    a time. Groups stream in turn; interleaved (switched, unsorted) records in emission order."""
    yield (_dumps(_dataset_header(ds)) + "\n").encode()
    if (inter := ds.interleaved) is not None:
        groups = [(f"pair{gid}", *pair) for gid, pair in enumerate(ds.canonical_pairs)]
        runs = [(inter.group_ids, inter.pair_index, inter.left, inter.right)]
    else:
        groups = [(g.label, g.left_setting, g.right_setting) for g in ds.groups]
        runs = [(np.broadcast_to(gid, len(g)), g.pair_index, g.left, g.right) for gid, g in enumerate(ds.groups)]
    codec = _LineCodec(_dataset_templates(groups), ("n", "outcome"))
    for gids, n, left, right in runs:
        for cut in (slice(at, at + _RENDER_ROWS // 2) for at in range(0, len(n), _RENDER_ROWS // 2)):
            slot = 2 * np.asarray(gids[cut], np.int64)[:, None] + [0, 1]
            # ndarray.repeat: each np.repeat call left a small object that kept arenas of line strings alive.
            yield codec.render(slot.ravel(), [n[cut].repeat(2), np.column_stack((left[cut], right[cut])).ravel()])


def dataset_record_lines(ds: RunDataset) -> Iterable[str]:
    """The dataset payload: one record per line (see ``run_dataset_blocks``), without newlines."""
    return (line for block in islice(run_dataset_blocks(ds), 1, None) for line in block.decode().split("\n")[:-1])


def write_run_dataset(ds: RunDataset, path) -> None:
    """Stream the dataset file to ``path`` block by block."""
    with Path(path).open("wb") as fh:
        fh.writelines(run_dataset_blocks(ds))


# ---------------------------------------------------------------------------
# The record reader behind the dataset, report-log and emission-log loaders

_decode = json.JSONDecoder().raw_decode
_CHUNK_BYTES = 1 << 20  # about how much text of data lines a chunk parser takes at once


# Numeric fields as the reader takes them: (name, validity of a column, refusal).
_PAIR_INDEX = ("n", lambda n: n >= 1, "pair index {!r} is not an integer >= 1")
_OUTCOME = ("outcome", lambda o: (o == 1) | (o == -1), "outcome {!r} is not -1 or +1")


def _refuse(kind: str, path, row: int, problem: str) -> NoReturn:
    raise ValueError(f"{kind} {path} line {row + 2}: {problem}")


def _header_ints(kind: str, path, header: dict, least: dict) -> dict:
    """The header, unless a field of ``least`` (name -> least value) is not an integer >= that value."""
    for name, low in least.items():
        if type(header.get(name)) is not int or header[name] < low:
            _refuse(kind, path, -1, f"header {name} {header.get(name)!r} is not an integer >= {low}")
    return header


def _read_records(path, kind: str, version: int, templates_of, ints: tuple, floats: tuple = (), foreign: str = "",
                  trailer: frozenset = frozenset(), check_header=lambda header: header):
    """Read a header line and record lines into typed columns, refusing what the writer never writes.

    ``templates_of(header)`` gives each slot's template: the literal
    fields of its records, ``v`` among them, and strings but for
    ``setting`` and ``v``. ``ints`` and ``floats`` hold (name, validity
    of a column or None, refusal formatted with the bad value): one int
    at least, and no float or two at least. A line is one JSON object and its
    newline. A record has the keys of the templates and the columns, its
    ``v`` is ``version`` and its literal fields are a slot's as written
    (``_written``: the same floats, no int, and the sign of a zero
    kept); ``foreign`` is the refusal of other literal fields. Its
    numbers go into int64 and float64 columns, range-checked as columns.
    Nothing may follow a line with the ``trailer`` keys.
    ``check_header(header)`` runs before any data line is read.
    Returns (what ``check_header`` gives, slot number of each record, int
    columns, float columns, trailer or None); raises ValueError naming
    the first bad line.

    Without floats, the templates also give the writer's ``_LineCodec``:
    a chunk of whole lines that it parses is taken from its columns.
    """
    names = [field[0] for field in (*ints, *floats)]
    int_col, float_col, slot_col = array("q"), array("d"), array("q")
    get_ints, get_floats = itemgetter(*names[:len(ints)]), itemgetter(*names[len(ints):]) if floats else None
    add_ints = int_col.extend if len(ints) > 1 else int_col.append  # one name: a getter gives the value alone
    last = problem = None
    with Path(path).open("r", encoding="utf-8", newline="\n") as fh:  # a writer's lines end in \n alone
        try:
            header, end = _decode(line := fh.readline())
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or header.get("kind") != kind or header.get("v") != version:
            raise ValueError(f"not a v{version} {kind} file: {path}")
        if line[end:] not in ("\n", ""):
            _refuse(kind, path, -1, f"text after the object: {line[end:]!r}")
        try:
            templates = templates_of(header)
            if odd := [t for t in templates if any(type(t[k]) is not str for k in t.keys() - {"setting", "v"})]:
                raise TypeError(f"slot {odd[0]!r} is not all strings")
            codec = _LineCodec(templates, names) if templates and not floats else None
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{kind} {path} line 1: header without valid slots: {exc!r}") from None
        literal = sorted({"v"}.union(*templates))
        keys, get_literals = frozenset([*literal, *names]), itemgetter(*literal)
        slots = {_written(get_literals(template)): i for i, template in enumerate(templates)}
        checked = check_header(header)

        def pieces():  # the data lines, less those of each chunk that ``codec`` takes into the columns
            while codec is not None and (text := fh.read(_CHUNK_BYTES) + fh.readline()):
                if (got := codec.parse(text.encode())) is None:
                    yield from io.StringIO(text)  # split at newlines only, as ``fh`` splits
                    continue
                slot_col.frombytes(got[0].tobytes())
                int_col.frombytes(np.column_stack(got[1]).tobytes())
            yield from fh

        for line in pieces():
            try:
                rec, end = _decode(line)
            except json.JSONDecodeError as exc:
                problem = f"not a JSON object: {exc}"
                break
            try:  # a record; a failure ends the read, and the columns are cut to the rows of ``slot_col``
                if (line[end:] in ("\n", "") and rec.keys() == keys
                        and not (("true" in line or "false" in line) and bool in map(type, map(rec.get, names)))):
                    add_ints(get_ints(rec))
                    if floats:
                        float_col.extend(get_floats(rec))
                    slot_col.append(slots[_written(get_literals(rec))])
                    continue
            except (AttributeError, KeyError, TypeError, OverflowError):
                pass
            # Not a record, or the trailer: the first check it fails names it.
            if line[end:] not in ("\n", ""):
                problem = f"text after the object: {line[end:]!r}"
            elif trailer and isinstance(rec, dict) and rec.keys() == trailer:
                last, problem = rec, "a line after the trailer" if fh.readline() else None
            elif not isinstance(rec, dict) or rec.keys() != keys:
                problem = f"{rec!r} does not have the keys {sorted(keys)}"
            elif type(rec["v"]) is not int or rec["v"] != version:
                problem = f"unsupported {kind.rsplit('-', 1)[-1]} schema version {rec['v']!r}"
            elif _written(get_literals(rec)) not in slots:
                problem = f"{foreign}: {({name: rec[name] for name in literal})}"
            else:  # a column that does not take its value
                for (name, _, what), code in zip((*ints, *floats), "q" * len(ints) + "d" * len(floats)):
                    try:  # None stands in for a boolean, which a column would take as 1 or 0
                        array(code, [None if type(rec[name]) is bool else rec[name]])
                    except (TypeError, OverflowError):
                        problem = what.format(rec[name])
                        break
            break
    rows = len(slot_col)
    cols = (np.frombuffer(int_col, np.int64, rows * len(ints)).reshape(rows, len(ints)),
            np.frombuffer(float_col, np.float64, rows * len(floats)).reshape(rows, len(floats)))
    bad = [(rows + (last is not None), problem)] if problem else []
    for fields, col in zip((ints, floats), cols):
        for j, (_, ok, what) in enumerate(fields):
            if ok is not None and (wrong := np.flatnonzero(~ok(col[:, j]))).size:
                bad.append((int(wrong[0]), what.format(col[wrong[0], j].item())))
    if bad:
        _refuse(kind, path, *min(bad))
    return checked, np.frombuffer(slot_col, dtype=np.int64), *cols, last


def load_run_dataset(path) -> RunDataset:
    """Rebuild a dataset from its JSONL form.

    Fixed-mode files come back as groups; randomly switched files come
    back interleaved (file order) so they can be sorted downstream.
    Raises ValueError, naming the line or pair, for what ``_read_records``
    refuses, among it a record of another schema version, of an unknown
    group or station, or with a setting other than its group's in the
    header, a pair index that is not an integer >= 1 and an outcome other
    than -1/+1; for a header ``seed`` or ``pairs_per_setting`` that is
    not an integer >= 0 or >= 1, other spec fields ``ExperimentSpec``
    refuses or a ``meta`` that is not an object; and for a pair without
    exactly one L and one R record, or a switched file's pair index with
    records in two groups.
    """
    def header_spec(header) -> tuple[dict, ExperimentSpec | None, dict]:
        spec, meta = None, header.get("meta", {})
        if type(meta) is not dict:
            _refuse(DATASET_KIND, path, -1, f"header meta {meta!r} is not an object")
        if header.get("seed") is not None:
            _header_ints(DATASET_KIND, path, header, {"seed": 0, "pairs_per_setting": 1})
            try:
                spec = ExperimentSpec(
                    setting_pairs=tuple((Setting(*l), Setting(*r)) for l, r in header["spec_pairs"]),
                    pairs_per_setting=header["pairs_per_setting"], seed=header["seed"],
                    key=GaugeKey.from_json(header["gauge"]), switching=header["switching"])
            except (KeyError, TypeError, ValueError) as exc:
                _refuse(DATASET_KIND, path, -1, f"header spec is refused: {exc!r}")
        return header, spec, meta

    (header, spec, meta), slot, ints, _, _ = _read_records(
        path, DATASET_KIND, SCHEMA_VERSION,
        lambda header: _dataset_templates((f"pair{gid}", *(Setting(*setting) for setting in pair))
                                          for gid, pair in enumerate(header["pairs"])),
        ints=(_PAIR_INDEX, _OUTCOME), foreign="unknown group or station, or a setting other than the header's",
        check_header=header_spec)
    pairs = tuple((Setting(*l), Setting(*r)) for l, r in header["pairs"])
    labels = [f"pair{i}" for i in range(len(pairs))]
    gids, sides = slot >> 1, slot & 1
    ns, outcomes = ints.T
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
    if header.get("switching") != "random-switched":
        return RunDataset(canonical_pairs=pairs, groups=groups, spec=spec, meta=meta)
    try:  # the groups a switched file sorts into: RunDataset's check refuses a pair index in two of them
        RunDataset(canonical_pairs=pairs, groups=groups)
    except ValueError as exc:
        raise ValueError(f"{exc}: a pair index has records in two groups of file {path}") from None
    # First-appearance order: a pair sits where the earlier of its records does.
    first_seen = np.argsort(np.minimum(lrow, rrow))
    inter = InterleavedRecords(group_ids=gids[lrow][first_seen], pair_index=pair_index[first_seen],
                               left=left[first_seen], right=right[first_seen])
    return RunDataset(canonical_pairs=pairs, groups=(), interleaved=inter, spec=spec, meta=meta)


def write_sweep_csv(points: Sequence[SweepPoint], fh: TextIO) -> None:
    fh.write("# schema=eqrc.sweep.v1\n")
    writer = csv.writer(fh)
    writer.writerow(["theta_radians", "expectation", "std_error", "n"])
    for p in points:
        writer.writerow([repr(p.theta), repr(p.estimate.value), repr(p.estimate.std_error), p.estimate.n_samples])


def write_expectation_csv(rows: Sequence[dict], fh: TextIO) -> None:
    """One estimate per row, as produced by the run command."""
    cols = ["left_b2", "left_b3", "right_b2", "right_b3", "n", "expectation", "std_error", "seed", "gauge"]
    fh.write("# schema=eqrc.expectation.v1\n")
    writer = csv.DictWriter(fh, fieldnames=cols)
    writer.writeheader()
    for row in rows:
        out = dict(row)
        for key in ("left_b2", "left_b3", "right_b2", "right_b3", "expectation", "std_error"):
            out[key] = repr(float(out[key]))
        writer.writerow(out)


def write_triple_csv(tables: Sequence[TripleTable], fh: TextIO) -> None:
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


def write_reports_jsonl(reports: Sequence[InequalityReport], fh: TextIO) -> None:
    fh.write(_dumps({"v": SCHEMA_VERSION, "kind": "inequality-reports"}) + "\n")
    for rep in reports:
        fh.write(_dumps(rep.to_json()) + "\n")
