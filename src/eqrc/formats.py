"""File schemas: JSON-lines for datasets and reports, CSV for tables.

Every file carries a schema-version marker. Wall-clock metadata is
isolated in the JSONL header line (CSV outputs carry none at all), so
identical inputs give byte-identical data lines. Floats are written via
their shortest round-trip decimal form, which re-parses to the same
64-bit value. Table writers write to an open text stream.

Dataset and report-log lines have one layout each, a ``_LineCodec`` that
renders blocks of lines from numpy columns for the writers, and parses
chunks of lines into columns with array operations for the loaders. A
chunk is taken only if its columns render back to its bytes; any other
takes the JSON path line by line. Emission logs always take the latter.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .experiments import ExperimentSpec, InterleavedRecords, RunDataset, RunGroup, SweepPoint
from .inequalities import InequalityReport
from .model import GaugeKey, Setting
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


def _dumps(obj) -> str:
    """The JSON every file and frame writer writes: sorted keys, compact separators, no NaN or infinity."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _setting_json(s: Setting) -> list[float]:
    return [s.b2, s.b3]


def _written(setting: list) -> str:
    """What two settings as written, from ``_setting_json`` or a JSON reader, share when they are the same:
    -0.0 == 0 == 0.0, but repr, like JSON, writes each apart."""
    return repr(setting)


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
    """One fixed line layout, rendered from int64 columns and parsed back into them.

    ``parts`` are literal bytes, lists of literal bytes picked by each
    line's slot, and the numbers of the columns whose decimal text sits
    there. A column is parsed from the end of the literal before it to
    the next comma, so a layout parses only if a comma follows each
    column and the literal before it holds a comma or starts the line.
    ``slot_of(b, starts, ends, commas)`` gives each parsed line's slot
    from the bytes and the positions of each line's first byte, newline
    and first comma (None, or any number, where no slot's line could be).
    """

    def __init__(self, parts: list, slot_of=lambda b, starts, *_: np.zeros(len(starts), np.int64)) -> None:
        tables = [[part] if type(part) is bytes else part for part in parts]  # a literal: a table of one slot
        line = [table if type(table) is int else table[0] for table in tables]  # slot 0's line
        # Each column: its number, the commas before it in a line, and how far past the last it starts.
        self.fields = [(col, b"".join(p for p in line[:i] if type(p) is bytes).count(b","),
                        len(line[i - 1]) - line[i - 1].rfind(b",")) for i, col in enumerate(line) if type(col) is int]
        self.parts = [table if type(table) is int else np.array(table).view(np.uint8).reshape(len(table), -1)
                      for table in tables]  # a literal: one row of bytes per slot, padded with NULs
        self.slots, self.slot_of = max(len(table) for table in tables if type(table) is list), slot_of

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
        first = np.searchsorted(commas, starts)  # each line's first comma
        cols = [None] * len(self.fields)
        for col, before, since in self.fields:
            lo = (commas.take(first + before - 1, mode="clip") if before else starts - 1) + since
            if (value := _span_ints(b, lo, commas.take(first + before, mode="clip"))) is None:
                return None
            cols[col] = value
        slot = self.slot_of(b, starts, ends, commas.take(first, mode="clip"))
        if slot is None or ((slot < 0) | (slot >= self.slots)).any() or self.render(slot, cols) != data:
            return None
        return slot, cols


def _dataset_slots(b: np.ndarray, starts: np.ndarray, ends: np.ndarray, commas: np.ndarray) -> np.ndarray | None:
    """Slot 2 * gid + side of dataset lines: gid ends at the quote before the first comma, and the station
    is 9 bytes before the newline."""
    gid = _span_ints(b, starts + len('{"group":"pair'), commas - 1)
    return None if gid is None else 2 * gid + (b.take(ends - 9, mode="clip") == ord("R"))


def _dataset_codec(groups: Iterable[tuple[str, Setting, Setting]]) -> _LineCodec:
    """Record lines of groups (label, left, right), columns (n, outcome): slot 2g is group g's L, 2g + 1 its R."""
    heads, tails = [], []
    for label, *settings in groups:  # a record's sorted keys: group, n, outcome, setting, station, v
        for station, setting in zip("LR", settings):
            heads.append(_dumps({"group": label})[:-1].encode())
            tail = _dumps({"setting": _setting_json(setting), "station": station, "v": SCHEMA_VERSION})
            tails.append(f",{tail[1:]}\n".encode())
    return _LineCodec([heads, b',"n":', 0, b',"outcome":', 1, tails], _dataset_slots)


def _report_codec(station: str, setting: Setting) -> _LineCodec:
    """Report-log lines of a station session, with columns (n, outcome, clock_ns) and sorted keys."""
    tail = _dumps({"setting": _setting_json(setting), "station": station, "type": "report", "v": LOG_SCHEMA_VERSION})
    return _LineCodec([b'{"clock_ns":', 2, b',"n":', 0, b',"outcome":', 1, f",{tail[1:]}\n".encode()])


def run_dataset_blocks(ds: RunDataset) -> Iterator[bytes]:
    """The dataset file: its header line, then record lines, L before R per pair, ``_RENDER_ROWS`` at most at
    a time. Groups stream in turn; interleaved (switched, unsorted) records in emission order."""
    yield (_dumps(_dataset_header(ds)) + "\n").encode()
    if (inter := ds.interleaved) is not None:
        codec = _dataset_codec((f"pair{gid}", *pair) for gid, pair in enumerate(ds.canonical_pairs))
        runs = [(inter.group_ids, inter.pair_index, inter.left, inter.right)]
    else:
        codec = _dataset_codec((g.label, g.left_setting, g.right_setting) for g in ds.groups)
        runs = [(np.broadcast_to(gid, len(g)), g.pair_index, g.left, g.right) for gid, g in enumerate(ds.groups)]
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


def _read_records(path, kind: str, version: int, ints: tuple, floats: tuple = (), slot: tuple = (),
                  slots_of=lambda header: {(): None}, foreign: str = "", trailer: frozenset = frozenset(),
                  chunks_of=None, check_header=lambda header: header):
    """Read a header line and record lines into typed columns, refusing what the writer never writes.

    ``ints`` and ``floats`` hold (name, validity of a column or None,
    refusal formatted with the bad value). ``slot`` names the string
    fields that pick a record's slot, and ``slots_of(header)`` maps each
    slot key to the setting the header gives it (None: the records have
    no setting); ``foreign`` is the refusal of a record of another slot
    or setting. ``ints``, ``floats`` and ``slot`` each name no field or
    at least two, so that their getters return tuples. A line is one
    JSON object and its newline, and a record has exactly the keys they
    name, and ``setting`` if ``slot`` names any. Its numbers go into
    int64 and float64 columns that are range-checked as columns; its
    setting must be its slot's as the writer writes it (``_written``:
    the same floats, no int, and the sign of a zero kept). Nothing may follow
    a line with the ``trailer`` keys. ``check_header(header)`` runs
    before any data line is read.
    Returns (what ``check_header`` gives, slot number of each record, int columns,
    float columns, trailer or None); raises ValueError naming the first
    bad line.

    ``chunks_of(header)`` (no floats or trailer) gives the writer's
    codec of the data lines, or None. A chunk of whole lines that it
    parses is taken from its columns, which are those of ``ints`` after
    ``v``: the codec's lines carry ``version`` as a literal.
    """
    get_slot, get_ints, get_floats = (itemgetter(*names) if names else lambda rec: ()
                                      for names in (slot, [f[0] for f in ints], [f[0] for f in floats]))
    keys = frozenset([*slot, *(["setting"] if slot else []), *(f[0] for f in (*ints, *floats))])
    int_col, float_col, slot_col = array("q"), array("d"), array("q")
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
        try:  # slot key -> (slot number, the header's setting as written, or None)
            slots = {key: (i, None if want is None else _written(_setting_json(want)))
                     for i, (key, want) in enumerate(slots_of(header).items())}
            if odd := [key for key in slots if any(type(field) is not str for field in key)]:
                raise TypeError(f"slot {odd[0]!r} is not all strings")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{kind} {path} line 1: header without valid slots: {exc!r}") from None
        checked = check_header(header)
        codec = chunks_of(header) if chunks_of else None

        def pieces():  # the data lines, less those of each chunk that ``codec`` takes into the columns
            while codec is not None and (text := fh.read(_CHUNK_BYTES) + fh.readline()):
                if (got := codec.parse(text.encode())) is None:
                    yield from io.StringIO(text)  # split at newlines only, as ``fh`` splits
                    continue
                slot_col.frombytes(got[0].tobytes())
                int_col.frombytes(np.column_stack((np.full(len(got[0]), version), *got[1])).tobytes())
            yield from fh

        def in_slot(rec, at) -> bool:
            return at[1] is None or _written(rec["setting"]) == at[1]

        def problem_of(rec) -> str | None:
            """Why a decoded line is not a record (None if it is one)."""
            if not isinstance(rec, dict) or rec.keys() != keys:
                return f"{rec!r} does not have the keys {sorted(keys)}"
            for fields, code in ((ints, "q"), (floats, "d")):
                for name, _, what in fields:
                    try:  # None stands in for a boolean, which a column would take as 1 or 0
                        array(code, [None if type(rec[name]) is bool else rec[name]])
                    except (TypeError, OverflowError):
                        return what.format(rec[name])
            try:
                if in_slot(rec, slots[get_slot(rec)]):
                    return None
            except (KeyError, TypeError):  # an unknown or unhashable slot
                pass
            return f"{foreign}: {get_slot(rec)!r} with setting {rec.get('setting')!r}"

        for line in pieces():
            try:
                rec, end = _decode(line)
            except json.JSONDecodeError as exc:
                problem = f"not a JSON object: {exc}"
                break
            try:
                at = slots[get_slot(rec)]
                # The slow path refuses booleans, which the columns would take as 1 or 0.
                if (line[end:] == "\n" and rec.keys() == keys and in_slot(rec, at)
                        and "true" not in line and "false" not in line):
                    int_col.extend(get_ints(rec))
                    float_col.extend(get_floats(rec))
                    slot_col.append(at[0])
                    continue
            except (TypeError, KeyError, AttributeError, OverflowError):
                rows = len(slot_col)
                del int_col[rows * len(ints):], float_col[rows * len(floats):]  # a failed extend's part
            # The slow path: the trailer, or a line the fast path did not take.
            if line[end:] not in ("\n", ""):
                problem = f"text after the object: {line[end:]!r}"
            elif trailer and isinstance(rec, dict) and rec.keys() == trailer:
                last, problem = rec, "a line after the trailer" if fh.readline() else None
            else:
                problem = problem_of(rec)
            if problem is not None or last is not None:
                break
            int_col.extend(get_ints(rec))
            float_col.extend(get_floats(rec))
            slot_col.append(slots[get_slot(rec)][0])
    rows = len(slot_col)
    cols = (np.frombuffer(int_col, dtype=np.int64).reshape(rows, len(ints)),
            np.frombuffer(float_col, dtype=np.float64).reshape(rows, len(floats)))
    bad = [(rows + (last is not None), problem)] if problem else []
    for fields, col in zip((ints, floats), cols):
        for j, (_, ok, what) in enumerate(fields):
            if ok is not None and (wrong := np.flatnonzero(~ok(col[:, j]))).size:
                bad.append((int(wrong[0]), what.format(col[wrong[0], j].item())))
    if bad:
        _refuse(kind, path, *min(bad))
    return checked, np.frombuffer(slot_col, dtype=np.int64), *cols, last


def _dataset_chunks(header) -> _LineCodec:
    """The codec of a dataset with the header's pairs (see ``_read_records``)."""
    return _dataset_codec((f"pair{gid}", *(Setting(*setting) for setting in pair))
                          for gid, pair in enumerate(header["pairs"]))


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
        ints=(("v", lambda v: v == SCHEMA_VERSION, "record with unsupported schema version {!r}"),
              _PAIR_INDEX, _OUTCOME),
        slot=("group", "station"),
        slots_of=lambda header: {(f"pair{gid}", station): Setting(*setting)
                                 for gid, pair in enumerate(header["pairs"])
                                 for station, setting in zip("LR", pair)},
        foreign="unknown group or station, or a setting other than the header's", chunks_of=_dataset_chunks,
        check_header=header_spec)
    pairs = tuple((Setting(*l), Setting(*r)) for l, r in header["pairs"])
    labels = [f"pair{i}" for i in range(len(pairs))]
    gids, sides = slot >> 1, slot & 1
    _, ns, outcomes = ints.T
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
