"""File schemas: JSON-lines for the three record files (run datasets, emission logs and report logs)
and inequality reports, CSV for tables. Record files are laid out, written and read here alone.

Every file carries a schema-version marker. Wall-clock metadata is
isolated in the JSONL header line (CSV outputs carry none at all), so
identical inputs give byte-identical data lines. Floats are written via
their shortest round-trip decimal form, which re-parses to the same
64-bit value. Table writers write to an open text stream.

Each record file kind states its layout once, as one template of
literal fields per slot. The templates give the ``_LineCodec`` that
renders blocks of dataset and report-log lines from numpy columns for
the writers and parses chunks of them into columns with array
operations for the loaders, and the JSON path's record check. A block
is laid out at a fixed width and its NULs dropped in one step. The
loaders read bytes; a chunk is taken only if its columns render back to
its bytes, compared a block at a time, and any other takes the JSON
path line by line, decoded as UTF-8 then. Emission logs always take the
latter.
"""

from __future__ import annotations

import csv
import io
import json
import re
from array import array
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, NoReturn, Sequence, TextIO

import numpy as np

from .experiments import ExperimentSpec, InterleavedRecords, RunDataset, RunGroup, SweepPoint
from .inequalities import InequalityReport
from .model import GaugeKey, PairStream, Setting, _dumps, _setting_check, _setting_json, run_range
from .stats import TripleTable

__all__ = [
    "DATASET_COLUMNS",
    "REPORT_COLUMNS",
    "EMISSION_COLUMNS",
    "column_fault",
    "dataset_record_lines",
    "run_dataset_blocks",
    "write_run_dataset",
    "load_run_dataset",
    "write_sweep_csv",
    "write_expectation_csv",
    "write_triple_csv",
    "write_reports_jsonl",
    "StationReport",
    "ReportBatch",
    "SourceLog",
    "StationLog",
    "write_emission_log",
    "load_emission_log",
    "write_report_log",
    "load_report_log",
]

DATASET_KIND = "run-dataset"
SCHEMA_VERSION = 1
#: Version of the emission-log and report-log files.
LOG_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Record column rules, stated once for the wire checks, the writers and the loaders. A column: (name, dtype on the
# wire, validity of a column or None, refusal formatted with the bad value). The rules across rows stay with their
# record: ``n`` rising on the wire, contiguous in an emission log, unique in a dataset.
_PAIR_INDEX = ("n", "<i8", lambda n: n >= 1, "pair index {!r} is not an integer >= 1")
_OUTCOME = ("outcome", "i1", lambda o: (o == 1) | (o == -1), "outcome {!r} is not -1 or +1")
#: A dataset record: one wing's outcome of a pair.
DATASET_COLUMNS = (_PAIR_INDEX, _OUTCOME)


def column_fault(columns: tuple, cols: Sequence[np.ndarray], *more) -> tuple[int, str] | None:
    """The first row of ``cols``, an array per column of ``columns``, that breaks a rule, and the refusal; None if
    none does. Columns of unequal lengths break theirs at the shortest's end. ``more`` are the faults (row,
    refusal) or None of rules across rows; at one row the columns' rules come first, in order."""
    faults, rows = [], min(lengths := [len(col) for col in cols])
    if len(set(lengths)) > 1:
        faults.append((rows, f"columns {[name for name, *_ in columns]} of lengths {lengths}"))
    for (_, _, valid, what), col in zip(columns, cols):
        if valid is not None and not (ok := valid(col[:rows])).all():
            faults.append((at := int(np.argmin(ok)), what.format(col[at].item())))
    return min(filter(None, (*faults, *more)), key=itemgetter(0), default=None)


def _unwritable(kind: str, where: str, problem: str) -> NoReturn:
    raise ValueError(f"{where}: {problem}; no {kind} is written")


def _dataset_header(ds: RunDataset) -> dict:
    spec = ds.spec
    return {
        "v": SCHEMA_VERSION,
        "kind": DATASET_KIND,
        "pairs": [[_setting_json(l), _setting_json(r)] for l, r in ds.canonical_pairs],
        "spec_pairs": [[_setting_json(l), _setting_json(r)] for l, r in spec.setting_pairs] if spec else None,
        "switching": spec.switching if spec else None,
        "pairs_per_setting": spec.pairs_per_setting if spec else None,
        "seed": spec.seed if spec else None,
        "gauge": spec.key.to_json() if spec else None,
        "meta": ds.meta,
    }


# ---------------------------------------------------------------------------
# The line codec behind the dataset and report-log writers and their chunked loads

# Most lines rendered at once, by a writer or a load's check: a block's arrays stay under glibc's 128 KiB mmap
# threshold. Freed larger blocks raise it, and the heap then held about 3 MB more in the live benchmark's checks.
_RENDER_ROWS = 1 << 10


def _limb_table() -> np.ndarray:
    """The 4 ASCII bytes of each value below 10**4 as a uint32, three ways: zero-padded (a limb below a nonzero
    one), with NULs for leading zeros (a limb below none), and the same but for a zero's last digit (the lowest)."""
    v, table = np.arange(10**4, dtype=np.uint16), np.empty((3, 10**4, 4), np.uint8)
    for at, power in enumerate((1000, 100, 10, 1)):  # no array past glibc's mmap threshold (see _RENDER_ROWS)
        table[:, :, at] = v // power % 10 + ord("0")
        table[1:, v < power, at] = 0
    table[2, 0, 3] = ord("0")
    return table.view(np.uint32).ravel()


_LIMB_TEXT = _limb_table()


def _digit_block(col: np.ndarray) -> np.ndarray:
    """Rows of each value's decimal text, right-aligned, with NULs for no byte: a sign column, if any value
    is negative, then the digits, rendered 4 at a time from ``_LIMB_TEXT``."""
    neg = col.min(initial=0) < 0
    mag = np.abs(col).view(np.uint64) if neg else col.view(np.uint64)  # int64 min's magnitude 2**63 is a uint64
    width = len(str(top := int(mag.max(initial=0))))
    if top < 10:  # one digit: no leading zero, and no table
        text = (mag + ord("0")).astype(np.uint8)[:, None]
    else:
        limbs, part = [], 2 * 10**4  # lowest first, each offset to its part of the table: the lowest's, a higher's
        while True:
            if top < 2**32 and mag.dtype != np.uint32:  # uint32 division is the faster
                mag = mag.astype(np.uint32)
            if top < 10**4:
                break
            mag, low = np.divmod(mag, mag.dtype.type(10**4))
            low += (mag == 0) * low.dtype.type(part)  # the zero-padded part where a limb above is nonzero
            limbs.append(low)
            top, part = top // 10**4, 10**4
        text = _LIMB_TEXT.take(np.column_stack([mag + mag.dtype.type(part), *limbs[::-1]])).view(np.uint8)
    if not neg:
        return text[:, text.shape[1] - width:]
    block = np.empty((len(col), width + 1), np.uint8)
    block[:, 0], block[:, 1:] = (col < 0) * np.uint8(ord("-")), text[:, text.shape[1] - width:]
    return block


def _ints_at(b: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The int64 that each b[at:] starts with, '-' and up to 19 digits, and the offset past each (None: one
    is longer). Digits are read while any row has more; a render check refuses a wrap or no digit."""
    neg = b.take(at, mode="clip") == ord("-")
    at, value = at + neg, np.zeros(len(at), np.int64)
    for _ in range(20):
        digit = b.take(at, mode="clip") - np.uint8(ord("0"))  # past 9 if not a digit
        if not (more := digit < 10).any():
            return np.where(neg, -value, value), at
        value, at = np.where(more, value * 10 + digit, value), at + more
    return None


class _LineCodec:
    """The lines of a file kind's records, rendered from int64 columns and parsed back into them.

    Each template is one slot's literal fields. A slot's line is the
    dump of its template with the ``columns`` added, split where their
    decimal text sits into literal bytes and column numbers. A parsed
    line's slot is read from the bytes of its first and last literal
    that tell the slots apart; then its parts are read in turn from its
    start, a literal as its slot's length and a column as a '-' and the
    digits that follow (JSON puts a ',' or '}' after a number). The
    render check, a piece at a time, refuses any other difference.
    """

    def __init__(self, templates: Sequence[dict], columns: Sequence[str]) -> None:
        marks = {name: f"\0{col}" for col, name in enumerate(columns)}  # dumped as "\u0000<col>"
        lines = [re.split(r'"\\u0000(\d)"', _dumps({**template, **marks}) + "\n") for template in templates]
        if any(len(line) != 2 * len(columns) + 1 for line in lines):
            raise ValueError(f"a template holds a column mark: {templates}")
        tables = [int(part) if i % 2 else [line[i].encode() for line in lines] for i, part in enumerate(lines[0])]
        # A literal: a row of bytes per slot, padded with NULs, or one row that every slot shares.
        self.parts = [table if type(table) is int else np.array(table[:1] if len(set(table)) == 1 else table)
                      .view(np.uint8).reshape(-1, max(map(len, table))) for table in tables]
        # A literal's length, or each slot's if they differ (the layout pads them); None for a column.
        self.sizes = [None if type(table) is int else len(table[0]) if len(set(map(len, table))) == 1
                      else np.array(list(map(len, table))) for table in tables]
        self.padded = any(type(size) is np.ndarray for size in self.sizes)
        self.slots, self.layouts = len(lines), {}  # layouts: the ``_layout`` of each set of column widths
        # Probes: offsets from a line's start (>= 0) and past its newline (< 0) within every slot's first and
        # last literal, where a byte splits slots that the probes before it do not.
        head, tail = min(map(len, tables[0])), min(map(len, tables[-1]))
        edges = np.frombuffer(b"".join(f[:head] + l[len(l) - tail:] for f, l in zip(tables[0], tables[-1])), np.uint8)
        edges, probes = edges.reshape(len(lines), head + tail), []
        for at in np.flatnonzero((edges != edges[0]).any(axis=0)):
            if len(set(map(bytes, edges[:, probes + [at]]))) > len(set(map(bytes, edges[:, probes]))):
                probes.append(at)
        # Keys as unsigned ints, which search the fastest, padded with the "{" to 1, 2, 4 or 8 bytes; bytes if wider.
        size = next(size for size in (1, 2, 4, 8, len(probes)) if size >= len(probes))
        probes += [0] * (size - len(probes))
        keys = np.ascontiguousarray(edges[:, probes]).view(f"u{size}" if size <= 8 else f"V{size}").ravel()
        self.order, self.keys = np.argsort(keys), np.sort(keys)
        self.probes = np.array([at if at < head else at - head - tail for at in probes])

    def _layout(self, widths: tuple[int, ...]) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Each slot's line with NULs for its columns at these widths, and the columns' spans in it."""
        width = iter(widths)
        parts = [np.zeros((1, next(width)), np.uint8) if type(part) is int else part for part in self.parts]
        ends = np.cumsum([part.shape[1] for part in parts]).tolist()
        spans = [(end - part.shape[1], end) for part, end, given in zip(parts, ends, self.parts) if type(given) is int]
        return np.hstack([np.broadcast_to(part, (self.slots, part.shape[1])) for part in parts]), spans

    def render(self, slot: np.ndarray, cols: Sequence[np.ndarray]) -> bytes:
        """The lines of rows with these slots and columns: laid out at a fixed width, less the NULs."""
        blocks = [_digit_block(np.asarray(cols[part], np.int64)) for part in self.parts if type(part) is int]
        if (widths := tuple(block.shape[1] for block in blocks)) not in self.layouts:
            self.layouts[widths] = self._layout(widths)
        lines, spans = self.layouts[widths]
        layout = lines.take(slot, axis=0)
        for block, (lo, hi) in zip(blocks, spans):
            layout[:, lo:hi] = block
        # JSON text holds no NUL. bytes.replace takes a few the fastest, but a mask the many of slots' pads.
        return layout[layout != 0].tobytes() if self.padded else layout.tobytes().replace(b"\0", b"")

    def parse(self, data: bytes) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """The slots and columns of newline-ended lines, if they render back to ``data`` byte for byte."""
        b = np.frombuffer(data, np.uint8)
        if not data.endswith(b"\n"):
            return None
        ends = np.flatnonzero(b == ord("\n"))
        starts = np.r_[0, ends[:-1] + 1]
        slot = np.zeros(len(ends), np.int64)
        if self.slots > 1:
            at = np.where(self.probes >= 0, starts[:, None], ends[:, None] + 1) + self.probes
            keys = np.ascontiguousarray(b.take(at, mode="clip")).view(self.keys.dtype).ravel()
            found = np.searchsorted(self.keys, keys).clip(max=len(self.keys) - 1)
            if (self.keys[found] != keys).any():  # a line of no slot: refused before any column is read
                return None
            slot = self.order[found]
        cols, at = [None] * sum(size is None for size in self.sizes), starts
        for part, size in zip(self.parts, self.sizes):  # each line's parts in turn, from its start
            if size is not None:
                at = at + (size if type(size) is int else size.take(slot))
            elif (got := _ints_at(b, at)) is None:
                return None
            else:
                cols[part], at = got
        for lo in range(0, len(slot), _RENDER_ROWS):  # checked a render block at a time, while it is in cache
            hi = min(lo + _RENDER_ROWS, len(slot))
            if self.render(slot[lo:hi], [col[lo:hi] for col in cols]) != data[starts[lo]:ends[hi - 1] + 1]:
                return None
        return slot, cols


def _dataset_templates(groups: Iterable[tuple[str, Setting, Setting]]) -> list[dict]:
    """Record templates of groups (label, left, right): slot 2g is group g's L record, 2g + 1 its R."""
    return [{"group": label, "setting": _setting_json(setting), "station": station, "v": SCHEMA_VERSION}
            for label, *settings in groups for station, setting in zip("LR", settings)]


def run_dataset_blocks(ds: RunDataset) -> Iterator[bytes]:
    """The dataset file: its header line, then record lines, L before R per pair, ``_RENDER_ROWS`` at most at
    a time. Groups stream in turn; a switched run's records (one with a schedule) in emission order."""
    yield (_dumps(_dataset_header(ds)) + "\n").encode()
    if not ds.groups:  # no group, so no record: the header line alone
        return
    groups = [(g.label, g.left_setting, g.right_setting) for g in ds.groups]
    codec = _LineCodec(_dataset_templates(groups), [name for name, *_ in DATASET_COLUMNS])
    if (inter := ds.interleaved) is not None:
        runs = [(inter.group_ids, inter.pair_index, inter.left, inter.right)]
    else:
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
    """Stream the dataset file to ``path`` block by block.

    What the loader would refuse or read back otherwise is a ValueError naming the first bad pair, raised before
    ``path`` is opened: in turn, a header ``meta`` that is not an object, a schedule unless the loader reads
    emission order (a ``random-switched`` spec, no ``sorted_from_switched`` mark) or none if it does, groups
    other than pair0, pair1, ... with the settings of the setting pairs in turn, a value ``DATASET_COLUMNS`` refuses.
    """
    if type(ds.meta) is not dict:
        _unwritable("dataset", f"{path} line 1", f"header meta {ds.meta!r} is not an object")
    switching, mark = ds.spec and ds.spec.switching, ds.meta.get("sorted_from_switched")
    if (switching == "random-switched" and mark is not True) != (ds.schedule is not None):
        _unwritable("dataset", f"{path} line 1", f"switching {switching!r} and meta sorted_from_switched {mark!r} "
                    f"with{'' if ds.schedule is not None else 'out'} a schedule: not the order its loader reads")
    if ([_dumps([g.label, _setting_json(g.left_setting), _setting_json(g.right_setting)]) for g in ds.groups]
            != [_dumps([f"pair{i}", *map(_setting_json, lr)]) for i, lr in enumerate(ds.canonical_pairs)]):
        _unwritable("dataset", f"groups {[g.label for g in ds.groups]}",
                    f"not pair0, pair1, ... with the settings of the {len(ds.canonical_pairs)} setting pairs in turn")
    for g in ds.groups:  # a pair's index and its L and R outcomes, as columns
        if fault := column_fault((_PAIR_INDEX, _OUTCOME, _OUTCOME), (g.pair_index, g.left, g.right)):
            _unwritable("dataset", f"group {g.label} pair at index {fault[0]}", fault[1])
    blocks = run_dataset_blocks(ds)
    head = next(blocks)  # the header, rendered before the file is opened
    with Path(path).open("wb") as fh:
        fh.write(head)
        fh.writelines(blocks)


# ---------------------------------------------------------------------------
# The record reader behind the dataset, report-log and emission-log loaders

_decode = json.JSONDecoder().raw_decode
_CHUNK_BYTES = 1 << 20  # about how much text of data lines a chunk parser takes at once


def _refuse(kind: str, path, row: int, problem: str) -> NoReturn:
    raise ValueError(f"{kind} {path} line {row + 2}: {problem}")


def _header_fault(header: dict, least: dict) -> str | None:
    """The refusal of the first field of ``least`` (name -> least value) that is not an integer >= that value."""
    for name, low in least.items():
        if type(header.get(name)) is not int or header[name] < low:
            return f"header {name} {header.get(name)!r} is not an integer >= {low}"
    return None


def _read_records(path, kind: str, version: int, templates_of, columns: tuple, foreign: str = "",
                  trailer: frozenset = frozenset(), check_header=lambda header: header):
    """Read a header line and record lines into typed columns, refusing what the writer never writes.

    ``templates_of(header)`` gives each slot's template: the literal
    fields of its records, ``v`` among them, and strings but for
    ``setting`` and ``v`` that tell the slots apart. ``columns`` are the
    record's column rules, int columns first: one at least, and no float
    column or two at least. A line is UTF-8 text: one JSON object and its newline. A
    record has the keys of the templates and the columns, its ``v`` is
    ``version`` and its literal fields are a slot's as written (``v`` an
    int, and ``_setting_check``: the same floats, no int, and the sign of
    a zero kept); ``foreign`` is the refusal of other literal fields. Its
    numbers go into int64 and float64 columns, checked by ``column_fault``.
    Nothing may follow a line with the ``trailer`` keys.
    ``check_header(header)`` runs before any data line is read.
    Returns (what ``check_header`` gives, slot number of each record, the
    columns in the order of ``columns``, trailer or None); raises
    ValueError naming the first bad line.

    Without floats, the templates also give the writer's ``_LineCodec``:
    a chunk of whole lines that it parses is taken from its columns.
    """
    names, ints = [name for name, *_ in columns], sum(np.dtype(dtype).kind == "i" for _, dtype, *_ in columns)
    int_col, float_col, slot_col = array("q"), array("d"), array("q")
    get_ints, get_floats = itemgetter(*names[:ints]), itemgetter(*names[ints:]) if ints < len(names) else None
    add_ints = int_col.extend if ints > 1 else int_col.append  # one name: a getter gives the value alone
    last = problem = None
    with Path(path).open("rb") as fh:  # lines end in \n alone, as a writer ends them
        try:
            header, end = _decode(line := fh.readline().decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            header = None
        if not isinstance(header, dict) or header.get("kind") != kind or header.get("v") != version:
            raise ValueError(f"not a v{version} {kind} file: {path}")
        if line[end:] not in ("\n", ""):
            _refuse(kind, path, -1, f"text after the object: {line[end:]!r}")
        try:
            templates = templates_of(header)
            if odd := [t for t in templates if any(type(t[k]) is not str for k in t.keys() - {"setting", "v"})]:
                raise TypeError(f"slot {odd[0]!r} is not all strings")
            codec = _LineCodec(templates, names) if templates and not get_floats else None
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{kind} {path} line 1: header without valid slots: {exc!r}") from None
        literal = sorted({"v"}.union(*templates))
        keys = frozenset([*literal, *names])
        # A record's slot is looked up by its strings and ``v``; then the type of its ``v`` and its setting are checked.
        get_named = itemgetter(*(name for name in literal if name != "setting"))
        slots = {get_named(template): i for i, template in enumerate(templates)}
        same_setting = [_setting_check(template["setting"]) if "setting" in template else None
                        for template in templates]

        def slot_of(rec: dict) -> int | None:  # the slot whose literal fields ``rec``'s are as written, if any
            try:
                slot = slots[get_named(rec)]
            except (KeyError, TypeError):  # no slot's, or a field that is not hashable
                return None
            same = same_setting[slot]
            return slot if type(rec["v"]) is int and (same is None or same(rec["setting"])) else None

        checked = check_header(header)

        def lines():  # the data lines as text, less those of each chunk that ``codec`` takes into the columns
            while chunk := fh.read(_CHUNK_BYTES) + fh.readline():
                if codec is not None and (got := codec.parse(chunk)) is not None:
                    slot_col.frombytes(got[0].tobytes())
                    int_col.frombytes(np.column_stack(got[1]).tobytes())
                    continue
                try:  # split at newlines only, as ``fh`` splits
                    yield from io.StringIO(chunk.decode())
                except UnicodeDecodeError:  # a line that is not UTF-8: the lines before it, then its error
                    yield from map(bytes.decode, io.BytesIO(chunk))

        data = lines()
        try:
            for line in data:
                try:
                    rec, end = _decode(line)
                except json.JSONDecodeError as exc:
                    problem = f"not a JSON object: {exc}"
                    break
                try:  # a record; a failure ends the read, and the columns are cut to the rows of ``slot_col``
                    if (line[end:] in ("\n", "") and rec.keys() == keys
                            and not (("true" in line or "false" in line) and bool in map(type, map(rec.get, names)))):
                        add_ints(get_ints(rec))
                        if get_floats:
                            float_col.extend(get_floats(rec))
                        slot_col.append(slot_of(rec))  # None, of no slot, is a TypeError
                        continue
                except (AttributeError, KeyError, TypeError, OverflowError):
                    pass
                # Not a record, or the trailer: the first check it fails names it.
                if line[end:] not in ("\n", ""):
                    problem = f"text after the object: {line[end:]!r}"
                elif trailer and isinstance(rec, dict) and rec.keys() == trailer:
                    last = rec
                    problem = "a line after the trailer" if next(data, None) is not None else None
                elif not isinstance(rec, dict) or rec.keys() != keys:
                    problem = f"{rec!r} does not have the keys {sorted(keys)}"
                elif type(rec["v"]) is not int or rec["v"] != version:
                    problem = f"unsupported {kind.rsplit('-', 1)[-1]} schema version {rec['v']!r}"
                elif slot_of(rec) is None:
                    problem = f"{foreign}: {({name: rec[name] for name in literal})}"
                else:  # a column that does not take its value
                    for (name, _, _, what), code in zip(columns, "q" * ints + "d" * len(names)):
                        try:  # None stands in for a boolean, which a column would take as 1 or 0
                            array(code, [None if type(rec[name]) is bool else rec[name]])
                        except (TypeError, OverflowError):
                            problem = what.format(rec[name])
                            break
                break
        except UnicodeDecodeError as exc:
            problem = f"not UTF-8 text: {exc}"
    rows, floats = len(slot_col), len(names) - ints
    cols = [*np.frombuffer(int_col, np.int64, rows * ints).reshape(rows, ints).T,
            *np.frombuffer(float_col, np.float64, rows * floats).reshape(rows, floats).T]
    bad = [(rows + (last is not None), problem)] if problem else []
    if fault := column_fault(columns, cols):
        bad.append(fault)
    if bad:
        _refuse(kind, path, *min(bad))
    return checked, np.frombuffer(slot_col, dtype=np.int64), cols, last


def load_run_dataset(path) -> RunDataset:
    """Rebuild a dataset from its JSONL form.

    A file comes back as its groups in pair index order; a randomly
    switched one, unless of a sorted-back run (``meta`` mark
    ``sorted_from_switched``), in file order plus its schedule.
    Raises ValueError, naming the line or pair, for what ``_read_records``
    refuses, among it a record of another schema version, of an unknown
    group or station, or with a setting other than its group's in the
    header, and a value ``DATASET_COLUMNS`` refuses; for a header ``seed``
    or ``pairs_per_setting`` that is not an integer >= 0 or >= 1, other
    spec fields ``ExperimentSpec`` refuses or a ``meta`` that is not an
    object; and for a pair without exactly one L and one R record, or a
    switched file's pair index with records in two groups.
    """
    def header_spec(header) -> tuple[dict, ExperimentSpec | None, dict]:
        spec, meta = None, header.get("meta", {})
        if type(meta) is not dict:
            _refuse(DATASET_KIND, path, -1, f"header meta {meta!r} is not an object")
        if header.get("seed") is not None:
            if problem := _header_fault(header, {"seed": 0, "pairs_per_setting": 1}):
                _refuse(DATASET_KIND, path, -1, problem)
            try:
                spec = ExperimentSpec(
                    setting_pairs=tuple((Setting(*l), Setting(*r)) for l, r in header["spec_pairs"]),
                    pairs_per_setting=header["pairs_per_setting"], seed=header["seed"],
                    key=GaugeKey.from_json(header["gauge"]), switching=header["switching"])
            except (KeyError, TypeError, ValueError) as exc:
                _refuse(DATASET_KIND, path, -1, f"header spec is refused: {exc!r}")
        return header, spec, meta

    (header, spec, meta), slot, (ns, outcomes), _ = _read_records(
        path, DATASET_KIND, SCHEMA_VERSION,
        lambda header: _dataset_templates((f"pair{gid}", *(Setting(*setting) for setting in pair))
                                          for gid, pair in enumerate(header["pairs"])),
        DATASET_COLUMNS, foreign="unknown group or station, or a setting other than the header's",
        check_header=header_spec)
    pairs = tuple((Setting(*l), Setting(*r)) for l, r in header["pairs"])
    labels = [f"pair{i}" for i in range(len(pairs))]
    gids, sides = (slot >> 1).astype(InterleavedRecords.id_dtype(len(pairs))), slot & 1
    # Sorted by (gid, n, station), a valid file is a run of (L, R) couples;
    # the first couple that is not starts a pair with a missing or extra record.
    order = np.lexsort((sides, ns, gids))
    lrow, rrow = order[0::2], order[1::2]
    m = len(rrow)
    coupled = (gids[lrow[:m]] == gids[rrow]) & (ns[lrow[:m]] == ns[rrow]) & (sides[lrow[:m]] < sides[rrow])
    bad = np.flatnonzero(~coupled)
    if bad.size or len(lrow) != m:
        at = int(lrow[bad[0]] if bad.size else lrow[m])
        raise ValueError(f"pair {int(ns[at])} in group {labels[gids[at]]} (line {at + 2}) is incomplete or repeated: "
                         f"it needs exactly one L and one R record in file {path}")

    bounds, schedule = np.searchsorted(gids[lrow], np.arange(len(pairs) + 1)), None
    if header.get("switching") == "random-switched" and meta.get("sorted_from_switched") is not True:
        # Emission order: a pair sits where the earlier of its records does, in its group and in the schedule.
        first = np.minimum(lrow, rrow)
        schedule, order = gids[lrow][np.argsort(first)], np.lexsort((first, gids[lrow]))
        lrow, rrow = lrow[order], rrow[order]
    pair_index, left, right = ns[lrow], outcomes[lrow].astype(np.int8), outcomes[rrow].astype(np.int8)
    groups = tuple(RunGroup(labels[gid], lft, rgt, pair_index[lo:hi], left[lo:hi], right[lo:hi])
                   for gid, ((lft, rgt), lo, hi) in enumerate(zip(pairs, bounds[:-1], bounds[1:])))
    try:
        return RunDataset(canonical_pairs=pairs, groups=groups, schedule=schedule, spec=spec, meta=meta)
    except ValueError as exc:  # a pair index in two groups: one group's twice is incomplete or repeated above
        raise ValueError(f"{exc} of file {path}") from None


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
            writer.writerow([table.kind, *pattern, table.counts[pattern], table.total, repr(table.fraction(pattern))])


def write_reports_jsonl(reports: Sequence[InequalityReport], fh: TextIO) -> None:
    fh.write(_dumps({"v": SCHEMA_VERSION, "kind": "inequality-reports"}) + "\n")
    for rep in reports:
        fh.write(_dumps(rep.to_json()) + "\n")


# ---------------------------------------------------------------------------
# The source's emission log and a station's report log


#: A report-log record: a station's outcome of a pair, stamped with its batch's station-local clock.
REPORT_COLUMNS = (_PAIR_INDEX, _OUTCOME, ("clock_ns", "<i8", None, "clock_ns {!r} is not an integer"))


class StationReport(NamedTuple):
    """One row of a ReportBatch: a wing's outcome, its own setting and its batch's station-local clock stamp."""

    n: int
    station: str
    setting: Setting
    outcome: int
    clock_ns: int


@dataclass(frozen=True)
class ReportBatch:
    """Columnar report stream of one station session; iterates as ``StationReport`` rows."""

    station: str
    setting: Setting
    n: np.ndarray
    outcome: np.ndarray
    clock_ns: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def __iter__(self) -> Iterator[StationReport]:
        return map(StationReport, self.n.tolist(), repeat(self.station), repeat(self.setting),
                   self.outcome.tolist(), self.clock_ns.tolist())


def _unit_interval(x: np.ndarray) -> np.ndarray:
    return (x >= 0.0) & (x < 1.0)  # NaN is not in it


#: An emission-log record: a pair event. ``n`` is a pair index by the session's range, not by its own rule.
EMISSION_COLUMNS = (("n", "<i8", None, "pair index {!r} is not an integer"),
                    ("lambda", "<f8", _unit_interval, "lambda {!r} is not in [0, 1)"),
                    ("t", "<f8", _unit_interval, "t {!r} is not in [0, 1)"))


@dataclass
class SourceLog:
    seed: int
    session_index: int
    count: int
    emissions: PairStream  # the events sent to both stations, in order
    status: str = "complete"  # or "partial"
    detail: str = ""


@dataclass
class StationLog:
    """One station session: its reports as one ReportBatch with clocks, its dials and its rejects.

    ``StationReport`` rows given as ``reports`` become that batch; a batch or row of another
    station, or with a setting not the log's bit for bit, is a ValueError.
    """

    station: str
    setting: Setting
    key_digest: str
    reports: ReportBatch | Sequence[StationReport] = ()
    connections: list[tuple[str, str, int]] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if isinstance(batch := self.reports, ReportBatch):
            stations, settings = (batch.station,), (batch.setting,)
        else:
            n, stations, settings, outcome, clock_ns = list(zip(*self.reports)) or [()] * 5
            batch = ReportBatch(self.station, self.setting, np.array(n, np.int64), np.array(outcome, np.int8),
                                np.array(clock_ns, np.int64))
        written = _setting_check(_setting_json(self.setting))
        for station, setting in zip(stations, settings):
            same = station is self.station and setting is self.setting
            if not same and (station != self.station or not written(_setting_json(setting))):
                raise ValueError(f"station {self.station} log of {self.setting} given a report of station "
                                 f"{station!r} with {setting}")
        self.reports = batch


def _emission_fault(header: dict, cols: Sequence[np.ndarray] = (), trailer: dict | None = None):
    """An emission log's first fault as (row, refusal), row -1 the header and len(events) the trailer, or None: a
    header ``seed``, ``session`` or ``count`` not an integer >= 0, or a session range ``run_range`` refuses;
    then, given the events, a value ``EMISSION_COLUMNS`` refuses, a pair index other than the next of the range,
    an event past ``count``, and a trailer whose ``sent`` is not the number of events or, if "complete",
    ``count``."""
    if problem := _header_fault(header, {"seed": 0, "session": 0, "count": 0}):
        return -1, problem
    session, count = header["session"], header["count"]
    try:
        first = run_range(session, count).start
    except ValueError as exc:
        return -1, f"header session {session} of {count} pairs: {exc}"
    if not cols:
        return None
    n, ranged, closed = cols[0], None, None
    if (bad := np.flatnonzero(n[:count] != first + np.arange(min(len(n), count)))).size:
        ranged = (int(bad[0]), f"pair index {n[bad[0]]} is not {first + bad[0]}: out of the session's range "
                               f"{first}..{first + count - 1}, repeated or out of order")
    elif len(n) > count:
        ranged = (count, f"event {count + 1} (pair index {n[count]}) is past the session's count {count}")
    if trailer is not None and ([type(trailer[k]) for k in ("v", "sent", "detail")] != [int, int, str]
                                or [trailer["v"], trailer["sent"]] != [LOG_SCHEMA_VERSION, len(n)]
                                or trailer["status"] not in ("partial", "complete" if len(n) == count else "partial")):
        closed = (len(n), f"trailer {trailer} does not close {len(n)} events of a session of {count}")
    return column_fault(EMISSION_COLUMNS, cols, ranged, closed)


def write_emission_log(log: SourceLog, path) -> None:
    """Header line, one line per emitted event, then a trailer with the status.

    A log the loader would refuse is a ValueError naming the first line it would refuse (see
    ``_emission_fault``), raised before ``path`` is opened.
    """
    e = log.emissions
    header = {"v": LOG_SCHEMA_VERSION, "kind": "emission-log", "seed": log.seed, "session": log.session_index,
              "count": log.count}
    trailer = {"v": LOG_SCHEMA_VERSION, "status": log.status, "sent": len(e), "detail": log.detail}
    if fault := _emission_fault(header, (e.n, e.lam, e.t), trailer):
        _unwritable("emission log", f"{path} line {fault[0] + 2}", fault[1])
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        # The sorted-key dump of each event: JSON writes a finite float as its repr.
        fh.writelines(f'{{"lambda":{lam!r},"n":{n},"t":{t!r},"v":{LOG_SCHEMA_VERSION}}}\n'
                      for n, lam, t in zip(e.n.tolist(), e.lam.tolist(), e.t.tolist()))
        fh.write(_dumps(trailer) + "\n")


def load_emission_log(path) -> SourceLog:
    """Load an emission log; its events come back as one PairStream.

    Raises ValueError naming the line for what the reader or ``_emission_fault`` refuses; a header fault is
    named before any data line is read. A log without a trailer loads as partial.
    """
    def header_range(header) -> dict:
        if fault := _emission_fault(header):
            _refuse("emission-log", path, *fault)
        return header

    header, _, (n, lam, t), trailer = _read_records(
        path, "emission-log", LOG_SCHEMA_VERSION, lambda header: [{"v": LOG_SCHEMA_VERSION}], EMISSION_COLUMNS,
        trailer=frozenset({"v", "status", "sent", "detail"}), check_header=header_range)
    if fault := _emission_fault(header, (n, lam, t), trailer):
        _refuse("emission-log", path, *fault)
    status, detail = ("partial", "missing trailer") if trailer is None else (trailer["status"], trailer["detail"])
    return SourceLog(seed=header["seed"], session_index=header["session"], count=header["count"],
                     emissions=PairStream(n=n.copy(), lam=lam.copy(), t=t.copy()), status=status, detail=detail)


def _report_templates(header: dict) -> list[dict]:
    """The one record template of a report log with this header: its station session's."""
    return [{"setting": _setting_json(Setting(*header["setting"])), "station": header["station"], "type": "report",
             "v": LOG_SCHEMA_VERSION}]


def write_report_log(log: StationLog, path) -> None:
    """Header line, then one line per report: its fields, ``type`` "report" and ``v``, the bytes of dumping
    its object, rendered from the batch's int columns a block at a time.

    A log the loader would refuse is a ValueError raised before ``path`` is opened, naming a header ``station`` or
    ``key_digest`` that is not a string, else the batch's first report of a value ``REPORT_COLUMNS`` refuses.
    """
    for name in ("station", "key_digest"):
        if type(value := getattr(log, name)) is not str:
            _unwritable("report log", f"{path} line 1", f"header {name} {value!r} is not a string")
    r = log.reports
    if fault := column_fault(REPORT_COLUMNS, (r.n, r.outcome, r.clock_ns)):
        _unwritable("report log", "station {} report at index {}".format(log.station, *fault), fault[1])
    header = {"v": LOG_SCHEMA_VERSION, "kind": "report-log", "station": log.station,
              "setting": _setting_json(log.setting), "key_digest": log.key_digest}
    codec = _LineCodec(_report_templates(header), [name for name, *_ in REPORT_COLUMNS])
    with Path(path).open("wb") as fh:
        fh.write((_dumps(header) + "\n").encode())
        for cut in (slice(at, at + _RENDER_ROWS) for at in range(0, len(r), _RENDER_ROWS)):
            fh.write(codec.render(np.zeros(len(r.n[cut]), np.int64), (r.n[cut], r.outcome[cut], r.clock_ns[cut])))


def load_report_log(path) -> ReportBatch:
    """Load a report log into one batch, column by column.

    Raises ValueError naming the line for what the reader refuses: a
    report whose ``v``/``type`` is not 1/"report", a value
    ``REPORT_COLUMNS`` refuses, and a report from another station or
    setting than the header's (whose station and ``key_digest`` must be
    strings). A log of no reports loads as an empty batch.
    """
    def header_digest(header) -> dict:
        if type(header.get("key_digest")) is not str:
            _refuse("report-log", path, -1, f"header key_digest {header.get('key_digest')!r} is not a string")
        return header

    header, _, (n, outcome, clock_ns), _ = _read_records(
        path, "report-log", LOG_SCHEMA_VERSION, _report_templates, REPORT_COLUMNS,
        foreign="a report batch must come from one station session", check_header=header_digest)
    return ReportBatch(station=header["station"], setting=Setting(*header["setting"]), n=n.copy(),
                       outcome=outcome.astype(np.int8), clock_ns=clock_ns.copy())
