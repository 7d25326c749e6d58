"""Distributed two-station realization over TCP with schema-enforced locality: the wire, the roles and collation.

Topology: a source process and a collator process listen; the two
station processes dial both and nothing else. The source broadcasts
identical pair events (index, hidden variable, time parameter) to both
stations; each station computes its outcomes from its OWN setting, the
events, and a gauge key file distributed out-of-band; the key never
travels on the wire. Stations stream outcome reports to the collator,
which joins them into a dataset either by pair index or by arrival
order (the latter deliberately fragile: one lost report misaligns the
whole tail, and nothing in the data can reveal it). The roles' emission
and report logs are record files, laid out, written and read in ``formats``.

Wire format: 4-byte big-endian length prefix, then a body of a 4-byte
big-endian header length, a strict UTF-8 JSON header object and the raw
bytes of the columns the header lists as [name, byte length] pairs.
Events and reports travel in columnar batches of at most ``BLOCK_PAIRS``
pairs, the blocks ``measure_stream`` draws (``emit_batch``: n/lambda/t; ``report_batch``: n/outcome and one
``clock_ns``), each column a little-endian fixed-width array, and a batch
with one bad element is rejected whole. No field of the fixed grammar a
station can receive is a list or can carry the other wing's setting.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .experiments import RunDataset, RunGroup
from .formats import (EMISSION_COLUMNS, REPORT_COLUMNS, ReportBatch, SourceLog, StationLog, column_fault,
                      write_emission_log, write_report_log)
from .formats import StationReport, load_report_log  # unused here: perfbench/ reaches them as stations names
from .model import (BLOCK_PAIRS, GaugeKey, PairStream, Setting, _dumps, _setting_check, _setting_json, derive_subseed,
                    measure_left, measure_right, run_range, sample_pair_stream)

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "STATION_RECEIVABLE_SCHEMAS",
    "COLLATOR_RECEIVABLE_SCHEMAS",
    "SOURCE_RECEIVABLE_SCHEMAS",
    "ProtocolError",
    "SchemaError",
    "KeyFileError",
    "CollationError",
    "CollationResult",
    "send_frame",
    "recv_frame",
    "validate_message",
    "write_key_file",
    "load_key_file",
    "make_server_socket",
    "source_run",
    "station_run",
    "collate",
    "station_batches",
    "inject_fault",
    "collator_serve",
]

WIRE_VERSION = 4
#: Largest frame body ``recv_frame`` accepts, far above any frame a role sends.
MAX_FRAME_BYTES = 1 << 20
#: Connection attempts a station makes per endpoint, and the pause after a failed one.
_DIAL_ATTEMPTS, _DIAL_PAUSE_S = 20, 0.15

# Message grammars by receiving role: {type: {field: type}}. Validation is
# exact-key-set, so a field outside the grammar is rejected, not ignored.
# A batch column is a bytes field, named by its record's table: a little-endian fixed-width array from the tail.
STATION_RECEIVABLE_SCHEMAS = {
    "emit_batch": {"v": int, "type": str, **dict.fromkeys([name for name, *_ in EMISSION_COLUMNS], bytes)},
    "end": {"v": int, "type": str, "count": int},
}
COLLATOR_RECEIVABLE_SCHEMAS = {
    "key_digest": {"v": int, "type": str, "station": str, "digest_hex": str},
    "report_batch": {"v": int, "type": str, "station": str, "setting": list,
                     **dict.fromkeys([name for name, *_ in REPORT_COLUMNS[:2]], bytes), "clock_ns": int},
    "end": {"v": int, "type": str, "station": str, "count": int},
}
SOURCE_RECEIVABLE_SCHEMAS = {
    "hello": {"v": int, "type": str, "station": str},
}


class ProtocolError(RuntimeError):
    """Framing or connection-state violation."""


class SchemaError(ValueError):
    """A message does not match the receiving role's grammar."""


class KeyFileError(RuntimeError):
    """Gauge key file missing or unreadable."""


class CollationError(RuntimeError):
    """Reports cannot be joined into a dataset."""


def send_frame(sock: socket.socket, obj: dict, columns: dict[str, bytes] | None = None) -> None:
    """Send ``obj`` as the JSON header and ``columns`` (name -> bytes) as the tail, listed in the header."""
    if columns:
        obj = dict(obj, columns=[[name, len(col)] for name, col in columns.items()])
    head = _dumps(obj).encode("utf-8")
    tail = columns.values() if columns else ()
    sock.sendall(b"".join((struct.pack("!II", 4 + len(head) + sum(map(len, tail)), len(head)), head, *tail)))


def _recv_exact(sock: socket.socket, size: int) -> bytes | bytearray:
    """``size`` bytes, or fewer only if the peer closed.

    Mostly one ``recv`` returns them all; the rest of a frame that
    arrives in pieces is read into one preallocated buffer, and is a
    ProtocolError if still short once the socket's timeout has passed
    since the first piece, so a peer cannot hold a reader by trickling.
    """
    data = sock.recv(size)
    if len(data) == size or not data:
        return data
    buf = bytearray(size)
    got = len(data)
    buf[:got] = data
    limit, begun = sock.gettimeout(), time.monotonic()
    with memoryview(buf) as view:
        while got < size and (received := sock.recv_into(view[got:])):
            got += received
            if got < size and limit is not None and time.monotonic() - begun > limit:
                raise ProtocolError(f"frame still incomplete {limit} s after its first piece")
    del buf[got:]
    return buf


def recv_frame(sock: socket.socket) -> dict | None:
    """Next message, or None on clean end-of-stream at a frame boundary.

    The message is the header object, less its ``columns`` list, with
    each listed column's bytes under its name. A length prefix above
    ``MAX_FRAME_BYTES`` is a ProtocolError before any buffer is allocated
    for the body; so is a header length past the body, a header not a
    JSON object, a column list not of distinct [name, byte length] pairs
    named unlike the header's fields, and columns that do not fill the
    tail exactly.
    """
    prefix = _recv_exact(sock, 4)
    if not prefix:
        return None
    if len(prefix) < 4:
        raise ProtocolError("connection dropped inside a frame header")
    (size,) = struct.unpack("!I", prefix)
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {size} exceeds the {MAX_FRAME_BYTES}-byte cap")
    body = _recv_exact(sock, size)
    if len(body) < size:
        raise ProtocolError("connection dropped inside a frame body")
    if body[:1] == b"{":  # a header length of at least 0x7b000000, past any body
        raise ProtocolError("frame body is a bare JSON object, as wire v3 and older sent, not a v4 header length")
    if size < 4:
        raise ProtocolError(f"frame body of {size} bytes holds no header length")
    if (head := struct.unpack_from("!I", body)[0]) > size - 4:
        raise ProtocolError(f"header length {head} runs past the {size - 4} bytes after it")
    try:  # int() refuses the NaN and Infinity literals, which are not JSON
        msg = json.loads(body[4:4 + head].decode("utf-8"), parse_constant=int)
    except (ValueError, RecursionError) as exc:  # ValueError covers the decode errors
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError(f"frame header holds a JSON {type(msg).__name__}, not an object")
    layout = msg.pop("columns", [])
    if type(layout) is not list or not all(type(c) is list and len(c) == 2 and type(c[0]) is str
                                           and type(c[1]) is int and c[1] >= 0 for c in layout):
        raise ProtocolError(f"column list {layout!r} is not [name, byte length] pairs")
    names = [name for name, _ in layout]
    if len(set(names)) < len(names) or set(names) & (msg.keys() | {"columns"}):
        raise ProtocolError(f"column names {names} repeat or clash with the header fields {sorted(msg)}")
    at, tail = 4 + head, memoryview(body)
    if at + sum(length for _, length in layout) != size:
        raise ProtocolError(f"columns {layout} do not fill the {size - at} bytes after the header")
    for name, length in layout:
        msg[name], at = bytes(tail[at:at + length]), at + length
    return msg


def validate_message(msg, schemas: dict) -> str:
    """Check a message against a role grammar; returns the message type.

    Wire version first, so a frame of another version is refused as
    such; then exact key set and a type check per field. Booleans are
    rejected where numbers are expected, integers must fit 64 bits, and
    a column must come from the frame's tail.
    """
    if not isinstance(msg, dict):
        raise SchemaError(f"message must be an object, got {type(msg).__name__}")
    if type(msg.get("v")) is not int or msg["v"] != WIRE_VERSION:
        raise SchemaError(f"unsupported wire version {msg.get('v')!r}")
    kind = msg.get("type")
    if type(kind) is not str or kind not in schemas:
        raise SchemaError(f"unknown message type {kind!r} for this role")
    grammar = schemas[kind]
    if set(msg) != set(grammar):
        raise SchemaError(f"fields {sorted(msg)} do not match the {kind!r} grammar {sorted(grammar)}")
    for name, checker in grammar.items():
        value = msg[name]
        if isinstance(value, bool) or not isinstance(value, checker) or (checker is int and value.bit_length() > 63):
            what = "64-bit int" if checker is int else "column" if checker is bytes else checker.__name__
            raise SchemaError(f"field {name!r} of {kind!r} is not a {what}")
    return kind


def _columns(kind: str, msg: dict, columns: tuple, after: int | None = None) -> list[np.ndarray]:
    """The batch columns of a validated frame, read as the record ``columns`` state them.

    Raises SchemaError naming a column not of whole items or an empty batch, else the first position that
    ``column_fault`` refuses: by the columns' rules, or, given ``after``, as ``n`` does not rise strictly from it.
    """
    cols = []
    for name, dtype, *_ in columns:
        if len(raw := msg[name]) % np.dtype(dtype).itemsize:
            raise SchemaError(f"{kind} rejected: column {name} holds {len(raw)} bytes, not whole {dtype} items")
        cols.append(np.frombuffer(raw, dtype=dtype))
    if not any(map(len, cols)):
        raise SchemaError(f"{kind} rejected: an empty batch")
    n, rising = cols[0], None
    if after is not None and not (up := n > (prev := np.concatenate(([after], n[:-1])))).all():
        rising = (i := int(np.argmin(up)), f"non-increasing pair index {n[i]} after {prev[i]}")
    if fault := column_fault(columns, cols, rising):
        raise SchemaError("{} rejected at position {}: {}".format(kind, *fault))
    return cols


def _report_batch(msg: dict, last_n: int, station_id: str, setting: Setting, key: GaugeKey) -> tuple:
    """(report_batch header, columns, n, outcome) a station sends and logs for a validated emit_batch frame.

    Every element is checked first: the columns by ``EMISSION_COLUMNS``, and ``n`` must rise strictly from
    ``last_n``, the last pair index accepted (0 before the first); raises SchemaError naming the first bad
    position. One call of its own wing function then measures the batch, stamped with the station clock once.
    """
    n, lam, t = _columns("emit_batch", msg, EMISSION_COLUMNS, after=last_n)
    out = (measure_left if station_id == "L" else measure_right)(setting, PairStream(n=n, lam=lam, t=t), key)
    return ({"v": WIRE_VERSION, "type": "report_batch", "station": station_id, "setting": _setting_json(setting),
             "clock_ns": time.monotonic_ns()}, {"n": msg["n"], "outcome": out.tobytes()}, n, out)


def _report_columns(msg: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, outcome, clock_ns) columns of a validated report_batch frame, checked by ``REPORT_COLUMNS``."""
    n, outcome = _columns("report_batch", msg, REPORT_COLUMNS[:2])
    return n, outcome, np.full(len(n), msg["clock_ns"], dtype=np.int64)


def station_batches(group) -> tuple[ReportBatch, ReportBatch]:
    """The (L, R) report streams a run group would have produced on the wire, with zero clocks."""
    return tuple(ReportBatch(station, setting, group.pair_index.copy(), outcome.copy(), np.zeros(len(group), np.int64))
                 for station, setting, outcome in (("L", group.left_setting, group.left),
                                                   ("R", group.right_setting, group.right)))


# ---------------------------------------------------------------------------
# Gauge key files (distributed out-of-band, never on the wire)


def write_key_file(path, key: GaugeKey) -> None:
    payload = {"kind": "gauge-key", **key.to_json()}
    Path(path).write_text(_dumps(payload) + "\n", encoding="utf-8")


def load_key_file(path) -> GaugeKey:
    path = Path(path)
    if not path.exists():
        raise KeyFileError(f"gauge key file not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(obj, dict) or obj.pop("kind", None) != "gauge-key":
            raise ValueError("not a gauge-key file")
        return GaugeKey.from_json(obj)
    except (OSError, ValueError) as exc:
        raise KeyFileError(f"unreadable gauge key file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Source process


def make_server_socket(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(8)
    return sock


def _accept_stations(server: socket.socket, schemas: dict, timeout: float) -> dict[str, socket.socket]:
    """Accept connections until both L and R have said hello."""
    conns: dict[str, socket.socket] = {}
    server.settimeout(timeout)
    while set(conns) != {"L", "R"}:
        conn, _ = server.accept()
        conn.settimeout(timeout)
        try:
            msg = recv_frame(conn)
            kind = validate_message(msg, schemas)
            station = msg["station"]
            if kind != "hello" or station not in ("L", "R") or station in conns:
                raise SchemaError(f"unexpected hello for station {station!r}")
        except (ProtocolError, SchemaError, OSError):
            # A bad, silent or dropped hello costs only that connection.
            conn.close()
            continue
        conns[station] = conn
    return conns


def source_run(seed: int, count: int, sock: socket.socket, session_index: int = 0, log_path=None,
               timeout: float = 60.0) -> SourceLog:
    """Broadcast one session of pair events to both stations.

    Session ``i`` draws from sub-seed ``i`` of the master seed and owns
    pair indices i*count+1 .. (i+1)*count (``run_range``), so successive
    sessions (e.g. the right wing re-running with another setting) live
    on disjoint sample spaces. Waits for both stations before emitting,
    then sends the sampled stream in emit_batch frames of
    ``BLOCK_PAIRS`` pairs. The log is partial until both end
    markers have gone out: a station disconnect aborts the run, and the
    log keeps the batches sent to both stations.
    """
    try:  # the log's loader refuses what this refuses
        if min(seed, session_index, count) < 0:
            raise ValueError(f"seed, session_index and count must be >= 0, got {seed}, {session_index}, {count}")
        first = run_range(session_index, count).start
    except ValueError:
        sock.close()
        raise
    nothing = PairStream(n=np.empty(0, dtype=np.int64), lam=np.empty(0), t=np.empty(0))
    log = SourceLog(seed=seed, session_index=session_index, count=count, emissions=nothing,
                    status="partial", detail="ended before both end markers went out")
    conns: dict[str, socket.socket] = {}
    try:
        conns = _accept_stations(sock, SOURCE_RECEIVABLE_SCHEMAS, timeout)
        stream, sent = nothing, 0
        try:
            if count > 0:
                stream = sample_pair_stream(derive_subseed(seed, session_index), count, start=first)
            for lo in range(0, count, BLOCK_PAIRS):
                hi = min(lo + BLOCK_PAIRS, count)
                columns = {name: np.asarray(col[lo:hi], dtype).tobytes()
                           for (name, dtype, *_), col in zip(EMISSION_COLUMNS, (stream.n, stream.lam, stream.t))}
                for station in ("L", "R"):
                    send_frame(conns[station], {"v": WIRE_VERSION, "type": "emit_batch"}, columns)
                sent = hi
            for station in ("L", "R"):
                send_frame(conns[station], {"v": WIRE_VERSION, "type": "end", "count": sent})
            log.status, log.detail = "complete", ""
        except OSError as exc:
            log.detail = f"station disconnected after {sent} emissions: {exc}"
        log.emissions = stream if sent == count else PairStream(n=stream.n[:sent], lam=stream.lam[:sent],
                                                                t=stream.t[:sent])
    finally:
        for conn in conns.values():
            conn.close()
        sock.close()
        if log_path is not None:
            write_emission_log(log, log_path)
    return log


# ---------------------------------------------------------------------------
# Station process


def _dial(endpoint: tuple[str, int], timeout: float) -> socket.socket:
    last: Exception | None = None
    for _ in range(_DIAL_ATTEMPTS):
        try:
            return socket.create_connection(endpoint, timeout=timeout)
        except OSError as exc:
            last = exc
            time.sleep(_DIAL_PAUSE_S)
    raise ProtocolError(f"cannot connect to {endpoint[0]}:{endpoint[1]}: {last}")


def station_run(station_id: str, setting: Setting, key_path, source: tuple[str, int], collator: tuple[str, int],
                log_path=None, timeout: float = 60.0) -> StationLog:
    """Run one measurement station.

    Computes each outcome from ONLY (own setting, received event, local
    key file). The station dials exactly two endpoints (source and
    collator), and the grammar of what it can receive contains no field
    that could carry the remote setting. Refuses to start without the
    key file. Each emit_batch frame is measured with one call of the
    station's own wing function and answered with one report_batch frame;
    a malformed batch, or one holding a bad element (such as a pair
    index not above the one before it), is rejected whole and logged
    once with its first bad position, not measured. The log keeps the
    accepted batches' columns and joins them once as the session ends.
    """
    if station_id not in ("L", "R"):
        raise ValueError(f"station_id must be 'L' or 'R', got {station_id!r}")
    key = load_key_file(key_path)  # KeyFileError if absent
    log = StationLog(station=station_id, setting=setting, key_digest=key.digest_hex())
    batches = [(log.reports.n, log.reports.outcome, log.reports.clock_ns)]  # the empty log's, then each accepted

    src = _dial(source, timeout)
    log.connections.append(("source", source[0], source[1]))
    col = _dial(collator, timeout)
    log.connections.append(("collator", collator[0], collator[1]))
    src.settimeout(timeout)
    col.settimeout(timeout)
    try:
        send_frame(src, {"v": WIRE_VERSION, "type": "hello", "station": station_id})
        send_frame(col, {"v": WIRE_VERSION, "type": "key_digest", "station": station_id,
                         "digest_hex": log.key_digest})
        last_n = 0  # last accepted pair index; pair indices are >= 1
        while True:
            try:
                msg = recv_frame(src)
            except TimeoutError:
                raise ProtocolError(f"no frame in {timeout} s from the source") from None
            if msg is None:
                log.rejected.append("stream ended without an end marker")
                break
            try:
                if validate_message(msg, STATION_RECEIVABLE_SCHEMAS) == "end":
                    break
                report, columns, n, outcome = _report_batch(msg, last_n, station_id, setting, key)
            except SchemaError as exc:
                log.rejected.append(str(exc))
                continue
            last_n = int(n[-1])
            send_frame(col, report, columns)
            batches.append((n, outcome, np.full(len(n), report["clock_ns"], dtype=np.int64)))
        send_frame(col, {"v": WIRE_VERSION, "type": "end", "station": station_id,
                         "count": sum(len(b[0]) for b in batches)})
    finally:
        src.close()
        col.close()
        log.reports = ReportBatch(station_id, setting, *map(np.concatenate, zip(*batches)))
        if log_path is not None:
            write_report_log(log, log_path)
    return log


# ---------------------------------------------------------------------------
# Collation


@dataclass
class CollationResult:
    dataset: RunDataset
    strategy: str
    incomplete: tuple[int, ...] = ()
    digests: dict = field(default_factory=dict)
    partial: bool = False


def collate(left: ReportBatch, right: ReportBatch, strategy: str = "pair-id",
            emission_log: SourceLog | None = None) -> CollationResult:
    """Join the two wings' report batches into a dataset.

    pair-id joins the wings' pair-index sets L and R: the dataset is L ∩ R
    in rising order, and ``incomplete`` is L △ R, or E − (L ∩ R) given an
    emission log's indices E. A CollationError names the smallest index
    repeated in a stream (L's first), or outside E. sequence-order zips
    the streams by position up to the shorter's length, on L's indices,
    and refuses a repeat among those; the misalignment after a lost or
    repeated R report is undetectable by construction. It lists nothing
    in ``incomplete`` and cannot use an emission log (CollationError).
    """
    if left.station != "L" or right.station != "R":
        raise CollationError(f"expected an L stream and an R stream, got {left.station!r}/{right.station!r}")
    if strategy not in ("pair-id", "sequence-order"):
        raise CollationError(f"unknown matching strategy {strategy!r}")
    if strategy == "sequence-order" and emission_log is not None:
        raise CollationError("sequence-order matching cannot account for an emission log; use pair-id")

    incomplete = np.empty(0, dtype=np.int64)
    m = min(len(left), len(right))
    wings = []  # (pair indices, outcomes) in rising order of each stream pair-id joins, or of sequence-order's L
    for batch, k in ((left, len(left)), (right, len(right))) if strategy == "pair-id" else ((left, m),):
        n, outcome = batch.n[:k], batch.outcome[:k]
        if not (n[1:] > n[:-1]).all():
            order = np.argsort(n, kind="stable")
            n, outcome = n[order], outcome[order]
            repeats = n[1:][n[1:] == n[:-1]]
            if repeats.size:
                raise CollationError(f"duplicate pair index {int(repeats[0])} in station {batch.station} stream")
        wings.append((n, outcome))
    if strategy == "pair-id":
        (ls, l_outcome), (rs, r_outcome) = wings
        in_r, in_l = np.isin(ls, rs, assume_unique=True), np.isin(rs, ls, assume_unique=True)
        idx, l_out, r_out = ls[in_r], l_outcome[in_r], r_outcome[in_l]  # L ∩ R
        incomplete = np.sort(np.concatenate((ls[~in_r], rs[~in_l])))  # L △ R, the union of L − R and R − L
        if emission_log is not None:
            emitted = emission_log.emissions.n  # unique: a PairStream's pair indices rise
            # L ∪ R is the disjoint union of L ∩ R and L △ R
            stray = np.setdiff1d(np.concatenate((idx, incomplete)), emitted, assume_unique=True)
            if stray.size:
                raise CollationError(f"report for never-emitted pair index {int(stray.min())}")
            incomplete = np.setdiff1d(emitted, idx, assume_unique=True)  # E − (L ∩ R)
    elif m == 0:
        raise CollationError("nothing to collate")
    else:
        idx = left.n[:m]
        l_out = left.outcome[:m]
        r_out = right.outcome[:m]

    group = RunGroup(label="pair0", left_setting=left.setting, right_setting=right.setting,
                     pair_index=np.asarray(idx, dtype=np.int64), left=np.asarray(l_out, dtype=np.int8),
                     right=np.asarray(r_out, dtype=np.int8))
    ds = RunDataset(canonical_pairs=((left.setting, right.setting),), groups=(group,), spec=None,
                    meta={"schema_version": 1, "collation": strategy})
    return CollationResult(dataset=ds, strategy=strategy, incomplete=tuple(incomplete.tolist()))


def inject_fault(kind: str, position: int, stream: ReportBatch) -> ReportBatch:
    """Deterministically mutate a report batch: drop, duplicate, or reorder.

    Returns a new batch. ``reorder`` swaps the reports at ``position``
    and ``position + 1``.
    """
    if kind not in ("drop", "duplicate", "reorder"):
        raise ValueError(f"unknown fault kind {kind!r}")
    if not 0 <= position <= len(stream) - (2 if kind == "reorder" else 1):
        raise ValueError(f"fault position {position} out of range for a stream of {len(stream)}")
    rows = np.arange(len(stream))
    if kind == "drop":
        rows = np.delete(rows, position)
    elif kind == "duplicate":
        rows = np.insert(rows, position + 1, position)
    else:  # reorder
        rows[[position, position + 1]] = position + 1, position
    return ReportBatch(stream.station, stream.setting, stream.n[rows], stream.outcome[rows], stream.clock_ns[rows])


# ---------------------------------------------------------------------------
# Live collator


def collator_serve(sock: socket.socket, match: str = "pair-id", timeout: float = 60.0) -> CollationResult:
    """Accept both stations, verify key agreement, join their report batches.

    Reads both connections in the calling thread with ``select``; a
    station is read from its key digest on, and its reports once both
    digests are in. Refuses to collate when the stations' key digests
    differ, a station's end marker counts other than the reports
    received or its setting changes between batches (CollationError), a
    batch holds a bad element (SchemaError), a station waited on sends
    no frame for ``timeout``, counted from its last frame or from the
    second digest, whichever is later, or a station is still running
    ``4 * timeout`` after both connected (ProtocolError naming it).
    """
    rival = {"L": "R", "R": "L"}
    station: dict[socket.socket, str] = {}  # connection -> the station its key digest named
    digests: dict[str, str] = {}
    ended: dict[str, bool] = {}  # station -> whether it ended with an end marker, not end-of-stream
    batches: dict[str, list] = {"L": [], "R": []}  # (n, outcome, clock_ns) columns per batch
    counts = {"L": 0, "R": 0}  # reports received
    settings: dict[str, tuple[str, Setting]] = {}  # station -> its first batch's setting: as written, parsed
    max_lead = {"L": 0, "R": 0}
    heard: dict[socket.socket, float] = {}  # connection -> when its silence clock started

    def who(conns) -> str:
        return " and ".join(f"station {station[c]}" if c in station else "a station without a key digest"
                            for c in conns)

    def take_frame(conn: socket.socket) -> None:
        msg = recv_frame(conn)
        heard[conn] = time.monotonic()
        if conn not in station:
            if validate_message(msg, COLLATOR_RECEIVABLE_SCHEMAS) != "key_digest":
                raise SchemaError("station must announce its key digest first")
            if msg["station"] not in ("L", "R"):
                raise SchemaError(f"unknown station {msg['station']!r}")
            if msg["station"] in digests:
                raise SchemaError(f"duplicate station {msg['station']!r}")
            station[conn] = msg["station"]
            digests[msg["station"]] = msg["digest_hex"]
            if len(digests) == 2:
                if digests["L"] != digests["R"]:
                    raise CollationError("gauge key digests differ between stations; refusing to collate")
                heard.update(dict.fromkeys(heard, heard[conn]))  # waiting on the rival was not silence
            return
        name = station[conn]
        kind = None if msg is None else validate_message(msg, COLLATOR_RECEIVABLE_SCHEMAS)
        if kind in (None, "end"):  # end-of-stream, or an end marker that counts the reports received
            if kind == "end" and msg["count"] != counts[name]:
                raise CollationError(f"station {name} end marker counts {msg['count']} reports, "
                                     f"{counts[name]} received")
            ended[name] = kind == "end"
            return
        if kind != "report_batch" or msg["station"] != name:
            raise SchemaError(f"unexpected {kind!r} message from station {name!r}")
        if name not in settings:
            try:
                if len(msg["setting"]) != 2:
                    raise ValueError("it is not two numbers")
                setting = Setting(*msg["setting"])
                settings[name] = (_setting_check(msg["setting"]), setting)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"station {name} report_batch setting {msg['setting']} is refused: {exc}") from None
        elif not settings[name][0](msg["setting"]):
            raise CollationError(f"station {name} batch with setting {msg['setting']}: "
                                 "a report batch must come from one station session")
        batches[name].append(_report_columns(msg))
        counts[name] += len(batches[name][-1][0])
        max_lead[name] = max(max_lead[name], counts[name] - counts[rival[name]])

    conns: list[socket.socket] = []
    try:
        sock.settimeout(timeout)
        for _ in range(2):
            conns.append(sock.accept()[0])
            conns[-1].settimeout(timeout)  # bounds the rest of a frame select saw begin
            heard[conns[-1]] = time.monotonic()
        deadline = time.monotonic() + 4 * timeout
        while len(ended) < 2:
            # Before both digests are in, only a connection yet to send its digest is waited on.
            waited = [c for c in conns if station.get(c) not in ended and (c not in station or len(digests) == 2)]
            wake = min(deadline, *(heard[c] + timeout for c in waited))
            ready = select.select(waited, [], [], max(0.0, wake - time.monotonic()))[0]
            now = time.monotonic()
            if now >= deadline:
                raise ProtocolError(f"{who(waited)} still running after the session deadline of {4 * timeout} s")
            if silent := [c for c in waited if c not in ready and now - heard[c] >= timeout]:
                raise ProtocolError(f"no frame in {timeout} s from {who(silent)}")
            for conn in ready:
                take_frame(conn)
    finally:
        for conn in conns:
            conn.close()
        sock.close()
    if not counts["L"] or not counts["R"]:
        raise CollationError("one or both stations sent no reports")

    left, right = (ReportBatch(side, settings[side][1], *map(np.concatenate, zip(*batches[side])))
                   for side in ("L", "R"))
    result = collate(left, right, strategy=match)
    result.digests = dict(digests)
    result.partial = not all(ended.values())
    result.dataset.meta["max_lead"] = dict(max_lead)
    return result
