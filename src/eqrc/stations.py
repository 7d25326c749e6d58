"""Distributed two-station realization over TCP with schema-enforced locality.

Topology: a source process and a collator process listen; the two
station processes dial both and nothing else. The source broadcasts
identical pair events (index, hidden variable, time parameter) to both
stations; each station computes its outcomes from its OWN setting, the
events, and a gauge key file distributed out-of-band; the key never
travels on the wire. Stations stream outcome reports to the collator,
which joins them into a dataset either by pair index or by arrival
order (the latter deliberately fragile: one lost report misaligns the
whole tail, and nothing in the data can reveal it).

Wire format: 4-byte big-endian length prefix, then a body of a 4-byte
big-endian header length, a strict UTF-8 JSON header object and the raw
bytes of the columns the header lists as [name, byte length] pairs.
Events and reports travel in columnar batches of at most ``BATCH_PAIRS``
pairs (``emit_batch``: n/lambda/t; ``report_batch``: n/outcome and one
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
from itertools import repeat
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .experiments import RunDataset, RunGroup
from .formats import (_OUTCOME, _PAIR_INDEX, _RENDER_ROWS, LOG_SCHEMA_VERSION, _header_ints, _LineCodec, _read_records,
                      _refuse, _setting_json, _written)
from .model import (GaugeKey, PairStream, Setting, _dumps, derive_subseed, measure_left, measure_right,
                    sample_pair_stream)

__all__ = [
    "WIRE_VERSION",
    "BATCH_PAIRS",
    "LOG_SCHEMA_VERSION",
    "MAX_FRAME_BYTES",
    "STATION_RECEIVABLE_SCHEMAS",
    "COLLATOR_RECEIVABLE_SCHEMAS",
    "SOURCE_RECEIVABLE_SCHEMAS",
    "ProtocolError",
    "SchemaError",
    "KeyFileError",
    "CollationError",
    "StationReport",
    "ReportBatch",
    "SourceLog",
    "StationLog",
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
    "write_emission_log",
    "load_emission_log",
    "write_report_log",
    "load_report_log",
]

WIRE_VERSION = 4
#: Most pairs one emit_batch frame carries; a report_batch answers one emit_batch.
BATCH_PAIRS = 4096
#: Largest frame body ``recv_frame`` accepts, far above any frame a role sends.
MAX_FRAME_BYTES = 1 << 20
#: Connection attempts a station makes per endpoint, and the pause after a failed one.
_DIAL_ATTEMPTS, _DIAL_PAUSE_S = 20, 0.15

# Message grammars by receiving role: {type: {field: type}}. Validation is
# exact-key-set, so a field outside the grammar is rejected, not ignored.
# A batch column is a bytes field: a little-endian fixed-width array from the frame's tail.
STATION_RECEIVABLE_SCHEMAS = {
    "emit_batch": {"v": int, "type": str, "n": bytes, "lambda": bytes, "t": bytes},
    "end": {"v": int, "type": str, "count": int},
}
COLLATOR_RECEIVABLE_SCHEMAS = {
    "key_digest": {"v": int, "type": str, "station": str, "digest_hex": str},
    "report_batch": {"v": int, "type": str, "station": str, "setting": list, "n": bytes, "outcome": bytes,
                     "clock_ns": int},
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


def _unit_interval(x):
    return (x >= 0.0) & (x < 1.0)


def _pack(values, dtype: str) -> bytes:
    return np.asarray(values, dtype=dtype).tobytes()


def _columns(kind: str, msg: dict, dtypes: dict) -> list[np.ndarray]:
    """The batch columns of a validated frame, read as ``dtypes``.

    Raises SchemaError naming a column not of whole items, or for unequal or empty columns.
    """
    cols = []
    for name, dtype in dtypes.items():
        if len(raw := msg[name]) % np.dtype(dtype).itemsize:
            raise SchemaError(f"{kind} rejected: column {name} holds {len(raw)} bytes, not whole {dtype} items")
        cols.append(np.frombuffer(raw, dtype=dtype))
    if len({len(c) for c in cols}) > 1 or not len(cols[0]):
        raise SchemaError(f"{kind} rejected: columns {list(dtypes)} of lengths {[len(c) for c in cols]}")
    return cols


def _report_batch(msg: dict, last_n: int, station_id: str, setting: Setting, key: GaugeKey) -> tuple:
    """(report_batch header, columns, n, outcome) a station sends and logs for a validated emit_batch frame.

    Every element is checked first: ``n`` must rise strictly from
    ``last_n``, the last pair index accepted (0 before the first), and
    ``lambda`` and ``t`` must lie in [0, 1), which NaN does not; raises
    SchemaError naming the first bad position. One call of its own wing
    function then measures the batch, stamped with the station clock once.
    """
    n, lam, t = _columns("emit_batch", msg, {"n": "<i8", "lambda": "<f8", "t": "<f8"})
    prev = np.concatenate(([last_n], n[:-1]))
    rising, lam_ok, t_ok = n > prev, _unit_interval(lam), _unit_interval(t)
    if not (ok := rising & lam_ok & t_ok).all():
        i = int(np.argmin(ok))
        raise SchemaError(f"emit_batch rejected at position {i}: " + (
            f"non-increasing pair index {n[i]} after {prev[i]}" if not rising[i]
            else f"lambda {float(lam[i])!r} is not in [0, 1)" if not lam_ok[i]
            else f"t {float(t[i])!r} is not in [0, 1)"))
    out = (measure_left if station_id == "L" else measure_right)(setting, PairStream(n=n, lam=lam, t=t), key)
    return ({"v": WIRE_VERSION, "type": "report_batch", "station": station_id, "setting": _setting_json(setting),
             "clock_ns": time.monotonic_ns()}, {"n": msg["n"], "outcome": _pack(out, "i1")}, n, out)


def _report_columns(msg: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, outcome, clock_ns) columns of a validated report_batch frame: n >= 1, outcomes -1/+1."""
    n, outcome = _columns("report_batch", msg, {"n": "<i8", "outcome": "i1"})
    if not (ok := (n >= 1) & (np.abs(outcome) == 1)).all():
        i = int(np.argmin(ok))
        raise SchemaError(f"report_batch rejected at position {i}: pair index {n[i]} with outcome {outcome[i]}")
    return n, outcome, np.full(len(n), msg["clock_ns"], dtype=np.int64)


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
# Logs


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

    ``StationReport`` rows given as ``reports`` become that batch; a row of another
    station, or with a setting not the log's bit for bit, is a ValueError.
    """

    station: str
    setting: Setting
    key_digest: str
    reports: ReportBatch | Sequence[StationReport] = ()
    connections: list[tuple[str, str, int]] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.reports, ReportBatch):
            n, stations, settings, outcome, clock_ns = list(zip(*self.reports)) or [()] * 5
            written = _written(_setting_json(self.setting))
            for station, setting in zip(stations, settings):
                same = station is self.station and setting is self.setting
                if not same and (station != self.station or _written(_setting_json(setting)) != written):
                    raise ValueError(f"station {self.station} log of {self.setting} given a report of station "
                                     f"{station!r} with {setting}")
            self.reports = ReportBatch(self.station, self.setting, np.array(n, np.int64),
                                       np.array(outcome, np.int8), np.array(clock_ns, np.int64))


def write_emission_log(log: SourceLog, path) -> None:
    """Header line, one line per emitted event, then a trailer with the status."""
    e = log.emissions
    with Path(path).open("w", encoding="utf-8") as fh:
        header = {
            "v": LOG_SCHEMA_VERSION,
            "kind": "emission-log",
            "seed": log.seed,
            "session": log.session_index,
            "count": log.count,
        }
        fh.write(_dumps(header) + "\n")
        # The sorted-key dump of each event: JSON writes a finite float as its repr.
        fh.writelines(f'{{"lambda":{lam!r},"n":{n},"t":{t!r},"v":{LOG_SCHEMA_VERSION}}}\n'
                      for n, lam, t in zip(e.n.tolist(), e.lam.tolist(), e.t.tolist()))
        fh.write(_dumps({"v": LOG_SCHEMA_VERSION, "status": log.status, "sent": len(e), "detail": log.detail}) + "\n")


def load_emission_log(path) -> SourceLog:
    """Load an emission log; its events come back as one PairStream.

    Raises ValueError naming the line for what the reader refuses, for
    a header ``seed``, ``session`` or ``count`` that is not an integer
    >= 0, for a pair index other than the next of the session's range
    session*count+1 .. (session+1)*count (out of the range, repeated or
    out of order), and for a trailer whose ``sent`` is not the number of
    events or, if "complete", not the header's ``count``. A log without
    a trailer loads as partial.
    """
    header, _, ints, floats, trailer = _read_records(
        path, "emission-log", LOG_SCHEMA_VERSION, lambda header: [{"v": LOG_SCHEMA_VERSION}],
        ints=(("n", None, "pair index {!r} is not an integer"),),
        floats=(("lambda", _unit_interval, "lambda {!r} is not in [0, 1)"),
                ("t", _unit_interval, "t {!r} is not in [0, 1)")),
        trailer=frozenset({"v", "status", "sent", "detail"}),
        check_header=lambda header: _header_ints("emission-log", path, header, {"seed": 0, "session": 0, "count": 0}))
    n, (lam, t) = ints[:, 0], floats.T
    count, session = header["count"], header["session"]
    first, rows = session * count + 1, np.arange(len(n))
    bad = np.flatnonzero((n != first + rows) | (rows >= count))
    if bad.size:
        _refuse("emission-log", path, bad[0], f"pair index {n[bad[0]]} is not {first + bad[0]}: out of the session's "
                                              f"range {first}..{first + count - 1}, repeated or out of order")
    status, detail = "partial", "missing trailer"
    if trailer is not None:
        status, sent, detail = trailer["status"], trailer["sent"], trailer["detail"]
        if ([type(trailer["v"]), type(sent), type(detail)] != [int, int, str] or trailer["v"] != LOG_SCHEMA_VERSION
                or status not in ("complete", "partial") or sent != len(n)
                or (status == "complete" and sent != count)):
            _refuse("emission-log", path, len(n), f"trailer {trailer} does not close {len(n)} events "
                                                  f"of a session of {count}")
    return SourceLog(seed=header["seed"], session_index=session, count=count,
                     emissions=PairStream(n=n.copy(), lam=lam.copy(), t=t.copy()), status=status, detail=detail)


def _report_templates(header: dict) -> list[dict]:
    """The one record template of a report log with this header: its station session's."""
    return [{"setting": _setting_json(Setting(*header["setting"])), "station": header["station"], "type": "report",
             "v": LOG_SCHEMA_VERSION}]


def write_report_log(log: StationLog, path) -> None:
    """Header line, then one line per report: its fields, ``type`` "report" and ``v``, the bytes of dumping
    its object, rendered from the batch's int columns a block at a time."""
    with Path(path).open("wb") as fh:
        header = {"v": LOG_SCHEMA_VERSION, "kind": "report-log", "station": log.station,
                  "setting": _setting_json(log.setting), "key_digest": log.key_digest}
        fh.write((_dumps(header) + "\n").encode())
        codec, r = _LineCodec(_report_templates(header), ("n", "outcome", "clock_ns")), log.reports
        for cut in (slice(at, at + _RENDER_ROWS) for at in range(0, len(r), _RENDER_ROWS)):
            fh.write(codec.render(np.zeros(len(r.n[cut]), np.int64), (r.n[cut], r.outcome[cut], r.clock_ns[cut])))


def load_report_log(path) -> ReportBatch:
    """Load a report log into one batch, column by column.

    Raises ValueError naming the line for what the reader refuses: a
    report whose ``v``/``type`` is not 1/"report", whose ``n`` is not an
    integer >= 1, whose outcome is not -1/+1 or whose ``clock_ns`` is not
    an integer, and a report from another station or setting than the
    header's (whose station and ``key_digest`` must be strings); and for a
    log that holds no reports.
    """
    def header_digest(header) -> dict:
        if type(header.get("key_digest")) is not str:
            _refuse("report-log", path, -1, f"header key_digest {header.get('key_digest')!r} is not a string")
        return header

    header, _, ints, _, _ = _read_records(
        path, "report-log", LOG_SCHEMA_VERSION, _report_templates,
        ints=(_PAIR_INDEX, _OUTCOME, ("clock_ns", None, "clock_ns {!r} is not an integer")),
        foreign="a report batch must come from one station session", check_header=header_digest)
    if not len(ints):
        raise ValueError(f"report log {path} holds no reports")
    n, outcome, clock_ns = ints.T
    return ReportBatch(station=header["station"], setting=Setting(*header["setting"]), n=n.copy(),
                       outcome=outcome.astype(np.int8), clock_ns=clock_ns.copy())


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


def source_run(
    seed: int,
    count: int,
    sock: socket.socket,
    session_index: int = 0,
    log_path=None,
    timeout: float = 60.0,
) -> SourceLog:
    """Broadcast one session of pair events to both stations.

    Session ``i`` draws from sub-seed ``i`` of the master seed and owns
    pair indices i*count+1 .. (i+1)*count, so successive sessions (e.g.
    the right wing re-running with another setting) live on disjoint
    sample spaces. Waits for both stations before emitting, then sends
    the sampled stream in emit_batch frames of ``BATCH_PAIRS`` pairs. The
    log is partial until both end markers have gone out: a station
    disconnect aborts the run, and the log keeps the batches sent to
    both stations.
    """
    if min(seed, session_index, count) < 0:  # the emission log's loader refuses them
        raise ValueError(f"seed, session_index and count must be >= 0, got {seed}, {session_index}, {count}")
    nothing = PairStream(n=np.empty(0, dtype=np.int64), lam=np.empty(0), t=np.empty(0))
    log = SourceLog(seed=seed, session_index=session_index, count=count, emissions=nothing,
                    status="partial", detail="ended before both end markers went out")
    conns: dict[str, socket.socket] = {}
    try:
        conns = _accept_stations(sock, SOURCE_RECEIVABLE_SCHEMAS, timeout)
        stream, sent = nothing, 0
        try:
            if count > 0:
                stream = sample_pair_stream(derive_subseed(seed, session_index), count,
                                            start=session_index * count + 1)
            for lo in range(0, count, BATCH_PAIRS):
                hi = min(lo + BATCH_PAIRS, count)
                columns = {"n": _pack(stream.n[lo:hi], "<i8"), "lambda": _pack(stream.lam[lo:hi], "<f8"),
                           "t": _pack(stream.t[lo:hi], "<f8")}
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


def station_run(
    station_id: str,
    setting: Setting,
    key_path,
    source: tuple[str, int],
    collator: tuple[str, int],
    log_path=None,
    timeout: float = 60.0,
) -> StationLog:
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


def _found_in(rising: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each of ``values`` is in the strictly rising ``rising``."""
    at = np.searchsorted(rising, values)
    hit = at < len(rising)
    hit[hit] = rising[at[hit]] == values[hit]
    return hit


def collate(
    left: ReportBatch,
    right: ReportBatch,
    strategy: str = "pair-id",
    emission_log: SourceLog | None = None,
) -> CollationResult:
    """Join the two wings' report batches into a dataset.

    pair-id joins on the pair index: duplicates are a hard error, gaps
    are reported and the rest survives untouched. sequence-order zips
    the streams by arrival position; a join whose misalignment after a
    lost report is undetectable by construction, and which cannot use
    an emission log (CollationError).
    """
    if left.station != "L" or right.station != "R":
        raise CollationError(f"expected an L stream and an R stream, got {left.station!r}/{right.station!r}")
    if strategy not in ("pair-id", "sequence-order"):
        raise CollationError(f"unknown matching strategy {strategy!r}")
    if strategy == "sequence-order" and emission_log is not None:
        raise CollationError("sequence-order matching cannot account for an emission log; use pair-id")

    incomplete = np.empty(0, dtype=np.int64)
    if strategy == "pair-id":
        streams = []  # each wing's (n, outcome) in rising pair index
        for batch in (left, right):
            n, outcome = batch.n, batch.outcome
            if not (n[1:] > n[:-1]).all():
                order = np.argsort(n, kind="stable")
                n, outcome = n[order], outcome[order]
                repeats = n[1:][n[1:] == n[:-1]]
                if repeats.size:
                    raise CollationError(f"duplicate pair index {int(repeats[0])} in station {batch.station} stream")
            streams.append((n, outcome))
        (ls, l_outcome), (rs, r_outcome) = streams
        l_hit, r_hit = _found_in(rs, ls), _found_in(ls, rs)
        idx, l_out, r_out = ls[l_hit], l_outcome[l_hit], r_outcome[r_hit]
        incomplete = np.sort(np.concatenate((ls[~l_hit], rs[~r_hit])))  # disjoint, each unique
        if emission_log is not None:
            emitted = emission_log.emissions.n  # rising, as a PairStream's pair indices are
            stray = np.concatenate((ls[~_found_in(emitted, ls)], rs[~_found_in(emitted, rs)]))
            if stray.size:
                raise CollationError(f"report for never-emitted pair index {int(stray.min())}")
            lost = emitted[~_found_in(ls, emitted) & ~_found_in(rs, emitted)]
            incomplete = np.sort(np.concatenate((incomplete, lost)))
    else:
        m = min(len(left), len(right))
        if m == 0:
            raise CollationError("nothing to collate")
        idx = left.n[:m]
        l_out = left.outcome[:m]
        r_out = right.outcome[:m]

    group = RunGroup(
        label="pair0",
        left_setting=left.setting,
        right_setting=right.setting,
        pair_index=np.asarray(idx, dtype=np.int64),
        left=np.asarray(l_out, dtype=np.int8),
        right=np.asarray(r_out, dtype=np.int8),
    )
    ds = RunDataset(
        canonical_pairs=((left.setting, right.setting),),
        groups=(group,),
        spec=None,
        meta={"schema_version": 1, "collation": strategy},
    )
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


def collator_serve(
    sock: socket.socket,
    match: str = "pair-id",
    timeout: float = 60.0,
) -> CollationResult:
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
                settings[name] = (_written(msg["setting"]), Setting(*msg["setting"]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"station {name} report_batch setting {msg['setting']} is refused: {exc}") from None
        elif _written(msg["setting"]) != settings[name][0]:
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
