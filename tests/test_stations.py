"""Distributed harness: framing, schemas, live runs, collation, faults."""

import contextlib
import dataclasses
import json
import math
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from helpers import EDGE_FLOATS, EDGE_INTS, mostly, run_live

from eqrc.experiments import CANONICAL_LEFT, ExperimentSpec, run_experiment
from eqrc.formats import (_RENDER_ROWS, LOG_SCHEMA_VERSION, ReportBatch, SourceLog, StationLog, StationReport,
                          dataset_record_lines, load_emission_log, load_report_log, write_emission_log,
                          write_report_log)
from eqrc.model import (BLOCK_PAIRS, GaugeKey, MODE_CONSTANT, MODE_RADEMACHER, MODE_RADEMACHER_RARB, PairStream,
                        Setting, measure_pairs)
from eqrc.stats import estimate_expectation
from eqrc import formats, stations as st

RAD3 = GaugeKey(mode=MODE_RADEMACHER, j=3)
B60 = Setting(0.5, math.sqrt(3) / 2)
V = st.WIRE_VERSION


_DTYPES = {"n": "<i8", "lambda": "<f8", "t": "<f8", "outcome": "i1"}


def _packed(frame):
    """``frame`` with each list-valued batch column packed as ``recv_frame`` gives it.

    A column travels as the raw bytes of a little-endian fixed-width
    array; any other value (a format case) is left as it is.
    """
    return {name: np.array(value, dtype=_DTYPES[name]).tobytes()
            if name in _DTYPES and isinstance(value, list) else value for name, value in frame.items()}


def _emit_batch(n, lam=None, t=None):
    """A packed emit_batch message; lambda and t default to 0.5 and 0.25 for every pair."""
    n = list(n)
    return _packed({"v": V, "type": "emit_batch", "n": n, "lambda": [0.5] * len(n) if lam is None else lam,
                    "t": [0.25] * len(n) if t is None else t})


def _split(msg):
    """(header, columns) of a message as ``send_frame`` takes them: its bytes fields are the columns."""
    return ({name: value for name, value in msg.items() if type(value) is not bytes},
            {name: value for name, value in msg.items() if type(value) is bytes})


def _send(sock, msg):
    """Send a message as ``recv_frame`` gives it back."""
    st.send_frame(sock, *_split(msg))


class _Capture:
    def sendall(self, data):
        self.data = bytes(data)


def _wire(msg) -> bytes:
    """The bytes ``send_frame`` puts on the wire for a message."""
    _send(capture := _Capture(), msg)
    return capture.data


def _frame(head: bytes, tail: bytes = b"", head_len=None) -> bytes:
    """A frame of the v4 layout from raw header and tail bytes, with ``head_len`` in place of the true one."""
    body = struct.pack("!I", len(head) if head_len is None else head_len) + head + tail
    return struct.pack("!I", len(body)) + body


# ---------------------------------------------------------------------------
# Framing and schemas

_json_values = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats(allow_nan=False, allow_infinity=False) | hst.text(),
    lambda inner: hst.lists(inner, max_size=4) | hst.dictionaries(hst.text(max_size=8), inner, max_size=4),
    max_leaves=12)


_column_names = (hst.sampled_from(["n", "lambda", "t", "outcome", "v", "type", "count", "columns"])
                 | hst.text(max_size=3))


@hst.composite
def _v4_frames(draw):
    """Whole frames of the v4 layout with arbitrary header fields, column lists and tail bytes.

    The column list is a batch's columns, other [name, byte length]
    pairs (names that may repeat or clash with the header's, lengths
    that may be negative) or any JSON value; the tail mostly fills the
    listed lengths, else is any bytes; the header length mostly is the
    header's, else any.
    """
    header = draw(hst.dictionaries(hst.text(max_size=3), _json_values, max_size=1)) | draw(hst.fixed_dictionaries(
        {"v": hst.just(V) | _json_values, "type": hst.sampled_from(["emit_batch", "report_batch"]) | _json_values},
        optional={"station": hst.just("L") | _json_values, "setting": hst.just([0.0, 1.0]) | _json_values,
                  "clock_ns": hst.integers()}))
    grammar = hst.sampled_from([("n", "lambda", "t"), ("n", "outcome")]).flatmap(  # a batch's columns of k items
        lambda names: hst.integers(0, 3).map(lambda k: [[name, k * (1 if name == "outcome" else 8)] for name in names]))
    layout = draw(grammar | hst.lists(hst.tuples(_column_names, hst.integers(-4, 40)).map(list), max_size=4)
                  | _json_values)
    if draw(hst.booleans()):
        header["columns"] = layout
    sizes = [c[1] for c in layout if type(c) is list and len(c) == 2 and type(c[1]) is int and c[1] >= 0] \
        if type(layout) is list else []
    want = sum(sizes) if "columns" in header else 0
    tail = draw(hst.binary(min_size=want, max_size=want) | hst.binary(max_size=48))
    head = json.dumps(header).encode()
    return _frame(head, tail, head_len=draw(hst.just(None) | hst.integers(0, 2**32 - 1)))


class TestFraming:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        st.send_frame(a, {"v": 1, "type": "end", "count": 3})
        assert st.recv_frame(b) == {"v": 1, "type": "end", "count": 3}
        a.close()
        assert st.recv_frame(b) is None  # clean EOF at a boundary
        b.close()

    def test_columns_travel_raw_behind_the_header(self):
        msg = _emit_batch([1, 2], lam=[0.5, 2**-1074])
        head = b'{"columns":[["n",16],["lambda",16],["t",16]],"type":"emit_batch","v":%d}' % V
        assert _wire(msg) == _frame(head, msg["n"] + msg["lambda"] + msg["t"])
        a, b = socket.socketpair()
        _send(a, msg)
        assert st.recv_frame(b) == msg
        a.close(), b.close()

    def test_mid_frame_drop_raises(self):
        a, b = socket.socketpair()
        a.sendall(b"\x00\x00\x00\x10partial")
        a.close()
        with pytest.raises(st.ProtocolError):
            st.recv_frame(b)
        b.close()

    @settings(max_examples=50, deadline=None)
    @given(hst.integers(st.MAX_FRAME_BYTES + 1, 2**32 - 1), hst.binary(max_size=32))
    def test_length_above_the_cap_is_refused_before_reading(self, size, body):
        a, b = socket.socketpair()
        b.settimeout(5)
        a.sendall(struct.pack("!I", size) + body)
        a.close()
        with pytest.raises(st.ProtocolError, match=f"frame length {size} exceeds the"):
            st.recv_frame(b)
        assert b.recv(len(body) + 1) == body  # the body is still unread
        b.close()

    def test_frame_arriving_in_pieces_is_reassembled(self):
        a, b = socket.socketpair()
        b.settimeout(5)
        msg = _emit_batch([7])
        frame = _wire(msg)

        def trickle():
            for i in range(0, len(frame), 3):
                a.sendall(frame[i:i + 3])
                time.sleep(0.01)

        sender = threading.Thread(target=trickle)
        sender.start()
        assert st.recv_frame(b) == msg
        sender.join(timeout=5)
        assert not sender.is_alive()
        a.close(), b.close()

    def test_frame_trickled_past_the_timeout_is_refused(self):
        a, b = socket.socketpair()
        b.settimeout(0.3)
        sender = threading.Thread(target=_trickle, args=(a, "L"))
        sender.start()
        started = time.monotonic()
        with pytest.raises(st.ProtocolError, match=r"frame still incomplete 0\.3 s after its first piece"):
            st.recv_frame(b)
        assert time.monotonic() - started < 0.6
        b.close()
        sender.join(timeout=5)
        assert not sender.is_alive()
        a.close()

    def test_undecodable_payload_raises(self):
        a, b = socket.socketpair()
        a.sendall(_frame(b"not json at all"))
        with pytest.raises(st.ProtocolError, match="^undecodable frame header"):
            st.recv_frame(b)
        a.close(), b.close()

    @pytest.mark.parametrize("payload,match", [
        (b'{"v": 4, "x": NaN}', "undecodable frame header: .*'NaN'"),
        (b'{"v": 4, "x": [1.0, Infinity]}', "undecodable frame header: .*'Infinity'"),
        (b'{"v": 4, "x": -Infinity}', "undecodable frame header: .*'-Infinity'"),
        (b"[" * 100_000, "undecodable frame header: maximum recursion depth"),
        (b'[{"v": 4}]', "frame header holds a JSON list, not an object"),
        (b"3", "frame header holds a JSON int, not an object"),
        (b'{"v": 4}}', "undecodable frame header: Extra data"),
    ], ids=["nan", "infinity", "minus-infinity", "deep-nesting", "list", "number", "extra-data"])
    def test_only_a_strict_json_object_is_a_frame(self, payload, match):
        a, b = socket.socketpair()
        a.sendall(_frame(payload))
        with pytest.raises(st.ProtocolError, match=match):
            st.recv_frame(b)
        a.close(), b.close()

    @pytest.mark.parametrize("frame,match", [
        (_frame(b'{"v":4}', head_len=8), "header length 8 runs past the 7 bytes after it"),
        (_frame(b"", head_len=2**32 - 1), "header length 4294967295 runs past the 0 bytes after it"),
        (struct.pack("!I", 3) + b"\0\0\0", "frame body of 3 bytes holds no header length"),
        (_frame(b'{"columns":{"n":8},"v":4}', bytes(8)), r"column list \{'n': 8\} is not \[name, byte length\]"),
        (_frame(b'{"columns":[["n"]],"v":4}'), r"column list \[\['n'\]\] is not"),
        (_frame(b'{"columns":[["n",8,0]],"v":4}', bytes(8)), "is not \\[name, byte length\\] pairs"),
        (_frame(b'{"columns":[[8,"n"]],"v":4}', bytes(8)), "is not \\[name, byte length\\] pairs"),
        (_frame(b'{"columns":[["n","8"]],"v":4}', bytes(8)), "is not \\[name, byte length\\] pairs"),
        (_frame(b'{"columns":[["n",true]],"v":4}', bytes(1)), "is not \\[name, byte length\\] pairs"),
        (_frame(b'{"columns":[["n",8.0]],"v":4}', bytes(8)), "is not \\[name, byte length\\] pairs"),
        (_frame(b'{"columns":[["n",-8],["t",16]],"v":4}', bytes(8)),
         r"column list \[\['n', -8\], \['t', 16\]\] is not"),
        (_frame(b'{"columns":[["n",8],["n",8]],"v":4}', bytes(16)), r"column names \['n', 'n'\] repeat or clash"),
        (_frame(b'{"columns":[["type",8]],"type":"end","v":4}', bytes(8)),
         r"column names \['type'\] repeat or clash with the header fields \['type', 'v'\]"),
        (_frame(b'{"columns":[["columns",8]],"v":4}', bytes(8)), r"column names \['columns'\] repeat or clash"),
        (_frame(b'{"columns":[["n",8]],"v":4}', bytes(9)), r"columns \[\['n', 8\]\] do not fill the 9 bytes after"),
        (_frame(b'{"columns":[["n",8]],"v":4}', bytes(7)), r"columns \[\['n', 8\]\] do not fill the 7 bytes after"),
        (_frame(b'{"v":4}', b"\0"), r"columns \[\] do not fill the 1 bytes after the header"),
        (_frame(b'{"columns":[["n",8]],"v":4}', bytes(8), head_len=3), "undecodable frame header"),
    ], ids=["header-past-body", "header-length-max", "no-header-length", "column-dict", "column-without-length",
            "column-of-three", "length-first", "length-as-text", "length-true", "length-float", "negative-length",
            "repeated-column", "column-named-type", "column-named-columns", "tail-too-long", "tail-too-short",
            "tail-without-columns", "short-header-length"])
    def test_malformed_v4_layout_is_a_named_protocol_error(self, frame, match):
        a, b = socket.socketpair()
        b.settimeout(5)
        a.sendall(frame)
        with pytest.raises(st.ProtocolError, match=match):
            st.recv_frame(b)
        a.close(), b.close()

    def test_v3_frame_with_base64_columns_is_refused_by_name(self):
        v3 = {"v": 3, "type": "emit_batch", "n": "AQAAAAAAAAA=", "lambda": "AAAAAAAA4D8=", "t": "AAAAAAAA0D8="}
        body = json.dumps(v3, sort_keys=True, separators=(",", ":")).encode()
        a, b = socket.socketpair()
        a.sendall(struct.pack("!I", len(body)) + body)
        with pytest.raises(st.ProtocolError, match="^frame body is a bare JSON object, as wire v3 and older sent"):
            st.recv_frame(b)
        # The same fields in a v4 header: refused by their version, then as text where columns belong.
        st.send_frame(a, v3)
        with pytest.raises(st.SchemaError, match="^unsupported wire version 3$"):
            st.validate_message(st.recv_frame(b), st.STATION_RECEIVABLE_SCHEMAS)
        st.send_frame(a, dict(v3, v=V))
        with pytest.raises(st.SchemaError, match="^field 'n' of 'emit_batch' is not a column$"):
            st.validate_message(st.recv_frame(b), st.STATION_RECEIVABLE_SCHEMAS)
        a.close(), b.close()

    def test_send_frame_refuses_nan_and_infinity(self):
        a, b = socket.socketpair()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="not JSON compliant"):
                st.send_frame(a, {"v": V, "x": [1.0, bad]})
        a.close(), b.close()

    @settings(max_examples=300, deadline=None)
    @given(hst.one_of(
        hst.binary(max_size=64),
        hst.binary(max_size=48).map(lambda body: struct.pack("!I", len(body)) + body),
        _json_values.map(lambda v: json.dumps(v).encode()).map(lambda body: struct.pack("!I", len(body)) + body),
        _json_values.map(lambda v: _frame(json.dumps(v).encode())),
        hst.lists(_v4_frames(), min_size=1, max_size=3).map(b"".join),
    ))
    def test_arbitrary_bytes_give_objects_none_or_a_protocol_error(self, data):
        # Whatever a frame holds, each role's grammar and batch decoder end it in a SchemaError or a message.
        a, b = socket.socketpair()
        b.settimeout(5)
        a.sendall(data)
        a.close()
        try:
            while (msg := st.recv_frame(b)) is not None:
                assert type(msg) is dict and "columns" not in msg
                for schemas in (st.STATION_RECEIVABLE_SCHEMAS, st.COLLATOR_RECEIVABLE_SCHEMAS,
                                st.SOURCE_RECEIVABLE_SCHEMAS):
                    with contextlib.suppress(st.SchemaError):
                        if (kind := st.validate_message(msg, schemas)) == "emit_batch":
                            st._report_batch(msg, 0, "L", B60, RAD3)
                        elif kind == "report_batch":
                            st._report_columns(msg)
        except st.ProtocolError:
            pass
        finally:
            b.close()


class TestSchemas:
    def _emit(self, **overrides):
        return dict(_emit_batch([1]), **overrides)

    def test_valid_emit_passes(self):
        assert st.validate_message(self._emit(), st.STATION_RECEIVABLE_SCHEMAS) == "emit_batch"

    def test_extra_field_rejected(self):
        with pytest.raises(st.SchemaError):
            st.validate_message(self._emit(hint=1), st.STATION_RECEIVABLE_SCHEMAS)

    def test_missing_field_rejected(self):
        msg = self._emit()
        del msg["t"]
        with pytest.raises(st.SchemaError):
            st.validate_message(msg, st.STATION_RECEIVABLE_SCHEMAS)

    def test_wrong_type_rejected(self):
        for column in ([1], 1, None, "AQAAAAAAAAA=", bytearray(8)):
            with pytest.raises(st.SchemaError, match="field 'n' of 'emit_batch' is not a column"):
                st.validate_message(self._emit(n=column), st.STATION_RECEIVABLE_SCHEMAS)
        for count in (2**63, -2**63):
            with pytest.raises(st.SchemaError, match="field 'count' of 'end' is not a 64-bit int"):
                st.validate_message({"v": V, "type": "end", "count": count}, st.STATION_RECEIVABLE_SCHEMAS)

    def test_bool_is_not_a_number(self):
        with pytest.raises(st.SchemaError):
            st.validate_message(self._emit(n=True), st.STATION_RECEIVABLE_SCHEMAS)

    def test_unknown_type_rejected(self):
        for kind in ("report_batch", [], {}, None):
            with pytest.raises(st.SchemaError, match="unknown message type"):
                st.validate_message({"v": V, "type": kind}, st.STATION_RECEIVABLE_SCHEMAS)

    def test_wire_version_pinned(self):
        for v in (V + 1, float(V), True):
            with pytest.raises(st.SchemaError, match="unsupported wire version"):
                st.validate_message(self._emit(v=v), st.STATION_RECEIVABLE_SCHEMAS)

    def test_v1_emit_frame_is_refused_by_its_version(self):
        for schemas in (st.STATION_RECEIVABLE_SCHEMAS, st.COLLATOR_RECEIVABLE_SCHEMAS):
            with pytest.raises(st.SchemaError, match="unsupported wire version 1"):
                st.validate_message({"v": 1, "type": "emit", "n": 1, "lambda": 0.5, "t": 0.25}, schemas)

    def test_station_grammar_cannot_carry_a_setting(self):
        # Locality by schema: no field is setting-like and none is a list; a
        # column is fixed-width numbers, so a setting cannot ride in it as text.
        for kind, grammar in st.STATION_RECEIVABLE_SCHEMAS.items():
            for name, checker in grammar.items():
                assert "setting" not in name.lower()
                assert checker in (int, str, bytes), (kind, name)
                assert checker is not str or name == "type", (kind, name)
        for column, dtype in (("n", "<i8"), ("lambda", "<f8"), ("t", "<f8")):
            msg = dict(_emit_batch([1, 2]), **{column: b"[0.0,1.0]"})
            assert st.validate_message(msg, st.STATION_RECEIVABLE_SCHEMAS) == "emit_batch"
            with pytest.raises(st.SchemaError, match=f"^emit_batch rejected: column {column} holds 9 bytes, not whole"
                                                     f" {dtype} items$"):
                st._report_batch(msg, 0, "R", B60, RAD3)


_unit_floats = hst.floats(0.0, 1.0, exclude_max=True)


@hst.composite
def _good_batches(draw):
    """(n, lambda, t, last accepted n): rising indices above last_n, lambda and t in [0, 1)."""
    last_n = draw(hst.integers(0, 2**62))
    steps = draw(hst.lists(hst.integers(1, 2**20), min_size=1, max_size=40))
    n = (last_n + np.cumsum(steps)).tolist()
    size = len(n)
    lam = draw(hst.lists(_unit_floats, min_size=size, max_size=size))
    t = draw(hst.lists(_unit_floats | hst.sampled_from([0, 0.5 - 2**-53]), min_size=size, max_size=size))
    return n, lam, t, last_n


_BAD_UNIT = [1.0, 1, -2**-1074, -0.5, 7.0, math.nan, math.inf, -math.inf]


class TestBatches:
    @settings(max_examples=200, deadline=None)
    @given(_good_batches(), hst.sampled_from(["L", "R"]),
           hst.sampled_from([CANONICAL_LEFT, B60, Setting(-1.0, 0.0)]),
           hst.sampled_from([RAD3, GaugeKey(mode="rademacher-times-rarb", j=5, rarb_seed=11)]))
    def test_good_batch_reports_equal_measure_pairs(self, batch, side, setting, key):
        n, lam, t, last_n = batch
        msg = _emit_batch(n, lam, t)
        assert st.validate_message(msg, st.STATION_RECEIVABLE_SCHEMAS) == "emit_batch"
        header, columns, n_out, outcome = st._report_batch(msg, last_n, side, setting, key)
        report = {**header, **columns}  # as the collator receives it
        assert st.validate_message(report, st.COLLATOR_RECEIVABLE_SCHEMAS) == "report_batch"
        left, right = measure_pairs(setting, PairStream(n=np.array(n), lam=np.array(lam, dtype=float),
                                                        t=np.array(t, dtype=float)), key)
        expected = (left if side == "L" else right).tolist()
        assert report["n"] == msg["n"] and report["station"] == side
        assert report["outcome"] == _packed({"outcome": expected})["outcome"]
        assert report["setting"] == [setting.b2, setting.b3]
        assert n_out.tolist() == n and outcome.tolist() == expected
        # The collator reads back what the station sent, and the float columns went bit for bit.
        assert [c.tolist() for c in st._report_columns(report)[:2]] == [n, expected]
        assert np.array_equal(st._columns("emit_batch", msg, formats.EMISSION_COLUMNS[1:2])[0].view(np.uint64),
                              np.array(lam, dtype=float).view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(_good_batches(), hst.sampled_from(["n", "lambda", "t"]), hst.data())
    def test_one_bad_element_rejects_the_batch_at_its_position(self, batch, column, data):
        n, lam, t, last_n = batch
        columns = {"n": n, "lambda": lam, "t": t}
        i = data.draw(hst.integers(0, len(n) - 1), label="position")
        if column == "n":
            prev = n[i - 1] if i else last_n
            bad = data.draw(hst.sampled_from([prev, prev - 1, 0, -5]), label="bad")
        else:
            bad = data.draw(hst.sampled_from(_BAD_UNIT), label="bad")
        columns[column] = columns[column][:i] + [bad] + columns[column][i + 1:]
        with pytest.raises(st.SchemaError, match=f"^emit_batch rejected at position {i}: "):
            st._report_batch(_emit_batch(*columns.values()), last_n, "L", CANONICAL_LEFT, RAD3)

    @pytest.mark.parametrize("lam,text", [
        (math.nan, "lambda nan is not"), (math.inf, "lambda inf is not"), (-math.inf, "lambda -inf is not"),
        (-2**-1074, "lambda -5e-324 is not"), (1.0, "lambda 1.0 is not"),
    ])
    def test_out_of_range_lambda_text_names_its_position(self, lam, text):
        with pytest.raises(st.SchemaError, match=rf"^emit_batch rejected at position 1: {text} in \[0, 1\)$"):
            st._report_batch(_emit_batch([1, 2, 3], lam=[0.5, lam, 0.5]), 0, "L", CANONICAL_LEFT, RAD3)

    def test_non_increasing_text_names_both_indices(self):
        with pytest.raises(st.SchemaError, match="position 2: non-increasing pair index 5 after 6$"):
            st._report_batch(_emit_batch([3, 6, 5]), 2, "L", CANONICAL_LEFT, RAD3)
        with pytest.raises(st.SchemaError, match="position 0: non-increasing pair index 2 after 2$"):
            st._report_batch(_emit_batch([2, 3]), 2, "L", CANONICAL_LEFT, RAD3)
        with pytest.raises(st.SchemaError, match="position 0: non-increasing pair index 0 after 0$"):
            st._report_batch(_emit_batch([0, 1]), 0, "L", CANONICAL_LEFT, RAD3)

    @pytest.mark.parametrize("columns,match", [
        ({"n": [], "lambda": [], "t": []}, ": an empty batch"),
        ({"n": [1, 2]}, r" at position 1: columns \['n', 'lambda', 't'\] of lengths \[2, 1, 1\]"),
        ({"lambda": [0.5, 0.5]}, r" at position 1: columns \['n', 'lambda', 't'\] of lengths \[1, 2, 1\]"),
        ({"t": []}, r" at position 0: columns \['n', 'lambda', 't'\] of lengths \[1, 1, 0\]"),
    ], ids=repr)
    def test_unequal_or_empty_columns_are_refused(self, columns, match):
        msg = dict(_emit_batch([1]), **_packed(columns))
        with pytest.raises(st.SchemaError, match=f"^emit_batch rejected{match}$"):
            st._report_batch(msg, 0, "L", CANONICAL_LEFT, RAD3)

    @pytest.mark.parametrize("column,raw,match", [
        ("n", bytes(7), ": column n holds 7 bytes, not whole <i8 items"),
        ("n", bytes(9), ": column n holds 9 bytes, not whole <i8 items"),
        ("lambda", bytes(12), ": column lambda holds 12 bytes, not whole <f8 items"),
        ("lambda", bytes(1), ": column lambda holds 1 bytes, not whole <f8 items"),
        ("t", b"AAAAAAAA4D8=", ": column t holds 12 bytes, not whole <f8 items"),  # base64 text of one float
        ("t", b"", r" at position 0: columns \['n', 'lambda', 't'\] of lengths \[1, 1, 0\]"),
        ("n", _packed({"n": [1, 2]})["n"], r" at position 1: columns \['n', 'lambda', 't'\] of lengths \[2, 1, 1\]"),
    ], ids=["ragged-n", "ragged-n-long", "ragged-lambda", "one-byte-lambda", "base64-t", "empty-t", "long-n"])
    def test_column_that_is_not_whole_fixed_width_items_is_refused(self, column, raw, match):
        msg = dict(_emit_batch([1]), **{column: raw})
        assert st.validate_message(msg, st.STATION_RECEIVABLE_SCHEMAS) == "emit_batch"
        with pytest.raises(st.SchemaError, match=f"^emit_batch rejected{match}$"):
            st._report_batch(msg, 0, "L", CANONICAL_LEFT, RAD3)

    def test_longest_full_batches_fit_under_the_frame_cap(self):
        # A column's size depends only on its length: a full batch has one
        # frame size whatever its values, and the report's setting and clock
        # below are the longest a report can carry.
        top, size = 2**63 - 1, BLOCK_PAIRS
        n = list(range(top - size + 1, top + 1))
        emit = _emit_batch(n, [2.2250738585072014e-308] * size, [0.9999999999999999] * size)
        header, columns, _, _ = st._report_batch(emit, top - size, "R",
                                                 Setting(-0.7071067811865476, -0.7071067811865475), RAD3)
        report = dict(header, clock_ns=top, **columns)
        # A full batch is one BLOCK_PAIRS block of 8,192 pairs: 65,536 bytes per 8-byte column and 8,192 for
        # outcome, behind the two 4-byte lengths and the JSON header (80 bytes for an emit_batch, 167 for this
        # report_batch).
        expected = {"emit_batch": 8 + 80 + 196_608, "report_batch": 8 + 167 + 73_728}
        for frame, schemas in ((emit, st.STATION_RECEIVABLE_SCHEMAS), (report, st.COLLATOR_RECEIVABLE_SCHEMAS)):
            raw = _wire(frame)
            assert len(raw) == expected[frame["type"]] < st.MAX_FRAME_BYTES
            a, b = socket.socketpair()
            b.settimeout(10)
            sender = threading.Thread(target=_send, args=(a, frame))
            sender.start()
            got = st.recv_frame(b)
            sender.join(timeout=10)
            assert not sender.is_alive()
            a.close(), b.close()
            assert got == frame and st.validate_message(got, schemas) == frame["type"]

    @settings(max_examples=200, deadline=None)
    @given(hst.sampled_from(["emit_batch", "report_batch"]), hst.integers(1, 6), hst.data())
    def test_any_frame_past_the_grammar_raises_only_schema_errors(self, kind, size, data):
        # Fields with the right names and arbitrary values: mostly a column of
        # ``size`` items of arbitrary bytes, else bytes of any length, text,
        # or any JSON value at all.
        fields = {"emit_batch": ("n", "lambda", "t"), "report_batch": ("station", "setting", "n", "outcome",
                                                                       "clock_ns")}[kind]

        def value(name):
            width = size * (1 if name == "outcome" else 8)
            return (hst.binary(min_size=width, max_size=width) | hst.binary(max_size=20)
                    | hst.text(max_size=8) | hst.integers() | _json_values)

        msg = {"v": data.draw(hst.just(V) | _json_values, label="v"),
               "type": data.draw(hst.just(kind) | _json_values, label="type"),
               **{name: data.draw(value(name), label=name) for name in fields}}
        schemas = st.STATION_RECEIVABLE_SCHEMAS if kind == "emit_batch" else st.COLLATOR_RECEIVABLE_SCHEMAS
        with contextlib.suppress(st.SchemaError):
            if st.validate_message(msg, schemas) == "emit_batch":
                st._report_batch(msg, data.draw(hst.integers(0, 2**63 - 1), label="last_n"), "L", B60, RAD3)
            else:
                st._report_columns(msg)

    @settings(max_examples=150, deadline=None)
    @given(_json_values)
    def test_any_json_value_raises_only_schema_errors(self, msg):
        for schemas in (st.STATION_RECEIVABLE_SCHEMAS, st.COLLATOR_RECEIVABLE_SCHEMAS, st.SOURCE_RECEIVABLE_SCHEMAS):
            with contextlib.suppress(st.SchemaError):
                st.validate_message(msg, schemas)


class TestKeyFiles:
    def test_round_trip_and_digest(self, tmp_path):
        path = tmp_path / "key.json"
        for key in (GaugeKey(mode=MODE_RADEMACHER, j=4), GaugeKey(mode=MODE_CONSTANT),
                    GaugeKey(mode=MODE_RADEMACHER_RARB, j=52, rarb_seed=2**63 - 1),
                    GaugeKey(mode=MODE_RADEMACHER_RARB, j=1, rarb_seed=0),
                    GaugeKey(mode=MODE_RADEMACHER_RARB, j=1, rarb_seed=2**64 - 1)):
            st.write_key_file(path, key)
            assert st.load_key_file(path) == key
            assert st.load_key_file(path).digest_hex() == key.digest_hex()

    @pytest.mark.parametrize("fields,match", [
        ({"j": 3.7}, "j 3.7 is not an int"),
        ({"j": True}, "j True is not an int"),
        ({"j": "3"}, "j '3' is not an int"),
        ({"mode": MODE_RADEMACHER_RARB, "rarb_seed": "9"}, "rarb_seed '9' is neither an int nor null"),
        ({"mode": MODE_RADEMACHER_RARB, "rarb_seed": False}, "rarb_seed False is neither an int nor null"),
        ({"mode": MODE_RADEMACHER_RARB, "rarb_seed": -1}, r"rarb_seed in \[0, 2\*\*64\), got -1"),
        ({"mode": MODE_RADEMACHER_RARB, "rarb_seed": 2**64}, r"rarb_seed in \[0, 2\*\*64\), got 18446744073709551616"),
        ({"j": ...}, r"got \['mode', 'rarb_seed', 'v'\]"),
        ({"extra": 1}, r"got \['extra', 'j', 'mode', 'rarb_seed', 'v'\]"),
        ({"v": True}, "unsupported gauge key schema version: True"),
    ], ids=repr)
    def test_what_the_writer_never_writes_is_refused(self, tmp_path, fields, match):
        # RAD3's own file, with ``fields`` replaced (``...`` drops the key). A real j: 3
        # loads under RAD3's digest; no other value may load under it.
        obj = {k: v for k, v in {"kind": "gauge-key", **RAD3.to_json(), **fields}.items() if v is not ...}
        path = tmp_path / "key.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(st.KeyFileError, match=match):
            st.load_key_file(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(st.KeyFileError, match="not found"):
            st.load_key_file(tmp_path / "absent.json")

    def test_garbage_file_refused(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(st.KeyFileError):
            st.load_key_file(path)


def _report_log(tmp_path, count=4, side="L", setting=CANONICAL_LEFT):
    rows = np.arange(count)
    log = StationLog(station=side, setting=setting, key_digest=RAD3.digest_hex(), reports=ReportBatch(
        side, setting, n=rows + 1, outcome=(1 - 2 * (rows % 2)).astype(np.int8), clock_ns=10 * rows))
    path = tmp_path / f"{side}.jsonl"
    write_report_log(log, path)
    return log, path


def _edit_line(path, lineno, **fields):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = json.dumps(dict(json.loads(lines[lineno - 1]), **fields))
    path.write_text("\n".join(lines) + "\n")


# Distinct objects, some equal as floats but not as JSON (-0.0 vs 0.0).
_LOG_SETTINGS = [Setting(1.0, 0.0), Setting(1.0, -0.0), Setting(-0.0, 1.0), Setting(1.0, 5e-324),
                 Setting(0.0, -1.0), B60]
_log_settings = hst.one_of(hst.sampled_from(_LOG_SETTINGS),
                           hst.floats(-math.pi, math.pi).map(Setting.from_angle))
# The (n, outcome, clock_ns) of one report: a clock may be any int64.
_report_fields = hst.tuples(hst.integers(1, 2**62), hst.sampled_from([-1, 1]), hst.integers(-2**63, 2**63 - 1))


def _at_edge_clocks(test):
    """``test`` with an example of one report per edge clock, and one of all of them in one log."""
    for clock in EDGE_INTS:
        test = example(station="R", setting=B60, fields=[(7, -1, clock)])(test)
    return example(station="L", setting=B60, fields=[(i + 1, 1, c) for i, c in enumerate(EDGE_INTS)])(test)


def _reference_report_lines(reports) -> list[str]:
    """The pre-codec writer: one sorted-key dump per report row."""
    return [json.dumps(dict(r._asdict(), setting=[r.setting.b2, r.setting.b3], type="report",
                            v=LOG_SCHEMA_VERSION), sort_keys=True, separators=(",", ":"))
            for r in reports]


class TestReportLogs:
    @settings(max_examples=150, deadline=None)
    @given(station=hst.sampled_from(["L", "R"]), setting=_log_settings, fields=hst.lists(_report_fields, max_size=12))
    @_at_edge_clocks
    def test_template_lines_equal_dumping_each_report(self, tmp_path_factory, station, setting, fields):
        path = tmp_path_factory.mktemp("log") / "log.jsonl"
        reports = [StationReport(n, station, setting, outcome, clock_ns) for n, outcome, clock_ns in fields]
        log = StationLog(station=station, setting=setting, key_digest="ab", reports=reports)
        write_report_log(log, path)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == _reference_report_lines(reports)

    def test_log_of_several_render_blocks_equals_dumping_and_loads_back(self, tmp_path):
        count, rng = 2 * _RENDER_ROWS + 5, np.random.default_rng(13)
        batch = ReportBatch("L", B60, n=np.cumsum(rng.integers(1, 4, count)),
                            outcome=rng.choice(np.array([-1, 1], np.int8), count),
                            clock_ns=rng.integers(-2**63, 2**63 - 1, count, endpoint=True))
        path = tmp_path / "log.jsonl"
        write_report_log(StationLog(station="L", setting=B60, key_digest="ab", reports=batch), path)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == _reference_report_lines(batch)
        back = load_report_log(path)
        for name in ("n", "outcome", "clock_ns"):
            assert np.array_equal(getattr(back, name), getattr(batch, name)), name

    def test_round_trip_is_columnar(self, tmp_path):
        log, path = _report_log(tmp_path, count=6, side="R", setting=B60)
        batch = load_report_log(path)
        assert batch.station == "R" and batch.setting == B60
        assert batch.n.tolist() == log.reports.n.tolist() and batch.n.dtype == np.int64
        assert batch.outcome.tolist() == log.reports.outcome.tolist() and batch.outcome.dtype == np.int8
        assert batch.clock_ns.tolist() == log.reports.clock_ns.tolist()

    @pytest.mark.parametrize("fields", [
        {"v": 7}, {"v": True}, {"type": "emit"}, {"v": 7, "type": "emit", "outcome": 3},
        {"outcome": 3}, {"outcome": 1.0}, {"outcome": True},
        {"n": 1.9}, {"n": True}, {"n": 0}, {"clock_ns": 1.5}, {"clock_ns": "10"}, {"clock_ns": True},
        {"clock_ns": 2**63},
    ], ids=repr)
    def test_line_the_writer_never_writes_is_refused(self, tmp_path, fields):
        _, path = _report_log(tmp_path)
        _edit_line(path, 3, **fields)
        with pytest.raises(ValueError, match=r"line 3"):
            load_report_log(path)

    def test_another_station_session_is_refused(self, tmp_path):
        _, path = _report_log(tmp_path)
        _edit_line(path, 4, setting=[B60.b2, B60.b3])
        with pytest.raises(ValueError, match="line 4: a report batch must come from one station session"):
            load_report_log(path)
        _edit_line(path, 4, setting=[1.0, 0.0], station="R")
        with pytest.raises(ValueError, match="line 4: a report batch must come from one station session"):
            load_report_log(path)

    @pytest.mark.parametrize("fields", [{"station": "R"}, {"setting": [0.0, 1.0]}], ids=repr)
    def test_header_must_name_its_reports_session(self, tmp_path, fields):
        _, path = _report_log(tmp_path)
        _edit_line(path, 1, **fields)
        with pytest.raises(ValueError, match="line 2: a report batch must come from one station session"):
            load_report_log(path)

    @pytest.mark.parametrize("digest", [[1, 2], None, 7], ids=repr)
    def test_header_key_digest_must_be_a_string(self, tmp_path, digest):
        _, path = _report_log(tmp_path)
        _edit_line(path, 1, key_digest=digest)
        with pytest.raises(ValueError, match=rf"line 1: header key_digest {re.escape(repr(digest))} is not a string$"):
            load_report_log(path)

    def test_text_after_the_header_object_is_refused(self, tmp_path):
        _, path = _report_log(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0][:-1] + ' trailing garbage {"x":1}\n' + "".join(lines[1:]))
        with pytest.raises(ValueError, match=r"line 1: text after the object: ' trailing garbage"):
            load_report_log(path)

    @pytest.mark.parametrize("station", [1, True, None], ids=repr)
    def test_header_station_must_be_a_string(self, tmp_path, station):
        _, path = _report_log(tmp_path)
        _edit_line(path, 1, station=station)
        with pytest.raises(ValueError, match="line 1: header without valid slots: .* is not all strings"):
            load_report_log(path)

    @pytest.mark.parametrize("station", ["\x000", "\x002"], ids=repr)
    def test_station_that_dumps_as_a_column_mark_is_refused(self, tmp_path, station):
        # The line codec finds its columns by dumping them as "\u0000<column>"; a field that dumps the same
        # would add a column to the layout, so neither the writer nor the loader takes it.
        log, path = _report_log(tmp_path)
        with pytest.raises(ValueError, match="a template holds a column mark"):
            write_report_log(StationLog(station, log.setting, "ab", dataclasses.replace(log.reports, station=station)),
                             tmp_path / "mark.jsonl")
        _edit_line(path, 1, station=station)
        with pytest.raises(ValueError, match="line 1: header without valid slots: .*holds a column mark"):
            load_report_log(path)

    @pytest.mark.parametrize("setting", [[1.0, 1e-15], [1.0 + 2**-52, 0.0], [1, 0], [1.0, 0], [1.0, -0.0]], ids=repr)
    def test_a_setting_not_as_the_writer_writes_it_is_another_session(self, tmp_path, setting):
        _, path = _report_log(tmp_path)  # the header's setting is [1.0, 0.0]
        _edit_line(path, 4, setting=setting)
        with pytest.raises(ValueError, match="line 4: a report batch must come from one station session"):
            load_report_log(path)

    @pytest.mark.parametrize("setting", [["1.0", "0.0"], [True, 0.0], [1.0, 0.0, 0.0]], ids=repr)
    def test_header_setting_must_be_two_numbers(self, tmp_path, setting):
        _, path = _report_log(tmp_path)
        _edit_line(path, 1, setting=setting)
        with pytest.raises(ValueError, match="line 1: header without valid slots"):
            load_report_log(path)

    @pytest.mark.parametrize("columns,match", [
        ({"outcome": [1, -1, 7, 1]}, r"report at index 2: outcome 7 is not -1 or \+1"),
        ({"n": [1, 2, 3, 0]}, r"report at index 3: pair index 0 is not an integer >= 1"),
        ({"outcome": [1, -1, 1]},
         r"report at index 3: columns \['n', 'outcome', 'clock_ns'\] of lengths \[4, 3, 4\]"),
        ({"n": [1, 0, 3, 4], "clock_ns": [0, 0]}, r"report at index 1: pair index 0"),  # the first of two faults
    ], ids=["outcome", "n-below-one", "unequal-lengths", "first-fault"])
    def test_batch_the_loader_would_refuse_is_not_written(self, tmp_path, columns, match):
        cols = {"n": [1, 2, 3, 4], "outcome": [1, -1, 1, 1], "clock_ns": [0, 10, 20, 30], **columns}
        batch = ReportBatch("L", B60, np.array(cols["n"], np.int64), np.array(cols["outcome"], np.int8),
                            np.array(cols["clock_ns"], np.int64))
        path = tmp_path / "log.jsonl"
        path.write_text("an earlier file\n")
        with pytest.raises(ValueError, match=rf"^station L {match}.*; no report log is written$"):
            write_report_log(StationLog("L", B60, "ab", batch), path)
        assert path.read_text() == "an earlier file\n"

    @pytest.mark.parametrize("field,value", [("key_digest", None), ("key_digest", 5), ("station", None)])
    def test_header_the_loader_would_refuse_is_not_written(self, tmp_path, field, value):
        log = StationLog("L", B60, "ab", ReportBatch("L", B60, np.array([1, 2], np.int64), np.array([1, -1], np.int8),
                                                     np.array([0, 10], np.int64)))
        setattr(log, field, value)
        path = tmp_path / "log.jsonl"
        path.write_text("an earlier file\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line 1: header {field} {value!r} is not a "
                                             "string; no report log is written$"):
            write_report_log(log, path)
        assert path.read_text() == "an earlier file\n"

    def test_empty_log_loads_as_an_empty_batch(self, tmp_path):
        _, path = _report_log(tmp_path, count=0)
        batch = load_report_log(path)
        assert (batch.station, batch.setting, len(batch)) == ("L", CANONICAL_LEFT, 0)
        assert (batch.n.dtype, batch.outcome.dtype, batch.clock_ns.dtype) == (np.int64, np.int8, np.int64)

    @settings(max_examples=300, deadline=None)
    @given(hst.data())
    def test_writer_refuses_or_the_log_loads_back_the_same_columns(self, tmp_path_factory, data):
        draw, size = data.draw, data.draw(hst.integers(0, 10), label="size")
        ints = hst.sampled_from(EDGE_INTS) | hst.integers(-2**63, 2**63 - 1)
        cols = [mostly(draw, draw(hst.lists(hst.integers(1, 2**63 - 1), min_size=size, max_size=size)), ints),
                mostly(draw, draw(hst.lists(hst.sampled_from([-1, 1]), min_size=size, max_size=size)),
                       hst.integers(-128, 127)),
                draw(hst.lists(ints, min_size=size, max_size=size))]
        if size and draw(hst.integers(0, 9)) == 0:  # one column a row short
            cols[draw(hst.integers(0, 2))].pop()
        path = tmp_path_factory.mktemp("log") / "R.jsonl"
        path.write_bytes(_EARLIER)
        batch = ReportBatch("R", B60, *(np.array(col, dtype) for col, dtype in zip(cols, (np.int64, np.int8, np.int64))))
        try:
            write_report_log(StationLog("R", B60, "ab", batch), path)
        except ValueError:
            assert path.read_bytes() == _EARLIER
            return
        back = load_report_log(path)
        assert (back.station, back.setting, [back.n.tolist(), back.outcome.tolist(), back.clock_ns.tolist()]) == (
            "R", B60, cols)


class TestStationLogs:
    def test_rows_become_one_batch_that_iterates_as_the_same_rows(self):
        rows = [StationReport(n, "R", B60, outcome, 10 * n) for n, outcome in ((2, 1), (5, -1), (9, -1))]
        log = StationLog(station="R", setting=B60, key_digest="ab", reports=rows)
        assert isinstance(log.reports, ReportBatch) and len(log.reports) == 3
        assert (log.reports.n.dtype, log.reports.outcome.dtype, log.reports.clock_ns.dtype) == (
            np.int64, np.int8, np.int64)
        assert list(log.reports) == rows
        assert len(StationLog(station="L", setting=CANONICAL_LEFT, key_digest="ab").reports) == 0

    @pytest.mark.parametrize("station,setting,match", [
        ("R", Setting(1.0, 0.0), r"given a report of station 'R' with Setting\(b2=1\.0, b3=0\.0\)$"),
        ("L", Setting(1.0, -0.0), r"given a report of station 'L' with Setting\(b2=1\.0, b3=-0\.0\)$"),
    ], ids=["foreign-station", "negative-zero-setting"])
    def test_report_of_another_session_is_refused(self, station, setting, match):
        own = Setting(1.0, 0.0)
        rows = [StationReport(1, "L", own, 1, 0), StationReport(2, station, setting, -1, 0)]
        with pytest.raises(ValueError, match=match):
            StationLog(station="L", setting=own, key_digest="ab", reports=rows)
        batch = ReportBatch(station, setting, np.array([1]), np.array([1], np.int8), np.array([0]))
        with pytest.raises(ValueError, match=match):  # a batch is one session's: its station and setting
            StationLog(station="L", setting=own, key_digest="ab", reports=batch)

    def test_a_group_gives_batches_with_zero_clocks_that_a_log_writes(self, tmp_path):
        grp = _group(n=3)
        for batch, outcome in zip(st.station_batches(grp), (grp.left, grp.right)):
            assert batch.clock_ns.tolist() == [0, 0, 0] and batch.clock_ns.dtype == np.int64
            assert batch.n.tolist() == grp.pair_index.tolist() and batch.outcome.tolist() == outcome.tolist()
            path = tmp_path / f"{batch.station}.jsonl"
            write_report_log(StationLog(batch.station, batch.setting, "ab", batch), path)
            assert list(load_report_log(path)) == list(batch)


_EARLIER = b"an earlier file\n"


def _source_log(n, lam=None, t=None, count=3, session=0, **fields):
    """A SourceLog of events with these pair indices; lambda and t default to 0.5 and 0.25 for each."""
    lam, t = ([0.5] * len(n) if lam is None else lam), ([0.25] * len(n) if t is None else t)
    return SourceLog(seed=fields.pop("seed", 9), session_index=session, count=count, emissions=PairStream(
        n=np.array(n, np.int64), lam=np.array(lam, float), t=np.array(t, float)), **fields)


def _emission_log(tmp_path, count=3, session=1):
    first = session * count + 1
    events = PairStream(n=np.arange(first, first + count), lam=np.array([0.5, 0.25, 0.0])[:count],
                        t=np.array([0.125, 0.75, 0.5])[:count])
    path = tmp_path / "emissions.jsonl"
    write_emission_log(SourceLog(seed=9, session_index=session, count=count, emissions=events), path)
    return events, path


class TestEmissionLogs:
    def test_round_trip_is_a_pair_stream(self, tmp_path):
        events, path = _emission_log(tmp_path)
        log = load_emission_log(path)
        assert (log.seed, log.session_index, log.count, log.status) == (9, 1, 3, "complete")
        for name in ("n", "lam", "t"):
            assert np.array_equal(getattr(log.emissions, name), getattr(events, name))

    def test_missing_trailer_loads_as_partial(self, tmp_path):
        _, path = _emission_log(tmp_path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        log = load_emission_log(path)
        assert (log.status, log.detail, len(log.emissions)) == ("partial", "missing trailer", 3)

    @pytest.mark.parametrize("lineno,fields,match", [
        (3, {"n": 1.9}, "line 3: pair index 1.9 is not an integer"),
        (3, {"n": 4}, "line 3: pair index 4 is not 5: .* repeated or out of order"),  # repeated
        (2, {"n": 5}, "line 2: pair index 5 is not 4: .* repeated or out of order"),  # out of order
        (4, {"n": 7}, r"line 4: pair index 7 is not 6: out of the session's range 4\.\.6"),
        (2, {"n": 1}, "line 2: pair index 1 is not 4"),  # another session's index
        (3, {"lambda": 7.0}, r"line 3: lambda 7.0 is not in \[0, 1\)"),
        (4, {"t": -3.0}, r"line 4: t -3.0 is not in \[0, 1\)"),
        (2, {"v": 9}, "line 2: unsupported log schema version 9"),
        (2, {"v": True}, "line 2: unsupported log schema version True"),
        (3, {"n": True}, "line 3: pair index True is not an integer"),
        (3, {"n": "5"}, "line 3: pair index '5' is not an integer"),
        (3, {"n": 2**63}, "line 3: pair index 9223372036854775808 is not an integer"),
        (3, {"lambda": True}, r"line 3: lambda True is not in \[0, 1\)"),
        (4, {"t": "0.5"}, r"line 4: t '0.5' is not in \[0, 1\)"),
        (5, {"sent": 1}, "line 5: trailer .* does not close 3 events"),
        (5, {"status": "done"}, "line 5: trailer"),
    ], ids=repr)
    def test_line_the_writer_never_writes_is_refused(self, tmp_path, lineno, fields, match):
        _, path = _emission_log(tmp_path)
        _edit_line(path, lineno, **fields)
        with pytest.raises(ValueError, match=match):
            load_emission_log(path)

    @pytest.mark.parametrize("fields", [
        {"count": 2.7, "seed": "9"}, {"count": True}, {"count": -3}, {"seed": "9"}, {"seed": -1}, {"seed": None},
        {"session": 1.0}, {"session": False}, {"session": -1},
    ], ids=repr)
    def test_header_fields_must_be_integers_at_least_zero(self, tmp_path, fields):
        _, path = _emission_log(tmp_path)
        _edit_line(path, 1, **fields)
        name = next(f for f in ("seed", "session", "count") if f in fields)  # the first field checked
        with pytest.raises(ValueError, match=f"line 1: header {name} .* is not an integer >= 0"):
            load_emission_log(path)

    @pytest.mark.parametrize("session,count", [(2**62, 5), (2**63 // 3, 3), (0, 2**63)], ids=repr)
    def test_header_session_past_the_last_int64_pair_index_is_refused(self, tmp_path, session, count):
        _, path = _emission_log(tmp_path)
        _edit_line(path, 1, session=session, count=count)
        with pytest.raises(ValueError, match=f"line 1: header session {session} of {count} pairs: pair indices "
                                             rf"{session * count + 1}\.\.{(session + 1) * count} are not all in "
                                             r"1\.\.2\*\*63 - 1$"):
            load_emission_log(path)

    def test_header_fault_is_named_before_a_record_fault(self, tmp_path):
        _, path = _emission_log(tmp_path)
        _edit_line(path, 1, seed=1.7)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]) + "not a record\n")
        with pytest.raises(ValueError, match=f"emission-log {path} line 1: header seed 1.7 is not an integer >= 0$"):
            load_emission_log(path)

    def test_event_past_the_header_count_is_named(self, tmp_path):
        _, path = _emission_log(tmp_path, session=0)
        _edit_line(path, 1, count=2)
        with pytest.raises(ValueError, match=rf"emission-log {path} line 4: event 3 \(pair index 3\) is past the "
                                             "session's count 2$"):
            load_emission_log(path)

    @pytest.mark.parametrize("log,match", [
        (_source_log([1, 2, 3], lam=[0.5, 1.5, 0.0]), r"3: lambda 1\.5 is not in \[0, 1\)"),
        (_source_log([1, 2, 3], t=[0.5, 0.5, math.nan]), r"4: t nan is not in \[0, 1\)"),
        (_source_log([1, 2], lam=[-math.inf, 0.5], status="partial"), r"2: lambda -inf is not in \[0, 1\)"),
        (_source_log([1, 3], status="partial"), r"3: pair index 3 is not 2: out of the session's range 1\.\.3, "
                                                "repeated or out of order"),
        (_source_log([4, 5], count=2), r"2: pair index 4 is not 1: out of the session's range 1\.\.2, "
                                                 "repeated or out of order"),
        (_source_log([1, 2, 3], count=2), r"4: event 3 \(pair index 3\) is past the session's count 2"),
        (_source_log([1, 2], seed=-1), "1: header seed -1 is not an integer >= 0"),
        (_source_log([], session=2**62, count=5), r"1: header session 4611686018427387904 of 5 pairs: pair indices "
                                                  r"23058430092136939521\.\.23058430092136939525 are not all in "
                                                  r"1\.\.2\*\*63 - 1"),
        (_source_log([1, 2]), "4: trailer .* does not close 2 events of a session of 3"),
        (_source_log([1, 2, 3], status="done"), "5: trailer .* does not close 3 events of a session of 3"),
        (_source_log([1, 2, 3], detail=None), "5: trailer .* does not close 3 events of a session of 3"),
    ], ids=["lambda-1.5", "nan-t", "minus-inf-lambda", "gap", "other-session", "past-count", "negative-seed",
            "session-range", "complete-short", "status", "detail"])
    def test_log_the_loader_would_refuse_is_not_written(self, tmp_path, log, match):
        path = tmp_path / "emissions.jsonl"
        path.write_bytes(_EARLIER)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line {match}; no emission log is written$"):
            write_emission_log(log, path)
        assert path.read_bytes() == _EARLIER

    @settings(max_examples=300, deadline=None)
    @given(hst.data())
    def test_writer_refuses_or_the_log_loads_back_the_same_events(self, tmp_path_factory, data):
        draw = data.draw
        seed, session, count = (draw(hst.integers(-1, 3) | hst.just(0)) for _ in range(3))
        size = draw(hst.integers(0, max(count, 0) + 1), label="size")
        first = max(session, 0) * count + 1
        n = mostly(draw, list(range(first, first + size)), hst.sampled_from(EDGE_INTS))
        floats = hst.floats(0, 1, exclude_max=True)
        lam, t = (mostly(draw, draw(hst.lists(floats, min_size=size, max_size=size)), hst.sampled_from(EDGE_FLOATS))
                  for _ in range(2))
        if size and draw(hst.integers(0, 9)) == 0:  # one column an event short
            draw(hst.sampled_from([n, lam, t])).pop()
        status = draw(hst.sampled_from(["complete", "partial", "done"]))
        path = tmp_path_factory.mktemp("log") / "emissions.jsonl"
        path.write_bytes(_EARLIER)
        try:  # a PairStream refuses unequal lengths and a pair index that does not rise
            write_emission_log(_source_log(n, lam, t, count, session, seed=seed, status=status), path)
        except ValueError:
            assert path.read_bytes() == _EARLIER
            return
        back = load_emission_log(path)
        assert (back.seed, back.session_index, back.count, back.status, back.detail) == (seed, session, count,
                                                                                         status, "")
        e = back.emissions
        assert [e.n.tolist(), e.lam.view(np.uint64).tolist(), e.t.view(np.uint64).tolist()] == [
            n, np.array(lam).view(np.uint64).tolist(), np.array(t).view(np.uint64).tolist()]

    def test_complete_trailer_must_close_the_whole_session(self, tmp_path):
        _, path = _emission_log(tmp_path, session=0)
        _edit_line(path, 1, count=4)
        with pytest.raises(ValueError, match="line 5: trailer .* of a session of 4"):
            load_emission_log(path)
        _edit_line(path, 5, status="partial")  # three of four sent
        assert len(load_emission_log(path).emissions) == 3

    def test_text_after_the_header_object_is_refused(self, tmp_path):
        _, path = _emission_log(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0][:-1] + ' trailing garbage {"x":1}\n' + "".join(lines[1:]))
        with pytest.raises(ValueError, match=r"line 1: text after the object: ' trailing garbage"):
            load_emission_log(path)

    @pytest.mark.parametrize("at", [2, 6])
    def test_line_that_is_not_utf8_is_refused(self, tmp_path, at):
        # A data line, or a line after the trailer, with a byte no UTF-8 text holds.
        _, path = _emission_log(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:at - 1] + [b'{"\xff":1}\n'] + lines[at - 1:]))
        with pytest.raises(ValueError, match=f"emission-log {path} line {at}: not UTF-8 text: .* 0xff"):
            load_emission_log(path)

    def test_line_after_the_trailer_is_refused(self, tmp_path):
        _, path = _emission_log(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[-2:-1]))
        with pytest.raises(ValueError, match="line 6: a line after the trailer"):
            load_emission_log(path)


# ---------------------------------------------------------------------------
# Live runs


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("live")
    key_path = tmp / "key.json"
    st.write_key_file(key_path, RAD3)
    emission_log = tmp / "emissions.jsonl"
    results = run_live(seed=42, count=800, key=RAD3, right_setting=B60, key_path=key_path,
                       emission_log=emission_log,
                       report_logs=(tmp / "L.jsonl", tmp / "R.jsonl"))
    results["emission_log_path"] = emission_log
    results["report_log_paths"] = (tmp / "L.jsonl", tmp / "R.jsonl")
    return results


class TestLiveRun:
    def test_distributed_equals_in_process_bitwise(self, live):
        spec = ExperimentSpec(setting_pairs=((CANONICAL_LEFT, B60),), pairs_per_setting=800,
                              seed=42, key=RAD3)
        local = run_experiment(spec)
        live_lines = list(dataset_record_lines(live["collator"].dataset))
        local_lines = list(dataset_record_lines(local))
        assert live_lines == local_lines

    def test_both_stations_received_identical_triples(self, live):
        log = load_emission_log(live["emission_log_path"])
        assert log.emissions.n.tolist() == list(range(1, 801))
        assert log.status == "complete"
        # reports from both wings cover exactly the emitted pairs
        for side in ("L", "R"):
            assert [r.n for r in live[side].reports] == log.emissions.n.tolist()

    def test_key_digests_agree_at_the_collator(self, live):
        digests = live["collator"].digests
        assert digests["L"] == digests["R"] == RAD3.digest_hex()

    def test_station_topology_is_source_and_collator_only(self, live):
        for side in ("L", "R"):
            kinds = [c[0] for c in live[side].connections]
            assert kinds == ["source", "collator"]

    def test_replaying_the_emission_log_reproduces_the_outcomes(self, live):
        # One measure_pairs call over the whole logged stream: a match also
        # shows that measuring batch by batch changed no outcome.
        log = load_emission_log(live["emission_log_path"])
        left, right = measure_pairs(B60, log.emissions, RAD3)
        assert left.tolist() == [r.outcome for r in live["L"].reports]
        assert right.tolist() == [r.outcome for r in live["R"].reports]

    def test_report_logs_load_as_batches(self, live):
        lp, rp = live["report_log_paths"]
        lb, rb = load_report_log(lp), load_report_log(rp)
        assert lb.station == "L" and rb.station == "R"
        assert len(lb) == len(rb) == 800
        res = st.collate(lb, rb, strategy="pair-id")
        assert len(res.dataset.groups[0]) == 800

    def test_session_without_a_batch_leaves_report_logs_that_load_empty(self, tmp_path):
        key_path, paths = tmp_path / "key.json", (tmp_path / "L.jsonl", tmp_path / "R.jsonl")
        st.write_key_file(key_path, RAD3)
        with pytest.raises(AssertionError, match="one or both stations sent no reports"):
            run_live(1, 0, RAD3, B60, key_path, report_logs=paths)
        for path, station, setting in zip(paths, "LR", (CANONICAL_LEFT, B60)):
            batch = load_report_log(path)
            assert (batch.station, batch.setting, len(batch)) == (station, setting, 0)

    def test_every_frame_a_role_sends_passes_the_receiving_roles_check(self, tmp_path, monkeypatch):
        sent, send = [], st.send_frame

        def recording(sock, obj, columns=None):
            sent.append((sock, dict(obj, **(columns or {}))))  # the message as ``recv_frame`` gives it back
            send(sock, obj, columns)

        monkeypatch.setattr(st, "send_frame", recording)
        key_path = tmp_path / "key.json"
        st.write_key_file(key_path, RAD3)
        run_live(5, 2 * BLOCK_PAIRS + 3, RAD3, B60, key_path)
        last_n, kinds = {}, []
        for sock, msg in sent:
            if msg["type"] == "hello":
                kinds.append(st.validate_message(msg, st.SOURCE_RECEIVABLE_SCHEMAS))
            elif msg["type"] in ("emit_batch", "end") and "station" not in msg:
                kinds.append(st.validate_message(msg, st.STATION_RECEIVABLE_SCHEMAS))
                if msg["type"] == "emit_batch":  # the receiving station's own check, from its last pair index
                    n, _, _ = st._columns("emit_batch", msg, formats.EMISSION_COLUMNS, after=last_n.get(sock, 0))
                    last_n[sock] = int(n[-1])
            else:
                kinds.append(st.validate_message(msg, st.COLLATOR_RECEIVABLE_SCHEMAS))
                if msg["type"] == "report_batch":
                    assert len(st._report_columns(msg)[0]) in (BLOCK_PAIRS, 3)
        assert sorted(kinds) == sorted(["hello", "key_digest", "end", "end"] * 2 + ["emit_batch", "report_batch"] * 6)
        assert sorted(last_n.values()) == [2 * BLOCK_PAIRS + 3] * 2

    def test_anticorrelation_holds_across_the_wire_at_equal_settings(self, tmp_path):
        key_path = tmp_path / "key.json"
        st.write_key_file(key_path, RAD3)
        results = run_live(seed=1, count=100, key=RAD3, right_setting=Setting(1, 0), key_path=key_path)
        grp = results["collator"].dataset.groups[0]
        assert np.all(grp.left * grp.right == -1)

    def test_second_session_occupies_a_disjoint_index_range(self, tmp_path):
        key_path = tmp_path / "key.json"
        st.write_key_file(key_path, RAD3)
        first = run_live(seed=5, count=50, key=RAD3, right_setting=B60, key_path=key_path,
                         session_index=0)
        second = run_live(seed=5, count=50, key=RAD3, right_setting=Setting(-0.5, math.sqrt(3) / 2),
                          key_path=key_path, session_index=1)
        n1 = first["collator"].dataset.groups[0].pair_index
        n2 = second["collator"].dataset.groups[0].pair_index
        assert n1.max() < n2.min()
        assert set(n1) & set(n2) == set()

    def test_key_mismatch_refuses_collation(self, tmp_path):
        key_a = tmp_path / "a.json"
        key_b = tmp_path / "b.json"
        st.write_key_file(key_a, RAD3)
        st.write_key_file(key_b, GaugeKey(mode=MODE_RADEMACHER, j=5))
        col_sock = st.make_server_socket()
        col_port = col_sock.getsockname()[1]

        def fake_station(key_path, station):
            key = st.load_key_file(key_path)
            conn = socket.create_connection(("127.0.0.1", col_port), timeout=10)
            st.send_frame(conn, {"v": V, "type": "key_digest", "station": station,
                                 "digest_hex": key.digest_hex()})
            time.sleep(0.2)
            conn.close()

        threads = [threading.Thread(target=fake_station, args=(key_a, "L")),
                   threading.Thread(target=fake_station, args=(key_b, "R"))]
        for t in threads:
            t.start()
        with pytest.raises(st.CollationError, match="digests differ"):
            st.collator_serve(sock=col_sock, timeout=10)
        for t in threads:
            t.join()


class TestNoPerReportObjects:
    """A station keeps its reports as columns: building one StationReport on the live path fails the run."""

    @pytest.fixture(autouse=True)
    def _refuse_rows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a StationReport was built")

        monkeypatch.setattr(formats, "StationReport", refuse)

    def _same_columns(self, batch, loaded):
        return all(np.array_equal(getattr(batch, c), getattr(loaded, c)) for c in ("n", "outcome", "clock_ns"))

    def test_live_session_logs_columns(self, tmp_path, monkeypatch):
        ends, frames, send = {}, {"L": 0, "R": 0}, st.send_frame

        def send_recording_ends(sock, obj, columns=None):
            if obj["type"] == "end" and "station" in obj:
                ends[obj["station"]] = obj["count"]
            if obj["type"] == "report_batch":
                frames[obj["station"]] += 1
            send(sock, obj, columns)

        monkeypatch.setattr(st, "send_frame", send_recording_ends)
        key_path, paths = tmp_path / "key.json", (tmp_path / "L.jsonl", tmp_path / "R.jsonl")
        st.write_key_file(key_path, RAD3)
        count = 2 * BLOCK_PAIRS + 7
        results = run_live(seed=3, count=count, key=RAD3, right_setting=B60, key_path=key_path, report_logs=paths)
        grp = results["collator"].dataset.groups[0]
        for side, outcome, path in (("L", grp.left, paths[0]), ("R", grp.right, paths[1])):
            reports = results[side].reports
            assert np.array_equal(reports.n, results["source"].emissions.n)
            assert np.array_equal(reports.outcome, outcome) and reports.outcome.dtype == np.int8
            assert len(reports) == ends[side] == count
            assert frames[side] == math.ceil(count / BLOCK_PAIRS)  # one report frame per block the source sends
            assert len(np.unique(reports.clock_ns)) <= 3  # one stamp per batch
            assert self._same_columns(reports, load_report_log(path))

    def test_session_with_a_rejected_batch_writes_a_loadable_log(self, tmp_path):
        key_path, log_path = tmp_path / "key.json", tmp_path / "R.jsonl"
        st.write_key_file(key_path, RAD3)
        src_sock, sink_sock = st.make_server_socket(), st.make_server_socket()

        def fake_source():
            conn, _ = src_sock.accept()
            st.recv_frame(conn)  # hello
            for n in ([1, 2], [2, 3], [3, 4]):  # the second repeats pair index 2
                _send(conn, _emit_batch(n))
            st.send_frame(conn, {"v": V, "type": "end", "count": 6})
            conn.close()

        def sink():
            conn, _ = sink_sock.accept()
            while st.recv_frame(conn) is not None:
                pass
            conn.close()

        threads = [threading.Thread(target=fake_source), threading.Thread(target=sink)]
        for t in threads:
            t.start()
        try:
            log = st.station_run("R", B60, key_path, ("127.0.0.1", src_sock.getsockname()[1]),
                                 ("127.0.0.1", sink_sock.getsockname()[1]), log_path=log_path, timeout=15)
        finally:
            for t in threads:
                t.join(timeout=15)
                assert not t.is_alive()
            src_sock.close()
            sink_sock.close()
        assert log.rejected == ["emit_batch rejected at position 0: non-increasing pair index 2 after 2"]
        assert log.reports.n.tolist() == [1, 2, 3, 4]
        loaded = load_report_log(log_path)
        assert (loaded.station, loaded.setting) == ("R", B60) and self._same_columns(log.reports, loaded)


class TestStationRejection:
    def test_malformed_emits_are_rejected_and_logged(self, tmp_path):
        key_path = tmp_path / "key.json"
        st.write_key_file(key_path, RAD3)
        src_sock = st.make_server_socket()
        src_port = src_sock.getsockname()[1]
        sink_sock = st.make_server_socket()
        sink_port = sink_sock.getsockname()[1]
        sunk = []

        def fake_source():
            conn, _ = src_sock.accept()
            st.recv_frame(conn)  # hello
            _send(conn, _emit_batch([1, 2]))
            _send(conn, dict(_emit_batch([3]), other_setting=[0.0, 1.0]))  # schema violation
            _send(conn, _emit_batch([3, 4], lam=[0.5, 1.5]))  # bad range: the whole batch goes
            st.send_frame(conn, {"v": 2, "type": "emit_batch", "n": [3], "lambda": [0.5], "t": [0.25]})
            _send(conn, _emit_batch([3]))
            st.send_frame(conn, {"v": V, "type": "end", "count": 4})
            conn.close()
            src_sock.close()

        def sink():
            conn, _ = sink_sock.accept()
            while True:
                msg = st.recv_frame(conn)
                if msg is None:
                    break
                sunk.append(msg)
                if msg.get("type") == "end":
                    break
            conn.close()
            sink_sock.close()

        threads = [threading.Thread(target=fake_source), threading.Thread(target=sink)]
        for t in threads:
            t.start()
        log = st.station_run("R", B60, key_path, ("127.0.0.1", src_port), ("127.0.0.1", sink_port),
                             timeout=15)
        for t in threads:
            t.join(timeout=15)
        assert [r.n for r in log.reports] == [1, 2, 3]
        assert [m["n"] for m in sunk if m["type"] == "report_batch"] == [_emit_batch(n)["n"] for n in ([1, 2], [3])]
        assert len(log.rejected) == 3
        assert log.rejected[1:] == ["emit_batch rejected at position 1: lambda 1.5 is not in [0, 1)",
                                    "unsupported wire version 2"]

    def test_non_increasing_pair_indices_are_rejected_and_logged(self, tmp_path):
        key_path = tmp_path / "key.json"
        st.write_key_file(key_path, RAD3)
        src_sock = st.make_server_socket()
        sink_sock = st.make_server_socket()
        sunk = []

        def fake_source():
            conn, _ = src_sock.accept()
            st.recv_frame(conn)  # hello
            for n in ([1, 2], [2, 5], [4, 3], [3]):  # a repeat across batches, then a step back within one
                _send(conn, _emit_batch(n))
            st.send_frame(conn, {"v": V, "type": "end", "count": 5})
            conn.close()
            src_sock.close()

        def sink():
            conn, _ = sink_sock.accept()
            while (msg := st.recv_frame(conn)) is not None:
                sunk.append(msg)
            conn.close()
            sink_sock.close()

        threads = [threading.Thread(target=fake_source), threading.Thread(target=sink)]
        for t in threads:
            t.start()
        log = st.station_run("L", CANONICAL_LEFT, key_path, ("127.0.0.1", src_sock.getsockname()[1]),
                             ("127.0.0.1", sink_sock.getsockname()[1]), timeout=15)
        for t in threads:
            t.join(timeout=15)
            assert not t.is_alive()
        assert [r.n for r in log.reports] == [1, 2, 3]
        assert [m["n"] for m in sunk if m["type"] == "report_batch"] == [_emit_batch(n)["n"] for n in ([1, 2], [3])]
        assert sunk[-1] == {"v": V, "type": "end", "station": "L", "count": 3}
        assert log.rejected == ["emit_batch rejected at position 0: non-increasing pair index 2 after 2",
                                "emit_batch rejected at position 1: non-increasing pair index 3 after 4"]

    def test_silent_source_is_named_within_the_timeout(self, tmp_path):
        key_path = tmp_path / "key.json"
        st.write_key_file(key_path, RAD3)
        src_sock, sink_sock = st.make_server_socket(), st.make_server_socket()

        def silent_source():  # takes the hello, then sends nothing until the station hangs up
            conn, _ = src_sock.accept()
            st.recv_frame(conn)
            conn.recv(1)
            conn.close()

        def sink():
            conn, _ = sink_sock.accept()
            while st.recv_frame(conn) is not None:
                pass
            conn.close()

        threads = [threading.Thread(target=silent_source), threading.Thread(target=sink)]
        for t in threads:
            t.start()
        started = time.monotonic()
        try:
            with pytest.raises(st.ProtocolError, match=r"^no frame in 0\.3 s from the source$"):
                st.station_run("L", CANONICAL_LEFT, key_path, ("127.0.0.1", src_sock.getsockname()[1]),
                               ("127.0.0.1", sink_sock.getsockname()[1]), timeout=0.3)
            assert time.monotonic() - started < 2 * 0.3
        finally:
            for t in threads:
                t.join(timeout=15)
                assert not t.is_alive()
            src_sock.close()
            sink_sock.close()

    def test_missing_key_file_refuses_to_start(self, tmp_path):
        with pytest.raises(st.KeyFileError):
            st.station_run("L", CANONICAL_LEFT, tmp_path / "no-key.json",
                           ("127.0.0.1", 1), ("127.0.0.1", 1))


class TestSourceEdgeCases:
    def _fake_station(self, port, station, collected, close_early=False):
        conn = socket.create_connection(("127.0.0.1", port), timeout=10)
        st.send_frame(conn, {"v": V, "type": "hello", "station": station})
        if close_early:
            time.sleep(0.05)
            conn.close()
            return
        while True:
            msg = st.recv_frame(conn)
            if msg is None or msg.get("type") == "end":
                break
            collected.append(msg)
        conn.close()

    def test_zero_count_is_a_clean_shutdown(self, tmp_path):
        sock = st.make_server_socket()
        port = sock.getsockname()[1]
        seen_l, seen_r = [], []
        threads = [threading.Thread(target=self._fake_station, args=(port, "L", seen_l)),
                   threading.Thread(target=self._fake_station, args=(port, "R", seen_r))]
        for t in threads:
            t.start()
        log = st.source_run(seed=1, count=0, sock=sock, log_path=tmp_path / "log.jsonl")
        for t in threads:
            t.join(timeout=15)
        assert log.status == "complete" and len(log.emissions) == 0
        assert seen_l == [] and seen_r == []
        assert len(load_emission_log(tmp_path / "log.jsonl").emissions) == 0

    def test_silent_connection_does_not_abort_the_source(self):
        sock = st.make_server_socket()
        port = sock.getsockname()[1]
        # connects first and never says hello; the source must drop it and go on
        silent = socket.create_connection(("127.0.0.1", port), timeout=10)
        seen_l, seen_r = [], []
        threads = [threading.Thread(target=self._fake_station, args=(port, "L", seen_l)),
                   threading.Thread(target=self._fake_station, args=(port, "R", seen_r))]
        for t in threads:
            t.start()
        try:
            log = st.source_run(seed=1, count=5, sock=sock, timeout=1.0)
        finally:
            silent.close()
        for t in threads:
            t.join(timeout=15)
        assert log.status == "complete" and len(log.emissions) == 5
        assert seen_l == seen_r == [_emit_batch([1, 2, 3, 4, 5], log.emissions.lam.tolist(),
                                                log.emissions.t.tolist())]

    @pytest.mark.parametrize("args", [dict(seed=-1), dict(session_index=-1), dict(count=-1)], ids=repr)
    def test_negative_seed_session_or_count_is_refused(self, args):
        # The emission log's loader refuses them, so the source never writes them.
        sock = st.make_server_socket()
        with pytest.raises(ValueError, match="seed, session_index and count must be >= 0"):
            st.source_run(**dict(dict(seed=1, count=5, sock=sock, timeout=0.2), **args))
        assert sock.fileno() == -1  # refused, the source still closes its listening socket

    @pytest.mark.parametrize("session_index,count", [(2**63 // 5, 5), (0, 2**63), (2**62, 2)], ids=repr)
    def test_session_past_the_last_int64_pair_index_is_refused(self, session_index, count):
        # Its indices would wrap in int64 or overflow the draw once both stations connect.
        sock = st.make_server_socket()
        with pytest.raises(ValueError, match=rf"^pair indices {session_index * count + 1}\.\."
                                             rf"{(session_index + 1) * count} are not all in 1\.\.2\*\*63 - 1$"):
            st.source_run(seed=1, count=count, sock=sock, session_index=session_index, timeout=0.2)
        assert sock.fileno() == -1

    def test_no_station_is_an_accept_timeout(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with pytest.raises(TimeoutError):
            st.source_run(seed=1, count=5, sock=st.make_server_socket(), log_path=path, timeout=0.2)
        log = load_emission_log(path)  # a log the source writes, its loader takes
        assert (log.status, len(log.emissions)) == ("partial", 0) and log.detail

    def test_station_disconnect_marks_the_log_partial(self):
        sock = st.make_server_socket()
        port = sock.getsockname()[1]
        seen_r = []
        # L has hung up before R connects, so the source cannot send every
        # batch before it sees L gone, however fast it encodes.
        threads = [
            threading.Thread(target=self._fake_station, args=(port, "L", []), kwargs={"close_early": True}),
            threading.Thread(target=self._fake_station, args=(port, "R", seen_r)),
        ]
        threads[0].start()
        threads[0].join(timeout=30)
        threads[1].start()
        log = st.source_run(seed=1, count=50_000, sock=sock, timeout=30)
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert log.status == "partial"
        # Whole batches only, and none after the one L refused (it may be the first).
        assert len(log.emissions) < 50_000 and len(log.emissions) % BLOCK_PAIRS == 0
        assert log.detail.startswith(f"station disconnected after {len(log.emissions)} emissions")


# ---------------------------------------------------------------------------
# Collation and faults


def _emissions(count):
    return PairStream(n=np.arange(1, count + 1), lam=np.full(count, 0.1), t=np.full(count, 0.1))


def _group(n=20_000, seed=7, right=B60, key=RAD3):
    spec = ExperimentSpec(setting_pairs=((CANONICAL_LEFT, right),), pairs_per_setting=n,
                          seed=seed, key=key)
    return run_experiment(spec).groups[0]


class TestCollate:
    def test_no_faults_strategies_agree(self):
        grp = _group(n=2_000)
        lb, rb = st.station_batches(grp)
        d1 = st.collate(lb, rb, strategy="pair-id").dataset
        d2 = st.collate(lb, rb, strategy="sequence-order").dataset
        assert list(dataset_record_lines(d1)) == list(dataset_record_lines(d2))

    def test_sequence_order_drop_destroys_the_tail(self):
        n = 20_000
        grp = _group(n=n)
        lb, rb = st.station_batches(grp)
        lb_faulty = st.inject_fault("drop", n // 2, lb)
        res = st.collate(lb_faulty, rb, strategy="sequence-order")
        grp_out = res.dataset.groups[0]
        prods = grp_out.products()
        head, tail = prods[: n // 2], prods[n // 2 :]
        assert np.mean(head) == pytest.approx(-0.5, abs=4.5 / math.sqrt(len(head)))
        assert abs(float(np.mean(tail))) < 4.5 / math.sqrt(len(tail))  # decorrelated

    def test_pair_id_drop_only_flags_one_pair(self):
        n = 20_000
        grp = _group(n=n)
        lb, rb = st.station_batches(grp)
        lb_faulty = st.inject_fault("drop", n // 2, lb)
        res = st.collate(lb_faulty, rb, strategy="pair-id")
        assert len(res.incomplete) == 1
        assert res.incomplete[0] == int(grp.pair_index[n // 2])
        est = estimate_expectation(res.dataset.groups[0])
        assert est.value == pytest.approx(-0.5, abs=4.5 / math.sqrt(n))

    def test_duplicate_is_a_hard_error_under_pair_id(self):
        grp = _group(n=100)
        lb, rb = st.station_batches(grp)
        lb_dup = st.inject_fault("duplicate", 10, lb)
        with pytest.raises(st.CollationError, match="duplicate pair index"):
            st.collate(lb_dup, rb, strategy="pair-id")

    def test_sequence_order_refuses_a_repeated_l_pair_index(self):
        lb, rb = st.station_batches(_group(n=100))
        with pytest.raises(st.CollationError, match="^duplicate pair index 4 in station L stream$"):
            st.collate(st.inject_fault("duplicate", 3, lb), rb, strategy="sequence-order")
        # R's repeat misaligns the rows after it, and nothing in the reports can show it.
        misaligned = st.collate(lb, st.inject_fault("duplicate", 3, rb), strategy="sequence-order").dataset.groups[0]
        assert np.array_equal(misaligned.pair_index, lb.n) and misaligned.right[4] == rb.outcome[3]

    def test_reorder_moves_sequence_but_not_pair_id(self):
        grp = _group(n=1_000)
        lb, rb = st.station_batches(grp)
        lb_re = st.inject_fault("reorder", 100, lb)
        by_id = st.collate(lb_re, rb, strategy="pair-id").dataset
        by_id_clean = st.collate(lb, rb, strategy="pair-id").dataset
        assert list(dataset_record_lines(by_id)) == list(dataset_record_lines(by_id_clean))
        by_seq = st.collate(lb_re, rb, strategy="sequence-order").dataset
        by_seq_clean = st.collate(lb, rb, strategy="sequence-order").dataset
        assert list(dataset_record_lines(by_seq)) != list(dataset_record_lines(by_seq_clean))

    def test_emission_log_accounts_for_fully_lost_pairs(self):
        grp = _group(n=50)
        lb, rb = st.station_batches(grp)
        log = SourceLog(seed=0, session_index=0, count=51, emissions=_emissions(51))  # pair 51 lost
        res = st.collate(lb, rb, strategy="pair-id", emission_log=log)
        assert res.incomplete == (51,)

    def test_emission_log_rejects_never_emitted_reports(self):
        grp = _group(n=50)
        lb, rb = st.station_batches(grp)
        log = SourceLog(seed=0, session_index=0, count=10, emissions=_emissions(10))
        with pytest.raises(st.CollationError, match="never-emitted"):
            st.collate(lb, rb, strategy="pair-id", emission_log=log)

    def test_sequence_order_refuses_an_emission_log(self):
        # Pairs 1-2 emitted, 1-3 reported: pair-id refuses pair 3, and
        # sequence-order, which cannot see it, must not pair it silently.
        lb, rb = st.station_batches(_group(n=3))
        log = SourceLog(seed=0, session_index=0, count=2, emissions=_emissions(2))
        with pytest.raises(st.CollationError, match="never-emitted pair index 3"):
            st.collate(lb, rb, strategy="pair-id", emission_log=log)
        with pytest.raises(st.CollationError, match="sequence-order matching cannot account for an emission log"):
            st.collate(lb, rb, strategy="sequence-order", emission_log=log)

    def test_stray_report_from_one_station_is_an_error(self):
        grp = _group(n=50)
        lb, rb = st.station_batches(grp)
        stray = ReportBatch(station="L", setting=lb.setting, n=np.append(lb.n, 99), outcome=np.append(lb.outcome, 1),
                            clock_ns=np.append(lb.clock_ns, 0))
        log = SourceLog(seed=0, session_index=0, count=50, emissions=_emissions(50))
        with pytest.raises(st.CollationError, match="never-emitted pair index 99"):
            st.collate(stray, rb, strategy="pair-id", emission_log=log)

    @settings(max_examples=300, deadline=None)
    @given(hst.lists(hst.integers(1, 40), max_size=30), hst.lists(hst.integers(1, 40), max_size=30),
           hst.none() | hst.sets(hst.integers(1, 40)))
    def test_pair_id_join_equals_the_join_of_sets(self, ln, rn, emitted):
        # Each wing's outcome is a function of the pair index, so a joined row shows which reports it took.
        def left_outcome(n):
            return np.where(n % 3 == 0, 1, -1).astype(np.int8)

        def right_outcome(n):
            return np.where(n % 2 == 0, 1, -1).astype(np.int8)

        lb, rb = (ReportBatch(station, CANONICAL_LEFT, n, outcome(n), 0 * n) for station, n, outcome in (
            ("L", np.array(ln, dtype=np.int64), left_outcome), ("R", np.array(rn, dtype=np.int64), right_outcome)))
        log = None
        if emitted is not None:
            e = np.array(sorted(emitted), dtype=np.int64)
            log = SourceLog(seed=0, session_index=0, count=len(e), emissions=PairStream(n=e, lam=e * 0.0, t=e * 0.0))
        lset, rset, error = set(ln), set(rn), None
        for station, ns in (("R", rn), ("L", ln)):  # L's is the error named, if both repeat
            if repeated := sorted(n for n in set(ns) if ns.count(n) > 1):
                error = f"duplicate pair index {repeated[0]} in station {station} stream"
        if error is None and emitted is not None and (stray := (lset | rset) - emitted):
            error = f"report for never-emitted pair index {min(stray)}"
        if error is not None:
            with pytest.raises(st.CollationError, match=f"^{error}$"):
                st.collate(lb, rb, emission_log=log)
            return
        result = st.collate(lb, rb, emission_log=log)
        group, joined = result.dataset.groups[0], np.array(sorted(lset & rset), dtype=np.int64)
        assert np.array_equal(group.pair_index, joined)
        assert np.array_equal(group.left, left_outcome(joined)) and np.array_equal(group.right, right_outcome(joined))
        assert result.incomplete == tuple(sorted((lset ^ rset) | ((emitted or set()) - lset - rset)))

    @settings(max_examples=300, deadline=None)
    @given(hst.lists(hst.integers(1, 40), max_size=30), hst.lists(hst.integers(1, 40), max_size=30))
    def test_sequence_order_join_pairs_positions(self, ln, rn):
        # Row i joins the i-th report of each stream, up to the shorter's length, on L's pair index.
        lb, rb = (ReportBatch(station, CANONICAL_LEFT, np.array(n, dtype=np.int64), np.array(out, dtype=np.int8),
                              np.zeros(len(n), np.int64))
                  for station, n, out in (("L", ln, [1 - 2 * (i % 2) for i in range(len(ln))]),
                                          ("R", rn, [1 - 2 * (i % 3 == 0) for i in range(len(rn))])))
        m = min(len(ln), len(rn))
        repeated = sorted(n for n in set(ln[:m]) if ln[:m].count(n) > 1)
        if m == 0 or repeated:
            error = "nothing to collate" if m == 0 else f"duplicate pair index {repeated[0]} in station L stream"
            with pytest.raises(st.CollationError, match=f"^{error}$"):
                st.collate(lb, rb, strategy="sequence-order")
            return
        result = st.collate(lb, rb, strategy="sequence-order")
        group = result.dataset.groups[0]
        assert group.pair_index.tolist() == ln[:m] and result.incomplete == ()
        assert np.array_equal(group.left, lb.outcome[:m]) and np.array_equal(group.right, rb.outcome[:m])

    def test_station_roles_enforced(self):
        grp = _group(n=10)
        lb, rb = st.station_batches(grp)
        with pytest.raises(st.CollationError, match="L stream"):
            st.collate(rb, lb)

    def test_unknown_strategy_rejected(self):
        grp = _group(n=10)
        lb, rb = st.station_batches(grp)
        with pytest.raises(st.CollationError, match="strategy"):
            st.collate(lb, rb, strategy="hope")


class TestInjectFault:
    def test_drop_shortens_stream(self):
        grp = _group(n=20)
        lb, _ = st.station_batches(grp)
        assert len(st.inject_fault("drop", 3, lb)) == 19

    def test_duplicate_inserts_copy(self):
        grp = _group(n=20)
        lb, _ = st.station_batches(grp)
        out = st.inject_fault("duplicate", 3, lb)
        assert len(out) == 21
        assert out.n[3] == out.n[4]

    def test_reorder_swaps_neighbors(self):
        grp = _group(n=20)
        lb, _ = st.station_batches(grp)
        out = st.inject_fault("reorder", 5, lb)
        assert out.n[5] == lb.n[6] and out.n[6] == lb.n[5]

    @pytest.mark.parametrize("kind,rows", [("drop", [0, 1, 3]), ("duplicate", [0, 1, 2, 2, 3]),
                                           ("reorder", [0, 1, 3, 2])])
    def test_clocks_move_with_their_reports(self, kind, rows):
        lb, _ = st.station_batches(_group(n=4))
        lb = ReportBatch("L", lb.setting, lb.n, lb.outcome, 10 * lb.n)
        out = st.inject_fault(kind, 2, lb)
        assert out.n.tolist() == lb.n[rows].tolist() and out.clock_ns.tolist() == lb.clock_ns[rows].tolist()

    def test_position_out_of_range(self):
        grp = _group(n=20)
        lb, _ = st.station_batches(grp)
        with pytest.raises(ValueError, match="out of range"):
            st.inject_fault("drop", 20, lb)
        with pytest.raises(ValueError, match="out of range"):
            st.inject_fault("reorder", 19, lb)
        with pytest.raises(ValueError):
            st.inject_fault("smudge", 0, lb)


def _report_frame(station, indices, **fields):
    """A packed report_batch message of +1 outcomes at the [1, 0] setting; ``fields`` replace any of its fields."""
    return _packed(dict({"v": V, "type": "report_batch", "station": station, "setting": [1.0, 0.0],
                         "n": list(indices), "outcome": [1] * len(indices), "clock_ns": 7}, **fields))


def _digest_frame(station, digest=RAD3.digest_hex()):
    return {"v": V, "type": "key_digest", "station": station, "digest_hex": digest}


def _trickle(conn, station):
    """Send a report_batch frame's length prefix whole, then its body a byte every 0.1 s until the peer hangs up."""
    frame = _wire(_report_frame(station, [1]))
    conn.sendall(frame[:4])
    with contextlib.suppress(OSError):
        for i in range(4, len(frame)):
            time.sleep(0.1)
            conn.sendall(frame[i:i + 1])


def _await_hangup(conn, station):
    """A silent station: sends nothing more and returns once the collator closes the connection."""
    conn.recv(1)


class _FakeStations:
    def _serve(self, senders, timeout, first=None):
        """Run collator_serve against fake stations ``senders[station](conn)``.

        Each station first sends ``first[station]`` in place of its key
        digest frame, or nothing if that is None. Sets ``served_at`` and
        ``elapsed``, the seconds collator_serve ran.
        """
        col_sock = st.make_server_socket()
        port = col_sock.getsockname()[1]
        first = first or {}

        def fake_station(station):
            conn = socket.create_connection(("127.0.0.1", port), timeout=15)
            if (frame := first.get(station, _digest_frame(station))) is not None:
                _send(conn, frame)
            with contextlib.suppress(OSError):  # the collator may hang up on a refused batch
                senders[station](conn, station)
            conn.close()

        threads = [threading.Thread(target=fake_station, args=(s,)) for s in ("L", "R")]
        for t in threads:
            t.start()
        started = time.monotonic()
        try:
            return st.collator_serve(sock=col_sock, timeout=timeout)
        finally:
            self.served_at = time.monotonic()
            self.elapsed = self.served_at - started
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()

    @staticmethod
    def _send(count, claimed=None, pause=0.0, batch=1, end=True, **fields):
        """Send reports 1..count in report_batch frames of ``batch``, then an end marker unless ``end`` is false."""
        def send(conn, station):
            for lo in range(1, count + 1, batch):
                time.sleep(pause)
                _send(conn, _report_frame(station, range(lo, min(lo + batch, count + 1)), **fields))
            if end:
                st.send_frame(conn, {"v": V, "type": "end", "station": station,
                                     "count": count if claimed is None else claimed})
        return send


class TestCollatorChecks(_FakeStations):
    def test_end_count_must_match_the_reports_received(self):
        with pytest.raises(st.CollationError, match=r"station L .* 6 reports, 5 received"):
            self._serve({"L": self._send(5, claimed=6, batch=2), "R": self._send(5)}, timeout=10)

    def test_end_count_counts_reports_not_frames(self):
        result = self._serve({"L": self._send(5, batch=2), "R": self._send(5, batch=5)}, timeout=10)
        grp = result.dataset.groups[0]
        assert grp.pair_index.tolist() == [1, 2, 3, 4, 5] and result.incomplete == ()

    @pytest.mark.parametrize("fields,error,match", [
        ({"outcome": [1, 0, 1]}, st.SchemaError, r"report_batch rejected at position 1: outcome 0 is not -1 or \+1"),
        ({"outcome": [1, -128, 1]}, st.SchemaError, "report_batch rejected at position 1: outcome -128 is not"),
        ({"n": [0, 2, 3]}, st.SchemaError, "report_batch rejected at position 0: pair index 0"),
        ({"n": [1, 2, -3]}, st.SchemaError, "report_batch rejected at position 2: pair index -3"),
        ({"outcome": [1, 1]}, st.SchemaError,
         r"report_batch rejected at position 2: columns \['n', 'outcome'\] of lengths \[3, 2\]"),
        ({"n": [], "outcome": []}, st.SchemaError, "report_batch rejected: an empty batch"),
        ({"outcome": 7}, st.SchemaError, "field 'outcome' of 'report_batch' is not a column"),
        ({"n": "AQAAAAAAAAA="}, st.SchemaError, "field 'n' of 'report_batch' is not a column"),
        ({"n": bytes(20)}, st.SchemaError, "report_batch rejected: column n holds 20 bytes, not whole <i8"),
        ({"clock_ns": 2**63}, st.SchemaError, "field 'clock_ns' of 'report_batch' is not a 64-bit int"),
        ({"setting": [1.0, 0.0, 0.0]}, st.SchemaError, "is not two numbers"),
        ({"setting": [1.0, "0"]}, st.SchemaError,
         r"station L report_batch setting \[1.0, '0'\] is refused: setting components must be ints or floats"),
        ({"setting": [True, 0.0]}, st.SchemaError,
         r"station L report_batch setting \[True, 0.0\] is refused: setting components must be ints or floats"),
        ({"setting": [{}, 0.0]}, st.SchemaError,
         r"station L report_batch setting \[\{\}, 0.0\] is refused: setting components must be ints or floats"),
        ({"setting": [0, 0]}, st.SchemaError, r"station L report_batch setting \[0, 0\] is refused: zero vector"),
        ({"setting": [10**400, 1.0]}, st.SchemaError, "station L report_batch setting .* is refused: int too large"),
    ], ids=repr)
    def test_bad_report_batch_is_refused(self, fields, error, match):
        with pytest.raises(error, match=match):
            self._serve({"L": self._send(3, batch=3, **fields), "R": self._send(3)}, timeout=10)

    @pytest.mark.parametrize("setting,error,match", [
        ("[1e400, 1.0]", st.SchemaError, r"^station L report_batch setting \[inf, 1.0\] is refused: setting comp"),
        ("[NaN, 1.0]", st.ProtocolError, "^undecodable frame header: .*'NaN'"),
        ("[1.0, -Infinity]", st.ProtocolError, "^undecodable frame header: .*'-Infinity'"),
    ])
    def test_first_setting_the_collator_cannot_take_is_named(self, setting, error, match):
        def send(conn, station):
            header, columns = _split(_report_frame(station, [1], setting="SETTING"))
            header["columns"] = [[name, len(col)] for name, col in columns.items()]
            head = json.dumps(header).replace('"SETTING"', setting).encode()
            conn.sendall(_frame(head, b"".join(columns.values())))

        with pytest.raises(error, match=match):
            self._serve({"L": send, "R": self._send(1)}, timeout=10)

    def test_v2_report_batch_is_refused_by_its_version(self):
        def send(conn, station):
            st.send_frame(conn, {"v": 2, "type": "report_batch", "station": station, "setting": [1.0, 0.0],
                                 "n": [1], "outcome": [1], "clock_ns": 7})

        with pytest.raises(st.SchemaError, match="^unsupported wire version 2$"):
            self._serve({"L": self._send(1), "R": send}, timeout=10)

    @pytest.mark.parametrize("first,left,error,match", [
        ({"R": _digest_frame("L")}, {}, st.SchemaError, "duplicate station 'L'"),
        ({"R": _digest_frame("X")}, {}, st.SchemaError, "unknown station 'X'"),
        ({"R": _report_frame("R", [1])}, {}, st.SchemaError, "must announce its key digest first"),
        ({}, {"end": False}, None, None),
        ({}, {"count": 0}, st.CollationError, "one or both stations sent no reports"),
    ], ids=["duplicate-station", "unknown-station", "report-before-digest", "no-end-marker", "no-reports"])
    def test_session_faults(self, first, left, error, match):
        senders = {"L": self._send(**{"count": 3, **left}), "R": self._send(3)}
        if error is None:  # end-of-stream without an end marker: the dataset is kept, marked partial
            result = self._serve(senders, timeout=0.5, first=first)
            assert result.partial and result.dataset.groups[0].pair_index.tolist() == [1, 2, 3]
            return
        with pytest.raises(error, match=match):
            self._serve(senders, timeout=0.5, first=first)

    def test_setting_change_between_batches_is_refused(self):
        def send(conn, station):
            _send(conn, _report_frame(station, [1, 2]))
            _send(conn, _report_frame(station, [3], setting=[0.5, math.sqrt(3) / 2]))
            st.send_frame(conn, {"v": V, "type": "end", "station": station, "count": 3})

        with pytest.raises(st.CollationError, match="station R .* must come from one station session"):
            self._serve({"L": self._send(3), "R": send}, timeout=10)

    def test_setting_written_differently_between_batches_is_refused(self):
        """[1, -0.0] equals [1.0, 0.0] as numbers, but a station session writes its setting one way."""
        def send(conn, station):
            _send(conn, _report_frame(station, [1, 2], setting=[1.0, 0.0]))
            _send(conn, _report_frame(station, [3], setting=[1, -0.0]))
            st.send_frame(conn, {"v": V, "type": "end", "station": station, "count": 3})

        with pytest.raises(st.CollationError, match=r"station R batch with setting \[1, -0.0\]: .* must come from "
                                                    "one station session"):
            self._serve({"L": self._send(3), "R": send}, timeout=10)

    def test_reader_alive_after_the_join_deadline_is_an_error(self):
        # Each frame arrives inside the 0.5 s receive timeout, but the whole
        # stream (about 5 s) outlasts the 4 * 0.5 s join deadline. Giving up
        # on the reader must also cut the station off: its sends start failing.
        send_r = self._send(25, pause=0.2)
        failed_at = []

        def send_until_refused(conn, station):
            try:
                send_r(conn, station)
            except OSError:
                failed_at.append(time.monotonic())

        with pytest.raises(st.ProtocolError, match="station R still running"):
            self._serve({"L": self._send(3), "R": send_until_refused}, timeout=0.5)
        assert failed_at, "station R kept sending after the collator gave up on it"
        assert failed_at[0] - self.served_at < 1.0

    @pytest.mark.parametrize("senders,first,match", [
        ({"L": _await_hangup}, {}, r"no frame in 0\.5 s from station L$"),
        ({"R": _await_hangup}, {"R": None}, r"no frame in 0\.5 s from a station without a key digest$"),
        ({"L": _FakeStations._send(640, batch=64), "R": _await_hangup}, {}, r"no frame in 0\.5 s from station R$"),
        # L keeps sending inside the timeout: R's own silence still ends the session.
        ({"L": _FakeStations._send(20, pause=0.3), "R": _await_hangup}, {}, r"^no frame in 0\.5 s from station R$"),
    ], ids=["silent-after-digest", "no-digest", "silent-rival", "silent-while-rival-sends"])
    def test_silent_station_is_named_within_the_timeout(self, senders, first, match):
        timeout = 0.5
        with pytest.raises(st.ProtocolError, match=match):
            self._serve({"L": self._send(3), "R": self._send(3), **senders}, timeout=timeout, first=first)
        assert self.elapsed < 2 * timeout

    def test_trickled_frame_is_cut_off_within_the_timeout(self):
        timeout = 0.5
        with pytest.raises(st.ProtocolError, match=r"frame still incomplete 0\.5 s after its first piece"):
            self._serve({"L": self._send(3), "R": _trickle}, timeout=timeout)
        assert self.elapsed < 2 * timeout
