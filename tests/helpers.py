"""Shared test machinery: a live four-process experiment on loopback threads, int64 edge values, a drawn
column with now and then a bad value, a dataset's full text, and
per-event oracles of the outcome rule written apart from the vectorized kernel, full-length oracles of the
blocked experiment runs, a switched dataset built from emission-order columns, and oracles of the switched run
and its sort-back on int64 ids."""

import math
import struct
import threading
from fractions import Fraction

import numpy as np
from hypothesis import strategies as hst

from eqrc.experiments import CANONICAL_LEFT, RunDataset, RunGroup, rotate_to_canonical
from eqrc.formats import run_dataset_blocks
from eqrc.model import MODE_CONSTANT, MODE_RADEMACHER_RARB, Setting, derive_subseed, measure_pairs, sample_pair_stream
from eqrc import stations as st

# int64 values where a decimal rendering changes digit count or sign, and int64's two ends.
EDGE_INTS = [0, 1, -1, 9, 10, 99, 100, 10**18 - 1, 10**18, -2**63, 2**63 - 1]
#: Floats where a [0, 1) column's rule or a float's written form turns: non-finite, the interval's ends and
#: just past them, and a negative zero (in the interval, written apart from 0.0).
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 1.0, 1.5, -2**-1074, 1 - 2**-53, 0.0, -0.0]


def mostly(draw, values: list, bad) -> list:
    """``values`` with, one time in three, one of them replaced by a draw of the strategy ``bad``."""
    if values and draw(hst.integers(0, 2)) == 0:
        values[draw(hst.integers(0, len(values) - 1))] = draw(bad)
    return values


def dataset_text(ds):
    """A dataset file's full text, header line included, as the writer streams it."""
    return b"".join(run_dataset_blocks(ds)).decode("ascii")


def sign_of_sine(j, t):
    """The exact sign of sin(2^(j+1) pi t) in rational arithmetic: positive exactly where
    floor(2^(j+1) t) is even (zeros take the interval they start)."""
    return 1 if math.floor(Fraction(t) * 2 ** (j + 1)) % 2 == 0 else -1


def splitmix64_sign(seed, t):
    """+1 where the splitmix64 finalizer of bits(t) ^ seed, in Python ints masked to 64 bits, is odd."""
    mask = 2**64 - 1
    bits = int.from_bytes(struct.pack("<d", t), "little")
    z = ((bits ^ (seed & mask)) + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return 1 if z & 1 else -1


def gauge_oracle(key, t):
    """The gauge at one ``t``, from the two oracles above."""
    if key.mode == MODE_CONSTANT:
        return 1
    g = sign_of_sine(key.j, t)
    return g * splitmix64_sign(key.rarb_seed, t) if key.mode == MODE_RADEMACHER_RARB else g


def a_oracle(key, x, lam, t):
    """A(x) at one event: the gauge where lam <= (1 + x.b2)/2 in binary64, minus the gauge elsewhere."""
    g = gauge_oracle(key, t)
    return g if lam <= (1 + x.b2) / 2 else -g


def run_experiment_oracle(spec):
    """(pair_index, left, right) per group of a fixed run, each measured on its whole stream at once."""
    n = spec.pairs_per_setting
    out = []
    for i, pair in enumerate(spec.setting_pairs):
        events = sample_pair_stream(derive_subseed(spec.seed, i), n, start=i * n + 1)
        out.append((events.n, *measure_pairs(rotate_to_canonical(pair)[1], events, spec.key)))
    return out


def switched_run_oracle(spec):
    """(group_ids, pair_index, left, right) of a switched run in emission order, the ids int64: the fixed run's
    groups placed at their slots of a schedule that the schedule's generator (sub-seed -1) shuffles as int64."""
    n, k = spec.pairs_per_setting, len(spec.setting_pairs)
    schedule = np.repeat(np.arange(k, dtype=np.int64), n)
    np.random.Generator(np.random.PCG64(derive_subseed(spec.seed, -1))).shuffle(schedule)
    columns = [np.empty(k * n, np.int64), np.empty(k * n, np.int8), np.empty(k * n, np.int8)]
    for i, group in enumerate(run_experiment_oracle(spec)):
        for col, part in zip(columns, group):
            col[schedule == i] = part
    return (schedule, *columns)


def switched_dataset(pairs, ids, pair_index, left, right, spec=None):
    """The switched dataset (groups plus schedule) of these emission-order columns: the schedule is ``ids`` as
    given, and group i (``pair<i>``, with the settings of ``pairs[i]``) holds the records of id i in emission
    order. Raises the ValueError of the dataset's construction."""
    ids = np.asarray(ids)
    columns = [np.asarray(col, dtype) for col, dtype in ((pair_index, np.int64), (left, np.int8), (right, np.int8))]
    groups = tuple(RunGroup(f"pair{i}", *pair, *(col[ids == i] for col in columns)) for i, pair in enumerate(pairs))
    return RunDataset(canonical_pairs=tuple(pairs), groups=groups, schedule=ids, spec=spec)


def sort_oracle(k, ids, pair_index, left, right):
    """(pair_index, left, right) of each of k groups that ``switched_dataset`` builds of these emission-order
    columns, sorted back: the slots of its id, stably argsorted by their pair indices."""
    ids, pair_index, left, right = map(np.asarray, (ids, pair_index, left, right))
    out = []
    for i in range(k):
        slots = np.flatnonzero(ids == i)
        slots = slots[np.argsort(pair_index[slots], kind="stable")]
        out.append((pair_index[slots], left[slots], right[slots]))
    return out


def sweep_oracle(seed, n_per_step, steps, key):
    """(theta, value, std_error, n_samples) per sweep step, from whole streams and int64 products."""
    out = []
    for k in range(steps):
        theta = 2.0 * math.pi * k / steps
        left, right = measure_pairs(Setting.from_angle(theta), sample_pair_stream(derive_subseed(seed, k), n_per_step),
                                    key)
        value = int(np.sum(left.astype(np.int64) * right.astype(np.int64))) / n_per_step
        out.append((theta, value, math.sqrt(max(0.0, 1.0 - value * value) / n_per_step), n_per_step))
    return out


def run_live(seed, count, key, right_setting, key_path, match="pair-id", session_index=0,
             emission_log=None, report_logs=(None, None)):
    """Source + two stations + collator over real TCP sockets; returns all results.

    Fails, naming each role still running when its 120 s join times out:
    a hang is a bug, not a slow pass.
    """
    col_sock = st.make_server_socket()
    src_sock = st.make_server_socket()
    col_port = col_sock.getsockname()[1]
    src_port = src_sock.getsockname()[1]
    results, failures = {}, []

    def guard(name, fn, *args, **kwargs):
        try:
            results[name] = fn(*args, **kwargs)
        except Exception as exc:  # surfaced after join
            failures.append((name, exc))

    threads = [
        threading.Thread(target=guard, args=("collator", st.collator_serve),
                         kwargs=dict(sock=col_sock, match=match)),
        threading.Thread(target=guard, args=("source", st.source_run, seed, count),
                         kwargs=dict(sock=src_sock, session_index=session_index, log_path=emission_log)),
        threading.Thread(target=guard, args=("L", st.station_run, "L", CANONICAL_LEFT, key_path,
                                             ("127.0.0.1", src_port), ("127.0.0.1", col_port)),
                         kwargs=dict(log_path=report_logs[0])),
        threading.Thread(target=guard, args=("R", st.station_run, "R", right_setting, key_path,
                                             ("127.0.0.1", src_port), ("127.0.0.1", col_port)),
                         kwargs=dict(log_path=report_logs[1])),
    ]
    for t, name in zip(threads, ("collator", "source", "L", "R")):
        t.name, t.daemon = name, True  # a hung role must not keep the test process alive
        t.start()
    for t in threads:
        t.join(timeout=120)
    alive = [t.name for t in threads if t.is_alive()]
    if alive:
        raise AssertionError(f"live run hung: {alive} still running after the join deadline")
    if failures:
        raise AssertionError(f"live run failed: {failures}")
    return results
