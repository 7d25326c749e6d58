"""Shared test machinery: run a live four-process experiment on loopback threads."""

import threading

from eqrc.experiments import CANONICAL_LEFT
from eqrc import stations as st


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
