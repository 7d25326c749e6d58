"""Pinned sha256 digests of CLI output bytes.

Each case runs one command at n=2000 for a fixed (seed, gauge) and hashes
the bytes it produces: the data lines of ``run --format jsonl`` (the
header carries a wall-clock stamp and is excluded), the ``sweep`` CSV,
the ``triples --out`` CSV, and the stdout of ``bell``, ``wigner`` and
``cyclic-demo``. Any refactor of the model, estimators or writers must
reproduce them exactly. Pair products do not depend on the gauge, so the
sweep, bell, wigner and cyclic-demo digests depend on the seed only.

The two log writers are pinned the same way: a whole emission log from
a source session served to two draining stations over loopback, and a
whole report log from a fixed run group's right wing.
"""

import contextlib
import dataclasses
import hashlib
import io
import socket
import threading
from pathlib import Path

import numpy as np
import pytest

from eqrc import stations as st
from eqrc.cli import main
from eqrc.experiments import BELL_PAIRS, CANONICAL_LEFT, ExperimentSpec, run_experiment
from eqrc.formats import write_run_dataset
from eqrc.model import GaugeKey, MODE_RADEMACHER, Setting

N = "2000"
SEEDS = (1, 42, 12345)
GAUGES = ("rademacher:j=1", "rademacher:j=3", "rademacher-rarb:j=3,seed=7")


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0
    return buf.getvalue()


def output_bytes(kind: str, seed: int, gauge: str, workdir: Path) -> bytes:
    common = ["--pairs", N, "--seed", str(seed), "--gauge", gauge]
    if kind == "run-jsonl":
        path = workdir / "ds.jsonl"
        _cli_stdout(["run", *common, "--format", "jsonl", "--out", str(path)])
        return b"".join(path.read_bytes().splitlines(keepends=True)[1:])
    if kind == "sweep":
        return _cli_stdout(["sweep", *common, "--steps", "12"]).encode()
    if kind == "triples":
        path = workdir / "triples.csv"
        _cli_stdout(["triples", *common, "--out", str(path)])
        return path.read_bytes()
    if kind == "bell":
        return _cli_stdout(["bell", *common]).encode()
    if kind == "wigner":
        return _cli_stdout(["wigner", *common, "--mode", "both"]).encode()
    raise ValueError(kind)


EXPECTED = {
    ('run-jsonl', 1, 'rademacher:j=1'): 'cce0582f1bee397b21c5bb70411ee1607584ee4cdc3c842ee6fe0917228a70e3',
    ('sweep', 1, 'rademacher:j=1'): '8eeea72205b0e89fff4d902234e90877dad0bf293d784cb42ccb21e33dabd8d3',
    ('triples', 1, 'rademacher:j=1'): '571eb0dbe93a970e449454c3c8dfadd22f04e479386ea182ecb30a17a53b0444',
    ('bell', 1, 'rademacher:j=1'): '666355556ed6ea983a9c1e5dd8f5c15bb8632f647b54d8aa7d0cc3964aab79c9',
    ('wigner', 1, 'rademacher:j=1'): '2898eabb0ce8e81151080a9c3b7d4f964e4c891798881ff5e725fdb5a41460e1',
    ('run-jsonl', 1, 'rademacher:j=3'): 'a907c2da0ea798ff3b573066bfd9316ac71dce7260198452496655c8fde4c000',
    ('sweep', 1, 'rademacher:j=3'): '8eeea72205b0e89fff4d902234e90877dad0bf293d784cb42ccb21e33dabd8d3',
    ('triples', 1, 'rademacher:j=3'): '9b990d6a68bb163d7ad70b041bb644976a02712e560a3848381f48ae8cb81fb0',
    ('bell', 1, 'rademacher:j=3'): '666355556ed6ea983a9c1e5dd8f5c15bb8632f647b54d8aa7d0cc3964aab79c9',
    ('wigner', 1, 'rademacher:j=3'): '2898eabb0ce8e81151080a9c3b7d4f964e4c891798881ff5e725fdb5a41460e1',
    ('run-jsonl', 1, 'rademacher-rarb:j=3,seed=7'): '65092b3d1bf874e7f5e333643dfaa19c9f43d4d5f84535398cc864c602f80aa0',
    ('sweep', 1, 'rademacher-rarb:j=3,seed=7'): '8eeea72205b0e89fff4d902234e90877dad0bf293d784cb42ccb21e33dabd8d3',
    ('triples', 1, 'rademacher-rarb:j=3,seed=7'): '26134223ea134aced1b0b7ff6fadda0158eebebd4dbdb09e3ff59d397dc22f30',
    ('bell', 1, 'rademacher-rarb:j=3,seed=7'): '666355556ed6ea983a9c1e5dd8f5c15bb8632f647b54d8aa7d0cc3964aab79c9',
    ('wigner', 1, 'rademacher-rarb:j=3,seed=7'): '2898eabb0ce8e81151080a9c3b7d4f964e4c891798881ff5e725fdb5a41460e1',
    ('run-jsonl', 42, 'rademacher:j=1'): '584e203e8636e4549fe1dd998a1a624aa76709942f1eee21ed17f5178a77d3f0',
    ('sweep', 42, 'rademacher:j=1'): '4e7d2aa3d010ff5071cb172484447cca66900fe08bc66989b6600fa1b4a578f8',
    ('triples', 42, 'rademacher:j=1'): '866898dccfe15ce56688fa159aedd90a4aabf6fa8161506a428fb381824649fa',
    ('bell', 42, 'rademacher:j=1'): '4b4cb3cbb9600e00bf1f861058d786d2d6a844302d8e05ef4f3c45505edcf809',
    ('wigner', 42, 'rademacher:j=1'): '190b9367cc57d793fbe4690aa1bd78bf0b2e3987bb1938d888de9127d3f13bf8',
    ('run-jsonl', 42, 'rademacher:j=3'): '1d5bf8d5cea5711dd0c1751c50efcfeb7da9cb5a4f4ea960877e79a646bbdaf4',
    ('sweep', 42, 'rademacher:j=3'): '4e7d2aa3d010ff5071cb172484447cca66900fe08bc66989b6600fa1b4a578f8',
    ('triples', 42, 'rademacher:j=3'): '13c54d4075470f352ceacbeb63e7806e6ac0f06faa3ce7b8041bef1e3b4e58f2',
    ('bell', 42, 'rademacher:j=3'): '4b4cb3cbb9600e00bf1f861058d786d2d6a844302d8e05ef4f3c45505edcf809',
    ('wigner', 42, 'rademacher:j=3'): '190b9367cc57d793fbe4690aa1bd78bf0b2e3987bb1938d888de9127d3f13bf8',
    ('run-jsonl', 42, 'rademacher-rarb:j=3,seed=7'): 'c05c9d75b172609ae1b80faf9c72e59fe4e0b2c5e644b223740010a35262480f',
    ('sweep', 42, 'rademacher-rarb:j=3,seed=7'): '4e7d2aa3d010ff5071cb172484447cca66900fe08bc66989b6600fa1b4a578f8',
    ('triples', 42, 'rademacher-rarb:j=3,seed=7'): 'ee5271891ce6fd804b79b69f854301c7d42adf2d9bffe4a65f861aedffa1fef1',
    ('bell', 42, 'rademacher-rarb:j=3,seed=7'): '4b4cb3cbb9600e00bf1f861058d786d2d6a844302d8e05ef4f3c45505edcf809',
    ('wigner', 42, 'rademacher-rarb:j=3,seed=7'): '190b9367cc57d793fbe4690aa1bd78bf0b2e3987bb1938d888de9127d3f13bf8',
    ('run-jsonl', 12345, 'rademacher:j=1'): '86f6d13547c31b8b87272f3e5ed975e2c3faec1fc0f65c89b5c23a93ce785fce',
    ('sweep', 12345, 'rademacher:j=1'): '6b56b37a303db6845eb4c753ed19a715df40e0dfba9247baf151a84a62a6a242',
    ('triples', 12345, 'rademacher:j=1'): '7e32dff9232b5599c9238c47a2f57692e60a2ed17e7ed4fd52fbc07c5e9298ef',
    ('bell', 12345, 'rademacher:j=1'): 'f23671c577612e1169689d0131709dbfb50887da3b1201161fc387cf3a13e482',
    ('wigner', 12345, 'rademacher:j=1'): '0cb2ae69c6594d2e51b62393acbc01e9f9ca28fb674894b58b203df7bc469eb1',
    ('run-jsonl', 12345, 'rademacher:j=3'): 'd490a6d77fa321d0c41794eaf87dc63cf2e6e5efc5cce4b26083d83a20438044',
    ('sweep', 12345, 'rademacher:j=3'): '6b56b37a303db6845eb4c753ed19a715df40e0dfba9247baf151a84a62a6a242',
    ('triples', 12345, 'rademacher:j=3'): 'cc1be1bd9b39a35e7d1c32f82f261a8d69210fa20d96e6840d1d1d4fa26cd401',
    ('bell', 12345, 'rademacher:j=3'): 'f23671c577612e1169689d0131709dbfb50887da3b1201161fc387cf3a13e482',
    ('wigner', 12345, 'rademacher:j=3'): '0cb2ae69c6594d2e51b62393acbc01e9f9ca28fb674894b58b203df7bc469eb1',
    ('run-jsonl', 12345, 'rademacher-rarb:j=3,seed=7'): 'a57ee5132ecdc60c789ba66153f651bfbd9c975782d58e81dff84349c98d6437',
    ('sweep', 12345, 'rademacher-rarb:j=3,seed=7'): '6b56b37a303db6845eb4c753ed19a715df40e0dfba9247baf151a84a62a6a242',
    ('triples', 12345, 'rademacher-rarb:j=3,seed=7'): '79670f2b694a948dc95e81e47c824908525f4f52ebec548200bd236f3ef2381b',
    ('bell', 12345, 'rademacher-rarb:j=3,seed=7'): 'f23671c577612e1169689d0131709dbfb50887da3b1201161fc387cf3a13e482',
    ('wigner', 12345, 'rademacher-rarb:j=3,seed=7'): '0cb2ae69c6594d2e51b62393acbc01e9f9ca28fb674894b58b203df7bc469eb1',
}


@pytest.mark.parametrize("kind", ("run-jsonl", "sweep", "triples", "bell", "wigner"))
@pytest.mark.parametrize("gauge", GAUGES)
@pytest.mark.parametrize("seed", SEEDS)
def test_output_digest(kind, seed, gauge, tmp_path):
    digest = hashlib.sha256(output_bytes(kind, seed, gauge, tmp_path)).hexdigest()
    assert digest == EXPECTED[(kind, seed, gauge)]


# The stdout of ``cyclic-demo``: the eight-row oracle and the simulated single-space report.
CYCLIC_EXPECTED = {
    1: "201d20cf16357d420de0f67754dd9dc8c278090f7a0fc735da778e1095e9db31",
    42: "e707e0b26f04705ec50ea9df88821f85edd5e6098431053c983a25e5980acad1",
    12345: "30d5888f1eb7b1ecfdb534e03a19df13532f1ab305df67ca02731d7900b768e5",
}


@pytest.mark.parametrize("gauge", GAUGES)
@pytest.mark.parametrize("seed", SEEDS)
def test_cyclic_demo_digest(seed, gauge):
    out = _cli_stdout(["cyclic-demo", "--pairs", N, "--seed", str(seed), "--gauge", gauge])
    assert hashlib.sha256(out.encode()).hexdigest() == CYCLIC_EXPECTED[seed]


LOG_PAIRS = 300
RAD3 = GaugeKey(mode=MODE_RADEMACHER, j=3)
B60 = Setting(0.5, 0.8660254037844386)


def _drain(port: int, station: str) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        st.send_frame(conn, {"v": st.WIRE_VERSION, "type": "hello", "station": station})
        while (msg := st.recv_frame(conn)) is not None and msg["type"] != "end":
            pass


def log_bytes(kind: str, seed: int, workdir: Path) -> bytes:
    path = workdir / f"{kind}.jsonl"
    if kind == "emission-log":
        sock = st.make_server_socket()
        threads = [threading.Thread(target=_drain, args=(sock.getsockname()[1], s)) for s in ("L", "R")]
        for t in threads:
            t.start()
        st.source_run(seed, LOG_PAIRS, sock=sock, session_index=1, log_path=path, timeout=10)
        for t in threads:
            t.join(timeout=10)
    elif kind == "report-log":
        spec = ExperimentSpec(setting_pairs=((CANONICAL_LEFT, B60),), pairs_per_setting=LOG_PAIRS,
                              seed=seed, key=RAD3)
        grp = run_experiment(spec).groups[0]
        reports = st.ReportBatch(station="R", setting=grp.right_setting, n=grp.pair_index, outcome=grp.right,
                                 clock_ns=1000 * np.arange(len(grp.pair_index)))
        st.write_report_log(st.StationLog(station="R", setting=grp.right_setting,
                                          key_digest=RAD3.digest_hex(), reports=reports), path)
    else:
        raise ValueError(kind)
    return path.read_bytes()


LOG_EXPECTED = {
    ('emission-log', 1): '6ce92a3263d35001a115b5443202df6551ffb5ef8c77f603ea4b11be1d35bdf6',
    ('report-log', 1): 'a9e96d2abe3631de9c71ae76a924fddf8ba67c974f478bae6f40abc399c20d03',
    ('emission-log', 42): '7788d72a53fc262207c9597a4c35cc5eff3c258edb68fb7f90a6c422fcd277de',
    ('report-log', 42): '454896eda268ae40d6b7dc85286a6895e75fb72d18220eb4fd40571b2ddcb33e',
    ('emission-log', 12345): '48b52b82fbae3d5c495badb83ef2160148e418b3dbec49f5ac745e7c8662c81e',
    ('report-log', 12345): 'a7fbd90a9ff4afa3c7c1b2e53d67a864148928683fde17ba1c00635a80dcb2ce',
}


@pytest.mark.parametrize("kind", ("emission-log", "report-log"))
@pytest.mark.parametrize("seed", SEEDS)
def test_log_digest(kind, seed, tmp_path):
    digest = hashlib.sha256(log_bytes(kind, seed, tmp_path)).hexdigest()
    assert digest == LOG_EXPECTED[(kind, seed)]


# Two layouts the digests above leave out. A switched file of BELL_PAIRS has three groups whose per-slot literals
# differ in length (the settings' decimals), so its lines are laid out with padding per slot. A report log stamped
# with 19-digit clocks, as ``time.monotonic_ns()`` can give, takes clocks past 2**63 / 10, and its pair indices
# cross from three digits to four.
def layout_bytes(kind: str, workdir: Path) -> bytes:
    path = workdir / f"{kind}.jsonl"
    if kind == "switched-dataset":
        ds = run_experiment(ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=700, seed=19, key=RAD3,
                                           switching="random-switched"))
        write_run_dataset(dataclasses.replace(ds, meta={"schema_version": 1}), path)
    elif kind == "report-log-19-digit-clocks":
        spec = ExperimentSpec(setting_pairs=((CANONICAL_LEFT, B60),), pairs_per_setting=1500, seed=19, key=RAD3)
        grp = run_experiment(spec).groups[0]
        clock_ns = 9_000_000_000_000_000_000 + 7919 * np.arange(len(grp)) ** 2
        reports = st.ReportBatch(station="L", setting=grp.left_setting, n=grp.pair_index, outcome=grp.left,
                                 clock_ns=clock_ns)
        st.write_report_log(st.StationLog(station="L", setting=grp.left_setting,
                                          key_digest=RAD3.digest_hex(), reports=reports), path)
    else:
        raise ValueError(kind)
    return path.read_bytes()


LAYOUT_EXPECTED = {
    "switched-dataset": "9133f44916a966fe2e66041393de0f7f6dee857fd06460c4ef9f16254f5e9a2c",
    "report-log-19-digit-clocks": "ec85f2802c67788d1d723b1e6ee3cb23a7414f3850c8df66de651132336ec36e",
}


@pytest.mark.parametrize("kind", sorted(LAYOUT_EXPECTED))
def test_layout_digest(kind, tmp_path):
    digest = hashlib.sha256(layout_bytes(kind, tmp_path)).hexdigest()
    assert digest == LAYOUT_EXPECTED[kind]
