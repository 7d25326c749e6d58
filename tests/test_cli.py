"""Command-line surface: outputs, exit codes, and the distributed flow end-to-end."""

import csv
import json
import math
import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import dataset_text

from eqrc.cli import main
from eqrc.formats import load_run_dataset


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestRunCommand:
    def test_csv_row_with_expected_value(self, capsys):
        rc, out, _ = run_cli(["run", "--pairs", "50000", "--right", "0.5,0.8660254037844386",
                              "--seed", "42", "--gauge", "rademacher:j=3"], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "# schema=eqrc.expectation.v1"
        row = next(csv.DictReader(lines[1:]))
        assert float(row["expectation"]) == pytest.approx(-0.5, abs=4.5 / math.sqrt(50_000))
        assert int(row["n"]) == 50_000

    def test_identical_argv_gives_identical_bytes(self, capsys):
        argv = ["run", "--pairs", "2000", "--seed", "1"]
        rc1, out1, _ = run_cli(argv, capsys)
        rc2, out2, _ = run_cli(argv, capsys)
        assert rc1 == rc2 == 0 and out1 == out2

    def test_jsonl_dataset_output(self, tmp_path, capsys):
        path = tmp_path / "ds.jsonl"
        argv = ["run", "--pairs", "20000", "--seed", "3", "--format", "jsonl"]
        rc, _, _ = run_cli([*argv, "--out", str(path)], capsys)
        assert rc == 0
        ds = load_run_dataset(path)
        assert len(ds.groups[0]) == 20000
        rc, out, _ = run_cli(argv, capsys)  # streamed in blocks to stdout; only the header's created stamp may differ
        text = path.read_text(encoding="utf-8")
        assert rc == 0 and text == dataset_text(ds) and out.split("\n", 1)[1] == text.split("\n", 1)[1]

    def test_noncanonical_left_is_rotated_with_notice(self, capsys):
        rc, out, err = run_cli(["run", "--pairs", "40000", "--seed", "5",
                                "--left", "0,1", "--right", "0.8660254037844386,0.5"], capsys)
        assert rc == 0
        assert "rotated" in err
        row = next(csv.DictReader(out.splitlines()[1:]))
        # relative angle is 60 degrees, so the estimate sits near -cos(60deg)
        assert float(row["expectation"]) == pytest.approx(-0.5, abs=4.5 / math.sqrt(40_000))
        assert float(row["left_b2"]) == 1.0


class TestSweepCommand:
    def test_matches_cosine_curve(self, capsys):
        rc, out, _ = run_cli(["sweep", "--steps", "6", "--pairs", "20000", "--seed", "2"], capsys)
        assert rc == 0
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert len(rows) == 6
        for row in rows:
            theta = float(row["theta_radians"])
            assert float(row["expectation"]) == pytest.approx(-math.cos(theta),
                                                              abs=4.5 / math.sqrt(20_000))


class TestOutputPath:
    """--out receives the bytes stdout would."""

    @pytest.mark.parametrize("argv,skip", [
        (["run", "--pairs", "3000", "--seed", "8"], 0),
        (["run", "--pairs", "3000", "--seed", "8", "--format", "jsonl"], 1),  # the header's created stamp may differ
        (["sweep", "--pairs", "500", "--steps", "5", "--seed", "8"], 0),
    ], ids=["run-csv", "run-jsonl", "sweep"])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, argv, skip):
        path = tmp_path / "out"
        rc, out, _ = run_cli(argv, capsys)
        assert (rc, run_cli([*argv, "--out", str(path)], capsys)) == (0, (0, "", ""))
        assert path.read_bytes().split(b"\n")[skip:] == out.encode("utf-8").split(b"\n")[skip:]
        assert len(out.splitlines()) > 2

    def test_reports_file_rows_are_the_stdout_reports(self, tmp_path, capsys):
        path = tmp_path / "reports.jsonl"
        rc, out, _ = run_cli(["bell", "--pairs", "2000", "--seed", "8", "--out", str(path)], capsys)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        assert rc == 0 and json.loads(header) == {"kind": "inequality-reports", "v": 1}
        assert [json.loads(row) for row in rows] == [json.loads(line) for line in out.splitlines()]


class TestInequalityCommands:
    @pytest.mark.parametrize("command", ["bell", "chsh"])
    def test_report_is_machine_readable_and_violated(self, command, capsys, tmp_path):
        out_path = tmp_path / "rep.jsonl"
        rc, out, _ = run_cli([command, "--pairs", "100000", "--seed", "7",
                              "--out", str(out_path)], capsys)
        assert rc == 0
        rep = json.loads(out.splitlines()[0])
        assert rep["violated"] is True
        assert rep["name"] == command
        lines = out_path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "inequality-reports"
        assert json.loads(lines[1])["violated"] is True

    def test_wigner_both_modes_contrast(self, capsys):
        rc, out, _ = run_cli(["wigner", "--pairs", "100000", "--seed", "7"], capsys)
        assert rc == 0
        reports = [json.loads(line) for line in out.splitlines()]
        by_mode = {r["mode"]: r for r in reports}
        assert by_mode["simulated-per-space"]["violated"] is True
        assert by_mode["simulated-single-space"]["violated"] is False


class TestTriplesAndCyclic:
    def test_triples_fractions(self, capsys):
        rc, out, _ = run_cli(["triples", "--n", "200000", "--seed", "7"], capsys)
        assert rc == 0
        lines = out.splitlines()
        f1 = float(lines[0].split("=")[1].split()[0])
        f2 = float(lines[1].split("=")[1].split()[0])
        assert f1 == pytest.approx(0.375, abs=0.01)
        assert f2 == pytest.approx(0.125, abs=0.01)

    def test_cyclic_demo_prints_full_oracle(self, capsys):
        rc, out, _ = run_cli(["cyclic-demo"], capsys)
        assert rc == 0
        assert "satisfied: 8/8" in out
        assert out.count("True") == 8

    def test_cyclic_demo_with_simulation(self, capsys):
        rc, out, _ = run_cli(["cyclic-demo", "--pairs", "20000", "--seed", "3"], capsys)
        assert rc == 0
        rep = json.loads(out.splitlines()[-1])
        assert rep["violated"] is False
        assert rep["mode"] == "simulated-single-space"


class TestSeedHandling:
    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("EQRC_SEED", "777")
        _, out_env, _ = run_cli(["run", "--pairs", "1000"], capsys)
        _, out_explicit, _ = run_cli(["run", "--pairs", "1000", "--seed", "777"], capsys)
        assert out_env == out_explicit

    def test_explicit_seed_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EQRC_SEED", "777")
        _, out1, _ = run_cli(["run", "--pairs", "1000", "--seed", "5"], capsys)
        monkeypatch.delenv("EQRC_SEED")
        _, out2, _ = run_cli(["run", "--pairs", "1000", "--seed", "5"], capsys)
        assert out1 == out2

    def test_bad_env_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("EQRC_SEED", "not-a-number")
        rc, _, err = run_cli(["run", "--pairs", "10"], capsys)
        assert rc == 1 and "EQRC_SEED" in err

    @pytest.mark.parametrize("command", ["run", "sweep", "triples"])
    def test_negative_seed_is_a_usage_error(self, capsys, monkeypatch, tmp_path, command):
        path = tmp_path / "out"
        rc, out, err = run_cli([command, "--pairs", "10", "--seed", "-1", "--out", str(path)], capsys)
        assert (rc, out, err, path.exists()) == (1, "", "eqrc: seed must be >= 0, got -1\n", False)
        monkeypatch.setenv("EQRC_SEED", "-2")
        assert run_cli([command, "--pairs", "10"], capsys) == (1, "", "eqrc: seed must be >= 0, got -2\n")


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        rc, _, err = run_cli(["run", "--bogus"], capsys)
        assert rc == 1 and "bogus" in err

    def test_missing_command(self, capsys):
        rc, _, err = run_cli([], capsys)
        assert rc == 1

    def test_invalid_vector(self, capsys):
        rc, _, err = run_cli(["run", "--right", "1,2,3"], capsys)
        assert rc == 1 and "setting vector" in err

    def test_invalid_gauge(self, capsys):
        for spec in ("spin:k=2", "rademacher-rarb:seed=-1", f"rademacher-rarb:j=2,seed={2**64}"):
            rc, _, err = run_cli(["run", "--gauge", spec], capsys)
            assert rc == 1 and "gauge" in err

    def test_missing_key_file(self, capsys, tmp_path):
        rc, _, err = run_cli(["station", "--station", "L", "--key", str(tmp_path / "nope.json"),
                              "--source", "127.0.0.1:1", "--collator", "127.0.0.1:1"], capsys)
        assert rc == 1 and "key file" in err

    def test_collate_needs_a_mode(self, capsys):
        rc, _, err = run_cli(["collate"], capsys)
        assert rc == 1

    def test_runtime_error_is_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "junk.jsonl"
        bad.write_text('{"kind":"other"}\n')
        rc, _, err = run_cli(["collate", "--left", str(bad), "--right", str(bad)], capsys)
        assert rc == 2 and "runtime error" in err

    def test_sequence_collation_with_emissions_is_exit_two(self, capsys, tmp_path):
        from eqrc.experiments import CANONICAL_LEFT
        from eqrc.model import PairStream, Setting
        from eqrc import stations as st

        paths = {name: tmp_path / f"{name}.jsonl" for name in ("L", "R", "emissions")}
        for side, setting in (("L", CANONICAL_LEFT), ("R", Setting(0.0, 1.0))):
            reports = [st.StationReport(n=n, station=side, setting=setting, outcome=1, clock_ns=0) for n in (1, 2, 3)]
            st.write_report_log(st.StationLog(station=side, setting=setting, key_digest="ab", reports=reports),
                                paths[side])
        emitted = PairStream(n=np.arange(1, 3), lam=np.full(2, 0.5), t=np.full(2, 0.5))
        st.write_emission_log(st.SourceLog(seed=1, session_index=0, count=2, emissions=emitted), paths["emissions"])
        rc, out, err = run_cli(["collate", "--left", str(paths["L"]), "--right", str(paths["R"]),
                                "--match", "sequence", "--emissions", str(paths["emissions"])], capsys)
        assert rc == 2 and out == "" and "cannot account for an emission log" in err

    @pytest.mark.parametrize("args", [
        ["--left", "L.jsonl", "--right", "R.jsonl", "--inject", "drop@--1"],
        ["--left", "L.jsonl", "--right", "R.jsonl", "--inject", "drop@1x"],
        ["--port", "PORT", "--inject", "drop@1"],
        ["--port", "PORT", "--emissions", "emissions.jsonl"],
        ["--left", "L.jsonl", "--right", "R.jsonl", "--inject-station", "R"],
        ["--port", "PORT", "--inject-station", "R"],
    ], ids=repr)
    def test_collate_argument_it_cannot_use_is_a_usage_error(self, capsys, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        _report_logs(tmp_path, {"L": (1, 2), "R": (1, 2)})
        with socket.create_server(("127.0.0.1", 0)) as busy:  # a live collator there would fail, not wait
            port = str(busy.getsockname()[1])
            rc, out, err = run_cli(["collate", *(port if arg == "PORT" else arg for arg in args)], capsys)
        assert (rc, out) == (1, "") and err.startswith("eqrc: ") and "runtime error" not in err

    def test_collate_with_no_shared_pair_index_reports_no_pairs(self, capsys, tmp_path):
        paths = _report_logs(tmp_path, {"L": (1, 2), "R": (3, 4)})
        out_path = tmp_path / "ds.jsonl"
        rc, out, err = run_cli(["collate", "--left", str(paths["L"]), "--right", str(paths["R"]),
                                "--out", str(out_path)], capsys)
        assert (rc, err) == (0, "")
        assert json.loads(out) == {"strategy": "pair-id", "pairs": 0, "incomplete": [1, 2, 3, 4], "expectation": None}
        back = load_run_dataset(out_path)
        assert [len(g) for g in back.groups] == [0] and back.groups[0].pair_index.dtype == np.int64

    def test_offline_collation_refuses_logs_of_different_keys(self, capsys, tmp_path):
        from eqrc.experiments import CANONICAL_LEFT
        from eqrc import stations as st

        paths = []
        for side, digest in (("L", "a" * 64), ("R", "b" * 64)):
            reports = [st.StationReport(n=n, station=side, setting=CANONICAL_LEFT, outcome=1, clock_ns=0) for n in (1, 2)]
            paths.append(tmp_path / f"{side}.jsonl")
            st.write_report_log(st.StationLog(station=side, setting=CANONICAL_LEFT, key_digest=digest, reports=reports),
                                paths[-1])
        rc, out, err = run_cli(["collate", "--left", str(paths[0]), "--right", str(paths[1])], capsys)
        assert (rc, out) == (2, "")
        assert err == "eqrc: runtime error: gauge key digests differ between stations; refusing to collate\n"

    def test_keygen_writes_loadable_key(self, capsys, tmp_path):
        path = tmp_path / "key.json"
        rc, out, _ = run_cli(["keygen", "--gauge", "rademacher-rarb:j=2,seed=9",
                              "--out", str(path)], capsys)
        assert rc == 0
        from eqrc.stations import load_key_file

        key = load_key_file(path)
        assert key.j == 2 and key.rarb_seed == 9


def _report_logs(tmp_path, pairs):
    """Report logs L.jsonl and R.jsonl in ``tmp_path`` of +1 outcomes at ``pairs[side]``; their paths by side."""
    from eqrc.experiments import CANONICAL_LEFT
    from eqrc import stations as st

    paths = {side: tmp_path / f"{side}.jsonl" for side in pairs}
    for side, ns in pairs.items():
        batch = st.ReportBatch(side, CANONICAL_LEFT, np.array(ns, np.int64), np.ones(len(ns), np.int8),
                               np.zeros(len(ns), np.int64))
        st.write_report_log(st.StationLog(station=side, setting=CANONICAL_LEFT, key_digest="ab", reports=batch),
                            paths[side])
    return paths


def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class TestDistributedFlow:
    def test_processes_end_to_end(self, tmp_path, monkeypatch):
        # The role processes import eqrc from src/ whether or not it is installed.
        monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"), prepend=os.pathsep)
        env_cmd = [sys.executable, "-m", "eqrc.cli"]
        key = tmp_path / "key.json"
        subprocess.run(env_cmd + ["keygen", "--out", str(key)], check=True, timeout=60)

        col_port, src_port = _free_port(), _free_port()
        n, seed = 400, 11
        live_ds = tmp_path / "live.jsonl"
        procs = []
        try:
            procs.append(subprocess.Popen(
                env_cmd + ["collate", "--port", str(col_port), "--out", str(live_ds)],
                stdout=subprocess.PIPE, text=True))
            procs.append(subprocess.Popen(
                env_cmd + ["source", "--port", str(src_port), "--pairs", str(n),
                           "--seed", str(seed), "--out", str(tmp_path / "emissions.jsonl")],
                stdout=subprocess.PIPE, text=True))
            for station, setting, log in (("L", "1,0", "L.jsonl"),
                                          ("R", "0.5,0.8660254037844386", "R.jsonl")):
                procs.append(subprocess.Popen(
                    env_cmd + ["station", "--station", station, "--setting", setting,
                               "--key", str(key),
                               "--source", f"127.0.0.1:{src_port}",
                               "--collator", f"127.0.0.1:{col_port}",
                               "--out", str(tmp_path / log)],
                    stdout=subprocess.PIPE, text=True))
            outs = [p.communicate(timeout=90)[0] for p in procs]
            assert all(p.returncode == 0 for p in procs), outs
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()

        summary = json.loads(outs[0].strip().splitlines()[-1])
        assert summary["pairs"] == n and summary["incomplete"] == []

        # live dataset payload matches the in-process run bit for bit
        local_ds = tmp_path / "local.jsonl"
        subprocess.run(env_cmd + ["run", "--pairs", str(n), "--seed", str(seed),
                                  "--right", "0.5,0.8660254037844386",
                                  "--format", "jsonl", "--out", str(local_ds)],
                       check=True, timeout=90)
        live_lines = live_ds.read_text().splitlines()[1:]
        local_lines = local_ds.read_text().splitlines()[1:]
        assert live_lines == local_lines

        # offline re-collation from the report logs, with an injected drop
        res = subprocess.run(
            env_cmd + ["collate", "--left", str(tmp_path / "L.jsonl"),
                       "--right", str(tmp_path / "R.jsonl"),
                       "--match", "sequence", "--inject", f"drop@{n // 2}"],
            capture_output=True, text=True, timeout=90)
        assert res.returncode == 0
        summary = json.loads(res.stdout.strip().splitlines()[-1])
        assert summary["pairs"] == n - 1
        assert summary["strategy"] == "sequence-order"
