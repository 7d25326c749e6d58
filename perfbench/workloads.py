"""The four eqrc benchmark workloads.

Each workload is a closed loop with one client: the runner starts an
operation only after the previous one has finished. A workload object is
built from the benchmark seed (that is its set-up: input generation, key
file, one small warm-up operation); ``op`` runs one operation through
the package's public functions and returns its raw outputs, and
``check`` verifies those outputs and returns the list of problems found
plus sha256 digests of the output data bytes.

Why these four:

- ``sweep``: ``eqrc sweep`` through ``cli.main``. Sampling, gauge and the
  vectorized outcome kernel plus one estimate per step; no dataset, no I/O.
- ``suite``: ``eqrc bell``, ``chsh``, ``wigner --mode both`` and ``triples``
  with the keyed hash gauge, plus a random-switched Bell run sorted back.
  The multi-group path, where the dataset disjointness check dominates.
- ``export``: JSONL dataset and report-log write and load, a dropped report
  and both collation strategies. ``formats`` and offline ``stations`` work.
- ``live``: one source, two stations and a collator as threads over real
  loopback TCP, matched by pair id. Per-event frames and scalar outcomes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from eqrc import cli, experiments, formats, inequalities, stations
from eqrc.experiments import BELL_PAIRS, CANONICAL_LEFT, ExperimentSpec
from eqrc.model import MODE_RADEMACHER, GaugeKey, Setting

#: Per-operation sizes. Each operation takes roughly 0.5-6 s on a 2-core
#: Xeon, so a run of the configured length holds several operations.
SIZES = {
    "sweep": {"pairs_per_step": 100_000, "steps": 72},
    "suite": {"pairs": 400_000},
    "export": {"pairs": 40_000},
    "live": {"pairs": 20_000},
}

#: Sizes of the warm-up operation that ends each set-up.
WARM_UP_SIZES = {
    "sweep": {"pairs_per_step": 1_000, "steps": 72},
    "suite": {"pairs": 2_000},
    "export": {"pairs": 300},
    "live": {"pairs": 100},
}

RAD3 = GaugeKey(mode=MODE_RADEMACHER, j=3)
B60 = Setting(0.5, math.sqrt(3.0) / 2.0)

#: Socket timeout handed to every live role, and the deadline after which a
#: role thread still running counts the operation as failed.
LIVE_TIMEOUT_S = 20.0
LIVE_DEADLINE_S = 60.0


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _arrays_sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _data_lines_sha(path: Path) -> str:
    """Digest of a JSONL file without its header line (which holds wall-clock meta)."""
    with path.open("rb") as fh:
        fh.readline()
        return _sha(fh.read())


def run_cli(argv: list[str]) -> str:
    """Run one eqrc command in-process and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"eqrc {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


class Workload:
    pairs: int  # pairs generated, measured or collated by one operation

    def extras(self, out, op_cpu: float) -> dict[str, float]:
        """Per-layer values of one traced operation that its spans do not give."""
        return {}


class Sweep(Workload):
    """72-step angle sweep with the default gauge, as ``eqrc sweep``."""

    def __init__(self, seed: int, sizes: dict, workdir: Path) -> None:
        rng = random.Random(f"sweep:{seed}")
        self.n = sizes["pairs_per_step"]
        self.steps = sizes["steps"]
        self.pairs = self.n * self.steps
        self.argv = ["sweep", "-n", str(self.n), "--steps", str(self.steps),
                     "--seed", str(rng.randrange(2**31)), "--gauge", "rademacher:j=3"]

    def op(self, tracer=None) -> str:
        return run_cli(self.argv)

    def check(self, out: str) -> tuple[list[str], dict]:
        lines = out.splitlines()
        rows = [r.split(",") for r in lines[2:]]
        tol = 4.5 / math.sqrt(self.n)
        problems = []
        if lines[:2] != ["# schema=eqrc.sweep.v1", "theta_radians,expectation,std_error,n"] or len(rows) != self.steps:
            problems.append(f"sweep CSV malformed: {len(rows)} rows for {self.steps} steps")
        else:
            worst = max(abs(float(e) + math.cos(float(th))) for th, e, _, _ in rows)
            if worst > tol:
                problems.append(f"sweep deviates from -cos(theta) by {worst:.5f} > {tol:.5f}")
        return problems, {"sweep.csv": _sha(out)}


class Suite(Workload):
    """Bell, CHSH, Wigner (both modes) and triples with the keyed gauge, plus a switched run."""

    def __init__(self, seed: int, sizes: dict, workdir: Path) -> None:
        rng = random.Random(f"suite:{seed}")
        self.n = sizes["pairs"]
        self.seed = rng.randrange(2**31)
        gauge = f"rademacher-rarb:j=3,seed={rng.randrange(2**31)}"
        self.key = cli.parse_gauge(gauge)
        common = ["-n", str(self.n), "--seed", str(self.seed), "--gauge", gauge]
        self.commands = {
            "bell": ["bell", *common],
            "chsh": ["chsh", *common],
            "wigner": ["wigner", "--mode", "both", *common],
            "triples": ["triples", *common],
        }
        # bell 3N + chsh 4N + wigner 3N per-space and N single-space + triples N + switched 3N
        self.pairs = 15 * self.n

    def op(self, tracer=None):
        outputs = {name: run_cli(argv) for name, argv in self.commands.items()}
        spec = ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=self.n, seed=self.seed,
                              key=self.key, switching="random-switched")
        return outputs, experiments.sort_wigner_sets(experiments.run_experiment(spec))

    def check(self, result) -> tuple[list[str], dict]:
        outputs, ds = result
        problems = []
        se = 1.0 / math.sqrt(self.n)
        bell = json.loads(outputs["bell"])
        if not bell["lhs"] - bell["rhs"] >= 0.4:
            problems.append(f"bell lhs - rhs = {bell['lhs'] - bell['rhs']:.4f} < 0.4")
        chsh = json.loads(outputs["chsh"])
        # 0.01 at the benchmark's size; never tighter than 4.5 standard errors.
        chsh_tol = max(0.01, 4.5 * math.sqrt(2.0) * se)
        if not (chsh["violated"] and abs(chsh["lhs"] - 2.0 * math.sqrt(2.0)) <= chsh_tol):
            problems.append(f"chsh lhs = {chsh['lhs']:.4f} not within 2*sqrt(2) +/- {chsh_tol:.4f}")
        wigner = [json.loads(line) for line in outputs["wigner"].splitlines()]
        single = [r for r in wigner if r["mode"] == "simulated-single-space"]
        if len(wigner) != 2 or len(single) != 1 or single[0]["violated"]:
            problems.append("single-space wigner report missing or violated")
        fractions = dict(re.findall(r"^(\S+) fraction\(\+1,\+1,\+1\) = (\S+)", outputs["triples"], re.M))
        for kind, target in (("abc'", 0.375), ("ab'c", 0.125)):
            f = float(fractions.get(kind, "nan"))
            if not abs(f - target) <= 4.5 * se:
                problems.append(f"triple {kind} fraction {f} not within {4.5 * se:.5f} of {target}")
        rep = inequalities.bell_check(*ds.group_expectations())
        expected_idx = [np.arange(i * self.n + 1, (i + 1) * self.n + 1) for i in range(3)]
        if len(ds.groups) != 3 or any(not np.array_equal(g.pair_index, idx)
                                      for g, idx in zip(ds.groups, expected_idx)):
            problems.append("switched run sorted back into wrong pair-index sets")
        if not rep.lhs - rep.rhs >= 0.4:
            problems.append(f"sorted switched bell lhs - rhs = {rep.lhs - rep.rhs:.4f} < 0.4")
        digests = {f"{name}.out": _sha(text) for name, text in outputs.items()}
        digests["switched.sorted"] = _arrays_sha(*(a for g in ds.groups for a in (g.pair_index, g.left, g.right)))
        return problems, digests


@dataclass
class ExportResult:
    fixed: object
    switched: object
    left: object
    right: object
    pair_id: object
    sequence: object


class Export(Workload):
    """Dataset and report-log files written and read back, a drop, and both collations."""

    def __init__(self, seed: int, sizes: dict, workdir: Path) -> None:
        rng = random.Random(f"export:{seed}")
        self.n = sizes["pairs"]
        program_seed = rng.randrange(2**31)
        self.fixed = experiments.run_experiment(ExperimentSpec(
            setting_pairs=((CANONICAL_LEFT, B60),), pairs_per_setting=self.n, seed=program_seed, key=RAD3))
        self.switched = experiments.run_experiment(ExperimentSpec(
            setting_pairs=BELL_PAIRS, pairs_per_setting=self.n // 3, seed=program_seed + 1, key=RAD3,
            switching="random-switched"))
        grp = self.fixed.groups[0]
        self.logs = {
            side: stations.StationLog(
                station=side, setting=setting, key_digest=RAD3.digest_hex(),
                reports=[stations.StationReport(n=int(n), station=side, setting=setting, outcome=int(o),
                                                clock_ns=1000 * i)
                         for i, (n, o) in enumerate(zip(grp.pair_index, outcomes))],
            )
            for side, setting, outcomes in (("L", grp.left_setting, grp.left), ("R", grp.right_setting, grp.right))
        }
        self.drop_pos = rng.randrange(self.n)
        self.paths = {name: workdir / f"export-{name}.jsonl" for name in ("fixed", "switched", "L", "R")}
        self.dataset_pairs = self.n + len(self.switched.interleaved)
        self.pairs = self.dataset_pairs + self.n

    def op(self, tracer=None) -> ExportResult:
        p = self.paths
        formats.write_run_dataset(self.fixed, p["fixed"])
        fixed = formats.load_run_dataset(p["fixed"])
        formats.write_run_dataset(self.switched, p["switched"])
        switched = formats.load_run_dataset(p["switched"])
        stations.write_report_log(self.logs["L"], p["L"])
        stations.write_report_log(self.logs["R"], p["R"])
        left = stations.load_report_log(p["L"])
        right = stations.load_report_log(p["R"])
        dropped = stations.inject_fault("drop", self.drop_pos, left)
        return ExportResult(
            fixed=fixed, switched=switched, left=left, right=right,
            pair_id=stations.collate(dropped, right, strategy="pair-id"),
            sequence=stations.collate(dropped, right, strategy="sequence-order"),
        )

    def check(self, r: ExportResult) -> tuple[list[str], dict]:
        problems = []
        want, got = self.fixed, r.fixed
        same_groups = len(got.groups) == len(want.groups) and all(
            g.label == w.label and g.left_setting == w.left_setting and g.right_setting == w.right_setting
            and all(np.array_equal(getattr(g, a), getattr(w, a)) for a in ("pair_index", "left", "right"))
            for g, w in zip(got.groups, want.groups))
        if not (same_groups and got.canonical_pairs == want.canonical_pairs and got.spec == want.spec):
            problems.append("loaded fixed dataset differs from the one written")
        wi, gi = self.switched.interleaved, r.switched.interleaved
        if gi is None or r.switched.spec != self.switched.spec or not all(
                np.array_equal(getattr(gi, a), getattr(wi, a)) for a in ("group_ids", "pair_index", "left", "right")):
            problems.append("loaded switched dataset differs from the one written")
        for batch, side in ((r.left, "L"), (r.right, "R")):
            reports = self.logs[side].reports
            if not (np.array_equal(batch.n, [x.n for x in reports])
                    and np.array_equal(batch.outcome, [x.outcome for x in reports])
                    and np.array_equal(batch.clock_ns, [x.clock_ns for x in reports])):
                problems.append(f"loaded {side} report log differs from the one written")
        dropped_n = int(self.fixed.groups[0].pair_index[self.drop_pos])
        if r.pair_id.incomplete != (dropped_n,) or len(r.pair_id.dataset.groups[0]) != self.n - 1:
            problems.append(f"pair-id collate flagged {r.pair_id.incomplete[:5]} instead of ({dropped_n},)")
        if len(r.sequence.dataset.groups[0]) != self.n - 1:
            problems.append("sequence-order collate did not pair n - 1 reports")
        digests = {
            "fixed.data": _data_lines_sha(self.paths["fixed"]),
            "switched.data": _data_lines_sha(self.paths["switched"]),
            "L.log": _sha(self.paths["L"].read_bytes()),
            "R.log": _sha(self.paths["R"].read_bytes()),
        }
        for name, res in (("pair_id", r.pair_id), ("sequence", r.sequence)):
            g = res.dataset.groups[0]
            digests[f"collate.{name}"] = _arrays_sha(g.pair_index, g.left, g.right)
        return problems, digests

    def extras(self, out: ExportResult, op_cpu: float) -> dict[str, float]:
        size = {name: path.stat().st_size for name, path in self.paths.items()}
        return {
            "formats.bytes_per_pair": (size["fixed"] + size["switched"]) / self.dataset_pairs,
            "stations.report_log_bytes_per_pair": (size["L"] + size["R"]) / self.n,
        }


@dataclass
class LiveResult:
    results: dict
    errors: list
    alive: list
    role_cpu: dict = field(default_factory=dict)


class Live(Workload):
    """Source, two stations and a pair-id collator as threads over loopback TCP."""

    def __init__(self, seed: int, sizes: dict, workdir: Path) -> None:
        rng = random.Random(f"live:{seed}")
        self.n = self.pairs = sizes["pairs"]
        self.seed = rng.randrange(2**31)
        self.key_path = workdir / "live-key.json"
        stations.write_key_file(self.key_path, RAD3)
        reference = experiments.run_experiment(ExperimentSpec(
            setting_pairs=((CANONICAL_LEFT, B60),), pairs_per_setting=self.n, seed=self.seed, key=RAD3))
        self.reference_sha = _sha("\n".join(formats.dataset_record_lines(reference)))

    def op(self, tracer=None) -> LiveResult:
        col_sock = stations.make_server_socket()
        src_sock = stations.make_server_socket()
        col = ("127.0.0.1", col_sock.getsockname()[1])
        src = ("127.0.0.1", src_sock.getsockname()[1])
        out = LiveResult(results={}, errors=[], alive=[])
        parent = tracer.current_span() if tracer is not None else None

        def role(name, fn, *args, **kwargs):
            cpu0 = time.thread_time()
            try:
                if tracer is None:
                    out.results[name] = fn(*args, **kwargs)
                else:
                    out.results[name] = tracer.run(f"role.{name}", fn, *args, parent=parent, **kwargs)
            except Exception as exc:  # reported as a failed operation after join
                out.errors.append(f"{name}: {exc!r}")
            finally:
                out.role_cpu[name] = time.thread_time() - cpu0

        roles = {
            "collator": (stations.collator_serve, (), dict(sock=col_sock, match="pair-id", timeout=LIVE_TIMEOUT_S)),
            "source": (stations.source_run, (self.seed, self.n), dict(sock=src_sock, timeout=LIVE_TIMEOUT_S)),
            "L": (stations.station_run, ("L", CANONICAL_LEFT, self.key_path, src, col), dict(timeout=LIVE_TIMEOUT_S)),
            "R": (stations.station_run, ("R", B60, self.key_path, src, col), dict(timeout=LIVE_TIMEOUT_S)),
        }
        threads = [threading.Thread(target=role, args=(name, fn, *args), kwargs=kwargs, daemon=True, name=name)
                   for name, (fn, args, kwargs) in roles.items()]
        for t in threads:
            t.start()
        deadline = time.monotonic() + LIVE_DEADLINE_S
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        out.alive = [t.name for t in threads if t.is_alive()]
        return out

    def check(self, r: LiveResult) -> tuple[list[str], dict]:
        problems = list(r.errors)
        if r.alive:
            problems.append(f"threads still alive after {LIVE_DEADLINE_S} s: {r.alive}")
        col = r.results.get("collator")
        if col is None:
            problems.append("collator returned no result")
            return problems, {}
        if col.partial:
            problems.append("collation marked partial")
        src = r.results.get("source")
        if src is not None and src.status != "complete":
            problems.append(f"source log {src.status}: {src.detail}")
        if col.incomplete:
            problems.append(f"{len(col.incomplete)} incomplete pairs, first {col.incomplete[0]}")
        for side in ("L", "R"):
            log = r.results.get(side)
            if log is not None and log.rejected:
                problems.append(f"station {side} rejected {len(log.rejected)} messages: {log.rejected[0]}")
        live_sha = _sha("\n".join(formats.dataset_record_lines(col.dataset)))
        if live_sha != self.reference_sha:
            problems.append("live data lines differ from the in-process run")
        return problems, {"live.data": live_sha}

    def extras(self, r: LiveResult, op_cpu: float) -> dict[str, float]:
        """Thread CPU per role (the collator gets the process CPU the others did not use)."""
        roles = ("source", "L", "R")
        values = {f"stations.role_cpu_s.{role}": r.role_cpu.get(role, 0.0) for role in roles}
        values["stations.role_cpu_s.collator"] = op_cpu - sum(values.values())
        col = r.results.get("collator")
        values["stations.max_lead"] = max(col.dataset.meta["max_lead"].values()) if col else 0
        values["stations.incomplete"] = len(col.incomplete) if col else 0
        values["stations.rejected"] = sum(len(r.results[s].rejected) for s in ("L", "R") if s in r.results)
        return values


WORKLOADS = {"sweep": Sweep, "suite": Suite, "export": Export, "live": Live}
