"""Command-line front door.

Subcommands: run, sweep, bell, chsh, wigner, triples, cyclic-demo,
source, station, collate, keygen. Tables and sweeps are CSV; datasets
and inequality reports are JSON-lines. Inequality commands print their
report as one JSON object (including "violated": true/false) and exit 0.
Exit codes: 0 success, 1 usage error, 2 runtime error. EQRC_SEED serves
as the default seed when --seed is omitted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import experiments, formats, inequalities, stations
from .model import GaugeKey, MODE_CONSTANT, MODE_RADEMACHER, MODE_RADEMACHER_RARB, Setting, run_range
from .stats import TRIPLE_KINDS, build_triple_table

__all__ = ["main", "DEFAULT_SEED", "DEFAULT_GAUGE"]

DEFAULT_SEED = 12345
DEFAULT_GAUGE = "rademacher:j=3"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _seed_of(args) -> int:
    """--seed, else EQRC_SEED, else ``DEFAULT_SEED``; a usage error unless an integer >= 0."""
    seed, env = args.seed, os.environ.get("EQRC_SEED")
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"EQRC_SEED must be an integer, got {env!r}") from None
    if (seed := DEFAULT_SEED if seed is None else seed) < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return seed


def _at_least(least: int, most: int | None = None):
    """An argparse type: an integer >= ``least`` (and <= ``most``, if given), so a bad count or port is a
    usage error before a command starts or binds."""
    def count(text: str) -> int:
        if (value := int(text)) < least or most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}" if most is None
                                             else f"must be in {least}..{most}, got {value}")
        return value
    return count


_PORT = _at_least(0, 65535)  # 0: any free port


def parse_setting(text: str) -> Setting:
    try:
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 2:
            raise ValueError("need exactly two components")
        return Setting(parts[0], parts[1])
    except ValueError as exc:
        raise UsageError(f"invalid setting vector {text!r}: {exc}") from None


def parse_gauge(text: str) -> GaugeKey:
    try:
        if text == "one":
            return GaugeKey(mode=MODE_CONSTANT)
        name, _, params = text.partition(":")
        fields = {}
        if params:
            for item in params.split(","):
                k, _, v = item.partition("=")
                fields[k] = int(v)
        if name == "rademacher":
            return GaugeKey(mode=MODE_RADEMACHER, j=fields.pop("j", 1), **fields)
        if name == "rademacher-rarb":
            return GaugeKey(mode=MODE_RADEMACHER_RARB, j=fields.pop("j", 1),
                            rarb_seed=fields.pop("seed"), **fields)
        raise ValueError(f"unknown gauge name {name!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(
            f"invalid gauge spec {text!r} (expected one | rademacher:j=K | rademacher-rarb:j=K,seed=S): {exc}"
        ) from None


def parse_hostport(text: str) -> tuple[str, int]:
    """An argparse type: HOST:PORT with PORT in 1..65535, an endpoint a station can dial."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or not 1 <= int(port) <= 65535:
        raise argparse.ArgumentTypeError(f"invalid endpoint {text!r}, expected HOST:PORT with PORT in 1..65535")
    return host, int(port)


def parse_inject(text: str) -> tuple[str, int]:
    kind, _, pos = text.partition("@")
    if kind not in ("drop", "duplicate", "reorder") or not pos.removeprefix("-").isdecimal():
        raise UsageError(f"invalid fault spec {text!r}, expected kind@position")
    return kind, int(pos)


def _add_common(p: argparse.ArgumentParser, pairs_default: int = 1_000_000, least: int = 1) -> None:
    p.add_argument("-n", "--n", "--pairs", dest="pairs", type=_at_least(least), default=pairs_default,
                   help=f"events per setting pair (default {pairs_default})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default: EQRC_SEED or {DEFAULT_SEED})")
    p.add_argument("--gauge", default=DEFAULT_GAUGE,
                   help=f"gauge key: one | rademacher:j=K | rademacher-rarb:j=K,seed=S (default {DEFAULT_GAUGE})")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


@functools.cache  # one parser per process: building it costs about 2 ms, and parsing leaves it as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="eqrc", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("run", help="one setting-pair experiment; estimate as CSV or dataset as JSONL")
    _add_common(p)
    p.add_argument("--left", default="1,0", help="left setting b2,b3 (default 1,0; canonicalized)")
    p.add_argument("--right", default="0.5,0.8660254037844386", help="right setting b2,b3")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                   help="csv: estimate row; jsonl: full dataset")

    p = sub.add_parser("sweep", help="fixed left wing, right setting swept over an angle grid (CSV)")
    _add_common(p, pairs_default=100_000)
    p.add_argument("--steps", type=_at_least(2), default=experiments.DEFAULT_SWEEP_STEPS,
                   help=f"grid points on [0, 2pi) (default {experiments.DEFAULT_SWEEP_STEPS})")

    p = sub.add_parser("bell", help="three-pair suite at the 0/60/120 settings")
    _add_common(p)

    p = sub.add_parser("chsh", help="four-pair suite at the idealized diagonal settings")
    _add_common(p)

    p = sub.add_parser("wigner", help="equal-count bound, per-space and/or single-space")
    _add_common(p)
    p.add_argument("--mode", choices=("per-space", "single-space", "both"), default="both")

    p = sub.add_parser("triples", help="the two appended-column triple tables from one stream")
    _add_common(p)

    p = sub.add_parser("cyclic-demo", help="eight-assignment oracle table; optional simulated check")
    _add_common(p, pairs_default=0, least=0)  # 0: no simulated check

    p = sub.add_parser("source", help="pair source process (listens; streams to both stations)")
    p.add_argument("--port", type=_PORT, required=True)
    p.add_argument("--pairs", "-n", "--n", dest="pairs", type=_at_least(0), required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--session", type=_at_least(0), default=0, help="session index (disjoint pair-index ranges)")
    p.add_argument("--out", default=None, help="emission log path (JSONL)")

    p = sub.add_parser("station", help="measurement station process (dials source and collator)")
    p.add_argument("--station", choices=("L", "R"), required=True)
    p.add_argument("--setting", default="1,0", help="own setting b2,b3")
    p.add_argument("--key", required=True, help="gauge key file (out-of-band)")
    p.add_argument("--source", type=parse_hostport, required=True, help="source endpoint HOST:PORT")
    p.add_argument("--collator", type=parse_hostport, required=True, help="collator endpoint HOST:PORT")
    p.add_argument("--out", default=None, help="report log path (JSONL)")

    p = sub.add_parser("collate", help="join reports: live (--port) or from report logs")
    p.add_argument("--port", type=_PORT, default=None, help="listen for both stations")
    p.add_argument("--left", default=None, help="L report log (offline mode)")
    p.add_argument("--right", default=None, help="R report log (offline mode)")
    p.add_argument("--match", choices=("pair-id", "sequence"), default="pair-id")
    p.add_argument("--inject", default=None, help="fault kind@position applied before joining")
    p.add_argument("--inject-station", choices=("L", "R"), default=None, help="report log --inject edits (default L)")
    p.add_argument("--emissions", default=None, help="emission log for gap accounting")
    p.add_argument("--out", default=None, help="dataset path (JSONL)")

    p = sub.add_parser("keygen", help="write a gauge key file")
    p.add_argument("--gauge", default=DEFAULT_GAUGE)
    p.add_argument("--out", required=True)

    return parser


@contextlib.contextmanager
def _output(path: str | None):
    """The text stream an output goes to: stdout, or the file at ``path``, which gets the same bytes."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _report_out(reports, out: str | None) -> None:
    for rep in reports:
        print(json.dumps(rep.to_json(), sort_keys=True))
    if out is not None:
        with _output(out) as fh:
            formats.write_reports_jsonl(reports, fh)


def cmd_run(args) -> int:
    key = parse_gauge(args.gauge)
    left = parse_setting(args.left)
    right = parse_setting(args.right)
    if not left.close_to(experiments.CANONICAL_LEFT):
        print("notice: left setting rotated to the [1, 0] reference; "
              "the inter-setting angle is preserved", file=sys.stderr)
    spec = experiments.ExperimentSpec(
        setting_pairs=((left, right),), pairs_per_setting=args.pairs,
        seed=_seed_of(args), key=key,
    )
    ds = experiments.run_experiment(spec)
    with _output(args.out) as fh:
        if args.format == "jsonl":  # streamed block by block, never held whole
            fh.writelines(block.decode("ascii") for block in formats.run_dataset_blocks(ds))
            return 0
        est = ds.group_expectations()[0]
        lft, rgt = ds.canonical_pairs[0]
        row = {
            "left_b2": lft.b2, "left_b3": lft.b3, "right_b2": rgt.b2, "right_b3": rgt.b3,
            "n": est.n_samples, "expectation": est.value, "std_error": est.std_error,
            "seed": spec.seed, "gauge": args.gauge,
        }
        formats.write_expectation_csv([row], fh)
    return 0


def cmd_sweep(args) -> int:
    points = experiments.sweep_angle(_seed_of(args), args.pairs, args.steps, parse_gauge(args.gauge))
    with _output(args.out) as fh:
        formats.write_sweep_csv(points, fh)
    return 0


def cmd_suite(args) -> int:  # bell or chsh
    suite = {"bell": experiments.run_bell_suite, "chsh": experiments.run_chsh_suite}[args.command]
    _report_out([suite(_seed_of(args), args.pairs, parse_gauge(args.gauge))], args.out)
    return 0


def cmd_wigner(args) -> int:
    modes = ("per-space", "single-space") if args.mode == "both" else (args.mode,)
    reps = [experiments.run_wigner_suite(_seed_of(args), args.pairs, parse_gauge(args.gauge), mode=m)
            for m in modes]
    _report_out(reps, args.out)
    return 0


def cmd_triples(args) -> int:
    seed, key = _seed_of(args), parse_gauge(args.gauge)
    cyclic = inequalities.cyclic_concatenate(seed, args.pairs, key, experiments.BELL_SETTINGS)
    tables = [build_triple_table(kind, cyclic) for kind in TRIPLE_KINDS]
    for table in tables:
        print(f"{table.kind} fraction(+1,+1,+1) = {table.fraction((1, 1, 1))!r}  (n={table.total})")
    if args.out is not None:
        with _output(args.out) as fh:
            formats.write_triple_csv(tables, fh)
    return 0


def cmd_cyclic_demo(args) -> int:
    seed, key, reports = _seed_of(args), parse_gauge(args.gauge), []  # a bad seed or gauge fails before any output
    if args.pairs:
        table = inequalities.cyclic_concatenate(seed, args.pairs, key, experiments.BELL_SETTINGS)
        reports.append(inequalities.bell_check(*table.pair_expectations(), mode="simulated-single-space"))
    rows = inequalities.cyclic_oracle()
    print("assignment  lhs  rhs  satisfied")
    for row in rows:
        sa, sb, sc = row.assignment
        print(f"({sa:+d},{sb:+d},{sc:+d})   {row.lhs}    {row.rhs}    {row.satisfied}")
    print(f"satisfied: {sum(r.satisfied for r in rows)}/8")
    if reports:
        _report_out(reports, args.out)
    return 0


def cmd_source(args) -> int:
    try:
        run_range(args.session, args.pairs)
    except ValueError as exc:
        raise UsageError(f"session {args.session} of {args.pairs} pairs: {exc}") from None
    log = stations.source_run(
        seed=_seed_of(args), count=args.pairs, sock=stations.make_server_socket("127.0.0.1", args.port),
        session_index=args.session, log_path=args.out,
    )
    print(json.dumps({"sent": len(log.emissions), "status": log.status}, sort_keys=True))
    return 0


def cmd_station(args) -> int:
    log = stations.station_run(
        station_id=args.station, setting=parse_setting(args.setting), key_path=args.key,
        source=args.source, collator=args.collator, log_path=args.out,
    )
    print(json.dumps({"station": log.station, "reports": len(log.reports),
                      "rejected": len(log.rejected)}, sort_keys=True))
    return 0


def cmd_collate(args) -> int:
    strategy = "sequence-order" if args.match == "sequence" else "pair-id"
    if (args.port is None) == (args.left is None and args.right is None):
        raise UsageError("collate needs either --port (live) or --left/--right report logs")
    fault = None if args.inject is None else parse_inject(args.inject)
    if args.inject_station is not None and fault is None:  # with --port, --inject is refused below
        raise UsageError("--inject-station picks the report log that --inject edits; it needs --inject")
    if args.port is not None:
        if fault is not None or args.emissions is not None:
            raise UsageError("--inject and --emissions apply to offline collation from report logs, not --port")
        result = stations.collator_serve(stations.make_server_socket("127.0.0.1", args.port), match=strategy)
    else:
        if args.left is None or args.right is None:
            raise UsageError("offline collation needs both --left and --right report logs")
        left = formats.load_report_log(args.left)
        right = formats.load_report_log(args.right)
        with open(args.left, encoding="utf-8") as lfh, open(args.right, encoding="utf-8") as rfh:  # checked by the loads
            if json.loads(lfh.readline())["key_digest"] != json.loads(rfh.readline())["key_digest"]:
                raise stations.CollationError("gauge key digests differ between stations; refusing to collate")
        if fault is not None:
            if args.inject_station == "R":
                right = stations.inject_fault(*fault, right)
            else:
                left = stations.inject_fault(*fault, left)
        emission_log = formats.load_emission_log(args.emissions) if args.emissions else None
        result = stations.collate(left, right, strategy=strategy, emission_log=emission_log)
    if args.out is not None:
        formats.write_run_dataset(result.dataset, args.out)
    grp = result.dataset.groups[0]
    summary = {
        "strategy": result.strategy,
        "pairs": len(grp),
        "incomplete": list(result.incomplete),
        "expectation": int(np.sum(grp.products())) / len(grp) if len(grp) else None,  # None: no pair matched
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_keygen(args) -> int:
    stations.write_key_file(args.out, parse_gauge(args.gauge))
    print(f"wrote gauge key to {args.out}")
    return 0


_HANDLERS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "bell": cmd_suite,
    "chsh": cmd_suite,
    "wigner": cmd_wigner,
    "triples": cmd_triples,
    "cyclic-demo": cmd_cyclic_demo,
    "source": cmd_source,
    "station": cmd_station,
    "collate": cmd_collate,
    "keygen": cmd_keygen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("eqrc: a command is required", file=sys.stderr)
            return 1
        return _HANDLERS[args.command](args)
    except (UsageError, stations.KeyFileError) as exc:
        print(f"eqrc: {exc}", file=sys.stderr)
        return 1
    except (ValueError, stations.CollationError, stations.ProtocolError, OSError) as exc:
        print(f"eqrc: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
