"""Steadiness procedure: repeat each workload and report the spread of every metric.

    python3 perfbench/steady.py --runs 10 --seed0 1000
    python3 perfbench/steady.py --runs 5 --workloads live --seconds 10

Runs ``run.py`` once per seed (``seed0``, ``seed0 + 1``, ...) for each
workload, each in a fresh process, and prints for every end-to-end metric
the median, the first and third quartiles (``statistics.quantiles`` with
n=4) and the spread, the quartile distance as a share of the median. A
spread is marked ``ok`` when it is below a third of the metric's bound in
``BENCHMARK.json``; ``setup_s`` has no spread requirement. The last line
is the whole table as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text()) if (run.ROOT / "BENCHMARK.json").is_file() else {}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK.get("workloads", []))
                        or ",".join(run.WORKLOAD_NAMES))
    parser.add_argument("--seconds", type=float, default=BENCHMARK.get("run_seconds", 20))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK.get("end_to_end", [])}
    table: dict[str, dict] = {}
    all_ok = True
    for workload in args.workloads.split(","):
        samples: dict[str, list[float]] = {}
        failed = attempted = 0
        for i in range(args.runs):
            _, line = run.run_subprocess(workload, args.seed0 + i, args.seconds, trace=False)
            failed += line["failed"]
            attempted += line["attempted"]
            for name, m in line["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {args.seed0 + i}: "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in samples.items()), file=sys.stderr, flush=True)
        rows = {}
        for name, values in samples.items():
            row = summarize(values)
            bound = bounds.get(name)
            row["bound"] = bound
            row["ok"] = name == "setup_s" or (bound is not None and row["spread"] < bound / 3)
            all_ok &= row["ok"]
            rows[name] = row
            print(f"{workload:7s} {name:12s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f} bound {bound} {'ok' if row['ok'] else 'TOO WIDE'}")
        table[workload] = {"failed": failed, "attempted": attempted, "metrics": rows}
        all_ok &= failed == 0
    print(json.dumps({"ok": all_ok, "runs": args.runs, "seed0": args.seed0, "seconds": args.seconds,
                      "workloads": table}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
