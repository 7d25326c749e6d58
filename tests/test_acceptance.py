"""Acceptance suite: the ten exit criteria at their stated tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run). Tolerances are fixed here and match
the quoted numbers, not recalibrated.
"""

import csv
import math

import numpy as np

from helpers import run_live
from eqrc.experiments import (
    BELL_SETTINGS,
    CANONICAL_LEFT,
    ExperimentSpec,
    run_bell_suite,
    run_chsh_suite,
    run_experiment,
    sweep_angle,
)
from eqrc.formats import dataset_record_lines, write_sweep_csv
from eqrc.inequalities import bell_check, cyclic_concatenate, cyclic_oracle
from eqrc.model import (
    GaugeKey,
    MODE_CONSTANT,
    MODE_RADEMACHER,
    MODE_RADEMACHER_RARB,
    Setting,
    sample_pair_stream,
)
from eqrc.stats import build_triple_table, estimate_expectation, estimate_marginals
from eqrc import stations as st

N = 1_000_000
TOL = 4.5 / math.sqrt(N)  # 0.0045
ONE = GaugeKey(mode=MODE_CONSTANT)
RAD3 = GaugeKey(mode=MODE_RADEMACHER, j=3)
B60 = Setting(0.5, math.sqrt(3) / 2)


def criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _group(right, n, seed, key):
    spec = ExperimentSpec(setting_pairs=((CANONICAL_LEFT, right),), pairs_per_setting=n,
                          seed=seed, key=key)
    return run_experiment(spec).groups[0]


def test_criterion_01_quantum_correlation_on_angle_grid():
    points = sweep_angle(seed=20260810, n_per_step=N, steps=12, key=RAD3)
    worst = max(abs(p.estimate.value - (-math.cos(p.theta))) for p in points)
    criterion(1, f"|E_sim + cos(theta)| <= {TOL} at 12 grid points, N={N}",
              worst <= TOL, f"worst deviation {worst:.5f}")


def test_criterion_02_marginals():
    worst = 0.0
    for j in range(1, 7):
        grp = _group(B60, N, seed=100 + j, key=GaugeKey(mode=MODE_RADEMACHER, j=j))
        e_left, e_right = estimate_marginals(grp)
        worst = max(worst, abs(e_left.value), abs(e_right.value))
    grp_one = _group(B60, 200_000, seed=3, key=ONE)
    left_exact, _ = estimate_marginals(grp_one)
    ok = worst <= TOL and left_exact.value == 1.0
    criterion(2, f"|E_L|, |E_R| <= {TOL} for j=1..6 at N={N}; identity gauge gives E_L = +1 exactly",
              ok, f"worst marginal {worst:.5f}, exact left {left_exact.value}")


def test_criterion_03_perfect_anticorrelation():
    keys = [ONE, RAD3, GaugeKey(mode=MODE_RADEMACHER_RARB, j=2, rarb_seed=17)]
    ok = True
    for seed, key in zip((0, 123, 2026), keys):
        grp = _group(Setting(1, 0), N, seed=seed, key=key)
        ok = ok and bool(np.all(grp.products() == -1))
    criterion(3, f"equal settings give product -1 on every one of N={N} pairs, any gauge and seed", ok)


def test_criterion_04_bell_violation_per_space():
    rep = run_bell_suite(seed=42, n=N, key=RAD3)
    gap = rep.lhs - rep.rhs
    sigma = rep.separation_sigma()
    ok = rep.violated and gap >= 0.4 and rep.lhs_std_error > 0
    criterion(4, "three-pair bound broken by >= 0.4 at the 0/60/120 settings",
              ok, f"lhs-rhs = {gap:.4f} = {sigma:.0f} sigma")


def test_criterion_05_chsh_at_idealized_pairs():
    rep = run_chsh_suite(seed=42, n=N, key=RAD3)
    target = 2.0 * math.sqrt(2.0)
    ok = rep.violated and abs(rep.lhs - target) <= 0.01
    criterion(5, f"four-term combination within {target:.4f} +/- 0.01 and violated",
              ok, f"lhs = {rep.lhs:.4f}")


def test_criterion_06_triple_probabilities():
    events = sample_pair_stream(7, N)
    f1 = build_triple_table("abc'", events, RAD3, BELL_SETTINGS).fraction((1, 1, 1))
    f2 = build_triple_table("ab'c", events, RAD3, BELL_SETTINGS).fraction((1, 1, 1))
    sigma = math.sqrt(f1 * (1 - f1) / N + f2 * (1 - f2) / N)
    ok = abs(f1 - 0.375) <= 0.005 and abs(f2 - 0.125) <= 0.005 and (f1 - f2) / sigma > 4.0
    criterion(6, "all-plus fractions 0.375 +/- 0.005 and 0.125 +/- 0.005, difference > 4 sigma",
              ok, f"f1 = {f1:.4f}, f2 = {f2:.4f}, {(f1 - f2) / sigma:.0f} sigma apart")


def test_criterion_07_cyclic_never_violates():
    oracle_ok = all(row.satisfied for row in cyclic_oracle())
    violations = 0
    for seed in range(100):
        table = cyclic_concatenate(sample_pair_stream(seed, 10_000), RAD3, BELL_SETTINGS)
        rep = bell_check(*table.pair_expectations(), mode="simulated-single-space")
        violations += rep.violated
    ok = oracle_ok and violations == 0
    criterion(7, "8/8 assignments satisfy the bound; 100 seeded single-space runs never violate",
              ok, f"violations = {violations}")


def test_criterion_08_distributed_equivalence(tmp_path):
    n, seed = 20_000, 42
    key_path = tmp_path / "key.json"
    st.write_key_file(key_path, RAD3)
    results = run_live(seed=seed, count=n, key=RAD3, right_setting=B60, key_path=key_path)
    live_lines = list(dataset_record_lines(results["collator"].dataset))
    spec = ExperimentSpec(setting_pairs=((CANONICAL_LEFT, B60),), pairs_per_setting=n,
                          seed=seed, key=RAD3)
    local_lines = list(dataset_record_lines(run_experiment(spec)))
    ok = live_lines == local_lines
    criterion(8, f"live source + 2 stations + collator dataset is bit-identical to the in-process run (N={n})",
              ok, f"{len(live_lines)} payload lines compared")


def test_criterion_09_pairing_fragility():
    grp = _group(B60, N, seed=77, key=RAD3)
    lb, rb = st.station_batches(grp)
    lb_faulty = st.inject_fault("drop", N // 2, lb)

    seq = st.collate(lb_faulty, rb, strategy="sequence-order").dataset.groups[0]
    tail = seq.products()[N // 2 :]
    tail_e = abs(float(np.mean(tail)))

    res = st.collate(lb_faulty, rb, strategy="pair-id")
    pid_e = estimate_expectation(res.dataset.groups[0]).value
    ok = tail_e < 0.1 and abs(pid_e - (-0.5)) <= TOL and len(res.incomplete) == 1
    criterion(9, "one dropped report: sequence matching decorrelates the tail, pair-id matching does not",
              ok, f"|E_tail| = {tail_e:.4f}, pair-id E = {pid_e:.4f}")


def test_criterion_10_sweep_shape(tmp_path):
    points = sweep_angle(seed=20260810, n_per_step=N, steps=72, key=RAD3)
    path = tmp_path / "sweep.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(points, fh)
    rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
    assert len(rows) == 72
    worst = max(abs(float(r["expectation"]) - (-math.cos(float(r["theta_radians"])))) for r in rows)
    ok = worst <= TOL
    criterion(10, f"72-step sweep CSV matches -cos(theta) pointwise within {TOL}",
              ok, f"worst deviation {worst:.5f}")
