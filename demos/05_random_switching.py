"""Randomly switched settings sort back into ordinary per-pair experiments.

A switched run measures the three setting pairs under a seeded
schedule that names the active pair at each emission. Sorting back
drops the schedule; the three sets left are exactly the fixed-mode runs
over the same event streams: the outcome functions have no memory, so
the switching order carries no information.
"""

import numpy as np

from eqrc import GaugeKey, estimate_expectation, sort_wigner_sets
from eqrc.experiments import BELL_PAIRS, ExperimentSpec, run_experiment

key = GaugeKey(mode="rademacher", j=3)

# ## A switched three-pair run

switched_spec = ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=50_000,
                               seed=11, key=key, switching="random-switched")
switched = run_experiment(switched_spec)
schedule = switched.schedule
print(f"interleaved records: {len(schedule)}; first ten active pairs: "
      f"{schedule[:10].tolist()}")
counts = np.bincount(schedule, minlength=3)
print(f"per-pair quotas in the schedule: {counts.tolist()}")

# ## Sort into per-pair sets

sorted_ds = sort_wigner_sets(switched)
print("\nafter sorting:")
for grp in sorted_ds.groups:
    est = estimate_expectation(grp)
    print(f"  {grp.label}: right=({grp.right_setting.b2:+.2f},{grp.right_setting.b3:+.2f})"
          f"  n={len(grp)}  E = {est.value:+.4f}")

# ## The sorted sets equal a fixed-mode run over the same streams

fixed = run_experiment(ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=50_000,
                                      seed=11, key=key, switching="fixed"))
same = all(
    np.array_equal(gs.left, gf.left) and np.array_equal(gs.right, gf.right)
    for gs, gf in zip(sorted_ds.groups, fixed.groups)
)
print(f"\nsorted switched run == fixed run, outcome for outcome: {same}")
print("only the randomness BETWEEN measurements differs, and nothing depends on it")
