"""The local model reproduces the singlet correlation curve E = -cos(theta).

Both wings act on the same emitted pair (hidden variable lam, time
parameter t) using only their own magnet setting and a shared gauge key.
No message passes between them, yet the product of their outcomes
averages to minus the cosine of the angle between the settings.
"""

import math

import numpy as np

from eqrc import (
    GaugeKey,
    Setting,
    analytic_expectation,
    estimate_expectation,
    measure_left,
    measure_pairs,
    measure_right,
    sample_pair_stream,
    sweep_angle,
)
from eqrc.experiments import CANONICAL_LEFT, ExperimentSpec, run_experiment

# ## One pair at a time

key = GaugeKey(mode="rademacher", j=3)
events = sample_pair_stream(seed=1, count=5)
b = Setting(0.5, math.sqrt(3) / 2)  # 60 degrees from the left wing's reference

print("five pairs, measured wing by wing:")
l_col = measure_left(CANONICAL_LEFT, events, key)  # each wing: one int8 column from its own setting
r_col = measure_right(b, events, key)
for n, lam, t, l_out, r_out in zip(*(col.tolist() for col in (events.n, events.lam, events.t, l_col, r_col))):
    print(f"  pair {n}: lam={lam:.3f} t={t:.3f}  ->  L={l_out:+d}  R={r_out:+d}  product={l_out * r_out:+d}")

# ## A full run at one angle

spec = ExperimentSpec(setting_pairs=((CANONICAL_LEFT, b),), pairs_per_setting=200_000, seed=7, key=key)
group = run_experiment(spec).groups[0]
est = estimate_expectation(group)
print(f"\nN={est.n_samples}: E = {est.value:+.4f} +/- {est.std_error:.4f}"
      f"   (prediction {analytic_expectation(CANONICAL_LEFT, b):+.4f})")

# ## The whole curve

print("\nsweeping the right setting around the circle:")
print(f"{'theta':>8}  {'E simulated':>12}  {'-cos(theta)':>12}")
for p in sweep_angle(seed=42, n_per_step=100_000, steps=12, key=key):
    print(f"{p.theta:8.3f}  {p.estimate.value:+12.4f}  {-math.cos(p.theta):+12.4f}")

# ## Marginals vanish under a balanced gauge

l_out, r_out = measure_pairs(b, sample_pair_stream(seed=9, count=500_000), key)
print(f"\nsingle-wing means: left {float(np.mean(l_out)):+.4f}, right {float(np.mean(r_out)):+.4f}"
      "   (both -> 0)")
