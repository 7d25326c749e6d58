"""Why the bounds hold on one probability space and fail on three.

Forcing all three settings onto the SAME hidden-variable draw (one row
per draw, three columns) creates a closed loop: two columns fix the
sign of the third pairwise product. Every such row satisfies the
three-pair bound with zero slack, so no average over rows can break it.
Three separate experiments are under no such constraint.

The appended-column triple tables show the same thing as probabilities:
the two triples tallied from one single-space table carry different measures
(all-plus fractions 3/8 vs 1/8), so no single joint distribution covers
both.
"""

from eqrc import (
    GaugeKey,
    bell_check,
    build_triple_table,
    cyclic_concatenate,
    cyclic_oracle,
)
from eqrc.experiments import BELL_SETTINGS, run_bell_suite, run_wigner_suite

key = GaugeKey(mode="rademacher", j=3)
a, b, c = BELL_SETTINGS

# ## The eight-case oracle: a single space can never violate

print("assignment   |p_ab - p_ac|   1 + p_bc   satisfied")
for row in cyclic_oracle():
    sa, sb, sc = row.assignment
    print(f"({sa:+d},{sb:+d},{sc:+d})        {row.lhs}             {row.rhs}        {row.satisfied}")

# ## Simulated: one space vs three spaces

table = cyclic_concatenate(seed=5, count=100_000, key=key, settings=BELL_SETTINGS)
single = bell_check(*table.pair_expectations(), mode="simulated-single-space")
print(f"\nsingle space (same lam, t for all settings): lhs = {single.lhs:.4f}, "
      f"rhs = {single.rhs:.4f}, violated = {single.violated}")

per_space = run_bell_suite(seed=5, n=100_000, key=key)
print(f"three spaces (one per setting pair):         lhs = {per_space.lhs:.4f}, "
      f"rhs = {per_space.rhs:.4f}, violated = {per_space.violated}")

# ## Equal-count form of the same contrast

w_per = run_wigner_suite(seed=5, n=100_000, key=key, mode="per-space")
w_one = run_wigner_suite(seed=5, n=100_000, key=key, mode="single-space")
print(f"\nequal-count bound, per-space:    {w_per.lhs:.4f} <= {w_per.rhs:.4f} ? "
      f"violated = {w_per.violated}")
print(f"equal-count bound, single-space: {w_one.lhs:.4f} <= {w_one.rhs:.4f} ? "
      f"violated = {w_one.violated}")

# ## Triple tables: each triple brings its own measure

# Both tables are tallies of one single-space table over 500,000 pairs of one seeded stream.
triples = cyclic_concatenate(seed=7, count=500_000, key=key, settings=BELL_SETTINGS)
t1 = build_triple_table("abc'", triples)
t2 = build_triple_table("ab'c", triples)
print(f"\nfraction(+1,+1,+1): abc' table {t1.fraction((1, 1, 1)):.4f} (3/8 = 0.375),"
      f" ab'c table {t2.fraction((1, 1, 1)):.4f} (1/8 = 0.125)")
print("same event stream, same gauge; the two triples do not share a joint measure")
