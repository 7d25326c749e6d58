"""Simulation laboratory for two-wing spin-correlation experiments.

A strictly local outcome model (per-wing functions of the local setting,
the emitted pair, and a shared gauge key) that reproduces the singlet
correlation -a.b, evaluators for the Bell, CHSH, and equal-count
(Wigner-d'Espagnat) inequalities on both correctly constructed
per-experiment datasets and the incorrect single-space cyclic
construction, and a distributed two-station harness with
schema-enforced locality.
"""

from .model import (
    GaugeKey,
    MODE_CONSTANT,
    MODE_RADEMACHER,
    MODE_RADEMACHER_RARB,
    PairStream,
    Setting,
    derive_subseed,
    gauge_eval,
    measure_left,
    measure_pairs,
    measure_right,
    measure_stream,
    outcome_columns,
    rademacher,
    rarb_eval,
    sample_pair_stream,
)
from .stats import (
    ExpectationEstimate,
    TripleTable,
    build_triple_table,
    estimate_expectation,
    estimate_marginals,
)
from .inequalities import (
    CyclicTable,
    InequalityReport,
    analytic_expectation,
    bell_check,
    chsh_check,
    cyclic_concatenate,
    cyclic_oracle,
    wigner_check,
)
from .experiments import (
    BELL_PAIRS,
    BELL_SETTINGS,
    CANONICAL_LEFT,
    CHSH_PAIRS,
    ExperimentSpec,
    RunDataset,
    RunGroup,
    SweepPoint,
    rotate_to_canonical,
    run_bell_suite,
    run_chsh_suite,
    run_experiment,
    run_wigner_suite,
    sort_wigner_sets,
    sweep_angle,
)

__version__ = "0.1.0"
