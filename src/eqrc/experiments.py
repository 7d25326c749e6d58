"""Orchestration of full two-wing experiment suites.

Every setting pair is first rotated so the left magnet points along
[1, 0] (the idealized form; correlations depend only on the angle
between the magnets, so the rotation changes nothing). Each pair then
gets its own disjoint pair-index range and its own sub-seeded event
stream: three setting-pair experiments mean three separate sample
spaces. A randomly switched run interleaves the same per-pair streams
under a seeded schedule and can be sorted back into its per-pair sets.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .inequalities import InequalityReport, bell_check, chsh_check, wigner_check, cyclic_concatenate
from .model import (
    GaugeKey,
    Setting,
    derive_subseed,
    measure_stream,
    sample_pair_stream,
)
from .stats import ExpectationEstimate, estimate_expectation

__all__ = [
    "CANONICAL_LEFT",
    "BELL_SETTINGS",
    "BELL_PAIRS",
    "CHSH_PAIRS",
    "DEFAULT_SWEEP_STEPS",
    "ExperimentSpec",
    "RunGroup",
    "InterleavedRecords",
    "RunDataset",
    "SweepPoint",
    "rotate_to_canonical",
    "run_experiment",
    "sort_wigner_sets",
    "run_bell_suite",
    "run_chsh_suite",
    "run_wigner_suite",
    "sweep_angle",
]

CANONICAL_LEFT = Setting(1.0, 0.0)

#: The classic three directions at 0, 60 and 120 degrees.
BELL_SETTINGS = (
    Setting(1.0, 0.0),
    Setting(0.5, math.sqrt(3.0) / 2.0),
    Setting(-0.5, math.sqrt(3.0) / 2.0),
)

BELL_PAIRS = (
    (BELL_SETTINGS[0], BELL_SETTINGS[1]),
    (BELL_SETTINGS[0], BELL_SETTINGS[2]),
    (BELL_SETTINGS[1], BELL_SETTINGS[2]),
)

_S = 1.0 / math.sqrt(2.0)
#: Idealized four-pair arrangement maximizing the four-term combination.
CHSH_PAIRS = (
    (CANONICAL_LEFT, Setting(_S, _S)),
    (CANONICAL_LEFT, Setting(_S, -_S)),
    (CANONICAL_LEFT, Setting(_S, -_S)),
    (CANONICAL_LEFT, Setting(-_S, -_S)),
)

DEFAULT_SWEEP_STEPS = 72  # 5-degree resolution

_SCHEDULE_DERIVATION_INDEX = -1  # sub-seed slot reserved for the switching schedule


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: setting pairs, events per pair, seed, gauge key, switching."""

    setting_pairs: tuple[tuple[Setting, Setting], ...]
    pairs_per_setting: int
    seed: int
    key: GaugeKey
    switching: str = "fixed"  # or "random-switched"

    def __post_init__(self) -> None:
        if not self.setting_pairs:
            raise ValueError("at least one setting pair is required")
        for name, least in (("seed", 0), ("pairs_per_setting", 1)):  # what a dataset file's loader takes back
            if type(value := getattr(self, name)) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.switching not in ("fixed", "random-switched"):
            raise ValueError(f"unknown switching mode {self.switching!r}")


@dataclass
class RunGroup:
    """Matched outcomes of one setting-pair experiment (one sample space)."""

    label: str
    left_setting: Setting
    right_setting: Setting
    pair_index: np.ndarray  # int64; ascending except after sequence-order collation
    left: np.ndarray  # int8 outcomes
    right: np.ndarray  # int8 outcomes

    def __len__(self) -> int:
        return len(self.pair_index)

    def products(self) -> np.ndarray:
        return self.left * self.right  # ±1 times ±1 is exact in int8


@dataclass
class InterleavedRecords:
    """Emission-order records of a randomly switched run, tagged by active pair."""

    group_ids: np.ndarray  # int64, index into the spec's setting pairs
    pair_index: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __len__(self) -> int:
        return len(self.group_ids)


@dataclass
class RunDataset:
    """Results of one experiment run.

    Fixed-mode runs carry per-pair groups; randomly switched runs carry
    the interleaved tagged sequence until sorted. No pair index occurs
    twice in the groups, whether in two groups or within one; a group's
    indices need not be ascending. ``spec`` is None for datasets
    reassembled by a collator, which does not know how the events were
    generated.
    """

    canonical_pairs: tuple[tuple[Setting, Setting], ...]
    groups: tuple[RunGroup, ...]
    interleaved: InterleavedRecords | None = None
    spec: ExperimentSpec | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        indices = [g.pair_index for g in self.groups if len(g.pair_index)]
        # Strictly ascending groups whose [first, last] intervals do not
        # overlap are disjoint: O(n) to check, no sort.
        spans = []
        for idx in indices:
            if not np.all(idx[1:] > idx[:-1]):
                break
            spans.append((int(idx[0]), int(idx[-1])))
        else:
            spans.sort()
            if all(prev[1] < nxt[0] for prev, nxt in zip(spans, spans[1:])):
                return
        all_idx = np.sort(np.concatenate(indices))
        if np.any(all_idx[1:] == all_idx[:-1]):
            raise ValueError("pair-index ranges of separate groups must be disjoint")

    def group_expectations(self) -> list[ExpectationEstimate]:
        return [estimate_expectation(g) for g in self.groups]


def rotate_to_canonical(pair: tuple[Setting, Setting]) -> tuple[Setting, Setting]:
    """Rotate a setting pair so the left magnet points along [1, 0].

    The right setting keeps its signed angle to the left one; the new
    components are plain dot/cross products, so the inter-setting angle
    (and with it the predicted correlation) is preserved exactly. A pair
    whose left setting is exactly [1, 0] is returned unchanged; one merely
    close to it is rotated, so the angle stays exact.
    """
    left, right = pair
    if left == CANONICAL_LEFT:
        return (CANONICAL_LEFT, right)
    b2 = left.b2 * right.b2 + left.b3 * right.b3
    b3 = left.b2 * right.b3 - left.b3 * right.b2
    return (CANONICAL_LEFT, Setting(b2, b3))


def _meta() -> dict:
    return {"schema_version": 1, "created": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")}


def run_experiment(spec: ExperimentSpec) -> RunDataset:
    """Run every setting pair of the spec on its own disjoint event stream.

    Group i draws from sub-seed i of the master seed and owns pair
    indices i*N+1 .. (i+1)*N. Random-switched mode additionally shuffles
    a schedule over the exact per-pair quotas (every listed pair occurs
    exactly N times) and reports records in emission order.
    """
    canonical = tuple(rotate_to_canonical(p) for p in spec.setting_pairs)
    n = spec.pairs_per_setting
    groups = []
    for i, (lft, rgt) in enumerate(canonical):
        left, right = measure_stream(rgt, derive_subseed(spec.seed, i), n, spec.key)
        pair_index = np.arange(i * n + 1, (i + 1) * n + 1, dtype=np.int64)
        groups.append(RunGroup(f"pair{i}", lft, rgt, pair_index, left, right))

    if spec.switching == "fixed":
        return RunDataset(canonical_pairs=canonical, groups=tuple(groups), spec=spec, meta=_meta())

    k = len(canonical)
    schedule = np.repeat(np.arange(k, dtype=np.int64), n)
    rng = np.random.Generator(np.random.PCG64(derive_subseed(spec.seed, _SCHEDULE_DERIVATION_INDEX)))
    rng.shuffle(schedule)
    total = k * n
    pair_index = np.empty(total, dtype=np.int64)
    left = np.empty(total, dtype=np.int8)
    right = np.empty(total, dtype=np.int8)
    for i, grp in enumerate(groups):
        slots = np.flatnonzero(schedule == i)
        pair_index[slots] = grp.pair_index
        left[slots] = grp.left
        right[slots] = grp.right
    inter = InterleavedRecords(group_ids=schedule, pair_index=pair_index, left=left, right=right)
    return RunDataset(canonical_pairs=canonical, groups=(), interleaved=inter, spec=spec, meta=_meta())


def sort_wigner_sets(interleaved: RunDataset) -> RunDataset:
    """Partition a randomly switched run back into its per-pair sets.

    Each set is an ordinary separate experiment: outcomes depend only on
    (setting, event, key), so estimates on the sorted sets match a fixed
    run over the same streams exactly.
    """
    inter = interleaved.interleaved
    if inter is None:
        raise ValueError("dataset carries no interleaved records to sort")
    if len(inter) == 0:
        raise ValueError("interleaved dataset is empty")
    k = len(interleaved.canonical_pairs)
    if np.any(inter.group_ids < 0) or np.any(inter.group_ids >= k):
        raise ValueError("interleaved records carry tags outside the spec's setting pairs")
    groups = []
    for i, (lft, rgt) in enumerate(interleaved.canonical_pairs):
        slots = np.flatnonzero(inter.group_ids == i)
        order = slots[np.argsort(inter.pair_index[slots], kind="stable")]
        groups.append(
            RunGroup(
                label=f"pair{i}",
                left_setting=lft,
                right_setting=rgt,
                pair_index=inter.pair_index[order].copy(),
                left=inter.left[order].copy(),
                right=inter.right[order].copy(),
            )
        )
    meta = dict(interleaved.meta)
    meta["sorted_from_switched"] = True
    return RunDataset(
        canonical_pairs=interleaved.canonical_pairs,
        groups=tuple(groups),
        spec=interleaved.spec,
        meta=meta,
    )


def run_bell_suite(seed: int, n: int, key: GaugeKey) -> InequalityReport:
    """Three-pair run at the 0/60/120-degree settings, fed to the three-pair bound."""
    spec = ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=n, seed=seed, key=key)
    ds = run_experiment(spec)
    e_ab, e_ac, e_bc = ds.group_expectations()
    return bell_check(e_ab, e_ac, e_bc, mode="simulated-per-space")


def run_chsh_suite(seed: int, n: int, key: GaugeKey) -> InequalityReport:
    """Four-pair run at the idealized diagonal settings, fed to the four-term bound."""
    spec = ExperimentSpec(setting_pairs=CHSH_PAIRS, pairs_per_setting=n, seed=seed, key=key)
    ds = run_experiment(spec)
    e_ab, e_ac, e_db, e_dc = ds.group_expectations()
    return chsh_check(e_ab, e_ac, e_db, e_dc, mode="simulated-per-space")


def run_wigner_suite(seed: int, n: int, key: GaugeKey, mode: str = "per-space") -> InequalityReport:
    """Equal-count bound at the 0/60/120 settings.

    Per-space mode runs three independent experiments arranged with the
    widest pair on the left-hand side, (a,c) | (a,b) + (b,c); that is the
    arrangement the singlet correlations break. Single-space mode forces
    all three settings onto one stream via the cyclic concatenation,
    which can never break the bound.
    """
    a, b, c = BELL_SETTINGS
    if mode == "per-space":
        spec = ExperimentSpec(
            setting_pairs=((a, c), (a, b), (b, c)),
            pairs_per_setting=n,
            seed=seed,
            key=key,
        )
        ds = run_experiment(spec)
        tallies = []
        for grp in ds.groups:
            prods = grp.products()
            tallies.append((int(np.sum(prods == 1)), len(grp)))
        return wigner_check(tallies, mode="simulated-per-space")
    if mode == "single-space":
        events = sample_pair_stream(derive_subseed(seed, 0), n)
        table = cyclic_concatenate(events, key, (a, c, b))
        return wigner_check(table.equal_tallies(), mode="simulated-single-space")
    raise ValueError(f"unknown wigner mode {mode!r}")


@dataclass(frozen=True)
class SweepPoint:
    theta: float
    estimate: ExpectationEstimate


def sweep_angle(seed: int, n_per_step: int, steps: int, key: GaugeKey) -> list[SweepPoint]:
    """One fixed left setting, many right settings on a uniform angle grid.

    theta_k = 2 pi k / steps for k = 0..steps-1, each step on its own
    sub-seeded stream; the estimates trace the -cos(theta) curve.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    points = []
    for k in range(steps):
        theta = 2.0 * math.pi * k / steps
        l_out, r_out = measure_stream(Setting.from_angle(theta), derive_subseed(seed, k), n_per_step, key)
        grp = SimpleNamespace(left=l_out, right=r_out)  # the estimate reads no pair-index column: none is built
        points.append(SweepPoint(theta=theta, estimate=estimate_expectation(grp)))
    return points
