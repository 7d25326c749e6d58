"""Orchestration of full two-wing experiment suites.

Every setting pair is first rotated so the left magnet points along
[1, 0] (the idealized form; correlations depend only on the angle
between the magnets, so the rotation changes nothing). Each pair then
gets its own disjoint pair-index range and its own sub-seeded event
stream: three setting-pair experiments mean three separate sample
spaces. A randomly switched run is the same per-pair groups plus a
seeded schedule of the pair active at each emission; sorting it back
into its per-pair sets drops the schedule.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .inequalities import InequalityReport, bell_check, chsh_check, wigner_check, cyclic_concatenate
from .model import BLOCK_PAIRS, GaugeKey, Setting, derive_subseed, measure_stream, run_range
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
# Schedule ids counted or records interleaved at a time: a piece's slots take at most 256 KiB.
_PIECE = 4 * BLOCK_PAIRS


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
        run_range(len(self.setting_pairs) - 1, self.pairs_per_setting)  # the last group's pair indices


@dataclass
class RunGroup:
    """Matched outcomes of one setting-pair experiment (one sample space), by ascending pair index; in emission
    order in a switched run (a run's own ascend too), and in arrival order after sequence-order collation."""

    label: str
    left_setting: Setting
    right_setting: Setting
    pair_index: np.ndarray  # int64
    left: np.ndarray  # int8 outcomes
    right: np.ndarray  # int8 outcomes

    def __post_init__(self) -> None:
        if not len(self.pair_index) == len(self.left) == len(self.right):
            raise ValueError(f"group {self.label} columns pair_index, left and right are of lengths "
                             f"{len(self.pair_index)}, {len(self.left)} and {len(self.right)}")

    def __len__(self) -> int:
        return len(self.pair_index)

    def products(self) -> np.ndarray:
        return self.left * self.right  # ±1 times ±1 is exact in int8


@dataclass
class InterleavedRecords:
    """Emission-order records of a randomly switched run, tagged by active pair (see ``RunDataset.interleaved``)."""

    group_ids: np.ndarray  # index into the spec's k setting pairs, of id_dtype(k): uint8 up to 256 pairs
    pair_index: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __len__(self) -> int:
        return len(self.group_ids)

    @staticmethod
    def id_dtype(k: int) -> np.dtype:
        """The narrowest unsigned dtype that holds every id 0 .. k-1."""
        return np.min_scalar_type(k - 1)


@dataclass
class RunDataset:
    """Results of one experiment run: one group per setting pair.

    A randomly switched run adds its ``schedule``, the group id at each
    emission (of ``InterleavedRecords.id_dtype``), and keeps each group
    in emission order: id i occurs exactly ``len(groups[i])`` times. No
    pair index occurs twice in the groups, whether in two groups or
    within one. ``spec`` is None for datasets reassembled by a collator,
    which does not know how the events were generated.
    """

    canonical_pairs: tuple[tuple[Setting, Setting], ...]
    groups: tuple[RunGroup, ...]
    schedule: np.ndarray | None = None
    spec: ExperimentSpec | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (ids := self.schedule) is not None:
            sizes = [len(g) for g in self.groups]
            if len(ids) and (ids.min() < 0 or ids.max() >= len(sizes)):
                raise ValueError(f"schedule ids outside 0 .. {len(sizes) - 1}, the groups' own")
            counts = np.zeros(len(sizes), np.int64)
            for lo in range(0, len(ids), _PIECE):  # a piece at a time: bincount takes its input as intp, 8 B per id
                counts += np.bincount(ids[lo:lo + _PIECE], minlength=len(sizes))
            if counts.tolist() != sizes:
                raise ValueError(f"schedule ids counted {counts.tolist()}, not the groups' sizes {sizes}")
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
        repeats = all_idx[1:][all_idx[1:] == all_idx[:-1]]
        if repeats.size:
            raise ValueError(f"pair index {repeats[0]} occurs twice in the groups")

    @property
    def interleaved(self) -> InterleavedRecords | None:
        """A switched run's records in emission order, built anew a piece of the schedule at a time; else None."""
        if (ids := self.schedule) is None:
            return None
        columns, done = [np.empty(len(ids), dtype) for dtype in (np.int64, np.int8, np.int8)], [0] * len(self.groups)
        for lo in range(0, len(ids), _PIECE):
            piece, views = ids[lo:lo + _PIECE], [col[lo:lo + _PIECE] for col in columns]
            for i, g in enumerate(self.groups):
                slots = np.flatnonzero(piece == i)
                for view, src in zip(views, (g.pair_index, g.left, g.right)):
                    view[slots] = src[done[i]:done[i] + len(slots)]
                done[i] += len(slots)
        if done != [len(g) for g in self.groups]:  # a schedule changed since construction
            raise ValueError("schedule does not place every record of the groups")
        return InterleavedRecords(ids, *columns)

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
    indices i*N+1 .. (i+1)*N (``run_range``). A random-switched run adds
    a schedule of group ids over the exact per-pair quotas (every listed pair occurs
    exactly N times), shuffled by sub-seed -1: group i is emitted in
    order at the slots of id i.
    """
    canonical = tuple(rotate_to_canonical(p) for p in spec.setting_pairs)
    n, k = spec.pairs_per_setting, len(canonical)
    groups = []
    for i, (lft, rgt) in enumerate(canonical):
        left, (right,) = measure_stream(derive_subseed(spec.seed, i), n, spec.key, (rgt,))
        np.negative(right, out=right)  # the right wing reports -A(b)
        span = run_range(i, n)
        groups.append(RunGroup(f"pair{i}", lft, rgt, np.arange(span.start, span.stop, dtype=np.int64), left, right))
    schedule = None
    if spec.switching == "random-switched":
        schedule = np.repeat(np.arange(k, dtype=InterleavedRecords.id_dtype(k)), n)
        np.random.Generator(np.random.PCG64(derive_subseed(spec.seed, _SCHEDULE_DERIVATION_INDEX))).shuffle(schedule)
    return RunDataset(canonical_pairs=canonical, groups=tuple(groups), schedule=schedule, spec=spec, meta=_meta())


def sort_wigner_sets(switched: RunDataset) -> RunDataset:
    """Partition a randomly switched run back into its per-pair sets.

    Each set is an ordinary separate experiment: outcomes depend only on
    (setting, event, key), so estimates on the sorted sets match a fixed
    run over the same streams exactly. The result is the run's groups
    less the schedule, ``meta`` marked ``sorted_from_switched``. A set
    is in pair index order, ties in emission order: a group out of that
    order is sorted stably, and any other (as a run's all are) is the
    run's own, so the result shares its arrays.
    """
    if switched.schedule is None or not len(switched.schedule):
        raise ValueError("dataset carries no switched records to sort back")
    groups = []
    for g in switched.groups:
        if np.any(g.pair_index[1:] < g.pair_index[:-1]):
            order = np.argsort(g.pair_index, kind="stable")
            g = RunGroup(g.label, g.left_setting, g.right_setting, g.pair_index[order], g.left[order], g.right[order])
        groups.append(g)
    return RunDataset(canonical_pairs=switched.canonical_pairs, groups=tuple(groups), spec=switched.spec,
                      meta={**switched.meta, "sorted_from_switched": True})


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
        ds = run_experiment(ExperimentSpec(setting_pairs=((a, c), (a, b), (b, c)), pairs_per_setting=n, seed=seed,
                                           key=key))
        tallies = [(int(np.sum(grp.products() == 1)), len(grp)) for grp in ds.groups]
        return wigner_check(tallies, mode="simulated-per-space")
    if mode == "single-space":
        table = cyclic_concatenate(derive_subseed(seed, 0), n, key, (a, c, b))
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
        l_out, (r_out,) = measure_stream(derive_subseed(seed, k), n_per_step, key, (Setting.from_angle(theta),))
        np.negative(r_out, out=r_out)
        grp = SimpleNamespace(left=l_out, right=r_out)  # the estimate reads no pair-index column: none is built
        points.append(SweepPoint(theta=theta, estimate=estimate_expectation(grp)))
    return points
