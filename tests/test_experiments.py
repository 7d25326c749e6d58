"""Suites, rotation, switching, sorting, and the angle sweep."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eqrc.experiments import (
    BELL_PAIRS,
    BELL_SETTINGS,
    CANONICAL_LEFT,
    ExperimentSpec,
    RunDataset,
    RunGroup,
    rotate_to_canonical,
    run_bell_suite,
    run_chsh_suite,
    run_experiment,
    run_wigner_suite,
    sort_wigner_sets,
    sweep_angle,
)
from eqrc.inequalities import analytic_expectation, cyclic_concatenate
from eqrc.model import BLOCK_PAIRS, GaugeKey, MODE_CONSTANT, MODE_RADEMACHER, MODE_RADEMACHER_RARB, Setting
from eqrc.stats import TRIPLE_KINDS, build_triple_table
from helpers import run_experiment_oracle, sort_oracle, sweep_oracle, switched_dataset, switched_run_oracle

ONE = GaugeKey(mode=MODE_CONSTANT)
RAD3 = GaugeKey(mode=MODE_RADEMACHER, j=3)
RARB = GaugeKey(mode=MODE_RADEMACHER_RARB, j=3, rarb_seed=2**63 + 5)
A, B, C = BELL_SETTINGS

angles = st.floats(0, 2 * math.pi, allow_nan=False)


class TestRotation:
    def test_canonical_pair_unchanged(self):
        lft, rgt = rotate_to_canonical((CANONICAL_LEFT, B))
        assert (lft.b2, lft.b3) == (1.0, 0.0)
        assert (rgt.b2, rgt.b3) == (B.b2, B.b3)

    def test_sixty_onetwenty_pair_lands_on_sixty(self):
        lft, rgt = rotate_to_canonical((B, C))
        assert (lft.b2, lft.b3) == (1.0, 0.0)
        assert rgt.b2 == pytest.approx(0.5, abs=1e-12)
        assert rgt.b3 == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    @given(angles, angles)
    def test_dot_product_preserved(self, alpha, beta):
        x, y = Setting.from_angle(alpha), Setting.from_angle(beta)
        lft, rgt = rotate_to_canonical((x, y))
        assert lft.dot(rgt) == pytest.approx(x.dot(y), abs=1e-12)
        assert analytic_expectation(lft, rgt) == pytest.approx(analytic_expectation(x, y), abs=1e-12)

    @given(angles, angles)
    @example(alpha=1e-12, beta=1.192092896e-07)
    def test_orientation_preserved(self, alpha, beta):
        x, y = Setting.from_angle(alpha), Setting.from_angle(beta)
        cross = x.b2 * y.b3 - x.b3 * y.b2
        _, rgt = rotate_to_canonical((x, y))
        assert rgt.b3 == pytest.approx(cross, abs=1e-12)

    def test_idempotent(self):
        pair = rotate_to_canonical((B, C))
        again = rotate_to_canonical(pair)
        assert (again[0].b2, again[0].b3) == (pair[0].b2, pair[0].b3)
        assert (again[1].b2, again[1].b3) == (pair[1].b2, pair[1].b3)


class TestSpecValidation:
    def test_rejects_empty_pairs(self):
        with pytest.raises(ValueError):
            ExperimentSpec(setting_pairs=(), pairs_per_setting=1, seed=0, key=ONE)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=0, seed=0, key=ONE)

    def test_rejects_unknown_switching(self):
        with pytest.raises(ValueError):
            ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=1, seed=0, key=ONE, switching="maybe")

    def test_rejects_groups_past_the_last_int64_pair_index(self):
        # Group i holds pair indices i*N+1 .. (i+1)*N: three groups fit while 3*N <= 2**63 - 1.
        most = (2**63 - 1) // 3
        assert ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=most, seed=0, key=ONE).pairs_per_setting == most
        with pytest.raises(ValueError, match=rf"^pair indices {2 * most + 3}\.\.{3 * most + 3} are not all in "
                                             r"1\.\.2\*\*63 - 1$"):
            ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=most + 1, seed=0, key=ONE)


def _bell_spec(n, seed, key=RAD3, switching="fixed"):
    return ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=n, seed=seed, key=key, switching=switching)


class TestRunExperiment:
    def test_three_disjoint_groups_with_expected_estimates(self):
        ds = run_experiment(_bell_spec(1_000_000, 42))
        assert len(ds.groups) == 3
        all_idx = np.concatenate([g.pair_index for g in ds.groups])
        assert len(np.unique(all_idx)) == len(all_idx)
        # index ranges follow the n/m/k convention
        assert ds.groups[0].pair_index[0] == 1
        assert ds.groups[1].pair_index[0] == 1_000_001
        assert ds.groups[2].pair_index[0] == 2_000_001
        expected = (-0.5, 0.5, -0.5)  # analytic oracle at the three canonical pairs
        for grp, want in zip(ds.groups, expected):
            est = np.sum(grp.products()) / len(grp)
            assert est == pytest.approx(want, abs=0.0045)

    def test_same_seed_reproduces_bitwise(self):
        d1 = run_experiment(_bell_spec(10_000, 3))
        d2 = run_experiment(_bell_spec(10_000, 3))
        for g1, g2 in zip(d1.groups, d2.groups):
            assert np.array_equal(g1.pair_index, g2.pair_index)
            assert np.array_equal(g1.left, g2.left)
            assert np.array_equal(g1.right, g2.right)

    def test_rotation_before_measurement_makes_raw_and_canonical_specs_agree(self):
        raw = ExperimentSpec(setting_pairs=((B, C),), pairs_per_setting=5_000, seed=8, key=RAD3)
        canon = ExperimentSpec(
            setting_pairs=(rotate_to_canonical((B, C)),), pairs_per_setting=5_000, seed=8, key=RAD3
        )
        g1 = run_experiment(raw).groups[0]
        g2 = run_experiment(canon).groups[0]
        assert np.array_equal(g1.left, g2.left)
        assert np.array_equal(g1.right, g2.right)


def _group(label, first, last):
    return _group_of(label, np.arange(first, last + 1, dtype=np.int64))


def _group_of(label, idx):
    ones = np.ones(len(idx), dtype=np.int8)
    return RunGroup(label, CANONICAL_LEFT, B, idx, ones, -ones)


def _dataset(indices):
    groups = tuple(_group_of(f"pair{i}", idx) for i, idx in enumerate(indices))
    return RunDataset(canonical_pairs=((CANONICAL_LEFT, B),) * len(groups), groups=groups)


class TestDatasetDisjointness:
    def test_groups_sharing_a_pair_index_are_rejected(self):
        with pytest.raises(ValueError, match="^pair index 10 occurs twice in the groups$"):
            RunDataset(canonical_pairs=((CANONICAL_LEFT, B),) * 2,
                       groups=(_group("pair0", 1, 10), _group("pair1", 10, 20)))

    def test_adjacent_ranges_are_accepted(self):
        ds = RunDataset(canonical_pairs=((CANONICAL_LEFT, B),) * 2,
                        groups=(_group("pair0", 1, 10), _group("pair1", 11, 20)))
        assert [len(g) for g in ds.groups] == [10, 10]

    def test_repeat_within_one_group_is_rejected(self):
        with pytest.raises(ValueError, match="^pair index 2 occurs twice in the groups$"):
            _dataset([np.array([1, 2, 3, 2])])
        with pytest.raises(ValueError, match="^pair index 2 occurs twice in the groups$"):
            _dataset([np.array([1, 2, 2, 3]), np.array([10, 11])])

    def test_interleaved_odd_and_even_groups_are_accepted(self):
        odd, even = np.arange(1, 200, 2), np.arange(2, 201, 2)
        ds = _dataset([odd, even, np.array([], dtype=np.int64)])
        assert [len(g) for g in ds.groups] == [100, 100, 0]

    @given(st.data())
    def test_rejects_exactly_the_datasets_with_a_repeated_index(self, data):
        groups = []
        for g in range(data.draw(st.integers(0, 5))):
            values = data.draw(st.lists(st.integers(1, 40), max_size=25))
            shape = data.draw(st.sampled_from(["ascending", "shuffled", "odd-even", "as-drawn"]))
            if shape == "ascending":
                values = sorted(set(values))
            elif shape == "shuffled":
                values = data.draw(st.permutations(sorted(set(values))))
            elif shape == "odd-even":  # overlapping ranges, disjoint values
                values = sorted({2 * v + g % 2 for v in values})
            groups.append(np.array(values, dtype=np.int64))
        all_idx = np.concatenate(groups) if groups else np.array([], dtype=np.int64)
        if len(np.unique(all_idx)) != len(all_idx):
            first = min(v for v in all_idx.tolist() if all_idx.tolist().count(v) > 1)
            with pytest.raises(ValueError, match=f"^pair index {first} occurs twice in the groups$"):
                _dataset(groups)
        else:
            _dataset(groups)


class TestSwitching:
    def test_switched_run_is_the_fixed_groups_and_a_schedule(self):
        ds = run_experiment(_bell_spec(2_000, 5, switching="random-switched"))
        fixed = run_experiment(_bell_spec(2_000, 5))
        for gs, gf in zip(ds.groups, fixed.groups, strict=True):
            assert gs.label == gf.label and (gs.left_setting, gs.right_setting) == (gf.left_setting, gf.right_setting)
            assert all(np.array_equal(getattr(gs, a), getattr(gf, a)) for a in ("pair_index", "left", "right"))
        assert len(ds.schedule) == len(ds.interleaved) == 6_000 and fixed.schedule is fixed.interleaved is None
        counts = np.bincount(ds.schedule, minlength=3)
        assert counts.tolist() == [2_000, 2_000, 2_000]  # every listed pair occurs, exact quotas

    def test_sorting_recovers_the_fixed_run_exactly(self):
        switched = run_experiment(_bell_spec(2_000, 5, switching="random-switched"))
        fixed = run_experiment(_bell_spec(2_000, 5))
        sorted_ds = sort_wigner_sets(switched)
        assert sorted_ds.schedule is None and sorted_ds.meta == {**switched.meta, "sorted_from_switched": True}
        for gs, gw, gf in zip(sorted_ds.groups, switched.groups, fixed.groups, strict=True):
            assert gs is gw  # a run's groups ascend: the sort-back shares them
            assert np.array_equal(gs.pair_index, gf.pair_index)
            assert np.array_equal(gs.left, gf.left)
            assert np.array_equal(gs.right, gf.right)

    def test_sorting_requires_a_schedule(self):
        fixed = run_experiment(_bell_spec(100, 5))
        with pytest.raises(ValueError, match="no switched records to sort back"):
            sort_wigner_sets(fixed)

    @pytest.mark.parametrize("dtype,tag", [(np.uint8, 7), (np.uint16, 2), (np.int64, 7), (np.int64, -1)])
    def test_construction_rejects_foreign_tags(self, dtype, tag):
        with pytest.raises(ValueError, match=r"schedule ids outside 0 \.\. 1"):  # a wide id column may hold a negative
            _interleaved([0, tag, 1], [1, 2, 3], dtype)

    @pytest.mark.parametrize("schedule,match", [
        ([0, 0, 1, 1], r"schedule ids counted \[2, 2\], not the groups' sizes \[1, 2\]"),
        ([0, 1], r"schedule ids counted \[1, 1\], not the groups' sizes \[1, 2\]"),
    ], ids=["id-too-often", "id-too-seldom"])
    def test_construction_rejects_a_schedule_of_other_counts(self, schedule, match):
        groups = _interleaved([0, 1, 1], [1, 2, 3]).groups
        with pytest.raises(ValueError, match=match):
            RunDataset(canonical_pairs=BELL_PAIRS[:2], groups=groups, schedule=np.array(schedule, np.uint8))

    def test_a_schedule_changed_after_construction_is_refused_when_interleaved(self):
        ds = _interleaved([0, 1, 1], [1, 2, 3], np.uint8)
        ds.schedule[1] = 5
        with pytest.raises(ValueError, match="schedule does not place every record of the groups"):
            ds.interleaved

    def test_sorting_refuses_an_empty_run(self):
        with pytest.raises(ValueError, match="no switched records to sort back"):
            sort_wigner_sets(_interleaved([], []))

    @pytest.mark.parametrize("k", [1, 3, 4, 7, 257])
    def test_switched_run_is_the_fixed_run_placed_by_an_int64_schedule(self, k):
        # Ids of the narrowest unsigned dtype: the generator shuffles them as it would int64 ids.
        pairs = tuple((Setting.from_angle(0.1 * j), Setting.from_angle(0.7 * j + 0.3)) for j in range(k))
        spec = ExperimentSpec(setting_pairs=pairs, pairs_per_setting=5 if k > 7 else 300, seed=17, key=RARB,
                              switching="random-switched")
        ds = run_experiment(spec)
        inter = ds.interleaved
        assert ds.schedule.dtype == inter.group_ids.dtype == (np.uint8 if k <= 256 else np.uint16)
        for got, want in zip((inter.group_ids, inter.pair_index, inter.left, inter.right), switched_run_oracle(spec),
                             strict=True):
            assert np.array_equal(got, want)
        assert (inter.pair_index.dtype, inter.left.dtype, inter.right.dtype) == (np.int64, np.int8, np.int8)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    @pytest.mark.parametrize("gids,pair_index", [
        ([0, 1, 0, 1, 0], [5, 10, 3, 11, 1]),  # group 0 descending
        ([1, 0, 1, 0, 1, 0], [2, 9, 1, 7, 3, 8]),  # group 1 below group 0, both out of order
        ([1, 1, 1, 0, 0], [1, 2, 3, 7, 8]),  # groups in runs, the later group first
    ], ids=["descending", "out-of-order", "group-runs"])
    def test_sort_falls_back_to_the_stable_argsort(self, dtype, gids, pair_index):
        ds = _interleaved(gids, pair_index, dtype)
        for grp, want in zip(sort_wigner_sets(ds).groups, sort_oracle(2, *_columns(gids, pair_index)), strict=True):
            assert all(np.array_equal(got, part) for got, part in zip((grp.pair_index, grp.left, grp.right), want))

    @pytest.mark.parametrize("gids,pair_index", [([0, 1, 0, 0], [3, 2, 3, 1]), ([0, 1, 0, 0], [1, 2, 3, 3]),
                                                 ([0, 1, 1], [4, 4, 5])],
                             ids=["out-of-order", "ascending", "across-groups"])
    def test_a_repeated_pair_index_is_refused_when_built(self, gids, pair_index):
        first = min(n for n in pair_index if pair_index.count(n) > 1)
        with pytest.raises(ValueError, match=f"^pair index {first} occurs twice in the groups$"):
            _interleaved(gids, pair_index)


def _columns(gids, pair_index, dtype=np.int64):
    """Emission-order columns (ids, pair_index, left, right) of a two-pair switched run; outcomes alternate by
    record."""
    outcomes = np.resize(np.array([1, -1, -1], np.int8), len(gids))
    return np.array(gids, dtype), np.array(pair_index, np.int64), outcomes, -outcomes


def _interleaved(gids, pair_index, dtype=np.int64):
    """A two-pair switched dataset of these emission-order records (see ``_columns``)."""
    return switched_dataset(BELL_PAIRS[:2], *_columns(gids, pair_index, dtype))


class TestBellSuite:
    def test_violation_at_scale(self):
        rep = run_bell_suite(seed=42, n=1_000_000, key=RAD3)
        assert rep.violated
        assert rep.lhs == pytest.approx(1.0, abs=0.007)
        assert rep.rhs == pytest.approx(0.5, abs=0.0045)
        assert rep.mode == "simulated-per-space"

    def test_small_runs_carry_sigma_for_callers(self):
        rep = run_bell_suite(seed=1, n=100, key=RAD3)
        assert rep.lhs_std_error > 0 and rep.rhs_std_error > 0
        assert math.isfinite(rep.separation_sigma())

    def test_reports_reproduce(self):
        r1 = run_bell_suite(seed=6, n=10_000, key=RAD3)
        r2 = run_bell_suite(seed=6, n=10_000, key=RAD3)
        assert r1.lhs == r2.lhs and r1.rhs == r2.rhs and r1.violated == r2.violated


class TestChshSuite:
    def test_two_sqrt_two_at_scale(self):
        rep = run_chsh_suite(seed=42, n=1_000_000, key=RAD3)
        assert rep.violated
        assert rep.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=0.01)

    def test_gauge_choice_does_not_move_the_products(self):
        r1 = run_chsh_suite(seed=9, n=50_000, key=ONE)
        r2 = run_chsh_suite(seed=9, n=50_000, key=RAD3)
        assert r1.lhs == r2.lhs  # products are gauge invariant, exactly

    def test_degenerate_equal_right_settings_cannot_violate(self):
        b = Setting(0.5, math.sqrt(3) / 2)
        pairs = ((CANONICAL_LEFT, b),) * 4
        spec = ExperimentSpec(setting_pairs=pairs, pairs_per_setting=20_000, seed=4, key=RAD3)
        ds = run_experiment(spec)
        from eqrc.inequalities import chsh_check

        rep = chsh_check(*ds.group_expectations())
        assert rep.lhs <= 2.0 and not rep.violated


class TestWignerSuite:
    def test_per_space_violates(self):
        rep = run_wigner_suite(seed=11, n=200_000, key=RAD3, mode="per-space")
        assert rep.violated
        assert rep.lhs == pytest.approx(0.75, abs=0.01)
        assert rep.rhs == pytest.approx(0.5, abs=0.01)

    def test_single_space_never_violates(self):
        for seed in range(3):
            rep = run_wigner_suite(seed=seed, n=50_000, key=RAD3, mode="single-space")
            assert not rep.violated

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_wigner_suite(seed=0, n=10, key=ONE, mode="sideways")


class TestSweep:
    def test_curve_matches_minus_cosine(self):
        n = 100_000
        points = sweep_angle(seed=42, n_per_step=n, steps=24, key=RAD3)
        assert len(points) == 24
        bound = 4.5 / math.sqrt(n)
        for p in points:
            assert abs(p.estimate.value - (-math.cos(p.theta))) <= bound

    def test_exact_endpoints(self):
        points = sweep_angle(seed=7, n_per_step=10_000, steps=4, key=RAD3)
        assert points[0].theta == 0.0
        assert points[0].estimate.value == -1.0  # equal settings, exactly
        assert abs(points[1].estimate.value) <= 4.5 / math.sqrt(10_000)  # orthogonal

    def test_grid_is_uniform_on_the_circle(self):
        points = sweep_angle(seed=7, n_per_step=100, steps=8, key=ONE)
        assert [p.theta for p in points] == pytest.approx([2 * math.pi * k / 8 for k in range(8)])

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            sweep_angle(seed=1, n_per_step=10, steps=1, key=ONE)


class TestBlockedRuns:
    """Runs measured block by block equal the same runs measured on whole streams, and stay small."""

    N = 3 * BLOCK_PAIRS + 7  # three whole blocks and a partial one

    def test_run_experiment_matches_the_whole_stream_oracle(self):
        spec = ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=self.N, seed=11, key=RARB)
        for grp, (pair_index, left, right) in zip(run_experiment(spec).groups, run_experiment_oracle(spec),
                                                  strict=True):
            assert grp.pair_index.dtype == np.int64
            assert np.array_equal(grp.pair_index, pair_index)
            assert np.array_equal(grp.left, left) and np.array_equal(grp.right, right)

    @pytest.mark.parametrize("order", ["emission", "reversed"])
    def test_switched_run_and_its_sort_back_match_the_oracles(self, order):
        spec = self._switched_spec(self.N)  # the schedule in whole pieces and a partial one
        ds = run_experiment(spec)
        inter = ds.interleaved
        placed = [inter.group_ids, inter.pair_index, inter.left, inter.right]
        for got, want in zip(placed, switched_run_oracle(spec), strict=True):
            assert np.array_equal(got, want)
        if order == "reversed":  # the pair indices reversed in emission order: the sort-back's stable argsort
            placed[1] = placed[1][::-1].copy()
            ds = switched_dataset(ds.canonical_pairs, *placed)
            assert all(np.any(g.pair_index[1:] < g.pair_index[:-1]) for g in ds.groups)
        for grp, want in zip(sort_wigner_sets(ds).groups, sort_oracle(3, *placed), strict=True):
            assert all(np.array_equal(got, part) for got, part in zip((grp.pair_index, grp.left, grp.right), want))

    def test_sweep_matches_the_whole_stream_oracle(self):
        points = sweep_angle(seed=5, n_per_step=self.N, steps=6, key=RARB)
        got = [(p.theta, p.estimate.value, p.estimate.std_error, p.estimate.n_samples) for p in points]
        assert got == sweep_oracle(5, self.N, 6, RARB)

    @staticmethod
    def _peak_bytes(fn, *args):
        fn(*args)  # a first call outside the measurement settles one-time allocations
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sweep_peak_stays_under_one_float_column(self):
        n = 400_000
        assert self._peak_bytes(sweep_angle, 3, n, 2, RARB) < 8 * n

    def test_run_experiment_peak_stays_under_twelve_bytes_per_pair(self):
        n = 200_000
        spec = ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=n, seed=3, key=RARB)
        assert self._peak_bytes(run_experiment, spec) < 12 * 3 * n

    @staticmethod
    def _switched_spec(n):
        return ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=n, seed=3, key=RARB,
                              switching="random-switched")

    def test_switched_run_sorted_back_peaks_under_twelve_and_a_half_bytes_per_record(self):
        # The run peaks at about 11.5 B (see below); the sort-back of its ascending groups adds only a group's
        # order check, 0.34 B. A gathered copy of the sorted records would add 10 B.
        n = 200_000
        assert self._peak_bytes(lambda: sort_wigner_sets(run_experiment(self._switched_spec(n)))) < 12.5 * 3 * n

    def test_switched_run_peaks_under_twelve_and_a_half_bytes_per_record(self):
        # The groups (10 B: an int64 pair index, two int8 outcomes), the uint8 schedule (1 B) and the last group's
        # draw read about 11.5 B; the schedule counted as intp at once, not a piece at a time, would add 8 B.
        n = 200_000
        assert self._peak_bytes(run_experiment, self._switched_spec(n)) < 12.5 * 3 * n

    def test_sort_back_peaks_under_one_byte_per_record(self):
        # The run's groups are ascending, so the sort-back shares them: a group's order check (1 B per record of
        # its own) reads about 0.34 B; a copy of the records would add 10 B.
        n = 200_000
        switched = run_experiment(self._switched_spec(n))
        assert self._peak_bytes(sort_wigner_sets, switched) < 1 * 3 * n

    def test_triple_tables_peak_stays_under_twelve_bytes_per_pair(self):
        def tables(n):  # what `eqrc triples` runs: one single-space table, then both tallies of it
            cyclic = cyclic_concatenate(3, n, RARB, BELL_SETTINGS)
            return [build_triple_table(kind, cyclic) for kind in TRIPLE_KINDS]

        n = 200_000
        assert self._peak_bytes(tables, n) < 12 * n

    def test_cyclic_table_peak_stays_under_twelve_bytes_per_pair(self):
        def tally(n):
            table = cyclic_concatenate(3, n, RARB, BELL_SETTINGS)
            return table.pair_expectations(), table.equal_tallies()

        n = 200_000
        assert self._peak_bytes(tally, n) < 12 * n

    def test_single_space_wigner_peak_stays_under_twelve_bytes_per_pair(self):
        n = 200_000
        assert self._peak_bytes(run_wigner_suite, 3, n, RARB, "single-space") < 12 * n
