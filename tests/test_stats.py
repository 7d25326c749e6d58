"""Estimators: expectations, marginals, standard errors, triple tables."""

import math

import numpy as np
import pytest

from eqrc.model import (
    GaugeKey,
    MODE_CONSTANT,
    MODE_RADEMACHER,
    MODE_RADEMACHER_RARB,
    Setting,
    gauge_eval,
    measure_pairs,
    sample_pair_stream,
)
from eqrc.experiments import BELL_SETTINGS, CANONICAL_LEFT, ExperimentSpec, RunGroup, run_experiment
from eqrc.inequalities import cyclic_concatenate
from eqrc.stats import (
    TripleTable,
    build_triple_table,
    estimate_expectation,
    estimate_marginals,
)
from helpers import a_oracle, gauge_oracle

ONE = GaugeKey(mode=MODE_CONSTANT)
RAD3 = GaugeKey(mode=MODE_RADEMACHER, j=3)
A, B, C = BELL_SETTINGS


def _run_group(right, n, seed, key):
    spec = ExperimentSpec(setting_pairs=((CANONICAL_LEFT, right),), pairs_per_setting=n, seed=seed, key=key)
    return run_experiment(spec).groups[0]


class TestExpectation:
    def test_equal_settings_give_exactly_minus_one(self):
        grp = _run_group(Setting(1, 0), 50_000, 4, RAD3)
        est = estimate_expectation(grp)
        assert est.value == -1.0
        assert est.std_error == 0.0

    def test_sixty_degrees_matches_minus_half(self):
        grp = _run_group(B, 1_000_000, 42, RAD3)
        est = estimate_expectation(grp)
        assert est.value == pytest.approx(-0.5, abs=0.0045)

    def test_one_twenty_degrees_matches_plus_half(self):
        # analytic oracle: -a.b with a=[1,0], b=[-1/2, sqrt(3)/2] gives +1/2
        grp = _run_group(C, 1_000_000, 42, RAD3)
        est = estimate_expectation(grp)
        assert est.value == pytest.approx(0.5, abs=0.0045)

    def test_permutation_invariance(self):
        grp = _run_group(B, 500, 11, RAD3)
        order = np.random.Generator(np.random.PCG64(0)).permutation(len(grp))
        shuffled = RunGroup("shuffled", grp.left_setting, grp.right_setting,
                            grp.pair_index[order], grp.left[order], grp.right[order])
        assert estimate_expectation(shuffled) == estimate_expectation(grp)
        assert estimate_marginals(shuffled) == estimate_marginals(grp)

    def test_gauge_key_replacement_invariance(self):
        events = sample_pair_stream(21, 20_000)
        vals = []
        for key in (ONE, RAD3, GaugeKey(mode=MODE_RADEMACHER_RARB, j=2, rarb_seed=5)):
            l_out, r_out = measure_pairs(B, events, key)
            vals.append(int(np.sum(l_out.astype(np.int64) * r_out)))
        assert vals[0] == vals[1] == vals[2]

    def test_std_error_formula(self):
        # products 3x(+1), 1x(-1): mean 0.5, se = sqrt((1 - 0.25)/4)
        s = Setting(1, 0)
        grp = RunGroup("g", s, s, np.arange(1, 5, dtype=np.int64),
                       np.array([1, 1, 1, 1], dtype=np.int8), np.array([1, 1, 1, -1], dtype=np.int8))
        est = estimate_expectation(grp)
        assert est.value == 0.5
        assert est.std_error == pytest.approx(math.sqrt(0.75 / 4))

    def test_empty_group_rejected(self):
        s = Setting(1, 0)
        empty = RunGroup("g", s, s, np.empty(0, np.int64), np.empty(0, np.int8), np.empty(0, np.int8))
        with pytest.raises(ValueError, match="no records"):
            estimate_expectation(empty)
        with pytest.raises(ValueError, match="no records"):
            estimate_marginals(empty)

    def test_error_shrinks_like_inverse_sqrt_n(self):
        def spread(n):
            vals = [estimate_expectation(_run_group(B, n, seed, RAD3)).value for seed in range(20)]
            return float(np.std(vals))

        ratio = spread(2_000) / spread(8_000)
        assert 1.25 <= ratio <= 3.2  # fourfold data roughly halves the spread


class TestMarginals:
    def test_identity_gauge_left_is_exactly_plus_one(self):
        grp = _run_group(B, 100_000, 5, ONE)
        e_left, _ = estimate_marginals(grp)
        assert e_left.value == 1.0

    @pytest.mark.parametrize("j", range(1, 7))
    def test_balanced_gauge_marginals_vanish(self, j):
        grp = _run_group(B, 1_000_000, 13, GaugeKey(mode=MODE_RADEMACHER, j=j))
        e_left, e_right = estimate_marginals(grp)
        assert abs(e_left.value) <= 0.0045
        assert abs(e_right.value) <= 0.0045

    def test_left_marginal_equals_mean_gauge_exactly(self):
        seed, n = 33, 40_000
        grp = _run_group(B, n, seed, RAD3)
        from eqrc.model import derive_subseed

        events = sample_pair_stream(derive_subseed(seed, 0), n)
        gauge_mean = float(np.mean(gauge_eval(RAD3, events.t)))
        e_left, _ = estimate_marginals(grp)
        assert e_left.value == gauge_mean


def _brute_force_triple(kind, events, key, settings):
    """Per-event reference construction: left outcome, sign-flipped right, +1, from the rule's oracle."""
    _, b, c = settings
    partner = b if kind == "abc'" else c
    counts = {(s1, s2, s3): 0 for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)}
    for lam, t in zip(events.lam.tolist(), events.t.tolist()):
        col1 = gauge_oracle(key, t)  # the left wing reads no setting
        col2 = a_oracle(key, partner, lam, t)  # minus the right wing's -A(partner)
        counts[(col1, col2, 1)] += 1
    return counts


class TestTripleTables:
    def test_vectorized_table_matches_brute_force(self):
        events = sample_pair_stream(17, 2_000)
        cyclic = cyclic_concatenate(17, 2_000, RAD3, BELL_SETTINGS)
        for kind in ("abc'", "ab'c"):
            table = build_triple_table(kind, cyclic)
            assert table.counts == _brute_force_triple(kind, events, RAD3, BELL_SETTINGS)

    def test_all_plus_fractions_at_bell_settings(self):
        cyclic = cyclic_concatenate(7, 1_000_000, RAD3, BELL_SETTINGS)
        t1, t2 = build_triple_table("abc'", cyclic), build_triple_table("ab'c", cyclic)
        assert t1.fraction((1, 1, 1)) == pytest.approx(0.375, abs=0.005)
        assert t2.fraction((1, 1, 1)) == pytest.approx(0.125, abs=0.005)

    def test_identity_gauge_removes_dilution(self):
        table = build_triple_table("abc'", cyclic_concatenate(7, 1_000_000, ONE, BELL_SETTINGS))
        assert table.fraction((1, 1, 1)) == pytest.approx(0.75, abs=0.005)

    def test_tables_from_one_stream_disagree_beyond_four_sigma(self):
        n = 1_000_000
        cyclic = cyclic_concatenate(19, n, RAD3, BELL_SETTINGS)
        f1 = build_triple_table("abc'", cyclic).fraction((1, 1, 1))
        f2 = build_triple_table("ab'c", cyclic).fraction((1, 1, 1))
        sigma = math.sqrt(f1 * (1 - f1) / n + f2 * (1 - f2) / n)
        assert (f1 - f2) / sigma > 4.0

    def test_each_table_is_a_valid_probability_table(self):
        table = build_triple_table("ab'c", cyclic_concatenate(3, 10_000, RAD3, BELL_SETTINGS))
        assert sum(table.counts.values()) == table.total == 10_000
        assert all(v >= 0 for v in table.counts.values())
        assert len(table.counts) == 8

    def test_duplicate_settings_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            build_triple_table("abc'", cyclic_concatenate(3, 10, ONE, (A, B, B)))

    def test_unknown_kind_rejected(self):
        cyclic = cyclic_concatenate(3, 10, ONE, BELL_SETTINGS)
        with pytest.raises(ValueError):
            build_triple_table("abc", cyclic)

    def test_table_validation(self):
        counts = {(s1, s2, s3): 1 for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)}
        TripleTable(kind="abc'", counts=counts, total=8)
        with pytest.raises(ValueError):
            TripleTable(kind="abc'", counts=counts, total=9)
        short = dict(counts)
        short.pop((1, 1, 1))
        with pytest.raises(ValueError):
            TripleTable(kind="abc'", counts=short, total=7)
