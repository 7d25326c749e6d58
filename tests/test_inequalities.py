"""Inequality evaluators, the cyclic construction, and its exhaustive oracle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqrc.experiments import BELL_SETTINGS, CHSH_PAIRS
from eqrc.inequalities import (
    CyclicTable,
    InequalityReport,
    analytic_expectation,
    bell_check,
    chsh_check,
    cyclic_concatenate,
    cyclic_oracle,
    wigner_check,
)
from eqrc.model import (
    GaugeKey,
    MODE_CONSTANT,
    MODE_RADEMACHER,
    Setting,
    sample_pair_stream,
)
from eqrc.stats import ExpectationEstimate
from helpers import a_oracle, gauge_oracle

ONE = GaugeKey(mode=MODE_CONSTANT)
RAD3 = GaugeKey(mode=MODE_RADEMACHER, j=3)
A, B, C = BELL_SETTINGS

e_values = st.floats(-1, 1, allow_nan=False)
CELLS = list(itertools.product((1, -1), repeat=3))


def _table(weights):
    """A cyclic table holding ``weights[i]`` rows of the sign assignment ``CELLS[i]``."""
    cols = np.repeat(np.array(CELLS, dtype=np.int8), weights, axis=0)
    return CyclicTable(s_a=cols[:, 0], s_b=cols[:, 1], s_c=cols[:, 2])


def _single_space_wigner(table):
    return wigner_check(table.equal_tallies(), mode="simulated-single-space")


class TestAnalyticExpectation:
    def test_equal_settings(self):
        assert analytic_expectation(A, A) == -1.0

    def test_sixty_degree_pair(self):
        assert analytic_expectation(A, B) == pytest.approx(-0.5, abs=1e-12)

    def test_orthogonal(self):
        assert analytic_expectation(A, Setting(0, 1)) == 0.0

    @given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    def test_invariant_under_simultaneous_rotation(self, alpha, beta, phi):
        x, y = Setting.from_angle(alpha), Setting.from_angle(beta)
        xr, yr = Setting.from_angle(alpha + phi), Setting.from_angle(beta + phi)
        assert analytic_expectation(x, y) == pytest.approx(analytic_expectation(xr, yr), abs=1e-9)


class TestBellCheck:
    def test_violated_at_bell_vectors(self):
        e_ab = analytic_expectation(A, B)
        e_ac = analytic_expectation(A, C)
        e_bc = analytic_expectation(B, C)
        rep = bell_check(e_ab, e_ac, e_bc)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.5, abs=1e-12)
        assert rep.violated and rep.mode == "analytic"
        assert rep.lhs_std_error == rep.rhs_std_error == 0.0

    @given(e_values, e_values)
    def test_equal_first_terms_never_violate(self, e, e_bc):
        rep = bell_check(e, e, e_bc)
        assert rep.lhs == 0.0 and not rep.violated

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bell_check(1.5, 0.0, 0.0)

    def test_estimates_carry_combined_sigma(self):
        est = lambda v: ExpectationEstimate(value=v, n_samples=10_000, std_error=0.01)
        rep = bell_check(est(-0.5), est(0.5), est(-0.5))
        assert rep.mode == "simulated-per-space"
        assert rep.lhs_std_error == pytest.approx(math.hypot(0.01, 0.01))
        assert rep.rhs_std_error == pytest.approx(0.01)
        assert rep.separation_sigma() == pytest.approx(0.5 / math.hypot(rep.lhs_std_error, 0.01))

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            InequalityReport(name="bell", lhs=2.0, rhs=1.0, violated=False, mode="analytic")


class TestChshCheck:
    def test_idealized_pairs_reach_two_sqrt_two(self):
        es = [analytic_expectation(l, r) for l, r in CHSH_PAIRS]
        rep = chsh_check(*es)
        assert rep.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert rep.rhs == 2.0 and rep.violated

    def test_all_zero_inputs(self):
        rep = chsh_check(0.0, 0.0, 0.0, 0.0)
        assert rep.lhs == 0.0 and not rep.violated

    def test_arithmetic_extreme(self):
        rep = chsh_check(1, 1, 1, -1)
        assert rep.lhs == 4.0 and rep.violated

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            chsh_check(0.0, -2.0, 0.0, 0.0)


def _analytic_equal_count(x, y, n):
    # under the equal iff product +1 convention: P(equal) = (1 + E)/2
    e = analytic_expectation(x, y)
    return int(round(n * (1 + e) / 2))


class TestWignerCheck:
    def test_per_space_quantum_counts_violate(self):
        n = 8000
        tallies = [
            (_analytic_equal_count(A, C, n), n),  # widest pair on the lhs
            (_analytic_equal_count(A, B, n), n),
            (_analytic_equal_count(B, C, n), n),
        ]
        rep = wigner_check(tallies)
        assert rep.lhs == pytest.approx(0.75)
        assert rep.rhs == pytest.approx(0.5)
        assert rep.violated and rep.mode == "simulated-per-space"

    def test_single_assignment_tables_never_violate(self):
        # brute force over the 8 concentrated tables and all two-point mixtures
        for loaded in CELLS:
            weights = [10 if c == loaded else 0 for c in CELLS]
            assert not _single_space_wigner(_table(weights)).violated
        for c1, c2 in itertools.combinations(CELLS, 2):
            weights = [7 if c == c1 else 3 if c == c2 else 0 for c in CELLS]
            assert not _single_space_wigner(_table(weights)).violated

    @given(st.lists(st.integers(0, 50), min_size=8, max_size=8))
    def test_random_assignment_tables_never_violate(self, weights):
        if sum(weights) == 0:
            weights[0] = 1
        rep = _single_space_wigner(_table(weights))
        assert rep.mode == "simulated-single-space"
        assert not rep.violated

    def test_zero_equal_counts_tie(self):
        rep = wigner_check([(0, 100), (0, 100), (0, 100)])
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and not rep.violated

    def test_single_space_total_mismatch_rejected(self):
        with pytest.raises(ValueError, match="total"):
            wigner_check([(10, 100), (10, 100), (10, 99)], mode="simulated-single-space")

    def test_bad_tallies_rejected(self):
        with pytest.raises(ValueError):
            wigner_check([(5, 4), (1, 4), (1, 4)])
        with pytest.raises(ValueError):
            wigner_check([(1, 4), (1, 4)])


class TestCyclic:
    def test_rows_match_the_rule_oracle(self):
        events = sample_pair_stream(5, 300)
        table = cyclic_concatenate(5, 300, RAD3, BELL_SETTINGS)
        lam, t = events.lam.tolist(), events.t.tolist()
        assert len(table) == len(events)
        assert table.s_a.tolist() == [gauge_oracle(RAD3, t_i) for t_i in t]
        for x, col in ((B, table.s_b), (C, table.s_c)):  # a right wing set to x reports -A(x); the table flips it
            assert col.tolist() == [a_oracle(RAD3, x, lam_i, t_i) for lam_i, t_i in zip(lam, t)]

    def test_every_row_satisfies_the_three_pair_bound(self):
        table = cyclic_concatenate(23, 5_000, RAD3, BELL_SETTINGS)
        s_a, s_b, s_c = (col.astype(np.int64) for col in (table.s_a, table.s_b, table.s_c))
        p_ab, p_ac, p_bc = -s_a * s_b, -s_a * s_c, -s_b * s_c  # B = -A flips each sign
        assert np.all(np.abs(p_ab - p_ac) <= 1 + p_bc)

    def test_pairwise_product_of_products_is_minus_one(self):
        table = cyclic_concatenate(8, 2_000, RAD3, BELL_SETTINGS)
        s_a, s_b, s_c = (col.astype(np.int64) for col in (table.s_a, table.s_b, table.s_c))
        assert np.all((-s_a * s_b) * (-s_a * s_c) * (-s_b * s_c) == -1)

    @pytest.mark.parametrize("key", [ONE, RAD3], ids=["identity-gauge", "rademacher"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_row_averaged_bell_never_violated(self, key, seed):
        table = cyclic_concatenate(seed, 100_000, key, BELL_SETTINGS)
        rep = bell_check(*table.pair_expectations(), mode="simulated-single-space")
        assert not rep.violated

    def test_pair_expectations_are_exact_rationals(self):
        table = cyclic_concatenate(2, 1_000, RAD3, BELL_SETTINGS)
        e_ab, e_ac, e_bc = table.pair_expectations()
        assert isinstance(e_ab, Fraction)
        # the construction saturates the bound exactly at these settings
        assert abs(e_ab - e_ac) == 1 + e_bc

    def test_wigner_on_cyclic_table_never_violated(self):
        for seed in range(5):
            table = cyclic_concatenate(seed, 20_000, RAD3, (A, C, B))
            assert not _single_space_wigner(table).violated

    def test_counts_round_trip(self):
        table = cyclic_concatenate(4, 3_000, RAD3, BELL_SETTINGS)
        # the table's tallies agree with a per-row count and share its total
        tallies = table.equal_tallies()
        rows = list(zip(table.s_a.tolist(), table.s_b.tolist(), table.s_c.tolist()))
        expected = [(sum(r[i] != r[j] for r in rows), len(table)) for i, j in ((0, 1), (0, 2), (2, 1))]
        assert tallies == expected

    def test_duplicate_settings_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            cyclic_concatenate(1, 10, ONE, (A, B, B))


class TestCyclicOracle:
    def test_eight_rows_all_satisfied(self):
        rows = cyclic_oracle()
        assert len(rows) == 8
        assert all(r.satisfied for r in rows)
        assert len({r.assignment for r in rows}) == 8

    def test_matches_independent_enumeration(self):
        # re-derive the table from scratch and compare lhs/rhs per assignment
        by_assignment = {r.assignment: r for r in cyclic_oracle()}
        for s_a, s_b, s_c in itertools.product((1, -1), repeat=3):
            p_ab, p_ac, p_bc = -s_a * s_b, -s_a * s_c, -s_b * s_c
            row = by_assignment[(s_a, s_b, s_c)]
            assert row.lhs == abs(p_ab - p_ac)
            assert row.rhs == 1 + p_bc

    def test_known_cases(self):
        by_assignment = {r.assignment: (r.lhs, r.rhs) for r in cyclic_oracle()}
        assert by_assignment[(1, 1, 1)] == (0, 0)
        assert by_assignment[(1, 1, -1)] == (2, 2)
