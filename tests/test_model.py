"""Core model: settings, events, gauge, and the two wing functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqrc.inequalities import cyclic_concatenate
from eqrc.model import (
    BLOCK_PAIRS,
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
from eqrc.stats import build_triple_table
from helpers import a_oracle, gauge_oracle, sign_of_sine, splitmix64_sign

ONE = GaugeKey(mode=MODE_CONSTANT)

settings_st = st.builds(
    Setting,
    st.floats(-1, 1, allow_nan=False).filter(lambda x: abs(x) > 1e-6),
    st.floats(-1, 1, allow_nan=False),
)
unit_t = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)
unit_lam = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)
unit_ts = st.lists(unit_t, min_size=1, max_size=40)
events_st = st.lists(st.tuples(unit_lam, unit_t), min_size=1, max_size=40).map(
    lambda pairs: _stream(*zip(*pairs)))
keys_st = st.one_of(
    st.just(ONE),
    st.integers(1, 8).map(lambda j: GaugeKey(mode=MODE_RADEMACHER, j=j)),
    st.tuples(st.integers(1, 8), st.integers(0, 2**63)).map(
        lambda a: GaugeKey(mode=MODE_RADEMACHER_RARB, j=a[0], rarb_seed=a[1])
    ),
)


def _stream(lam, t):
    """Pair events 1..len with these lam and t."""
    return PairStream(n=np.arange(1, len(t) + 1), lam=np.array(lam, dtype=np.float64), t=np.array(t, dtype=np.float64))


class TestSetting:
    def test_normalizes_off_unit_input(self):
        s = Setting(3.0, 4.0)
        assert s.b2 == pytest.approx(0.6) and s.b3 == pytest.approx(0.8)
        assert s.b2**2 + s.b3**2 == pytest.approx(1.0, abs=1e-12)

    def test_keeps_within_tolerance_components_bitwise(self):
        b2, b3 = 0.5, math.sqrt(3.0) / 2.0
        s = Setting(b2, b3)
        assert (s.b2, s.b3) == (b2, b3)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            Setting(0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Setting(float("nan"), 1.0)

    @pytest.mark.parametrize("b2, b3", [("1.0", 0.0), (1.0, "0.0"), (True, 0.0), (1.0, False), (None, 1.0),
                                        (np.bool_(True), 0.0)])
    def test_refuses_a_component_that_is_not_an_int_or_a_float(self, b2, b3):
        with pytest.raises(TypeError, match="setting components must be ints or floats"):
            Setting(b2, b3)

    def test_takes_numpy_numbers(self):
        s = Setting(np.float64(0.5), np.float32(0.0)), Setting(np.int64(3), np.int8(4))
        assert [(x.b2, x.b3) for x in s] == [(1.0, 0.0), (0.6, 0.8)]
        assert all(type(c) is float for x in s for c in (x.b2, x.b3))

    @given(settings_st)
    def test_always_unit_norm(self, s):
        assert abs(s.b2**2 + s.b3**2 - 1.0) <= 1e-12

    def test_from_angle_and_dot(self):
        s = Setting.from_angle(math.pi / 3)
        assert s.b2 == pytest.approx(0.5)
        assert Setting(1, 0).dot(s) == pytest.approx(0.5)


class TestRademacher:
    def test_examples_against_direct_sign_of_sine(self):
        # independent evaluation of sign(sin(2^(j+1) pi t))
        assert math.sin(0.4 * math.pi) > 0
        assert math.sin(1.2 * math.pi) < 0
        out = rademacher(1, np.array([0.1, 0.3]))
        assert out.tolist() == [1, -1] and out.dtype == np.int8

    def test_zero_of_sine_maps_to_plus_one(self):
        assert math.sin(0.0) == 0.0
        assert rademacher(3, np.array([0.0])).tolist() == [1]

    def test_rejects_bad_order_and_domain(self):
        with pytest.raises(ValueError):
            rademacher(0, np.array([0.5]))
        with pytest.raises(ValueError):
            rademacher(53, np.array([0.5]))  # 2^54 t is even for every t on the sampling grid
        with pytest.raises(ValueError):
            rademacher(1, np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            rademacher(1, np.array([-0.25]))
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\)"):
            rademacher(1, np.array([0.25, np.nan]))  # NaN compares false both ways

    @given(st.integers(1, 52), unit_ts)
    def test_matches_sign_of_sine_oracle(self, j, ts):
        assert rademacher(j, np.array(ts)).tolist() == [sign_of_sine(j, t) for t in ts]

    @pytest.mark.parametrize("j", [1, 3, 10, 30, 40, 50, 52])
    def test_dyadic_points_take_the_interval_they_start(self, j):
        m = 2 ** (j + 1)
        ks = [0, 1, 2, 3, m // 2 - 1, m // 2, m // 2 + 1, m - 2, m - 1]
        ts = np.array([k / m for k in ks])  # exact in binary64
        expected = [1 if k % 2 == 0 else -1 for k in ks]
        assert rademacher(j, ts).tolist() == expected

    @pytest.mark.parametrize("j", [1, 3, 30, 51, 52])
    def test_balanced_on_the_sampling_grid(self, j):
        vals = rademacher(j, sample_pair_stream(6, 200_000).t)
        assert abs(float(vals.mean())) < 0.01

    @pytest.mark.parametrize("j", range(1, 7))
    def test_sign_change_count_on_fine_grid(self, j):
        # midpoint grid avoids the exact zeros; the wave flips 2^(j+1)-1 times
        grid = (np.arange(200_000) + 0.5) / 200_000
        vals = rademacher(j, grid)
        changes = int(np.sum(vals[1:] != vals[:-1]))
        assert changes == 2 ** (j + 1) - 1


class TestGauge:
    def test_constant_mode_is_identity(self):
        out = gauge_eval(ONE, np.linspace(0, 0.99, 50))
        assert np.all(out == 1) and out.shape == (50,) and out.dtype == np.int8

    def test_rademacher_mode_equals_rademacher(self):
        key = GaugeKey(mode=MODE_RADEMACHER, j=1)
        assert gauge_eval(key, np.array([0.1, 0.3])).tolist() == [sign_of_sine(1, 0.1), sign_of_sine(1, 0.3)] == [1, -1]

    @given(st.integers(1, 6), st.integers(0, 2**63), unit_ts)
    def test_product_mode_is_componentwise_product(self, j, seed, ts):
        key = GaugeKey(mode=MODE_RADEMACHER_RARB, j=j, rarb_seed=seed)
        expected = [sign_of_sine(j, t) * splitmix64_sign(seed, t) for t in ts]
        assert gauge_eval(key, np.array(ts)).tolist() == expected

    @given(keys_st, unit_ts)
    def test_values_are_signs_and_deterministic(self, key, ts):
        v = gauge_eval(key, np.array(ts))
        assert v.dtype == np.int8 and v.tolist() == [gauge_oracle(key, t) for t in ts]
        assert gauge_eval(key, np.array(ts)).tolist() == v.tolist()

    def test_key_validation(self):
        with pytest.raises(ValueError):
            GaugeKey(mode="bogus")
        with pytest.raises(ValueError):
            GaugeKey(mode=MODE_RADEMACHER, j=0)
        with pytest.raises(ValueError):
            GaugeKey(mode=MODE_RADEMACHER_RARB, j=53, rarb_seed=1)
        with pytest.raises(ValueError):
            GaugeKey(mode=MODE_RADEMACHER_RARB, j=1)  # seed required
        with pytest.raises(ValueError):
            GaugeKey(mode=MODE_RADEMACHER, j=1, rarb_seed=7)  # stray seed
        # rarb_eval hashes the seed's low 64 bits: any other seed would give a
        # known gauge under a new digest.
        for seed in (-1, 2**64, 7 + 2**64):
            with pytest.raises(ValueError, match=r"rarb_seed in \[0, 2\*\*64\)"):
                GaugeKey(mode=MODE_RADEMACHER_RARB, j=1, rarb_seed=seed)
        for seed in (0, 2**64 - 1):
            assert GaugeKey(mode=MODE_RADEMACHER_RARB, j=1, rarb_seed=seed).rarb_seed == seed

    def test_key_json_round_trip_and_digest(self):
        key = GaugeKey(mode=MODE_RADEMACHER_RARB, j=4, rarb_seed=99)
        again = GaugeKey.from_json(key.to_json())
        assert again == key
        assert key.digest_hex() == again.digest_hex()
        assert key.digest_hex() != GaugeKey(mode=MODE_RADEMACHER, j=4).digest_hex()

    def test_rarb_is_balanced_and_path_consistent(self):
        ts = np.random.Generator(np.random.PCG64(1)).random(100_000)
        vals = rarb_eval(123, ts)
        assert set(np.unique(vals)) <= {-1, 1}
        assert abs(float(vals.mean())) < 0.02
        assert [splitmix64_sign(123, float(t)) for t in ts[:200]] == vals[:200].tolist()

    @given(st.integers(-(2**63), 2**64 - 1), unit_ts)
    def test_rarb_matches_python_int_splitmix64(self, seed, ts):
        ts = ts + [0.0, 5e-324, 1 - 2**-53]
        out = rarb_eval(seed, np.array(ts))
        assert out.tolist() == [splitmix64_sign(seed, t) for t in ts] and out.dtype == np.int8


class TestPairStream:
    def test_with_start_index(self):
        stream = sample_pair_stream(5, 4, start=101)
        assert list(stream.n) == [101, 102, 103, 104] and len(stream) == 4
        assert np.array_equal(stream.t, sample_pair_stream(5, 4).t)  # same draws
        with pytest.raises(ValueError, match=r"^pair indices 0\.\.3 are not all in 1\.\.2\*\*63 - 1$"):
            sample_pair_stream(5, 4, start=0)
        assert sample_pair_stream(5, 4, start=2**63 - 4).n[-1] == 2**63 - 1
        with pytest.raises(ValueError, match=r"^pair indices 9223372036854775805\.\.9223372036854775808 are not "
                                             r"all in 1\.\.2\*\*63 - 1$"):
            sample_pair_stream(5, 4, start=2**63 - 3)

    def test_deterministic_given_seed(self):
        a, b = sample_pair_stream(77, 1000), sample_pair_stream(77, 1000)
        assert np.array_equal(a.lam, b.lam) and np.array_equal(a.t, b.t)

    def test_seed_sensitivity(self):
        a, b = sample_pair_stream(1, 1000), sample_pair_stream(2, 1000)
        assert not (np.array_equal(a.lam, b.lam) and np.array_equal(a.t, b.t))

    def test_uniform_mean_of_lam(self):
        stream = sample_pair_stream(42, 1_000_000)
        assert abs(float(stream.lam.mean()) - 0.5) < 0.002
        assert abs(float(stream.t.mean()) - 0.5) < 0.002

    def test_ranges_and_count_validation(self):
        stream = sample_pair_stream(8, 10_000)
        assert float(stream.lam.min()) >= 0.0 and float(stream.lam.max()) < 1.0
        assert float(stream.t.min()) >= 0.0 and float(stream.t.max()) < 1.0
        with pytest.raises(ValueError):
            sample_pair_stream(8, 0)

    def test_derive_subseed_fixed_rule(self):
        assert derive_subseed(42, 0) == derive_subseed(42, 0)
        assert derive_subseed(42, 0) != derive_subseed(42, 1)
        assert 0 <= derive_subseed(42, 3) < 2**64


class TestMeasureStream:
    """The blocked path against the whole stream, on both sides of every block edge."""

    B = BLOCK_PAIRS
    N = 3 * BLOCK_PAIRS + 7  # three whole blocks and a partial one
    KEYS = (ONE, GaugeKey(mode=MODE_RADEMACHER, j=3), GaugeKey(mode=MODE_RADEMACHER_RARB, j=3, rarb_seed=2**64 - 1))
    BELL = (Setting(1, 0), Setting(0.5, math.sqrt(3) / 2), Setting(-0.5, math.sqrt(3) / 2))

    @pytest.mark.parametrize("key", KEYS, ids=lambda key: key.mode)
    @pytest.mark.parametrize("n_settings", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, B - 1, B, B + 1, N])
    def test_matches_outcome_columns_on_the_whole_stream(self, count, n_settings, key):
        xs = (Setting(0.5, math.sqrt(3) / 2), Setting(-1, 0), Setting(0.3, -0.7))[:n_settings]
        for seed in (0, 1, 2**63 + 5, 2**64 - 1, -3):  # -3 is taken modulo 2**64
            g, cols = measure_stream(seed, count, key, xs)
            stream = sample_pair_stream(seed, count)
            want_g, want_cols = outcome_columns(stream.lam, stream.t, key, xs)
            assert g.dtype == np.int8 and all(col.dtype == np.int8 for col in cols)
            assert np.array_equal(g, want_g) and len(cols) == n_settings
            assert all(np.array_equal(col, want) for col, want in zip(cols, want_cols))
            if n_settings == 1:  # the pair run at right setting b is (g, -A(b))
                left, right = measure_pairs(xs[0], stream, key)
                assert np.array_equal(g, left) and np.array_equal(-cols[0], right)

    @pytest.mark.parametrize("key", KEYS, ids=lambda key: key.mode)
    def test_triple_table_counts_match_the_whole_stream(self, key):
        _, b, c = self.BELL
        stream = sample_pair_stream(4, self.N)
        cyclic = cyclic_concatenate(4, self.N, key, self.BELL)
        for kind, partner in (("abc'", b), ("ab'c", c)):
            g, (a_x,) = outcome_columns(stream.lam, stream.t, key, (partner,))
            want = {(s1, s2, s3): int(np.count_nonzero((g == s1) & (a_x == s2))) if s3 == 1 else 0
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)}
            table = build_triple_table(kind, cyclic)
            assert table.counts == want and table.total == self.N

    @pytest.mark.parametrize("key", KEYS, ids=lambda key: key.mode)
    def test_cyclic_columns_match_the_whole_stream(self, key):
        stream = sample_pair_stream(4, self.N)
        g, (a_b, a_c) = outcome_columns(stream.lam, stream.t, key, self.BELL[1:])
        table = cyclic_concatenate(4, self.N, key, self.BELL)
        assert all(np.array_equal(col, want) for col, want in zip((table.s_a, table.s_b, table.s_c), (g, a_b, a_c)))

    def test_negative_seed_is_masked_to_64_bits(self):
        assert np.array_equal(measure_stream(-3, 100, ONE, (Setting(0, 1),))[1][0],
                              measure_stream(2**64 - 3, 100, ONE, (Setting(0, 1),))[1][0])

    def test_stream_is_one_pcg64_sequence(self):
        """lam is outputs 0..count-1 of the seed's PCG64 and t outputs count..2*count-1."""
        whole = np.random.Generator(np.random.PCG64(7)).random(2 * 10)
        stream = sample_pair_stream(7, 10)
        assert np.array_equal(stream.lam, whole[:10]) and np.array_equal(stream.t, whole[10:])

    def test_count_validation(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            measure_stream(1, 0, ONE, (Setting(1, 0),))


class TestWingFunctions:
    def test_left_is_gauge_value_for_all_lam(self):
        events = _stream([0.99, 0.0], [0.1, 0.3])  # the second t is where the order-1 wave is negative
        out = measure_left(Setting(1, 0), events, ONE)
        assert out.tolist() == [1, 1] and out.dtype == np.int8
        assert measure_left(Setting(1, 0), events, GaugeKey(mode=MODE_RADEMACHER, j=1)).tolist() == [1, -1]

    @given(settings_st, settings_st, events_st, keys_st)
    def test_left_ignores_its_setting_argument(self, s1, s2, events, key):
        assert measure_left(s1, events, key).tolist() == measure_left(s2, events, key).tolist()

    def test_left_refuses_a_setting_that_is_not_one(self):
        with pytest.raises(TypeError, match="a must be a Setting"):
            measure_left((1.0, 0.0), _stream([0.5], [0.5]), ONE)

    def test_right_threshold_examples(self):
        events = _stream([0.5], [0.0])
        # threshold (1 + 1/2)/2 = 3/4 >= 0.5 -> flipped gauge
        out = measure_right(Setting(0.5, math.sqrt(3) / 2), events, ONE)
        assert out.tolist() == [-1] and out.dtype == np.int8
        # threshold 0 -> lam above it -> unflipped gauge; product with left is +1
        assert measure_right(Setting(-1.0, 0.0), events, ONE).tolist() == [1]

    def test_equal_settings_are_perfectly_anticorrelated(self):
        events = sample_pair_stream(3, 2000)
        for key in (ONE, GaugeKey(mode=MODE_RADEMACHER, j=2)):
            l_out, r_out = measure_pairs(Setting(1, 0), events, key)
            assert np.all(l_out * r_out == -1)

    def test_opposite_settings_correlate_for_positive_lam(self):
        events = sample_pair_stream(3, 2000)
        l_out, r_out = measure_pairs(Setting(-1, 0), events, ONE)
        prods = l_out * r_out
        assert np.all(prods[events.lam > 0] == 1)

    @given(settings_st, events_st, keys_st, keys_st)
    def test_gauge_invariance_of_products(self, b, events, k1, k2):
        p1 = measure_left(Setting(1, 0), events, k1) * measure_right(b, events, k1)
        p2 = measure_left(Setting(1, 0), events, k2) * measure_right(b, events, k2)
        assert p1.tolist() == p2.tolist()

    @given(settings_st, events_st, keys_st)
    def test_determinism(self, b, events, key):
        assert measure_right(b, events, key).tolist() == measure_right(b, events, key).tolist()
        assert measure_left(b, events, key).tolist() == measure_left(b, events, key).tolist()

    @settings(deadline=None)
    @given(settings_st, st.integers(0, 2**32), keys_st)
    def test_wing_and_pair_columns_match_the_oracle(self, b, seed, key):
        events = sample_pair_stream(seed, 64)
        lam, t = events.lam.tolist(), events.t.tolist()
        left = [gauge_oracle(key, t_i) for t_i in t]
        right = [-a_oracle(key, b, lam_i, t_i) for lam_i, t_i in zip(lam, t)]
        l_vec, r_vec = measure_pairs(b, events, key)
        assert l_vec.tolist() == measure_left(Setting(1, 0), events, key).tolist() == left
        assert r_vec.tolist() == measure_right(b, events, key).tolist() == right


class TestOutcomeKernel:
    @settings(deadline=None)
    @given(st.lists(settings_st, min_size=1, max_size=4), st.integers(0, 2**32), keys_st)
    def test_columns_match_the_rule_per_event(self, xs, seed, key):
        events = sample_pair_stream(seed, 32)
        lam, t = events.lam.tolist(), events.t.tolist()
        g, cols = outcome_columns(events.lam, events.t, key, xs)
        assert len(cols) == len(xs)
        assert g.tolist() == [gauge_oracle(key, t_i) for t_i in t]
        for x, col in zip(xs, cols):
            assert col.tolist() == [a_oracle(key, x, lam_i, t_i) for lam_i, t_i in zip(lam, t)]

    def test_threshold_is_inclusive(self):
        x = Setting(0.5, math.sqrt(3) / 2)  # threshold exactly 3/4
        lam = np.array([0.75, np.nextafter(0.75, 1.0)])
        g, (a_x,) = outcome_columns(lam, np.array([0.1, 0.1]), ONE, (x,))
        assert g.tolist() == [1, 1] and a_x.tolist() == [1, -1]
        assert g.dtype == a_x.dtype == np.int8
