"""Noise profiles, the observation channel, and information quantities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from noisysearch.channel import (
    P_CEILING,
    P_FLOOR,
    AffineNoise,
    BernoulliPair,
    ConstantNoise,
    _coefficients,
    _crossover,
    _noise_for_sizes,
    binary_entropy,
    eval_noise,
    kl_bernoulli,
    mutual_info_bsc,
    noise_for_size,
    reliability_c1,
    sample_observation,
)

AFFINE = AffineNoise(0.1, 0.5)


class TestEvalNoise:
    def test_affine_at_half(self):
        assert eval_noise(AFFINE, 0.5) == pytest.approx(0.35)

    def test_affine_intercept(self):
        assert eval_noise(AFFINE, 0.0) == pytest.approx(0.1)

    def test_constant(self):
        assert eval_noise(ConstantNoise(0.2), 0.3) == pytest.approx(0.2)

    @pytest.mark.parametrize("x", [-0.01, 0.51, 1.0])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            eval_noise(AFFINE, x)

    def test_clamps_to_floor_and_ceiling(self):
        assert eval_noise(ConstantNoise(0.0), 0.1) == P_FLOOR
        assert eval_noise(ConstantNoise(0.9), 0.1) == P_CEILING
        assert eval_noise(AffineNoise(0.4, 0.5), 0.5) == P_CEILING

    def test_floor_override_gives_exact_zero(self):
        assert eval_noise(ConstantNoise(0.0, p_floor=0.0), 0.25) == 0.0

    def test_monotone_in_size(self):
        xs = np.linspace(0.0, 0.5, 101)
        ps = [eval_noise(AFFINE, float(x)) for x in xs]
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_saturation_above_half(self):
        assert noise_for_size(AFFINE, 0.75) == eval_noise(AFFINE, 0.5)
        assert noise_for_size(AFFINE, 1.0) == eval_noise(AFFINE, 0.5)
        assert noise_for_size(AFFINE, 0.3) == eval_noise(AFFINE, 0.3)

    def test_array_form_equals_scalar_form(self):
        # inside the profile, below the floor, above the ceiling, and saturated
        fracs = np.array([0.0, 1e-9, 0.1, 1 / 3, 0.5, 0.5000001, 0.75, 1.0])
        for profile in (AFFINE, AffineNoise(0.0, 1.5), AffineNoise(0.0, 0.0),
                        ConstantNoise(0.2), ConstantNoise(0.05, p_floor=0.1),
                        ConstantNoise(0.7), ConstantNoise(0.0, p_floor=0.0)):
            got = _noise_for_sizes(profile, fracs)
            assert got.shape == fracs.shape
            assert got.tolist() == [noise_for_size(profile, x) for x in fracs.tolist()]

    def test_episode_function_equals_scalar_form(self):
        # the episode engine's call: every query fraction 2**-L of its range,
        # the floats next to 1/2, and the whole space; bit for bit, so
        # compared as hex strings
        fracs = [2.0**-L for L in range(54)]
        fracs += [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 1.0]
        floor_hit = ceiling_hit = False
        for profile in (AFFINE, AffineNoise(0.0, 0.5), AffineNoise(0.0, 0.5, p_floor=0.0),
                        AffineNoise(0.1, 0.5, p_floor=0.0), AffineNoise(0.49, 0.02),
                        AffineNoise(0.0, 1.5), ConstantNoise(0.3), ConstantNoise(0.2, p_floor=0.0),
                        ConstantNoise(0.0, p_floor=0.0), ConstantNoise(0.05, p_floor=0.1),
                        ConstantNoise(0.7)):
            a, b = _coefficients(profile)
            want = [noise_for_size(profile, x) for x in fracs]
            got = [_crossover(a, b, profile.p_floor, x).hex() for x in fracs]
            assert got == [p.hex() for p in want]
            floor_hit |= profile.p_floor > 0.0 and profile.p_floor in want
            ceiling_hit |= P_CEILING in want
        assert floor_hit and ceiling_hit

    def test_bad_profiles_rejected(self):
        with pytest.raises(ValueError):
            AffineNoise(-0.1, 0.5)
        with pytest.raises(ValueError):
            AffineNoise(0.1, -0.5)
        with pytest.raises(ValueError):
            ConstantNoise(1.5)
        for slope in (math.inf, math.nan):  # inf * 0 is nan at a zero-size query
            with pytest.raises(ValueError, match="slope"):
                AffineNoise(0.1, slope)
        for floor in (-0.1, 0.5):
            with pytest.raises(ValueError, match="p_floor"):
                AffineNoise(0.1, 0.5, p_floor=floor)
            with pytest.raises(ValueError, match="p_floor"):
                ConstantNoise(0.1, p_floor=floor)


class TestSampleObservation:
    def test_noiseless_returns_indicator(self):
        profile = ConstantNoise(0.0, p_floor=0.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert sample_observation(profile, True, 0.25, rng) == 1
            assert sample_observation(profile, False, 0.25, rng) == 0

    def test_deterministic_given_stream(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        bits_a = [sample_observation(AFFINE, False, 0.5, a) for _ in range(50)]
        bits_b = [sample_observation(AFFINE, False, 0.5, b) for _ in range(50)]
        assert bits_a == bits_b

    def test_missed_target_returns_the_noise_bit(self):
        # y = 0 XOR z = z when the target is outside the query
        obs_rng = np.random.default_rng(3)
        ref_rng = np.random.default_rng(3)
        p = eval_noise(AFFINE, 0.5)
        for _ in range(100):
            z = int(ref_rng.random() < p)
            assert sample_observation(AFFINE, False, 0.5, obs_rng) == z

    def test_returns_an_int(self):
        rng = np.random.default_rng(5)
        for member in (True, False, np.True_, 1, 0):
            y = sample_observation(AFFINE, member, 0.25, rng)
            assert type(y) is int and y in (0, 1)

    def test_empirical_mean_matches_flip_probability(self):
        # target in set, p = 0.35: mean of Y is 1 - p = 0.65
        rng = np.random.default_rng(42)
        n = 10**5
        total = sum(sample_observation(AFFINE, True, 0.5, rng) for _ in range(n))
        assert total / n == pytest.approx(0.65, abs=0.01)


class TestEntropyAndDivergences:
    def test_entropy_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_entropy_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_entropy_point_one(self):
        assert binary_entropy(0.1) == pytest.approx(0.4690, abs=1e-4)

    def test_capacity_quoted_value(self):
        assert mutual_info_bsc(0.5, 0.1) == pytest.approx(0.531, abs=5e-4)

    def test_useless_channel(self):
        assert mutual_info_bsc(0.5, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_third_weight_input(self):
        assert mutual_info_bsc(1.0 / 3.0, 0.1) == pytest.approx(0.4791, abs=1e-3)

    def test_kl_identical(self):
        assert kl_bernoulli(0.3, 0.3) == 0.0

    def test_kl_example(self):
        # 0.9 log2(9) + 0.1 log2(1/9)
        assert kl_bernoulli(0.9, 0.1) == pytest.approx(0.8 * math.log2(9.0), abs=1e-12)
        assert kl_bernoulli(0.9, 0.1) == pytest.approx(2.536, abs=1e-3)

    def test_kl_point_mass_vs_fair(self):
        assert kl_bernoulli(1.0, 0.5) == 1.0

    def test_kl_infinite_support_mismatch(self):
        assert kl_bernoulli(0.5, 0.0) == math.inf
        assert kl_bernoulli(0.5, 1.0) == math.inf
        assert kl_bernoulli(0.0, 0.0) == 0.0

    def test_c1_symmetric_point(self):
        assert reliability_c1(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_c1_values(self):
        assert reliability_c1(0.1) == pytest.approx(0.8 * math.log2(9.0), abs=1e-12)
        assert reliability_c1(0.1) == pytest.approx(2.5359, abs=1e-3)
        assert reliability_c1(0.25) == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)
        assert reliability_c1(0.25) == pytest.approx(0.7925, abs=1e-3)

    def test_c1_at_zero_is_infinite(self):
        assert reliability_c1(0.0) == math.inf

    def test_out_of_range_probabilities_rejected(self):
        for q in (-0.1, 1.5):
            with pytest.raises(ValueError, match="probability must be in"):
                binary_entropy(q)
            with pytest.raises(ValueError, match="probabilities must be in"):
                kl_bernoulli(q, 0.5)
            with pytest.raises(ValueError, match="probabilities must be in"):
                kl_bernoulli(0.5, q)
        for p in (-0.1, 0.6):
            with pytest.raises(ValueError, match="p must be in"):
                reliability_c1(p)


class TestInvariants:
    @given(
        q=hs.floats(0.0, 1.0, allow_nan=False),
        p=hs.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_bsc_symmetry(self, q, p):
        i = mutual_info_bsc(q, p)
        assert i == pytest.approx(mutual_info_bsc(1.0 - q, p), abs=1e-12)
        assert i == pytest.approx(mutual_info_bsc(q, 1.0 - p), abs=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.35, 0.49])
    def test_capacity_input_is_half(self, p):
        qs = np.linspace(0.0, 1.0, 101)
        vals = [mutual_info_bsc(float(q), p) for q in qs]
        assert np.argmax(vals) == 50

    def test_kl_nonnegative_zero_iff_equal(self):
        grid = np.linspace(0.05, 0.95, 19)
        for a in grid:
            for b in grid:
                d = kl_bernoulli(float(a), float(b))
                if abs(a - b) < 1e-12:
                    assert d == 0.0
                else:
                    assert d > 0.0

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.25, 0.4, 0.5])
    def test_c1_equals_kl_both_ways(self, p):
        assert reliability_c1(p) == kl_bernoulli(p, 1.0 - p)
        assert kl_bernoulli(p, 1.0 - p) == pytest.approx(
            kl_bernoulli(1.0 - p, p), abs=1e-12
        )


class TestBernoulliPair:
    def test_from_crossover_sums_to_one(self):
        pair = BernoulliPair.from_crossover(0.35)
        assert pair.p0 + pair.p1 == 1.0

    def test_mix(self):
        pair = BernoulliPair.from_crossover(0.35)
        assert pair.mix(0.25) == pytest.approx(0.425)
        assert pair.mix(1.0) == pytest.approx(0.65)
