"""Drift constants, search-time bounds, and the rate-reliability frontier."""

import math

import numpy as np
import pytest

from noisysearch.channel import (
    AffineNoise,
    BernoulliPair,
    ConstantNoise,
    binary_entropy,
    eval_noise,
    kl_bernoulli,
    mutual_info_bsc,
    reliability_c1,
)
from noisysearch.strategies import StrategyKind
from noisysearch.theory import (
    FrontierClass,
    _dya_f,
    _dya_g,
    alpha_floor,
    constant_k_d,
    constant_k_h,
    constant_k_s,
    rate_reliability_frontier,
    residual_f,
    tau_upper_bound,
)

AFFINE = AffineNoise(0.1, 0.5)  # p(1/2) = 0.35


class TestSortConstant:
    def test_branches_at_p35(self):
        # 1/2 D(Bern(0.425) || Bern(0.35)) vs 1/8 D(Bern(0.65) || Bern(0.575))
        b1 = 0.5 * kl_bernoulli(0.425, 0.35)
        b2 = 0.125 * kl_bernoulli(0.65, 0.575)
        assert b1 == pytest.approx(0.00867, abs=1e-4)
        assert b2 == pytest.approx(0.00212, abs=1e-4)
        assert constant_k_s(AFFINE) == pytest.approx(max(b1, b2), abs=1e-15)

    def test_vanishes_at_useless_channel(self):
        assert constant_k_s(ConstantNoise(0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_low_noise(self):
        b1 = 0.5 * kl_bernoulli(0.3, 0.1)
        b2 = 0.125 * kl_bernoulli(0.9, 0.7)
        assert constant_k_s(ConstantNoise(0.1)) == pytest.approx(max(b1, b2), abs=1e-15)


class TestHieConstant:
    def test_value_at_p35(self):
        term1 = mutual_info_bsc(1.0 / 3.0, 0.35)
        term2 = (2.0 / 3.0) * kl_bernoulli(0.45, 0.35)
        assert constant_k_h(AFFINE) == pytest.approx(min(term1, term2), abs=1e-15)
        assert constant_k_h(AFFINE) == pytest.approx(0.020401, abs=1e-5)
        assert constant_k_h(AFFINE) <= term1  # never above the rate term

    def test_vanishes_at_useless_channel(self):
        assert constant_k_h(ConstantNoise(0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_low_noise_reuses_mutual_info(self):
        p = 0.1
        mix = (1.0 / 3.0) * (1.0 - p) + (2.0 / 3.0) * p
        term2 = (2.0 / 3.0) * kl_bernoulli(mix, p)
        expected = min(mutual_info_bsc(1.0 / 3.0, p), term2)
        assert constant_k_h(ConstantNoise(p)) == pytest.approx(expected, abs=1e-15)
        assert mutual_info_bsc(1.0 / 3.0, p) == pytest.approx(0.4791, abs=1e-3)


class TestDyaConstant:
    def test_vanishes_at_useless_channel(self):
        assert constant_k_d(ConstantNoise(0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_branch_three_closed_form(self):
        assert 0.25 * kl_bernoulli(0.425, 0.35) == pytest.approx(0.00434, abs=1e-4)
        assert constant_k_d(AFFINE) <= 0.25 * kl_bernoulli(0.425, 0.35)

    def test_g_at_zero_closed_form(self):
        pair = BernoulliPair.from_crossover(0.35)
        # g(0) = 1/2 D(Bern(0.65) || Bern(0.5)) = (1 - H_b(0.65)) / 2
        assert _dya_g(0.0, pair) == pytest.approx(0.5 * (1.0 - binary_entropy(0.65)), abs=1e-12)
        assert _dya_g(0.0, pair) == pytest.approx(0.032966, abs=1e-5)

    def test_f_is_linear_increasing(self):
        pair = BernoulliPair.from_crossover(0.35)
        rhos = np.linspace(0.0, 0.5, 21)
        vals = [_dya_f(float(r), pair) for r in rhos]
        assert vals[0] == 0.0
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_against_pure_grid_oracle(self):
        pair = BernoulliPair.from_crossover(0.35)
        rho1 = np.linspace(0.0, 0.25, 100_001)
        grid1 = min(max(_dya_f(float(r), pair), _dya_g(float(r), pair)) for r in rho1)
        rho2 = np.linspace(0.25, 0.5, 100_001)
        grid2 = min(_dya_f(float(r), pair) for r in rho2)
        grid3 = 0.25 * kl_bernoulli(0.425, 0.35)
        expected = min(grid1, grid2, grid3)
        got = constant_k_d(AFFINE)
        assert got == pytest.approx(expected, abs=1e-6)
        assert got <= expected + 1e-12  # refinement can only improve on the grid


class TestConstantsPositivity:
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.15, 0.25, 0.35, 0.45])
    def test_strictly_positive_below_half(self, p):
        profile = ConstantNoise(p)
        assert constant_k_s(profile) > 0.0
        assert constant_k_h(profile) > 0.0
        assert constant_k_d(profile) > 0.0


class TestResidual:
    def test_unit_plug_in(self):
        # R = E = 1, p(delta) = 0.5: loglog term + 1 + 96
        delta, eps = 2.0**-4, 0.01
        expected = math.log2(math.log2(1.0 / (delta * eps))) + 1.0 + 96.0
        got = residual_f(1.0, 1.0, ConstantNoise(0.5), delta, eps)
        assert got == pytest.approx(expected, abs=1e-5)

    def test_paper_scale_arithmetic(self):
        delta, eps = 2.0**-15, 1e-3
        rate, exponent = 0.531, 2.536
        p_delta = 0.1 + 0.5 * delta
        expected = (
            math.log2(math.log2(2.0**15 * 1e3)) / rate
            + 1.0 / exponent
            + (96.0 / (rate * exponent)) * ((1.0 - p_delta) / p_delta) ** 2
        )
        got = residual_f(rate, exponent, AFFINE, delta, eps)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_degenerate_product_rejected(self):
        with pytest.raises(ValueError):
            residual_f(1.0, 1.0, AFFINE, 0.5, 2.0)
        with pytest.raises(ValueError):
            residual_f(1.0, 1.0, AFFINE, 0.5, 2.5)
        # a product that underflows to 0, or whose reciprocal overflows
        for delta, eps in [(2.0**-30, 5e-324), (2.0**-12, 1e-310)]:
            with pytest.raises(ValueError):
                residual_f(1.0, 1.0, AFFINE, delta, eps)
            with pytest.raises(ValueError):
                alpha_floor(0.01, delta, eps)

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(ValueError):
            residual_f(0.0, 1.0, AFFINE, 0.01, 0.01)
        with pytest.raises(ValueError):
            residual_f(1.0, -2.0, AFFINE, 0.01, 0.01)


class TestTauUpperBound:
    def test_sort_leading_term(self):
        delta, eps, alpha = 2.0**-15, 1e-3, 2.0**-6
        rep = tau_upper_bound(StrategyKind.SORT_PM, AFFINE, delta, eps, alpha)
        rate = mutual_info_bsc(0.5, eval_noise(AFFINE, alpha))
        assert rep.rate_term == pytest.approx(rate, abs=1e-15)
        leading = rep.tau_upper - rep.residual - math.log2(1.0 / eps) / rep.reliability_term
        assert leading == pytest.approx(15.0 / rate, abs=1e-9)

    def test_hie_rate_term_constant_noise(self):
        rep = tau_upper_bound(
            StrategyKind.HIE_PM, ConstantNoise(0.1), 2.0**-15, 1e-3, 2.0**-5
        )
        assert rep.rate_term == pytest.approx(0.4791, abs=1e-3)
        leading = rep.tau_upper - rep.residual - math.log2(1e3) / rep.reliability_term
        assert leading == pytest.approx(15.0 / mutual_info_bsc(1.0 / 3.0, 0.1), abs=1e-9)

    def test_no_reliability_demand(self):
        eps = 1.0 - 1e-12
        rep = tau_upper_bound(StrategyKind.DYA_PM, AFFINE, 2.0**-10, eps, 2.0**-4)
        assert math.log2(1.0 / eps) / rep.reliability_term < 1e-9

    def test_reliability_term_is_c1_at_delta(self):
        rep = tau_upper_bound(StrategyKind.SORT_PM, AFFINE, 2.0**-12, 1e-3, 2.0**-5)
        assert rep.reliability_term == pytest.approx(
            reliability_c1(eval_noise(AFFINE, 2.0**-12)), abs=1e-15
        )

    def test_floor_is_reported_and_enforceable(self):
        delta, eps, alpha = 2.0**-12, 1e-3, 2.0**-5
        rep = tau_upper_bound(StrategyKind.SORT_PM, AFFINE, delta, eps, alpha)
        assert rep.floor == pytest.approx(alpha_floor(rep.constant, delta, eps), abs=1e-15)
        assert rep.floor > alpha  # desk-scale parameters sit below the floor

    def test_median_has_no_bound(self):
        with pytest.raises(ValueError):
            tau_upper_bound(StrategyKind.MEDIAN_PM, AFFINE, 2.0**-10, 1e-3, 0.25)

    @pytest.mark.parametrize(
        "delta, eps, alpha, name",
        [
            (2.0**-10, 0.0, 0.25, "epsilon"),
            (2.0**-10, 1.5, 0.25, "epsilon"),
            (0.0, 1e-3, 0.25, "delta"),
            (0.75, 1e-3, 0.25, "delta"),
            (2.0**-10, 1e-3, 0.0, "alpha"),
            (2.0**-10, 1e-3, 0.75, "alpha"),
        ],
    )
    def test_out_of_range_inputs_rejected(self, delta, eps, alpha, name):
        with pytest.raises(ValueError, match=f"{name} must be in"):
            tau_upper_bound(StrategyKind.SORT_PM, AFFINE, delta, eps, alpha)

    def test_monotone_in_alpha_noise(self):
        # larger alpha -> noisier queries at the leading scale -> larger bound
        reps = [
            tau_upper_bound(StrategyKind.SORT_PM, AFFINE, 2.0**-12, 1e-3, a)
            for a in (2.0**-8, 2.0**-5, 2.0**-2)
        ]
        assert reps[0].tau_upper < reps[1].tau_upper < reps[2].tau_upper

    def test_monotone_in_reliability_demand(self):
        reps = [
            tau_upper_bound(StrategyKind.HIE_PM, AFFINE, 2.0**-12, e, 2.0**-5)
            for e in (1e-2, 1e-4, 1e-6)
        ]
        assert reps[0].tau_upper < reps[1].tau_upper < reps[2].tau_upper


class TestFrontier:
    def test_optimal_intercepts(self):
        pts = rate_reliability_frontier(AFFINE, FrontierClass.OPTIMAL)
        assert len(pts) == 101
        r_max = max(r for r, _ in pts)
        e_max = max(e for _, e in pts)
        assert r_max == pytest.approx(0.531, abs=1e-3)
        assert e_max == pytest.approx(reliability_c1(0.1), abs=1e-9)
        assert e_max == pytest.approx(2.536, abs=1e-3)

    def test_hie_intercept(self):
        pts = rate_reliability_frontier(AFFINE, FrontierClass.HIE_PM)
        assert max(r for r, _ in pts) == pytest.approx(0.4791, abs=1e-3)
        assert max(e for _, e in pts) == pytest.approx(reliability_c1(0.1), abs=1e-9)

    def test_median_endpoints_use_worst_noise(self):
        pts = rate_reliability_frontier(AFFINE, FrontierClass.MEDIAN_PM)
        cap = mutual_info_bsc(0.5, 0.35)
        assert max(r for r, _ in pts) == pytest.approx(cap, abs=1e-12)
        assert max(e for _, e in pts) == pytest.approx(cap, abs=1e-12)

    @pytest.mark.parametrize("cls", list(FrontierClass))
    def test_strictly_decreasing(self, cls):
        pts = rate_reliability_frontier(AFFINE, cls)
        rs = [r for r, _ in pts]
        es = [e for _, e in pts]
        assert all(b > a for a, b in zip(rs, rs[1:]))
        assert all(b < a for a, b in zip(es, es[1:]))

    def test_unknown_class_rejected(self):
        # the enum's value, not the enum member
        with pytest.raises(ValueError, match="unknown frontier class 'optimal'"):
            rate_reliability_frontier(AFFINE, "optimal")

    def test_line_relation(self):
        pts = rate_reliability_frontier(AFFINE, FrontierClass.OPTIMAL)
        r_max = pts[-1][0]
        e_max = pts[0][1]
        for r, e in pts:
            assert e == pytest.approx(e_max * (1.0 - r / r_max), abs=1e-12)
