"""Closed-form drift constants, search-time upper bounds, and the
achievable rate-reliability frontier.

Everything here is a pure function of the noise profile and the
resolution/reliability targets, for comparison against simulation.  All
quantities are in bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    BernoulliPair,
    NoiseProfile,
    eval_noise,
    kl_bernoulli,
    mutual_info_bsc,
    reliability_c1,
)
from .strategies import StrategyKind

__all__ = [
    "BoundReport",
    "FrontierClass",
    "constant_k_s",
    "constant_k_h",
    "constant_k_d",
    "residual_f",
    "alpha_floor",
    "tau_upper_bound",
    "rate_reliability_frontier",
]


def _pair_at_half(profile: NoiseProfile) -> BernoulliPair:
    return BernoulliPair.from_crossover(eval_noise(profile, 0.5))


def constant_k_s(profile: NoiseProfile) -> float:
    """Drift constant of the sorted-coarse-binned log-likelihood under sortPM.

    max{ 1/2 D(1/4 B1 + 3/4 B0 || B0),  1/8 D(B1 || 3/4 B1 + 1/4 B0) }
    with B1 = Bern(1 - p(1/2)), B0 = Bern(p(1/2)).

    The second branch's coefficient is stated as 1/8 in the headline bound
    but derived as 1/4 in the supporting drift lemma; the conservative 1/8
    is used.
    """
    pair = _pair_at_half(profile)
    return max(
        0.5 * kl_bernoulli(pair.mix(0.25), pair.p0),
        0.125 * kl_bernoulli(pair.p1, pair.mix(0.75)),
    )


def constant_k_h(profile: NoiseProfile) -> float:
    """Drift constant of the nested log-likelihood under hiePM.

    min{ I(1/3, p(1/2)),  2/3 D(1/3 B1 + 2/3 B0 || B0) }.
    """
    pair = _pair_at_half(profile)
    p_half = pair.p0
    return min(
        mutual_info_bsc(1.0 / 3.0, p_half),
        (2.0 / 3.0) * kl_bernoulli(pair.mix(1.0 / 3.0), pair.p0),
    )


def _dya_f(rho: float, pair: BernoulliPair) -> float:
    return rho * kl_bernoulli(pair.p1, pair.mix(0.75))


def _dya_g(rho: float, pair: BernoulliPair) -> float:
    return (0.5 - rho) * kl_bernoulli(pair.mix(1.0 - 4.0 * rho), pair.mix(0.5 + rho))


def _dya_crossing(pair: BernoulliPair) -> float:
    """min over [0, 1/4] of max{f, g}: its value where f meets g.

    On [0, 0.1] f rises from 0 and g falls to 0, at rho = 0.1, where its two
    mixtures coincide; on [0.1, 1/4] max{f, g} >= f(0.1).  So the minimum is
    at the crossing in [0, 0.1], found by bisection down to adjacent floats;
    it is the smaller of max{f, g} at the two ends of the last bracket.
    """
    lo, hi = 0.0, 0.1
    mid = 0.05
    while lo < mid < hi:
        if _dya_f(mid, pair) < _dya_g(mid, pair):
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2.0
    return min(max(_dya_f(r, pair), _dya_g(r, pair)) for r in (lo, hi))


def constant_k_d(profile: NoiseProfile) -> float:
    """Drift constant of the nested log-likelihood under dyaPM.

    min{ min_{rho in [0,1/4]} max{f, g},  min_{rho in [1/4,1/2]} f,
         1/4 D(1/4 B1 + 3/4 B0 || B0) }
    with f(rho) = rho D(B1 || 3/4 B1 + 1/4 B0) and
    g(rho) = (1/2-rho) D((1-4rho) B1 + 4rho B0 || (1/2+rho) B1 + (1/2-rho) B0).
    """
    pair = _pair_at_half(profile)
    branch1 = _dya_crossing(pair)
    branch2 = _dya_f(0.25, pair)  # f = rho * D with D >= 0 is least at the left end
    branch3 = 0.25 * kl_bernoulli(pair.mix(0.25), pair.p0)
    return min(branch1, branch2, branch3)


def _log2_inverse(delta: float, epsilon: float) -> float:
    """log2(1/(delta*epsilon)), for a product in (0, 1) whose reciprocal is
    finite and above 1; ValueError otherwise."""
    product = delta * epsilon
    if not (product > 0.0 and 1.0 < 1.0 / product < math.inf):
        raise ValueError(
            f"delta*epsilon must be in (0, 1) with a finite reciprocal, got {product!r}"
        )
    return math.log2(1.0 / product)


def residual_f(
    rate: float, exponent: float, profile: NoiseProfile, delta: float, epsilon: float
) -> float:
    """Sub-leading term of the expected-search-time bound.

    log2(log2(1/(delta*epsilon)))/rate + 1/exponent
    + (96/(rate*exponent)) * ((1 - p(delta)) / p(delta))**2.
    """
    if rate <= 0.0 or exponent <= 0.0:
        raise ValueError(f"rate and exponent must be positive, got {rate}, {exponent}")
    inner = _log2_inverse(delta, epsilon)
    p_delta = eval_noise(profile, delta)
    return (
        math.log2(inner) / rate
        + 1.0 / exponent
        + (96.0 / (rate * exponent)) * ((1.0 - p_delta) / p_delta) ** 2
    )


def alpha_floor(constant: float, delta: float, epsilon: float) -> float:
    """Smallest query-fraction scale the asymptotic bound is stated for:
    (e * log2(1/(delta*epsilon)))**(-constant)."""
    return (math.e * _log2_inverse(delta, epsilon)) ** (-constant)


@dataclass(frozen=True)
class BoundReport:
    """Assembled expected-search-time upper bound for one strategy."""

    strategy: StrategyKind
    delta: float
    epsilon: float
    alpha: float
    constant: float
    rate_term: float
    reliability_term: float
    residual: float
    tau_upper: float
    floor: float


_BOUND_INPUT = {
    # strategy -> (constant fn, input weight q of I(q, p_alpha))
    StrategyKind.SORT_PM: (constant_k_s, 0.5),
    StrategyKind.DYA_PM: (constant_k_d, 0.5),
    StrategyKind.HIE_PM: (constant_k_h, 1.0 / 3.0),
}


def tau_upper_bound(
    strategy: StrategyKind,
    profile: NoiseProfile,
    delta: float,
    epsilon: float,
    alpha: float,
) -> BoundReport:
    """Expected-query-count upper bound at scale ``alpha`` (2**-l for the
    tree-constrained strategies).

    tau <= log2(1/delta)/R + log2(1/epsilon)/E + residual, with
    R = I(q, p(alpha)) (q = 1/2, or 1/3 for the hierarchical rule) and
    E = C1(p(delta)).

    The asymptotic statement requires ``alpha`` above :func:`alpha_floor`;
    at practical resolutions that floor is close to 1, so the bound is
    assembled regardless (it is loose but valid to compare against), and a
    caller that needs the precondition compares ``alpha`` with
    ``report.floor``.
    """
    if strategy not in _BOUND_INPUT:
        raise ValueError(f"no search-time bound for strategy {strategy!r}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"delta must be in (0, 0.5], got {delta}")
    if not (0.0 < alpha <= 0.5):
        raise ValueError(f"alpha must be in (0, 0.5], got {alpha}")
    const_fn, q = _BOUND_INPUT[strategy]
    constant = const_fn(profile)
    floor = alpha_floor(constant, delta, epsilon)
    rate = mutual_info_bsc(q, eval_noise(profile, alpha))
    exponent = reliability_c1(eval_noise(profile, delta))
    residual = residual_f(rate, exponent, profile, delta, epsilon)
    tau_upper = math.log2(1.0 / delta) / rate + math.log2(1.0 / epsilon) / exponent + residual
    return BoundReport(
        strategy=strategy,
        delta=delta,
        epsilon=epsilon,
        alpha=alpha,
        constant=constant,
        rate_term=rate,
        reliability_term=exponent,
        residual=residual,
        tau_upper=tau_upper,
        floor=floor,
    )


class FrontierClass(enum.Enum):
    OPTIMAL = "optimal"
    HIE_PM = "hie"
    MEDIAN_PM = "median"


def rate_reliability_frontier(
    profile: NoiseProfile, frontier_class: FrontierClass
) -> list[tuple[float, float]]:
    """Achievable (rate, reliability) pairs: the segment from (R_max, 0) to
    (0, E_max).

    Endpoints: (I(1/2, p_min), C1(p_min)) for the optimal class — attained by
    the sorted and dyadic rules; (I(1/3, p_min), C1(p_min)) for the
    hierarchical rule; and both equal to I(1/2, p_max) for the median rule,
    which suffers worst-case noise.
    """
    p_min = eval_noise(profile, 0.0)
    p_max = eval_noise(profile, 0.5)
    if frontier_class is FrontierClass.OPTIMAL:
        r_max, e_max = mutual_info_bsc(0.5, p_min), reliability_c1(p_min)
    elif frontier_class is FrontierClass.HIE_PM:
        r_max, e_max = mutual_info_bsc(1.0 / 3.0, p_min), reliability_c1(p_min)
    elif frontier_class is FrontierClass.MEDIAN_PM:
        r_max = e_max = mutual_info_bsc(0.5, p_max)
    else:
        raise ValueError(f"unknown frontier class {frontier_class!r}")
    rates = np.linspace(0.0, r_max, 101)
    return [(float(r), float(e_max * (1.0 - r / r_max))) for r in rates]
