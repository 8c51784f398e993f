"""Size-dependent binary measurement channel.

A query of a fraction ``x`` of the search space is answered through a binary
symmetric channel whose crossover probability ``p(x)`` is a non-decreasing
function of ``x``.  This module defines the noise profiles, the observation
sampler, and the elementary information quantities (entropy, BSC mutual
information, Bernoulli KL divergence) that the rest of the package builds on.

All information quantities are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "P_FLOOR",
    "P_CEILING",
    "AffineNoise",
    "ConstantNoise",
    "NoiseProfile",
    "BernoulliPair",
    "eval_noise",
    "noise_for_size",
    "sample_observation",
    "binary_entropy",
    "mutual_info_bsc",
    "kl_bernoulli",
    "reliability_c1",
]

# Crossover probabilities are clamped away from {0, 1/2} so that likelihood
# ratios stay finite over arbitrarily long episodes.  Tests that need a truly
# noiseless channel override ``p_floor`` to 0 on the profile.
P_FLOOR = 1e-9
P_CEILING = 0.5 - 1e-9


@dataclass(frozen=True)
class AffineNoise:
    """Crossover probability ``p(x) = a + b*x`` on ``x in [0, 1/2]``."""

    a: float
    b: float
    p_floor: float = P_FLOOR

    def __post_init__(self) -> None:
        if not (0.0 <= self.a <= 1.0):
            raise ValueError(f"intercept a must be in [0, 1], got {self.a}")
        if not (0.0 <= self.b < math.inf):
            raise ValueError(f"slope b must be in [0, inf) (non-decreasing noise), got {self.b}")
        if not (0.0 <= self.p_floor < 0.5):
            raise ValueError(f"p_floor must be in [0, 0.5), got {self.p_floor}")


@dataclass(frozen=True)
class ConstantNoise:
    """Measurement-independent crossover probability ``p(x) = p``.

    Not used by the headline experiments; kept for regression against classic
    median-split behaviour under size-independent noise.
    """

    p: float
    p_floor: float = P_FLOOR

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"crossover p must be in [0, 1], got {self.p}")
        if not (0.0 <= self.p_floor < 0.5):
            raise ValueError(f"p_floor must be in [0, 0.5), got {self.p_floor}")


NoiseProfile = Union[AffineNoise, ConstantNoise]


@dataclass(frozen=True)
class BernoulliPair:
    """The pair B0 = Bern(p0), B1 = Bern(p1) used by the drift constants.

    ``p0`` and ``p1`` are the probabilities of observing a 1 when the target
    is outside / inside the queried set.  Mixtures ``w*B1 + (1-w)*B0`` are
    again Bernoulli; :meth:`mix` returns their parameter.
    """

    p0: float
    p1: float

    @classmethod
    def from_crossover(cls, p: float) -> "BernoulliPair":
        return cls(p0=p, p1=1.0 - p)

    def mix(self, weight_on_b1: float) -> float:
        return weight_on_b1 * self.p1 + (1.0 - weight_on_b1) * self.p0


def eval_noise(profile: NoiseProfile, size_fraction: float) -> float:
    """Crossover probability for a query covering ``size_fraction`` of the space.

    ``size_fraction`` must lie in [0, 1/2].  The raw profile value is clamped
    into ``[profile.p_floor, P_CEILING]``.
    """
    if not (0.0 <= size_fraction <= 0.5):
        raise ValueError(f"size_fraction must be in [0, 0.5], got {size_fraction}")
    return _crossover(*_coefficients(profile), profile.p_floor, size_fraction)


def _coefficients(profile: NoiseProfile) -> tuple[float, float]:
    """``(a, b)`` of the profile's unclamped value ``a + b*x``: constant
    noise is ``a = p, b = 0``."""
    if isinstance(profile, AffineNoise):
        return profile.a, profile.b
    return profile.p, 0.0


def _check_informative(profile: NoiseProfile) -> None:
    """Refuse a profile under which a half-size query, the size every rule
    asks, carries no information: the unclamped p(1/2) must be below 1/2
    (so a nan or inf coefficient is refused too)."""
    a, b = _coefficients(profile)
    if not (a + 0.5 * b < 0.5):
        raise ValueError(f"noise {profile} is uninformative: p(1/2) must be < 0.5")


def noise_for_size(profile: NoiseProfile, size_fraction: float) -> float:
    """Like :func:`eval_noise`, but saturating for supra-half query sets.

    Queries larger than half the search space (the median-split rule produces
    them) see the worst-case noise ``p_max = p(1/2)``: the profile is defined
    on [0, 1/2] and its maximum over all query sets is attained there.
    """
    return eval_noise(profile, min(size_fraction, 0.5))


def _crossover(a: float, b: float, floor: float, x: float) -> float:
    """The clamped crossover ``a + b*min(x, 1/2)`` of a query fraction ``x``
    in [0, 1], with no range check: the scalar formula every profile uses."""
    # min(x, 1/2), max(., floor) and min(., ceiling), each keeping its
    # first argument on a tie, as the builtins do
    p = a + b * (0.5 if x > 0.5 else x)
    p = floor if floor > p else p
    return P_CEILING if P_CEILING < p else p


def _noise_for_sizes(profile: NoiseProfile, fractions: np.ndarray) -> np.ndarray:
    """:func:`noise_for_size` elementwise over an array of query fractions in
    ``[0, 1]``: the same floats, clamped by the same max and then min."""
    a, b = _coefficients(profile)
    return np.minimum(np.maximum(a + b * np.minimum(fractions, 0.5), profile.p_floor), P_CEILING)


def sample_observation(
    profile: NoiseProfile,
    target_in_set: bool,
    size_fraction: float,
    rng: np.random.Generator,
) -> int:
    """One channel use: returns ``1(target_in_set) XOR z`` with ``z ~ Bern(p)``,
    where ``p = noise_for_size(profile, size_fraction)``.

    Consumes exactly one uniform draw from ``rng``.
    """
    p = noise_for_size(profile, size_fraction)
    return int(target_in_set) ^ int(rng.random() < p)


def binary_entropy(q: float) -> float:
    """H_b(q) in bits, with 0*log(0) = 0."""
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"probability must be in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def mutual_info_bsc(q: float, p: float) -> float:
    """Mutual information I(q, p) of input Bern(q) through a BSC(p), in bits."""
    return binary_entropy(q * (1.0 - p) + (1.0 - q) * p) - binary_entropy(p)


def kl_bernoulli(a: float, b: float) -> float:
    """D(Bern(a) || Bern(b)) in bits.

    Returns ``math.inf`` when ``b`` puts zero probability on an outcome that
    ``a`` gives positive mass.
    """
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"probabilities must be in [0, 1], got a={a}, b={b}")
    total = 0.0
    if a > 0.0:
        if b == 0.0:
            return math.inf
        total += a * math.log2(a / b)
    if a < 1.0:
        if b == 1.0:
            return math.inf
        total += (1.0 - a) * math.log2((1.0 - a) / (1.0 - b))
    return total


def reliability_c1(p: float) -> float:
    """C1(p) = D(Bern(p) || Bern(1-p)) = (1-2p) log2((1-p)/p), in bits."""
    if not (0.0 < p <= 0.5):
        if p == 0.0:
            return math.inf
        raise ValueError(f"p must be in (0, 0.5], got {p}")
    return kl_bernoulli(p, 1.0 - p)
