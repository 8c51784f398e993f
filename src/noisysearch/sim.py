"""Search episodes and Monte Carlo experiments.

An episode runs the closed loop select-query / observe / Bayes-update until
the stopping rule fires: fixed-length stops after exactly ``n`` queries,
variable-length stops once the largest posterior entry exceeds ``1 - eps``.
The declared estimate is the posterior argmax.

Reproducibility: trial ``i`` of a run seeded with ``s`` draws from a Philox
counter-based generator keyed by ``s`` with its counter advanced to block
``i``, so streams never overlap, results do not depend on the worker count,
and any single trial can be replayed in isolation.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .channel import NoiseProfile, noise_for_size, sample_observation
from .errors import CapExceededError, ContractViolationError
from .posterior import Posterior, _Partition, _Runs
from .strategies import StrategyKind, _run_for

__all__ = [
    "FixedLength",
    "VariableLength",
    "StoppingRule",
    "SearchConfig",
    "EpisodeRecord",
    "MonteCarloSummary",
    "trial_rng",
    "run_episode",
    "run_monte_carlo",
    "sweep_error_vs_queries",
    "episode_final_posterior",
    "wilson_interval",
]

STEP_CAP = 10**6
_WILSON_Z95 = 1.959963984540054


@dataclass(frozen=True)
class FixedLength:
    n: int

    def __post_init__(self) -> None:
        if not (1 <= self.n <= STEP_CAP):
            raise ValueError(f"fixed length must be in 1..{STEP_CAP}, got {self.n}")


@dataclass(frozen=True)
class VariableLength:
    epsilon: float

    def __post_init__(self) -> None:
        # at or below 2**-54, 1 - epsilon rounds to 1 and no peak can exceed it
        if not (0.0 < self.epsilon < 1.0) or 1.0 - self.epsilon == 1.0:
            raise ValueError(f"epsilon must be in (2**-54, 1), got {self.epsilon}")


StoppingRule = Union[FixedLength, VariableLength]


@dataclass(frozen=True)
class SearchConfig:
    """One fully-specified search experiment.

    ``L`` is the resolution exponent (2**L bins); ``target`` fixes the true
    bin, or draws it uniformly per episode when ``None``.
    """

    L: int
    strategy: StrategyKind
    profile: NoiseProfile
    stopping: StoppingRule
    seed: int
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.L < 0:
            raise ValueError(f"L must be >= 0, got {self.L}")
        if self.target is not None and not (1 <= self.target <= self.n_bins):
            raise ValueError(f"target must be in 1..{self.n_bins}, got {self.target}")

    @property
    def n_bins(self) -> int:
        return 1 << self.L


@dataclass(frozen=True)
class EpisodeRecord:
    """One search trajectory."""

    tau: int
    estimate: int
    truth: int
    correct: bool
    query_sizes: tuple[float, ...]
    ops: int = 0
    max_posterior_trace: Optional[tuple[float, ...]] = None
    checkpoint_estimates: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class MonteCarloSummary:
    trials: int
    errors: int
    error_rate: float
    error_lo: float
    error_hi: float
    mean_tau: float
    empirical_rate: float
    empirical_reliability: Optional[float]


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Chosen over the Wald interval for its coverage at proportions near 0,
    which is exactly the regime of low error rates.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= successes <= trials):
        raise ValueError(f"successes must be in 0..{trials}, got {successes}")
    p_hat = successes / trials
    z2n = z * z / trials
    center = (p_hat + z2n / 2.0) / (1.0 + z2n)
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2n / (4.0 * trials)) / (1.0 + z2n)
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == trials else min(center + half, 1.0)
    return lo, hi


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial stream: Philox keyed by the run seed, counter
    advanced to a disjoint 2**128-draw block per trial."""
    return np.random.Generator(
        np.random.Philox(key=seed % (1 << 64), counter=trial_index << 128)
    )


def _lemma_bound_check(n_intervals: int, steps_done: int, cuts_per_step: int) -> None:
    bound = cuts_per_step * steps_done + 1
    if n_intervals > bound:
        raise ContractViolationError(
            f"posterior has {n_intervals} intervals after {steps_done} queries, "
            f"exceeding {bound}"
        )


def _run(
    config: SearchConfig,
    rng: np.random.Generator,
    trace: bool,
    checkpoints: Optional[tuple[int, ...]],
) -> tuple[EpisodeRecord, Union[_Partition, _Runs]]:
    """One episode; returns its record and the final kernel state (frozen
    only on request, so sortPM never holds the ``n``-entry vector)."""
    n = config.n_bins
    profile = config.profile
    kind = config.strategy
    sort = kind is StrategyKind.SORT_PM
    # sortPM cuts at most one run per query, a connected query at most two
    state = _Runs.uniform(n) if sort else _Partition.uniform(n)
    cuts_per_step = 1 if sort else 2

    if config.target is not None:
        truth = config.target
    else:
        truth = int(rng.integers(1, n + 1))

    if n == 1:
        # single-bin search: the prior is already certain
        rec = EpisodeRecord(
            tau=0, estimate=1, truth=truth, correct=truth == 1, query_sizes=(),
            ops=0, max_posterior_trace=(1.0,) if trace else None,
            checkpoint_estimates=tuple(1 for _ in checkpoints) if checkpoints else None,
        )
        return rec, state

    fl_n = config.stopping.n if isinstance(config.stopping, FixedLength) else None
    vl_threshold = (
        1.0 - config.stopping.epsilon
        if isinstance(config.stopping, VariableLength)
        else None
    )

    depth = config.L
    sizes: list[float] = []
    max_trace: list[float] = [] if trace else None
    cp_estimates: list[int] = [] if checkpoints is not None else None
    ops = 0
    tau = 0

    for t in range(STEP_CAP):
        # query: the kernel's own form of the query set, as update arguments
        if sort:
            flags, size = state.select()
            member = flags[bisect_right(state.los, truth) - 1]
            query = (flags,)
        else:
            s1, s2 = _run_for(kind, state, depth)
            size = s2 - s1 + 1
            member = s1 <= truth <= s2
            query = (s1, s2)
        frac = size / n
        y = sample_observation(profile, member, frac, rng)
        state.update(*query, y, noise_for_size(profile, frac))
        _lemma_bound_check(len(state), t + 1, cuts_per_step)
        ops += len(state)
        peak, estimate = state.peak()
        tau = t + 1
        sizes.append(frac)
        if trace:
            max_trace.append(peak)
        if cp_estimates is not None and tau in checkpoints:
            cp_estimates.append(estimate)
        if fl_n is not None and tau == fl_n:
            break
        if vl_threshold is not None and peak > vl_threshold:
            break
    else:
        raise CapExceededError(f"episode exceeded {STEP_CAP} steps without stopping")

    rec = EpisodeRecord(
        tau=tau,
        estimate=estimate,
        truth=truth,
        correct=estimate == truth,
        query_sizes=tuple(sizes),
        ops=ops,
        max_posterior_trace=tuple(max_trace) if trace else None,
        checkpoint_estimates=tuple(cp_estimates) if cp_estimates is not None else None,
    )
    return rec, state


def run_episode(
    config: SearchConfig,
    rng: np.random.Generator,
    *,
    trace: bool = False,
    checkpoint_steps: Optional[Sequence[int]] = None,
) -> EpisodeRecord:
    """Run one search episode to completion.

    With ``checkpoint_steps`` (fixed-length runs only), the posterior argmax
    is also recorded after each listed step, which is exactly what a shorter
    fixed-length run with the same stream would declare: a length-n episode
    contains every shorter one as a prefix.
    """
    cps = None
    if checkpoint_steps is not None:
        cps = tuple(sorted(set(int(s) for s in checkpoint_steps)))
        if not cps or cps[0] < 1:
            raise ValueError("checkpoint steps must be positive")
        if not isinstance(config.stopping, FixedLength) or cps[-1] > config.stopping.n:
            raise ValueError("checkpoints must lie within a fixed-length horizon")
    rec, _ = _run(config, rng, trace, cps)
    return rec


def episode_final_posterior(config: SearchConfig, trial_index: int = 0) -> Posterior:
    """Replay one trial and return its final posterior (debugging aid).

    sortPM's posterior is the dense vector, built here from its runs."""
    _, state = _run(config, trial_rng(config.seed, trial_index), False, None)
    return state.freeze()


def _count_trials(
    config: SearchConfig, checkpoints: Optional[tuple[int, ...]], start: int, stop: int
) -> tuple[np.ndarray, int]:
    """Counts over trials ``start..stop-1``: errors at each checkpoint (or of
    the final estimate, without checkpoints) and the sum of stopping times."""
    errors = np.zeros(len(checkpoints) if checkpoints else 1, dtype=np.int64)
    tau_sum = 0
    for i in range(start, stop):
        rec, _ = _run(config, trial_rng(config.seed, i), False, checkpoints)
        estimates = rec.checkpoint_estimates if checkpoints else (rec.estimate,)
        for k, est in enumerate(estimates):
            errors[k] += est != rec.truth
        tau_sum += rec.tau
    return errors, tau_sum


def _map_trials(
    config: SearchConfig, checkpoints: Optional[tuple[int, ...]], trials: int, workers: int
) -> tuple[np.ndarray, int]:
    """:func:`_count_trials` over all trials, chunked on at most ``os.cpu_count()``
    processes; the integer counts do not depend on the chunking."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        return _count_trials(config, checkpoints, 0, trials)
    edges = np.linspace(0, trials, min(workers * 4, trials) + 1, dtype=int).tolist()
    errors = 0
    tau_sum = 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_count_trials, config, checkpoints, a, b)
            for a, b in zip(edges[:-1], edges[1:])
            if b > a
        ]
        for fut in futures:
            e, ts = fut.result()
            errors += e
            tau_sum += ts
    return errors, tau_sum


def _summarize(config: SearchConfig, trials: int, errors: int, tau_sum: float) -> MonteCarloSummary:
    error_rate = errors / trials
    lo, hi = wilson_interval(errors, trials)
    mean_tau = tau_sum / trials
    empirical_rate = config.L / mean_tau if mean_tau > 0 else math.inf
    reliability = None
    if errors > 0 and mean_tau > 0:
        reliability = math.log2(1.0 / error_rate) / mean_tau
    return MonteCarloSummary(
        trials=trials,
        errors=errors,
        error_rate=error_rate,
        error_lo=lo,
        error_hi=hi,
        mean_tau=mean_tau,
        empirical_rate=empirical_rate,
        empirical_reliability=reliability,
    )


def run_monte_carlo(config: SearchConfig, trials: int, workers: int = 1) -> MonteCarloSummary:
    """Independent episodes with per-trial substreams; aggregates error rate,
    mean stopping time, and the empirical rate/reliability pair.

    The outcome is identical for any ``workers`` value: trial streams are
    independent of scheduling and the reduction is in trial order over
    integer counters.
    """
    errors, tau_sum = _map_trials(config, None, trials, workers)
    return _summarize(config, trials, int(errors[0]), tau_sum)


def sweep_error_vs_queries(
    config: SearchConfig, n_values: Sequence[int], trials: int, workers: int = 1
) -> list[tuple[int, MonteCarloSummary]]:
    """Fixed-length error rates over a grid of query budgets.

    All budgets share the per-trial random streams (each trial is run once to
    the largest budget and read off at every checkpoint), so the resulting
    curves are directly comparable point by point.
    """
    ns = tuple(sorted(set(int(v) for v in n_values)))
    if not ns or ns[0] < 1:
        raise ValueError("n_values must be non-empty positive integers")
    sweep_config = replace(config, stopping=FixedLength(ns[-1]))
    errors, _ = _map_trials(sweep_config, ns, trials, workers)
    return [
        (n, _summarize(config, trials, int(err), float(n) * trials))
        for n, err in zip(ns, errors)
    ]
