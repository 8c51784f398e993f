"""Search episodes and Monte Carlo experiments.

An episode runs the closed loop select-query / observe / Bayes-update until
the stopping rule fires: fixed-length stops after exactly ``n`` queries,
variable-length stops once the largest posterior entry exceeds ``1 - eps``.
The declared estimate is the posterior argmax.

Reproducibility: trial ``i`` of a run seeded with ``s`` draws from a Philox
counter-based generator keyed by ``s`` with its counter advanced to block
``i``, so streams never overlap, results do not depend on the worker count,
and any single trial can be replayed in isolation.  A Monte Carlo run
draws a trial's channel uniforms in blocks of ``_UNIFORM_BLOCK``, which
hold the values of single draws, so a trial gives the same episode as
:func:`run_episode` on ``trial_rng(s, i)``.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import _batch
from .channel import NoiseProfile, _coefficients, _crossover
from .errors import CapExceededError, ContractViolationError
from .posterior import Posterior, _Partition, _Runs
from .strategies import _ROOT, StrategyKind, _run_for

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
# uniforms per draw of a Monte Carlo trial's channel noise: one numpy call
# per block instead of one per query
_UNIFORM_BLOCK = 64
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
        # 2**L bins must fit the int64 draw of the target
        if not (0 <= self.L <= 62):
            raise ValueError(f"L must be in 0..62, got {self.L}")
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


class _TrialStreams:
    """:func:`trial_rng` streams of one seed on one kept Philox, whose state
    costs far less to set than a new one costs to build.

    ``streams(i)`` sets the generator to the state ``trial_rng(seed, i)``
    starts in (the key, counter words ``[0, 0, i mod 2**64, i >> 64]``, an
    empty buffer and no spare 32-bit half) and returns it, so a stream is
    valid only until the next call.
    """

    __slots__ = ("_philox", "_state", "_counter", "_rng")

    def __init__(self, seed: int):
        self._philox = np.random.Philox(key=seed % (1 << 64))
        self._state = self._philox.state  # a fresh Philox: counter 0, buffer empty
        self._counter = self._state["state"]["counter"]
        self._rng = np.random.Generator(self._philox)

    def __call__(self, trial_index: int) -> np.random.Generator:
        self._counter[2] = trial_index & ((1 << 64) - 1)
        self._counter[3] = trial_index >> 64
        self._philox.state = self._state
        return self._rng


def _uniform_blocks(rng: np.random.Generator) -> Iterator[float]:
    """``rng``'s uniforms, drawn ``_UNIFORM_BLOCK`` at a time as they are
    used: the values of single ``rng.random()`` calls, in order.  The first
    block is drawn at the first ``next``, so draws made before it (the
    target) come first, as with single draws."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def _run(
    config: SearchConfig,
    rng: np.random.Generator,
    trace: bool,
    checkpoints: Optional[tuple[int, ...]],
    uniforms: Optional[Iterator[float]] = None,
) -> tuple[EpisodeRecord, Union[_Partition, _Runs]]:
    """One episode; returns its record and the final kernel state (frozen
    only on request, so sortPM never holds the ``n``-entry vector).

    ``rng`` gives the target (unless the config fixes it) and ``uniforms``
    the channel's noise, one uniform per query; by default they are single
    ``rng.random()`` draws.  A caller that owns ``rng`` passes
    :func:`_uniform_blocks` of it, which gives the same values.

    Each step evaluates the channel once, for both the observation and the
    update, through :func:`channel._crossover` with the profile's
    coefficients read once per episode (the floats of ``noise_for_size``), and
    passes the query to the kernel's ``update`` in the kernel's own form.
    Each connected-rule step starts its heavy-node descent from the previous
    step's node (:func:`strategies._heaviest`).  The kernel's O(#intervals)
    ``peak()`` scan runs only on steps that read the peak or the argmax: a
    traced step, a checkpoint, the fixed-length horizon, and a
    variable-length step whose largest interval mass (``peak_bound()``, an
    upper bound on every bin's mass) exceeds ``1 - eps``.  On any other step
    the peak cannot pass the threshold, so the record is the one a scan on
    every step would give.
    """
    n = config.n_bins
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
    # a fixed-length run never stops on the peak
    threshold = math.inf if fl_n is not None else 1.0 - config.stopping.epsilon
    cps = (*(checkpoints or ()), 0)  # in order, then 0, which no step matches
    c = 0  # cps[c] is the next checkpoint

    next_uniform = (iter(rng.random, None) if uniforms is None else uniforms).__next__
    a, b = _coefficients(config.profile)
    floor = config.profile.p_floor
    peak_bound = state.peak_bound
    depth = config.L
    node = _ROOT  # the last heavy node, where the next descent starts
    sizes: list[float] = []
    max_trace: list[float] = [] if trace else None
    cp_estimates: list[int] = [] if checkpoints is not None else None
    ops = 0

    for tau in range(1, STEP_CAP + 1):
        if sort:
            flags, size = state.select()
            frac = size / n
            p = _crossover(a, b, floor, frac)
            y = flags[bisect_right(state.los, truth) - 1] ^ (next_uniform() < p)
            state.update(flags, y, p)
        else:
            s1, s2, node = _run_for(kind, state, depth, node)
            frac = (s2 - s1 + 1) / n
            p = _crossover(a, b, floor, frac)
            y = (s1 <= truth <= s2) ^ (next_uniform() < p)
            state.update(s1, s2, y, p)
        k = len(state.los) - 1
        if k > cuts_per_step * tau + 1:
            raise ContractViolationError(
                f"posterior has {k} intervals after {tau} queries, "
                f"exceeding {cuts_per_step * tau + 1}"
            )
        ops += k
        sizes.append(frac)
        if (
            tau == fl_n or trace or tau == cps[c]
            or (fl_n is None and peak_bound() > threshold)
        ):
            peak, estimate = state.peak()
            if trace:
                max_trace.append(peak)
            if tau == cps[c]:
                cp_estimates.append(estimate)
                c += 1
            if tau == fl_n or peak > threshold:
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

    The episode draws from ``rng`` one integer for the target (unless the
    config fixes it) and then one uniform per query, the channel's noise, in
    query order; nothing else.

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
    rng = trial_rng(config.seed, trial_index)
    _, state = _run(config, rng, False, None, _uniform_blocks(rng))
    return state.freeze()


# The lockstep engine (:mod:`._batch`) beats the scalar one only from some
# tens of rows per batch: at L = 8..20 and n = 12..300 it breaks even near
# 24 rows for median, 16-24 for sort and 48-64 for dya and hie, and at one
# row it is 10-30x slower.  Each of a batch's (rows, _batch._row_width) arrays
# holds at most _BATCH_CELLS cells (512 KiB), and a batch at most
# _BATCH_MAX_ROWS rows: past a few hundred rows numpy's per-call cost is
# spread thin, while the batch's (rows,) vectors keep growing.
_BATCH_MIN_ROWS = 64
_BATCH_CELLS = 1 << 16
_BATCH_MAX_ROWS = 1 << 10


def _lockstep_batches(config: SearchConfig, trials: int) -> int:
    """How many near-equal lockstep batches ``trials`` trials of a run are
    cut into, or 0 when they go to the scalar engine.  Batched are
    fixed-length runs, at ``L`` where bin arithmetic is exact in float64,
    whose batches under the two caps have at least ``_BATCH_MIN_ROWS`` rows
    each."""
    if not (isinstance(config.stopping, FixedLength) and 1 <= config.L <= 53):
        return 0
    width = _batch._row_width(config.strategy is StrategyKind.SORT_PM, config.stopping.n)
    cap = min(_BATCH_MAX_ROWS, _BATCH_CELLS // width)
    if cap < _BATCH_MIN_ROWS:
        return 0
    count = -(-trials // cap)
    return count if trials // count >= _BATCH_MIN_ROWS else 0


def _draw_trials(config: SearchConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """``(truth, uniforms)`` of fixed-length trials ``start..stop-1``: row
    ``i`` holds trial ``start + i``'s target and then its horizon's uniforms,
    drawn as one ``random(n)`` block, which holds the values of single draws."""
    steps = config.stopping.n
    truth = np.full(stop - start, config.target or 0, dtype=np.int64)
    uniforms = np.empty((stop - start, steps))
    for row, rng in enumerate(map(_TrialStreams(config.seed), range(start, stop))):
        if config.target is None:
            truth[row] = rng.integers(1, config.n_bins + 1)
        uniforms[row] = rng.random(steps)
    return truth, uniforms


def _count_trials(
    config: SearchConfig, checkpoints: Optional[tuple[int, ...]], start: int, stop: int
) -> tuple[np.ndarray, int]:
    """Counts over trials ``start..stop-1``: errors at each checkpoint (or of
    the final estimate, without checkpoints) and the sum of stopping times.

    The trials run in units, each filling its targets and estimates for one
    reduction: the lockstep batches of a batched run (:func:`_draw_trials`,
    :func:`._batch.run_batch`), or else scalar :func:`_run` trials on kept
    streams (:class:`_TrialStreams`).  The counts are :func:`run_episode`'s
    on the same streams."""
    errors = np.zeros(len(checkpoints) if checkpoints else 1, dtype=np.int64)
    batched = _lockstep_batches(config, stop - start)
    # a scalar unit's estimates hold at most _BATCH_CELLS cells, as a batch's arrays do
    units = batched or -(-(stop - start) // max(1, _BATCH_CELLS // errors.size))
    tau_sum = 0
    edges = np.linspace(start, stop, units + 1, dtype=int).tolist()
    for a, b in zip(edges[:-1], edges[1:]):
        if batched:
            truth, uniforms = _draw_trials(config, a, b)
            estimates = _batch.run_batch(config, checkpoints, truth, uniforms)
            tau_sum += (b - a) * config.stopping.n
        else:
            truth = np.empty(b - a, dtype=np.int64)
            estimates = np.empty((b - a, errors.size), dtype=np.int64)
            for row, rng in enumerate(map(_TrialStreams(config.seed), range(a, b))):
                rec, _ = _run(config, rng, False, checkpoints, _uniform_blocks(rng))
                truth[row] = rec.truth
                estimates[row] = rec.checkpoint_estimates or rec.estimate
                tau_sum += rec.tau
        errors += np.count_nonzero(estimates != truth[:, None], axis=0)
    return errors, tau_sum


def _map_trials(
    config: SearchConfig, checkpoints: Optional[tuple[int, ...]], trials: int, workers: int
) -> tuple[np.ndarray, int]:
    """:func:`_count_trials` over all trials, on at most ``workers`` and
    ``os.cpu_count()`` processes; the integer counts do not depend on the
    chunking.  The run's units, its lockstep batches or else single trials,
    are cut into at most four chunks per process, so a batch keeps its rows.
    A run starts one process per chunk at most; a run of one chunk stays in
    the calling process."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    units = _lockstep_batches(config, trials) or trials
    chunks = min(4 * workers, units)
    workers = min(workers, chunks)
    if workers <= 1:
        return _count_trials(config, checkpoints, 0, trials)
    unit_starts = np.linspace(0, trials, units + 1, dtype=int)
    edges = unit_starts[np.linspace(0, units, chunks + 1, dtype=int)].tolist()
    from concurrent.futures import ProcessPoolExecutor  # only runs that start a pool pay for it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_count_trials, config, checkpoints, a, b)
                   for a, b in zip(edges[:-1], edges[1:])]
        counts = [fut.result() for fut in futures]
    return sum(e for e, _ in counts), sum(ts for _, ts in counts)


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
    if any(int(v) != v for v in n_values):
        raise ValueError(f"n_values must be integers, got {list(n_values)}")
    ns = tuple(sorted(set(int(v) for v in n_values)))
    if not ns or ns[0] < 1:
        raise ValueError("n_values must be non-empty positive integers")
    sweep_config = replace(config, stopping=FixedLength(ns[-1]))
    errors, _ = _map_trials(sweep_config, ns, trials, workers)
    return [
        (n, _summarize(config, trials, int(err), float(n) * trials))
        for n, err in zip(ns, errors)
    ]
