"""Episode engine, Monte Carlo harness, and reproducibility."""

import dataclasses
import math
from concurrent.futures import Future

import numpy as np
import pytest

from noisysearch import sim
from noisysearch.channel import AffineNoise, ConstantNoise
from noisysearch.errors import CapExceededError
from noisysearch.posterior import PosteriorPartition
from noisysearch.sim import (
    EpisodeRecord,
    FixedLength,
    SearchConfig,
    VariableLength,
    episode_final_posterior,
    run_episode,
    run_monte_carlo,
    sweep_error_vs_queries,
    trial_rng,
    wilson_interval,
)
from noisysearch.strategies import StrategyKind

AFFINE = AffineNoise(0.1, 0.5)
NOISELESS = ConstantNoise(0.0, p_floor=0.0)
PROPOSED = (StrategyKind.SORT_PM, StrategyKind.DYA_PM, StrategyKind.HIE_PM)
ALL_KINDS = (StrategyKind.MEDIAN_PM,) + PROPOSED


def config(**kw) -> SearchConfig:
    base = dict(
        L=6,
        strategy=StrategyKind.MEDIAN_PM,
        profile=AFFINE,
        stopping=VariableLength(1e-3),
        seed=1,
    )
    base.update(kw)
    return SearchConfig(**base)


class TestEpisodeBasics:
    def test_noiseless_bisection(self):
        cfg = config(L=3, profile=NOISELESS, stopping=VariableLength(0.01))
        rec = run_episode(cfg, trial_rng(cfg.seed, 0))
        assert rec.tau == 3
        assert rec.correct

    def test_single_bin_shortcut(self):
        cfg = config(L=0)
        rec = run_episode(cfg, trial_rng(cfg.seed, 0))
        assert rec.tau == 0
        assert rec.estimate == 1
        assert rec.correct

    def test_fixed_length_stops_exactly(self):
        cfg = config(stopping=FixedLength(17), strategy=StrategyKind.DYA_PM)
        rec = run_episode(cfg, trial_rng(cfg.seed, 0))
        assert rec.tau == 17
        assert len(rec.query_sizes) == 17

    def test_record_consistency(self):
        cfg = config(strategy=StrategyKind.HIE_PM)
        rec = run_episode(cfg, trial_rng(cfg.seed, 3), trace=True)
        assert 1 <= rec.estimate <= cfg.n_bins
        assert rec.correct == (rec.estimate == rec.truth)
        assert len(rec.max_posterior_trace) == rec.tau
        assert rec.ops > 0
        # VL stops exactly when the peak first clears the threshold
        trace = rec.max_posterior_trace
        assert trace[-1] > 1.0 - 0.001
        assert all(v <= 1.0 - 0.001 for v in trace[:-1])

    def test_fixed_target(self):
        cfg = config(target=5, profile=NOISELESS, stopping=VariableLength(0.01))
        rec = run_episode(cfg, trial_rng(cfg.seed, 0))
        assert rec.truth == 5
        assert rec.estimate == 5

    def test_step_cap_guard(self, monkeypatch):
        monkeypatch.setattr(sim, "STEP_CAP", 64)
        cfg = config(profile=ConstantNoise(0.5), stopping=VariableLength(1e-6))
        with pytest.raises(CapExceededError):
            run_episode(cfg, trial_rng(0, 0))

    def test_stopping_validation(self):
        with pytest.raises(ValueError):
            FixedLength(0)
        with pytest.raises(ValueError):
            VariableLength(0.0)
        with pytest.raises(ValueError):
            VariableLength(1.0)
        with pytest.raises(ValueError):  # 1 - 1e-17 rounds to 1: no peak could pass it
            VariableLength(1e-17)
        VariableLength(1e-16)
        with pytest.raises(ValueError):
            config(target=99)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identical_streams_identical_records(self, kind):
        cfg = config(strategy=kind, L=7)
        a = run_episode(cfg, trial_rng(cfg.seed, 11), trace=True)
        b = run_episode(cfg, trial_rng(cfg.seed, 11), trace=True)
        assert a == b

    def test_trial_streams_are_disjoint(self):
        a = trial_rng(9, 0).random(8)
        b = trial_rng(9, 1).random(8)
        assert not np.allclose(a, b)

    def test_monte_carlo_worker_invariance(self):
        cfg = config(strategy=StrategyKind.DYA_PM, L=7, seed=12)
        s1 = run_monte_carlo(cfg, 60, workers=1)
        s2 = run_monte_carlo(cfg, 60, workers=2)
        assert s1 == s2

    def test_sweep_worker_invariance(self):
        cfg = config(strategy=StrategyKind.HIE_PM, L=6, stopping=FixedLength(20), seed=4)
        r1 = sweep_error_vs_queries(cfg, [5, 10, 20], 50, workers=1)
        r2 = sweep_error_vs_queries(cfg, [5, 10, 20], 50, workers=2)
        assert r1 == r2

    def test_pool_never_exceeds_cpu_count(self, monkeypatch):
        """An inline stand-in for the pool records its size and starts no
        process; the capped runs still match the single-process ones."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
        cfg = config(strategy=StrategyKind.DYA_PM, L=6, seed=12)
        assert run_monte_carlo(cfg, 40, workers=10_000) == run_monte_carlo(cfg, 40)
        fl = dataclasses.replace(cfg, stopping=FixedLength(20))
        assert sweep_error_vs_queries(fl, [5, 20], 40, workers=10_000) == (
            sweep_error_vs_queries(fl, [5, 20], 40)
        )
        assert sizes == [3, 3]


class TestEngineMatchesPublicApi:
    """The episode engine's fast paths must reproduce, bit for bit, a
    reference loop built from the public select/update functions."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_episode_equals_reference_loop(self, kind):
        from noisysearch.channel import sample_observation
        from noisysearch.posterior import (
            PosteriorDense,
            bayes_update_dense,
            bayes_update_partition,
        )
        from noisysearch.strategies import select

        horizon = 25
        cfg = config(L=6, strategy=kind, stopping=FixedLength(horizon), seed=99)
        n = cfg.n_bins
        for trial in range(10):
            rec = run_episode(cfg, trial_rng(cfg.seed, trial), trace=True)
            rng = trial_rng(cfg.seed, trial)
            truth = int(rng.integers(1, n + 1))
            post = (
                PosteriorDense.uniform(n)
                if kind is StrategyKind.SORT_PM
                else PosteriorPartition.uniform(n)
            )
            sizes = []
            peaks = []
            for _ in range(horizon):
                q = select(kind, post)
                member = bool(q.member_mask(n)[truth - 1])
                y = sample_observation(cfg.profile, member, q.size_fraction(n), rng)
                if kind is StrategyKind.SORT_PM:
                    post = bayes_update_dense(post, q, y, cfg.profile)
                else:
                    post = bayes_update_partition(post, q, y, cfg.profile)
                sizes.append(q.size_fraction(n))
                peaks.append(post.max_mass)
            assert rec.truth == truth
            assert rec.query_sizes == tuple(sizes)
            assert rec.max_posterior_trace == tuple(peaks)
            assert rec.estimate == post.argmax


class TestCheckpointPrefixProperty:
    def test_checkpoints_match_independent_fixed_length_runs(self):
        """A fixed-length run read off at step n equals the standalone
        fixed-length-n run on the same stream."""
        ns = (3, 7, 12, 20)
        for kind in ALL_KINDS:
            cfg = config(strategy=kind, stopping=FixedLength(20), seed=77)
            rec = run_episode(cfg, trial_rng(cfg.seed, 0), checkpoint_steps=ns)
            for n, est in zip(ns, rec.checkpoint_estimates):
                short = dataclasses.replace(cfg, stopping=FixedLength(n))
                solo = run_episode(short, trial_rng(cfg.seed, 0))
                assert solo.estimate == est
                assert solo.truth == rec.truth

    def test_checkpoints_require_fixed_length(self):
        cfg = config()
        with pytest.raises(ValueError):
            run_episode(cfg, trial_rng(0, 0), checkpoint_steps=[2, 4])


class TestNoiselessMonteCarlo:
    def test_median_pm_uses_exactly_l_queries(self):
        cfg = config(L=10, profile=NOISELESS, stopping=VariableLength(0.01), seed=3)
        summary = run_monte_carlo(cfg, 50)
        assert summary.error_rate == 0.0
        assert summary.mean_tau == 10.0
        assert summary.empirical_rate == pytest.approx(1.0)
        assert summary.empirical_reliability is None

    def test_sweep_support_halving_pattern(self):
        # after n noiseless halvings the posterior is uniform on 2**(L-n)
        # bins, so a uniform tie-broken argmax is right with rate 2**(n-L)
        cfg = config(
            L=6, profile=NOISELESS, stopping=FixedLength(8), seed=5,
            strategy=StrategyKind.MEDIAN_PM,
        )
        results = dict(sweep_error_vs_queries(cfg, [2, 4, 6, 8], 4000))
        assert results[6].error_rate == 0.0
        assert results[8].error_rate == 0.0
        assert results[2].error_rate == pytest.approx(1.0 - 2.0**-4, abs=0.02)
        assert results[4].error_rate == pytest.approx(1.0 - 2.0**-2, abs=0.02)


class TestVariableLengthContract:
    def test_error_rate_within_design_target(self):
        # the stopping threshold makes P(error | stop) < eps; verified here
        # per proposed strategy at the quoted scale with a frozen seed
        for kind in PROPOSED:
            cfg = config(L=15, strategy=kind, stopping=VariableLength(1e-3), seed=2026)
            summary = run_monte_carlo(cfg, 1000, workers=2)
            assert summary.error_rate <= 1e-3, (kind, summary.error_rate)

    def test_final_queries_shrink_to_single_bin(self):
        for kind in (StrategyKind.DYA_PM, StrategyKind.HIE_PM):
            single = 0
            trials = 1000
            cfg = config(L=10, strategy=kind, stopping=VariableLength(1e-3), seed=8)
            for i in range(trials):
                rec = run_episode(cfg, trial_rng(cfg.seed, i))
                mins = np.minimum.accumulate(rec.query_sizes)
                assert all(np.diff(mins) <= 0)
                if rec.query_sizes[-1] == 1.0 / cfg.n_bins:
                    single += 1
            assert single / trials >= 0.99, kind


class TestErrorOrdering:
    def test_sorted_beats_median_under_size_dependent_noise(self):
        n_query = 40
        errs = {}
        for kind in (StrategyKind.SORT_PM, StrategyKind.MEDIAN_PM):
            cfg = config(L=9, strategy=kind, stopping=FixedLength(n_query), seed=31)
            errs[kind] = run_monte_carlo(cfg, 2000, workers=2).error_rate
        assert errs[StrategyKind.SORT_PM] < errs[StrategyKind.MEDIAN_PM]

    def test_error_decreases_with_budget(self):
        for kind in PROPOSED:
            cfg = config(L=10, strategy=kind, stopping=FixedLength(40), seed=13)
            res = dict(sweep_error_vs_queries(cfg, [20, 40], 2000, workers=2))
            assert res[40].error_rate < res[20].error_rate

    def test_error_drops_past_capacity_corner(self):
        # at L=15 the rate limit predicts the drop past L / 0.531 = 28.25
        # queries: the n=40 error sits far below the n=25 error
        cfg = config(
            L=15, strategy=StrategyKind.SORT_PM, stopping=FixedLength(40), seed=37
        )
        res = dict(sweep_error_vs_queries(cfg, [25, 40], 3000, workers=2))
        assert res[40].error_hi < res[25].error_lo
        assert res[40].error_rate < 0.5 * res[25].error_rate


class TestWorkAccounting:
    """Per-step work follows the complexity table: O(#intervals) = O(t) for
    every strategy, sorted matching included (at most t + 1 runs), and
    nothing that grows with 2**L."""

    def test_partition_strategies_scale_with_time(self):
        for kind in ALL_KINDS:
            per_step = {}
            mean_tau = {}
            for L in (8, 12):
                cfg = config(L=L, strategy=kind, stopping=VariableLength(1e-3), seed=17)
                recs = [run_episode(cfg, trial_rng(cfg.seed, i)) for i in range(40)]
                per_step[L] = sum(r.ops for r in recs) / sum(r.tau for r in recs)
                mean_tau[L] = sum(r.tau for r in recs) / len(recs)
            measured = per_step[12] / per_step[8]
            predicted = mean_tau[12] / mean_tau[8]
            assert measured / predicted < 3.0, kind
            assert predicted / measured < 3.0, kind

    def test_sorted_matching_within_nlogn_budget(self):
        # t queries leave at most t + 1 runs, so an episode of tau steps
        # touches at most sum(t + 2) runs; per step that sits far inside the
        # dense n log n budget and does not grow like it between L = 8 and 12
        per_step = {}
        for L in (8, 12):
            cfg = config(L=L, strategy=StrategyKind.SORT_PM, stopping=VariableLength(1e-3), seed=19)
            recs = [run_episode(cfg, trial_rng(cfg.seed, i)) for i in range(40)]
            for r in recs:
                assert r.ops <= r.tau * (r.tau + 3) // 2
            per_step[L] = sum(r.ops for r in recs) / sum(r.tau for r in recs)
            assert per_step[L] < 2**L * L
        measured = per_step[12] / per_step[8]
        predicted = (2**12 * 12) / (2**8 * 8)
        assert measured < predicted / 3.0


class TestSummaries:
    def test_wilson_reference_values(self):
        lo, hi = wilson_interval(5, 100)
        assert lo == pytest.approx(0.02153, abs=2e-4)
        assert hi == pytest.approx(0.11173, abs=2e-4)

    def test_wilson_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(1.96**2 / (100 + 1.96**2), abs=2e-4)

    def test_wilson_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)

    def test_summary_fields(self):
        cfg = config(L=6, strategy=StrategyKind.DYA_PM, seed=23)
        s = run_monte_carlo(cfg, 100)
        assert s.trials == 100
        assert s.error_lo <= s.error_rate <= s.error_hi
        assert s.empirical_rate == pytest.approx(6.0 / s.mean_tau)
        if s.errors:
            assert s.empirical_reliability == pytest.approx(
                math.log2(1.0 / s.error_rate) / s.mean_tau
            )

    def test_final_posterior_replay(self):
        cfg = config(L=6, strategy=StrategyKind.DYA_PM, seed=29)
        post = episode_final_posterior(cfg)
        assert isinstance(post, PosteriorPartition)
        assert post.max_mass > 1.0 - 1e-3

    def test_episode_record_is_plain_data(self):
        rec = EpisodeRecord(
            tau=2, estimate=1, truth=1, correct=True, query_sizes=(0.5, 0.25)
        )
        assert rec.checkpoint_estimates is None
