"""Episode engine, Monte Carlo harness, and reproducibility."""

import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys
from concurrent.futures import Future
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from noisysearch import _batch, sim, strategies
from noisysearch.channel import AffineNoise, ConstantNoise
from noisysearch.errors import CapExceededError, ContractViolationError
from noisysearch.posterior import PosteriorPartition, _Partition
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
CONNECTED = (StrategyKind.MEDIAN_PM, StrategyKind.DYA_PM, StrategyKind.HIE_PM)


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
        with pytest.raises(ValueError, match="L must be in 0..62"):
            config(L=63)  # 2**63 bins overflow the int64 draw of the target
        config(L=62)


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

    def test_kept_stream_equals_trial_rng(self):
        # each trial but the first starts after one that left a spare 32-bit
        # half and a part-used buffer
        seed = (1 << 64) + 12345
        streams = sim._TrialStreams(seed)
        for i in (0, 1, 7, (1 << 64) + 3):
            kept, ref = streams(i), trial_rng(seed, i)
            assert repr(kept.bit_generator.state) == repr(ref.bit_generator.state), i
            assert kept.integers(1, 4097) == ref.integers(1, 4097)
            assert kept.random(5).tolist() == ref.random(5).tolist()
            assert kept.bit_generator.state["has_uint32"] == 1
            assert 0 < kept.bit_generator.state["buffer_pos"] < 4

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_block_draws_give_run_episode_counts(self, kind, monkeypatch):
        # 3-uniform blocks: every episode refills its block many times
        monkeypatch.setattr(sim, "_UNIFORM_BLOCK", 3)
        for stopping, cps in ((VariableLength(0.2), None), (FixedLength(30), (4, 11, 30))):
            cfg = config(L=8, strategy=kind, stopping=stopping, seed=17)
            records = [
                run_episode(cfg, trial_rng(cfg.seed, i), checkpoint_steps=cps)
                for i in range(5, 45)
            ]
            estimates = [r.checkpoint_estimates if cps else (r.estimate,) for r in records]
            errors = np.sum([[e != r.truth for e in est] for r, est in zip(records, estimates)], 0)
            assert errors.any()
            assert sim._lockstep_batches(cfg, 40) == 0
            counts, tau_sum = sim._count_trials(cfg, cps, 5, 45)
            assert counts.tolist() == errors.tolist()
            assert tau_sum == sum(r.tau for r in records)
            for i in (5, 6):
                _, state = sim._run(cfg, trial_rng(cfg.seed, i), False, None)
                assert episode_final_posterior(cfg, i).mass.tolist() == (
                    state.freeze().mass.tolist()
                )

    def test_scalar_units_give_the_counts_of_one(self, monkeypatch):
        # 40 scalar trials at a cell budget of 7 estimates per checkpoint:
        # six units, each counted on its own
        for stopping, cps in ((VariableLength(0.2), None), (FixedLength(30), (4, 11, 30))):
            cfg = config(L=8, strategy=StrategyKind.DYA_PM, stopping=stopping, seed=17)
            whole, whole_tau = sim._count_trials(cfg, cps, 5, 45)
            with monkeypatch.context() as m:
                m.setattr(sim, "_BATCH_CELLS", 7 * len(cps or (0,)))
                units, units_tau = sim._count_trials(cfg, cps, 5, 45)
            assert whole.any()
            assert units.tolist() == whole.tolist() and units_tau == whole_tau

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

    def test_pool_never_exceeds_cpu_count(self, inline_pool, monkeypatch):
        """The capped runs still match the single-process ones."""
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
        cfg = config(strategy=StrategyKind.DYA_PM, L=6, seed=12)
        assert run_monte_carlo(cfg, 40, workers=10_000) == run_monte_carlo(cfg, 40)
        fl = dataclasses.replace(cfg, stopping=FixedLength(20))
        assert sweep_error_vs_queries(fl, [5, 20], 40, workers=10_000) == (
            sweep_error_vs_queries(fl, [5, 20], 40)
        )
        assert inline_pool == [3, 3]


@pytest.fixture
def inline_pool(monkeypatch):
    """Replaces the process pool by an inline stand-in that starts no
    process, and returns the list of the pool sizes asked for."""
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

    # sim imports the pool class from here when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestProcessPolicy:
    """A run starts at most one process per lockstep batch or chunk, and a
    run that starts no pool does not import one."""

    def test_import_leaves_out_the_pool(self):
        code = ("import sys, noisysearch, noisysearch.cli; "
                "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
        src = str(Path(sim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_batch_runs_in_the_calling_process(self, kind, inline_pool, monkeypatch):
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        cfg = config(L=8, strategy=kind, stopping=FixedLength(20), seed=3)
        assert sim._lockstep_batches(cfg, 100) == 1
        assert run_monte_carlo(cfg, 100, workers=2) == run_monte_carlo(cfg, 100)
        assert sweep_error_vs_queries(cfg, [5, 20], 100, workers=2) == (
            sweep_error_vs_queries(cfg, [5, 20], 100)
        )
        assert inline_pool == []

    def test_no_more_processes_than_chunks(self, inline_pool, monkeypatch):
        # scalar runs: one trial is one chunk, three trials three chunks
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
        cfg = config(strategy=StrategyKind.DYA_PM, L=6, seed=12)
        assert run_monte_carlo(cfg, 1, workers=2) == run_monte_carlo(cfg, 1)
        assert inline_pool == []
        assert run_monte_carlo(cfg, 3, workers=8) == run_monte_carlo(cfg, 3)
        assert inline_pool == [3]

    def test_one_process_per_batch(self, inline_pool, monkeypatch):
        # 216 trials at n = 300 make two batches of 108 rows, so a pool of
        # two; chunks on batch edges keep every batch at 108 rows
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
        rows = []
        run_batch = _batch.run_batch

        def counted(config, checkpoints, truth, uniforms):
            rows.append(truth.size)
            return run_batch(config, checkpoints, truth, uniforms)

        monkeypatch.setattr(_batch, "run_batch", counted)
        cfg = config(L=12, strategy=StrategyKind.MEDIAN_PM, stopping=FixedLength(300), seed=3)
        assert sim._lockstep_batches(cfg, 216) == 2
        assert sweep_error_vs_queries(cfg, [10, 300], 216, workers=8) == (
            sweep_error_vs_queries(cfg, [10, 300], 216)
        )
        assert inline_pool == [2]
        assert rows == [108, 108] * 2

    @pytest.mark.parametrize("trials", (3000, 20_000))
    def test_chunks_hold_whole_batches(self, trials, inline_pool, monkeypatch):
        # one step at L = 8 allows 1024 rows a batch: 3 or 20 batches of 1000
        # rows, more than the two processes; a chunk of whole batches cuts
        # them again into batches of 1000 rows
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        rows = []
        run_batch = _batch.run_batch

        def counted(config, checkpoints, truth, uniforms):
            rows.append(truth.size)
            return run_batch(config, checkpoints, truth, uniforms)

        monkeypatch.setattr(_batch, "run_batch", counted)
        cfg = config(L=8, strategy=StrategyKind.DYA_PM, stopping=FixedLength(1), seed=3)
        assert sim._lockstep_batches(cfg, trials) == trials // 1000
        assert run_monte_carlo(cfg, trials, workers=2) == run_monte_carlo(cfg, trials)
        assert inline_pool == [2]
        assert len(rows) == 2 * trials // 1000 and min(rows) >= sim._BATCH_MIN_ROWS


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


class TestGatedPeakScan:
    """The engine scans for the peak only on steps that read it; a traced
    run scans on every step, so it is the reference."""

    SWEEP = tuple(range(10, 61, 5))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("L", (12, 20))
    @pytest.mark.parametrize("fixed", (False, True), ids=("vl", "fl"))
    def test_untraced_equals_traced(self, kind, L, fixed):
        stopping = FixedLength(self.SWEEP[-1]) if fixed else VariableLength(1e-3)
        cps = self.SWEEP if fixed else None
        cfg = config(L=L, strategy=kind, stopping=stopping, seed=41)
        for i in range(20):
            plain = run_episode(cfg, trial_rng(cfg.seed, i), checkpoint_steps=cps)
            traced = run_episode(cfg, trial_rng(cfg.seed, i), trace=True, checkpoint_steps=cps)
            assert plain == dataclasses.replace(traced, max_posterior_trace=None), i

    @pytest.fixture
    def peak_calls(self, monkeypatch):
        calls = []
        for kernel in (sim._Partition, sim._Runs):
            def counted(state, _peak=kernel.peak):
                calls.append(1)
                return _peak(state)

            monkeypatch.setattr(kernel, "peak", counted)
        return calls

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_variable_length_scans_only_steps_that_can_stop(self, kind, peak_calls):
        # only the last few steps can hold an interval of mass above 1 - eps
        cfg = config(L=12, strategy=kind, seed=43)
        trials, calls = 10, 0
        for i in range(trials):
            del peak_calls[:]
            rec = run_episode(cfg, trial_rng(cfg.seed, i))
            assert len(peak_calls) < rec.tau, i
            calls += len(peak_calls)
        assert trials <= calls <= 2 * trials  # the stopping steps scan

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sweep_scans_once_per_checkpoint(self, kind, peak_calls):
        cfg = config(L=12, strategy=kind, stopping=FixedLength(self.SWEEP[-1]), seed=47)
        sweep_error_vs_queries(cfg, self.SWEEP, 5)
        assert len(peak_calls) == 5 * len(self.SWEEP)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_batch_sweep_scans_once_per_checkpoint(self, kind, monkeypatch):
        rows = []
        batch_class = _batch._RunBatch if kind is StrategyKind.SORT_PM else _batch._Batch
        peak = batch_class.peak

        def counted(batch):
            out = peak(batch)
            rows.append(out.size)
            return out

        monkeypatch.setattr(batch_class, "peak", counted)
        cfg = config(L=12, strategy=kind, stopping=FixedLength(self.SWEEP[-1]), seed=47)
        sweep_error_vs_queries(cfg, self.SWEEP, 64)
        assert rows == [64] * len(self.SWEEP)

    def test_interval_count_check_fires(self, monkeypatch):
        # dyaPM's single-bin queries cut twice, so one more interval breaks 2t + 1
        update = sim._Partition.update

        def update_and_split(self, *args):
            update(self, *args)
            j = max(range(len(self)), key=lambda u: self.los[u + 1] - self.los[u])
            self.cut((self.los[j] + self.los[j + 1]) // 2)  # one interval more
            self.cums = list(accumulate(self.masses, initial=0.0))

        monkeypatch.setattr(sim._Partition, "update", update_and_split)
        cfg = config(L=10, strategy=StrategyKind.DYA_PM, stopping=FixedLength(40), seed=53)
        with pytest.raises(ContractViolationError):
            run_episode(cfg, trial_rng(cfg.seed, 0))


class TestWarmStartDescent:
    """Each engine step starts the heavy-node descent from the previous
    step's node; it must return what a descent from the root returns."""

    PROFILES = {
        "affine": AFFINE,
        "constant": ConstantNoise(0.2),
        "noiseless": AffineNoise(0.0, 0.5, p_floor=0.0),
    }

    @pytest.fixture
    def starts(self, monkeypatch):
        """The start node of every descent, each checked against a cold one."""
        heaviest = strategies._heaviest
        calls = []

        def checked(idx, depth, start=strategies._ROOT):
            got = heaviest(idx, depth, start)
            assert got == heaviest(idx, depth), (start, got)
            calls.append(start)
            return got

        monkeypatch.setattr(strategies, "_heaviest", checked)
        return calls

    @pytest.mark.parametrize("kind", (StrategyKind.DYA_PM, StrategyKind.HIE_PM))
    @pytest.mark.parametrize("L", (3, 8, 12, 20))
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("fixed", (False, True), ids=("vl", "fl"))
    def test_episodes_match_cold_descent(self, kind, L, profile, fixed, starts):
        stopping = FixedLength(80) if fixed else VariableLength(1e-3)
        cps = (10, 40, 80) if fixed else None
        cfg = config(L=L, strategy=kind, profile=self.PROFILES[profile], stopping=stopping,
                     seed=59)
        steps = 0
        for i in range(4):
            steps += run_episode(cfg, trial_rng(cfg.seed, i), checkpoint_steps=cps).tau
        assert len(starts) == steps
        # after the first step an episode starts where the last descent ended
        assert sum(s != strategies._ROOT for s in starts) >= steps // 2

    @staticmethod
    def every_start(part, depth):
        cold = strategies._heaviest(part, depth)
        for level in range(depth + 1):
            for m in range(1 << level):
                assert strategies._heaviest(part, depth, (level, m)) == cold, (level, m)
        return cold

    def test_start_just_below_the_margin(self):
        # bin 1 weighs 1/2 + margin/2 and bins 2..4 nothing, so the nodes on
        # its path below the root weigh above 1/2 but below the margin: a
        # start at any of them climbs to the root
        heavy = 0.5 + strategies._HEAVY_MARGIN / 2
        assert 0.5 < heavy < 0.5 + strategies._HEAVY_MARGIN
        masses = [heavy, 0.0, 1.0 - heavy]
        part = _Partition([1, 2, 5, 9], masses, list(accumulate(masses, initial=0.0)))
        assert self.every_start(part, 3)[:2] == (3, 0)

    def test_fork_reached_from_a_start_node(self):
        # node (1, 0) splits exactly in half: bins 2 and 3 weigh 1/2 each
        masses = [0.0, 0.5, 0.5, 0.0]
        part = _Partition([1, 2, 3, 4, 9], masses, list(accumulate(masses, initial=0.0)))
        assert self.every_start(part, 3) == (3, 1, 0.0, None, 0.5)


class TestEngineWork:
    @pytest.mark.parametrize("L", (12, 20))
    def test_prefix_reads_per_hie_step(self, L, monkeypatch):
        prefix = sim._Partition.prefix
        calls = []

        def counted(part, k):
            calls.append(k)
            return prefix(part, k)

        monkeypatch.setattr(sim._Partition, "prefix", counted)
        cfg = config(L=L, strategy=StrategyKind.HIE_PM, seed=3)
        steps = sum(run_episode(cfg, trial_rng(cfg.seed, i)).tau for i in range(40))
        assert len(calls) <= 5 * steps  # a descent from the root reads about L / 2

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("stopping", (VariableLength(1e-3), FixedLength(30)), ids=("vl", "fl"))
    @pytest.mark.parametrize("target", (None, 5))
    def test_one_uniform_per_query(self, kind, stopping, target):
        cfg = config(L=8, strategy=kind, stopping=stopping, target=target, seed=61)
        for i in range(5):
            rng = trial_rng(cfg.seed, i)
            rec = run_episode(cfg, rng)
            ref = trial_rng(cfg.seed, i)
            if target is None:
                ref.integers(1, cfg.n_bins + 1)
            for _ in range(rec.tau):
                ref.random()
            assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state), i


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

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_checkpoint_at_every_step(self, kind):
        ns = range(1, 121)
        cfg = config(L=12, strategy=kind, stopping=FixedLength(120), seed=79)
        rec = run_episode(cfg, trial_rng(cfg.seed, 0), checkpoint_steps=ns)
        solo = [
            run_episode(dataclasses.replace(cfg, stopping=FixedLength(n)),
                        trial_rng(cfg.seed, 0)).estimate
            for n in ns
        ]
        assert list(rec.checkpoint_estimates) == solo

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

    def test_workers_below_one_rejected(self):
        cfg = config(L=6, strategy=StrategyKind.DYA_PM, seed=23)
        with pytest.raises(ValueError, match="workers"):
            run_monte_carlo(cfg, 10, workers=-1)
        with pytest.raises(ValueError, match="workers"):
            sweep_error_vs_queries(cfg, [2, 4], 10, workers=0)

    def test_non_integral_budgets_rejected(self):
        cfg = config(L=6, strategy=StrategyKind.DYA_PM, seed=23)
        with pytest.raises(ValueError, match="integers"):
            sweep_error_vs_queries(cfg, [2.7, 3.2], 10)
        assert [n for n, _ in sweep_error_vs_queries(cfg, [2.0, 3], 10)] == [2, 3]

    def test_episode_record_is_plain_data(self):
        rec = EpisodeRecord(
            tau=2, estimate=1, truth=1, correct=True, query_sizes=(0.5, 0.25)
        )
        assert rec.checkpoint_estimates is None
