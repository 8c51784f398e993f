"""The lockstep batch engine against the scalar engine it copies.

Every row of a batch must give, bit for bit, the checkpoint and horizon
estimates of :func:`sim._run` on the same trial stream, whatever the batch
size and whichever rows share the batch.
"""

import tracemalloc

import numpy as np
import pytest

from noisysearch import _batch, sim, strategies
from noisysearch.channel import AffineNoise, ConstantNoise
from noisysearch.errors import ContractViolationError
from noisysearch.posterior import _Partition
from noisysearch.sim import FixedLength, SearchConfig, VariableLength, trial_rng
from noisysearch.strategies import StrategyKind

CONNECTED = (StrategyKind.MEDIAN_PM, StrategyKind.DYA_PM, StrategyKind.HIE_PM)
PROFILES = {
    "affine": AffineNoise(0.1, 0.5),
    "constant": ConstantNoise(0.2),
    "noiseless": ConstantNoise(0.0, p_floor=0.0),
}


def config(kind, L, profile, n, target=None, seed=11) -> SearchConfig:
    return SearchConfig(L=L, strategy=kind, profile=profile, stopping=FixedLength(n),
                        seed=seed, target=target)


def checkpoints(n: int) -> tuple:
    return tuple(sorted({1, (n + 1) // 2, n}))


def assert_rows_match(cfg, start: int, sizes: tuple, horizon: bool = False) -> None:
    """Trials from ``start`` on, in consecutive batches of ``sizes`` rows:
    their estimates at checkpoints that end at the horizon, and with
    ``horizon`` also from a batch without checkpoints."""
    cps = checkpoints(cfg.stopping.n)
    edges = np.cumsum((start,) + sizes).tolist()
    for a, b in zip(edges[:-1], edges[1:]):
        truth, at_cps = _batch.run_batch(cfg, cps, a, b)
        for row, i in enumerate(range(a, b)):
            rec, _ = sim._run(cfg, trial_rng(cfg.seed, i), False, cps)
            assert truth[row] == rec.truth, i
            assert tuple(at_cps[row]) == rec.checkpoint_estimates, i
            assert at_cps[row, -1] == rec.estimate, i
        if horizon:
            truth_h, at_horizon = _batch.run_batch(cfg, None, a, b)
            assert np.array_equal(truth_h, truth)
            assert np.array_equal(at_horizon[:, 0], at_cps[:, -1])


@pytest.mark.parametrize("profile", PROFILES.values(), ids=PROFILES.keys())
@pytest.mark.parametrize("L", (1, 2, 8, 12, 20))
@pytest.mark.parametrize("kind", CONNECTED, ids=lambda k: k.value)
def test_rows_equal_scalar_episodes(kind, L, profile):
    for target in (None, 1 << (L - 1)):
        for n, sizes in ((1, (37, 2, 1)), (7, (37, 2, 1)), (60, (2,))):
            assert_rows_match(config(kind, L, profile, n, target), 0, sizes)


@pytest.mark.parametrize("profile", PROFILES.values(), ids=PROFILES.keys())
@pytest.mark.parametrize("L", (2, 8, 20))
@pytest.mark.parametrize("kind", CONNECTED, ids=lambda k: k.value)
def test_every_step_equals_scalar_partition(kind, L, profile, monkeypatch):
    # after every update, each row holds the query, answer, crossover and
    # interval starts, masses and prefix sums of the scalar _Partition, and
    # pads up to the widest row hold start n + 1, mass 0 and the row's total
    cfg = config(kind, L, profile, 40, seed=9)
    rows, n = 20, cfg.n_bins
    scalar = []  # per trial, per step
    update = _Partition.update

    def record(state, s1, s2, y, p):
        update(state, s1, s2, y, p)
        scalar[-1].append((s1, s2, bool(y), p, state.los[:], state.masses[:], state.cums[:]))

    monkeypatch.setattr(_Partition, "update", record)
    for i in range(rows):
        scalar.append([])
        sim._run(cfg, trial_rng(cfg.seed, i), False, None)

    batched = []
    batch_update = _batch._Batch.update

    def record_batch(batch, s1, s2, y, p):
        batch_update(batch, s1, s2, y, p)
        batched.append(tuple(a.copy() for a in (s1, s2, y, p, batch.los, batch.masses,
                                                  batch.cums, batch.k)) + (batch.w,))

    monkeypatch.setattr(_batch._Batch, "update", record_batch)
    _batch.run_batch(cfg, None, 0, rows)
    assert len(batched) == 40
    for t, (s1, s2, y, p, los, masses, cums, k, w) in enumerate(batched):
        assert w == k.max()
        for i in range(rows):
            j = k[i]
            got = (s1[i], s2[i], bool(y[i]), p[i], los[i, :j].tolist(),
                   masses[i, :j].tolist(), cums[i, :j].tolist())
            assert got == scalar[i][t], (t, i)
            assert (los[i, j : w + 1] == n + 1).all(), (t, i)
            assert (masses[i, j:w] == 0.0).all(), (t, i)
            assert (cums[i, j:w] == cums[i, j - 1]).all(), (t, i)


@pytest.mark.parametrize("kind", CONNECTED, ids=lambda k: k.value)
def test_reads_equal_partition_reads(kind, monkeypatch):
    # prefix and first_reaching of a batch after 8 steps, against a
    # _Partition holding each row's intervals, at every interval's ends and
    # middle and at targets on, between and beyond the prefix sums, and
    # _best_prefix_end from every interval start
    seen = []
    update = _batch._Batch.update

    def keep(batch, *args):
        update(batch, *args)
        seen.append(batch)

    monkeypatch.setattr(_batch._Batch, "update", keep)
    _batch.run_batch(config(kind, 12, PROFILES["affine"], 8), None, 0, 20)
    batch = seen[-1]
    parts = []
    for i in range(20):
        j = batch.k[i]
        his = (batch.los[i, 1 : j + 1] - 1).tolist()
        parts.append(_Partition(batch.los[i, :j].tolist(), his, batch.masses[i, :j].tolist(),
                                batch.cums[i, :j].tolist()))
    for i, part in enumerate(parts):
        bins = sorted({0} | {b for lo, hi in zip(part.los, part.his)
                             for b in (lo, (lo + hi) // 2, hi)})
        got = batch.prefix(np.full(len(bins), i), np.array(bins))
        assert got.tolist() == [part.prefix(b) for b in bins], i
    for c in range(batch.w):
        for shift in (-1e-3, 0.0, 1e-3, 0.7):
            target = batch.cums[:, c] + shift
            ks, js = batch.first_reaching(target)
            for i, part in enumerate(parts):
                assert (ks[i], js[i]) == part.first_reaching(target[i]), (c, shift, i)
    for c in range(batch.w):
        start = batch.los[:, c].copy()
        start[start > batch.n] = 1  # rows with fewer intervals start at bin 1
        base = batch.prefix(None, start - 1)
        got = _batch._best_prefix_end(batch, start, base)
        for i, part in enumerate(parts):
            assert got[i] == strategies._best_prefix_end(part, start[i], base[i]), (c, i)


@pytest.mark.parametrize("kind", CONNECTED, ids=lambda k: k.value)
def test_batches_of_37_and_150_rows(kind):
    assert_rows_match(config(kind, 12, PROFILES["affine"], 60), 100, (37, 150), horizon=True)


@pytest.mark.parametrize("kind", CONNECTED, ids=lambda k: k.value)
def test_counts_equal_scalar_counts(kind, monkeypatch):
    # 137 trials at n = 200 (at most 81 rows a batch) run as batches of 68 and 69
    cfg = config(kind, 10, PROFILES["affine"], 200)
    cps = (5, 50, 120, 200)
    assert sim._lockstep_batches(cfg, 137) == 2
    batched = sim._count_trials(cfg, cps, 3, 140)
    monkeypatch.setattr(sim, "_lockstep_batches", lambda config, trials: 0)
    scalar = sim._count_trials(cfg, cps, 3, 140)
    assert np.array_equal(batched[0], scalar[0]) and batched[1] == scalar[1]


def test_dispatch():
    affine = PROFILES["affine"]
    batches = sim._lockstep_batches
    for kind in CONNECTED:
        assert batches(config(kind, 12, affine, 10), 64) == 1
        assert batches(config(kind, 53, affine, 10), 150) == 1
        assert batches(config(kind, 12, affine, 1), 1025) == 2  # at most 1024 rows
        assert batches(config(kind, 12, affine, 200), 162) == 2  # at most 81 rows
        assert batches(config(kind, 12, affine, 254), 64) == 1  # 64 rows of 511 cells fit
        # below the crossover: a small run, or a split into batches below it
        assert batches(config(kind, 12, affine, 10), 63) == 0
        assert batches(config(kind, 12, affine, 200), 127) == 0
        assert batches(config(kind, 12, affine, 255), 1000) == 0
        assert batches(config(kind, 54, affine, 10), 150) == 0
        assert batches(config(kind, 0, affine, 10), 150) == 0
        assert batches(SearchConfig(L=12, strategy=kind, profile=affine,
                                    stopping=VariableLength(1e-3), seed=1), 150) == 0
    assert batches(config(StrategyKind.SORT_PM, 12, affine, 10), 150) == 0


def test_small_runs_take_the_scalar_engine(monkeypatch):
    def refuse(*args):
        raise AssertionError("a small run reached the batch engine")

    monkeypatch.setattr(_batch, "run_batch", refuse)
    for kind in CONNECTED:
        cfg = config(kind, 12, PROFILES["affine"], 60)
        sim.run_monte_carlo(cfg, 1)
        sim.sweep_error_vs_queries(cfg, [10, 60], 63)


@pytest.mark.parametrize("seed", (0, 7, 2**63 + 5))
def test_uniform_block_equals_scalar_draws(seed):
    for i in (0, 1, 1000):
        block, single = trial_rng(seed, i), trial_rng(seed, i)
        assert block.integers(1, 4097) == single.integers(1, 4097)
        values = block.random(61)
        assert values.tolist() == [single.random() for _ in range(61)]
        assert block.random() == single.random()  # both streams end at the same place


def test_clamped_crossovers():
    # p(x) below the floor (0.05 < 0.1) and above the ceiling (1.5 x near 1/2)
    for profile in (ConstantNoise(0.05, p_floor=0.1), AffineNoise(0.0, 1.5)):
        for kind in CONNECTED:
            assert_rows_match(config(kind, 12, profile, 20), 0, (37,))


def test_interval_count_check_fires(monkeypatch):
    # each cut also cuts one bin further on: dyaPM's first query, [1, 2**9],
    # leaves four intervals where 2t + 1 = 3 are allowed
    cut = _batch._Batch.cut

    def cut_and_split(self, b):
        out = cut(self, b)
        cut(self, np.minimum(b + 1, self.n + 1))  # after b: out stays put
        return out

    monkeypatch.setattr(_batch._Batch, "cut", cut_and_split)
    cfg = config(StrategyKind.DYA_PM, 10, PROFILES["affine"], 40)
    with pytest.raises(ContractViolationError, match="4 intervals after 1 queries, exceeding 3"):
        _batch.run_batch(cfg, None, 0, 5)


@pytest.mark.parametrize("n", (1, 60))
@pytest.mark.parametrize("kind", CONNECTED, ids=lambda k: k.value)
def test_batch_memory_within_cell_budget(kind, n):
    # the largest batch _count_trials builds, the most rows (n = 1) or the
    # most cells per row, peaks below ten arrays of _BATCH_CELLS float64 cells
    rows = min(sim._BATCH_MAX_ROWS, sim._BATCH_CELLS // (2 * n + 3))
    cfg = config(kind, 20, PROFILES["affine"], n)
    tracemalloc.start()
    try:
        _batch.run_batch(cfg, tuple(range(1, n + 1)), 0, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * sim._BATCH_CELLS
