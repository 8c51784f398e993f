"""The lockstep batch engine against the scalar engine it copies.

Every row of a batch must give, bit for bit, the checkpoint and horizon
estimates of :func:`sim._run` on the same trial stream, whatever the batch
size and whichever rows share the batch.
"""

import math
import tracemalloc

import numpy as np
import pytest

from noisysearch import _batch, sim, strategies
from noisysearch.channel import AffineNoise, ConstantNoise
from noisysearch.errors import ContractViolationError, ZeroLikelihoodError
from noisysearch.posterior import _Partition, _Runs
from noisysearch.sim import FixedLength, SearchConfig, VariableLength, trial_rng
from noisysearch.strategies import StrategyKind

CONNECTED = (StrategyKind.MEDIAN_PM, StrategyKind.DYA_PM, StrategyKind.HIE_PM)
SORT = StrategyKind.SORT_PM
ALL_KINDS = CONNECTED + (SORT,)
PROFILES = {
    "affine": AffineNoise(0.1, 0.5),
    "constant": ConstantNoise(0.2),
    "noiseless": ConstantNoise(0.0, p_floor=0.0),
}


def config(kind, L, profile, n, target=None, seed=11) -> SearchConfig:
    return SearchConfig(L=L, strategy=kind, profile=profile, stopping=FixedLength(n),
                        seed=seed, target=target)


def row_width(kind, n: int) -> int:
    """Cells per row of the batch arrays at horizon ``n``."""
    return n + 2 if kind is SORT else 2 * n + 3


def horizon(kind, width: int) -> int:
    """The horizon whose rows are ``width`` cells wide (``width`` odd)."""
    return width - 2 if kind is SORT else (width - 3) // 2


def checkpoints(n: int) -> tuple:
    return tuple(sorted({1, (n + 1) // 2, n}))


def assert_rows_match(cfg, start: int, sizes: tuple, horizon: bool = False) -> None:
    """Trials from ``start`` on, in consecutive batches of ``sizes`` rows:
    their estimates at checkpoints that end at the horizon, and with
    ``horizon`` also from a batch without checkpoints."""
    cps = checkpoints(cfg.stopping.n)
    edges = np.cumsum((start,) + sizes).tolist()
    for a, b in zip(edges[:-1], edges[1:]):
        truth, uniforms = sim._draw_trials(cfg, a, b)
        at_cps = _batch.run_batch(cfg, cps, truth, uniforms)
        for row, i in enumerate(range(a, b)):
            rec, _ = sim._run(cfg, trial_rng(cfg.seed, i), False, cps)
            assert truth[row] == rec.truth, i
            assert tuple(at_cps[row]) == rec.checkpoint_estimates, i
            assert at_cps[row, -1] == rec.estimate, i
        if horizon:
            at_horizon = _batch.run_batch(cfg, None, truth, uniforms)
            assert np.array_equal(at_horizon[:, 0], at_cps[:, -1])


@pytest.mark.parametrize("profile", PROFILES.values(), ids=PROFILES.keys())
@pytest.mark.parametrize("L", (1, 2, 8, 12, 20))
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_rows_equal_scalar_episodes(kind, L, profile):
    for target in (None, 1 << (L - 1)):
        for n, sizes in ((1, (37, 2, 1)), (7, (37, 2, 1)), (60, (2,))):
            assert_rows_match(config(kind, L, profile, n, target), 0, sizes)


@pytest.mark.parametrize("profile", PROFILES.values(), ids=PROFILES.keys())
@pytest.mark.parametrize("L", (2, 8, 20))
@pytest.mark.parametrize("kind", CONNECTED, ids=lambda k: k.value)
def test_every_step_equals_scalar_partition(kind, L, profile, monkeypatch):
    # after every update, each row holds the query, answer, crossover and
    # interval starts (with the end n + 1), masses and prefix sums of the
    # scalar _Partition, and pads up to the widest row hold start n + 1,
    # mass 0 and the row's total
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
                                                  batch.cums, batch.k))
                       + (batch.w, [batch.row(i) for i in range(rows)]))

    monkeypatch.setattr(_batch._Batch, "update", record_batch)
    _batch.run_batch(cfg, None, *sim._draw_trials(cfg, 0, rows))
    assert len(batched) == 40
    for t, (s1, s2, y, p, los, masses, cums, k, w, parts) in enumerate(batched):
        assert w == k.max()
        for i in range(rows):
            j = k[i]
            got = (s1[i], s2[i], bool(y[i]), p[i], los[i, : j + 1].tolist(),
                   masses[i, :j].tolist(), cums[i, : j + 1].tolist())
            assert got == scalar[i][t], (t, i)
            assert (parts[i].los, parts[i].masses, parts[i].cums) == scalar[i][t][4:], (t, i)
            assert (los[i, j : w + 1] == n + 1).all(), (t, i)
            assert (masses[i, j:w] == 0.0).all(), (t, i)
            assert (cums[i, j + 1 : w + 1] == cums[i, j]).all(), (t, i)


# (profile, L, seed, first trial, rows); n = 60 on each.  Constant noise
# makes exact value ties between runs; "collapsed" reaches steps where every
# row's peak is 1.0, so that no row cuts a run (step 56 of trials 150-299)
SORT_STEP_CASES = {
    "affine": (PROFILES["affine"], 8, 9, 0, 20),
    "constant": (PROFILES["constant"], 8, 9, 0, 20),
    "noiseless": (PROFILES["noiseless"], 20, 9, 0, 20),
    "collapsed": (PROFILES["affine"], 12, 2100715294329802315, 150, 150),
}


@pytest.mark.parametrize("case", SORT_STEP_CASES)
def test_every_step_equals_scalar_runs(case, monkeypatch):
    # after every update, each row holds the query size, flags, answer,
    # crossover, run starts (with the end n + 1) and values of the scalar
    # _Runs, and pads up to the widest row hold start n + 1 and value 0
    profile, L, seed, start, rows = SORT_STEP_CASES[case]
    cfg = config(SORT, L, profile, 60, seed=seed)
    n = cfg.n_bins
    scalar = []  # per trial, per step
    select, update = _Runs.select, _Runs.update

    def record_select(state):
        flags, size = select(state)
        scalar[-1].append([size])
        return flags, size

    def record(state, flags, y, p):
        update(state, flags, y, p)
        scalar[-1][-1] += [list(flags), bool(y), p, state.los[:], state.vals[:]]

    monkeypatch.setattr(_Runs, "select", record_select)
    monkeypatch.setattr(_Runs, "update", record)
    for i in range(start, start + rows):
        scalar.append([])
        sim._run(cfg, trial_rng(cfg.seed, i), False, None)

    batched = []
    batch_select, batch_update = _batch._RunBatch.select, _batch._RunBatch.update

    def record_batch_select(batch):
        k = batch.k.copy()
        flags, size = batch_select(batch)
        batched.append([not (batch.k > k).any(), size.copy()])
        return flags, size

    def record_batch(batch, flags, y, p):
        k = batch.k.copy()
        batch_update(batch, flags, y, p)
        batched[-1] += [k, flags.copy(), y.copy(), p.copy(), batch.los.copy(), batch.vals.copy(),
                        batch.k.copy(), batch.w]

    monkeypatch.setattr(_batch._RunBatch, "select", record_batch_select)
    monkeypatch.setattr(_batch._RunBatch, "update", record_batch)
    _batch.run_batch(cfg, None, *sim._draw_trials(cfg, start, start + rows))
    assert len(batched) == 60
    ties = no_cut = 0
    for t, (uncut, size, k0, flags, y, p, los, vals, k, w) in enumerate(batched):
        assert w == k.max()
        no_cut += uncut
        for i in range(rows):
            j = k[i]
            got = [size[i], flags[i, : k0[i]].tolist(), bool(y[i]), p[i],
                   los[i, : j + 1].tolist(), vals[i, :j].tolist()]
            assert got == scalar[i][t], (t, i)
            assert (los[i, j : w + 1] == n + 1).all(), (t, i)
            assert (vals[i, j:w] == 0.0).all(), (t, i)
            ties += len(set(got[-1])) < j  # runs of equal value are never neighbours
    if case == "constant":
        assert ties > 0
    if case == "collapsed":
        assert no_cut > 0


def test_run_checks_fire(monkeypatch):
    # a row whose total mass is zero, or below 1/2, and a run count above t + 1
    batch = _batch._RunBatch(2, 8, 4)
    with pytest.raises(ZeroLikelihoodError):
        batch.update(np.ones((2, batch.cols), dtype=bool), np.zeros(2, dtype=bool), np.zeros(2))
    batch.vals[1, 0] = 0.01
    with pytest.raises(ContractViolationError, match="posterior mass below 1/2"):
        batch.select()
    update = _batch._RunBatch.update

    def update_and_grow(self, *args):
        update(self, *args)
        self.k = self.k + 1  # one phantom run in every row

    monkeypatch.setattr(_batch._RunBatch, "update", update_and_grow)
    cfg = config(SORT, 10, PROFILES["affine"], 40)
    with pytest.raises(ContractViolationError, match="3 intervals after 1 queries, exceeding 2"):
        _batch.run_batch(cfg, None, *sim._draw_trials(cfg, 0, 5))


def test_partition_checks_fire():
    # a row whose total mass is zero (p = 0, y = 0 on the full range), and a
    # cut past the row width: cuts at 2, 3 and 4 fill a horizon-1 row
    batch = _batch._Batch(2, 8, 1)
    with pytest.raises(ZeroLikelihoodError):
        batch.update(np.ones(2, dtype=np.int64), np.full(2, 8), np.zeros(2, dtype=bool),
                     np.zeros(2))
    batch = _batch._Batch(1, 8, 1)
    for b in (2, 3, 4):
        batch.cut(np.array([b]))
    with pytest.raises(ContractViolationError, match="more than"):
        batch.cut(np.array([5]))


def test_crossing_count_adjustments():
    # runs [1, 1] of value a and [2, w + 1] of value v, then a tail of value
    # 1e-9: the crossing run is the second, with a taken before it, and
    # ceil((1/2 - a) / v) is one bin short (the first three) or one over
    # (the last three) by rounding, so select's adjustment loops run; no
    # other test reaches them
    cases = (
        (0.15276868167339558, 0.0022116644479401554, 167),
        (0.19915426688826063, 0.0010939844840426884, 285),
        (0.10085731821737098, 0.0011307158124153796, 363),
        (0.342526625099872, 0.0002404173662597374, 1396),
        (0.48892480164938146, 1.2402237794645602e-05, 1370),
        (0.3725457953713144, 0.00013332029772875062, 1346),
    )
    n = 2048
    batch = _batch._RunBatch(len(cases), n, 4)
    for row, (a, v, w) in enumerate(cases):
        guess = math.ceil((0.5 - a) / v)
        assert (a + guess * v < 0.5) if row < 3 else (a + (guess - 1) * v >= 0.5)
        batch.los[row, :4] = (1, 2, w + 2, n + 1)
        batch.vals[row, :3] = (a, v, 1e-9)
    batch.k[:] = 3
    batch.w = 3
    flags, size = batch.select()
    for row, (a, v, w) in enumerate(cases):
        runs = _Runs([1, 2, w + 2, n + 1], [a, v, 1e-9])
        want_flags, want_size = runs.select()
        k = batch.k[row]
        assert size[row] == want_size, row
        assert flags[row, :k].tolist() == want_flags, row
        assert batch.los[row, : k + 1].tolist() == runs.los, row
        assert batch.vals[row, :k].tolist() == runs.vals, row


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
    cfg = config(kind, 12, PROFILES["affine"], 8)
    _batch.run_batch(cfg, None, *sim._draw_trials(cfg, 0, 20))
    batch = seen[-1]
    parts = [batch.row(i) for i in range(20)]
    for i, part in enumerate(parts):
        bins = sorted({0} | {b for lo, end in zip(part.los, part.los[1:])
                             for b in (lo, (lo + end - 1) // 2, end - 1)})
        got = batch.prefix(np.full(len(bins), i), np.array(bins))
        assert got.tolist() == [part.prefix(b) for b in bins], i
    for c in range(batch.w):
        for shift in (-1e-3, 0.0, 1e-3, 0.7):
            target = batch.cums[:, c + 1] + shift
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


def test_cut_equals_scalar_cut():
    # rows of one, three and six intervals of 8 bins, cut at bin 1, at an
    # existing start, inside an interval and at n + 1; then cut again at the
    # same bins, where every row already has the start and none splits
    m3 = [0.2, 0.3, 0.5]
    m6 = [0.1, 0.1, 0.2, 0.2, 0.15, 0.25]
    cases = [
        ([1, 9], [1.0], 1), ([1, 9], [1.0], 4), ([1, 9], [1.0], 9),
        ([1, 3, 5, 9], m3, 1), ([1, 3, 5, 9], m3, 5), ([1, 3, 5, 9], m3, 2),
        ([1, 3, 5, 9], m3, 7), ([1, 3, 5, 9], m3, 9),
        ([1, 2, 3, 4, 5, 6, 9], m6, 3), ([1, 2, 3, 4, 5, 6, 9], m6, 8),
    ]
    n = 8
    batch = _batch._Batch(len(cases), n, 4)
    for row, (los, masses, _) in enumerate(cases):
        batch.los[row, : len(los)] = los
        batch.masses[row, : len(masses)] = masses
        batch.k[row] = len(masses)
    batch.w = int(batch.k.max())
    parts = [_Partition(los[:], masses[:], []) for los, masses, _ in cases]
    b = np.array([c[2] for c in cases])
    for _ in range(2):
        got = batch.cut(b)
        for row, part in enumerate(parts):
            k = batch.k[row]
            assert got[row] == part.cut(b[row]), row
            assert batch.los[row, : k + 1].tolist() == part.los, row
            assert batch.masses[row, :k].tolist() == part.masses, row
            assert (batch.los[row, k : batch.w + 1] == n + 1).all(), row


def test_hie_choice_on_ties():
    # intervals [1, 2], [3, 4] and [5, 8] of 8 bins, masses exact in binary;
    # the heavy node is [1, 4] but in the last case, where the descent forks
    cases = {
        (0.375, 0.25, 0.375): (1, 2),  # the left child ties the node
        (0.25, 0.375, 0.375): (3, 4),  # the right child ties the node
        (0.34375, 0.34375, 0.3125): (1, 2),  # the children tie, closer than the node
        (0.3125, 0.3125, 0.375): (1, 4),  # the node is closest
        (1.0, 0.0, 0.0): (1, 1),  # a leaf
    }
    batch = _batch._Batch(len(cases), 8, 4)
    batch.los[:, :4] = (1, 3, 5, 9)
    batch.k[:] = 3
    batch.w = 3
    for row, masses in enumerate(cases):
        cums = np.cumsum((0.0,) + masses)
        part = _Partition([1, 3, 5, 9], list(masses), cums.tolist())
        assert strategies._hie_query(part, 3, strategies._ROOT)[:2] == cases[masses]
        batch.masses[row, :3] = masses
        batch.cums[row, :4] = cums
    root = np.zeros(len(cases), dtype=np.int64)
    s1, s2, _, _ = _batch._select(StrategyKind.HIE_PM, batch, 3, root, root.copy())
    assert list(zip(s1.tolist(), s2.tolist())) == list(cases.values())


def test_fork_keeps_the_deeper_branch(monkeypatch):
    # 8-bin rows whose root splits exactly in half, so the descent forks: the
    # right branch is deeper, the two end at leaves, the left is deeper
    cases = {
        ((1, 3, 5, 6, 9), (0.25, 0.25, 0.5, 0.0)): (3, 4),
        ((1, 2, 5, 6, 9), (0.5, 0.0, 0.5, 0.0)): (3, 0),
        ((1, 2, 3, 5, 9), (0.0, 0.5, 0.0, 0.5)): (3, 1),
    }
    batch = _batch._Batch(len(cases), 8, 4)
    batch.k[:] = 4
    batch.w = 4
    parts, want = [], []
    for row, (los, masses) in enumerate(cases):
        cums = np.cumsum((0.0,) + masses)
        parts.append((list(los), list(masses), cums.tolist()))
        want.append(strategies._heaviest(_Partition(*parts[-1]), 3))
        assert want[-1][:2] == cases[los, masses]
        batch.los[row, :5] = los
        batch.masses[row, :4] = masses
        batch.cums[row, :5] = cums
    handed = []
    descend = _batch._descend

    def record(part, *args):
        handed.append((part.los, part.masses, part.cums))
        return descend(part, *args)

    monkeypatch.setattr(_batch, "_descend", record)
    root = np.zeros(len(cases), dtype=np.int64)
    level, m, lo, mid, hi = _batch._heaviest(batch, 3, root, root.copy())
    for row, node in enumerate(want):
        pref_mid = None if math.isnan(mid[row]) else mid[row]
        assert (level[row], m[row], lo[row], pref_mid, hi[row]) == node, row
    assert handed == parts  # each row leaves the lockstep walk once, as itself


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_batches_of_37_and_150_rows(kind):
    assert_rows_match(config(kind, 12, PROFILES["affine"], 60), 100, (37, 150), horizon=True)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_counts_equal_scalar_counts(kind):
    # 137 trials at rows of 603 cells (at most 108 rows a batch) run as
    # batches of 68 and 69
    cfg = config(kind, 10, PROFILES["affine"], horizon(kind, 603))
    cps = (5, 50, 120, 200)
    assert sim._lockstep_batches(cfg, 137) == 2
    batched = sim._count_trials(cfg, cps, 3, 140, 2)
    scalar = sim._count_trials(cfg, cps, 3, 140, 0)
    assert np.array_equal(batched[0], scalar[0]) and batched[1] == scalar[1]


def test_dispatch():
    # at 2**16 cells a batch: up to 108 rows of 603 cells, 64 rows of 1023
    affine = PROFILES["affine"]
    batches = sim._lockstep_batches
    for kind in ALL_KINDS:
        def n(width):
            return horizon(kind, width)

        assert batches(config(kind, 12, affine, 10), 64) == 1
        assert batches(config(kind, 53, affine, 10), 150) == 1
        assert batches(config(kind, 12, affine, 1), 1025) == 2  # at most 1024 rows
        assert batches(config(kind, 12, affine, n(603)), 216) == 2  # at most 108 rows
        assert batches(config(kind, 12, affine, n(1023)), 64) == 1  # 64 rows fit
        # below the crossover: a small run, or a split into batches below it
        assert batches(config(kind, 12, affine, 10), 63) == 0
        assert batches(config(kind, 12, affine, n(603)), 109) == 0  # two of 54 and 55
        assert batches(config(kind, 12, affine, n(1025)), 1000) == 0  # 63 rows fit
        assert batches(config(kind, 54, affine, 10), 150) == 0
        assert batches(config(kind, 0, affine, 10), 150) == 0
        assert batches(SearchConfig(L=12, strategy=kind, profile=affine,
                                    stopping=VariableLength(1e-3), seed=1), 150) == 0


def test_small_runs_take_the_scalar_engine(monkeypatch):
    def refuse(*args):
        raise AssertionError("a small run reached the batch engine")

    monkeypatch.setattr(_batch, "run_batch", refuse)
    for kind in ALL_KINDS:
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
        for kind in ALL_KINDS:
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
        _batch.run_batch(cfg, None, *sim._draw_trials(cfg, 0, 5))


@pytest.mark.parametrize("n", (1, 60))
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_batch_memory_within_cell_budget(kind, n):
    # the largest batch _count_trials builds, the most rows (n = 1) or the
    # most cells per row, drawn and run, peaks below ten arrays of
    # _BATCH_CELLS float64 cells
    rows = min(sim._BATCH_MAX_ROWS, sim._BATCH_CELLS // row_width(kind, n))
    cfg = config(kind, 20, PROFILES["affine"], n)
    tracemalloc.start()
    try:
        _batch.run_batch(cfg, tuple(range(1, n + 1)), *sim._draw_trials(cfg, 0, rows))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * sim._BATCH_CELLS
