"""Fixed-length trials, run in lockstep.

:func:`run_batch` runs a batch of fixed-length trials of any rule step by
step on ``(rows, width)`` arrays, one row per trial, instead of one trial at
a time.  It is an array engine only: :func:`sim._count_trials` sizes the
batches, draws each trial's target and uniforms and counts the errors.
Every operation is a row-wise copy of the scalar kernel's
(:class:`posterior._Partition`, :func:`strategies._heaviest` and
:func:`strategies._best_prefix_end` for ``median``, ``dya`` and ``hie``;
:class:`posterior._Runs` for ``sort``): the same floating-point operations on
the same operands in the same order, so each row's queries, posterior and
estimates are bit for bit those of :func:`sim._run` on the same stream.  In
particular every in-order sum is an ``np.cumsum`` along the interval axis,
which adds in sequence like the scalar loops; a pairwise ``np.sum`` would not.
The Bayes step's sum is in :func:`posterior._reweigh`, which both kinds of
row share with :func:`posterior.bayes_update_dense`; the rest are here.
Interval ends are exact integers; the divisions that turn them into
fractions convert them to float64, which is exact for ``L <= 53``.

Both kinds of row live in one store, :class:`_Rows`: each row's parts in
``los``, in the scalar kernels' layout (see :mod:`posterior`), padded to
the width :func:`_row_width` gives, one flat offset per row and one
column-insert routine, :meth:`_Rows._open`, that both kinds of cut call.
:class:`_Batch` adds the interval masses and running sums, :class:`_RunBatch`
the run values.  :meth:`_Batch.row` turns a row back into a
:class:`posterior._Partition`; a heavy-node descent that forks finishes on
it, in the scalar :func:`strategies._descend`.

A fixed-length trial takes exactly ``n`` steps, so no row idles, and row
``r`` reads its ``n`` uniforms from row ``r`` of a ``(rows, n)`` array.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .channel import _noise_for_sizes
from .errors import ContractViolationError
from .posterior import _Partition, _reweigh
from .strategies import _HEAVY_MARGIN, StrategyKind, _descend


def _row_width(sort: bool, steps: int) -> int:
    """Columns of a lockstep batch's arrays: sortPM's ``t + 1`` runs, or a
    connected rule's ``2t + 1`` intervals and one more cut, and a pad column."""
    return steps + 2 if sort else 2 * steps + 3


class _Rows:
    """The row store of a lockstep batch: row ``r`` holds the ``k[r]``
    parts (intervals or runs) of one trial's posterior in its first
    ``k[r]`` columns, and the rest pad, with start ``n + 1``.

    ``los[r, :k[r] + 1]`` is the scalar kernel's ``los`` (the layout the
    :mod:`posterior` module docstring states), so ``los`` keeps one pad
    column past the widest row.  ``w`` is the widest row's part count; only
    the first ``w`` (``w + 1`` for ``los`` and :class:`_Batch`'s running
    sums, in the same layout) columns are read.  A subclass's per-part
    arrays, and the flags :meth:`_RunBatch.select` returns, share ``los``'s
    shape, so one flat index, ``row0 + j``, reads column ``j`` of each.
    """

    __slots__ = ("los", "k", "w", "n", "r", "cols", "row0")

    def __init__(self, rows: int, n: int, cols: int):
        self.cols = cols
        self.los = np.full((rows, cols), n + 1, dtype=np.int64)
        self.los[:, 0] = 1
        self.k = np.ones(rows, dtype=np.int64)
        self.w = 1
        self.n = n
        self.r = np.arange(rows)
        self.row0 = self.r * cols

    def _open(self, opened: np.ndarray, pos: np.ndarray, *arrays: np.ndarray) -> None:
        """In the rows ``opened``, open column ``pos[r]`` of ``los`` and of
        each of ``arrays``: it and the columns after it move one to the right,
        and the row gains a part.  The opened column holds a copy of the one
        before it until the caller writes it."""
        w = self.w
        if w + 2 > self.cols:
            raise ContractViolationError(f"a row holds more than {w} parts")
        c = np.arange(w + 2)
        # column c of an opening row reads c - 1 from pos on; w + 1 opens nothing
        src = self.row0[:, None] + c - (c >= np.where(opened, pos, w + 1)[:, None])
        self.los[:, : w + 2] = self.los.take(src)
        for a in arrays:
            a[:, : w + 1] = a.take(src[:, :-1])
        self.k = self.k + opened
        self.w = int(self.k.max())


class _Batch(_Rows):
    """Rows of :class:`posterior._Partition` intervals, with their running
    sums ``cums`` in ``los``'s columns (the layout :mod:`posterior` states):
    a pad has mass 0 and running sum the row's total."""

    __slots__ = ("masses", "cums")

    def __init__(self, rows: int, n: int, steps: int):
        super().__init__(rows, n, _row_width(False, steps))
        self.masses = np.zeros((rows, self.cols))
        self.masses[:, 0] = 1.0
        self.cums = np.ones((rows, self.cols))
        self.cums[:, 0] = 0.0

    def cut(self, b: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`_Partition.cut` at bins ``1 <= b[r] <= n + 1``:
        split so that an interval starts at ``b[r]``, and return that
        interval's index (0 for ``b = 1``, the interval count for
        ``b = n + 1``)."""
        if (b <= 1).all():  # median's s1 on every step
            return np.zeros_like(b)
        # the first start at or after b; unless it is b, interval j - 1 splits
        j = np.count_nonzero(self.los[:, : self.w + 1] < b[:, None], axis=1)
        split = self.los.take(self.row0 + j) != b
        if not split.any():
            return j
        rows, i, b = self.r[split], j[split], b[split]
        lo, end = self.los[rows, i - 1], self.los[rows, i]
        width = end - lo
        m = self.masses[rows, i - 1]
        self._open(split, j, self.masses)
        self.los[rows, i] = b
        self.masses[rows, i - 1] = m * ((b - lo) / width)
        self.masses[rows, i] = m * ((end - b) / width)
        return j

    def update(self, s1: np.ndarray, s2: np.ndarray, y: np.ndarray, p: np.ndarray) -> None:
        """Row-wise :meth:`_Partition.update` for the queries ``[s1, s2]``
        answered ``y`` through crossovers ``p``."""
        i1 = self.cut(s1)
        i2 = self.cut(s2 + 1)
        w = self.w
        cols = np.arange(w)
        inside = (cols >= i1[:, None]) & (cols < i2[:, None])
        self.masses[:, :w] = masses = _reweigh(self.masses[:, :w], inside, y, p)
        self.cums[:, 1 : w + 1] = np.cumsum(masses, axis=1)

    def prefix(self, rows, k: np.ndarray) -> np.ndarray:
        """:meth:`_Partition.prefix` at bin ``k[i]`` of row ``rows[i]`` (of
        every row when ``rows`` is None)."""
        starts = self.los[:, 1 : self.w + 1] if rows is None else self.los[rows, 1 : self.w + 1]
        j = np.count_nonzero(starts <= k[:, None], axis=1)
        # k = 0 (the only k <= 0 asked for) reads cums[0] from interval 0
        return self.prefix_in(rows, j, k)

    def prefix_in(self, rows, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """:meth:`_Partition.prefix_in`: the prefix at a bin ``k`` of interval ``j``."""
        f = (self.row0 if rows is None else rows * self.cols) + j
        lo = self.los.take(f)
        hi = self.los.take(f + 1) - 1
        inner = self.cums.take(f) + self.masses.take(f) * ((k - lo + 1) / (hi - lo + 1))
        return np.where(k == hi, self.cums.take(f + 1), inner)

    def first_reaching(self, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise :meth:`_Partition.first_reaching`: the smallest bin whose
        prefix reaches ``target``, clamped to n, and its interval."""
        k = self.k
        # a pad holds the row's total, so it counts only if every interval does
        j = np.count_nonzero(self.cums[:, 1 : self.w + 1] < target[:, None], axis=1)
        over = j >= k
        j = np.where(over, k - 1, j)
        f = self.row0 + j
        before = self.cums.take(f)
        mass = self.masses.take(f)
        lo = self.los.take(f)
        width = self.los.take(f + 1) - lo
        positive = mass > 0.0
        count = np.ceil((target - before) * width / np.where(positive, mass, 1.0))
        inner = lo + np.minimum(np.maximum(count, 1), width).astype(np.int64) - 1
        return np.where(over, self.n, np.where(positive, inner, lo)), j

    def peak(self) -> np.ndarray:
        """Row-wise :meth:`_Partition.peak`'s bin: the first bin of largest mass."""
        w = self.w
        los = self.los[:, : w + 1]
        real = np.arange(w) < self.k[:, None]
        widths = np.where(real, los[:, 1:] - los[:, :-1], 1)
        density = np.where(real, self.masses[:, :w] / widths, -np.inf)
        return self.los.take(self.row0 + np.argmax(density, axis=1))

    def row(self, r: int) -> _Partition:
        """Row ``r`` as a scalar :class:`posterior._Partition`: its first
        ``k + 1`` starts, ``k`` masses and ``k + 1`` running sums, as lists."""
        k = self.k[r]
        return _Partition(self.los[r, : k + 1].tolist(), self.masses[r, :k].tolist(),
                          self.cums[r, : k + 1].tolist())


class _RunBatch(_Rows):
    """Rows of :class:`posterior._Runs` runs: a pad has value 0 and, ending
    where it starts, width 0, so it adds 0.0 to every in-order sum; with the
    smallest value, and after every run, it also comes last in the stable
    order of decreasing value."""

    __slots__ = ("vals",)

    def __init__(self, rows: int, n: int, steps: int):
        super().__init__(rows, n, _row_width(True, steps))
        self.vals = np.zeros((rows, self.cols))
        self.vals[:, 0] = 1.0 / n

    def select(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise :meth:`_Runs.select`: ``(flags, size)``, the membership
        of each run and the bin count of the query; cuts at most one run
        per row."""
        flags, i, taken, size = self._crossing()
        at = self.row0 + i
        lo = self.los.take(at)
        wi = self.los.take(at + 1) - lo
        v = self.vals.take(at)
        # j0: fewest bins of run i whose total reaches 1/2; j0 - 1 wins a tie
        j0 = np.minimum(np.maximum(np.ceil((0.5 - taken) / v), 1), wi).astype(np.int64)
        up = np.flatnonzero((j0 < wi) & (taken + j0 * v < 0.5))
        while up.size:
            j0[up] += 1
            up = up[(j0[up] < wi[up]) & (taken[up] + j0[up] * v[up] < 0.5)]
        down = np.flatnonzero((j0 > 1) & (taken + (j0 - 1) * v >= 0.5))
        while down.size:
            j0[down] -= 1
            down = down[(j0[down] > 1) & (taken[down] + (j0[down] - 1) * v[down] >= 0.5)]
        lower = (size + j0 > 1) & (np.abs(taken + (j0 - 1) * v - 0.5) <= np.abs(taken + j0 * v - 0.5))
        j = j0 - lower
        flags.flat[at] = j > 0  # the whole run, or its first j bins after the cut
        cut = (j > 0) & (j < wi)
        if cut.any():
            # a run starts after the first j bins of run i; it keeps the value, unflagged
            self._open(cut, i + 1, self.vals, flags)
            rows, at = self.r[cut], i[cut] + 1
            self.los[rows, at] = (lo + j)[cut]
            flags[rows, at] = False
        return flags, size + j

    def _crossing(self) -> tuple:
        """The taken runs of each row, in order of decreasing value, ties to
        the smaller index, before the mass reaches 1/2: ``(flags, i, taken,
        size)``, with ``i`` the run that crosses 1/2, and ``taken`` and
        ``size`` the mass and bin count before it."""
        w, r = self.w, self.r
        los = self.los[:, : w + 1]
        vals = self.vals[:, :w]
        widths = los[:, 1:] - los[:, :-1]
        # the order of sorted(..., reverse=True), which is stable
        order = np.argsort(-vals, axis=1, kind="stable")
        taken_after = np.cumsum(np.take_along_axis(vals * widths, order, axis=1), axis=1)
        s = np.argmax(taken_after >= 0.5, axis=1)
        if not (taken_after[r, s] >= 0.5).all():
            raise ContractViolationError("posterior mass below 1/2")
        flags = np.zeros(self.los.shape, dtype=bool)
        np.put_along_axis(flags[:, :w], order, np.arange(w) < s[:, None], axis=1)
        size = np.sum(widths, axis=1, where=flags[:, :w])
        taken = np.where(s > 0, taken_after[r, s - 1], 0.0)
        return flags, order[r, s], taken, size

    def member(self, flags: np.ndarray, truth: np.ndarray) -> np.ndarray:
        """Whether each row's ``truth`` lies in a flagged run."""
        u = np.count_nonzero(self.los[:, : self.w] <= truth[:, None], axis=1) - 1
        return flags.take(self.row0 + u)

    def update(self, flags: np.ndarray, y: np.ndarray, p: np.ndarray) -> None:
        """Row-wise :meth:`_Runs.update` for the query of the runs flagged
        in ``flags``, answered ``y`` through crossovers ``p``."""
        w = self.w
        los = self.los[:, : w + 1]
        new = _reweigh(self.vals[:, :w], flags[:, :w], y, p, los[:, 1:] - los[:, :-1])
        # merge neighbours whose values became equal: keep each run that
        # differs from the one before it
        keep = np.ones(new.shape, dtype=bool)
        keep[:, 1:] = new[:, 1:] != new[:, :-1]
        keep &= np.arange(w) < self.k[:, None]
        k = np.count_nonzero(keep, axis=1)
        if (k == self.k).all():
            self.vals[:, :w] = new
            return
        # the kept runs first, in their order
        order = np.argsort(~keep, axis=1, kind="stable")
        self.los[:, :w] = np.take_along_axis(los[:, :w], order, axis=1)
        self.vals[:, :w] = np.take_along_axis(new, order, axis=1)
        pad = np.arange(w + 1) >= k[:, None]
        self.los[:, : w + 1][pad] = self.n + 1
        self.vals[:, :w][pad[:, :w]] = 0.0
        self.k = k
        self.w = int(k.max())

    def peak(self) -> np.ndarray:
        """Row-wise :meth:`_Runs.peak`'s bin: the start of the first run of
        largest value."""
        return self.los.take(self.row0 + np.argmax(self.vals[:, : self.w], axis=1))


def _heaviest(batch: _Batch, depth: int, level: np.ndarray, m: np.ndarray) -> tuple:
    """Row-wise :func:`strategies._heaviest` from the nodes ``(level, m)``,
    arrays it may modify: returns ``(level, m, pref_lo, pref_mid, pref_hi)``,
    with ``pref_mid`` NaN for a leaf.

    A row whose descent forks (two children of mass 1/2) leaves the
    lockstep walk at the fork, and :func:`strategies._descend` finishes it
    on the row's :meth:`_Batch.row`, whose prefixes are this batch's.
    """
    width = np.left_shift(1, depth - level)
    lo = batch.prefix(None, m * width)
    hi = batch.prefix(None, m * width + width)
    climb = np.flatnonzero((level > 0) & (hi - lo < 0.5 + _HEAVY_MARGIN))
    while climb.size:
        mc, wc = m[climb], width[climb]
        odd = (mc & 1) == 1
        v = batch.prefix(climb, np.where(odd, (mc - 1) * wc, (mc + 2) * wc))
        lo[climb] = np.where(odd, v, lo[climb])
        hi[climb] = np.where(odd, hi[climb], v)
        level[climb] -= 1
        m[climb] >>= 1
        width[climb] <<= 1
        climb = climb[(level[climb] > 0) & (hi[climb] - lo[climb] < 0.5 + _HEAVY_MARGIN)]

    mid = np.full(level.shape, np.nan)
    forks = []
    active = np.flatnonzero(level < depth)
    while active.size:
        half = np.left_shift(1, depth - level[active] - 1)
        pm = batch.prefix(active, m[active] * 2 * half + half)
        go_left = pm - lo[active] >= 0.5
        go_right = hi[active] - pm >= 0.5
        forks += active[go_left & go_right].tolist()
        stop = ~go_left & ~go_right
        mid[active[stop]] = pm[stop]
        move = go_left != go_right
        step, down_left, pm = active[move], go_left[move], pm[move]
        level[step] += 1
        m[step] = 2 * m[step] + ~down_left
        lo[step] = np.where(down_left, lo[step], pm)
        hi[step] = np.where(down_left, pm, hi[step])
        active = step[level[step] < depth]

    for r in forks:
        node = _descend(batch.row(r), depth, int(level[r]), int(m[r]), float(lo[r]), float(hi[r]))
        level[r], m[r], lo[r], pref_mid, hi[r] = node
        mid[r] = np.nan if pref_mid is None else pref_mid
    return level, m, lo, mid, hi


def _best_prefix_end(batch: _Batch, start: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Row-wise :func:`strategies._best_prefix_end`."""
    k0, j = batch.first_reaching(base + 0.5)
    n = batch.n
    f = batch.row0 + j
    lo = batch.los.take(f)
    hi = batch.los.take(f + 1) - 1
    best_k = np.zeros_like(k0)
    best_d = np.full(k0.shape, np.inf)
    for k in (k0 - 1, k0, k0 + 1):
        valid = (start <= k) & (k <= n)
        i = j - (k < lo) + (k > hi)
        i = np.minimum(np.maximum(i, 0), batch.k - 1)  # only invalid k leave the row
        d = np.abs(batch.prefix_in(None, i, k) - base - 0.5)
        better = valid & (d < best_d)
        best_k = np.where(better, k, best_k)
        best_d = np.where(better, d, best_d)
    return best_k


def _select(kind: StrategyKind, batch: _Batch, depth: int, level, m) -> tuple:
    """Row-wise :data:`strategies._CONNECTED_QUERIES` rule of ``kind``:
    ``(s1, s2, level, m)``."""
    rows = batch.r.size
    if kind is StrategyKind.MEDIAN_PM:
        ones = np.ones(rows, dtype=np.int64)
        return ones, _best_prefix_end(batch, ones, np.zeros(rows)), level, m
    level, m, pref_lo, pref_mid, pref_hi = _heaviest(batch, depth, level, m)
    if kind is StrategyKind.DYA_PM:
        d = m * np.left_shift(1, depth - level) + 1
        return d, _best_prefix_end(batch, d, pref_lo), level, m
    d = np.abs(pref_hi - pref_lo - 0.5)
    dl = np.abs(pref_mid - pref_lo - 0.5)
    dr = np.abs(pref_hi - pref_mid - 0.5)
    # the scalar rule's comparisons; a leaf's NaN pref_mid compares false
    child = (dl <= d) | (dr <= d)
    index = np.where(child, 2 * m + (dr < dl), m)
    width = np.left_shift(1, depth - level - child)
    return index * width + 1, (index + 1) * width, level, m


def run_batch(
    config, checkpoints: Optional[tuple], truth: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """The estimates of a batch of trials of the fixed-length run ``config``
    (a :class:`sim.SearchConfig`): row ``i`` searches for ``truth[i]`` with
    channel uniforms ``uniforms[i]``, and ``estimates[i, c]`` is its estimate
    after ``checkpoints[c]`` steps (after the horizon, without checkpoints)."""
    n, depth, steps = config.n_bins, config.L, config.stopping.n
    rows = truth.size
    cps = checkpoints or (steps,)
    estimates = np.empty((rows, len(cps)), dtype=np.int64)

    sort = config.strategy is StrategyKind.SORT_PM
    # sortPM cuts at most one run per query, a connected query at most two
    batch = _RunBatch(rows, n, steps) if sort else _Batch(rows, n, steps)
    cuts_per_step = 1 if sort else 2
    level = np.zeros(rows, dtype=np.int64)
    m = np.zeros(rows, dtype=np.int64)
    c = 0
    for tau in range(1, steps + 1):
        if sort:
            flags, size = batch.select()
            member = batch.member(flags, truth)
            query = (flags,)
        else:
            s1, s2, level, m = _select(config.strategy, batch, depth, level, m)
            size = s2 - s1 + 1
            member = (s1 <= truth) & (truth <= s2)
            query = (s1, s2)
        p = _noise_for_sizes(config.profile, size / n)
        batch.update(*query, member ^ (uniforms[:, tau - 1] < p), p)
        over = np.flatnonzero(batch.k > cuts_per_step * tau + 1)
        if over.size:
            raise ContractViolationError(
                f"posterior has {batch.k[over[0]]} intervals after {tau} queries, "
                f"exceeding {cuts_per_step * tau + 1}"
            )
        if c < len(cps) and tau == cps[c]:
            estimates[:, c] = batch.peak()
            c += 1
    return estimates
