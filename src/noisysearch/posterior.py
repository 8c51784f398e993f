"""Posterior representations and the Bayes update.

The belief over the target bin lives in one of two interchangeable forms:

* :class:`PosteriorDense` — a length-``n`` probability vector, one entry per
  bin: the public form of the sorted-matching posterior, whose query sets
  are arbitrary unions of runs, and the oracle the partition is checked
  against.

* :class:`PosteriorPartition` — an interval-piecewise-constant simple
  function.  When every query is a single contiguous interval, each update
  adds at most two cut points, so after ``t`` steps the partition has at most
  ``2t + 1`` intervals.  This is what makes the connected-geometry strategies
  cheap: tracking the posterior costs O(number of queries), not O(number of
  bins).

:class:`_Partition`, the mutable list form of the partition, is the one
implementation of the per-step operations (cut, Bayes update, prefix mass,
half-mass crossing, peak).  The episode engine keeps one per episode; the
public functions and the selection rules build one from the frozen arrays.
:class:`_Runs`, the maximal runs of equal per-bin value, is the same for the
sorted-matching rule: a sortPM query cuts at most one run, so after ``t``
steps there are at most ``t + 1`` runs, and the engine never holds the
``n``-entry vector.  :func:`select_sort_pm` runs the kernel on the
run-length encoding of the vector, and :func:`bayes_update_dense` does the
kernel's float operations on it in numpy (:func:`_reweigh`, which the
lockstep rows share), so both agree with the engine bit for bit.  Both
kernels, and the lockstep rows of :mod:`noisysearch._batch`, hold their parts
(intervals or runs) in one layout: ``los`` lists the parts' first bins and
then ``n + 1``, so part ``j`` is ``los[j] .. los[j + 1] - 1``.
The interval kernels' running sums ``cums`` have as many entries as ``los``
and start at 0.0: ``cums[j]`` is the mass before part ``j``, and the last
entry is the total.

Bins are indexed 1..n throughout the public API; intervals are inclusive
``(lo, hi)`` pairs.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .channel import NoiseProfile, noise_for_size
from .errors import ContractViolationError, ZeroLikelihoodError

__all__ = [
    "QuerySet",
    "PosteriorDense",
    "PosteriorPartition",
    "Posterior",
    "bayes_update_dense",
    "bayes_update_partition",
    "flatten",
    "prefix_mass",
    "query_mass",
    "posterior_predictive",
    "avg_log_likelihood",
]

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class QuerySet:
    """A query set: a sorted union of disjoint, non-adjacent index runs."""

    runs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError("query set must be non-empty")
        prev_hi = -1
        for lo, hi in self.runs:
            if lo < 1 or hi < lo:
                raise ValueError(f"bad run ({lo}, {hi})")
            if lo <= prev_hi + 1:
                raise ValueError(f"runs must be sorted and non-adjacent, got {self.runs}")
            prev_hi = hi

    @classmethod
    def from_run(cls, lo: int, hi: int) -> "QuerySet":
        return cls(((int(lo), int(hi)),))

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "QuerySet":
        """Build from individual bin indices, merging adjacent ones into runs."""
        idx = np.unique(np.asarray(list(indices), dtype=np.int64))
        if idx.size == 0:
            raise ValueError("query set must be non-empty")
        breaks = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [idx.size - 1]))
        return cls(tuple((int(idx[s]), int(idx[e])) for s, e in zip(starts, ends)))

    @property
    def cardinality(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.runs)

    @property
    def is_contiguous(self) -> bool:
        return len(self.runs) == 1

    @property
    def single_run(self) -> tuple[int, int]:
        if not self.is_contiguous:
            raise ContractViolationError(f"query is not a single interval: {self.runs}")
        return self.runs[0]

    def size_fraction(self, n_bins: int) -> float:
        return self.cardinality / n_bins

    def member_mask(self, n_bins: int) -> np.ndarray:
        """Boolean membership vector of length ``n_bins`` (0-based storage)."""
        if self.runs[-1][1] > n_bins:
            raise ValueError(f"query {self.runs} exceeds range 1..{n_bins}")
        mask = np.zeros(n_bins, dtype=bool)
        for lo, hi in self.runs:
            mask[lo - 1 : hi] = True
        return mask


@dataclass(frozen=True)
class PosteriorDense:
    """Probability vector over bins 1..n."""

    mass: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.mass, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("mass must be a non-empty 1-D vector")
        if np.any(arr < 0.0):
            raise ValueError("posterior entries must be non-negative")
        if abs(float(arr.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"posterior must sum to 1 within {_SUM_TOL}, got {arr.sum()!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)

    @classmethod
    def uniform(cls, n_bins: int) -> "PosteriorDense":
        return cls(np.full(n_bins, 1.0 / n_bins))

    @classmethod
    def _wrap(cls, mass: np.ndarray) -> "PosteriorDense":
        """Adopt a freshly-computed, already-valid vector without copying."""
        self = object.__new__(cls)
        mass.flags.writeable = False
        object.__setattr__(self, "mass", mass)
        return self

    @property
    def n_bins(self) -> int:
        return int(self.mass.size)

    @property
    def max_mass(self) -> float:
        return float(self.mass.max())

    @property
    def argmax(self) -> int:
        """Index (1-based) of the largest entry; ties go to the smaller index."""
        return int(np.argmax(self.mass)) + 1


@dataclass(frozen=True)
class PosteriorPartition:
    """Interval-piecewise-constant posterior.

    ``lo``/``hi`` are inclusive 1-based endpoints; intervals are sorted,
    disjoint and contiguous, covering 1..n.  ``mass[u]`` is the total mass of
    interval ``u``; the per-bin density inside it is ``mass[u] / width(u)``.
    """

    lo: np.ndarray
    hi: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        lo = np.array(self.lo, dtype=np.int64, copy=True)
        hi = np.array(self.hi, dtype=np.int64, copy=True)
        mass = np.array(self.mass, dtype=np.float64, copy=True)
        if not (lo.ndim == hi.ndim == mass.ndim == 1) or lo.size == 0:
            raise ValueError("lo/hi/mass must be non-empty 1-D arrays")
        if not (lo.size == hi.size == mass.size):
            raise ValueError("lo/hi/mass must have equal length")
        if lo[0] != 1:
            raise ValueError("first interval must start at bin 1")
        if np.any(hi < lo):
            raise ValueError("intervals must satisfy lo <= hi")
        if np.any(lo[1:] != hi[:-1] + 1):
            raise ValueError("intervals must be contiguous and sorted")
        if np.any(mass < 0.0):
            raise ValueError("interval masses must be non-negative")
        if abs(float(mass.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"masses must sum to 1 within {_SUM_TOL}, got {mass.sum()!r}")
        for name, arr in (("lo", lo), ("hi", hi), ("mass", mass)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def uniform(cls, n_bins: int) -> "PosteriorPartition":
        return cls(np.array([1]), np.array([n_bins]), np.array([1.0]))

    @classmethod
    def _wrap(cls, lo: np.ndarray, hi: np.ndarray, mass: np.ndarray) -> "PosteriorPartition":
        """Adopt freshly-computed, already-valid arrays without copying.

        Used on the per-step path, where outputs of the update preserve the
        structural invariants by construction.
        """
        self = object.__new__(cls)
        for name, arr in (("lo", lo), ("hi", hi), ("mass", mass)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        return self

    @classmethod
    def from_intervals(cls, intervals: Iterable[tuple[int, int, float]]) -> "PosteriorPartition":
        rows = list(intervals)
        return cls(
            np.array([r[0] for r in rows]),
            np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows]),
        )

    @property
    def n_bins(self) -> int:
        return int(self.hi[-1])

    @property
    def n_intervals(self) -> int:
        return int(self.lo.size)

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo + 1

    @property
    def densities(self) -> np.ndarray:
        return self.mass / self.widths

    @property
    def intervals(self) -> list[tuple[int, int, float]]:
        return [
            (int(a), int(b), float(m)) for a, b, m in zip(self.lo, self.hi, self.mass)
        ]

    @cached_property
    def _peak(self) -> tuple[float, int]:
        return _Partition.of(self).peak()

    @property
    def max_mass(self) -> float:
        """Largest single-bin posterior value (max density)."""
        return self._peak[0]

    @property
    def argmax(self) -> int:
        """1-based bin index of the largest density; ties go to the smallest bin."""
        return self._peak[1]


Posterior = Union[PosteriorDense, PosteriorPartition]


def _check_observation(y: int) -> None:
    if y not in (0, 1):
        raise ValueError(f"observation must be 0 or 1, got {y}")


def _reweigh(values: np.ndarray, inside: np.ndarray, y, p, widths=None) -> np.ndarray:
    """The Bayes step of :meth:`_Partition.update` and :meth:`_Runs.update`
    in numpy, along the last axis (one ``y`` and ``p`` per row of a 2-D
    input): each value times the likelihood of answer ``y`` under crossover
    ``p`` (``1 - p`` where ``inside`` equals ``y``, else ``p``), over the
    in-order sum of the products, times ``widths`` if given."""
    p = np.asarray(p)[..., None]
    new = values * np.where(inside == np.asarray(y)[..., None], 1.0 - p, p)
    total = np.cumsum(new if widths is None else new * widths, axis=-1)[..., -1:]
    if (total <= 0.0).any():
        raise ZeroLikelihoodError("all posterior mass has zero likelihood")
    return new / total


def bayes_update_dense(
    post: PosteriorDense, query: QuerySet, y: int, profile: NoiseProfile
) -> PosteriorDense:
    """One Bayes step on the dense vector: :func:`_reweigh` on the runs of
    equal mass and membership, weighted by their widths, as
    :meth:`_Runs.update` does.  Merging equal neighbours would not change
    the expanded vector, so none is done.
    """
    n = post.n_bins
    p = noise_for_size(profile, query.size_fraction(n))
    _check_observation(y)
    member = query.member_mask(n)
    heads = _run_heads(post.mass, member)
    widths = np.append(heads[1:], n) - heads
    new = _reweigh(post.mass[heads], member[heads], y, p, widths)
    return PosteriorDense._wrap(np.repeat(new, widths))


def _run_heads(mass: np.ndarray, member: Optional[np.ndarray] = None) -> np.ndarray:
    """0-based start of each maximal run of equal ``mass`` and, with a
    boolean ``member`` vector, equal membership."""
    change = mass[1:] != mass[:-1]
    if member is not None:
        change |= member[1:] != member[:-1]
    return np.concatenate(([0], np.flatnonzero(change) + 1))


class _Partition:
    """Mutable list form of an interval partition: the per-step kernel.

    ``los`` holds the intervals and ``cums`` their running sums in the
    module's layout, and ``masses`` the interval masses.
    Plain lists and ``bisect`` beat numpy at the sizes an episode reaches
    (at most ``2t + 1`` intervals after ``t`` queries).  The read-only view
    of a dense vector (:func:`_prefix_index`) holds ranges and arrays instead.
    """

    __slots__ = ("los", "masses", "cums", "n")

    def __init__(self, los: Sequence, masses: Sequence, cums: Sequence):
        self.los = los
        self.masses = masses
        self.cums = cums
        self.n = los[-1] - 1

    @classmethod
    def uniform(cls, n_bins: int) -> "_Partition":
        return cls([1, n_bins + 1], [1.0], [0.0, 1.0])

    @classmethod
    def of(cls, post: PosteriorPartition) -> "_Partition":
        masses = post.mass.tolist()
        return cls(post.lo.tolist() + [post.n_bins + 1], masses,
                   list(accumulate(masses, initial=0.0)))

    def __len__(self) -> int:
        return len(self.los) - 1

    def freeze(self) -> PosteriorPartition:
        los = np.array(self.los, dtype=np.int64)
        return PosteriorPartition._wrap(los[:-1], los[1:] - 1, np.array(self.masses))

    def cut(self, b: int) -> int:
        """Split so that some interval starts at bin ``b <= n + 1``; no-op if one
        already does.  Returns that interval's index: 0 for ``b <= 1``, the
        interval count for ``b = n + 1``.

        The straddling interval's mass is divided proportionally to the
        sub-interval widths.  Degenerate cuts at the ends of the range are
        dropped, never stored with zero width.  ``cums`` is left stale:
        :meth:`update` rebuilds it before anything reads it.
        """
        los = self.los
        if b <= los[0]:
            return 0
        j = bisect_right(los, b) - 1
        lo = los[j]
        if lo == b:
            return j
        end = los[j + 1]
        width = end - lo
        m = self.masses[j]
        los.insert(j + 1, b)
        self.masses[j : j + 1] = [m * ((b - lo) / width), m * ((end - b) / width)]
        return j + 1

    def update(self, s1: int, s2: int, y: int, p: float) -> None:
        """Bayes step for the query [s1, s2] answered ``y`` (0 or 1, or a
        bool; the caller checks it) with crossover ``p``.

        Cuts at the query endpoints so the query is a union of whole
        intervals (adding at most two), reweights the interval masses by the
        channel likelihood and renormalizes.
        """
        in_lik, out_lik = (1.0 - p, p) if y else (p, 1.0 - p)
        i1 = self.cut(s1)
        i2 = self.cut(s2 + 1)  # after i1, so i1 stays put
        masses = self.masses
        head, query, tail = masses[:i1], masses[i1:i2], masses[i2:]
        total = 0.0
        # in order: the sum must not depend on the Python version
        for m in head:
            total += m * out_lik
        for m in query:
            total += m * in_lik
        for m in tail:
            total += m * out_lik
        if total <= 0.0:
            raise ZeroLikelihoodError("all posterior mass has zero likelihood")
        new = [m * out_lik / total for m in head]
        new += [m * in_lik / total for m in query]
        new += [m * out_lik / total for m in tail]
        self.masses = new
        self.cums = list(accumulate(new, initial=0.0))

    def prefix(self, k: int) -> float:
        """Total mass of bins 1..k, for ``0 <= k <= n``."""
        # k = 0 finds interval -1, whose end reads cums[0] = 0.0
        return self.prefix_in(bisect_right(self.los, k) - 1, k)

    def prefix_in(self, j: int, k: int) -> float:
        """:meth:`prefix` at a bin ``k`` of interval ``j``, without the search."""
        end = self.los[j + 1]
        if k == end - 1:
            return self.cums[j + 1]
        lo = self.los[j]
        return self.cums[j] + self.masses[j] * ((k - lo + 1) / (end - lo))

    def first_reaching(self, target: float) -> tuple[int, int]:
        """Smallest k with prefix(k) >= target, clamped to n, and the
        interval that holds it, for a ``target > 0``."""
        cums = self.cums
        j = bisect_left(cums, target, 1) - 1
        if j >= len(self.masses):
            return self.n, j - 1
        # cums[j] < target <= cums[j + 1] = cums[j] + masses[j], so masses[j] > 0
        before = cums[j]
        mass = self.masses[j]
        lo = self.los[j]
        width = self.los[j + 1] - lo
        count = math.ceil((target - before) * width / mass)
        return lo + min(max(count, 1), width) - 1, j

    def peak_bound(self) -> float:
        """An upper bound on :meth:`peak`'s mass, without its scan: the
        largest interval mass, since ``fl(m / w) <= m`` for a width ``w >= 1``."""
        return max(self.masses)

    def half_mass_bound(self) -> float:
        """The mass of the interval that holds the half-mass point (the first
        whose running sum reaches 1/2), found in O(log K) for K intervals.

        For a threshold ``t > 1/2 + strategies._HEAVY_MARGIN`` it exceeds
        ``t`` exactly when :meth:`peak_bound` does, on the posteriors of an
        episode (``cums`` current, ``K <= 2 * STEP_CAP + 1``).  Proof: let
        ``masses[i] > t``.  A float sum of non-negative terms is at least
        each term, so ``cums[i + 1] >= masses[i] > 1/2`` and the interval
        found is at most ``i``.  The two disjoint parts ``cums[i]`` and
        ``masses[i]`` measure at most ``(1 + u) * cums[-1] <= 1 + (2K + 2) u``
        together (the bound :func:`strategies._heaviest` proves), less than
        4.5e-10 above 1, while ``masses[i] > 1/2 + 2**-20``.  So
        ``cums[i] < 1/2``, and the interval found is ``i``.
        """
        return self.masses[bisect_left(self.cums, 0.5, 1) - 1]

    def peak(self) -> tuple[float, int]:
        """(max single-bin mass, 1-based bin index of its first occurrence)."""
        best, best_lo = -1.0, 1
        for lo, end, m in zip(self.los, self.los[1:], self.masses):
            d = m / (end - lo)
            if d > best:
                best, best_lo = d, lo
        return best, best_lo


class _Runs:
    """Maximal runs of equal per-bin value: the sorted-matching kernel.

    ``los`` holds the runs in the module's layout, and ``vals[u]`` is the
    value of each bin of run ``u``.  Adjacent runs never hold the same
    value, so the runs are exactly the run-length encoding of the vector.
    """

    __slots__ = ("los", "vals", "n")

    def __init__(self, los: list, vals: list):
        self.los = los
        self.vals = vals
        self.n = los[-1] - 1

    @classmethod
    def uniform(cls, n_bins: int) -> "_Runs":
        return cls([1, n_bins + 1], [1.0 / n_bins])

    @classmethod
    def of(
        cls, mass: np.ndarray, member: Optional[np.ndarray] = None
    ) -> tuple["_Runs", Optional[list]]:
        """Run-length encoding of ``mass``.  With a boolean ``member`` vector
        the runs are also cut where it changes, and each run's membership is
        returned alongside."""
        heads = _run_heads(mass, member)
        runs = cls((heads + 1).tolist() + [mass.size + 1], mass[heads].tolist())
        return runs, None if member is None else member[heads].tolist()

    def __len__(self) -> int:
        return len(self.los) - 1

    def expand(self) -> np.ndarray:
        return np.repeat(np.array(self.vals), np.diff(self.los))

    def freeze(self) -> PosteriorDense:
        return PosteriorDense._wrap(self.expand())

    def select(self) -> tuple[list, int]:
        """The sorted-matching query: (membership of each run, bin count).

        Runs are taken in order of decreasing value, ties to the smaller
        index, until the taken mass reaches 1/2.  Inside the crossing run the
        count of bins is the one whose total is closest to 1/2, ties to the
        smaller count; the run is cut there, so the query is a union of whole
        runs.  At most one run is cut.
        """
        los, vals = self.los, self.vals
        order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)  # stable
        flags = [False] * len(vals)
        taken = 0.0
        size = 0
        for i in order:
            v = vals[i]
            w = los[i + 1] - los[i]
            if taken + v * w >= 0.5:
                break
            taken += v * w
            size += w
            flags[i] = True
        else:
            raise ContractViolationError("posterior mass below 1/2")
        # j0: fewest bins of run i whose total reaches 1/2; j0 - 1 wins a tie
        j0 = min(max(math.ceil((0.5 - taken) / v), 1), w)
        while j0 < w and taken + j0 * v < 0.5:
            j0 += 1
        while j0 > 1 and taken + (j0 - 1) * v >= 0.5:
            j0 -= 1
        j = j0
        if size + j0 > 1 and abs(taken + (j0 - 1) * v - 0.5) <= abs(taken + j0 * v - 0.5):
            j = j0 - 1
        if j == w:
            flags[i] = True
        elif j > 0:
            los.insert(i + 1, los[i] + j)
            vals.insert(i, v)
            flags[i:i] = [True]
        return flags, size + j

    def update(self, flags: Sequence, y: int, p: float) -> None:
        """Bayes step for the query made of the runs flagged in ``flags``,
        answered ``y`` (0 or 1, or a bool; the caller checks it) with
        crossover ``p``.

        The normalizer sums value times width over the runs in index order;
        neighbours whose values become equal are merged.  Most steps merge
        none, and keep the run bounds as they are.
        """
        in_lik, out_lik = (1.0 - p, p) if y else (p, 1.0 - p)
        new = [v * (in_lik if f else out_lik) for v, f in zip(self.vals, flags)]
        los = self.los
        total = 0.0
        for v, lo, end in zip(new, los, los[1:]):
            total += v * (end - lo)
        if total <= 0.0:
            raise ZeroLikelihoodError("all posterior mass has zero likelihood")
        new = [v / total for v in new]
        if not any(map(operator.eq, new, new[1:])):
            self.vals = new
            return
        starts, vals = [], []  # the first run of each group of equal values
        for lo, v in zip(los, new):
            if not vals or vals[-1] != v:
                starts.append(lo)
                vals.append(v)
        self.los, self.vals = starts + [self.n + 1], vals

    def peak_bound(self) -> float:
        """:meth:`peak`'s mass itself, without the search for its index."""
        return max(self.vals)

    def peak(self) -> tuple[float, int]:
        """(max single-bin mass, 1-based bin index of its first occurrence)."""
        best = max(self.vals)
        return best, self.los[self.vals.index(best)]

    def query_runs(self, flags: Sequence) -> tuple[tuple[int, int], ...]:
        """The flagged runs as sorted, non-adjacent ``(lo, hi)`` pairs."""
        out: list[list[int]] = []
        for lo, end, f in zip(self.los, self.los[1:], flags):
            if not f:
                continue
            if out and out[-1][1] == lo - 1:
                out[-1][1] = end - 1
            else:
                out.append([lo, end - 1])
        return tuple((lo, hi) for lo, hi in out)


def _prefix_index(post: Posterior) -> _Partition:
    """Kernel view of either representation; a dense vector is a partition
    into unit-width intervals."""
    if isinstance(post, PosteriorDense):
        bins = range(1, post.n_bins + 2)  # immutable: the view cannot be cut
        return _Partition(bins, post.mass, np.cumsum(np.append(0.0, post.mass)))
    return _Partition.of(post)


def bayes_update_partition(
    post: PosteriorPartition, query: QuerySet, y: int, profile: NoiseProfile
) -> PosteriorPartition:
    """One Bayes step with sequential binning.

    Cuts the partition at the query endpoints so the query interval is a
    union of whole intervals (adding at most two intervals), then reweights
    interval masses by the channel likelihood and renormalizes.  Requires a
    contiguous query.
    """
    s1, s2 = query.single_run
    n = post.n_bins
    if s2 > n:
        raise ValueError(f"query {query.runs} exceeds range 1..{n}")
    _check_observation(y)
    part = _Partition.of(post)
    part.update(s1, s2, y, noise_for_size(profile, query.size_fraction(n)))
    return part.freeze()


def flatten(post: PosteriorPartition) -> PosteriorDense:
    """Expand to the dense per-bin density vector."""
    return PosteriorDense._wrap(np.repeat(post.densities, post.widths))


def prefix_mass(post: Posterior, k: int) -> float:
    """Total mass of bins 1..k, for either representation."""
    n = post.n_bins
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    return float(_prefix_index(post).prefix(k))


def query_mass(post: Posterior, query: QuerySet) -> float:
    """Total posterior mass inside a query set."""
    if query.runs[-1][1] > post.n_bins:
        raise ValueError(f"query {query.runs} exceeds range 1..{post.n_bins}")
    idx = _prefix_index(post)
    total = 0.0
    for lo, hi in query.runs:
        total += idx.prefix(hi) - idx.prefix(lo - 1)
    return float(total)


def posterior_predictive(
    post: Posterior, query: QuerySet, profile: NoiseProfile
) -> tuple[float, float]:
    """(P(Y=1), P(Y=0)) for the next observation under the current belief."""
    p = noise_for_size(profile, query.size_fraction(post.n_bins))
    rho = query_mass(post, query)
    p1 = rho * (1.0 - p) + (1.0 - rho) * p
    return p1, 1.0 - p1


def avg_log_likelihood(post: Union[PosteriorDense, np.ndarray]) -> float:
    """Average posterior log-likelihood U = sum_i pi_i log2(pi_i / (1 - pi_i)).

    Zero-mass entries contribute nothing; an entry equal to 1 makes the
    value +inf.
    """
    vec = post.mass if isinstance(post, PosteriorDense) else np.asarray(post, dtype=np.float64)
    pos = vec[vec > 0.0]
    if np.any(pos >= 1.0):
        return float("inf")
    return float(np.sum(pos * np.log2(pos / (1.0 - pos))))
