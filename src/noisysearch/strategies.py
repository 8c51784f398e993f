"""Query-selection rules.

All four rules aim the next query at posterior mass 1/2, under different
constraints on the allowed query sets:

* ``median``  — prefix sets [1, k]: the bins left of the posterior median.
* ``sort``    — the top-mass bins of the descending-sorted posterior whose
  total is closest to 1/2 (an arbitrary union of runs).
* ``hie``     — nodes of the dyadic tree only: near the deepest node holding
  at least half the mass, pick the node (itself or a child) closest to 1/2.
* ``dya``     — anchored at the left edge of that deepest heavy node,
  extended bin by bin to the prefix closest to 1/2 (always contiguous).

Every argmin/argmax tie breaks toward the smaller index (and, for the
hierarchical rule's three-candidate step, toward the deeper level first):
deterministic selections make episodes reproducible, and a deeper node means
a smaller query, which sees less noise.

The module also provides the Extrinsic Jensen-Shannon divergence of a
(posterior, query) pair — the exact expected one-step drift of the average
log-likelihood — and the coarse-binned log-likelihood functionals whose
drift witnesses that query sets shrink over time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseProfile, kl_bernoulli, noise_for_size
from .posterior import (
    Posterior,
    PosteriorDense,
    QuerySet,
    _prefix_index,
    _Runs,
    avg_log_likelihood,
)

__all__ = [
    "StrategyKind",
    "TreeNode",
    "select_median_pm",
    "select_sort_pm",
    "heaviest_node",
    "select_hie_pm",
    "select_dya_pm",
    "select",
    "ejs_divergence",
    "js_divergence",
    "binned_sorted_loglik",
    "nested_loglik",
]

# The root of the dyadic tree, where a cold heavy-node descent starts.
_ROOT = (0, 0)
# A warm heavy-node descent climbs from its start node while the node weighs
# less than 1/2 + this margin; _heaviest proves the result is the root's.
_HEAVY_MARGIN = 2.0**-20

# Near-certain posteriors are evaluated with this floor on 1 - pi_i so the
# extrinsic mixture stays defined; an entry exactly 1 still yields +inf.
_EJS_DENOM_FLOOR = 1e-12


class StrategyKind(enum.Enum):
    MEDIAN_PM = "median"
    SORT_PM = "sort"
    DYA_PM = "dya"
    HIE_PM = "hie"


@dataclass(frozen=True)
class TreeNode:
    """Node ``(level, index)`` of the dyadic tree over 2**L bins.

    Level ``l`` splits the range into ``2**l`` equal blocks; node ``m`` covers
    bins ``m * 2**(L-l) + 1 .. (m+1) * 2**(L-l)``.  Each node is the disjoint
    union of its two children.
    """

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0 or not (0 <= self.index < (1 << self.level)):
            raise ValueError(f"bad tree node (level={self.level}, index={self.index})")

    def interval(self, depth: int) -> tuple[int, int]:
        if self.level > depth:
            raise ValueError(f"node level {self.level} exceeds tree depth {depth}")
        width = 1 << (depth - self.level)
        lo = self.index * width + 1
        return lo, lo + width - 1

    def children(self) -> tuple["TreeNode", "TreeNode"]:
        return (
            TreeNode(self.level + 1, 2 * self.index),
            TreeNode(self.level + 1, 2 * self.index + 1),
        )


def _best_prefix_end(idx, start: int, base: float) -> int:
    """k* = argmin_{k >= start} |mass of [start, k] - 1/2|, ties to smaller k.

    ``base`` is ``idx.prefix(start - 1)``, which the caller already holds.
    The prefix mass is non-decreasing in k, so the argmin sits where it
    crosses the half-mass target; the crossing neighbourhood is evaluated
    exactly to absorb floating-point slop in locating it.  Its bins lie in
    the crossing interval or the ones next to it, so no further search runs.
    """
    k0, j = idx.first_reaching(base + 0.5)
    lo, end = idx.los[j], idx.los[j + 1]
    best_k, best_d = 0, math.inf
    for k in (k0 - 1, k0, k0 + 1):
        if start <= k <= idx.n:
            # the interval that holds k, so d is exactly prefix(k)'s; j alone
            # gives the same float at k0 - 1 but not at k0 + 1 past j's end
            i = j - (k < lo) + (k >= end)
            d = abs(idx.prefix_in(i, k) - base - 0.5)
            if d < best_d:
                best_k, best_d = k, d
    return best_k


# The connected-geometry rules: each maps (idx, depth, start) to the
# contiguous query (s1, s2, node), where node is the heavy node
# (level, index) the descent reached (the root for median), which a next
# step may pass back as start.
def _median_query(idx, depth: int, start: tuple) -> tuple:
    return 1, _best_prefix_end(idx, 1, 0.0), _ROOT


def _dya_query(idx, depth: int, start: tuple) -> tuple:
    level, m, pref_lo, _, _ = _heaviest(idx, depth, start)
    d = m * (1 << (depth - level)) + 1
    return d, _best_prefix_end(idx, d, pref_lo), (level, m)


def _hie_query(idx, depth: int, start: tuple) -> tuple:
    level, m, pref_lo, pref_mid, pref_hi = _heaviest(idx, depth, start)
    # a child no farther from 1/2 than the anchor wins, and of the two
    # the left one unless the right one is strictly closer
    index, width = m, 1 << (depth - level)
    if level < depth:
        d = abs(pref_hi - pref_lo - 0.5)
        dl = abs(pref_mid - pref_lo - 0.5)
        dr = abs(pref_hi - pref_mid - 0.5)
        if dl <= d or dr <= d:
            index, width = 2 * m + (dr < dl), width >> 1
    return index * width + 1, (index + 1) * width, (level, m)


_CONNECTED_QUERIES = {
    StrategyKind.MEDIAN_PM: _median_query,
    StrategyKind.DYA_PM: _dya_query,
    StrategyKind.HIE_PM: _hie_query,
}


def _select_connected(kind: StrategyKind, post: Posterior, depth: int) -> QuerySet:
    if kind is not StrategyKind.MEDIAN_PM:
        _check_dyadic(post, depth)
    s1, s2, _ = _CONNECTED_QUERIES[kind](_prefix_index(post), depth, _ROOT)
    return QuerySet.from_run(s1, s2)


def select_median_pm(post: Posterior) -> QuerySet:
    """Prefix set [1, k*] whose mass is closest to 1/2."""
    return _select_connected(StrategyKind.MEDIAN_PM, post, 0)


def select_sort_pm(post: PosteriorDense) -> QuerySet:
    """Top-mass bins of the descending-sorted posterior, total closest to 1/2.

    The implied sort is stable with ties broken by the original bin index,
    so among equal masses the smaller indices enter the query first.  Runs
    on the run-length encoding of the vector: O(m log m) for m runs.
    """
    if not isinstance(post, PosteriorDense):
        raise TypeError("sorted matching operates on the dense representation")
    runs, _ = _Runs.of(post.mass)
    flags, _ = runs.select()
    return QuerySet(runs.query_runs(flags))


def _check_dyadic(post: Posterior, depth: int) -> None:
    if post.n_bins != (1 << depth):
        raise ValueError(f"posterior has {post.n_bins} bins, expected 2**{depth}")


def _heaviest(idx, depth: int, start: tuple = _ROOT) -> tuple:
    """Descent to the deepest node of mass >= 1/2, from the root or, warm,
    from the node ``start = (level, index)``.

    Returns ``(level, m, pref_lo, pref_mid, pref_hi)``: the node and the
    prefix masses the descent measured at its ``lo - 1``, at the last bin of
    its left child and at its ``hi`` (``pref_mid`` is None for a leaf).  They
    are exactly ``idx.prefix`` at those bins, so callers score the node and
    its children by subtraction, with no further prefix evaluation.

    Node masses are non-increasing along any path, so following a child of
    mass >= 1/2 is safe.  Two siblings can both reach 1/2 only by splitting a
    full-mass parent exactly in half, which can happen at most once per
    posterior; that single fork is explored on both sides, so at most two
    root-to-leaf paths are ever walked.  A node's end-point prefixes are
    inherited from its parent, leaving one prefix evaluation (the midpoint)
    per level.

    A warm start reads the prefix at both ends of ``start`` and moves up to
    the parent (one new prefix: they share an end) while the node's mass is
    below ``1/2 + _HEAVY_MARGIN``; from the root, or from a node at least
    that heavy, it descends as above.  The result is the root descent's.
    Proof: ``prefix`` is non-decreasing in ``k`` in floating point, and
    rounding a difference is monotone, so no node weighs less than one of
    its descendants.  Two disjoint nodes measure at most
    ``(1 + u) * cums[-1] <= 1 + (2K + 2) u`` together, with ``u = 2**-53``
    and ``K <= 2 * STEP_CAP + 1`` intervals in an episode: below 4.5e-10
    above 1.  So once a node weighs ``1/2 + _HEAVY_MARGIN``, no node
    disjoint from it reaches 1/2.  The root descent then meets no fork and
    no stop above that node, and passes through it, and from there both runs
    are the same code.  Only the episode engine, whose posteriors keep ``K``
    within that bound, starts warm; the public selections start from the
    root.

    The climb is here and the descent in :func:`_descend`, a module-level
    function, so that a call builds no nested function.
    """
    prefix = idx.prefix
    level, m = start
    width = 1 << (depth - level)
    pref_lo = prefix(m * width)
    pref_hi = prefix(m * width + width)
    while level and pref_hi - pref_lo < 0.5 + _HEAVY_MARGIN:
        if m & 1:
            pref_lo = prefix((m - 1) * width)
        else:
            pref_hi = prefix((m + 2) * width)
        level, m, width = level - 1, m >> 1, width << 1
    return _descend(idx, depth, level, m, pref_lo, pref_hi)


def _descend(idx, depth: int, level: int, m: int, pref_lo: float, pref_hi: float) -> tuple:
    """:func:`_heaviest`'s descent from node ``(level, m)``, whose end-point
    prefixes are ``pref_lo`` and ``pref_hi``; it recurses only at the fork."""
    prefix = idx.prefix
    while level < depth:
        half = 1 << (depth - level - 1)
        mid = m * 2 * half + half  # last bin of the left child
        pref_mid = prefix(mid)
        left = pref_mid - pref_lo
        right = pref_hi - pref_mid
        if left >= 0.5 and right >= 0.5:
            cand_l = _descend(idx, depth, level + 1, 2 * m, pref_lo, pref_mid)
            cand_r = _descend(idx, depth, level + 1, 2 * m + 1, pref_mid, pref_hi)
            # deeper level wins; at equal depth both weigh exactly 1/2
            # and the left one has the smaller index
            return cand_l if cand_l[0] >= cand_r[0] else cand_r
        if left >= 0.5:
            level, m, pref_hi = level + 1, 2 * m, pref_mid
        elif right >= 0.5:
            level, m, pref_lo = level + 1, 2 * m + 1, pref_mid
        else:
            return level, m, pref_lo, pref_mid, pref_hi
    return level, m, pref_lo, None, pref_hi


def heaviest_node(post: Posterior, depth: int) -> TreeNode:
    """Deepest tree node with mass >= 1/2; the heaviest one at that level."""
    _check_dyadic(post, depth)
    return TreeNode(*_heaviest(_prefix_index(post), depth)[:2])


def select_hie_pm(post: Posterior, depth: int) -> QuerySet:
    """Among the heavy node and its two children, the one closest to 1/2 mass."""
    return _select_connected(StrategyKind.HIE_PM, post, depth)


def select_dya_pm(post: Posterior, depth: int) -> QuerySet:
    """From the heavy node's left edge, extend to the prefix closest to 1/2."""
    return _select_connected(StrategyKind.DYA_PM, post, depth)


def select(kind: StrategyKind, post: Posterior) -> QuerySet:
    """Dispatch to the selection rule; tree depth is derived from the bin count."""
    if kind is StrategyKind.SORT_PM:
        return select_sort_pm(post)
    return _select_connected(kind, post, post.n_bins.bit_length() - 1)


def ejs_divergence(post: PosteriorDense, query: QuerySet, profile: NoiseProfile) -> float:
    """Extrinsic Jensen-Shannon divergence of the (posterior, query) pair, in bits.

    EJS = sum_i pi_i * D(P(y | theta=i) || P(y | theta != i)) where the
    observation law given theta=i is Bern(1-p) or Bern(p) by membership, and
    the extrinsic law mixes the other hypotheses with weights
    pi_j / (1 - pi_i).  This equals the expected one-step increment of the
    average log-likelihood under the current belief.
    """
    mass = post.mass
    n = post.n_bins
    if np.any(mass >= 1.0):
        return math.inf
    p = noise_for_size(profile, query.size_fraction(n))
    member = query.member_mask(n)
    a = np.where(member, 1.0 - p, p)
    rho = float(mass[member].sum())
    denom = np.maximum(1.0 - mass, _EJS_DENOM_FLOOR)
    q = (rho - np.where(member, mass, 0.0)) / denom
    b = q * (1.0 - p) + (1.0 - q) * p
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(a > 0.0, a * np.log2(a / b), 0.0)
        t2 = np.where(a < 1.0, (1.0 - a) * np.log2((1.0 - a) / (1.0 - b)), 0.0)
    terms = t1 + t2
    active = mass > 0.0
    return float(np.sum(mass[active] * terms[active]))


def js_divergence(post: PosteriorDense, query: QuerySet, profile: NoiseProfile) -> float:
    """Jensen-Shannon divergence of the (posterior, query) pair, in bits.

    JS = sum_i pi_i * D(P(y | theta=i) || P(y)), the mutual information
    between the target hypothesis and the next observation.  For a set query
    this collapses to I(rho, p) with rho the queried mass; it lower-bounds
    the extrinsic variant computed by :func:`ejs_divergence`.
    """
    mass = post.mass
    n = post.n_bins
    p = noise_for_size(profile, query.size_fraction(n))
    member = query.member_mask(n)
    rho = float(mass[member].sum())
    mix = rho * (1.0 - p) + (1.0 - rho) * p
    return rho * kl_bernoulli(1.0 - p, mix) + (1.0 - rho) * kl_bernoulli(p, mix)


def binned_sorted_loglik(post: PosteriorDense, alpha: float) -> float:
    """Average log-likelihood of the sorted posterior grouped into 1/alpha bins.

    The posterior is sorted descending and consecutive groups of ``alpha * n``
    entries are merged; both ``1/alpha`` and ``alpha * n`` must be integers.
    """
    n = post.n_bins
    groups = 1.0 / alpha
    per = alpha * n
    if abs(groups - round(groups)) > 1e-9 or abs(per - round(per)) > 1e-9:
        raise ValueError(f"alpha={alpha} does not evenly bin {n} entries")
    groups_i, per_i = int(round(groups)), int(round(per))
    if groups_i * per_i != n:
        raise ValueError(f"alpha={alpha} does not evenly bin {n} entries")
    vals = np.sort(post.mass)[::-1]
    return avg_log_likelihood(vals.reshape(groups_i, per_i).sum(axis=1))


def nested_loglik(post: PosteriorDense, level: int) -> float:
    """Average log-likelihood of the posterior coarsened to dyadic level ``level``.

    Entries are grouped in index order into ``2**level`` equal blocks (no
    sorting).  ``level`` must be in 1..L for a 2**L-bin posterior: the
    single-block functional at level 0 is undefined.
    """
    n = post.n_bins
    depth = n.bit_length() - 1
    if n != (1 << depth):
        raise ValueError(f"nested binning needs a power-of-two bin count, got {n}")
    if not (1 <= level <= depth):
        raise ValueError(f"level must be in 1..{depth}, got {level}")
    binned = post.mass.reshape(1 << level, -1).sum(axis=1)
    return avg_log_likelihood(binned)
