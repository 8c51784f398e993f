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

# Near-certain posteriors are evaluated with this floor on 1 - pi_i so the
# extrinsic mixture stays defined; an entry exactly 1 still yields +inf.
_EJS_DENOM_FLOOR = 1e-12


class StrategyKind(enum.Enum):
    MEDIAN_PM = "median"
    SORT_PM = "sort"
    DYA_PM = "dya"
    HIE_PM = "hie"

    @property
    def cli_name(self) -> str:
        return self.value


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


def _best_prefix_end(idx, start: int) -> int:
    """k* = argmin_{k >= start} |mass of [start, k] - 1/2|, ties to smaller k.

    The prefix mass is non-decreasing in k, so the argmin sits where it
    crosses the half-mass target; the crossing neighbourhood is evaluated
    exactly to absorb floating-point slop in locating it.
    """
    base = idx.prefix(start - 1)
    k0 = idx.first_reaching(base + 0.5)
    best_k, best_d = 0, math.inf
    for k in (k0 - 1, k0, k0 + 1):
        if start <= k <= idx.n:
            d = abs(idx.prefix(k) - base - 0.5)
            if d < best_d:
                best_k, best_d = k, d
    return best_k


def _run_for(kind: "StrategyKind", idx, depth: int) -> tuple[int, int]:
    """Contiguous query (s1, s2) for one of the connected-geometry rules."""
    if kind is StrategyKind.MEDIAN_PM:
        return 1, _best_prefix_end(idx, 1)
    if kind is StrategyKind.DYA_PM:
        level, m = _heaviest(idx, depth)
        d = m * (1 << (depth - level)) + 1
        return d, _best_prefix_end(idx, d)
    if kind is StrategyKind.HIE_PM:
        anchor = TreeNode(*_heaviest(idx, depth))
        candidates = [anchor]
        if anchor.level < depth:
            candidates.extend(anchor.children())
        best = min(
            candidates,
            key=lambda nd: (
                abs(_node_mass(idx, depth, nd.level, nd.index) - 0.5),
                -nd.level,
                nd.index,
            ),
        )
        return best.interval(depth)
    raise ValueError(f"no contiguous selection rule for {kind!r}")


def _select_connected(kind: StrategyKind, post: Posterior, depth: int) -> QuerySet:
    if kind is not StrategyKind.MEDIAN_PM:
        _check_dyadic(post, depth)
    return QuerySet.from_run(*_run_for(kind, _prefix_index(post), depth))


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


def _node_mass(idx, depth: int, level: int, m: int) -> float:
    width = 1 << (depth - level)
    lo = m * width + 1
    return idx.prefix(lo + width - 1) - idx.prefix(lo - 1)


def _heaviest(idx, depth: int) -> tuple[int, int]:
    """Root-to-leaf descent to the deepest node of mass >= 1/2.

    Node masses are non-increasing along any path, so following a child of
    mass >= 1/2 is safe.  Two siblings can both reach 1/2 only by splitting a
    full-mass parent exactly in half, which can happen at most once per
    posterior; that single fork is explored on both sides, so at most two
    root-to-leaf paths are ever walked.  A node's end-point prefixes are
    inherited from its parent, leaving one prefix evaluation (the midpoint)
    per level.
    """

    def descend(level: int, m: int, pref_lo: float, pref_hi: float) -> tuple[int, int]:
        # pref_lo/pref_hi are prefix masses at (node lo - 1) and (node hi)
        while level < depth:
            half = 1 << (depth - level - 1)
            mid = m * 2 * half + half  # last bin of the left child
            pref_mid = idx.prefix(mid)
            left = pref_mid - pref_lo
            right = pref_hi - pref_mid
            if left >= 0.5 and right >= 0.5:
                cand_l = descend(level + 1, 2 * m, pref_lo, pref_mid)
                cand_r = descend(level + 1, 2 * m + 1, pref_mid, pref_hi)
                # deeper level wins; at equal depth both weigh exactly 1/2
                # and the left one has the smaller index
                return cand_l if cand_l[0] >= cand_r[0] else cand_r
            if left >= 0.5:
                level, m, pref_hi = level + 1, 2 * m, pref_mid
            elif right >= 0.5:
                level, m, pref_lo = level + 1, 2 * m + 1, pref_mid
            else:
                break
        return level, m

    return descend(0, 0, 0.0, idx.prefix(idx.n))


def heaviest_node(post: Posterior, depth: int) -> TreeNode:
    """Deepest tree node with mass >= 1/2; the heaviest one at that level."""
    _check_dyadic(post, depth)
    return TreeNode(*_heaviest(_prefix_index(post), depth))


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
