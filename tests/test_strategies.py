"""Query-selection rules, EJS divergence, and the binned log-likelihoods."""

import math
from bisect import bisect_right

import numpy as np
import pytest

from noisysearch.channel import (
    AffineNoise,
    ConstantNoise,
    mutual_info_bsc,
    noise_for_size,
    reliability_c1,
    sample_observation,
)
from noisysearch.posterior import (
    PosteriorDense,
    PosteriorPartition,
    QuerySet,
    _Runs,
    avg_log_likelihood,
    bayes_update_dense,
    posterior_predictive,
    query_mass,
)
from noisysearch.sim import trial_rng
from noisysearch.strategies import (
    StrategyKind,
    TreeNode,
    binned_sorted_loglik,
    ejs_divergence,
    heaviest_node,
    js_divergence,
    nested_loglik,
    select,
    select_dya_pm,
    select_hie_pm,
    select_median_pm,
    select_sort_pm,
)

AFFINE = AffineNoise(0.1, 0.5)


def dense(*vals) -> PosteriorDense:
    return PosteriorDense(np.array(vals, dtype=float))


def both_representations(mass):
    """The same posterior as a dense vector and a fully split partition."""
    arr = np.asarray(mass, dtype=float)
    n = arr.size
    part = PosteriorPartition(np.arange(1, n + 1), np.arange(1, n + 1), arr)
    return PosteriorDense(arr), part


class TestTreeNode:
    def test_interval(self):
        assert TreeNode(0, 0).interval(3) == (1, 8)
        assert TreeNode(1, 1).interval(3) == (5, 8)
        assert TreeNode(3, 5).interval(3) == (6, 6)

    def test_children_partition_parent(self):
        node = TreeNode(1, 1)
        left, right = node.children()
        lo, hi = node.interval(3)
        assert left.interval(3)[0] == lo
        assert right.interval(3)[1] == hi
        assert left.interval(3)[1] + 1 == right.interval(3)[0]

    def test_bad_node(self):
        with pytest.raises(ValueError):
            TreeNode(1, 2)


class TestMedianPM:
    def test_uniform_eight(self):
        assert select_median_pm(PosteriorDense.uniform(8)).runs == ((1, 4),)

    def test_increasing_masses(self):
        # prefix distances (0.4, 0.2, 0.1, 0.5)
        assert select_median_pm(dense(0.1, 0.2, 0.3, 0.4)).runs == ((1, 3),)

    def test_heavy_first_bin(self):
        assert select_median_pm(dense(0.6, 0.2, 0.1, 0.1)).runs == ((1, 1),)

    def test_partition_agrees_with_dense(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            mass = rng.dirichlet(np.ones(16))
            d, p = both_representations(mass)
            assert select_median_pm(d).runs == select_median_pm(p).runs

    def test_can_exceed_half_the_space(self):
        # mass concentrated on the right pushes the median query past n/2;
        # the channel then saturates at p(1/2)
        post = dense(0.05, 0.05, 0.05, 0.05, 0.1, 0.1, 0.3, 0.3)
        qs = select_median_pm(post)
        assert qs.runs == ((1, 6),)
        assert qs.size_fraction(8) > 0.5


class TestSortPM:
    def test_spiky(self):
        assert select_sort_pm(dense(0.1, 0.4, 0.05, 0.45)).runs == ((4, 4),)

    def test_uniform_stable_ties(self):
        assert select_sort_pm(PosteriorDense.uniform(8)).runs == ((1, 4),)

    def test_two_groups(self):
        # sorted prefixes (0.3, 0.6, 0.8, 1.0) -> k* = 2
        assert select_sort_pm(dense(0.3, 0.3, 0.2, 0.2)).runs == ((1, 2),)

    def test_exact_ties_take_fewer_bins(self):
        # the sorted prefixes 0.375 and 0.625 are equally far from 1/2
        assert select_sort_pm(dense(0.375, 0.25, 0.25, 0.125)).runs == ((1, 1),)
        # inside a run: 0.4375 and 0.5625 are equally far from 1/2
        mass = (0.3125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.0625)
        assert select_sort_pm(dense(*mass)).runs == ((1, 2),)

    def test_non_contiguous_result(self):
        qs = select_sort_pm(dense(0.25, 0.05, 0.25, 0.05, 0.2, 0.2))
        assert qs.runs == ((1, 1), (3, 3))

    def test_half_mass_optimality_exhaustive(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            mass = rng.dirichlet(np.full(32, 0.4))
            post = PosteriorDense(mass)
            qs = select_sort_pm(post)
            chosen = abs(query_mass(post, qs) - 0.5)
            sorted_desc = np.sort(mass)[::-1]
            prefixes = np.cumsum(sorted_desc)
            assert chosen <= np.min(np.abs(prefixes - 0.5)) + 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        base = rng.dirichlet(np.ones(16))
        while len(np.unique(base)) < 16:  # distinct masses so ties play no role
            base = rng.dirichlet(np.ones(16))
        members = set(np.flatnonzero(select_sort_pm(PosteriorDense(base)).member_mask(16)))
        for _ in range(20):
            perm = rng.permutation(16)
            permuted = PosteriorDense(base[perm])
            got = set(np.flatnonzero(select_sort_pm(permuted).member_mask(16)))
            expected = {int(np.flatnonzero(perm == i)[0]) for i in members}
            assert got == expected


def oracle_sort_pm(mass):
    """Brute-force sorted matching: the 0-based member set, or None when a
    near-tie within 1e-12 makes the choice depend on rounding."""
    order = np.argsort(-mass, kind="stable")  # ties to the smaller index
    dist = np.abs(np.cumsum(mass[order]) - 0.5)
    k = int(np.argmin(dist))  # first minimum: ties to the smaller count
    others = np.delete(dist, k)
    gaps = np.abs(mass - mass[order[k]])  # other values close to the cut value
    if (others.size and others.min() - dist[k] < 1e-12) or np.any((gaps > 0) & (gaps < 1e-12)):
        return None
    return set(order[: k + 1].tolist())


def random_piecewise_constant(rng, n):
    """Random runs whose values come from a small palette, so equal values
    recur in runs that are not adjacent."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, 20)), replace=False))
    widths = np.diff(np.concatenate(([0], cuts, [n])))
    weights = rng.uniform(0.1, 1.0, size=4)[rng.integers(0, 4, size=widths.size)]
    return np.repeat(weights / np.sum(weights * widths), widths)


class TestSortPMKernel:
    """The run-length kernel against a brute-force oracle, and its
    invariants along episodes."""

    @pytest.mark.parametrize("family", ["piecewise", "dirichlet"])
    def test_matches_brute_force_oracle(self, family):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(300):
            if family == "piecewise":
                mass = random_piecewise_constant(rng, 256)
            else:
                mass = rng.dirichlet(np.full(int(rng.integers(2, 200)), rng.uniform(0.2, 2.0)))
            expected = oracle_sort_pm(mass)
            if expected is None:
                continue
            got = select_sort_pm(PosteriorDense(mass)).member_mask(mass.size)
            assert set(np.flatnonzero(got).tolist()) == expected
            checked += 1
        assert checked >= 270

    @pytest.mark.parametrize("seed", range(4))
    def test_runs_are_the_encoding_of_the_vector(self, seed):
        rng = trial_rng(seed, 0)
        n = 1 << 10
        truth = int(rng.integers(1, n + 1))
        runs = _Runs.uniform(n)
        for t in range(1, 61):
            query = select_sort_pm(runs.freeze())
            flags, size = runs.select()
            assert runs.query_runs(flags) == query.runs  # engine and public rule agree
            assert size == query.cardinality
            member = flags[bisect_right(runs.los, truth) - 1]
            y = sample_observation(AFFINE, member, size / n, rng)
            runs.update(flags, y, noise_for_size(AFFINE, size / n))
            encoded, _ = _Runs.of(runs.expand())
            assert (encoded.los, encoded.vals) == (runs.los, runs.vals)
            assert len(runs) <= t + 1


    def test_update_equals_the_rebuilding_loop(self):
        # the update that keeps its run bounds when no neighbours merge gives
        # the runs of the loop that rebuilds them on every step; constant
        # noise makes exact ties, so the merge path runs too
        paths = {"kept": 0, "merged": 0}
        for profile in (AFFINE, ConstantNoise(0.2)):
            for seed in range(3):
                rng = trial_rng(seed, 0)
                n = 1 << 10
                truth = int(rng.integers(1, n + 1))
                runs = _Runs.uniform(n)
                for _ in range(60):
                    flags, size = runs.select()
                    member = flags[bisect_right(runs.los, truth) - 1]
                    p = noise_for_size(profile, size / n)
                    y = sample_observation(profile, member, size / n, rng)
                    expected = rebuilt_update(runs, flags, y, p)
                    k = len(runs)
                    runs.update(flags, y, p)
                    assert (runs.los, runs.vals) == expected
                    paths["merged" if len(runs) < k else "kept"] += 1
        assert paths["kept"] and paths["merged"], paths


def rebuilt_update(runs, flags, y, p):
    """``_Runs.update``'s runs as the loop that rebuilds every run computes
    them: ``(los, vals)``, ``los`` ending at ``n + 1``."""
    in_lik, out_lik = (1.0 - p, p) if y else (p, 1.0 - p)
    new = [v * (in_lik if f else out_lik) for v, f in zip(runs.vals, flags)]
    bounds = [(lo, end - 1) for lo, end in zip(runs.los, runs.los[1:])]
    total = 0.0
    for v, (lo, hi) in zip(new, bounds):
        total += v * (hi - lo + 1)
    merged = []  # [lo, hi, value] of each rebuilt run
    for (lo, hi), v in zip(bounds, new):
        v /= total
        if merged and merged[-1][2] == v:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, v])
    return [lo for lo, _, _ in merged] + [merged[-1][1] + 1], [v for _, _, v in merged]


class TestHeaviestNode:
    def test_uniform_four(self):
        assert heaviest_node(PosteriorDense.uniform(4), 2) == TreeNode(1, 0)

    def test_point_mass(self):
        assert heaviest_node(dense(1.0, 0.0, 0.0, 0.0), 2) == TreeNode(2, 0)

    def test_no_heavy_leaf(self):
        assert heaviest_node(dense(0.4, 0.2, 0.2, 0.2), 2) == TreeNode(1, 0)

    def test_exact_tie_descends_both_sides(self):
        # the left level-1 node ties at 1/2 but the deep heavy node is right
        assert heaviest_node(dense(0.25, 0.25, 0.5, 0.0), 2) == TreeNode(2, 2)
        assert heaviest_node(dense(0.0, 0.5, 0.5, 0.0), 2) == TreeNode(2, 1)
        assert heaviest_node(dense(0.5, 0.0, 0.0, 0.5), 2) == TreeNode(2, 0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(31)
        depth = 4
        for _ in range(300):
            mass = rng.dirichlet(np.full(16, 0.3))
            post = PosteriorDense(mass)
            got = heaviest_node(post, depth)
            best = None
            for level in range(depth + 1):
                width = 1 << (depth - level)
                sums = mass.reshape(1 << level, width).sum(axis=1)
                heavy = np.flatnonzero(sums >= 0.5)
                if heavy.size:
                    m = int(heavy[np.argmax(sums[heavy])])
                    # ties toward smaller m: argmax takes the first maximum
                    best = (level, m)
            assert (got.level, got.index) == best

    def test_wrong_bin_count(self):
        with pytest.raises(ValueError):
            heaviest_node(PosteriorDense.uniform(6), 2)


class TestHiePM:
    def test_uniform_four(self):
        assert select_hie_pm(PosteriorDense.uniform(4), 2).runs == ((1, 2),)

    def test_leaf_anchor(self):
        assert select_hie_pm(dense(1.0, 0.0, 0.0, 0.0), 2).runs == ((1, 1),)

    def test_tie_prefers_deeper(self):
        # candidates: anchor 0.6, children 0.4 and 0.2 -> tie broken deeper
        assert select_hie_pm(dense(0.4, 0.2, 0.2, 0.2), 2).runs == ((1, 1),)

    def test_sibling_tie_prefers_left_child(self):
        # anchor 0.8, children 0.4 and 0.4: an exact tie, except in the second
        # vector, whose prefix sums leave the left child one ulp closer to 1/2
        assert select_hie_pm(dense(0.4, 0.4, 0.1, 0.1), 2).runs == ((1, 1),)
        assert select_hie_pm(dense(0.1, 0.1, 0.4, 0.4), 2).runs == ((3, 3),)
        part = PosteriorPartition.from_intervals([(1, 2, 0.8), (3, 4, 0.2)])
        assert select_hie_pm(part, 2).runs == ((1, 1),)

    def test_after_the_descent_forks(self):
        # both level-1 nodes weigh 1/2; only the right one has a heavy child
        assert select_hie_pm(dense(0.25, 0.25, 0.5, 0.0), 2).runs == ((3, 3),)

    def test_query_is_a_tree_node(self):
        rng = np.random.default_rng(41)
        depth = 5
        nodes = {
            TreeNode(level, m).interval(depth)
            for level in range(depth + 1)
            for m in range(1 << level)
        }
        for _ in range(200):
            post = PosteriorDense(rng.dirichlet(np.full(32, 0.5)))
            assert select_hie_pm(post, depth).single_run in nodes

    def test_candidate_minimality(self):
        rng = np.random.default_rng(43)
        depth = 4
        for _ in range(200):
            post = PosteriorDense(rng.dirichlet(np.full(16, 0.5)))
            anchor = heaviest_node(post, depth)
            qs = select_hie_pm(post, depth)
            chosen = abs(query_mass(post, qs) - 0.5)
            cands = [anchor] + (list(anchor.children()) if anchor.level < depth else [])
            for cand in cands:
                m = query_mass(post, QuerySet.from_run(*cand.interval(depth)))
                assert chosen <= abs(m - 0.5) + 1e-12


class TestDyaPM:
    def test_uniform_four(self):
        assert select_dya_pm(PosteriorDense.uniform(4), 2).runs == ((1, 2),)

    def test_tie_prefers_smaller_k(self):
        # prefixes from bin 1: 0.4, 0.6 -> equal distance, keep k = 1
        assert select_dya_pm(dense(0.4, 0.2, 0.2, 0.2), 2).runs == ((1, 1),)

    def test_anchored_at_heavy_leaf(self):
        assert select_dya_pm(dense(0.1, 0.5, 0.2, 0.2), 2).runs == ((2, 2),)

    def test_after_the_descent_forks(self):
        # the anchor is leaf 3, right of the fork: dya's base is prefix(2) = 0.5
        assert select_dya_pm(dense(0.25, 0.25, 0.5, 0.0), 2).runs == ((3, 3),)

    def test_prefix_optimality_exhaustive(self):
        rng = np.random.default_rng(47)
        depth = 4
        for _ in range(200):
            mass = rng.dirichlet(np.full(16, 0.4))
            post = PosteriorDense(mass)
            anchor = heaviest_node(post, depth)
            d = anchor.interval(depth)[0]
            qs = select_dya_pm(post, depth)
            assert qs.single_run[0] == d
            chosen = abs(query_mass(post, qs) - 0.5)
            cums = np.cumsum(mass[d - 1 :])
            assert chosen <= np.min(np.abs(cums - 0.5)) + 1e-12

    def test_partition_agrees_with_dense(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            mass = rng.dirichlet(np.ones(16))
            d, p = both_representations(mass)
            assert select_dya_pm(d, 4).runs == select_dya_pm(p, 4).runs
            assert select_hie_pm(d, 4).runs == select_hie_pm(p, 4).runs


class TestConnectedGeometry:
    @pytest.mark.parametrize(
        "kind", [StrategyKind.MEDIAN_PM, StrategyKind.DYA_PM, StrategyKind.HIE_PM]
    )
    def test_single_contiguous_run(self, kind):
        rng = np.random.default_rng(59)
        for _ in range(100):
            post = PosteriorDense(rng.dirichlet(np.full(32, 0.4)))
            assert select(kind, post).is_contiguous

    @pytest.mark.parametrize(
        "kind", [StrategyKind.DYA_PM, StrategyKind.HIE_PM]
    )
    def test_tree_strategies_never_exceed_half(self, kind):
        rng = np.random.default_rng(61)
        for _ in range(200):
            post = PosteriorDense(rng.dirichlet(np.full(32, 0.3)))
            assert select(kind, post).size_fraction(32) <= 0.5


class TestEjsDivergence:
    def test_two_symmetric_hypotheses(self):
        post = dense(0.5, 0.5)
        val = ejs_divergence(post, QuerySet.from_run(1, 1), AFFINE)
        assert val == pytest.approx(reliability_c1(0.35), abs=1e-12)
        assert val == pytest.approx(0.2679, abs=1e-3)

    def test_useless_channel(self):
        post = dense(0.1, 0.2, 0.3, 0.4)
        val = ejs_divergence(post, QuerySet.from_run(1, 2), ConstantNoise(0.5))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_near_point_mass_limit(self):
        post = dense(1.0 - 1e-12, 1e-12)
        val = ejs_divergence(post, QuerySet.from_run(1, 1), ConstantNoise(0.1))
        assert val == pytest.approx(reliability_c1(0.1), abs=1e-3)

    def test_point_mass_is_infinite(self):
        assert ejs_divergence(dense(1.0, 0.0), QuerySet.from_run(1, 1), AFFINE) == math.inf

    def test_zero_mass_entries_drop_out(self):
        with_zero = dense(0.5, 0.0, 0.3, 0.2)
        without = dense(0.5, 0.3, 0.2)
        # the zero-mass bin contributes nothing: compare a query avoiding it
        v1 = ejs_divergence(with_zero, QuerySet.from_run(1, 1), ConstantNoise(0.2))
        v2 = ejs_divergence(without, QuerySet.from_run(1, 1), ConstantNoise(0.2))
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_equals_expected_loglik_drift(self):
        """EJS is exactly the expected one-step increment of U."""
        rng = np.random.default_rng(67)
        for _ in range(100):
            n = 16
            post = PosteriorDense(rng.dirichlet(np.full(n, 0.5)))
            lo = int(rng.integers(1, n + 1))
            hi = int(rng.integers(lo, n + 1))
            q = QuerySet.from_run(lo, hi)
            p1, p0 = posterior_predictive(post, q, AFFINE)
            drift = (
                p1 * avg_log_likelihood(bayes_update_dense(post, q, 1, AFFINE))
                + p0 * avg_log_likelihood(bayes_update_dense(post, q, 0, AFFINE))
                - avg_log_likelihood(post)
            )
            assert ejs_divergence(post, q, AFFINE) == pytest.approx(drift, abs=1e-9)

    @pytest.mark.parametrize(
        "kind,weight",
        [
            (StrategyKind.SORT_PM, 0.5),
            (StrategyKind.DYA_PM, 0.5),
            (StrategyKind.HIE_PM, 1.0 / 3.0),
        ],
    )
    def test_lower_bound_on_random_posteriors(self, kind, weight):
        # quick version of the acceptance check
        rng = np.random.default_rng(71)
        n = 64
        for _ in range(200):
            post = PosteriorDense(rng.dirichlet(np.ones(n)))
            qs = select(kind, post)
            bound = mutual_info_bsc(weight, noise_for_size(AFFINE, qs.size_fraction(n)))
            assert ejs_divergence(post, qs, AFFINE) >= bound - 1e-9


class TestJsDivergence:
    def test_equals_mutual_information_of_queried_mass(self):
        # for a set query both hypothesis classes share an observation law,
        # so JS collapses to I(rho, p)
        rng = np.random.default_rng(73)
        n = 16
        for _ in range(100):
            post = PosteriorDense(rng.dirichlet(np.full(n, 0.5)))
            lo = int(rng.integers(1, n + 1))
            hi = int(rng.integers(lo, n + 1))
            q = QuerySet.from_run(lo, hi)
            p = noise_for_size(AFFINE, q.size_fraction(n))
            expected = mutual_info_bsc(query_mass(post, q), p)
            assert js_divergence(post, q, AFFINE) == pytest.approx(expected, abs=1e-12)

    def test_extrinsic_dominates(self):
        rng = np.random.default_rng(79)
        n = 32
        for _ in range(200):
            post = PosteriorDense(rng.dirichlet(np.ones(n)))
            for kind in StrategyKind:
                qs = select(kind, post)
                ejs = ejs_divergence(post, qs, AFFINE)
                js = js_divergence(post, qs, AFFINE)
                assert ejs >= js - 1e-12


class TestBinnedLogLik:
    def test_uniform_pairs(self):
        assert binned_sorted_loglik(PosteriorDense.uniform(4), 0.5) == 0.0

    def test_sorted_grouping(self):
        # sorted (0.7, 0.1 | 0.1, 0.1) -> (0.8, 0.2)
        expected = 0.8 * math.log2(4.0) + 0.2 * math.log2(0.25)
        got = binned_sorted_loglik(dense(0.7, 0.1, 0.1, 0.1), 0.5)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.2, abs=1e-12)

    def test_sorting_happens_before_grouping(self):
        a = binned_sorted_loglik(dense(0.7, 0.1, 0.1, 0.1), 0.5)
        b = binned_sorted_loglik(dense(0.1, 0.7, 0.1, 0.1), 0.5)
        assert a == b

    def test_uniform_eight_quarters(self):
        got = binned_sorted_loglik(PosteriorDense.uniform(8), 0.25)
        assert got == pytest.approx(-math.log2(3.0), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 1.0 / 3.0, 0.11])
    def test_uneven_binning_rejected(self, alpha):
        with pytest.raises(ValueError):
            binned_sorted_loglik(PosteriorDense.uniform(8), alpha)


class TestNestedLogLik:
    def test_uniform_level_one(self):
        assert nested_loglik(PosteriorDense.uniform(4), 1) == 0.0

    def test_index_order_grouping(self):
        assert nested_loglik(dense(0.7, 0.1, 0.1, 0.1), 1) == pytest.approx(1.2, abs=1e-12)
        # unlike the sorted functional, moving mass across the midpoint changes it
        assert nested_loglik(dense(0.1, 0.1, 0.7, 0.1), 1) == pytest.approx(1.2, abs=1e-12)
        assert nested_loglik(dense(0.4, 0.1, 0.4, 0.1), 1) == 0.0

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            nested_loglik(PosteriorDense.uniform(4), 0)

    def test_level_above_depth_rejected(self):
        with pytest.raises(ValueError):
            nested_loglik(PosteriorDense.uniform(4), 3)

    def test_full_depth_equals_plain_avg_loglik(self):
        post = dense(0.1, 0.2, 0.3, 0.4)
        assert nested_loglik(post, 2) == pytest.approx(avg_log_likelihood(post), abs=1e-12)


class TestStrategyKind:
    def test_values(self):  # the names --strategy takes
        assert [k.value for k in StrategyKind] == ["median", "sort", "dya", "hie"]

    def test_dispatch(self):
        post = PosteriorDense.uniform(8)
        assert select(StrategyKind.MEDIAN_PM, post) == select_median_pm(post)
        assert select(StrategyKind.SORT_PM, post) == select_sort_pm(post)
