"""Posterior representations and the Bayes update."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from noisysearch.channel import AffineNoise, ConstantNoise, noise_for_size
from noisysearch.errors import ContractViolationError, ZeroLikelihoodError
from noisysearch.posterior import (
    PosteriorDense,
    PosteriorPartition,
    QuerySet,
    _Partition,
    _Runs,
    _prefix_index,
    avg_log_likelihood,
    bayes_update_dense,
    bayes_update_partition,
    flatten,
    posterior_predictive,
    prefix_mass,
    query_mass,
)

AFFINE = AffineNoise(0.1, 0.5)
NOISELESS = ConstantNoise(0.0, p_floor=0.0)


def dense(*vals) -> PosteriorDense:
    return PosteriorDense(np.array(vals, dtype=float))


class TestQuerySet:
    def test_from_indices_merges_runs(self):
        qs = QuerySet.from_indices([1, 2, 3, 7, 9, 10])
        assert qs.runs == ((1, 3), (7, 7), (9, 10))
        assert qs.cardinality == 6
        assert QuerySet.from_indices([5, 3, 4]).runs == ((3, 5),)

    def test_single_run(self):
        qs = QuerySet.from_run(3, 5)
        assert qs.single_run == (3, 5)
        assert qs.is_contiguous

    def test_non_contiguous_raises_on_single_run(self):
        qs = QuerySet.from_indices([1, 3])
        with pytest.raises(ContractViolationError):
            qs.single_run

    def test_rejects_overlapping_or_adjacent_runs(self):
        with pytest.raises(ValueError):
            QuerySet(((1, 3), (3, 5)))
        with pytest.raises(ValueError):
            QuerySet(((1, 3), (4, 5)))  # adjacent runs must be merged
        with pytest.raises(ValueError):
            QuerySet(((3, 2),))
        with pytest.raises(ValueError):
            QuerySet(())

    def test_member_mask_and_size(self):
        qs = QuerySet.from_indices([2, 5, 6])
        mask = qs.member_mask(8)
        assert list(np.flatnonzero(mask) + 1) == [2, 5, 6]
        assert qs.size_fraction(8) == pytest.approx(3 / 8)

    @given(hs.sets(hs.integers(1, 64), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_indices_round_trip(self, idx):
        qs = QuerySet.from_indices(idx)
        back = set(np.flatnonzero(qs.member_mask(64)) + 1)
        assert back == idx


class TestDenseUpdate:
    def test_uniform_four_bins_half_query(self):
        # p = p(1/2) = 0.35, y = 1: members get 0.65, outsiders 0.35
        post = bayes_update_dense(PosteriorDense.uniform(4), QuerySet.from_run(1, 2), 1, AFFINE)
        np.testing.assert_allclose(post.mass, [0.325, 0.325, 0.175, 0.175], atol=1e-12)

    def test_noiseless_halving(self):
        post = bayes_update_dense(
            PosteriorDense.uniform(4), QuerySet.from_run(1, 2), 1, NOISELESS
        )
        np.testing.assert_allclose(post.mass, [0.5, 0.5, 0.0, 0.0], atol=0)

    def test_single_bin_query_miss(self):
        # p = p(1/4) = 0.225, y = 0: hand Bayes over likelihoods (0.225, 0.775, ...)
        post = bayes_update_dense(PosteriorDense.uniform(4), QuerySet.from_run(1, 1), 0, AFFINE)
        np.testing.assert_allclose(
            post.mass, [0.08824, 0.30392, 0.30392, 0.30392], atol=1e-4
        )

    def test_zero_likelihood_raises(self):
        post = dense(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ZeroLikelihoodError):
            bayes_update_dense(post, QuerySet.from_run(3, 4), 1, NOISELESS)
        # the run kernel: all the mass in the queried run, p = 0 and y = 0
        with pytest.raises(ZeroLikelihoodError):
            _Runs([1, 3, 5], [0.5, 0.0]).update([True, False], 0, 0.0)

    def test_bad_observation_rejected(self):
        with pytest.raises(ValueError):
            bayes_update_dense(PosteriorDense.uniform(4), QuerySet.from_run(1, 2), 2, AFFINE)


def runs_update(post: PosteriorDense, query: QuerySet, y: int, profile) -> tuple[np.ndarray, bool]:
    """The sortPM kernel's step on the vector's runs, expanded, and whether
    it merged neighbours."""
    n = post.n_bins
    runs, flags = _Runs.of(post.mass, query.member_mask(n))
    runs.update(flags, y, noise_for_size(profile, query.size_fraction(n)))
    return runs.expand(), len(runs) < len(flags)


class TestDenseUpdateEqualsRunKernel:
    @staticmethod
    def starts(rng):
        yield PosteriorDense.uniform(64)
        for n in (1, 2, 16, 256, 4096):
            yield PosteriorDense(rng.dirichlet(np.ones(n)))
        widths = np.array([1, 3, 64, 2, 100, 5, 80, 1])
        yield PosteriorDense(np.repeat(rng.dirichlet(np.ones(widths.size)) / widths, widths))
        zeros = rng.dirichlet(np.ones(64)) * (rng.random(64) < 0.5)
        yield PosteriorDense(zeros / zeros.sum())

    @pytest.mark.parametrize("profile", [AFFINE, ConstantNoise(0.2), ConstantNoise(0.3, p_floor=0.0)],
                             ids=["affine", "constant", "constant-no-floor"])
    def test_walks_equal_the_kernel(self, profile):
        # a few steps from each start, with both answers, contiguous and
        # scattered queries; constant noise gives exact ties between runs,
        # which the kernel merges and the dense update leaves apart
        rng = np.random.default_rng(14)
        merged = False
        for post in self.starts(rng):
            n = post.n_bins
            for step in range(6):
                if step % 2 or n < 4:
                    lo = int(rng.integers(1, n + 1))
                    query = QuerySet.from_run(lo, int(rng.integers(lo, n + 1)))
                else:
                    picks = np.flatnonzero(rng.random(n) < 0.4) + 1
                    query = QuerySet.from_indices(picks if picks.size else [1])
                for y in (0, 1):
                    want, did_merge = runs_update(post, query, y, profile)
                    got = bayes_update_dense(post, query, y, profile).mass
                    assert got.tobytes() == want.tobytes(), (n, step, y)
                    merged |= did_merge
                post = PosteriorDense(got)
        if profile is not AFFINE:
            assert merged


class TestPartitionUpdate:
    def test_split_example(self):
        # p = p(3/8) = 0.2875, y = 1; expected masses checked against both
        # the dense oracle and a hand computation
        part = bayes_update_partition(
            PosteriorPartition.uniform(8), QuerySet.from_run(3, 5), 1, AFFINE
        )
        assert [(lo, hi) for lo, hi, _ in part.intervals] == [(1, 2), (3, 5), (6, 8)]
        np.testing.assert_allclose(
            part.mass, [0.16084, 0.59790, 0.24126], atol=5e-6
        )
        oracle = bayes_update_dense(
            PosteriorDense.uniform(8), QuerySet.from_run(3, 5), 1, AFFINE
        )
        np.testing.assert_allclose(flatten(part).mass, oracle.mass, atol=1e-12)

    def test_full_range_query_is_uninformative(self):
        start = PosteriorPartition.from_intervals([(1, 3, 0.25), (4, 8, 0.75)])
        for y in (0, 1):
            part = bayes_update_partition(start, QuerySet.from_run(1, 8), y, AFFINE)
            # same structure; masses unchanged up to float renormalization
            assert [(lo, hi) for lo, hi, _ in part.intervals] == [(1, 3), (4, 8)]
            np.testing.assert_allclose(part.mass, start.mass, atol=1e-12)

    def test_noiseless_exclusion(self):
        start = PosteriorPartition.from_intervals([(1, 4, 0.5), (5, 8, 0.5)])
        part = bayes_update_partition(start, QuerySet.from_run(5, 8), 0, NOISELESS)
        assert part.intervals == [(1, 4, 1.0), (5, 8, 0.0)]

    def test_zero_likelihood_raises(self):
        # p = 0 and y = 0 on a query holding all the mass
        with pytest.raises(ZeroLikelihoodError):
            bayes_update_partition(PosteriorPartition.uniform(8), QuerySet.from_run(1, 8), 0,
                                   AffineNoise(0.0, 0.0, p_floor=0.0))

    def test_non_contiguous_query_rejected(self):
        with pytest.raises(ContractViolationError):
            bayes_update_partition(
                PosteriorPartition.uniform(8), QuerySet.from_indices([1, 4]), 1, AFFINE
            )

    def test_boundary_queries_add_no_empty_intervals(self):
        part = bayes_update_partition(
            PosteriorPartition.uniform(8), QuerySet.from_run(1, 8), 1, AFFINE
        )
        assert part.n_intervals == 1
        part = bayes_update_partition(
            PosteriorPartition.uniform(8), QuerySet.from_run(1, 3), 1, AFFINE
        )
        assert part.n_intervals == 2

    def test_no_merging_of_equal_densities(self):
        # querying [3,5] then the full range keeps the three-way structure
        part = bayes_update_partition(
            PosteriorPartition.uniform(8), QuerySet.from_run(3, 5), 1, AFFINE
        )
        part = bayes_update_partition(part, QuerySet.from_run(1, 8), 1, AFFINE)
        assert part.n_intervals == 3

    def test_cut_returns_the_index_of_the_interval_starting_at_b(self):
        part = _Partition.of(PosteriorPartition.from_intervals([(1, 3, 0.25), (4, 8, 0.75)]))
        assert part.cut(1) == 0  # the first interval, at the left end
        assert part.cut(0) == 0
        assert part.cut(9) == 2  # past the right end: the interval count
        assert part.cut(4) == 1  # an existing start
        assert len(part) == 2  # none of these split
        assert part.cut(6) == 2  # a split of [4, 8] into [4, 5] and [6, 8]
        assert part.los == [1, 4, 6, 9]  # [1, 3], [4, 5] and [6, 8]
        assert part.masses == [0.25, 0.75 * (2 / 5), 0.75 * (3 / 5)]
        assert part.cut(9) == 3

    def test_first_reaching_lands_on_positive_mass(self):
        # zero-mass intervals before, between and after positive ones, masses
        # exact in binary; every target in (0, 1] on a 1/16 grid, which holds
        # each running sum and points between them
        part = _Partition([1, 2, 4, 5, 7, 8, 9], [0.0, 0.25, 0.0, 0.5, 0.25, 0.0],
                          [0.0, 0.0, 0.25, 0.25, 0.75, 1.0, 1.0])
        assert set(part.cums) < {t / 16 for t in range(17)}
        for t in range(1, 17):
            k, j = part.first_reaching(t / 16)
            assert part.masses[j] > 0.0 and part.los[j] <= k < part.los[j + 1], t
            assert k == min(b for b in range(part.n + 1) if part.prefix(b) >= t / 16), t


class TestKernelLayout:
    """Both kernels hold their part starts followed by ``n + 1``, and the
    interval kernel its running sums from 0.0; building a kernel from the
    public form and freezing or expanding it gives that form back exactly."""

    @staticmethod
    def cases(L):
        """``(n, starts, values)``: one part, ``n`` unit parts and six random
        part counts, each with random starts and values."""
        n = 1 << L
        rng = np.random.default_rng(L)
        for k in [1, n] + rng.integers(2, n, size=6).tolist():
            others = np.sort(rng.choice(np.arange(2, n + 1), k - 1, replace=False))
            yield n, np.concatenate(([1], others)), rng.random(k)

    @staticmethod
    def assert_layout(los, n, k):
        assert len(los) == k + 1 and los[0] == 1 and los[-1] == n + 1
        assert all(a < b for a, b in zip(los, los[1:]))

    @pytest.mark.parametrize("L", (6, 12))
    def test_partition_of_then_freeze(self, L):
        for n, starts, values in self.cases(L):
            post = PosteriorPartition(starts, np.append(starts[1:] - 1, n), values / values.sum())
            part = _Partition.of(post)
            self.assert_layout(part.los, n, starts.size)
            back = part.freeze()
            for got, want in ((back.lo, post.lo), (back.hi, post.hi), (back.mass, post.mass)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("L", (6, 12))
    def test_runs_of_then_expand(self, L):
        for n, starts, values in self.cases(L):
            mass = np.repeat(values, np.diff(np.append(starts, n + 1)))
            runs, _ = _Runs.of(mass)
            self.assert_layout(runs.los, n, starts.size)
            assert runs.los[:-1] == starts.tolist()
            back = runs.expand()
            assert back.dtype == mass.dtype and np.array_equal(back, mass)

    @staticmethod
    def assert_sums(part):
        cums, masses = part.cums, part.masses
        assert len(cums) == len(part.los) and cums[0] == 0.0
        assert all(cums[j + 1] == cums[j] + m for j, m in enumerate(masses))
        assert part.prefix(0) == 0.0 and part.prefix(part.n) == cums[-1]

    @pytest.mark.parametrize("L", (6, 12))
    def test_partition_running_sums(self, L):
        # from of, uniform, after an update that cuts twice, and in the
        # dense view's unit intervals
        for n, starts, values in self.cases(L):
            post = PosteriorPartition(starts, np.append(starts[1:] - 1, n), values / values.sum())
            self.assert_sums(_prefix_index(flatten(post)))
            for part in (_Partition.of(post), _Partition.uniform(n)):
                self.assert_sums(part)
                part.update(n // 3 + 1, 2 * n // 3, 1, 0.2)
                self.assert_sums(part)


class TestOracleEquivalence:
    """The partition chain must track the dense chain exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_contiguous_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = 64
        d = PosteriorDense.uniform(n)
        p = PosteriorPartition.uniform(n)
        for t in range(40):
            s1 = int(rng.integers(1, n + 1))
            s2 = int(rng.integers(s1, n + 1))
            y = int(rng.integers(0, 2))
            q = QuerySet.from_run(s1, s2)
            d = bayes_update_dense(d, q, y, AFFINE)
            p = bayes_update_partition(p, q, y, AFFINE)
            assert p.n_intervals <= 2 * (t + 1) + 1
            np.testing.assert_allclose(flatten(p).mass, d.mass, atol=1e-9)
            assert d.mass.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(d.mass > 0.0)


class TestFlattenAndPrefix:
    def test_flatten_definition(self):
        part = PosteriorPartition.from_intervals([(1, 2, 0.6), (3, 4, 0.4)])
        np.testing.assert_allclose(flatten(part).mass, [0.3, 0.3, 0.2, 0.2], atol=0)

    def test_flatten_uniform(self):
        np.testing.assert_allclose(
            flatten(PosteriorPartition.uniform(4)).mass, [0.25] * 4, atol=0
        )

    def test_flatten_conserves_total(self):
        part = PosteriorPartition.from_intervals([(1, 3, 0.1), (4, 5, 0.55), (6, 8, 0.35)])
        assert flatten(part).mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_prefix_uniform(self):
        assert prefix_mass(PosteriorDense.uniform(8), 4) == pytest.approx(0.5)

    def test_prefix_dense(self):
        assert prefix_mass(dense(0.1, 0.2, 0.3, 0.4), 3) == pytest.approx(0.6)

    def test_prefix_partition_interpolates_density(self):
        part = PosteriorPartition.from_intervals([(1, 2, 0.5), (3, 8, 0.5)])
        assert prefix_mass(part, 3) == pytest.approx(0.5 + 0.5 / 6, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 9])
    def test_prefix_out_of_range(self, k):
        with pytest.raises(ValueError):
            prefix_mass(PosteriorDense.uniform(8), k)

    def test_query_mass_multi_run(self):
        part = PosteriorPartition.from_intervals([(1, 4, 0.4), (5, 8, 0.6)])
        qs = QuerySet.from_indices([1, 2, 7, 8])
        assert query_mass(part, qs) == pytest.approx(0.2 + 0.3, abs=1e-12)
        assert query_mass(flatten(part), qs) == pytest.approx(0.5, abs=1e-12)


class TestAvgLogLikelihood:
    def test_uniform_four(self):
        assert avg_log_likelihood(PosteriorDense.uniform(4)) == pytest.approx(
            -math.log2(3.0), abs=1e-12
        )

    def test_symmetric_pair(self):
        assert avg_log_likelihood(dense(0.5, 0.5)) == 0.0

    def test_concentrated(self):
        expected = 0.9 * math.log2(9.0) + 0.1 * math.log2(1.0 / 9.0)
        assert avg_log_likelihood(dense(0.9, 0.1)) == pytest.approx(expected, abs=1e-12)
        assert avg_log_likelihood(dense(0.9, 0.1)) == pytest.approx(2.536, abs=1e-3)

    def test_point_mass_is_infinite(self):
        assert avg_log_likelihood(np.array([1.0, 0.0])) == math.inf

    def test_level_crossing_link(self):
        # if no entry reaches 1 - eps, then U < log2((1-eps)/eps)
        rng = np.random.default_rng(11)
        eps = 0.05
        for _ in range(200):
            mass = rng.dirichlet(np.full(16, 0.3))
            post = PosteriorDense(mass)
            if post.max_mass < 1.0 - eps:
                assert avg_log_likelihood(post) < math.log2((1.0 - eps) / eps)


class TestPosteriorPredictive:
    def test_probabilities_sum_to_one(self):
        post = dense(0.1, 0.2, 0.3, 0.4)
        p1, p0 = posterior_predictive(post, QuerySet.from_run(1, 2), AFFINE)
        assert p1 + p0 == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # rho = 0.3, p = p(1/2) = 0.35: P(y=1) = 0.3*0.65 + 0.7*0.35
        post = dense(0.1, 0.2, 0.3, 0.4)
        p1, _ = posterior_predictive(post, QuerySet.from_run(1, 2), AFFINE)
        assert p1 == pytest.approx(0.3 * 0.65 + 0.7 * 0.35, abs=1e-12)

    def test_matches_partition_route(self):
        part = PosteriorPartition.from_intervals([(1, 4, 0.4), (5, 8, 0.6)])
        q = QuerySet.from_run(2, 6)
        p1_part, _ = posterior_predictive(part, q, AFFINE)
        p1_dense, _ = posterior_predictive(flatten(part), q, AFFINE)
        assert p1_part == pytest.approx(p1_dense, abs=1e-12)


class TestValidation:
    def test_dense_must_sum_to_one(self):
        with pytest.raises(ValueError):
            dense(0.5, 0.4)

    def test_dense_rejects_negative(self):
        with pytest.raises(ValueError):
            dense(1.1, -0.1)

    def test_partition_requires_contiguity(self):
        with pytest.raises(ValueError):
            PosteriorPartition.from_intervals([(1, 3, 0.5), (5, 8, 0.5)])
        with pytest.raises(ValueError):
            PosteriorPartition.from_intervals([(2, 8, 1.0)])

    def test_partition_requires_unit_mass(self):
        with pytest.raises(ValueError):
            PosteriorPartition.from_intervals([(1, 8, 0.9)])

    def test_posteriors_are_immutable(self):
        post = PosteriorDense.uniform(4)
        with pytest.raises(ValueError):
            post.mass[0] = 0.9
