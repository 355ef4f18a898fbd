"""Tests for bucket sizing and assignment."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bucketing import (
    BucketAssignment,
    assign_buckets,
    bucket_size_for_probability,
    probability_of_anomalous_bucket,
)


class TestProbability:
    def test_full_bucket_has_probability_one(self):
        assert probability_of_anomalous_bucket(100, 5, 100) == pytest.approx(1.0)

    def test_no_anomalies_gives_zero(self):
        assert probability_of_anomalous_bucket(100, 0, 10) == 0.0

    def test_known_hypergeometric_value(self):
        # P(at least one of 2 anomalies in a bucket of 5 from 10 samples)
        # = 1 - C(8,5)/C(10,5) = 1 - 56/252.
        expected = 1.0 - 56.0 / 252.0
        assert probability_of_anomalous_bucket(10, 2, 5) == pytest.approx(expected)

    def test_monotone_in_bucket_size(self):
        values = [probability_of_anomalous_bucket(200, 10, b) for b in range(1, 200)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bucket_larger_than_normals_is_certain(self):
        assert probability_of_anomalous_bucket(10, 9, 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("args", [(0, 0, 1), (10, 11, 1), (10, 2, 0), (10, 2, 11)])
    def test_invalid_arguments_raise(self, args):
        with pytest.raises(ValueError):
            probability_of_anomalous_bucket(*args)


class TestBucketSize:
    def test_reaches_target(self):
        size = bucket_size_for_probability(367, 10 / 367, 0.75)
        achieved = probability_of_anomalous_bucket(367, 10, size)
        assert achieved >= 0.75
        # And the next-smaller bucket misses the target (minimality).
        assert probability_of_anomalous_bucket(367, 10, size - 1) < 0.75

    def test_higher_target_needs_bigger_bucket(self):
        low = bucket_size_for_probability(500, 0.05, 0.5)
        high = bucket_size_for_probability(500, 0.05, 0.95)
        assert high > low

    def test_higher_anomaly_fraction_needs_smaller_bucket(self):
        rare = bucket_size_for_probability(500, 0.02, 0.75)
        common = bucket_size_for_probability(500, 0.2, 0.75)
        assert common < rare

    @pytest.mark.parametrize("kwargs", [
        {"num_samples": 0, "anomaly_fraction": 0.1, "target_probability": 0.5},
        {"num_samples": 10, "anomaly_fraction": 0.0, "target_probability": 0.5},
        {"num_samples": 10, "anomaly_fraction": 0.1, "target_probability": 1.0},
    ])
    def test_invalid_arguments_raise(self, kwargs):
        with pytest.raises(ValueError):
            bucket_size_for_probability(**kwargs)

    @given(num_samples=st.integers(min_value=20, max_value=2000),
           fraction=st.floats(min_value=0.01, max_value=0.3),
           target=st.floats(min_value=0.1, max_value=0.99))
    @settings(max_examples=40, deadline=None)
    def test_returned_size_always_achieves_target(self, num_samples, fraction, target):
        size = bucket_size_for_probability(num_samples, fraction, target)
        anomalies = max(1, int(round(fraction * num_samples)))
        assert 2 <= size <= num_samples
        assert probability_of_anomalous_bucket(num_samples, anomalies, size) >= target - 1e-12


class TestAssignment:
    def test_every_sample_in_exactly_one_bucket(self):
        assignment = assign_buckets(100, 9, np.random.default_rng(0))
        seen = sorted(index for bucket in assignment.buckets for index in bucket)
        assert seen == list(range(100))

    def test_bucket_sizes_balanced(self):
        assignment = assign_buckets(100, 9, np.random.default_rng(1))
        sizes = [len(bucket) for bucket in assignment.buckets]
        assert max(sizes) - min(sizes) <= 1
        assert assignment.num_buckets == 100 // 9

    def test_bucket_of_lookup(self):
        assignment = assign_buckets(20, 5, np.random.default_rng(2))
        for bucket_index, bucket in enumerate(assignment.buckets):
            for sample in bucket:
                assert assignment.bucket_of(sample) == bucket_index
        with pytest.raises(KeyError):
            assignment.bucket_of(99)

    def test_randomness_differs_between_rngs(self):
        first = assign_buckets(50, 10, np.random.default_rng(1))
        second = assign_buckets(50, 10, np.random.default_rng(2))
        assert first.buckets != second.buckets

    def test_single_bucket_when_size_equals_samples(self):
        assignment = assign_buckets(10, 10, np.random.default_rng(0))
        assert assignment.num_buckets == 1

    @pytest.mark.parametrize("num_samples,bucket_size", [(0, 1), (10, 0), (10, 11)])
    def test_invalid_arguments_raise(self, num_samples, bucket_size):
        with pytest.raises(ValueError):
            assign_buckets(num_samples, bucket_size)

    def test_as_lists(self):
        assignment = assign_buckets(12, 4, np.random.default_rng(3))
        lists = assignment.as_lists()
        assert isinstance(lists[0], list)
        assert sum(len(bucket) for bucket in lists) == 12


def _loop_assign_buckets(num_samples, bucket_size, rng):
    """Reference: the modulo append loop the index-matrix build replaced."""
    order = rng.permutation(num_samples)
    num_buckets = max(1, num_samples // bucket_size)
    buckets = [[] for _ in range(num_buckets)]
    for position, sample in enumerate(order):
        buckets[position % num_buckets].append(int(sample))
    return tuple(tuple(bucket) for bucket in buckets)


class TestIndexMatrices:
    @pytest.mark.parametrize("num_samples", [1, 2, 7, 30, 100, 367, 809])
    @pytest.mark.parametrize("bucket_size", [1, 2, 3, 9, 26, 1000])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_the_modulo_loop_and_rng_stream(self, num_samples,
                                                    bucket_size, seed):
        bucket_size = min(bucket_size, num_samples)
        ours, theirs = (np.random.default_rng(seed),
                        np.random.default_rng(seed))
        assignment = assign_buckets(num_samples, bucket_size, ours)
        assert assignment.buckets == _loop_assign_buckets(
            num_samples, bucket_size, theirs)
        assert ours.integers(0, 2 ** 31 - 1) == theirs.integers(0, 2 ** 31 - 1)

    def test_groups_are_contiguous_read_only_and_at_most_two_lengths(self):
        assignment = assign_buckets(809, 26, np.random.default_rng(4))
        assert len(assignment.groups) == 2
        lengths = [indices.shape[1] for _, indices in assignment.groups]
        assert lengths == sorted(lengths)
        for positions, indices in assignment.groups:
            assert indices.flags.c_contiguous
            assert indices.dtype == np.intp
            assert not indices.flags.writeable
            assert not positions.flags.writeable
        assert assignment.num_buckets == 31
        assert assignment.num_samples == 809

    def test_explicit_buckets_round_trip_in_any_order(self):
        buckets = ((4, 0), (1,), (2, 5, 3), (6, 7))
        assignment = BucketAssignment(buckets=buckets)
        assert assignment.buckets == buckets
        assert assignment.num_buckets == 4
        assert assignment.num_samples == 8
        assert assignment.bucket_of(3) == 2
        assert assignment.as_lists() == [list(bucket) for bucket in buckets]

    def test_equality_and_hash_follow_the_partition(self):
        assignment = assign_buckets(50, 7, np.random.default_rng(9))
        rebuilt = BucketAssignment(buckets=assignment.buckets)
        assert rebuilt == assignment
        assert hash(rebuilt) == hash(assignment)
        reordered = BucketAssignment(buckets=assignment.buckets[::-1])
        assert reordered != assignment
        assert assignment != assignment.buckets

    @pytest.mark.parametrize("buckets", [
        ((0, 1), (1, 2)),      # overlap: sample 1 twice, sample 3 missing
        ((0, 1), ()),          # empty bucket
        ((), ),                # only an empty bucket
        (),                    # no buckets at all
        ((0, 5),),             # index out of range
        ((-1, 0),),            # negative index
        ((0, 1), (1,)),        # duplicate across unequal lengths
    ])
    def test_non_partitions_raise(self, buckets):
        with pytest.raises(ValueError):
            BucketAssignment(buckets=buckets)

    def test_member_plan_round_trips_through_pickle_and_deepcopy(self):
        from repro.core.config import QuorumConfig
        from repro.core.ensemble import plan_member

        plan = plan_member(809, 16, QuorumConfig(), member_index=3,
                           member_seed=17)
        for clone in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
            assert clone.buckets == plan.buckets
            assert clone.buckets.buckets == plan.buckets.buckets
            for (positions, indices), (_, original) in zip(
                    clone.buckets.groups, plan.buckets.groups):
                assert indices.flags.c_contiguous
                assert not indices.flags.writeable
                assert np.array_equal(indices, original)
