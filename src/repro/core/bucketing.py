"""Bucketing (Section IV-C): random data subsets sized by anomaly probability.

The bucket size is the smallest ``b`` such that a uniformly random subset of ``b``
samples contains at least one anomaly with probability at least ``p`` (Table I's
right-most column).  With ``N`` samples of which ``A`` are anomalous, that
probability is hypergeometric:

``P(>=1 anomaly) = 1 - C(N - A, b) / C(N, b)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "probability_of_anomalous_bucket",
    "bucket_size_for_probability",
    "BucketAssignment",
    "assign_buckets",
]


def probability_of_anomalous_bucket(num_samples: int, num_anomalies: int,
                                    bucket_size: int) -> float:
    """Probability that a random bucket of ``bucket_size`` holds >= 1 anomaly."""
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if not 0 <= num_anomalies <= num_samples:
        raise ValueError("num_anomalies must be between 0 and num_samples")
    if not 1 <= bucket_size <= num_samples:
        raise ValueError("bucket_size must be between 1 and num_samples")
    if num_anomalies == 0:
        return 0.0
    normals = num_samples - num_anomalies
    if bucket_size > normals:
        return 1.0
    log_miss = (_log_comb(normals, bucket_size)
                - _log_comb(num_samples, bucket_size))
    return 1.0 - math.exp(log_miss)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def bucket_size_for_probability(num_samples: int, anomaly_fraction: float,
                                target_probability: float) -> int:
    """Smallest bucket size reaching the target anomaly-containment probability.

    Parameters
    ----------
    num_samples:
        Dataset size ``N``.
    anomaly_fraction:
        Estimated fraction of anomalous samples (the detector never sees labels,
        so this is a user-supplied prior).
    target_probability:
        Desired probability of at least one anomaly per bucket (``p`` in Table I).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if not 0.0 < anomaly_fraction < 1.0:
        raise ValueError("anomaly_fraction must be in (0, 1)")
    if not 0.0 < target_probability < 1.0:
        raise ValueError("target_probability must be in (0, 1)")
    estimated_anomalies = max(1, int(round(anomaly_fraction * num_samples)))
    for bucket_size in range(2, num_samples + 1):
        probability = probability_of_anomalous_bucket(
            num_samples, estimated_anomalies, bucket_size
        )
        if probability >= target_probability:
            return bucket_size
    return num_samples


BucketGroup = Tuple[np.ndarray, np.ndarray]


class BucketAssignment:
    """A partition of sample indices ``0..num_samples-1`` into buckets.

    The partition is stored as index matrices grouped by bucket length:
    ``groups`` holds one ``(positions, indices)`` pair per distinct length
    ``L``, in increasing ``L``.  ``indices`` is a read-only C-contiguous
    ``(k, L)`` ``intp`` matrix whose row ``r`` lists the samples of bucket
    ``positions[r]`` in bucket order; ``positions`` ascends.  Random
    assignments have at most two lengths, so scoring gathers and reduces a
    member's buckets in one or two array operations (see
    :mod:`repro.core.scoring`).

    ``BucketAssignment(buckets)`` builds the matrices from explicit buckets
    (any sequence of integer sequences, as artifacts and tests hold them); the
    ``buckets`` property derives the tuple form back on request.  Either way
    the buckets must be non-empty and cover ``range(num_samples)`` exactly
    once, otherwise :class:`ValueError` is raised.
    """

    __slots__ = ("groups", "num_buckets", "num_samples")

    def __init__(self, buckets: Sequence[Sequence[int]]):
        by_length: Dict[int, List[int]] = {}
        for position, bucket in enumerate(buckets):
            by_length.setdefault(len(bucket), []).append(position)
        self._set_groups(tuple(
            (np.array(positions, dtype=np.intp),
             np.array([buckets[position] for position in positions],
                      dtype=np.intp).reshape(len(positions), length))
            for length, positions in sorted(by_length.items())
        ))

    @classmethod
    def _from_groups(cls, groups: Sequence[BucketGroup]) -> "BucketAssignment":
        assignment = cls.__new__(cls)
        assignment._set_groups(groups)
        return assignment

    def _set_groups(self, groups: Sequence[BucketGroup]) -> None:
        groups = tuple(
            (np.ascontiguousarray(positions, dtype=np.intp),
             np.ascontiguousarray(indices, dtype=np.intp))
            for positions, indices in groups
        )
        if not groups:
            raise ValueError("a bucket assignment needs at least one bucket")
        for positions, indices in groups:
            if indices.shape[1] == 0:
                raise ValueError("buckets must be non-empty")
            positions.setflags(write=False)
            indices.setflags(write=False)
        num_buckets = sum(positions.shape[0] for positions, _ in groups)
        num_samples = sum(indices.size for _, indices in groups)
        flat_positions = np.concatenate([positions for positions, _ in groups])
        flat_samples = np.concatenate([indices.ravel() for _, indices in groups])
        if not (np.array_equal(np.sort(flat_positions), np.arange(num_buckets))
                and np.array_equal(np.sort(flat_samples),
                                   np.arange(num_samples))):
            raise ValueError(
                f"buckets must cover range({num_samples}) exactly once"
            )
        self.groups: Tuple[BucketGroup, ...] = tuple(
            sorted(groups, key=lambda group: group[1].shape[1]))
        self.num_buckets = int(num_buckets)
        self.num_samples = int(num_samples)

    @property
    def buckets(self) -> Tuple[Tuple[int, ...], ...]:
        """The buckets as tuples of sample indices, in bucket order."""
        ordered: List[Tuple[int, ...]] = [()] * self.num_buckets
        for positions, indices in self.groups:
            for position, row in zip(positions.tolist(), indices.tolist()):
                ordered[position] = tuple(row)
        return tuple(ordered)

    def bucket_of(self, sample_index: int) -> int:
        """Bucket index containing ``sample_index`` (raises if missing)."""
        for positions, indices in self.groups:
            rows = np.flatnonzero((indices == sample_index).any(axis=1))
            if rows.size:
                return int(positions[rows[0]])
        raise KeyError(f"sample {sample_index} is not assigned to any bucket")

    def as_lists(self) -> List[List[int]]:
        """Buckets as plain lists (handy for numpy indexing)."""
        return [list(bucket) for bucket in self.buckets]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BucketAssignment):
            return NotImplemented
        return (len(self.groups) == len(other.groups)
                and all(np.array_equal(mine[0], theirs[0])
                        and np.array_equal(mine[1], theirs[1])
                        for mine, theirs in zip(self.groups, other.groups)))

    def __hash__(self) -> int:
        return hash(tuple((positions.tobytes(), indices.shape, indices.tobytes())
                          for positions, indices in self.groups))

    def __reduce__(self):
        return (BucketAssignment._from_groups, (self.groups,))

    def __repr__(self) -> str:
        return (f"BucketAssignment(num_buckets={self.num_buckets}, "
                f"num_samples={self.num_samples})")


def assign_buckets(num_samples: int, bucket_size: int,
                   rng: Optional[np.random.Generator] = None) -> BucketAssignment:
    """Randomly partition ``num_samples`` indices into buckets of ~``bucket_size``.

    Every sample lands in exactly one bucket.  When the sample count is not a
    multiple of the bucket size, the remainder is spread over the existing buckets
    (so no bucket ends up pathologically small, which would break the z-score
    statistics).  Bucket ``j`` is ``order[j::num_buckets]`` of one random
    permutation ``order``, so the first ``num_samples % num_buckets`` buckets
    hold one sample more than the rest.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if not 1 <= bucket_size <= num_samples:
        raise ValueError("bucket_size must be between 1 and num_samples")
    rng = rng or np.random.default_rng()
    order = rng.permutation(num_samples)
    num_buckets = max(1, num_samples // bucket_size)
    rows, longer = divmod(num_samples, num_buckets)
    columns = order[:rows * num_buckets].reshape(rows, num_buckets).T
    groups = [(np.arange(longer, num_buckets), columns[longer:])]
    if longer:
        groups.append((np.arange(longer),
                       np.column_stack([columns[:longer],
                                        order[rows * num_buckets:]])))
    return BucketAssignment._from_groups(groups)
