"""Statistical scoring of SWAP-test outputs (Section IV-E, Fig. 7).

For each run (ensemble member x compression level) and each bucket, the mean and
standard deviation of the SWAP-test P(1) values inside the bucket are computed;
a sample's contribution is the absolute z-score of its own P(1) against its
bucket's statistics.  Contributions are summed over every run and bucket, giving
the "sum absolute std. deviation" score plotted in Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.bucketing import BucketAssignment

__all__ = [
    "BucketStatistics",
    "bucket_deviations",
    "bucket_statistics",
    "reference_deviations",
    "AnomalyScores",
]

_MIN_STD = 1e-12


@dataclass(frozen=True, eq=False)
class BucketStatistics:
    """Frozen per-bucket moments with the degenerate-bucket mask hoisted.

    ``live`` marks buckets whose standard deviation is resolvable
    (``stds >= 1e-12``); degenerate buckets contribute zero deviation.  The
    mask is computed once here instead of being re-derived from ``stds`` by
    every scoring call -- fit-time deviations, frozen serving references, and
    replay all share the same mask by construction.

    Unpacks and indexes like the legacy ``(means, stds)`` tuple
    (``means, stds = statistics``), so persisted-artifact readers and older
    call sites keep working unchanged.
    """

    means: np.ndarray
    stds: np.ndarray
    live: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float).ravel()
        stds = np.asarray(self.stds, dtype=float).ravel()
        if means.shape != stds.shape:
            raise ValueError("means and stds must have the same length")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        object.__setattr__(self, "live", stds >= _MIN_STD)

    @property
    def num_buckets(self) -> int:
        return int(self.means.shape[0])

    # Tuple compatibility: behave as the 2-tuple ``(means, stds)``.
    def __iter__(self):
        return iter((self.means, self.stds))

    def __getitem__(self, index):
        return (self.means, self.stds)[index]

    def __len__(self) -> int:
        return 2


def bucket_statistics(p1_values: np.ndarray, buckets: BucketAssignment
                      ) -> BucketStatistics:
    """Per-bucket :class:`BucketStatistics` (means, stds, live mask).

    These are the *reference statistics* a serving artifact freezes at fit
    time: a previously unseen sample is later scored against them with
    :func:`reference_deviations` instead of recomputing in-batch statistics.
    """
    p1_values = np.asarray(p1_values, dtype=float).ravel()
    if buckets.num_samples != p1_values.shape[0]:
        raise ValueError(
            f"bucket assignment covers {buckets.num_samples} samples but "
            f"{p1_values.shape[0]} P(1) values were provided"
        )
    means = np.empty(buckets.num_buckets)
    stds = np.empty(buckets.num_buckets)
    for positions, indices in buckets.groups:
        # The gathered block is C-contiguous, so each row reduces with the
        # same pairwise summation as a 1-D ``values.mean()`` of that bucket.
        values = p1_values[indices]
        means[positions] = values.mean(axis=1)
        stds[positions] = values.std(axis=1)
    return BucketStatistics(means=means, stds=stds)


def bucket_deviations(p1_values: np.ndarray, buckets: BucketAssignment,
                      statistics: Optional[BucketStatistics] = None
                      ) -> np.ndarray:
    """Absolute per-sample z-scores of ``p1_values`` within their buckets.

    Buckets whose standard deviation vanishes (e.g. all-identical outputs)
    contribute zero for every member, since no sample deviates from the rest;
    the degenerate set comes from the statistics' precomputed ``live`` mask.
    ``statistics`` accepts the output of :func:`bucket_statistics` (or a
    legacy ``(means, stds)`` tuple) for the same ``(p1_values, buckets)``
    pair so callers that need both (the ensemble executor records reference
    statistics for serving) do not compute the bucket moments twice.
    """
    p1_values = np.asarray(p1_values, dtype=float).ravel()
    if buckets.num_samples != p1_values.shape[0]:
        raise ValueError(
            f"bucket assignment covers {buckets.num_samples} samples but "
            f"{p1_values.shape[0]} P(1) values were provided"
        )
    if statistics is None:
        statistics = bucket_statistics(p1_values, buckets)
    elif not isinstance(statistics, BucketStatistics):
        means, stds = statistics
        statistics = BucketStatistics(means=means, stds=stds)
    means, stds, live = statistics.means, statistics.stds, statistics.live
    deviations = np.zeros_like(p1_values)
    for positions, indices in buckets.groups:
        scored = live[positions]
        positions, indices = positions[scored], indices[scored]
        deviations[indices] = (np.abs(p1_values[indices] - means[positions, None])
                               / stds[positions, None])
    return deviations


def reference_deviations(p1_values: np.ndarray, means: np.ndarray,
                         stds: np.ndarray,
                         live: Optional[np.ndarray] = None) -> np.ndarray:
    """Deviations of (possibly unseen) samples against frozen bucket statistics.

    At fit time a sample belongs to exactly one random bucket and contributes
    its absolute z-score within it.  A sample scored *online* has no bucket, so
    its deviation is the expectation of that rule under a uniformly random
    bucket assignment: the mean over buckets of ``|p1 - mean_b| / std_b``, with
    degenerate buckets (vanishing std) contributing zero exactly as they do in
    :func:`bucket_deviations`.  ``live`` accepts the precomputed mask from a
    :class:`BucketStatistics` so hot serving paths skip re-deriving it.
    """
    p1_values = np.asarray(p1_values, dtype=float).ravel()
    means = np.asarray(means, dtype=float).ravel()
    stds = np.asarray(stds, dtype=float).ravel()
    if means.shape != stds.shape:
        raise ValueError("means and stds must have the same length")
    if means.size == 0:
        raise ValueError("reference statistics cannot be empty")
    if live is None:
        live = stds >= _MIN_STD
    else:
        live = np.asarray(live, dtype=bool).ravel()
        if live.shape != stds.shape:
            raise ValueError("live mask must match the statistics length")
    if not np.any(live):
        return np.zeros_like(p1_values)
    scores = np.abs(p1_values[:, None] - means[None, live]) / stds[None, live]
    return scores.sum(axis=1) / float(means.size)


@dataclass
class AnomalyScores:
    """Accumulated anomaly scores for a dataset.

    Attributes
    ----------
    scores:
        Per-sample summed absolute deviations (higher = more anomalous).
    num_runs:
        Number of (ensemble member x compression level) runs accumulated, useful
        for averaging across differently sized sweeps.
    metadata:
        Extra diagnostics recorded by the detector.
    """

    scores: np.ndarray
    num_runs: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=float).ravel()
        if self.scores.size == 0:
            raise ValueError("scores cannot be empty")
        if self.num_runs < 0:
            raise ValueError("num_runs cannot be negative")

    @property
    def num_samples(self) -> int:
        """Number of scored samples."""
        return int(self.scores.shape[0])

    def mean_scores(self) -> np.ndarray:
        """Scores averaged over runs (shape-preserving when ``num_runs`` is 0)."""
        if self.num_runs == 0:
            return self.scores.copy()
        return self.scores / self.num_runs

    def ranking(self) -> np.ndarray:
        """Sample indices sorted from most to least anomalous."""
        return np.argsort(self.scores)[::-1]

    def top_k(self, k: int) -> np.ndarray:
        """Indices of the ``k`` highest-scoring samples."""
        if not 0 <= k <= self.num_samples:
            raise ValueError("k out of range")
        return self.ranking()[:k]

    def predictions(self, num_flagged: Optional[int] = None,
                    contamination: Optional[float] = None) -> np.ndarray:
        """Binary anomaly flags for the ``num_flagged`` top-scoring samples.

        Exactly one of ``num_flagged`` / ``contamination`` must be given;
        ``contamination`` is a fraction of the dataset.
        """
        if (num_flagged is None) == (contamination is None):
            raise ValueError("provide exactly one of num_flagged or contamination")
        if contamination is not None:
            if not 0.0 <= contamination <= 1.0:
                raise ValueError("contamination must be in [0, 1]")
            num_flagged = int(round(contamination * self.num_samples))
        flags = np.zeros(self.num_samples, dtype=int)
        flags[self.top_k(int(num_flagged))] = 1
        return flags

    def threshold_at_percentile(self, percentile: float) -> float:
        """Score value at the given percentile (e.g. 90 for the top 10%)."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        return float(np.percentile(self.scores, percentile))

    def merged_with(self, other: "AnomalyScores") -> "AnomalyScores":
        """Combine two accumulations (e.g. from parallel workers)."""
        if other.num_samples != self.num_samples:
            raise ValueError("cannot merge scores over different sample counts")
        return AnomalyScores(
            scores=self.scores + other.scores,
            num_runs=self.num_runs + other.num_runs,
            metadata={**self.metadata, **other.metadata},
        )
