"""Compile-cache regression suite for the noisy engine and scorer.

The compiled-program cache may only hold sample-independent content (member
encoder channels and per-level suffix observables).  Once those are warm,
scoring unseen rows -- alone or in a batch -- must compile nothing and must
not grow the cache, and a row's probability must not depend on the batch it
was scored in.
"""

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.detector import QuorumDetector
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import DensityMatrixEngine
from repro.quantum.backends import FakeBrisbane
from repro.quantum.compiler import CircuitCompiler
from repro.serving.artifact import load_model, save_model
from repro.serving.scorer import OnlineScorer

LEVELS = (1, 2)


def _rows(count, seed):
    rng = np.random.default_rng(seed)
    return batch_amplitudes(rng.uniform(0.0, 1.0 / np.sqrt(7),
                                        size=(count, 7)), 3)


@pytest.fixture
def engine():
    return DensityMatrixEngine(
        shots=None, noise_model=FakeBrisbane(7).to_noise_model(),
        gate_level_encoding=True, compiler=CircuitCompiler())


class TestNoisyEngineCache:
    def test_unseen_rows_compile_nothing_at_any_batch_size(self, engine):
        ansatz = RandomAutoencoderAnsatz(3, seed=12)
        engine.p1_levels_batch(_rows(8, seed=0), ansatz, LEVELS)
        warm = engine.compiler.stats.compiles
        assert warm == 1 + len(LEVELS)  # the encoder + one per level
        for seed, batch in enumerate((1, 2, 8), start=1):
            engine.p1_levels_batch(_rows(batch, seed=seed), ansatz, LEVELS)
            assert engine.compiler.stats.compiles == warm, (
                f"unseen rows at batch {batch} compiled programs")

    def test_row_alone_equals_row_in_a_batch(self, engine):
        ansatz = RandomAutoencoderAnsatz(3, seed=13)
        rows = _rows(8, seed=4)
        batched = engine.p1_levels_batch(rows, ansatz, LEVELS)
        for index in range(rows.shape[0]):
            alone = engine.p1_levels_batch(rows[index:index + 1], ansatz,
                                           LEVELS)
            assert np.max(np.abs(alone[:, 0] - batched[:, index])) <= 1e-12


class TestNoisyScorerCache:
    @pytest.fixture
    def scorer(self, tmp_path):
        data = np.random.default_rng(3).normal(size=(24, 7))
        detector = QuorumDetector(ensemble_groups=3, seed=5, shots=256,
                                  backend="density_matrix", noisy=True)
        detector.fit(data)
        path = save_model(detector, tmp_path / "model.json")
        compiler = CircuitCompiler()
        with OnlineScorer(load_model(path), compiler=compiler) as scorer:
            yield scorer, compiler

    def test_unseen_requests_compile_nothing(self, scorer):
        scorer, compiler = scorer
        rng = np.random.default_rng(11)
        scorer.score(rng.normal(size=(8, 7)))
        warm = compiler.stats.compiles
        for batch in (1, 2, 8):
            scorer.score(rng.normal(size=(batch, 7)))
            assert compiler.stats.compiles == warm, (
                f"an unseen batch-{batch} request compiled programs")

    def test_cache_bytes_stay_flat_over_distinct_requests(self, scorer):
        scorer, compiler = scorer
        rng = np.random.default_rng(12)
        scorer.score(rng.normal(size=(1, 7)))
        warm_bytes = compiler.cache_bytes()
        warm_entries = compiler.cache_size()
        for _ in range(50):
            scorer.score(rng.normal(size=(1, 7)))
        assert compiler.cache_bytes() == warm_bytes
        assert compiler.cache_size() == warm_entries
