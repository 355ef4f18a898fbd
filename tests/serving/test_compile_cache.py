"""Compile-cache regression suite for the engines and the scorer.

The compiled-program cache may only hold sample-independent content (member
encoder channels and per-level suffix observables).  Once those are warm,
scoring unseen rows -- alone or in a batch -- must compile nothing and must
not grow the cache, and a row's probability must not depend on the batch it
was scored in.  Encoder unitaries never enter the cache: each member holds
its own, so an analytic model of any size compiles nothing per request.
"""

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.detector import QuorumDetector
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import AnalyticEngine, DensityMatrixEngine
from repro.core.scoring import reference_deviations
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


class TestAnalyticScorerCache:
    """More members than the compiler LRU holds (256 entries) must not turn
    every request into a full recompile."""

    MEMBERS = 300

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        data = np.random.default_rng(21).normal(size=(30, 7))
        detector = QuorumDetector(ensemble_groups=self.MEMBERS, seed=8,
                                  shots=512)
        detector.fit(data)
        path = save_model(detector,
                          tmp_path_factory.mktemp("analytic") / "model.json")
        return data, detector, path

    def test_requests_compile_nothing(self, fitted):
        data, _, path = fitted
        compiler = CircuitCompiler()
        rng = np.random.default_rng(13)
        with OnlineScorer(load_model(path), compiler=compiler) as scorer:
            # Every member's encoder is held from construction on.
            assert all(member.ansatz._encoder_unitary is not None
                       for member in scorer._members)
            scorer.score(rng.normal(size=(4, 7)))
            warm = compiler.stats.compiles
            for batch in (1, 4, 1):
                scorer.score(rng.normal(size=(batch, 7)))
                assert compiler.stats.compiles == warm, (
                    f"a batch-{batch} request compiled programs")
            scorer.score(data, mode="replay")
            assert compiler.stats.compiles == warm

    def test_reference_and_replay_equal_the_fit(self, fitted):
        data, detector, path = fitted
        with OnlineScorer(load_model(path), compiler=CircuitCompiler()) as scorer:
            replay = scorer.score(data, mode="replay").scores
            reference = scorer.score(data[:5]).scores
        assert np.array_equal(replay, detector.anomaly_scores())
        # The reference scores recomputed from the fit's own plans and
        # bucket statistics, in the scorer's summation order.
        normalized = detector.normalizer.transform(data[:5])
        levels = detector.config.effective_compression_levels
        engine = AnalyticEngine(shots=None, compiler=CircuitCompiler())
        expected = np.zeros(5)
        for plan, result in zip(detector.member_plans(),
                                detector.member_results()):
            rng = np.random.default_rng()
            rng.bit_generator.state = plan.rng_state
            p1 = engine.p1_levels_batch(
                batch_amplitudes(normalized[:, plan.selected_features], 3),
                plan.ansatz, levels)
            p1 = rng.binomial(512, np.clip(p1, 0.0, 1.0)) / 512.0
            member_total = np.zeros(5)
            for position, level in enumerate(levels):
                statistics = result.bucket_statistics[level]
                member_total += reference_deviations(
                    p1[position], statistics.means, statistics.stds)
            expected += member_total
        assert np.array_equal(reference, expected)
