"""Tests for the SWAP-test execution engines (and their cross-validation)."""

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import (
    AnalyticEngine,
    DensityMatrixEngine,
    StatevectorEngine,
    apply_shot_noise,
    make_engine,
)
from repro.quantum.backends import FakeBrisbane


def make_batch(num_samples=8, num_qubits=3, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                         size=(num_samples, 2 ** num_qubits - 1))
    return batch_amplitudes(values, num_qubits)


class TestAnalyticEngine:
    def test_exact_probabilities_in_range(self):
        engine = AnalyticEngine(shots=None)
        ansatz = RandomAutoencoderAnsatz(3, seed=1)
        p1 = engine.p1_batch(make_batch(), ansatz, 1)
        assert p1.shape == (8,)
        assert np.all(p1 >= 0.0)
        assert np.all(p1 <= 0.5 + 1e-12)

    def test_zero_compression_gives_zero(self):
        engine = AnalyticEngine(shots=None)
        ansatz = RandomAutoencoderAnsatz(3, seed=2)
        assert np.allclose(engine.p1_batch(make_batch(), ansatz, 0), 0.0)

    def test_shot_noise_changes_values_but_not_scale(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=3)
        batch = make_batch()
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 2)
        noisy = AnalyticEngine(shots=256,
                               rng=np.random.default_rng(0)).p1_batch(batch, ansatz, 2)
        assert not np.allclose(exact, noisy)
        assert np.max(np.abs(exact - noisy)) < 0.15

    def test_shot_noise_shrinks_with_more_shots(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=4)
        batch = make_batch(num_samples=40)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        few = AnalyticEngine(shots=64, rng=np.random.default_rng(1)).p1_batch(
            batch, ansatz, 1)
        many = AnalyticEngine(shots=8192, rng=np.random.default_rng(1)).p1_batch(
            batch, ansatz, 1)
        assert np.mean(np.abs(many - exact)) < np.mean(np.abs(few - exact))

    def test_rejects_bad_shapes(self):
        engine = AnalyticEngine(shots=None)
        ansatz = RandomAutoencoderAnsatz(3, seed=6)
        with pytest.raises(ValueError):
            engine.p1_batch(np.ones(8), ansatz, 1)
        with pytest.raises(ValueError):
            engine.p1_batch(np.ones((4, 4)), ansatz, 1)
        with pytest.raises(ValueError):
            engine.p1_batch(make_batch(), ansatz, 5)

    def test_invalid_shots_raise(self):
        with pytest.raises(ValueError):
            AnalyticEngine(shots=0)


ENGINE_FACTORIES = {
    "analytic": lambda shots, rng: AnalyticEngine(shots=shots, rng=rng),
    "density_matrix": lambda shots, rng: DensityMatrixEngine(
        shots=shots, rng=rng),
    "density_matrix_gate_level": lambda shots, rng: DensityMatrixEngine(
        shots=shots, rng=rng, gate_level_encoding=True),
    "density_matrix_noisy": lambda shots, rng: DensityMatrixEngine(
        shots=shots, rng=rng, noise_model=FakeBrisbane(5).to_noise_model(),
        gate_level_encoding=True),
}


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
class TestSharedLevelsPath:
    """Analytic and density-matrix engines share one validate -> exact sweep
    -> shot-noise path; these pin that path for every configuration."""

    def test_p1_batch_is_the_one_level_case(self, engine_name):
        factory = ENGINE_FACTORIES[engine_name]
        ansatz = RandomAutoencoderAnsatz(2, seed=7)
        batch = make_batch(num_samples=5, num_qubits=2, seed=7)
        single = factory(512, np.random.default_rng(3)).p1_batch(
            batch, ansatz, 1)
        levels = factory(512, np.random.default_rng(3)).p1_levels_batch(
            batch, ansatz, (1,))
        assert levels.shape == (1, 5)
        assert np.array_equal(single, levels[0])

    def test_shot_noise_is_drawn_over_the_exact_sweep(self, engine_name):
        factory = ENGINE_FACTORIES[engine_name]
        ansatz = RandomAutoencoderAnsatz(2, seed=8)
        batch = make_batch(num_samples=6, num_qubits=2, seed=8)
        exact = factory(None, None).p1_levels_batch(batch, ansatz, (0, 1, 2))
        sampled = factory(256, np.random.default_rng(4)).p1_levels_batch(
            batch, ansatz, (0, 1, 2))
        expected = apply_shot_noise(exact, 256, np.random.default_rng(4))
        assert np.array_equal(sampled, expected)

    def test_single_row_matches_its_batch_row(self, engine_name):
        engine = ENGINE_FACTORIES[engine_name](None, None)
        ansatz = RandomAutoencoderAnsatz(2, seed=9)
        batch = make_batch(num_samples=4, num_qubits=2, seed=9)
        whole = engine.p1_levels_batch(batch, ansatz, (1, 2))
        for row in range(batch.shape[0]):
            alone = engine.p1_levels_batch(batch[row:row + 1], ansatz, (1, 2))
            assert np.max(np.abs(alone[:, 0] - whole[:, row])) <= 1e-12


class TestEngineCrossValidation:
    def test_analytic_matches_density_matrix(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=7)
        batch = make_batch(num_samples=4, seed=2)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        circuit_level = DensityMatrixEngine(shots=None).p1_batch(batch, ansatz, 1)
        assert np.allclose(exact, circuit_level, atol=1e-9)

    def test_analytic_matches_density_matrix_full_compression(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=8)
        batch = make_batch(num_samples=3, num_qubits=2, seed=3)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 2)
        circuit_level = DensityMatrixEngine(shots=None).p1_batch(batch, ansatz, 2)
        assert np.allclose(exact, circuit_level, atol=1e-9)

    def test_statevector_engine_agrees_statistically(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=9)
        batch = make_batch(num_samples=2, num_qubits=2, seed=4)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        sampled = StatevectorEngine(shots=3000, rng=np.random.default_rng(5),
                                    max_trajectories=150).p1_batch(batch, ansatz, 1)
        assert np.max(np.abs(exact - sampled)) < 0.06

    def test_noisy_engine_stays_close_to_ideal(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=10)
        batch = make_batch(num_samples=3, seed=5)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        noisy = DensityMatrixEngine(
            shots=None, noise_model=FakeBrisbane(7).to_noise_model(),
            gate_level_encoding=True,
        ).p1_batch(batch, ansatz, 1)
        assert np.max(np.abs(exact - noisy)) < 0.12


class TestMakeEngine:
    def test_analytic(self):
        assert isinstance(make_engine("analytic", 1024), AnalyticEngine)

    def test_density_matrix_with_noise(self):
        engine = make_engine("density_matrix", 1024, noisy=True)
        assert isinstance(engine, DensityMatrixEngine)
        assert engine.noise_model is not None
        assert engine.gate_level_encoding

    def test_statevector(self):
        assert isinstance(make_engine("statevector", 512), StatevectorEngine)

    def test_statevector_requires_shots(self):
        with pytest.raises(ValueError):
            StatevectorEngine(shots=None)

    def test_analytic_cannot_be_noisy(self):
        with pytest.raises(ValueError):
            make_engine("analytic", 1024, noisy=True)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            make_engine("tensor_network", 1024)
