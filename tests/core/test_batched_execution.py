"""Cross-validation of the batched engine paths against the per-sample paths.

The batched kernels must reproduce the seed implementations exactly (to float
round-off) on small registers: the batched density-matrix fast path against both
the analytic engine and the per-sample full-circuit simulation, and the batched
statevector trajectories against per-sample trajectory simulation (statistical,
plus exact agreement where the circuit is deterministic).
"""

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.algorithms.autoencoder import build_autoencoder_circuit
from repro.algorithms.swap_test import p1_from_counts
from repro.core.config import QuorumConfig
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import (
    AnalyticEngine,
    DensityMatrixEngine,
    StatevectorEngine,
    make_engine,
)
from repro.quantum.backend import NumpyBackend
from repro.quantum.simulator import StatevectorSimulator


def make_batch(num_samples=8, num_qubits=3, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                         size=(num_samples, 2 ** num_qubits - 1))
    return batch_amplitudes(values, num_qubits)


class TestBatchedDensityMatrixEngine:
    @pytest.mark.parametrize("num_qubits,level", [(2, 1), (2, 2), (3, 1),
                                                  (3, 2), (3, 3)])
    def test_matches_analytic_engine(self, num_qubits, level):
        ansatz = RandomAutoencoderAnsatz(num_qubits, seed=21)
        batch = make_batch(num_samples=6, num_qubits=num_qubits, seed=1)
        analytic = AnalyticEngine(shots=None).p1_batch(batch, ansatz, level)
        batched = DensityMatrixEngine(shots=None).p1_batch(batch, ansatz, level)
        assert np.allclose(analytic, batched, atol=1e-10)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_matches_per_sample_circuit_path(self, level):
        """Batched register-A evolution == full 2n+1-qubit circuit, per sample."""
        ansatz = RandomAutoencoderAnsatz(3, seed=22)
        batch = make_batch(num_samples=5, seed=2)
        engine = DensityMatrixEngine(shots=None)
        batched = engine.p1_batch(batch, ansatz, level)
        circuit_level = engine.p1_per_sample_circuit_level(batch, ansatz,
                                                           level)
        assert np.allclose(batched, circuit_level, atol=1e-10)

    def test_noisy_runs_use_the_circuit_path(self):
        from repro.quantum.backends import FakeBrisbane

        ansatz = RandomAutoencoderAnsatz(2, seed=23)
        batch = make_batch(num_samples=2, num_qubits=2, seed=3)
        noisy = DensityMatrixEngine(
            shots=None, noise_model=FakeBrisbane(5).to_noise_model(),
            gate_level_encoding=True,
        ).p1_batch(batch, ansatz, 1)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        # Noise must actually perturb the outcome (i.e. the noisy path ran).
        assert not np.allclose(noisy, exact, atol=1e-12)
        assert np.max(np.abs(noisy - exact)) < 0.15

    def test_shot_noise_still_applied(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=24)
        batch = make_batch(num_samples=10, seed=4)
        exact = DensityMatrixEngine(shots=None).p1_batch(batch, ansatz, 1)
        sampled = DensityMatrixEngine(
            shots=128, rng=np.random.default_rng(0)
        ).p1_batch(batch, ansatz, 1)
        assert not np.allclose(exact, sampled)
        assert np.all(sampled * 128 == np.round(sampled * 128))


class TestBatchedStatevectorEngine:
    def test_deterministic_when_circuit_has_no_reset(self):
        """Level 0 has no stochastic operation: batched == per-sample exactly."""
        ansatz = RandomAutoencoderAnsatz(3, seed=25)
        batch = make_batch(num_samples=4, seed=5)
        engine = StatevectorEngine(shots=512, rng=np.random.default_rng(0))
        batched = engine.p1_batch(batch, ansatz, 0)
        simulator = StatevectorSimulator(seed=0)
        for index, row in enumerate(batch):
            circuit = build_autoencoder_circuit(row, ansatz, 0, measure=True)
            outcome = simulator.run(circuit, shots=512)
            per_sample = p1_from_counts(outcome.counts, clbit=0)
            assert batched[index] == pytest.approx(per_sample, abs=1e-10)

    def test_trajectory_mean_matches_analytic_expectation(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=26)
        batch = make_batch(num_samples=3, num_qubits=2, seed=6)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        sampled = StatevectorEngine(
            shots=20000, rng=np.random.default_rng(7), max_trajectories=400
        ).p1_batch(batch, ansatz, 1)
        assert np.max(np.abs(sampled - exact)) < 0.03

    def test_matches_per_sample_trajectory_distribution(self):
        """Batched and per-sample trajectory sampling estimate the same P(1)."""
        ansatz = RandomAutoencoderAnsatz(2, seed=27)
        batch = make_batch(num_samples=2, num_qubits=2, seed=8)
        batched = StatevectorEngine(
            shots=6000, rng=np.random.default_rng(9), max_trajectories=300
        ).p1_batch(batch, ansatz, 1)
        simulator = StatevectorSimulator(seed=10, max_trajectories=300)
        for index, row in enumerate(batch):
            circuit = build_autoencoder_circuit(row, ansatz, 1, measure=True)
            outcome = simulator.run(circuit, shots=6000)
            per_sample = p1_from_counts(outcome.counts, clbit=0)
            assert batched[index] == pytest.approx(per_sample, abs=0.05)

    def test_reproducible_with_seeded_rng(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=28)
        batch = make_batch(num_samples=4, seed=11)
        first = StatevectorEngine(
            shots=256, rng=np.random.default_rng(3)).p1_batch(batch, ansatz, 2)
        second = StatevectorEngine(
            shots=256, rng=np.random.default_rng(3)).p1_batch(batch, ansatz, 2)
        assert np.array_equal(first, second)

    def test_chunked_execution_matches_expectation(self):
        """Tiny MAX_FLAT_BATCH forces per-sample chunks; statistics unchanged."""
        ansatz = RandomAutoencoderAnsatz(3, seed=40)
        batch = make_batch(num_samples=5, seed=14)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        engine = StatevectorEngine(shots=8000, rng=np.random.default_rng(15),
                                   max_trajectories=200)
        engine.MAX_FLAT_BATCH = 64  # chunk size becomes 1 sample
        sampled = engine.p1_batch(batch, ansatz, 1)
        assert np.max(np.abs(sampled - exact)) < 0.05

    def test_results_are_valid_shot_fractions(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=29)
        batch = make_batch(num_samples=6, seed=12)
        shots = 200
        p1 = StatevectorEngine(
            shots=shots, rng=np.random.default_rng(4)).p1_batch(batch, ansatz, 1)
        assert np.all(p1 >= 0.0) and np.all(p1 <= 1.0)
        assert np.all(p1 * shots == np.round(p1 * shots))


class TestNormalizationGuard:
    @pytest.mark.parametrize("engine_factory", [
        lambda: AnalyticEngine(shots=None),
        lambda: DensityMatrixEngine(shots=None),
        lambda: StatevectorEngine(shots=64),
    ])
    def test_unnormalized_amplitudes_rejected(self, engine_factory):
        """The batched paths fail as loudly as circuit `initialize` used to."""
        ansatz = RandomAutoencoderAnsatz(3, seed=41)
        batch = make_batch(num_samples=3, seed=16) * 2.0
        with pytest.raises(ValueError, match="normalized"):
            engine_factory().p1_batch(batch, ansatz, 1)


class TestAnsatzUnitaryCache:
    def test_encoder_unitary_is_cached_and_read_only(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=30)
        first = ansatz.encoder_unitary()
        assert ansatz.encoder_unitary() is first
        with pytest.raises(ValueError):
            first[0, 0] = 0.0

    def test_cache_matches_circuit_unitary(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=31)
        cached = ansatz.encoder_unitary()
        rebuilt = ansatz.encoder_circuit(list(range(3))).to_unitary()
        assert np.allclose(cached, rebuilt, atol=1e-10)

    def test_fresh_angles_get_a_fresh_cache(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=32)
        other = ansatz.with_new_angles(seed=33)
        assert not np.allclose(ansatz.encoder_unitary(), other.encoder_unitary())


class TestBackendSelectionThreading:
    def test_engines_accept_backend_name_and_instance(self):
        backend = NumpyBackend()
        for name in ("analytic", "density_matrix", "statevector"):
            by_name = make_engine(name, 128, simulation_backend="numpy")
            assert by_name.backend.name == "numpy"
            by_instance = make_engine(name, 128, simulation_backend=backend)
            assert by_instance.backend is backend

    def test_unknown_simulation_backend_raises(self):
        with pytest.raises(ValueError):
            make_engine("analytic", 128, simulation_backend="gpu")

    def test_config_validates_simulation_backend(self):
        config = QuorumConfig(simulation_backend="numpy")
        assert config.describe()["simulation_backend"] == "numpy"
        with pytest.raises(ValueError):
            QuorumConfig(simulation_backend="cupy")

    def test_detector_runs_with_explicit_simulation_backend(self):
        from repro.core.detector import QuorumDetector

        rng = np.random.default_rng(13)
        data = rng.uniform(0.0, 1.0, size=(24, 6))
        detector = QuorumDetector(ensemble_groups=2, shots=None, seed=5,
                                  simulation_backend="numpy")
        scores = detector.fit(data).anomaly_scores()
        assert scores.shape == (24,)
