"""Regression suite for the fused noisy level sweep and checkpoint/replay.

The fused sweep (`DensityMatrixEngine.p1_levels_batch` with noise or
gate-level encoding) must be indistinguishable from two references:

* `p1_per_sample_circuit_level` -- one :class:`DensityMatrixSimulator` walk per
  sample per level (the ground truth, <= 1e-10);
* a per-level loop of one-level `p1_batch` calls -- including **bitwise**
  identity of the shot-noise RNG stream, so fixed-seed detector scores do not
  depend on how the levels are batched.

Both pins are exercised across noise models, ``gate_level_encoding``, and both
numpy simulation backends, plus direct coverage of the checkpoint/replay API on
:class:`BatchedDensityMatrixSimulator`.
"""

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.algorithms.autoencoder import (
    build_autoencoder_prefix,
    build_autoencoder_suffix,
)
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import DensityMatrixEngine
from repro.quantum.backends import FakeBrisbane
from repro.quantum.noise import NoiseModel, QuantumError, depolarizing_kraus
from repro.quantum.simulator import BatchedDensityMatrixSimulator


def make_batch(num_samples=6, num_qubits=2, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                         size=(num_samples, 2 ** num_qubits - 1))
    return batch_amplitudes(values, num_qubits)


def depolarizing_model():
    """A second noise-model flavour besides FakeBrisbane (gate errors only)."""
    return (
        NoiseModel()
        .add_all_single_qubit_error(QuantumError.from_kraus(
            depolarizing_kraus(0.01)))
        .add_all_two_qubit_error(QuantumError.from_kraus(
            depolarizing_kraus(0.03, 2)))
    )


NOISE_MODELS = {
    "brisbane": lambda total_qubits: FakeBrisbane(total_qubits).to_noise_model(),
    "depolarizing": lambda total_qubits: depolarizing_model(),
    "noiseless": lambda total_qubits: None,
}


class TestCheckpointedSweepAgainstReferences:
    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    @pytest.mark.parametrize("gate_level", [False, True])
    def test_matches_per_sample_reference(self, noise_name, gate_level):
        ansatz = RandomAutoencoderAnsatz(2, seed=41)
        batch = make_batch(seed=1)
        noise = NOISE_MODELS[noise_name](5)
        if noise is None and not gate_level:
            pytest.skip("noiseless initialize path never enters the circuit walk")
        engine = DensityMatrixEngine(shots=None, noise_model=noise,
                                     gate_level_encoding=gate_level)
        levels = [0, 1, 2]
        checkpointed = engine.p1_levels_batch(batch, ansatz, levels)
        reference = np.stack([
            engine.p1_per_sample_circuit_level(batch, ansatz, level)
            for level in levels
        ])
        assert checkpointed.shape == (3, batch.shape[0])
        assert np.allclose(checkpointed, reference, atol=1e-10)

    @pytest.mark.parametrize("backend_name", ["numpy", "numpy-float32"])
    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    def test_matches_per_level_loop(self, backend_name, noise_name):
        ansatz = RandomAutoencoderAnsatz(2, seed=42)
        batch = make_batch(seed=2)
        noise = NOISE_MODELS[noise_name](5)
        engine = DensityMatrixEngine(shots=None, noise_model=noise,
                                     gate_level_encoding=True,
                                     simulation_backend=backend_name)
        levels = [0, 1, 2]
        fused = engine.p1_levels_batch(batch, ansatz, levels)
        per_level = np.stack([
            engine.p1_batch(batch, ansatz, level)
            for level in levels
        ])
        # The kernels are row-independent, so sweeping the levels together
        # must not change any sample's arithmetic -- on either precision tier.
        assert np.allclose(fused, per_level, atol=1e-10)

    def test_shot_noise_rng_stream_is_bitwise_identical(self):
        """The fused sweep consumes the binomial stream in the exact level-major
        order the historical per-level loop used."""
        ansatz = RandomAutoencoderAnsatz(2, seed=43)
        batch = make_batch(seed=3)
        noise = FakeBrisbane(5).to_noise_model()
        levels = [0, 1, 2]
        fused = DensityMatrixEngine(
            shots=2048, noise_model=noise, gate_level_encoding=True,
            rng=np.random.default_rng(11),
        ).p1_levels_batch(batch, ansatz, levels)
        loop_engine = DensityMatrixEngine(shots=2048, noise_model=noise,
                                          gate_level_encoding=True,
                                          rng=np.random.default_rng(11))
        looped = np.stack([
            loop_engine.p1_batch(batch, ansatz, level)
            for level in levels
        ])
        assert np.array_equal(fused, looped)

    def test_mixed_validity_sweep_is_rejected_up_front(self):
        """Every level of a sweep is validated, not just the first one: a sweep
        mixing valid and invalid levels fails before any simulation runs."""
        ansatz = RandomAutoencoderAnsatz(2, seed=44)
        batch = make_batch(seed=4)
        engine = DensityMatrixEngine(shots=None,
                                     noise_model=FakeBrisbane(5).to_noise_model(),
                                     gate_level_encoding=True)
        with pytest.raises(ValueError, match="compression level"):
            engine.p1_levels_batch(batch, ansatz, [1, 7])
        with pytest.raises(ValueError, match="compression level"):
            engine.p1_levels_batch(batch, ansatz, [1, -1])
        # Malformed amplitudes are also rejected once for the whole sweep,
        # independent of which levels are requested.
        with pytest.raises(ValueError, match="normalized"):
            engine.p1_levels_batch(batch * 2.0, ansatz, [1, 2])


class TestCheckpointReplayApi:
    def make_walker_inputs(self, noise=True, num_samples=4):
        ansatz = RandomAutoencoderAnsatz(2, seed=51)
        batch = make_batch(num_samples=num_samples, seed=5)
        model = FakeBrisbane(5).to_noise_model() if noise else None
        walker = BatchedDensityMatrixSimulator(noise_model=model)
        prefixes = [build_autoencoder_prefix(row, ansatz,
                                             gate_level_encoding=True)
                    for row in batch]
        return ansatz, batch, walker, prefixes

    def test_checkpoint_plus_replay_equals_single_walk(self):
        ansatz, batch, walker, prefixes = self.make_walker_inputs()
        checkpoint = walker.evolve_batch(prefixes)
        suffix = build_autoencoder_suffix(ansatz, 1, measure=False)
        replayed = walker.replay_suffix_batch(checkpoint, suffix)

        from repro.algorithms.autoencoder import build_autoencoder_circuit

        full = walker.evolve_batch([
            build_autoencoder_circuit(row, ansatz, 1, gate_level_encoding=True,
                                      measure=False)
            for row in batch
        ])
        assert np.allclose(replayed, full, atol=1e-12)

    def test_replay_leaves_the_checkpoint_untouched(self):
        ansatz, _, walker, prefixes = self.make_walker_inputs()
        checkpoint = walker.evolve_batch(prefixes)
        snapshot = checkpoint.copy()
        for level in (0, 1, 2):
            walker.replay_suffix_batch(
                checkpoint, build_autoencoder_suffix(ansatz, level, measure=False)
            )
        assert np.array_equal(checkpoint, snapshot)

    def test_replay_rejects_initialize_instructions(self):
        ansatz, batch, walker, prefixes = self.make_walker_inputs(noise=False)
        checkpoint = walker.evolve_batch(prefixes)
        from repro.quantum.circuit import QuantumCircuit

        bad = QuantumCircuit(5, 1)
        bad.initialize(np.array([1.0, 0.0]), [0])
        with pytest.raises(ValueError, match="suffix circuit"):
            walker.replay_suffix_batch(checkpoint, bad)

    def test_initial_rhos_shape_is_validated(self):
        ansatz, _, walker, prefixes = self.make_walker_inputs(noise=False)
        checkpoint = walker.evolve_batch(prefixes)
        with pytest.raises(ValueError, match="initial_rhos"):
            walker.evolve_batch(prefixes, initial_rhos=checkpoint[:-1])

    def test_chunked_replay_matches_unchunked(self):
        ansatz, _, walker, prefixes = self.make_walker_inputs(num_samples=6)
        checkpoint = walker.evolve_batch(prefixes)
        suffix = build_autoencoder_suffix(ansatz, 2, measure=False)
        unchunked = walker.replay_suffix_batch(checkpoint, suffix)
        walker.MAX_FLAT_ELEMENTS = 2 ** 5  # forces one-circuit chunks
        chunked = walker.replay_suffix_batch(checkpoint, suffix)
        assert np.allclose(unchunked, chunked, atol=1e-12)

    def test_copy_density_batch_is_an_independent_snapshot(self):
        from repro.quantum.backend import get_simulation_backend

        backend = get_simulation_backend("numpy")
        rhos = backend.density_from_states(backend.zero_states(3, 2))
        snapshot = backend.copy_density_batch(rhos)
        snapshot[0, 0, 0] = -1.0
        assert rhos[0, 0, 0] == 1.0
        with pytest.raises(ValueError, match="density batch"):
            backend.copy_density_batch(np.zeros((2, 4)))
