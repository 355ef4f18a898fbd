"""Differential and invariant suite for the factorized noisy sweep.

With gate-local noise the Quorum prefix leaves the ``2n+1``-qubit register in
``|0><0|_anc (x) rho_B (x) rho_A``, so `DensityMatrixEngine` simulates two
``n``-qubit registers instead of the full register.  Pinned here:

* the sweep against the per-sample :class:`DensityMatrixSimulator` oracle
  (<= 1e-12) for n in {2, 3, 4}, every compression level, rows whose zero
  features elide state-preparation rotations, random Kraus noise models on
  ``all_1q``/``all_2q`` and named gates, and both encoding routes;
* ``rho_A`` and ``rho_B`` are density matrices (trace 1, Hermitian, PSD);
* the circuit-free preparation kernel against the interpreted walk of
  :func:`state_preparation_circuit` (<= 1e-14);
* routing: a noise model that is not gate-local takes the reference walk;
* fused (member-batched) and serial sweeps are bitwise identical.
"""

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import DensityMatrixEngine
from repro.encoding.amplitude import state_preparation_circuit
from repro.quantum.backend import get_simulation_backend
from repro.quantum.backends import FakeBrisbane
from repro.quantum.compiler import CircuitCompiler
from repro.quantum.noise import (
    NoiseModel,
    QuantumError,
    amplitude_damping_kraus,
    depolarizing_kraus,
    phase_damping_kraus,
)
from repro.quantum.simulator import (
    BatchedDensityMatrixSimulator,
    DensityMatrixSimulator,
)

ORACLE_TOLERANCE = 1e-12
PREPARATION_TOLERANCE = 1e-14


def _rows(num_qubits, num_samples, seed):
    """Amplitude rows; rows 0 and 1 carry zero features (RY elision)."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                           size=(num_samples, 2 ** num_qubits - 1))
    features[0] = 0.0
    if num_samples > 1:
        features[1, ::2] = 0.0
    return batch_amplitudes(features, num_qubits)


def _one_qubit_kraus(rng):
    kind = rng.integers(3)
    strength = rng.uniform(0.02, 0.2)
    if kind == 0:
        return depolarizing_kraus(strength, 1)
    if kind == 1:
        return amplitude_damping_kraus(strength)
    return phase_damping_kraus(strength)


def _two_qubit_kraus(rng):
    if rng.random() < 0.5:
        return depolarizing_kraus(rng.uniform(0.02, 0.2), 2)
    first, second = _one_qubit_kraus(rng), _one_qubit_kraus(rng)
    return [np.kron(a, b) for a in first for b in second]


def random_noise_model(variant, seed):
    """A random Kraus noise model of one registration style."""
    rng = np.random.default_rng(seed)
    model = NoiseModel()
    if variant == "defaults":
        model.add_all_single_qubit_error(
            QuantumError.from_kraus(_one_qubit_kraus(rng)))
        model.add_all_two_qubit_error(
            QuantumError.from_kraus(_two_qubit_kraus(rng)))
    elif variant == "named":
        model.add_all_single_qubit_error(
            QuantumError.from_kraus(_one_qubit_kraus(rng)))
        model.add_gate_error("ry", QuantumError.from_kraus(
            _one_qubit_kraus(rng)))
        model.add_gate_error("cx", QuantumError.from_kraus(
            _two_qubit_kraus(rng)))
        model.add_gate_error("cswap", QuantumError.from_kraus(
            depolarizing_kraus(rng.uniform(0.02, 0.2), 3)))
    elif variant == "sub_block":
        # A one-qubit channel after every cx acts on the control only.
        model.add_all_single_qubit_error(
            QuantumError.from_kraus(_one_qubit_kraus(rng)))
        model.add_gate_error("cx", QuantumError.from_kraus(
            _one_qubit_kraus(rng)))
    else:
        raise ValueError(variant)
    return model


NOISE_VARIANTS = ("defaults", "named", "sub_block")


def _oracle(engine, amplitudes, ansatz, levels):
    return np.stack([
        engine.p1_per_sample_circuit_level(amplitudes, ansatz, level)
        for level in levels
    ])


class TestAgainstPerSampleOracle:
    @pytest.mark.parametrize("num_qubits", [2, 3])
    @pytest.mark.parametrize("variant", NOISE_VARIANTS)
    @pytest.mark.parametrize("gate_level", [True, False])
    def test_random_noise_models(self, num_qubits, variant, gate_level):
        seed = 10 * num_qubits + NOISE_VARIANTS.index(variant)
        ansatz = RandomAutoencoderAnsatz(num_qubits, seed=seed)
        amplitudes = _rows(num_qubits, 4, seed)
        engine = DensityMatrixEngine(
            shots=None, noise_model=random_noise_model(variant, seed),
            gate_level_encoding=gate_level, compiler=CircuitCompiler())
        assert engine.factorizes
        levels = list(range(num_qubits + 1))
        fast = engine.p1_levels_batch(amplitudes, ansatz, levels)
        reference = _oracle(engine, amplitudes, ansatz, levels)
        assert np.max(np.abs(fast - reference)) <= ORACLE_TOLERANCE

    def test_four_qubit_registers(self):
        """n = 4 (9-qubit circuits) under Brisbane noise, every level."""
        ansatz = RandomAutoencoderAnsatz(4, seed=4)
        amplitudes = _rows(4, 2, seed=4)[1:]
        engine = DensityMatrixEngine(
            shots=None, noise_model=FakeBrisbane(9).to_noise_model(),
            gate_level_encoding=True, compiler=CircuitCompiler())
        levels = list(range(5))
        fast = engine.p1_levels_batch(amplitudes, ansatz, levels)
        reference = _oracle(engine, amplitudes, ansatz, levels)
        assert np.max(np.abs(fast - reference)) <= ORACLE_TOLERANCE

    def test_noiseless_gate_level_encoding(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=8)
        amplitudes = _rows(3, 4, seed=8)
        engine = DensityMatrixEngine(shots=None, gate_level_encoding=True,
                                     compiler=CircuitCompiler())
        levels = [0, 1, 2, 3]
        fast = engine.p1_levels_batch(amplitudes, ansatz, levels)
        reference = _oracle(engine, amplitudes, ansatz, levels)
        assert np.max(np.abs(fast - reference)) <= ORACLE_TOLERANCE


def _registers(amplitudes, noise_model):
    """The factorized prefix state's two registers, via the public kernels."""
    num_qubits = int(np.log2(amplitudes.shape[1]))
    backend = get_simulation_backend()
    compiler = CircuitCompiler()
    walker = BatchedDensityMatrixSimulator(noise_model=noise_model,
                                           compiler=compiler)
    rhos_b = walker.prepare_batch(amplitudes)
    ansatz = RandomAutoencoderAnsatz(num_qubits, seed=num_qubits)
    encoder = compiler.channel_program(
        ansatz.encoder_circuit(list(range(num_qubits))), noise_model, backend)
    rhos_a = backend.apply_compiled_superoperator_batch(rhos_b, encoder)
    return rhos_b, rhos_a


class TestInvariants:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    @pytest.mark.parametrize("variant", NOISE_VARIANTS)
    def test_registers_are_density_matrices(self, num_qubits, variant):
        amplitudes = _rows(num_qubits, 6, seed=num_qubits)
        noise = random_noise_model(variant, seed=num_qubits)
        for rhos in _registers(amplitudes, noise):
            traces = np.einsum("bii->b", rhos)
            assert np.allclose(traces, 1.0, rtol=0.0, atol=1e-12)
            assert np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1))) \
                <= 1e-12
            assert np.min(np.linalg.eigvalsh(rhos)) >= -1e-12

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", NOISE_VARIANTS + ("none",))
    def test_prep_kernel_matches_interpreted_walk(self, num_qubits, variant):
        amplitudes = _rows(num_qubits, 5, seed=20 + num_qubits) \
            if num_qubits > 1 else np.array([[1.0, 0.0], [0.6, 0.8]])
        noise = (None if variant == "none"
                 else random_noise_model(variant, seed=num_qubits))
        kernel = BatchedDensityMatrixSimulator(
            noise_model=noise, compiler=CircuitCompiler()
        ).prepare_batch(amplitudes)
        simulator = DensityMatrixSimulator(noise_model=noise)
        walked = np.stack([
            simulator.evolve(state_preparation_circuit(row, num_qubits)).data
            for row in amplitudes
        ])
        assert np.max(np.abs(kernel - walked)) <= PREPARATION_TOLERANCE

    def test_prep_kernel_noiseless_is_the_pure_state(self):
        amplitudes = _rows(3, 4, seed=2)
        rhos = BatchedDensityMatrixSimulator(
            compiler=CircuitCompiler()).prepare_batch(amplitudes)
        pure = np.einsum("bi,bj->bij", amplitudes, amplitudes)
        assert np.max(np.abs(rhos - pure)) <= 1e-14

    def test_prep_rows_do_not_depend_on_their_batch(self):
        """A row prepared alone is bitwise the row prepared in a batch."""
        amplitudes = _rows(3, 8, seed=5)
        walker = BatchedDensityMatrixSimulator(
            noise_model=FakeBrisbane(7).to_noise_model(),
            compiler=CircuitCompiler())
        batch = walker.prepare_batch(amplitudes)
        for index, row in enumerate(amplitudes):
            assert np.array_equal(walker.prepare_batch(row[None])[0],
                                  batch[index])


class _RegisterANoise(NoiseModel):
    """Errors only on gates that touch register A: not gate-local."""

    def __init__(self, register_size):
        super().__init__()
        self.register_size = register_size

    def error_for_instruction(self, instruction):
        if min(instruction.qubits, default=0) >= self.register_size:
            return None
        return super().error_for_instruction(instruction)


@pytest.fixture
def refuse_factorized(monkeypatch):
    """Make any use of the factorized preparation kernel fail the test."""
    def refuse(self, amplitudes):
        raise AssertionError("the run reached the factorized sweep")

    monkeypatch.setattr(BatchedDensityMatrixSimulator, "prepare_batch",
                        refuse)


class TestRouting:
    def test_gate_local_models(self):
        assert NoiseModel().is_gate_local
        assert FakeBrisbane(7).to_noise_model().is_gate_local
        assert random_noise_model("named", seed=1).is_gate_local
        assert not _RegisterANoise(2).is_gate_local

    def test_non_local_noise_takes_the_reference_walk(self,
                                                      refuse_factorized):
        noise = _RegisterANoise(2)
        noise.add_all_single_qubit_error(
            QuantumError.from_kraus(amplitude_damping_kraus(0.2)))
        noise.add_all_two_qubit_error(
            QuantumError.from_kraus(depolarizing_kraus(0.1, 2)))
        ansatz = RandomAutoencoderAnsatz(2, seed=3)
        amplitudes = _rows(2, 4, seed=3)
        engine = DensityMatrixEngine(shots=None, noise_model=noise,
                                     gate_level_encoding=True,
                                     compiler=CircuitCompiler())
        assert not engine.factorizes
        levels = [0, 1, 2]
        routed = engine.p1_levels_batch(amplitudes, ansatz, levels)
        fused = engine.p1_levels_member_batch(
            np.stack([amplitudes, amplitudes]), [ansatz, ansatz], levels)
        reference = _oracle(engine, amplitudes, ansatz, levels)
        assert np.max(np.abs(routed - reference)) <= ORACLE_TOLERANCE
        assert np.array_equal(fused[0], routed)


class TestFusedMatchesSerial:
    @pytest.mark.parametrize("gate_level", [True, False])
    def test_member_batch_is_bitwise_serial(self, gate_level):
        """Elided rows included: every member runs the serial kernels."""
        ansatzes = [RandomAutoencoderAnsatz(3, seed=seed)
                    for seed in (1, 2, 3)]
        stack = np.stack([_rows(3, 5, seed=seed) for seed in (1, 2, 3)])
        engine = DensityMatrixEngine(
            shots=None, noise_model=FakeBrisbane(7).to_noise_model(),
            gate_level_encoding=gate_level, compiler=CircuitCompiler())
        fused = engine.p1_levels_member_batch(stack, ansatzes, [1, 2])
        for member, ansatz in enumerate(ansatzes):
            serial = engine.p1_levels_batch(stack[member], ansatz, [1, 2])
            assert np.array_equal(fused[member], serial)

    def test_member_chunks_are_bitwise_serial(self, monkeypatch):
        """A group larger than one chunk splits without changing a bit."""
        ansatzes = [RandomAutoencoderAnsatz(3, seed=seed)
                    for seed in (4, 5, 6)]
        stack = np.stack([_rows(3, 5, seed=seed) for seed in (4, 5, 6)])
        engine = DensityMatrixEngine(
            shots=None, noise_model=FakeBrisbane(7).to_noise_model(),
            gate_level_encoding=True, compiler=CircuitCompiler())
        whole = engine.p1_levels_member_batch(stack, ansatzes, [1, 2])
        monkeypatch.setattr(BatchedDensityMatrixSimulator,
                            "MAX_FLAT_ELEMENTS", 2 * 5 * 64)
        chunked = engine.p1_levels_member_batch(stack, ansatzes, [1, 2])
        assert np.array_equal(chunked, whole)
