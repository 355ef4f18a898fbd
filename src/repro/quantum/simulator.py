"""Shot-based circuit execution engines.

Two engines are provided, both consuming the same :class:`QuantumCircuit` IR:

* :class:`StatevectorSimulator` -- pure-state evolution.  Circuits containing
  mid-circuit ``reset`` or ``measure`` are run as stochastic trajectories (one per
  shot, or a configurable smaller number of trajectories with shots distributed
  over them), exactly like a hardware run would randomize those operations.
* :class:`DensityMatrixSimulator` -- exact mixed-state evolution; reset and noise
  channels are applied deterministically and measurement statistics are sampled
  from the final diagonal.  This is the reference engine for Quorum because the
  autoencoder's partial reset produces genuinely mixed states.

Both simulators accept a ``backend=`` argument (a name such as ``"numpy"`` or a
:class:`~repro.quantum.backend.SimulationBackend` instance) and route every gate
application through that backend's batched einsum kernels -- a single circuit is
simply a batch of size one.  The batched SWAP-test engines in
:mod:`repro.core.execution` share the very same kernels, so a new backend
implementation accelerates both the per-circuit and the batched paths.  See
:mod:`repro.quantum.backend` for the batching contract (leading batch axis,
``complex128`` dtype, little-endian indices).

:class:`BatchedDensityMatrixSimulator` walks whole batches of structurally
identical circuits.  Its :meth:`~BatchedDensityMatrixSimulator.prepare_batch`
kernel is the noisy engine's hot path: the gate-level state preparation of
every sample, run from a vectorized angle schedule on ``n``-qubit density
batches with no circuit objects, which is what the factorized sweep of
:class:`repro.core.execution.DensityMatrixEngine` needs for ``rho_B``.  Its
full-register walks (:meth:`~BatchedDensityMatrixSimulator.evolve_batch`) are
the reference path for noise models that are not gate-local, and
:class:`DensityMatrixSimulator` is the per-sample oracle the factorized sweep
is tested against (<= 1e-12; the preparation kernel against the walk of
:func:`~repro.encoding.amplitude.state_preparation_circuit`, <= 1e-14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.quantum.backend import SimulationBackend, get_simulation_backend
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.compiler import CircuitCompiler, default_compiler
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import NoiseModel, ReadoutError
from repro.quantum.statevector import Statevector

__all__ = [
    "ExecutionResult",
    "StatevectorSimulator",
    "DensityMatrixSimulator",
    "BatchedDensityMatrixSimulator",
    "IncompatibleMemberBatch",
]


class IncompatibleMemberBatch(ValueError):
    """A member group cannot walk as one stacked batch.

    Raised by :meth:`BatchedDensityMatrixSimulator.evolve_member_batch` when
    the group's circuits diverge structurally (e.g. a near-zero amplitude
    elides one sample's encoding rotation) or when a gate column is shared
    within some members but per-sample in others.  Callers fall back to
    per-member :meth:`~BatchedDensityMatrixSimulator.evolve_batch` walks,
    which handle arbitrary divergence and produce identical results.
    """


@dataclass
class ExecutionResult:
    """Outcome of running one circuit.

    Attributes
    ----------
    counts:
        Histogram of classical-register bitstrings (little-endian: clbit 0 is the
        rightmost character).  Only populated when the circuit measures something.
    shots:
        Number of shots requested.
    statevector:
        Final pure state, when the engine tracked one and the circuit had no
        stochastic operations.
    density_matrix:
        Final mixed state, when produced by the density-matrix engine.
    metadata:
        Engine-specific extras (e.g. number of trajectories).
    """

    counts: Dict[str, int]
    shots: int
    statevector: Optional[Statevector] = None
    density_matrix: Optional[DensityMatrix] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def probability(self, bitstring: str) -> float:
        """Empirical probability of a classical outcome."""
        if self.shots == 0:
            return 0.0
        return self.counts.get(bitstring, 0) / self.shots

    def marginal_probability(self, clbit: int, value: int) -> float:
        """Empirical probability that ``clbit`` reads ``value``."""
        if self.shots == 0:
            return 0.0
        total = 0
        for bitstring, count in self.counts.items():
            bit = int(bitstring[len(bitstring) - 1 - clbit])
            if bit == value:
                total += count
        return total / self.shots


def _apply_readout_error_to_bit(bit: int, readout: Optional[ReadoutError],
                                rng: np.random.Generator) -> int:
    if readout is None:
        return bit
    return readout.apply_to_bit(bit, rng)


class StatevectorSimulator:
    """Pure-state, trajectory-based circuit simulator."""

    def __init__(self, seed: Optional[int] = None,
                 max_trajectories: Optional[int] = None,
                 backend: Union[str, SimulationBackend, None] = None) -> None:
        self._rng = np.random.default_rng(seed)
        self.max_trajectories = max_trajectories
        self.backend = get_simulation_backend(backend)

    def _apply_gate(self, state: Statevector, gate: np.ndarray,
                    qubits: Sequence[int]) -> Statevector:
        """Apply one gate through the backend kernel (a batch of size one)."""
        data = self.backend.apply_gate_batch(state.data[None, :], gate, qubits)
        return Statevector(data[0])

    def run(self, circuit: QuantumCircuit, shots: int = 1024,
            seed: Optional[int] = None) -> ExecutionResult:
        """Execute ``circuit`` and return sampled counts.

        Noise models are not supported by this engine; use
        :class:`DensityMatrixSimulator` for noisy runs.
        """
        if shots < 0:
            raise ValueError("shots must be non-negative")
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        stochastic = any(
            instr.name in {"reset", "measure"} for instr in circuit.instructions[:-1]
        ) or any(instr.name == "reset" for instr in circuit.instructions)
        has_measure = any(instr.name == "measure" for instr in circuit.instructions)

        if not stochastic:
            state = self._evolve_deterministic(circuit)
            counts: Dict[str, int] = {}
            if has_measure and shots > 0:
                counts = self._sample_terminal_measurements(circuit, state, shots, rng)
            return ExecutionResult(counts=counts, shots=shots, statevector=state,
                                   metadata={"method": "statevector"})

        trajectories = shots
        if self.max_trajectories is not None:
            trajectories = min(trajectories, self.max_trajectories)
        trajectories = max(trajectories, 1)
        shots_per_trajectory = self._split_shots(shots, trajectories)
        counts = {}
        last_state: Optional[Statevector] = None
        for trajectory_shots in shots_per_trajectory:
            state, classical = self._evolve_trajectory(circuit, rng)
            last_state = state
            if not has_measure or trajectory_shots == 0:
                continue
            trajectory_counts = self._sample_terminal_measurements(
                circuit, state, trajectory_shots, rng, classical
            )
            for bitstring, count in trajectory_counts.items():
                counts[bitstring] = counts.get(bitstring, 0) + count
        return ExecutionResult(
            counts=counts,
            shots=shots,
            statevector=last_state,
            metadata={"method": "statevector_trajectories",
                      "trajectories": len(shots_per_trajectory)},
        )

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _split_shots(shots: int, trajectories: int) -> List[int]:
        base = shots // trajectories
        remainder = shots % trajectories
        split = [base + (1 if index < remainder else 0) for index in range(trajectories)]
        return [s for s in split if s > 0] or [0]

    def _evolve_deterministic(self, circuit: QuantumCircuit) -> Statevector:
        state = Statevector.zero_state(circuit.num_qubits)
        for instruction in circuit.instructions:
            if instruction.name in {"barrier", "measure"}:
                continue
            if instruction.name == "initialize":
                state = self._apply_initialize(state, instruction, circuit.num_qubits)
                continue
            state = self._apply_gate(state, instruction.matrix_or_standard(),
                                     instruction.qubits)
        return state

    def _evolve_trajectory(self, circuit: QuantumCircuit,
                           rng: np.random.Generator) -> Tuple[Statevector, Dict[int, int]]:
        state = Statevector.zero_state(circuit.num_qubits)
        classical: Dict[int, int] = {}
        terminal_measures = self._terminal_measurement_indices(circuit)
        for index, instruction in enumerate(circuit.instructions):
            if instruction.name == "barrier":
                continue
            if instruction.name == "initialize":
                state = self._apply_initialize(state, instruction, circuit.num_qubits)
                continue
            if instruction.name == "reset":
                state, _ = self._project_qubit(state, instruction.qubits[0], rng,
                                               collapse_to_zero=True)
                continue
            if instruction.name == "measure":
                if index in terminal_measures:
                    # Terminal measurements are sampled afterwards (all shots of the
                    # trajectory draw from the same final distribution).
                    continue
                state, outcome = self._project_qubit(state, instruction.qubits[0], rng)
                classical[instruction.clbits[0]] = outcome
                continue
            state = self._apply_gate(state, instruction.matrix_or_standard(),
                                     instruction.qubits)
        return state, classical

    @staticmethod
    def _terminal_measurement_indices(circuit: QuantumCircuit) -> set:
        """Indices of measurements not followed by any gate/reset on their qubit."""
        terminal: set = set()
        for index, instruction in enumerate(circuit.instructions):
            if instruction.name != "measure":
                continue
            qubit = instruction.qubits[0]
            followed = False
            for later in circuit.instructions[index + 1:]:
                if later.name == "barrier":
                    continue
                if qubit in later.qubits and later.name != "measure":
                    followed = True
                    break
            if not followed:
                terminal.add(index)
        return terminal

    @staticmethod
    def _apply_initialize(state: Statevector, instruction: Instruction,
                          num_qubits: int) -> Statevector:
        target_state = instruction.state
        if target_state is None:
            raise ValueError("initialize instruction is missing its statevector")
        if len(instruction.qubits) == num_qubits and tuple(instruction.qubits) == tuple(
                range(num_qubits)):
            return Statevector(target_state.copy())
        # Tensor the prepared register into the existing state.  The target qubits
        # must currently be in |0...0> (which is how amplitude encoding uses it).
        mask = 0
        for qubit in instruction.qubits:
            mask |= 1 << qubit
        data = state.data
        occupied = sum(abs(data[index]) ** 2
                       for index in range(data.shape[0]) if index & mask)
        if occupied > 1e-9:
            raise ValueError(
                "initialize requires its target qubits to be in |0>; "
                "reset them first or initialize before other operations"
            )
        spreads = []
        for local_index in range(target_state.shape[0]):
            spread = 0
            for position, qubit in enumerate(instruction.qubits):
                if (local_index >> position) & 1:
                    spread |= 1 << qubit
            spreads.append(spread)
        full = np.zeros_like(data)
        for index in range(data.shape[0]):
            if index & mask or data[index] == 0:
                continue
            for local_index, amplitude in enumerate(target_state):
                if amplitude == 0:
                    continue
                full[index | spreads[local_index]] += data[index] * amplitude
        return Statevector(full)

    @staticmethod
    def _project_qubit(state: Statevector, qubit: int, rng: np.random.Generator,
                       collapse_to_zero: bool = False) -> Tuple[Statevector, int]:
        """Measure ``qubit``; optionally flip the post-measurement state to |0>."""
        probabilities = state.probabilities([qubit])
        outcome = int(rng.random() < probabilities[1])
        tensor = state.tensor().copy()
        axis = state.num_qubits - 1 - qubit
        index = [slice(None)] * state.num_qubits
        index[axis] = 1 - outcome
        tensor[tuple(index)] = 0.0
        collapsed = tensor.reshape(-1)
        norm = np.linalg.norm(collapsed)
        if norm < 1e-15:
            raise RuntimeError("measurement collapsed onto a zero-norm state")
        collapsed = collapsed / norm
        new_state = Statevector(collapsed)
        if collapse_to_zero and outcome == 1:
            from repro.quantum.gates import X  # local import to avoid cycles at load

            new_state = new_state.evolve_gate(X, [qubit])
        return new_state, outcome

    def _sample_terminal_measurements(self, circuit: QuantumCircuit,
                                      state: Statevector, shots: int,
                                      rng: np.random.Generator,
                                      classical: Optional[Dict[int, int]] = None
                                      ) -> Dict[str, int]:
        classical = dict(classical or {})
        measure_map: Dict[int, int] = {}
        for index in self._terminal_measurement_indices(circuit):
            instruction = circuit.instructions[index]
            measure_map[instruction.clbits[0]] = instruction.qubits[0]
        if not measure_map and not classical:
            return {}
        qubits = sorted(set(measure_map.values()))
        counts: Dict[str, int] = {}
        if qubits:
            qubit_counts = state.sample_counts(shots, rng, qubits)
        else:
            qubit_counts = {"": shots}
        for qubit_bitstring, count in qubit_counts.items():
            bits = dict(classical)
            for clbit, qubit in measure_map.items():
                position = qubits.index(qubit)
                bits[clbit] = int(qubit_bitstring[len(qubit_bitstring) - 1 - position])
            register = ["0"] * circuit.num_clbits
            for clbit, value in bits.items():
                register[circuit.num_clbits - 1 - clbit] = str(value)
            key = "".join(register)
            counts[key] = counts.get(key, 0) + count
        return counts


class DensityMatrixSimulator:
    """Exact mixed-state simulator with optional noise model."""

    def __init__(self, noise_model: Optional[NoiseModel] = None,
                 seed: Optional[int] = None,
                 backend: Union[str, SimulationBackend, None] = None) -> None:
        self.noise_model = noise_model
        self._rng = np.random.default_rng(seed)
        self.backend = get_simulation_backend(backend)

    def _apply_gate(self, state: DensityMatrix, gate: np.ndarray,
                    qubits: Sequence[int]) -> DensityMatrix:
        """Conjugate by one gate through the backend kernel (batch of size one)."""
        data = self.backend.apply_gate_density_batch(state.data[None, :, :],
                                                     gate, qubits)
        return DensityMatrix(data[0])

    def run(self, circuit: QuantumCircuit, shots: int = 1024,
            seed: Optional[int] = None) -> ExecutionResult:
        """Execute ``circuit`` exactly and sample ``shots`` classical outcomes."""
        if shots < 0:
            raise ValueError("shots must be non-negative")
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        state = self.evolve(circuit)
        measure_map: Dict[int, int] = {}
        for instruction in circuit.instructions:
            if instruction.name == "measure":
                measure_map[instruction.clbits[0]] = instruction.qubits[0]
        counts: Dict[str, int] = {}
        if measure_map and shots > 0:
            counts = self._sample(circuit, state, measure_map, shots, rng)
        return ExecutionResult(counts=counts, shots=shots, density_matrix=state,
                               metadata={"method": "density_matrix",
                                         "noisy": self.noise_model is not None
                                         and not self.noise_model.is_trivial})

    def evolve(self, circuit: QuantumCircuit) -> DensityMatrix:
        """Evolve the circuit and return the final density matrix (no sampling)."""
        state = DensityMatrix.zero_state(circuit.num_qubits)
        for instruction in circuit.instructions:
            state = self._apply_instruction(state, instruction, circuit.num_qubits)
        return state

    # ------------------------------------------------------------------ helpers
    def _apply_instruction(self, state: DensityMatrix, instruction: Instruction,
                           num_qubits: int) -> DensityMatrix:
        if instruction.name in {"barrier", "measure"}:
            return state
        if instruction.name == "initialize":
            return self._apply_initialize_density(state, instruction, num_qubits)
        if instruction.name == "reset":
            return state.reset_qubit(instruction.qubits[0])
        state = self._apply_gate(state, instruction.matrix_or_standard(),
                                 instruction.qubits)
        if self.noise_model is not None:
            error = self.noise_model.error_for_instruction(instruction)
            if error is not None:
                state = state.apply_superoperator(
                    error.superoperator, instruction.qubits[: error.num_qubits]
                )
        return state

    @staticmethod
    def _apply_initialize_density(state: DensityMatrix, instruction: Instruction,
                                  num_qubits: int) -> DensityMatrix:
        target_state = instruction.state
        if target_state is None:
            raise ValueError("initialize instruction is missing its statevector")
        mask = 0
        for qubit in instruction.qubits:
            mask |= 1 << qubit
        rho = state.data
        dim = rho.shape[0]
        occupied = sum(abs(rho[index, index]) for index in range(dim) if index & mask)
        if occupied > 1e-9:
            raise ValueError(
                "initialize requires its target qubits to be in |0>; "
                "reset them first or initialize before other operations"
            )
        spreads = []
        for local_index in range(target_state.shape[0]):
            spread = 0
            for position, qubit in enumerate(instruction.qubits):
                if (local_index >> position) & 1:
                    spread |= 1 << qubit
            spreads.append(spread)
        new_rho = np.zeros_like(rho)
        nonzero_rows = [index for index in range(dim)
                        if not index & mask]
        for row in nonzero_rows:
            for col in nonzero_rows:
                value = rho[row, col]
                if value == 0:
                    continue
                for local_row, amp_row in enumerate(target_state):
                    if amp_row == 0:
                        continue
                    for local_col, amp_col in enumerate(target_state):
                        if amp_col == 0:
                            continue
                        new_rho[row | spreads[local_row], col | spreads[local_col]] += (
                            value * amp_row * np.conj(amp_col)
                        )
        return DensityMatrix(new_rho)

    def _sample(self, circuit: QuantumCircuit, state: DensityMatrix,
                measure_map: Dict[int, int], shots: int,
                rng: np.random.Generator) -> Dict[str, int]:
        qubits = sorted(set(measure_map.values()))
        probabilities = state.probabilities(qubits)
        readout = self.noise_model.readout_error if self.noise_model else None
        outcomes = rng.multinomial(shots, probabilities / probabilities.sum())
        counts: Dict[str, int] = {}
        for index, count in enumerate(outcomes):
            if count == 0:
                continue
            base_bits = [(index >> position) & 1 for position in range(len(qubits))]
            if readout is None:
                register = ["0"] * circuit.num_clbits
                for clbit, qubit in measure_map.items():
                    position = qubits.index(qubit)
                    register[circuit.num_clbits - 1 - clbit] = str(base_bits[position])
                key = "".join(register)
                counts[key] = counts.get(key, 0) + int(count)
                continue
            for _ in range(count):
                register = ["0"] * circuit.num_clbits
                for clbit, qubit in measure_map.items():
                    position = qubits.index(qubit)
                    bit = base_bits[position]
                    bit = _apply_readout_error_to_bit(bit, readout, rng)
                    register[circuit.num_clbits - 1 - clbit] = str(bit)
                key = "".join(register)
                counts[key] = counts.get(key, 0) + 1
        return counts


class BatchedDensityMatrixSimulator:
    """Exact mixed-state evolution of a whole batch of circuits at once.

    Quorum's noisy runs execute the *same* circuit for every sample -- only the
    amplitude-encoding differs (the ``initialize`` payload, or the angles of the
    gate-level state preparation).  This walker exploits that: circuits are
    grouped by structural signature (instruction names and qubits), and each
    group is evolved through one batched instruction walk on the simulation
    backend, applying noise channels to the whole batch per gate.  Gates whose
    matrices differ across the batch (per-sample state-preparation rotations)
    go through the per-sample-gate kernel; shared gates (ansatz, SWAP test) use
    the single-gate kernel.  Results are exactly those of running
    :class:`DensityMatrixSimulator` once per circuit.

    State preparation
    -----------------
    :meth:`prepare_batch` is the circuit-free kernel behind the noisy engine's
    factorized sweep: it runs the gate-level preparation of every amplitude
    row on an ``n``-qubit density batch straight from
    :func:`~repro.encoding.amplitude.state_preparation_schedule`, one fused
    gate-and-noise superoperator per column.  The factorized sweep simulates
    registers A and B of the Quorum circuit separately (valid for gate-local
    noise), so the full-register walks below are off the engine's default
    path: they serve noise models that are not gate-local and the tests.

    Checkpoint/replay
    -----------------
    A compression-level sweep runs the *same* prefix (encoding + encoder) before
    a per-level suffix (reset block + decoder + SWAP test).  Rather than
    re-walking the shared prefix once per level, evolve the prefix circuits once
    with :meth:`evolve_batch` and keep the returned ``(batch, d, d)`` density
    batch as a checkpoint; :meth:`replay_suffix_batch` then resumes from a
    snapshot of that checkpoint once per level, walking only the (shared,
    sample-independent) suffix circuit.  ``evolve_batch`` also *accepts* a
    density batch via ``initial_rhos``, so arbitrary per-sample continuations
    can resume from a checkpoint as well.  Noise channels stay fused
    gate-by-gate into single superoperator passes on both sides of the split.

    Compiled execution
    ------------------
    With ``compile_programs=True`` (the default) the walker does not interpret
    the shared portions of a circuit gate by gate: contiguous runs of
    sample-independent instructions (shared gates, their noise channels,
    resets) are lowered once through a :class:`~repro.quantum.compiler
    .CircuitCompiler` into a handful of fused dense operators and applied via
    :meth:`SimulationBackend.apply_compiled_superoperator_batch`.  Only the
    genuinely per-sample columns (``initialize`` payloads, state-preparation
    rotations with per-sample angles) still walk individually.  Compiled runs
    live in the compiler's LRU cache keyed by (circuit signature, noise
    fingerprint, backend dtype).  Sharing is decided by comparing matrices
    across the batch, so a one-sample batch compiles its sample's rotations
    too; this is one reason the engine no longer walks prefixes here.
    ``compile_programs=False`` selects the gate-by-gate interpreter, the
    reference path the engine falls back to.
    """

    #: Upper bound on density-matrix elements (``batch * 4**num_qubits``) walked
    #: at once.  Density batches are quadratic in the register dimension, so an
    #: unbounded batch falls out of cache and the contractions become
    #: memory-bound; ~8 MB of complex128 per chunk is flat-optimal on the
    #: 7-qubit Quorum circuits while still amortizing the per-gate overhead.
    MAX_FLAT_ELEMENTS = 1 << 19

    def __init__(self, noise_model: Optional[NoiseModel] = None,
                 backend: Union[str, SimulationBackend, None] = None,
                 compiler: Optional[CircuitCompiler] = None,
                 compile_programs: bool = True) -> None:
        self.noise_model = noise_model
        self.backend = get_simulation_backend(backend)
        self.compiler = compiler if compiler is not None else default_compiler()
        self.compile_programs = bool(compile_programs)

    def evolve_batch(self, circuits: Sequence[QuantumCircuit],
                     initial_rhos: Optional[np.ndarray] = None) -> np.ndarray:
        """Final density matrices of every circuit; shape ``(batch, d, d)``.

        Circuits may differ structurally (e.g. a near-zero state-preparation
        angle elides one rotation); each structural group is walked separately
        and the results are scattered back into input order.

        ``initial_rhos`` resumes the walk from one density matrix per circuit
        (a checkpoint produced by an earlier ``evolve_batch`` call) instead of
        |0...0><0...0|.  The checkpoint is never mutated: every group walks a
        backend-owned snapshot of its rows.
        """
        if not circuits:
            raise ValueError("evolve_batch needs at least one circuit")
        num_qubits = circuits[0].num_qubits
        if any(circuit.num_qubits != num_qubits for circuit in circuits):
            raise ValueError("all circuits in a batch must have the same width")
        dim = 2 ** num_qubits
        if initial_rhos is not None:
            initial_rhos = np.asarray(initial_rhos)
            if initial_rhos.shape != (len(circuits), dim, dim):
                raise ValueError(
                    "initial_rhos must hold one (d, d) density matrix per "
                    f"circuit; expected {(len(circuits), dim, dim)}, got "
                    f"{initial_rhos.shape}"
                )
        groups: Dict[Tuple, List[int]] = {}
        for index, circuit in enumerate(circuits):
            signature = tuple(
                (instruction.name, instruction.qubits)
                for instruction in circuit.instructions
            )
            groups.setdefault(signature, []).append(index)
        results = np.empty((len(circuits), dim, dim), dtype=self.backend.dtype)
        chunk = max(1, self.MAX_FLAT_ELEMENTS // (dim * dim))
        for indices in groups.values():
            for start in range(0, len(indices), chunk):
                selected = indices[start:start + chunk]
                initial = (initial_rhos[selected]
                           if initial_rhos is not None else None)
                results[selected] = self._evolve_group(
                    [circuits[i] for i in selected], initial
                )
        return results

    def evolve_member_batch(self, member_circuits: Sequence[Sequence[QuantumCircuit]]
                            ) -> np.ndarray:
        """Walk a whole signature group of per-member sample batches at once.

        ``member_circuits[m]`` holds ensemble member ``m``'s per-sample
        circuits (all members carry the same sample count and the same
        instruction structure -- same gates on the same qubits, parameters
        free to differ).  The walk mirrors :meth:`evolve_batch`'s compiled
        walk with the member axis batched through:

        * gate columns *shared within every member* (ansatz gates, resets,
          their noise channels) accumulate into runs that compile to ONE
          member-stacked channel program per run
          (:meth:`~repro.quantum.compiler.CircuitCompiler
          .member_stacked_channel_program`) and apply via
          :meth:`~repro.quantum.backend.SimulationBackend
          .apply_compiled_superoperator_member_batch`;
        * genuinely per-sample columns (``initialize`` payloads, per-sample
          state-preparation rotations) flatten across members into one
          ``(members * samples)`` batch per column.

        Every member's slice runs the exact kernel sequence of a per-member
        :meth:`evolve_batch` call, so results are bitwise identical to the
        serial walk.  Returns ``(members, samples, d, d)``.

        Raises :class:`IncompatibleMemberBatch` when the group cannot walk as
        one stack (structural divergence between samples, a column shared in
        some members but per-sample in others, interpreted mode, or a sample
        batch larger than one walk chunk); callers fall back to per-member
        :meth:`evolve_batch`.
        """
        members = len(member_circuits)
        if members < 1 or any(len(batch) < 1 for batch in member_circuits):
            raise ValueError("evolve_member_batch needs at least one circuit "
                             "per member")
        samples = len(member_circuits[0])
        if any(len(batch) != samples for batch in member_circuits):
            raise ValueError("every member must carry the same sample count")
        if not self.compile_programs:
            raise IncompatibleMemberBatch(
                "the interpreted reference walk has no member-stacked variant"
            )
        num_qubits = member_circuits[0][0].num_qubits
        dim = 2 ** num_qubits
        if samples > max(1, self.MAX_FLAT_ELEMENTS // (dim * dim)):
            # The serial walk would chunk each member's batch; per-chunk
            # shared-gate classification could then diverge from whole-batch
            # classification, so keep those walks on the per-member path.
            raise IncompatibleMemberBatch(
                "sample batch exceeds one walk chunk; run members "
                "individually"
            )
        signature = tuple(
            (instruction.name, instruction.qubits)
            for instruction in member_circuits[0][0].instructions
        )
        for batch in member_circuits:
            for circuit in batch:
                if circuit.num_qubits != num_qubits or tuple(
                    (instruction.name, instruction.qubits)
                    for instruction in circuit.instructions
                ) != signature:
                    raise IncompatibleMemberBatch(
                        "member group diverges structurally; run members "
                        "individually"
                    )
        return self._evolve_member_group_compiled(member_circuits, num_qubits,
                                                  members, samples, dim)

    def _evolve_member_group_compiled(self, member_circuits, num_qubits: int,
                                      members: int, samples: int,
                                      dim: int) -> np.ndarray:
        """Compiled member-stacked walk over a structure-uniform group.

        The walk bookkeeping -- instruction iteration, shared/per-sample
        column classification, flush scheduling -- runs ONCE for the whole
        group, but the heavy density kernels dispatch per member slice: each
        member's ``(samples, d, d)`` batch stays cache-resident, and every
        slice runs the exact kernel sequence (and hits the same
        compiled-program cache entries) as a per-member :meth:`evolve_batch`
        walk, which is what makes the stacked result bitwise identical to the
        serial one.  An earlier variant flattened the group into one
        ``(members * samples, d, d)`` batch; at ensemble scale those arrays
        fall out of cache and the walk went memory-bound, slower than the
        serial path it replaced.
        """
        backend = self.backend
        rho_batches = [
            backend.density_from_states(
                backend.zero_states(samples, num_qubits)
            )
            for _ in range(members)
        ]
        pending: List[int] = []

        def flush() -> None:
            if not pending:
                return
            for member, batch in enumerate(member_circuits):
                template = batch[0]
                shared = QuantumCircuit(num_qubits, 1, name="compiled_run")
                shared.instructions = [template.instructions[p]
                                       for p in pending]
                program = self.compiler.channel_program(
                    shared, self.noise_model, backend
                )
                rho_batches[member] = (
                    backend.apply_compiled_superoperator_batch(
                        rho_batches[member], program
                    )
                )
            pending.clear()

        for position, instruction in enumerate(
                member_circuits[0][0].instructions):
            name = instruction.name
            if name in {"barrier", "measure"}:
                continue
            if name == "reset":
                pending.append(position)
                continue
            if name == "initialize":
                flush()
                for member, batch in enumerate(member_circuits):
                    states = [circuit.instructions[position].state
                              for circuit in batch]
                    if any(state is None for state in states):
                        raise ValueError("initialize instruction is missing "
                                         "its statevector")
                    rho_batches[member] = self._apply_initialize_batch(
                        rho_batches[member], np.stack(states),
                        instruction.qubits, num_qubits
                    )
                continue
            member_matrices = [
                [circuit.instructions[position].matrix_or_standard()
                 for circuit in batch]
                for batch in member_circuits
            ]
            shared_flags = [
                all(matrix is matrices[0]
                    or np.array_equal(matrix, matrices[0])
                    for matrix in matrices[1:])
                for matrices in member_matrices
            ]
            if all(shared_flags):
                pending.append(position)
                continue
            if any(shared_flags):
                # Shared for some members, per-sample for others: the serial
                # walk would compile the column for the former and stack it
                # for the latter, and replicating that split is not worth the
                # complexity for a case amplitude encoding never produces.
                raise IncompatibleMemberBatch(
                    "gate column is shared within some members but "
                    "per-sample in others"
                )
            flush()
            for member, matrices in enumerate(member_matrices):
                rho_batches[member] = self._apply_per_sample_column(
                    rho_batches[member], instruction, matrices
                )
        flush()
        return np.stack(rho_batches)

    def prepare_batch(self, amplitudes: np.ndarray) -> np.ndarray:
        """Gate-level state preparation of every amplitude row, with noise.

        ``amplitudes`` is a ``(rows, 2**n)`` batch of non-negative amplitude
        rows; the result is the ``(rows, 2**n, 2**n)`` density batch that the
        interpreted walk of each row's
        :func:`~repro.encoding.amplitude.state_preparation_circuit` produces,
        computed without building any circuit and without the compiler.  The
        rows walk one shared column sequence,
        :func:`~repro.encoding.amplitude.state_preparation_schedule`: each RY
        column applies one per-row ``noise o (U (x) conj(U))``
        superoperator (the identity on rows whose circuit drops the
        rotation, so those rows get neither the gate nor its noise), and each
        CX column one shared superoperator.  Every kernel call is a per-row
        batched matmul, so a row's result does not depend on which other rows
        share its batch.
        """
        from repro.encoding.amplitude import state_preparation_schedule

        backend = self.backend
        amplitudes = np.asarray(amplitudes, dtype=float)
        if amplitudes.ndim != 2:
            raise ValueError("amplitudes must be a 2-D batch (rows, 2**n)")
        rows, dim = amplitudes.shape
        num_qubits = dim.bit_length() - 1
        rhos = backend.density_from_states(backend.zero_states(rows,
                                                               num_qubits))
        for step in state_preparation_schedule(amplitudes, num_qubits):
            instruction = Instruction(name=step.name, qubits=step.qubits)
            if step.name == "cx":
                gate = instruction.matrix_or_standard()
                superops = np.kron(gate, gate.conj())[None, :, :]
            else:
                half = step.angles / 2.0
                cos, sin = np.cos(half), np.sin(half)
                gates = np.stack([np.stack([cos, -sin], axis=1),
                                  np.stack([sin, cos], axis=1)], axis=1)
                superops = np.einsum("bij,bkl->bikjl", gates, gates).reshape(
                    rows, 4, 4)
            rhos = self._apply_preparation_column(rhos, instruction, superops,
                                                  step.active)
        return rhos

    def _apply_preparation_column(self, rhos: np.ndarray,
                                  instruction: Instruction,
                                  superops: np.ndarray,
                                  active: Optional[np.ndarray]) -> np.ndarray:
        """One preparation column: gate superoperators fused with noise.

        ``superops`` is ``(rows, d^2, d^2)``, or ``(1, d^2, d^2)`` when every
        row shares the gate; ``active`` (or ``None`` for all rows) marks the
        rows that run the column at all.
        """
        backend = self.backend
        rows = rhos.shape[0]
        error = (self.noise_model.error_for_instruction(instruction)
                 if self.noise_model is not None else None)
        channel = None
        if error is not None and error.num_qubits == len(instruction.qubits):
            superops = np.matmul(error.superoperator, superops)
        elif error is not None:
            # Channel on a sub-block of the gate's qubits: a second column.
            channel = error.superoperator[None, :, :]
        steps = [(superops, instruction.qubits)]
        if channel is not None:
            steps.append((channel, instruction.qubits[: error.num_qubits]))
        for matrices, qubits in steps:
            matrices = np.broadcast_to(matrices,
                                       (rows,) + matrices.shape[1:])
            if active is not None:
                identity = np.eye(matrices.shape[-1], dtype=matrices.dtype)
                matrices = np.where(active[:, None, None], matrices, identity)
            rhos = backend.apply_superoperators_density_batch(rhos, matrices,
                                                              qubits)
        return rhos

    def replay_suffix_batch(self, checkpoint_rhos: np.ndarray,
                            circuit: QuantumCircuit) -> np.ndarray:
        """Resume a whole density batch through one shared suffix circuit.

        ``checkpoint_rhos`` is the ``(batch, d, d)`` result of an earlier
        :meth:`evolve_batch` over the level-independent prefix circuits;
        ``circuit`` is the per-level suffix (reset block + decoder + SWAP test)
        shared by every sample.  Each call replays from a snapshot, so one
        checkpoint serves the whole compression sweep.  Noise channels are
        fused with their gates exactly as in :meth:`evolve_batch`.

        With compilation on (the default) the suffix is lowered once into a
        compiled channel program -- every gate fused with its noise channel,
        contiguous runs fused into dense support-block superoperators (ONE
        ``4^n x 4^n`` superoperator when the register fits the compiler's
        support cap) -- and the whole replay is a few batched matmuls against
        the snapshot instead of a Python gate walk.
        """
        checkpoint_rhos = np.asarray(checkpoint_rhos)
        if checkpoint_rhos.ndim != 3:
            raise ValueError("a checkpoint must be a (batch, d, d) density batch")
        if any(instruction.name == "initialize"
               for instruction in circuit.instructions):
            raise ValueError(
                "a suffix circuit cannot re-initialize qubits; encoding belongs "
                "to the prefix"
            )
        if self.compile_programs:
            dim = checkpoint_rhos.shape[1]
            if dim != 2 ** circuit.num_qubits:
                raise ValueError(
                    "checkpoint dimension does not match the suffix circuit"
                )
            program = self.compiler.channel_program(circuit, self.noise_model,
                                                    self.backend)
            snapshot = self.backend.copy_density_batch(checkpoint_rhos)
            chunk = max(1, self.MAX_FLAT_ELEMENTS // (dim * dim))
            if snapshot.shape[0] <= chunk:
                return self.backend.apply_compiled_superoperator_batch(snapshot,
                                                                       program)
            results = np.empty_like(snapshot)
            for start in range(0, snapshot.shape[0], chunk):
                results[start:start + chunk] = (
                    self.backend.apply_compiled_superoperator_batch(
                        snapshot[start:start + chunk], program)
                )
            return results
        return self.evolve_batch([circuit] * checkpoint_rhos.shape[0],
                                 initial_rhos=checkpoint_rhos)

    # ------------------------------------------------------------------ helpers
    def _evolve_group(self, circuits: List[QuantumCircuit],
                      initial: Optional[np.ndarray] = None) -> np.ndarray:
        """Walk one group of structurally identical circuits as a batch."""
        if self.compile_programs:
            return self._evolve_group_compiled(circuits, initial)
        return self._evolve_group_interpreted(circuits, initial)

    def _evolve_group_compiled(self, circuits: List[QuantumCircuit],
                               initial: Optional[np.ndarray] = None
                               ) -> np.ndarray:
        """Compiled walk: shared instruction runs execute as fused operators.

        Contiguous runs of sample-independent instructions (gates whose
        matrices agree across the batch, and resets) are collected into a
        sub-circuit, lowered once through the compiler's LRU-cached
        ``channel_program`` (gates fused with their noise channels, runs fused
        into dense support-block operators), and applied with
        ``apply_compiled_superoperator_batch``.  Per-sample columns
        (``initialize`` payloads, state-preparation gates with per-sample
        angles) are executed exactly like the interpreted reference walk.
        """
        backend = self.backend
        num_qubits = circuits[0].num_qubits
        if initial is not None:
            rhos = backend.copy_density_batch(initial)
        else:
            rhos = backend.density_from_states(
                backend.zero_states(len(circuits), num_qubits)
            )
        pending: List[Instruction] = []

        def flush(rhos: np.ndarray) -> np.ndarray:
            if not pending:
                return rhos
            shared = QuantumCircuit(num_qubits, 1, name="compiled_run")
            shared.instructions = pending.copy()
            pending.clear()
            program = self.compiler.channel_program(shared, self.noise_model,
                                                    backend)
            return backend.apply_compiled_superoperator_batch(rhos, program)

        for position, instruction in enumerate(circuits[0].instructions):
            name = instruction.name
            if name in {"barrier", "measure"}:
                continue
            if name == "reset":
                pending.append(instruction)
                continue
            if name == "initialize":
                rhos = flush(rhos)
                states = [circuit.instructions[position].state
                          for circuit in circuits]
                if any(state is None for state in states):
                    raise ValueError("initialize instruction is missing its "
                                     "statevector")
                rhos = self._apply_initialize_batch(
                    rhos, np.stack(states), instruction.qubits, num_qubits
                )
                continue
            matrices = [circuit.instructions[position].matrix_or_standard()
                        for circuit in circuits]
            first = matrices[0]
            shared = all(matrix is first or np.array_equal(matrix, first)
                         for matrix in matrices[1:])
            if shared:
                pending.append(instruction)
                continue
            rhos = flush(rhos)
            rhos = self._apply_per_sample_column(rhos, instruction, matrices)
        return flush(rhos)

    def _apply_per_sample_column(self, rhos: np.ndarray,
                                 instruction: Instruction,
                                 matrices: List[np.ndarray]) -> np.ndarray:
        """One sample-dependent gate column, fused with its noise channel.

        Shared by the compiled and interpreted walks (per-sample columns are
        never ahead-of-time compiled), so the two walks only differ where
        compilation re-associates *shared* operator products.  The one fused
        superoperator pass per gate halves (noiseless) or thirds (noisy) the
        full-batch tensor contractions versus applying gate and channel
        separately.
        """
        backend = self.backend
        error = (self.noise_model.error_for_instruction(instruction)
                 if self.noise_model is not None else None)
        if error is not None and error.num_qubits != len(instruction.qubits):
            # Channel acts on a sub-block of the gate's qubits; too rare to
            # fuse, apply the two steps separately.
            rhos = backend.apply_gates_density_batch(rhos, np.stack(matrices),
                                                     instruction.qubits)
            return backend.apply_superoperator_density_batch(
                rhos, error.superoperator,
                instruction.qubits[: error.num_qubits],
            )
        gates = np.stack(matrices)
        local_dim = gates.shape[-1]
        superops = np.einsum("bij,bkl->bikjl", gates, gates.conj()).reshape(
            gates.shape[0], local_dim ** 2, local_dim ** 2
        )
        if error is not None:
            superops = np.matmul(error.superoperator, superops)
        return backend.apply_superoperators_density_batch(
            rhos, superops, instruction.qubits
        )

    def _evolve_group_interpreted(self, circuits: List[QuantumCircuit],
                                  initial: Optional[np.ndarray] = None
                                  ) -> np.ndarray:
        """Gate-by-gate reference walk (``compile_programs=False``)."""
        backend = self.backend
        num_qubits = circuits[0].num_qubits
        if initial is not None:
            rhos = backend.copy_density_batch(initial)
        else:
            rhos = backend.density_from_states(
                backend.zero_states(len(circuits), num_qubits)
            )
        for position, instruction in enumerate(circuits[0].instructions):
            name = instruction.name
            if name in {"barrier", "measure"}:
                continue
            if name == "initialize":
                states = [circuit.instructions[position].state
                          for circuit in circuits]
                if any(state is None for state in states):
                    raise ValueError("initialize instruction is missing its "
                                     "statevector")
                rhos = self._apply_initialize_batch(
                    rhos, np.stack(states), instruction.qubits, num_qubits
                )
                continue
            if name == "reset":
                rhos = backend.reset_qubit_density_batch(rhos,
                                                         instruction.qubits[0])
                continue
            matrices = [circuit.instructions[position].matrix_or_standard()
                        for circuit in circuits]
            first = matrices[0]
            shared = all(matrix is first or np.array_equal(matrix, first)
                         for matrix in matrices[1:])
            if not shared:
                rhos = self._apply_per_sample_column(rhos, instruction,
                                                     matrices)
                continue
            error = (self.noise_model.error_for_instruction(instruction)
                     if self.noise_model is not None else None)
            if error is not None and error.num_qubits != len(instruction.qubits):
                # Channel acts on a sub-block of the gate's qubits; too rare to
                # fuse, apply the two steps separately.
                rhos = backend.apply_gate_density_batch(rhos, first,
                                                        instruction.qubits)
                rhos = backend.apply_superoperator_density_batch(
                    rhos, error.superoperator,
                    instruction.qubits[: error.num_qubits],
                )
                continue
            if error is None:
                rhos = backend.apply_gate_density_batch(rhos, first,
                                                        instruction.qubits)
                continue
            # One fused superoperator pass per gate: the unitary conjugation
            # ``vec(U rho U^dagger) = (U (x) conj(U)) vec(rho)`` composed with
            # the gate's noise channel thirds the number of full-batch tensor
            # contractions, which dominate the walk on ``2n+1``-qubit matrices.
            superop = error.superoperator @ np.kron(first, first.conj())
            rhos = backend.apply_superoperator_density_batch(
                rhos, superop, instruction.qubits
            )
        return rhos

    def _apply_initialize_batch(self, rhos: np.ndarray, states: np.ndarray,
                                qubits: Sequence[int],
                                num_qubits: int) -> np.ndarray:
        """Batched twin of ``DensityMatrixSimulator._apply_initialize_density``.

        ``states`` holds one ``2^k`` payload per batch entry.  The target qubits
        must be in |0> in every entry (as amplitude encoding guarantees); the
        payloads are tensored into the untouched remainder of each matrix.
        """
        backend = self.backend
        states = np.asarray(states, dtype=backend.dtype)
        batch, dim = rhos.shape[0], rhos.shape[1]
        if states.shape != (batch, 2 ** len(qubits)):
            raise ValueError("one initialize payload per batch entry is required")
        mask = 0
        for qubit in qubits:
            mask |= 1 << qubit
        indices = np.arange(dim)
        free = indices[(indices & mask) == 0]
        diagonal = np.real(np.einsum("bii->bi", rhos))
        occupied = diagonal[:, indices[(indices & mask) != 0]].sum(axis=1)
        if np.any(occupied > 1e-9):
            raise ValueError(
                "initialize requires its target qubits to be in |0>; "
                "reset them first or initialize before other operations"
            )
        spreads = np.zeros(states.shape[1], dtype=np.int64)
        for position, qubit in enumerate(qubits):
            local = np.arange(states.shape[1])
            spreads |= ((local >> position) & 1) << qubit
        # new_rho[b, r|spread_i, c|spread_j] = rho[b, r, c] * t[b,i] * conj(t[b,j])
        sub = rhos[:, free[:, None], free[None, :]]
        block = np.einsum("bfg,bi,bj->bfigj", sub, states, states.conj())
        targets = (free[:, None] | spreads[None, :]).reshape(-1)
        result = np.zeros_like(rhos)
        result[:, targets[:, None], targets[None, :]] = block.reshape(
            batch, targets.shape[0], targets.shape[0]
        )
        return result
