"""Ahead-of-time circuit compilation into fused dense operators.

The simulators in :mod:`repro.quantum.simulator` interpret circuits gate by
gate: every instruction becomes one (or, with noise, two to three) batched
tensor contractions.  For the Quorum workload almost all of that structure is
known before the first sample arrives -- the ansatz is fixed per ensemble
member and the reset+decoder+SWAP-test suffix is identical for every sample --
so this module *lowers* a :class:`~repro.quantum.circuit.QuantumCircuit` (plus
an optional :class:`~repro.quantum.noise.NoiseModel`) into a compiled program
of a few precomposed dense operators that the engines replay with a handful of
batched matmuls.

Three lowerings are provided:

* :meth:`CircuitCompiler.unitary_program` / :meth:`CircuitCompiler.fused_unitary`
  -- pure-state compilation.  Contiguous runs of unitary gates are fused into
  one dense ``2^k x 2^k`` unitary per support block.  (The engines do not
  compile the Quorum encoder: each member's ansatz holds its unitary, built
  for the whole ensemble in one stacked walk by
  :func:`repro.algorithms.ansatz.hold_encoder_unitaries`.)
* :meth:`CircuitCompiler.channel_program` -- mixed-state compilation.  Every
  gate is composed with its noise channel into one superoperator, resets
  become reset channels, and contiguous channel runs are fused into dense
  support-block superoperators (capped at ``max_superop_qubits`` so the fused
  matrices stay cache-sized).  Circuits narrow enough to fit under the cap
  compile to ONE ``4^n x 4^n`` superoperator.
* :meth:`CircuitCompiler.dual_observable` -- Heisenberg-picture compilation of
  a channel followed by a single-qubit readout.  The ancilla projector ``M`` is
  pulled back through the channel's adjoint once, yielding a dense observable
  ``W = C^dagger(M)`` with ``P(1) = <W, rho> = Tr(W^dagger rho)`` -- the whole
  sample-independent suffix collapses to ONE batched matmul against a density
  checkpoint (see
  :meth:`~repro.quantum.backend.SimulationBackend.observable_expectation_density_batch`).

Compiled artifacts live in a thread-safe LRU cache keyed by (program kind,
circuit signature, noise-model fingerprint, backend dtype), so sweeping the
same member across compression levels, ensemble repetitions, or benchmark
rounds never recompiles.  :data:`default_compiler` returns the process-wide
shared instance; `QuorumCircuitFactory`, the execution engines, and the
batched simulator all share it unless given their own.

The gate-by-gate interpreters remain in place as the reference path
(``BatchedDensityMatrixSimulator(compile_programs=False)`` and the per-sample
:class:`~repro.quantum.simulator.DensityMatrixSimulator`); the parity test
suite asserts compiled and interpreted results agree to ``<= 1e-10``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.quantum.backend import SimulationBackend, get_simulation_backend
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.transpiler import optimize_instructions

__all__ = [
    "FusedOperator",
    "CompiledProgram",
    "MemberStackedOperator",
    "MemberStackedProgram",
    "CompilerStats",
    "CircuitCompiler",
    "circuit_signature",
    "structure_signature",
    "noise_model_fingerprint",
    "default_compiler",
]

#: ``FusedOperator.kind`` values.
UNITARY = "unitary"
SUPEROPERATOR = "superoperator"


@dataclass(frozen=True, eq=False)
class FusedOperator:
    """One precomposed dense operator of a compiled program.

    Compared by identity (``eq=False``): a generated ``__eq__`` over the
    ndarray field would raise on truth-value ambiguity, and programs are
    deduplicated by cache key, never by value.

    Attributes
    ----------
    kind:
        ``"unitary"`` (a ``2^k x 2^k`` matrix applied by conjugation /
        state-vector matmul) or ``"superoperator"`` (a ``4^k x 4^k`` channel in
        the row-major vec convention of
        :func:`repro.quantum.density_matrix.kraus_to_superoperator`).
    matrix:
        The dense operator, read-only, in the compiling backend's dtype.
    qubits:
        Ascending global support qubits; the first listed qubit is the
        least-significant index of ``matrix``, matching the backend kernels.
    """

    kind: str
    matrix: np.ndarray
    qubits: Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    """An ordered sequence of fused operators equivalent to a circuit walk.

    Compared by identity, like :class:`FusedOperator`.
    """

    num_qubits: int
    operators: Tuple[FusedOperator, ...]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True, eq=False)
class MemberStackedOperator:
    """One parameter-stacked operator of a member-stacked program.

    ``matrices`` carries a leading *member* axis: ``matrices[m]`` is the dense
    operator of ensemble member ``m`` for this program position.  All members
    share ``kind`` and ``qubits`` (the stack is only built for circuits with
    equal :func:`structure_signature`), so a backend can dispatch the whole
    ensemble step as one batched contraction.
    """

    kind: str
    matrices: np.ndarray  # (members, dim, dim) or (members, 4^k, 4^k)
    qubits: Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class MemberStackedProgram:
    """A compiled program whose operators carry a leading member axis.

    The parameterized variant of :class:`CompiledProgram`: the structure
    (operator kinds, supports, ordering) is compiled once per signature group
    and the per-member parameters live in the stacked matrices.
    """

    num_qubits: int
    num_members: int
    operators: Tuple[MemberStackedOperator, ...]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass
class CompilerStats:
    """Observable cache behaviour (asserted by the regression tests).

    ``compiles`` counts actual lowerings; ``hits``/``misses`` count cache
    lookups.  A repeated compile of the same (circuit, noise model, dtype)
    must increment ``hits`` and leave ``compiles`` unchanged.
    ``group_compiles`` counts member-stacked artifact builds (one signature
    group stacked into a parameterized program or operator stack).
    """

    compiles: int = 0
    hits: int = 0
    misses: int = 0
    group_compiles: int = 0


def circuit_signature(circuit: QuantumCircuit) -> Tuple:
    """Hashable fingerprint of a circuit's instruction stream.

    Two circuits with equal signatures lower to identical compiled programs:
    the signature covers names, qubits, parameters, classical bits, and the
    raw bytes of explicit ``unitary`` matrices and ``initialize`` payloads.
    """
    items = []
    for instruction in circuit.instructions:
        matrix_key = (instruction.matrix.tobytes()
                      if instruction.matrix is not None else None)
        state_key = (instruction.state.tobytes()
                     if instruction.state is not None else None)
        items.append((instruction.name, instruction.qubits, instruction.params,
                      instruction.clbits, matrix_key, state_key))
    return (circuit.num_qubits, tuple(items))


def structure_signature(circuit: QuantumCircuit) -> Tuple:
    """Hashable fingerprint of a circuit's *structure*, parameters excluded.

    Two circuits with equal structure signatures run the same instruction
    stream over the same qubits and differ only in continuous payloads
    (rotation angles, explicit ``unitary`` matrices, ``initialize`` state
    vectors -- only the payload *shapes* are covered).  Such circuits lower to
    compiled programs with identical block structure, so a whole ensemble of
    them can execute as one member-stacked batch
    (:meth:`CircuitCompiler.member_stacked_channel_program`).
    """
    items = []
    for instruction in circuit.instructions:
        matrix_shape = (instruction.matrix.shape
                        if instruction.matrix is not None else None)
        state_shape = (instruction.state.shape
                       if instruction.state is not None else None)
        items.append((instruction.name, instruction.qubits, instruction.clbits,
                      matrix_shape, state_shape))
    return (circuit.num_qubits, tuple(items))


def noise_model_fingerprint(noise_model: Optional[NoiseModel]) -> Optional[Tuple]:
    """Content-based fingerprint of a noise model (``None`` stays ``None``).

    Delegates to :meth:`repro.quantum.noise.NoiseModel.fingerprint`, so two
    independently built but identical models (e.g. one ``FakeBrisbane`` model
    per ensemble member) share compiled-program cache entries.
    """
    if noise_model is None:
        return None
    return noise_model.fingerprint()


def _reset_superoperator(dtype: np.dtype) -> np.ndarray:
    """Superoperator of the single-qubit reset channel (|0><0|, |0><1|)."""
    zero_zero = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=dtype)
    zero_one = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=dtype)
    return (np.kron(zero_zero, zero_zero.conj())
            + np.kron(zero_one, zero_one.conj()))


@dataclass
class _ChannelOp:
    """One pre-fusion channel step: a unitary or a superoperator on ``qubits``."""

    matrix: np.ndarray
    qubits: Tuple[int, ...]
    is_superoperator: bool


class CircuitCompiler:
    """Lower circuits to compiled programs, memoized in a bounded LRU cache.

    Parameters
    ----------
    max_entries:
        LRU capacity; one entry is one compiled program / fused matrix.
    max_bytes:
        LRU capacity in payload bytes (fused superoperators grow quartically
        with support size, so a count bound alone could pin gigabytes; the
        byte bound evicts least-recently-used programs first, like the count
        bound).
    max_superop_qubits:
        Support-size cap for fused *superoperators* (``4^k x 4^k`` grows
        quartically, so channel fusion is split into blocks of at most this
        many qubits; unitary fusion is uncapped because ``2^k x 2^k`` stays
        tiny for every register this project simulates).
    optimize:
        Run the transpiler's peephole passes (trivial-gate pruning, rotation
        merging, self-inverse cancellation) over unitary runs before fusing.
        Off by default: optimization changes the floating-point operator (only
        up to global phase / 1e-12), while the default compilation is chosen
        to be *bitwise* reproducible against the interpreted reference for
        pure-state paths.  Never applied to noisy compilation, where dropping
        or merging a gate would also drop its noise channel.
    """

    def __init__(self, max_entries: int = 256,
                 max_bytes: int = 256 * 1024 * 1024,
                 max_superop_qubits: int = 5,
                 optimize: bool = False) -> None:
        if max_entries < 1:
            raise ValueError("the compiled-program cache needs at least one entry")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if max_superop_qubits < 1:
            raise ValueError("max_superop_qubits must be positive")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.max_superop_qubits = int(max_superop_qubits)
        self.optimize = bool(optimize)
        self.stats = CompilerStats()
        self._cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self._cached_bytes = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ cache
    @staticmethod
    def _payload_bytes(value: object) -> int:
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, CompiledProgram):
            return sum(op.matrix.nbytes for op in value.operators)
        if isinstance(value, MemberStackedProgram):
            return sum(op.matrices.nbytes for op in value.operators)
        return 0

    def _get_or_compile(self, key: Tuple, builder: Callable[[], object]) -> object:
        with self._lock:
            if key in self._cache:
                self._cache.move_to_end(key)
                self.stats.hits += 1
                return self._cache[key]
            self.stats.misses += 1
        value = builder()  # compile outside the lock; a duplicate race is benign
        with self._lock:
            self.stats.compiles += 1
            if key not in self._cache:
                self._cached_bytes += self._payload_bytes(value)
            self._cache[key] = value
            self._cache.move_to_end(key)
            while self._cache and (len(self._cache) > self.max_entries
                                   or self._cached_bytes > self.max_bytes):
                _, evicted = self._cache.popitem(last=False)
                self._cached_bytes -= self._payload_bytes(evicted)
        return value

    def cache_size(self) -> int:
        """Number of compiled artifacts currently cached."""
        with self._lock:
            return len(self._cache)

    def cache_bytes(self) -> int:
        """Total payload bytes of the cached artifacts."""
        with self._lock:
            return self._cached_bytes

    def clear(self) -> None:
        """Drop every cached program (stats are kept)."""
        with self._lock:
            self._cache.clear()
            self._cached_bytes = 0

    # The lock and cache are per-process state: a compiler travelling to a
    # worker process (e.g. inside a pickled factory) re-starts empty there.
    def __getstate__(self) -> dict:
        return {"max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "max_superop_qubits": self.max_superop_qubits,
                "optimize": self.optimize}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    # ------------------------------------------------------------ public API
    def unitary_program(self, circuit: QuantumCircuit,
                        backend: Union[str, SimulationBackend, None] = None
                        ) -> CompiledProgram:
        """Compile a purely unitary circuit into one fused dense unitary.

        Barriers are dropped; ``reset``/``measure``/``initialize`` are
        rejected (pure-state compilation has no channel semantics for them).
        The whole gate stream fuses into a single block on the union of the
        gate supports -- every register this project compiles is small enough
        that the dense block unitary stays tiny (``<= 2^9``), so no
        support-size splitting is needed on the pure-state side.
        """
        backend = get_simulation_backend(backend)
        key = ("unitary_program", str(backend.dtype), self.optimize,
               circuit_signature(circuit))
        return self._get_or_compile(
            key, lambda: self._build_unitary_program(circuit, backend))

    def fused_unitary(self, circuit: QuantumCircuit,
                      backend: Union[str, SimulationBackend, None] = None
                      ) -> np.ndarray:
        """The whole circuit as ONE dense full-register unitary (cached).

        For an encoder circuit the construction matches
        :meth:`repro.algorithms.ansatz.RandomAutoencoderAnsatz.encoder_unitary`
        operation for operation, so the two are bitwise equal; the engines
        read the ansatz's held unitary and never call this.
        """
        backend = get_simulation_backend(backend)
        key = ("fused_unitary", str(backend.dtype), self.optimize,
               circuit_signature(circuit))

        def build() -> np.ndarray:
            program = self._build_unitary_program(circuit, backend)
            if (len(program.operators) == 1
                    and program.operators[0].qubits
                    == tuple(range(circuit.num_qubits))):
                return program.operators[0].matrix
            matrix = backend.unitary_from_instructions(
                [(op.matrix, op.qubits) for op in program.operators],
                circuit.num_qubits,
            )
            matrix.setflags(write=False)
            return matrix

        return self._get_or_compile(key, build)

    def channel_program(self, circuit: QuantumCircuit,
                        noise_model: Optional[NoiseModel] = None,
                        backend: Union[str, SimulationBackend, None] = None
                        ) -> CompiledProgram:
        """Compile a sample-independent circuit into fused channel blocks.

        Every unitary gate is composed with its noise channel (looked up once
        per (gate name, qubit count) through the noise model's superoperator
        cache) and every ``reset`` becomes the reset channel; contiguous
        channel steps are fused into dense superoperators on support blocks of
        at most ``max_superop_qubits`` qubits.  Runs that carry no channel at
        all (noiseless gates) fuse into plain unitaries instead, which the
        executor applies by (much cheaper) conjugation.  ``initialize`` is
        rejected -- encoding is sample-dependent and belongs to the prefix.
        """
        backend = get_simulation_backend(backend)
        key = ("channel_program", str(backend.dtype), self.max_superop_qubits,
               circuit_signature(circuit), noise_model_fingerprint(noise_model))
        return self._get_or_compile(
            key,
            lambda: self._build_channel_program(circuit, noise_model, backend))

    def dual_observable(self, circuit: QuantumCircuit,
                        noise_model: Optional[NoiseModel],
                        qubit: int,
                        backend: Union[str, SimulationBackend, None] = None
                        ) -> np.ndarray:
        """Heisenberg-picture observable of (channel, read ``qubit`` = 1).

        Returns the dense matrix ``W = C^dagger(|1><1|_qubit)`` such that the
        probability of measuring ``qubit`` as 1 *after* running ``circuit``
        (with ``noise_model``) from state ``rho`` is ``Re Tr(W^dagger rho)``.
        The adjoint channel is applied to the projector *streamed* step by
        step through the per-instruction channel adjoints (each a one- or
        two-qubit kernel), never materializing the fused forward
        superoperator blocks: a wide noisy suffix's blocks are ``4^k x 4^k``
        (tens of MB each), so building them once per (member, level) used to
        thrash the byte-bounded LRU at ensemble scale, while the observable
        itself is only ``4^n`` complex entries.  One compile replaces a whole
        batched forward replay with a single matmul per batch.
        """
        backend = get_simulation_backend(backend)
        if not 0 <= qubit < circuit.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        key = ("dual_observable", str(backend.dtype), self.max_superop_qubits,
               int(qubit), circuit_signature(circuit),
               noise_model_fingerprint(noise_model))

        def build() -> np.ndarray:
            steps = self._channel_steps(circuit, noise_model, backend)
            dim = 2 ** circuit.num_qubits
            observable = np.zeros((dim, dim), dtype=backend.dtype)
            ones = np.flatnonzero((np.arange(dim) >> qubit) & 1)
            observable[ones, ones] = 1.0
            batch = observable[None, :, :]
            # <M, C(rho)> = <C^dagger(M), rho>: push the projector backwards
            # through each step's adjoint (S^dagger in the Hilbert-Schmidt
            # inner product; U rho U^dagger pulls back to U^dagger M U).
            for op in reversed(steps):
                adjoint = op.matrix.conj().T
                if op.is_superoperator:
                    batch = backend.apply_superoperator_density_batch(
                        batch, adjoint, op.qubits)
                else:
                    batch = backend.apply_gate_density_batch(batch, adjoint,
                                                             op.qubits)
            result = np.ascontiguousarray(batch[0])
            result.setflags(write=False)
            return result

        return self._get_or_compile(key, build)

    def member_stacked_unitary(self, circuits: Sequence[QuantumCircuit],
                               backend: Union[str, SimulationBackend,
                                              None] = None) -> np.ndarray:
        """Stack :meth:`fused_unitary` over a signature group of circuits.

        Returns a read-only ``(members, 2^n, 2^n)`` array of the circuits'
        fused unitaries.  All circuits must share a
        :func:`structure_signature`; per-member fused unitaries are pulled
        from (and populate) the ordinary compiled cache, so stacking after a
        serial run recompiles nothing.  The engines stack the members' held
        encoder unitaries instead of calling this.
        """
        backend = get_simulation_backend(backend)
        self._require_uniform_structure(circuits)
        key = ("member_stacked_unitary", str(backend.dtype), self.optimize,
               tuple(circuit_signature(circuit) for circuit in circuits))

        def build() -> np.ndarray:
            stack = np.stack([self.fused_unitary(circuit, backend)
                              for circuit in circuits])
            stack.setflags(write=False)
            self.stats.group_compiles += 1
            return stack

        return self._get_or_compile(key, build)

    def member_stacked_dual_observable(self, circuits: Sequence[QuantumCircuit],
                                       noise_model: Optional[NoiseModel],
                                       qubit: int,
                                       backend: Union[str, SimulationBackend,
                                                      None] = None
                                       ) -> np.ndarray:
        """Stack :meth:`dual_observable` over a signature group of circuits.

        Returns a read-only ``(members, 2^n, 2^n)`` observable stack: one
        Heisenberg-picture readout observable per member, so a whole
        ensemble's level step is one member-batched expectation against the
        stacked density checkpoints.
        """
        backend = get_simulation_backend(backend)
        self._require_uniform_structure(circuits)
        key = ("member_stacked_dual_observable", str(backend.dtype),
               self.max_superop_qubits, int(qubit),
               tuple(circuit_signature(circuit) for circuit in circuits),
               noise_model_fingerprint(noise_model))

        def build() -> np.ndarray:
            stack = np.stack([self.dual_observable(circuit, noise_model,
                                                   qubit, backend)
                              for circuit in circuits])
            stack.setflags(write=False)
            self.stats.group_compiles += 1
            return stack

        return self._get_or_compile(key, build)

    def member_stacked_channel_program(self, circuits: Sequence[QuantumCircuit],
                                       noise_model: Optional[NoiseModel] = None,
                                       backend: Union[str, SimulationBackend,
                                                      None] = None
                                       ) -> MemberStackedProgram:
        """Compile a signature group into one parameter-stacked program.

        The structure is lowered once (per-member :meth:`channel_program`
        results share block kinds, supports, and ordering because the
        circuits share a :func:`structure_signature`); the per-member
        operator matrices are stacked along a leading member axis.
        """
        backend = get_simulation_backend(backend)
        self._require_uniform_structure(circuits)
        key = ("member_stacked_channel_program", str(backend.dtype),
               self.max_superop_qubits,
               tuple(circuit_signature(circuit) for circuit in circuits),
               noise_model_fingerprint(noise_model))

        def build() -> MemberStackedProgram:
            programs = [self.channel_program(circuit, noise_model, backend)
                        for circuit in circuits]
            first = programs[0]
            for program in programs[1:]:
                same = (len(program.operators) == len(first.operators)
                        and all(a.kind == b.kind and a.qubits == b.qubits
                                for a, b in zip(program.operators,
                                                first.operators)))
                if not same:
                    raise ValueError(
                        "circuits with equal structure signatures lowered to "
                        "different block shapes; cannot stack the group"
                    )
            operators = tuple(
                MemberStackedOperator(
                    kind=template.kind,
                    matrices=np.stack([program.operators[position].matrix
                                       for program in programs]),
                    qubits=template.qubits,
                )
                for position, template in enumerate(first.operators)
            )
            self.stats.group_compiles += 1
            return MemberStackedProgram(num_qubits=first.num_qubits,
                                        num_members=len(programs),
                                        operators=operators)

        return self._get_or_compile(key, build)

    @staticmethod
    def _require_uniform_structure(circuits: Sequence[QuantumCircuit]) -> None:
        if not circuits:
            raise ValueError("member stacking needs at least one circuit")
        first = structure_signature(circuits[0])
        for circuit in circuits[1:]:
            if structure_signature(circuit) != first:
                raise ValueError(
                    "member-stacked compilation requires a uniform structure "
                    "signature; group the circuits before stacking"
                )

    # -------------------------------------------------------------- lowering
    def _build_unitary_program(self, circuit: QuantumCircuit,
                               backend: SimulationBackend) -> CompiledProgram:
        instructions: List[Instruction] = []
        for instruction in circuit.instructions:
            if instruction.name == "barrier":
                continue
            if not instruction.is_unitary:
                raise ValueError(
                    "unitary programs cannot contain "
                    f"'{instruction.name}'; use channel_program for circuits "
                    "with reset, or keep initialize in the per-sample prefix"
                )
            instructions.append(instruction)
        if self.optimize:
            instructions = optimize_instructions(instructions)
        operators: List[FusedOperator] = []
        if instructions:
            support = sorted({qubit for instruction in instructions
                              for qubit in instruction.qubits})
            operators.append(self._fused_unitary_block(instructions, support,
                                                       backend))
        return CompiledProgram(num_qubits=circuit.num_qubits,
                               operators=tuple(operators))

    def _fused_unitary_block(self, run: Sequence[Instruction],
                             support: Sequence[int],
                             backend: SimulationBackend) -> FusedOperator:
        """Fuse one gate run into a dense unitary on its (ascending) support."""
        rank = {qubit: position for position, qubit in enumerate(support)}
        remapped = [
            (instruction.matrix_or_standard(),
             tuple(rank[q] for q in instruction.qubits))
            for instruction in run
        ]
        matrix = backend.unitary_from_instructions(remapped, len(support))
        matrix.setflags(write=False)
        return FusedOperator(kind=UNITARY, matrix=matrix,
                             qubits=tuple(int(q) for q in support))

    def _channel_steps(self, circuit: QuantumCircuit,
                       noise_model: Optional[NoiseModel],
                       backend: SimulationBackend) -> List[_ChannelOp]:
        """Per-instruction channel steps (gate composed with its noise).

        The pre-fusion step stream shared by :meth:`channel_program` (which
        fuses runs into dense support blocks) and :meth:`dual_observable`
        (which streams a projector through the step adjoints directly).
        """
        steps: List[_ChannelOp] = []
        for instruction in circuit.instructions:
            name = instruction.name
            if name in {"barrier", "measure"}:
                continue
            if name == "initialize":
                raise ValueError(
                    "channel programs cannot contain initialize; compile only "
                    "the sample-independent part of the circuit"
                )
            if name == "reset":
                steps.append(_ChannelOp(_reset_superoperator(backend.dtype),
                                        instruction.qubits, True))
                continue
            gate = np.asarray(instruction.matrix_or_standard(),
                              dtype=backend.dtype)
            error = (noise_model.error_for_instruction(instruction)
                     if noise_model is not None else None)
            if error is None:
                steps.append(_ChannelOp(gate, instruction.qubits, False))
            elif error.num_qubits != len(instruction.qubits):
                # Channel acts on a sub-block of the gate's qubits: keep the
                # two steps separate, fusion will combine them anyway.
                steps.append(_ChannelOp(gate, instruction.qubits, False))
                steps.append(_ChannelOp(
                    np.asarray(error.superoperator, dtype=backend.dtype),
                    instruction.qubits[: error.num_qubits], True))
            else:
                superop = np.asarray(error.superoperator, dtype=backend.dtype) \
                    @ np.kron(gate, gate.conj())
                steps.append(_ChannelOp(superop, instruction.qubits, True))
        return steps

    def _build_channel_program(self, circuit: QuantumCircuit,
                               noise_model: Optional[NoiseModel],
                               backend: SimulationBackend) -> CompiledProgram:
        steps = self._channel_steps(circuit, noise_model, backend)
        operators: List[FusedOperator] = []
        run: List[_ChannelOp] = []
        support: set = set()
        for step in steps:
            candidate = support | set(step.qubits)
            if run and len(candidate) > self.max_superop_qubits:
                operators.append(self._fused_channel_block(run, sorted(support),
                                                           backend))
                run, support = [], set()
                candidate = set(step.qubits)
            run.append(step)
            support = candidate
        if run:
            operators.append(self._fused_channel_block(run, sorted(support),
                                                       backend))
        return CompiledProgram(num_qubits=circuit.num_qubits,
                               operators=tuple(operators))

    def _fused_channel_block(self, run: Sequence[_ChannelOp],
                             support: Sequence[int],
                             backend: SimulationBackend) -> FusedOperator:
        """Fuse one channel run into a dense operator on its support block.

        A run with no superoperator step fuses to a plain unitary (applied by
        conjugation, which costs a factor ``2^k`` less than a superoperator
        pass).  Otherwise the run's superoperator is built by pushing the
        ``4^k`` basis matrices ``E_rc`` through every step with the ordinary
        backend kernels: column ``m`` of the fused matrix is ``vec(C(E_m))``.
        """
        rank = {qubit: position for position, qubit in enumerate(support)}
        if not any(step.is_superoperator for step in run):
            remapped = [(step.matrix, tuple(rank[q] for q in step.qubits))
                        for step in run]
            matrix = backend.unitary_from_instructions(remapped, len(support))
            matrix.setflags(write=False)
            return FusedOperator(kind=UNITARY, matrix=matrix,
                                 qubits=tuple(int(q) for q in support))
        dim = 2 ** len(support)
        basis = np.eye(dim * dim, dtype=backend.dtype).reshape(dim * dim, dim,
                                                               dim)
        for step in run:
            local = tuple(rank[q] for q in step.qubits)
            if step.is_superoperator:
                basis = backend.apply_superoperator_density_batch(
                    basis, step.matrix, local)
            else:
                basis = backend.apply_gate_density_batch(basis, step.matrix,
                                                         local)
        matrix = np.ascontiguousarray(basis.reshape(dim * dim, dim * dim).T)
        matrix.setflags(write=False)
        return FusedOperator(kind=SUPEROPERATOR, matrix=matrix,
                             qubits=tuple(int(q) for q in support))


#: Process-wide compiler shared by the engines, the batched simulator, and
#: ``QuorumCircuitFactory`` (each can be handed a private instance instead).
_DEFAULT_COMPILER = CircuitCompiler()


def default_compiler() -> CircuitCompiler:
    """The process-wide shared :class:`CircuitCompiler` instance."""
    return _DEFAULT_COMPILER
