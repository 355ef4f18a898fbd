"""Batched simulation backends: the numerical kernels behind the engines.

This module is the pluggable *execution backend* layer (not to be confused with
:mod:`repro.quantum.backends`, which describes fake *hardware* devices for noise
modelling).  A :class:`SimulationBackend` owns the low-level batched linear
algebra -- gate application, projective collapse, density-matrix channels,
overlap reductions -- so that the SWAP-test engines in
:mod:`repro.core.execution` and the circuit simulators in
:mod:`repro.quantum.simulator` can push whole sample (and trajectory) batches
through one einsum/tensordot kernel instead of looping in Python.

Batching contract
-----------------
* Every statevector batch is a 2-D complex array of shape ``(batch, 2**n)``;
  every density-matrix batch is ``(batch, 2**n, 2**n)``.  The **leading axis is
  always the batch axis** and is preserved by every primitive.
* Basis indices are little-endian (qubit ``q``'s bit is ``(i >> q) & 1``),
  matching :mod:`repro.quantum.statevector`.
* Arrays are kept in the backend's ``dtype`` (``complex128`` for the numpy
  reference backend); primitives never mutate their inputs.

Backends register themselves by name; select one with
``get_simulation_backend("numpy")`` or pass an instance directly.  The numpy
reference implementation is always available, and alternative implementations
(e.g. GPU array libraries exposing the numpy API) only need to subclass
:class:`SimulationBackend` and call :func:`register_simulation_backend`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.quantum.statevector import apply_unitary_to_tensor

__all__ = [
    "SimulationBackend",
    "NumpyBackend",
    "NumpyFloat32Backend",
    "register_simulation_backend",
    "available_simulation_backends",
    "get_simulation_backend",
]


class SimulationBackend(ABC):
    """Batched linear-algebra primitives shared by all execution engines.

    Subclasses provide the array kernels; everything above this layer (circuit
    walking, trajectory branching, shot sampling) is backend-agnostic.  All
    primitives follow the leading-batch-axis contract documented in the module
    docstring.
    """

    #: Registry key of the backend (set by concrete subclasses).
    name: str = "abstract"
    #: Complex dtype used for states and density matrices.
    dtype: np.dtype = np.dtype(np.complex128)

    # ------------------------------------------------------------ statevectors
    @abstractmethod
    def zero_states(self, batch_size: int, num_qubits: int) -> np.ndarray:
        """A ``(batch_size, 2**num_qubits)`` batch of |0...0> states."""

    @abstractmethod
    def as_states(self, amplitudes: np.ndarray) -> np.ndarray:
        """Cast a ``(batch, 2**n)`` amplitude array to the backend dtype."""

    @abstractmethod
    def apply_gate_batch(self, states: np.ndarray, gate: np.ndarray,
                         qubits: Sequence[int]) -> np.ndarray:
        """Apply a ``2^k x 2^k`` gate to ``qubits`` of every state in the batch.

        ``states`` has shape ``(batch, 2**n)``; the gate's row/column index
        treats the first listed qubit as the least-significant bit, exactly as
        in :func:`repro.quantum.statevector.apply_unitary_to_tensor`.
        """

    @abstractmethod
    def apply_unitary_batch(self, states: np.ndarray,
                            unitary: np.ndarray) -> np.ndarray:
        """Apply a dense full-register unitary to every state in the batch."""

    @abstractmethod
    def probability_one_batch(self, states: np.ndarray, qubit: int) -> np.ndarray:
        """P(measuring ``qubit`` = 1) for every state; shape ``(batch,)``."""

    @abstractmethod
    def collapse_qubit_batch(self, states: np.ndarray, qubit: int,
                             outcomes: np.ndarray,
                             reset_to_zero: bool = False) -> np.ndarray:
        """Project ``qubit`` onto per-state ``outcomes`` (0/1) and renormalize.

        With ``reset_to_zero`` the surviving branch is moved into the
        ``qubit = 0`` subspace (measure-and-conditionally-flip reset).
        """

    @abstractmethod
    def overlap_batch(self, states_a: np.ndarray,
                      states_b: np.ndarray) -> np.ndarray:
        """Row-wise fidelity ``|<a_i|b_i>|^2``; shape ``(batch,)``."""

    # --------------------------------------------------------- density matrices
    @abstractmethod
    def density_from_states(self, states: np.ndarray) -> np.ndarray:
        """Pure-state density matrices ``|psi_i><psi_i|``; ``(batch, d, d)``."""

    @abstractmethod
    def apply_gate_density_batch(self, rhos: np.ndarray, gate: np.ndarray,
                                 qubits: Sequence[int]) -> np.ndarray:
        """Conjugate every density matrix by a local gate: ``U rho U^dagger``."""

    @abstractmethod
    def evolve_density_batch(self, rhos: np.ndarray,
                             unitary: np.ndarray) -> np.ndarray:
        """Conjugate every density matrix by a dense full-register unitary."""

    @abstractmethod
    def reset_low_qubits_density_batch(self, rhos: np.ndarray,
                                       num_reset: int) -> np.ndarray:
        """Non-selectively reset qubits ``0 .. num_reset-1`` of every matrix."""

    @abstractmethod
    def expectation_batch(self, rhos: np.ndarray,
                          states: np.ndarray) -> np.ndarray:
        """Row-wise ``<psi_i| rho_i |psi_i>`` (real part); shape ``(batch,)``."""

    @abstractmethod
    def apply_gates_density_batch(self, rhos: np.ndarray, gates: np.ndarray,
                                  qubits: Sequence[int]) -> np.ndarray:
        """Conjugate every density matrix by its *own* local gate.

        ``gates`` has shape ``(batch, 2^k, 2^k)``: row ``i`` of the batch is
        conjugated by ``gates[i]``.  This is the per-sample variant of
        :meth:`apply_gate_density_batch`, needed when structurally identical
        circuits carry sample-dependent parameters (e.g. gate-level amplitude
        encoding, where the state-preparation angles differ per sample).
        """

    @abstractmethod
    def apply_superoperator_density_batch(self, rhos: np.ndarray,
                                          superoperator: np.ndarray,
                                          qubits: Sequence[int]) -> np.ndarray:
        """Apply one local channel (superoperator form) to every matrix.

        ``superoperator`` is the ``d^2 x d^2`` matrix produced by
        :func:`repro.quantum.density_matrix.kraus_to_superoperator`, acting on
        the *row-major* flattening of the local density matrix (row index block
        first).  The same channel is applied to every batch entry (noise models
        depend on the gate, not on the sample).
        """

    @abstractmethod
    def apply_superoperators_density_batch(self, rhos: np.ndarray,
                                           superoperators: np.ndarray,
                                           qubits: Sequence[int]) -> np.ndarray:
        """Apply one local channel *per batch entry* (superoperator form).

        ``superoperators`` has shape ``(batch, d^2, d^2)``: channel ``i`` acts on
        density matrix ``i``.  Used by the batched circuit walker to fuse a
        sample-dependent gate with its (shared) noise channel into a single
        contraction over the batch.
        """

    @abstractmethod
    def probability_one_density_batch(self, rhos: np.ndarray,
                                      qubit: int) -> np.ndarray:
        """P(measuring ``qubit`` = 1) from each density matrix; ``(batch,)``."""

    def copy_density_batch(self, rhos: np.ndarray) -> np.ndarray:
        """Snapshot a density batch into fresh backend-owned storage.

        Checkpoint support for the level-sweep walker: the post-prefix density
        batch is snapshotted once and every compression level replays from its
        own copy, so no replay can alias (or mutate) the checkpoint.  The
        default is a dtype-normalizing host copy; array-library backends whose
        buffers live off-host should override this with a device-side copy.
        """
        rhos = np.asarray(rhos, dtype=self.dtype)
        if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
            raise ValueError("a density batch must be (batch, d, d)")
        return rhos.copy()

    # ------------------------------------------------------ compiled programs
    def apply_compiled_unitary_batch(self, states: np.ndarray,
                                     operators) -> np.ndarray:
        """Run a compiled pure-state program over a state batch.

        ``operators`` is a :class:`repro.quantum.compiler.CompiledProgram` (or
        any iterable of its fused operators): each entry carries a dense
        ``2^k x 2^k`` unitary and its ascending support qubits.  The default
        chains :meth:`apply_gate_batch` per fused block, so every backend
        inherits compiled execution; array-library backends can override to
        run the whole chain on-device.
        """
        for operator in getattr(operators, "operators", operators):
            if operator.kind != "unitary":
                raise ValueError(
                    "a compiled unitary program cannot contain "
                    f"'{operator.kind}' operators"
                )
            states = self.apply_gate_batch(states, operator.matrix,
                                           operator.qubits)
        return states

    def apply_compiled_superoperator_batch(self, rhos: np.ndarray,
                                           operators) -> np.ndarray:
        """Run a compiled channel program over a density batch.

        ``operators`` is a :class:`repro.quantum.compiler.CompiledProgram` (or
        any iterable of its fused operators).  ``"unitary"`` blocks are applied
        by conjugation (:meth:`apply_gate_density_batch`, a factor ``2^k``
        cheaper than a superoperator pass), ``"superoperator"`` blocks through
        :meth:`apply_superoperator_density_batch`.  Like the unitary twin this
        is a default chaining implementation meant to be inherited (and
        overridable as one fused on-device kernel).
        """
        for operator in getattr(operators, "operators", operators):
            if operator.kind == "unitary":
                rhos = self.apply_gate_density_batch(rhos, operator.matrix,
                                                     operator.qubits)
            else:
                rhos = self.apply_superoperator_density_batch(
                    rhos, operator.matrix, operator.qubits)
        return rhos

    def observable_expectation_density_batch(self, rhos: np.ndarray,
                                             observable: np.ndarray
                                             ) -> np.ndarray:
        """Row-wise Hilbert-Schmidt expectation ``Re <O, rho_b>``; ``(batch,)``.

        ``<O, rho> = Tr(O^dagger rho) = vec(O)^dagger vec(rho)``: one batched
        matmul of the flattened density batch against a dense observable --
        the execution form of the compiler's Heisenberg-picture suffix replay
        (the observable being ``C^dagger(M)`` for a compiled channel ``C`` and
        projector ``M``).
        """
        rhos = np.asarray(rhos, dtype=self.dtype)
        observable = np.asarray(observable, dtype=self.dtype)
        if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
            raise ValueError("a density batch must be (batch, d, d)")
        if observable.shape != rhos.shape[1:]:
            raise ValueError("observable shape does not match the density batch")
        flat = rhos.reshape(rhos.shape[0], -1)
        return np.real(flat @ observable.conj().reshape(-1))

    def product_expectation_density_batch(self, rhos_b: np.ndarray,
                                          rhos_a: np.ndarray,
                                          observable: np.ndarray
                                          ) -> np.ndarray:
        """Row-wise ``Re <O, rho_b (x) rho_a>`` of a product state; ``(batch,)``.

        ``observable`` acts on the two registers together, register A being
        the low-order (fast) factor of its index: seen as a
        ``(d_b, d_a, d_b, d_a)`` tensor, row ``i`` of the result is
        ``Re sum conj(O[p, q, r, s]) rho_b[i, p, r] rho_a[i, q, s]``.  The
        Kronecker product is never formed: register A is contracted against
        the observable in one matmul, and the remainder against ``rho_b``
        elementwise.  This is the readout of the factorized noisy sweep,
        where ``O`` is the ancilla-0 block of a compiled
        :meth:`~repro.quantum.compiler.CircuitCompiler.dual_observable`.
        """
        rhos_b = np.asarray(rhos_b, dtype=self.dtype)
        rhos_a = np.asarray(rhos_a, dtype=self.dtype)
        observable = np.asarray(observable, dtype=self.dtype)
        for rhos in (rhos_b, rhos_a):
            if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
                raise ValueError("a density batch must be (batch, d, d)")
        if rhos_a.shape[0] != rhos_b.shape[0]:
            raise ValueError("the two density batches differ in batch size")
        batch, dim_b, dim_a = rhos_b.shape[0], rhos_b.shape[1], rhos_a.shape[1]
        if observable.shape != (dim_b * dim_a, dim_b * dim_a):
            raise ValueError("observable shape does not match the registers")
        # kernel[(q, s), (p, r)] = conj(O[p, q, r, s])
        kernel = np.ascontiguousarray(
            observable.reshape(dim_b, dim_a, dim_b, dim_a)
            .transpose(1, 3, 0, 2).conj()
        ).reshape(dim_a * dim_a, dim_b * dim_b)
        partial = rhos_a.reshape(batch, -1) @ kernel
        return np.real(np.sum(partial * rhos_b.reshape(batch, -1), axis=1))

    # ------------------------------------------------- member-stacked programs
    def _validated_member_stack(self, stack: np.ndarray,
                                ndim: int) -> np.ndarray:
        stack = np.asarray(stack, dtype=self.dtype)
        if stack.ndim != ndim:
            raise ValueError(
                f"a member stack must be {ndim}-D with a leading member axis; "
                f"got shape {stack.shape}"
            )
        return stack

    def apply_compiled_unitary_member_batch(self, states: np.ndarray,
                                            unitaries: np.ndarray) -> np.ndarray:
        """Apply per-member fused unitaries to a stacked state batch.

        ``states`` is ``(members, batch, dim)`` -- one state batch per ensemble
        member -- and ``unitaries`` the ``(members, dim, dim)`` stack of their
        encoder unitaries.
        Row ``(m, b)`` of the result is ``U_m |psi_{m,b}>``: the whole
        ensemble sweep step in one dispatch.  The default chains
        :meth:`apply_unitary_batch` per member so every backend inherits the
        primitive; array backends override with one batched contraction.
        """
        states = self._validated_member_stack(states, 3)
        unitaries = self._validated_member_stack(unitaries, 3)
        if (unitaries.shape[0] != states.shape[0]
                or unitaries.shape[1:] != (states.shape[2], states.shape[2])):
            raise ValueError("unitary stack does not match the state stack")
        return np.stack([self.apply_unitary_batch(states[m], unitaries[m])
                         for m in range(states.shape[0])])

    def apply_compiled_superoperator_member_batch(self, rhos: np.ndarray,
                                                  program) -> np.ndarray:
        """Run a member-stacked channel program over a stacked density batch.

        ``rhos`` is ``(members, batch, d, d)`` and ``program`` a
        :class:`repro.quantum.compiler.MemberStackedProgram` (or any iterable
        of member-stacked operators): the structure is shared, member ``m``'s
        parameters live in ``operator.matrices[m]``.  The default dispatches
        each member's slice through the exact single-member kernels
        (:meth:`apply_gate_density_batch` /
        :meth:`apply_superoperator_density_batch`), which keeps the results
        bitwise identical to a serial per-member replay; on-device backends
        can override with one cross-member batched kernel per operator.
        """
        rhos = self._validated_member_stack(rhos, 4)
        if rhos.shape[2] != rhos.shape[3]:
            raise ValueError("a stacked density batch must be (members, "
                             "batch, d, d)")
        members = rhos.shape[0]
        operators = tuple(getattr(program, "operators", program))
        for operator in operators:
            if operator.matrices.shape[0] != members:
                raise ValueError("operator stack does not match the member "
                                 "count of the density stack")
        results = []
        for m in range(members):
            rho_m = rhos[m]
            for operator in operators:
                matrix = operator.matrices[m]
                if operator.kind == "unitary":
                    rho_m = self.apply_gate_density_batch(rho_m, matrix,
                                                          operator.qubits)
                else:
                    rho_m = self.apply_superoperator_density_batch(
                        rho_m, matrix, operator.qubits)
            results.append(rho_m)
        return np.stack(results)

    def observable_expectation_density_member_batch(self, rhos: np.ndarray,
                                                    observables: np.ndarray
                                                    ) -> np.ndarray:
        """Member-stacked Hilbert-Schmidt expectations; ``(members, batch)``.

        ``rhos`` is ``(members, batch, d, d)`` and ``observables`` the
        compiler's ``(members, d, d)`` stacked Heisenberg observables: entry
        ``(m, b)`` is ``Re <O_m, rho_{m,b}>``, i.e. one whole ensemble level
        step against the stacked density checkpoints.  The default chains
        :meth:`observable_expectation_density_batch` per member.
        """
        rhos = self._validated_member_stack(rhos, 4)
        observables = self._validated_member_stack(observables, 3)
        if (observables.shape[0] != rhos.shape[0]
                or observables.shape[1:] != rhos.shape[2:]):
            raise ValueError("observable stack does not match the density "
                             "stack")
        return np.stack([
            self.observable_expectation_density_batch(rhos[m], observables[m])
            for m in range(rhos.shape[0])
        ])

    def reset_qubit_density_batch(self, rhos: np.ndarray,
                                  qubit: int) -> np.ndarray:
        """Non-selectively reset one qubit of every density matrix to |0>.

        Default implementation routes through
        :meth:`apply_superoperator_density_batch` with the reset channel's
        superoperator (Kraus operators ``|0><0|`` and ``|0><1|``); backends can
        override with a direct partial-trace kernel.
        """
        zero_zero = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=self.dtype)
        zero_one = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=self.dtype)
        superop = (np.kron(zero_zero, zero_zero.conj())
                   + np.kron(zero_one, zero_one.conj()))
        return self.apply_superoperator_density_batch(rhos, superop, [qubit])

    def compression_overlap_levels(self, states: np.ndarray,
                                   levels: Sequence[int]) -> np.ndarray:
        """Autoencoder survival overlaps for several compression levels at once.

        For ``|phi_i>`` rows of ``states`` and each level ``k`` in ``levels``,
        computes ``sum_s |<phi_i[:, 0], phi_i[:, s]>|^2`` over the ``2^k`` reset
        patterns ``s`` (little-endian low qubits) -- the quantity the analytic
        SWAP-test reduction needs.  Returns shape ``(len(levels), batch)``.
        Level 0 yields 1 for normalized states.  ``|phi>`` is computed once by
        the caller, so a whole level sweep shares one encoder application.
        """
        states = self.as_states(states)
        batch, dim = states.shape
        overlaps = np.empty((len(levels), batch))
        for position, level in enumerate(levels):
            if level == 0:
                overlaps[position] = np.ones(batch)
                continue
            reset_dim = 2 ** int(level)
            if reset_dim > dim:
                raise ValueError(f"compression level {level} exceeds the register")
            kept_dim = dim // reset_dim
            # Little-endian: the reset qubits are the low-order bits, i.e. the
            # fastest-varying axis after reshaping.
            tensor = states.reshape(-1, kept_dim, reset_dim)
            reference = tensor[:, :, 0]
            inner = np.einsum("nk,nks->ns", reference.conj(), tensor)
            overlaps[position] = np.sum(np.abs(inner) ** 2, axis=1)
        return overlaps

    # ----------------------------------------------------------------- helpers
    #: Byte budget of one member block of :meth:`member_unitaries_from_instructions`:
    #: members are walked in blocks whose unitaries fit in this many bytes, so
    #: the walk's temporaries stay the same size at any member count or width.
    MEMBER_WALK_BLOCK_BYTES = 4 << 20

    def unitary_from_instructions(
            self, instructions: Sequence[Tuple[np.ndarray, Sequence[int]]],
            num_qubits: int) -> np.ndarray:
        """Dense unitary of a gate sequence.

        The one-member case of :meth:`member_unitaries_from_instructions`.
        """
        return self.member_unitaries_from_instructions(
            [(np.asarray(gate)[None], qubits) for gate, qubits in instructions],
            num_qubits,
        )[0]

    def member_unitaries_from_instructions(
            self, instructions: Sequence[Tuple[np.ndarray, Sequence[int]]],
            num_qubits: int) -> np.ndarray:
        """Dense unitaries of a member-stacked gate sequence, in one walk.

        Each ``(gates, qubits)`` pair holds either a ``(members, 2^k, 2^k)``
        stack of per-member gates or a ``(1, 2^k, 2^k)`` gate shared by every
        member.  Each member's identity rows form a batch of basis states, and
        every gate position is applied to all members with one stacked
        ``np.matmul`` laid out exactly like
        :func:`~repro.quantum.statevector.apply_unitary_to_tensor`'s
        contraction, so each member's slice runs the same BLAS call as a walk
        of that member alone.  Row ``i`` of member ``m`` ends as
        ``U_m |i>``; the result is the ``(members, 2^n, 2^n)`` stack of
        ``U_m``.
        """
        dim = 2 ** num_qubits
        steps = []
        for gates, qubits in instructions:
            gates = np.asarray(gates, dtype=self.dtype)
            qubits = [int(qubit) for qubit in qubits]
            size = 2 ** len(qubits)
            if gates.ndim != 3 or gates.shape[1:] != (size, size):
                raise ValueError(
                    f"gate stack shape {gates.shape} does not match "
                    f"{len(qubits)} target qubits"
                )
            steps.append((gates, qubits))
        members = max([gates.shape[0] for gates, _ in steps], default=1)
        if any(gates.shape[0] not in (1, members) for gates, _ in steps):
            raise ValueError("every gate stack needs one gate per member, or "
                             "one gate shared by all")
        block = max(1, self.MEMBER_WALK_BLOCK_BYTES
                    // (dim * dim * self.dtype.itemsize))
        unitaries = np.empty((members, dim, dim), dtype=self.dtype)
        identity = np.eye(dim, dtype=self.dtype)
        for start in range(0, members, block):
            stop = min(start + block, members)
            rows = np.broadcast_to(identity, (stop - start, dim, dim))
            for gates, qubits in steps:
                if gates.shape[0] > 1:
                    gates = gates[start:stop]
                rows = _apply_member_gates(rows, gates, qubits, num_qubits)
            unitaries[start:stop] = np.swapaxes(rows, 1, 2)
        return unitaries

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _apply_member_gates(rows: np.ndarray, gates: np.ndarray,
                        qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Apply ``gates[m]`` to ``qubits`` of every row of member ``m``.

    ``rows`` is ``(members, batch, 2**n)``.  The operand is transposed and
    reshaped exactly as ``np.tensordot`` does inside
    :func:`~repro.quantum.statevector.apply_unitary_to_tensor` (target axes
    first, then the batch and remaining axes in order), so every member's
    slice is the same ``2^k x N`` product the one-member kernel computes.
    """
    members, batch = rows.shape[0], rows.shape[1]
    k = len(qubits)
    tensor = rows.reshape((members, batch) + (2,) * num_qubits)
    state_axes = [2 + num_qubits - 1 - q for q in reversed(qubits)]
    free_axes = [axis for axis in range(1, num_qubits + 2)
                 if axis not in state_axes]
    operand = tensor.transpose([0] + state_axes + free_axes).reshape(
        members, 2 ** k, -1)
    product = np.matmul(gates, operand).reshape(
        (members,) + (2,) * k + tuple(tensor.shape[axis] for axis in free_axes))
    moved = np.moveaxis(product, range(1, k + 1), state_axes)
    return np.ascontiguousarray(moved).reshape(members, batch, -1)


class NumpyBackend(SimulationBackend):
    """Reference implementation: one ``np.einsum`` contraction per primitive."""

    name = "numpy"

    # ------------------------------------------------------------ statevectors
    def zero_states(self, batch_size: int, num_qubits: int) -> np.ndarray:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        states = np.zeros((batch_size, 2 ** num_qubits), dtype=self.dtype)
        states[:, 0] = 1.0
        return states

    def as_states(self, amplitudes: np.ndarray) -> np.ndarray:
        states = np.asarray(amplitudes, dtype=self.dtype)
        if states.ndim != 2:
            raise ValueError("a state batch must be 2-D (batch, 2**n)")
        return states

    def _num_qubits(self, dim: int) -> int:
        num_qubits = int(np.log2(dim)) if dim else 0
        if 2 ** num_qubits != dim:
            raise ValueError(f"state dimension {dim} is not a power of two")
        return num_qubits

    def apply_gate_batch(self, states: np.ndarray, gate: np.ndarray,
                         qubits: Sequence[int]) -> np.ndarray:
        states = self.as_states(states)
        batch, dim = states.shape
        num_qubits = self._num_qubits(dim)
        qubits = list(qubits)
        k = len(qubits)
        gate = np.asarray(gate, dtype=self.dtype)
        if gate.shape != (2 ** k, 2 ** k):
            raise ValueError(
                f"gate shape {gate.shape} does not match {k} target qubits"
            )
        tensor = states.reshape((batch,) + (2,) * num_qubits)
        # The shared tensordot kernel carries any axes outside the qubit block
        # through untouched, so offsetting by one turns the leading axis into a
        # batch axis and the whole batch contracts in one BLAS call.
        result = apply_unitary_to_tensor(tensor, gate, qubits, num_qubits,
                                         axis_offset=1)
        return np.ascontiguousarray(result).reshape(batch, dim)

    def apply_unitary_batch(self, states: np.ndarray,
                            unitary: np.ndarray) -> np.ndarray:
        states = self.as_states(states)
        unitary = np.asarray(unitary, dtype=self.dtype)
        if unitary.shape != (states.shape[1], states.shape[1]):
            raise ValueError("unitary shape does not match the state dimension")
        # Row i of the result is U |psi_i>.
        return states @ unitary.T

    def probability_one_batch(self, states: np.ndarray, qubit: int) -> np.ndarray:
        states = self.as_states(states)
        batch, dim = states.shape
        num_qubits = self._num_qubits(dim)
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        low = 2 ** qubit
        blocks = states.reshape(batch, dim // (2 * low), 2, low)
        return np.sum(np.abs(blocks[:, :, 1, :]) ** 2, axis=(1, 2))

    def collapse_qubit_batch(self, states: np.ndarray, qubit: int,
                             outcomes: np.ndarray,
                             reset_to_zero: bool = False) -> np.ndarray:
        states = self.as_states(states)
        batch, dim = states.shape
        num_qubits = self._num_qubits(dim)
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        outcomes = np.asarray(outcomes)
        if outcomes.shape != (batch,):
            raise ValueError("outcomes must hold one 0/1 value per state")
        low = 2 ** qubit
        blocks = states.reshape(batch, dim // (2 * low), 2, low).copy()
        ones = outcomes.astype(bool)
        blocks[~ones, :, 1, :] = 0.0
        if reset_to_zero:
            blocks[ones, :, 0, :] = blocks[ones, :, 1, :]
            blocks[ones, :, 1, :] = 0.0
        else:
            blocks[ones, :, 0, :] = 0.0
        collapsed = blocks.reshape(batch, dim)
        norms = np.linalg.norm(collapsed, axis=1, keepdims=True)
        if np.any(norms < 1e-15):
            raise RuntimeError("collapse produced a zero-norm state; the drawn "
                               "outcome had probability 0")
        return collapsed / norms

    def overlap_batch(self, states_a: np.ndarray,
                      states_b: np.ndarray) -> np.ndarray:
        states_a = self.as_states(states_a)
        states_b = self.as_states(states_b)
        if states_a.shape != states_b.shape:
            raise ValueError("state batches must have identical shapes")
        inner = np.einsum("bi,bi->b", states_a.conj(), states_b)
        return np.abs(inner) ** 2

    # --------------------------------------------------------- density matrices
    def density_from_states(self, states: np.ndarray) -> np.ndarray:
        states = self.as_states(states)
        return np.einsum("bi,bj->bij", states, states.conj())

    def apply_gate_density_batch(self, rhos: np.ndarray, gate: np.ndarray,
                                 qubits: Sequence[int]) -> np.ndarray:
        rhos = np.asarray(rhos, dtype=self.dtype)
        if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
            raise ValueError("a density batch must be (batch, d, d)")
        batch, dim = rhos.shape[0], rhos.shape[1]
        num_qubits = self._num_qubits(dim)
        qubits = list(qubits)
        k = len(qubits)
        gate = np.asarray(gate, dtype=self.dtype)
        if gate.shape != (2 ** k, 2 ** k):
            raise ValueError("gate shape does not match the target qubits")
        tensor = rhos.reshape((batch,) + (2,) * (2 * num_qubits))
        # U on the row indices, conj(U) on the column indices; the leading axis
        # stays a batch axis in both contractions.
        tensor = apply_unitary_to_tensor(tensor, gate, qubits, num_qubits,
                                         axis_offset=1)
        tensor = apply_unitary_to_tensor(tensor, np.conj(gate), qubits,
                                         num_qubits,
                                         axis_offset=1 + num_qubits)
        return np.ascontiguousarray(tensor).reshape(batch, dim, dim)

    def evolve_density_batch(self, rhos: np.ndarray,
                             unitary: np.ndarray) -> np.ndarray:
        rhos = np.asarray(rhos, dtype=self.dtype)
        unitary = np.asarray(unitary, dtype=self.dtype)
        if rhos.ndim != 3 or unitary.shape != rhos.shape[1:]:
            raise ValueError("unitary shape does not match the density batch")
        return unitary @ rhos @ unitary.conj().T

    def reset_low_qubits_density_batch(self, rhos: np.ndarray,
                                       num_reset: int) -> np.ndarray:
        rhos = np.asarray(rhos, dtype=self.dtype)
        if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
            raise ValueError("a density batch must be (batch, d, d)")
        if num_reset == 0:
            return rhos.copy()
        batch, dim = rhos.shape[0], rhos.shape[1]
        num_qubits = self._num_qubits(dim)
        if not 0 <= num_reset <= num_qubits:
            raise ValueError("num_reset out of range")
        reset_dim = 2 ** num_reset
        kept_dim = dim // reset_dim
        # Little-endian: the reset qubits are the fastest-varying index block.
        blocks = rhos.reshape(batch, kept_dim, reset_dim, kept_dim, reset_dim)
        traced = np.einsum("bksls->bkl", blocks)
        result = np.zeros_like(blocks)
        result[:, :, 0, :, 0] = traced
        return result.reshape(batch, dim, dim)

    def expectation_batch(self, rhos: np.ndarray,
                          states: np.ndarray) -> np.ndarray:
        rhos = np.asarray(rhos, dtype=self.dtype)
        states = self.as_states(states)
        if rhos.ndim != 3 or rhos.shape[:2] != states.shape:
            raise ValueError("density batch does not match the state batch")
        values = np.einsum("bi,bij,bj->b", states.conj(), rhos, states)
        return np.real(values)

    def _validated_density_batch(self, rhos: np.ndarray) -> Tuple[np.ndarray, int]:
        rhos = np.asarray(rhos, dtype=self.dtype)
        if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
            raise ValueError("a density batch must be (batch, d, d)")
        return rhos, self._num_qubits(rhos.shape[1])

    def _apply_matrices_to_axes(self, tensor: np.ndarray, matrices: np.ndarray,
                                target_axes: Sequence[int]) -> np.ndarray:
        """Contract ``matrices[b]`` with the ``target_axes`` of batch entry ``b``.

        ``target_axes`` are flattened most-significant-first into one index of
        size ``matrices.shape[-1]``; the contraction runs as one batched GEMM
        (``matmul``), which is substantially faster than ``einsum`` for the
        many-rows-times-tiny-matrix shapes this produces.
        """
        k = len(target_axes)
        ndim = tensor.ndim
        moved = np.moveaxis(tensor, target_axes, range(ndim - k, ndim))
        lead_shape = moved.shape[: ndim - k]
        local_dim = matrices.shape[-1]
        flat = moved.reshape(moved.shape[0], -1, local_dim)
        # out[b, r, i] = sum_j matrices[b, i, j] * flat[b, r, j]
        out = np.matmul(flat, np.swapaxes(matrices, -1, -2))
        out = out.reshape(lead_shape + (2,) * k)
        return np.moveaxis(out, range(ndim - k, ndim), target_axes)

    def _apply_gates_to_axes(self, tensor: np.ndarray, gates: np.ndarray,
                             qubits: Sequence[int], num_qubits: int,
                             axis_offset: int) -> np.ndarray:
        """Per-batch-entry gate application on one axes block of ``tensor``.

        Same index conventions as
        :func:`repro.quantum.statevector.apply_unitary_to_tensor` (the gate's
        row/column index treats the first listed qubit as the least-significant
        bit), but contracting ``gates[b]`` with batch entry ``b``.
        """
        state_axes = [axis_offset + num_qubits - 1 - q for q in reversed(qubits)]
        return self._apply_matrices_to_axes(tensor, gates, state_axes)

    def apply_gates_density_batch(self, rhos: np.ndarray, gates: np.ndarray,
                                  qubits: Sequence[int]) -> np.ndarray:
        rhos, num_qubits = self._validated_density_batch(rhos)
        batch, dim = rhos.shape[0], rhos.shape[1]
        qubits = list(qubits)
        k = len(qubits)
        gates = np.asarray(gates, dtype=self.dtype)
        if gates.shape != (batch, 2 ** k, 2 ** k):
            raise ValueError(
                f"per-sample gates must have shape (batch, 2^k, 2^k); got "
                f"{gates.shape} for {k} target qubits and batch {batch}"
            )
        tensor = rhos.reshape((batch,) + (2,) * (2 * num_qubits))
        tensor = self._apply_gates_to_axes(tensor, gates, qubits, num_qubits,
                                           axis_offset=1)
        tensor = self._apply_gates_to_axes(tensor, np.conj(gates), qubits,
                                           num_qubits,
                                           axis_offset=1 + num_qubits)
        return np.ascontiguousarray(tensor).reshape(batch, dim, dim)

    def apply_superoperator_density_batch(self, rhos: np.ndarray,
                                          superoperator: np.ndarray,
                                          qubits: Sequence[int]) -> np.ndarray:
        rhos, num_qubits = self._validated_density_batch(rhos)
        batch, dim = rhos.shape[0], rhos.shape[1]
        qubits = list(qubits)
        k = len(qubits)
        local_dim = 2 ** k
        superoperator = np.asarray(superoperator, dtype=self.dtype)
        if superoperator.shape != (local_dim ** 2, local_dim ** 2):
            raise ValueError("superoperator shape does not match the qubit count")
        tensor = rhos.reshape((batch,) + (2,) * (2 * num_qubits))
        # Combined (row, column) axes of the targeted qubits, most significant
        # first, offset by one for the leading batch axis -- the batched twin of
        # DensityMatrix.apply_superoperator.
        row_axes = [1 + num_qubits - 1 - q for q in reversed(qubits)]
        col_axes = [1 + 2 * num_qubits - 1 - q for q in reversed(qubits)]
        target_axes = row_axes + col_axes
        superop_tensor = superoperator.reshape((2,) * (4 * k))
        input_axes = list(range(2 * k, 4 * k))
        moved = np.tensordot(superop_tensor, tensor, axes=(input_axes, target_axes))
        # tensordot puts the channel's output axes first and the surviving axes
        # (batch first) after them; moving the outputs back also restores the
        # batch axis to the front.
        moved = np.moveaxis(moved, range(2 * k), target_axes)
        return np.ascontiguousarray(moved).reshape(batch, dim, dim)

    def apply_superoperators_density_batch(self, rhos: np.ndarray,
                                           superoperators: np.ndarray,
                                           qubits: Sequence[int]) -> np.ndarray:
        rhos, num_qubits = self._validated_density_batch(rhos)
        batch, dim = rhos.shape[0], rhos.shape[1]
        qubits = list(qubits)
        k = len(qubits)
        local_dim = 2 ** k
        superoperators = np.asarray(superoperators, dtype=self.dtype)
        if superoperators.shape != (batch, local_dim ** 2, local_dim ** 2):
            raise ValueError(
                "per-sample superoperators must have shape (batch, d^2, d^2)"
            )
        tensor = rhos.reshape((batch,) + (2,) * (2 * num_qubits))
        row_axes = [1 + num_qubits - 1 - q for q in reversed(qubits)]
        col_axes = [1 + 2 * num_qubits - 1 - q for q in reversed(qubits)]
        # Row block first, most-significant qubit first inside each block --
        # the same (row, column) flattening kraus_to_superoperator uses.
        tensor = self._apply_matrices_to_axes(tensor, superoperators,
                                              row_axes + col_axes)
        return np.ascontiguousarray(tensor).reshape(batch, dim, dim)

    def reset_qubit_density_batch(self, rhos: np.ndarray,
                                  qubit: int) -> np.ndarray:
        rhos, num_qubits = self._validated_density_batch(rhos)
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        batch, dim = rhos.shape[0], rhos.shape[1]
        low = 2 ** qubit
        high = dim // (2 * low)
        blocks = rhos.reshape(batch, high, 2, low, high, 2, low)
        result = np.zeros_like(blocks)
        # Partial trace over the reset qubit, re-embedded in its |0> subspace.
        result[:, :, 0, :, :, 0, :] = (blocks[:, :, 0, :, :, 0, :]
                                       + blocks[:, :, 1, :, :, 1, :])
        return result.reshape(batch, dim, dim)

    def probability_one_density_batch(self, rhos: np.ndarray,
                                      qubit: int) -> np.ndarray:
        rhos, num_qubits = self._validated_density_batch(rhos)
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        batch, dim = rhos.shape[0], rhos.shape[1]
        low = 2 ** qubit
        diagonal = np.real(np.einsum("bii->bi", rhos))
        blocks = diagonal.reshape(batch, dim // (2 * low), 2, low)
        return np.sum(blocks[:, :, 1, :], axis=(1, 2))

    # ------------------------------------------------- member-stacked programs
    # The batched overrides below are chosen so each member's slice runs the
    # SAME per-slice BLAS call as the single-member kernel: ``np.matmul`` on
    # stacked operands dispatches one GEMM/GEMV per leading-axis entry, so the
    # fused ensemble dispatch stays bitwise identical to the serial per-member
    # loop (asserted by the executor determinism suite).
    def apply_compiled_unitary_member_batch(self, states: np.ndarray,
                                            unitaries: np.ndarray) -> np.ndarray:
        states = self._validated_member_stack(states, 3)
        unitaries = self._validated_member_stack(unitaries, 3)
        if (unitaries.shape[0] != states.shape[0]
                or unitaries.shape[1:] != (states.shape[2], states.shape[2])):
            raise ValueError("unitary stack does not match the state stack")
        # Row (m, b) of the result is U_m |psi_{m,b}>.
        return np.matmul(states, np.swapaxes(unitaries, -1, -2))

    def observable_expectation_density_member_batch(self, rhos: np.ndarray,
                                                    observables: np.ndarray
                                                    ) -> np.ndarray:
        rhos = self._validated_member_stack(rhos, 4)
        observables = self._validated_member_stack(observables, 3)
        if (observables.shape[0] != rhos.shape[0]
                or observables.shape[1:] != rhos.shape[2:]):
            raise ValueError("observable stack does not match the density "
                             "stack")
        members, batch = rhos.shape[0], rhos.shape[1]
        flat = rhos.reshape(members, batch, -1)
        vecs = observables.conj().reshape(members, -1, 1)
        return np.real(np.matmul(flat, vecs)[..., 0])


class NumpyFloat32Backend(NumpyBackend):
    """Single-precision variant of the reference backend.

    States and density matrices are held in ``complex64`` and every kernel runs
    in single precision, validating the backend plug point beyond the reference
    implementation (and halving memory traffic).  Probability-valued reductions
    are cast back to ``float64`` so downstream scoring code sees the usual
    result dtype; accuracy is limited to roughly ``1e-6`` on the small registers
    Quorum uses, which the cross-validation tests assert explicitly.
    """

    name = "numpy-float32"
    dtype: np.dtype = np.dtype(np.complex64)

    def probability_one_batch(self, states: np.ndarray, qubit: int) -> np.ndarray:
        return super().probability_one_batch(states, qubit).astype(np.float64)

    def overlap_batch(self, states_a: np.ndarray,
                      states_b: np.ndarray) -> np.ndarray:
        return super().overlap_batch(states_a, states_b).astype(np.float64)

    def expectation_batch(self, rhos: np.ndarray,
                          states: np.ndarray) -> np.ndarray:
        return super().expectation_batch(rhos, states).astype(np.float64)

    def probability_one_density_batch(self, rhos: np.ndarray,
                                      qubit: int) -> np.ndarray:
        return super().probability_one_density_batch(rhos, qubit).astype(np.float64)

    def observable_expectation_density_batch(self, rhos: np.ndarray,
                                             observable: np.ndarray
                                             ) -> np.ndarray:
        return super().observable_expectation_density_batch(
            rhos, observable).astype(np.float64)

    def product_expectation_density_batch(self, rhos_b: np.ndarray,
                                          rhos_a: np.ndarray,
                                          observable: np.ndarray
                                          ) -> np.ndarray:
        return super().product_expectation_density_batch(
            rhos_b, rhos_a, observable).astype(np.float64)

    def observable_expectation_density_member_batch(self, rhos: np.ndarray,
                                                    observables: np.ndarray
                                                    ) -> np.ndarray:
        return super().observable_expectation_density_member_batch(
            rhos, observables).astype(np.float64)


_REGISTRY: Dict[str, Callable[[], SimulationBackend]] = {}


def register_simulation_backend(name: str,
                                factory: Callable[[], SimulationBackend]) -> None:
    """Register a backend factory under ``name`` (lowercased)."""
    _REGISTRY[name.lower()] = factory


def available_simulation_backends() -> Tuple[str, ...]:
    """Names of all registered simulation backends."""
    return tuple(sorted(_REGISTRY))


def get_simulation_backend(
        backend: Optional[Union[str, SimulationBackend]] = None
) -> SimulationBackend:
    """Resolve a backend name or instance; ``None`` means the numpy default."""
    if backend is None:
        backend = "numpy"
    if isinstance(backend, SimulationBackend):
        return backend
    key = str(backend).lower()
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"available: {', '.join(available_simulation_backends())}"
        )
    return _REGISTRY[key]()


register_simulation_backend("numpy", NumpyBackend)
register_simulation_backend("numpy-float32", NumpyFloat32Backend)
