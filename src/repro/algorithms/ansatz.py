"""The random autoencoder ansatz (Fig. 5 of the paper).

The ansatz is a layered circuit of RX and RZ rotations followed by a linear chain
of CX gates.  Quorum never trains these angles: they are drawn uniformly from
``U(0, 2*pi)`` per ensemble member, and the decoder applies the exact inverse
(negated angles, reversed gate order), so that without the reset bottleneck the
encoder-decoder pair would be the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.backend import get_simulation_backend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import standard_gate_matrix

__all__ = ["RandomAutoencoderAnsatz", "encoder_gate_stacks",
           "hold_encoder_unitaries"]

_ENTANGLEMENTS = ("linear", "ring", "full")


@dataclass
class RandomAutoencoderAnsatz:
    """Randomly parameterized encoder/decoder pair.

    Parameters
    ----------
    num_qubits:
        Register size the ansatz acts on.
    num_layers:
        Number of rotation + entanglement blocks (the paper's Fig. 5 shows two).
    entanglement:
        CX pattern per block: ``"linear"`` chain, ``"ring"`` (chain plus wraparound),
        or ``"full"`` (all ordered pairs).
    seed:
        Seed for the angle-generating RNG; pass a fresh seed per ensemble member.
    """

    num_qubits: int
    num_layers: int = 2
    entanglement: str = "linear"
    seed: Optional[int] = None
    angles_: Optional[np.ndarray] = field(default=None, repr=False)
    _encoder_unitary: Optional[np.ndarray] = field(default=None, init=False,
                                                   repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("ansatz needs at least one qubit")
        if self.num_layers < 1:
            raise ValueError("ansatz needs at least one layer")
        if self.entanglement not in _ENTANGLEMENTS:
            raise ValueError(
                f"entanglement must be one of {_ENTANGLEMENTS}, got "
                f"{self.entanglement!r}"
            )
        if self.angles_ is None:
            rng = np.random.default_rng(self.seed)
            self.angles_ = rng.uniform(0.0, 2.0 * np.pi, size=self.num_parameters)
        else:
            self.angles_ = np.array(self.angles_, dtype=float)
            if self.angles_.shape != (self.num_parameters,):
                raise ValueError(
                    f"expected {self.num_parameters} angles, got {self.angles_.shape}"
                )
        # The held encoder unitary assumes the angles never change; freeze
        # them so a stale unitary cannot be produced by in-place mutation (use
        # with_new_angles for a fresh draw).
        self.angles_.setflags(write=False)

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable; re-freeze what __post_init__
        # and hold_encoder_unitaries froze.
        self.__dict__.update(state)
        for array in (self.angles_, self._encoder_unitary):
            if array is not None:
                array.setflags(write=False)

    # ------------------------------------------------------------------ layout
    @property
    def structure(self) -> Tuple[int, int, str]:
        """``(num_qubits, num_layers, entanglement)``: ansatzes with equal
        structures share one gate layout and differ only in their angles."""
        return (self.num_qubits, self.num_layers, self.entanglement)

    @property
    def num_parameters(self) -> int:
        """Two rotations (RX, RZ) per qubit per layer."""
        return 2 * self.num_qubits * self.num_layers

    def _entangling_pairs(self) -> List[Tuple[int, int]]:
        if self.entanglement == "linear":
            return [(q, q + 1) for q in range(self.num_qubits - 1)]
        if self.entanglement == "ring":
            pairs = [(q, q + 1) for q in range(self.num_qubits - 1)]
            if self.num_qubits > 2:
                pairs.append((self.num_qubits - 1, 0))
            return pairs
        return [(a, b) for a in range(self.num_qubits)
                for b in range(a + 1, self.num_qubits)]

    # ---------------------------------------------------------------- circuits
    def encoder_circuit(self, qubits: Optional[Sequence[int]] = None,
                        num_circuit_qubits: Optional[int] = None) -> QuantumCircuit:
        """The encoder ``E(theta)`` as a circuit on ``qubits``.

        Parameters
        ----------
        qubits:
            Physical qubits the ansatz acts on (defaults to ``0 .. num_qubits-1``).
        num_circuit_qubits:
            Total size of the returned circuit (defaults to the maximum target + 1).
        """
        qubits = list(qubits) if qubits is not None else list(range(self.num_qubits))
        if len(qubits) != self.num_qubits:
            raise ValueError("qubit list length must equal num_qubits")
        size = num_circuit_qubits if num_circuit_qubits is not None else max(qubits) + 1
        circuit = QuantumCircuit(size, size, name="encoder")
        angle_index = 0
        for _ in range(self.num_layers):
            for qubit in qubits:
                circuit.rx(float(self.angles_[angle_index]), qubit)
                angle_index += 1
            for qubit in qubits:
                circuit.rz(float(self.angles_[angle_index]), qubit)
                angle_index += 1
            for control, target in self._entangling_pairs():
                circuit.cx(qubits[control], qubits[target])
        return circuit

    def decoder_circuit(self, qubits: Optional[Sequence[int]] = None,
                        num_circuit_qubits: Optional[int] = None) -> QuantumCircuit:
        """The decoder ``D(theta) = E(theta)^-1`` (negated angles, reversed order)."""
        encoder = self.encoder_circuit(qubits, num_circuit_qubits)
        decoder = encoder.inverse()
        decoder.name = "decoder"
        return decoder

    def encoder_unitary(self) -> np.ndarray:
        """Dense unitary of the encoder on its own ``num_qubits`` register.

        The matrix is held on the ansatz: built once per ensemble member
        (usually for the whole ensemble at planning time by
        :func:`hold_encoder_unitaries`, otherwise here as a one-member walk)
        and marked read-only.  The angles are immutable after construction,
        so every engine and every compression level reuses the same ``E``.
        """
        if self._encoder_unitary is None:
            hold_encoder_unitaries([self])
        return self._encoder_unitary

    def with_new_angles(self, seed: Optional[int] = None) -> "RandomAutoencoderAnsatz":
        """A fresh ansatz with the same structure but newly drawn random angles."""
        return RandomAutoencoderAnsatz(
            num_qubits=self.num_qubits,
            num_layers=self.num_layers,
            entanglement=self.entanglement,
            seed=seed,
        )


def hold_encoder_unitaries(ansatzes: Iterable[RandomAutoencoderAnsatz]) -> None:
    """Give every ansatz without one its encoder unitary.

    Ansatzes of one :attr:`~RandomAutoencoderAnsatz.structure` share the gate
    layout of their encoder circuit, so each structure group is built in ONE
    member-stacked gate walk
    (:meth:`~repro.quantum.backend.SimulationBackend.member_unitaries_from_instructions`):
    the CX positions are shared and the rotation positions stack each
    member's own gate.  The walk runs on the numpy reference backend on
    purpose -- the result is a tiny ``2^n x 2^n`` matrix per member that
    every simulation backend consumes as plain input -- and each member's
    slice is bitwise equal to a walk of that member alone.
    """
    groups: Dict[Tuple[int, int, str], List[RandomAutoencoderAnsatz]] = {}
    for ansatz in ansatzes:
        if ansatz._encoder_unitary is None:
            groups.setdefault(ansatz.structure, []).append(ansatz)
    backend = get_simulation_backend("numpy")
    for group in groups.values():
        unitaries = backend.member_unitaries_from_instructions(
            encoder_gate_stacks(group), group[0].num_qubits)
        unitaries.setflags(write=False)
        for ansatz, unitary in zip(group, unitaries):
            ansatz._encoder_unitary = unitary


def encoder_gate_stacks(group: Sequence[RandomAutoencoderAnsatz]
                        ) -> List[Tuple[np.ndarray, Tuple[int, ...]]]:
    """The member-stacked gate sequence of one structure group's encoders.

    The layout comes from the first member's encoder circuit: each CX
    position becomes one shared ``(1, 4, 4)`` gate, each rotation position a
    ``(members, 2, 2)`` stack of every member's own rotation.
    """
    if any(ansatz.structure != group[0].structure for ansatz in group):
        raise ValueError("a gate-stack group must share one ansatz structure")
    layout = group[0].encoder_circuit()
    instructions = []
    angle = 0
    for instruction in layout.instructions:
        if instruction.params:
            # encoder_circuit consumes angles_ in order, one per rotation.
            if instruction.params[0] != float(group[0].angles_[angle]):
                raise ValueError("encoder layout does not consume the angles "
                                 "in order")
            gates = np.stack([
                standard_gate_matrix(instruction.name,
                                     (float(ansatz.angles_[angle]),))
                for ansatz in group
            ])
            angle += 1
        else:
            gates = instruction.matrix_or_standard()[None]
        instructions.append((gates, tuple(instruction.qubits)))
    return instructions
