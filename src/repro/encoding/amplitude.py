"""Amplitude encoding with an overflow state (Section IV-B of the paper).

A sample's (normalized, feature-selected) values are squared to obtain
probabilities; whatever probability mass is missing to reach 1 is assigned to the
*overflow state*, the last computational basis state.  The square roots of those
probabilities are the amplitudes of the encoded quantum state.

Two encoding routes are provided:

* :func:`state_preparation_circuit` synthesizes an explicit gate-level circuit
  (multiplexed RY rotations + CX) preparing the state -- this is what the paper's
  "amplitude embedding" compiles to and what the noisy simulations consume.
  Its gates come from :func:`state_preparation_schedule`, the vectorized angle
  schedule of a whole batch of rows, which the batched noisy kernel runs
  directly without building circuits.
* ``QuantumCircuit.initialize`` consumes the amplitudes directly; the simulators
  treat it as an exact state preparation (faster, used for noiseless sweeps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.circuit import QuantumCircuit

__all__ = [
    "amplitude_probabilities",
    "amplitudes_from_features",
    "state_preparation_circuit",
    "state_preparation_schedule",
    "PreparationStep",
    "AmplitudeEncoder",
]

_TOLERANCE = 1e-9


def amplitude_probabilities(features: Sequence[float], num_qubits: int) -> np.ndarray:
    """Squared features padded with the overflow state, as a probability vector.

    Parameters
    ----------
    features:
        At most ``2**num_qubits - 1`` normalized feature values in ``[0, 1]`` whose
        squares sum to at most 1.
    num_qubits:
        Size of the target register.

    Returns
    -------
    numpy.ndarray
        Length ``2**num_qubits`` probability vector; the last entry is the overflow
        probability.
    """
    features = np.asarray(features, dtype=float).ravel()
    dim = 2 ** num_qubits
    if features.shape[0] > dim - 1:
        raise ValueError(
            f"{features.shape[0]} features do not fit in {num_qubits} qubits "
            f"(at most {dim - 1} plus the overflow state)"
        )
    if np.any(features < -_TOLERANCE):
        raise ValueError("features must be non-negative after normalization")
    probabilities = np.zeros(dim, dtype=float)
    probabilities[: features.shape[0]] = np.clip(features, 0.0, None) ** 2
    total = probabilities.sum()
    if total > 1.0 + 1e-6:
        raise ValueError(
            f"squared features sum to {total:.6f} > 1; normalize the data first"
        )
    probabilities[-1] += max(1.0 - total, 0.0)
    return probabilities / probabilities.sum()


def amplitudes_from_features(features: Sequence[float], num_qubits: int) -> np.ndarray:
    """Amplitude vector (square roots of :func:`amplitude_probabilities`)."""
    return np.sqrt(amplitude_probabilities(features, num_qubits))


class PreparationStep(NamedTuple):
    """One gate column of the batched Mottonen state-preparation schedule.

    ``name`` is ``"ry"`` or ``"cx"``; ``qubits`` are the gate's qubits (target
    for RY, ``(control, target)`` for CX).  For an RY column, ``angles`` holds
    one rotation angle per row and ``active`` marks the rows whose circuit
    keeps the gate: a rotation with ``|angle| <= _TOLERANCE`` is dropped from
    that row's circuit entirely (no gate, and so no gate noise).  CX columns
    carry ``None`` for both and apply to every row.
    """

    name: str
    qubits: Tuple[int, ...]
    angles: Optional[np.ndarray]
    active: Optional[np.ndarray]


def _conditional_angles(probabilities: np.ndarray, target_qubit: int,
                        num_qubits: int) -> np.ndarray:
    """RY angles of the multiplexor acting on ``target_qubit``, per row.

    The multiplexor is controlled by all more-significant qubits
    (``target_qubit + 1 .. num_qubits - 1``); column ``m`` of the returned
    ``(rows, 2**controls)`` array is the angle used when those controls read
    the little-endian pattern ``m``.
    """
    num_controls = num_qubits - 1 - target_qubit
    # Basis index = low bits + 2^t * target bit + 2^(t+1) * control pattern.
    blocks = probabilities.reshape(probabilities.shape[0], 2 ** num_controls,
                                   2, 2 ** target_qubit)
    prob_zero = blocks[:, :, 0, :].sum(axis=2)
    prob_one = blocks[:, :, 1, :].sum(axis=2)
    angles = 2.0 * np.arctan2(np.sqrt(prob_one), np.sqrt(prob_zero))
    angles[prob_zero + prob_one < _TOLERANCE] = 0.0
    return angles


def _multiplexed_ry_steps(steps: List[PreparationStep], angles: np.ndarray,
                          controls: Sequence[int], target: int) -> None:
    """Recursively decompose a uniformly controlled RY into RY and CX columns."""
    if angles.shape[1] != 2 ** len(controls):
        raise ValueError("angle count must be 2**len(controls)")
    if not controls:
        column = angles[:, 0]
        steps.append(PreparationStep("ry", (target,), column,
                                     np.abs(column) > _TOLERANCE))
        return
    half = angles.shape[1] // 2
    low = angles[:, :half]   # most-significant control = 0
    high = angles[:, half:]  # most-significant control = 1
    last_control = controls[-1]
    _multiplexed_ry_steps(steps, (low + high) / 2.0, controls[:-1], target)
    steps.append(PreparationStep("cx", (last_control, target), None, None))
    _multiplexed_ry_steps(steps, (low - high) / 2.0, controls[:-1], target)
    steps.append(PreparationStep("cx", (last_control, target), None, None))


def state_preparation_schedule(amplitudes: np.ndarray,
                               num_qubits: int) -> List[PreparationStep]:
    """Gate schedule of the Mottonen preparation for a batch of amplitude rows.

    ``amplitudes`` is a ``(rows, 2**num_qubits)`` array of non-negative real
    amplitudes.  Every row shares the same column sequence -- an RY on the
    most significant qubit, then multiplexed RY rotations (RY and CX columns)
    working down to qubit 0 -- and differs only in its angles and in which
    near-zero rotations it drops.  This is the single source of the
    preparation: :func:`state_preparation_circuit` emits one row of it as
    gates, and the batched density-matrix kernel
    (:meth:`repro.quantum.simulator.BatchedDensityMatrixSimulator.prepare_batch`)
    runs all rows of it at once, so the two cannot drift apart.
    """
    probabilities = np.asarray(amplitudes, dtype=float) ** 2
    if probabilities.ndim != 2 or probabilities.shape[1] != 2 ** num_qubits:
        raise ValueError("amplitudes must be a (rows, 2**num_qubits) batch")
    steps: List[PreparationStep] = []
    for target in reversed(range(num_qubits)):
        controls = list(range(target + 1, num_qubits))
        angles = _conditional_angles(probabilities, target, num_qubits)
        _multiplexed_ry_steps(steps, angles, controls, target)
    return steps


def state_preparation_circuit(amplitudes: Sequence[float],
                              num_qubits: int = None) -> QuantumCircuit:
    """Gate-level preparation of a state with non-negative real amplitudes.

    Uses the Mottonen-style scheme: an RY rotation on the most significant qubit
    followed by multiplexed RY rotations working down to qubit 0.  Only
    non-negative real amplitudes are supported (which is all Quorum needs, since
    its amplitudes are square roots of probabilities).
    """
    amplitudes = np.asarray(amplitudes, dtype=float).ravel()
    if np.any(amplitudes < -_TOLERANCE):
        raise ValueError("state preparation supports non-negative amplitudes only")
    size = amplitudes.shape[0]
    inferred = int(round(math.log2(size)))
    if 2 ** inferred != size:
        raise ValueError(f"amplitude vector length {size} is not a power of two")
    if num_qubits is None:
        num_qubits = inferred
    elif num_qubits != inferred:
        raise ValueError("num_qubits inconsistent with the amplitude vector")
    norm = np.linalg.norm(amplitudes)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("amplitudes must be normalized")
    circuit = QuantumCircuit(num_qubits, 0 if num_qubits == 0 else num_qubits,
                             name="state_prep")
    for step in state_preparation_schedule(amplitudes[None, :], num_qubits):
        if step.name == "cx":
            circuit.cx(*step.qubits)
        elif step.active[0]:
            circuit.ry(step.angles[0], step.qubits[0])
    return circuit


@dataclass(frozen=True)
class AmplitudeEncoder:
    """Encoder bound to a register size, exposing both encoding routes.

    Attributes
    ----------
    num_qubits:
        Register size; ``2**num_qubits - 1`` features fit (plus overflow).
    """

    num_qubits: int

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("the encoder needs at least one qubit")

    @property
    def max_features(self) -> int:
        """Number of data features that fit alongside the overflow state."""
        return 2 ** self.num_qubits - 1

    def probabilities(self, features: Sequence[float]) -> np.ndarray:
        """Probability vector (squared features + overflow)."""
        return amplitude_probabilities(features, self.num_qubits)

    def amplitudes(self, features: Sequence[float]) -> np.ndarray:
        """Amplitude vector for the encoded state."""
        return amplitudes_from_features(features, self.num_qubits)

    def encoding_circuit(self, features: Sequence[float],
                         gate_level: bool = False) -> QuantumCircuit:
        """Circuit preparing the encoded state on a fresh register.

        Parameters
        ----------
        features:
            Normalized feature values.
        gate_level:
            When True, synthesize explicit RY/CX gates; otherwise emit a single
            ``initialize`` instruction (exact, faster to simulate).
        """
        amplitudes = self.amplitudes(features)
        if gate_level:
            return state_preparation_circuit(amplitudes, self.num_qubits)
        circuit = QuantumCircuit(self.num_qubits, self.num_qubits, name="amp_encode")
        circuit.initialize(amplitudes, list(range(self.num_qubits)))
        return circuit
