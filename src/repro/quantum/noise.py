"""Noise channels and the noise-model container used for noisy simulation.

The paper's noisy runs are modeled on IBM's Brisbane device using median calibration
figures (T1 = 230.42 us, T2 = 143.41 us, single-qubit SX error 2.274e-4, two-qubit
error 2.903e-3, readout error 1.38e-2).  :class:`NoiseModel` turns those figures
into per-gate Kraus channels plus a classical readout confusion matrix, which the
density-matrix simulator applies after every gate and at measurement time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.circuit import Instruction

__all__ = [
    "depolarizing_kraus",
    "amplitude_damping_kraus",
    "phase_damping_kraus",
    "thermal_relaxation_kraus",
    "bit_flip_kraus",
    "phase_flip_kraus",
    "ReadoutError",
    "QuantumError",
    "NoiseModel",
]

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def depolarizing_kraus(error_probability: float, num_qubits: int = 1) -> List[np.ndarray]:
    """Kraus operators of the ``num_qubits``-qubit depolarizing channel.

    With probability ``error_probability`` the state is replaced by the maximally
    mixed state; equivalently each non-identity Pauli string is applied with equal
    probability ``p / (4^n - 1)``.
    """
    if not 0.0 <= error_probability <= 1.0:
        raise ValueError("error probability must be in [0, 1]")
    labels = ["I", "X", "Y", "Z"]
    strings: List[str] = [""]
    for _ in range(num_qubits):
        strings = [s + p for s in strings for p in labels]
    num_paulis = len(strings)
    kraus: List[np.ndarray] = []
    uniform = error_probability / num_paulis
    for string in strings:
        weight = 1.0 - error_probability + uniform if string == "I" * num_qubits else uniform
        if weight <= 0.0:
            continue
        op = np.array([[1.0]], dtype=complex)
        # First character acts on the first (least-significant) qubit, so build the
        # tensor product with later characters on the left.
        for char in string:
            op = np.kron(_PAULIS[char], op)
        kraus.append(math.sqrt(weight) * op)
    return kraus


def amplitude_damping_kraus(gamma: float) -> List[np.ndarray]:
    """Amplitude-damping channel (energy relaxation toward |0>)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def phase_damping_kraus(lam: float) -> List[np.ndarray]:
    """Phase-damping (pure dephasing) channel."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)
    return [k0, k1]


def bit_flip_kraus(probability: float) -> List[np.ndarray]:
    """Bit-flip channel: X applied with the given probability."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    return [
        math.sqrt(1.0 - probability) * _PAULIS["I"],
        math.sqrt(probability) * _PAULIS["X"],
    ]


def phase_flip_kraus(probability: float) -> List[np.ndarray]:
    """Phase-flip channel: Z applied with the given probability."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    return [
        math.sqrt(1.0 - probability) * _PAULIS["I"],
        math.sqrt(probability) * _PAULIS["Z"],
    ]


def thermal_relaxation_kraus(t1: float, t2: float, gate_time: float) -> List[np.ndarray]:
    """Thermal relaxation over ``gate_time`` with relaxation times ``t1``/``t2``.

    Built by composing amplitude damping (rate from T1) with pure dephasing (rate
    from the T2 contribution in excess of the T1-induced dephasing).  Times may be
    in any unit as long as all three use the same one.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("T1 and T2 must be positive")
    if t2 > 2 * t1:
        raise ValueError("physically, T2 cannot exceed 2*T1")
    gamma = 1.0 - math.exp(-gate_time / t1)
    # Pure dephasing rate: 1/T_phi = 1/T2 - 1/(2 T1).
    t_phi_inverse = max(1.0 / t2 - 1.0 / (2.0 * t1), 0.0)
    lam = 1.0 - math.exp(-2.0 * gate_time * t_phi_inverse)
    damping = amplitude_damping_kraus(gamma)
    dephasing = phase_damping_kraus(lam)
    composed: List[np.ndarray] = []
    for k_damp in damping:
        for k_phase in dephasing:
            composed.append(k_phase @ k_damp)
    return composed


@dataclass(frozen=True)
class ReadoutError:
    """Classical measurement confusion probabilities for one qubit.

    Attributes
    ----------
    prob_1_given_0:
        Probability of reading 1 when the true state is 0.
    prob_0_given_1:
        Probability of reading 1 being reported as 0.
    """

    prob_1_given_0: float
    prob_0_given_1: float

    def __post_init__(self) -> None:
        for value in (self.prob_1_given_0, self.prob_0_given_1):
            if not 0.0 <= value <= 1.0:
                raise ValueError("readout error probabilities must be in [0, 1]")

    @classmethod
    def symmetric(cls, error_probability: float) -> "ReadoutError":
        """Readout error with the same flip probability in both directions."""
        return cls(error_probability, error_probability)

    def confusion_matrix(self) -> np.ndarray:
        """2x2 matrix M with M[observed, true] = P(observed | true)."""
        return np.array(
            [
                [1.0 - self.prob_1_given_0, self.prob_0_given_1],
                [self.prob_1_given_0, 1.0 - self.prob_0_given_1],
            ]
        )

    def apply_to_bit(self, bit: int, rng: np.random.Generator) -> int:
        """Flip a single measured bit according to the confusion probabilities."""
        if bit == 0:
            return 1 if rng.random() < self.prob_1_given_0 else 0
        return 0 if rng.random() < self.prob_0_given_1 else 1


@dataclass(frozen=True)
class QuantumError:
    """A gate error expressed as a list of Kraus operators.

    The equivalent superoperator is precomputed so that simulators can apply the
    whole channel with a single tensor contraction instead of one contraction pair
    per Kraus operator.
    """

    kraus_operators: Tuple[np.ndarray, ...]
    num_qubits: int
    superoperator: np.ndarray = field(default=None, compare=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.superoperator is None:
            dim = 2 ** self.num_qubits
            superop = np.zeros((dim * dim, dim * dim), dtype=complex)
            for kraus in self.kraus_operators:
                kraus = np.asarray(kraus, dtype=complex)
                superop += np.kron(kraus, np.conj(kraus))
            object.__setattr__(self, "superoperator", superop)

    @classmethod
    def from_kraus(cls, kraus_operators: Sequence[np.ndarray]) -> "QuantumError":
        """Build from Kraus operators, inferring the qubit count from their size."""
        first = np.asarray(kraus_operators[0])
        num_qubits = int(round(math.log2(first.shape[0])))
        return cls(tuple(np.asarray(k, dtype=complex) for k in kraus_operators),
                   num_qubits)


class NoiseModel:
    """Per-gate Kraus errors plus readout error, applied by the simulators.

    Gate errors are registered by gate name; an error registered for ``"cx"`` is
    applied (on the gate's qubits) after every ``cx`` in the circuit.  The special
    name ``"all_1q"`` / ``"all_2q"`` matches any single-/two-qubit unitary that has
    no more specific entry.  Such models are gate-local (:attr:`is_gate_local`).
    """

    def __init__(self) -> None:
        self._gate_errors: Dict[str, QuantumError] = {}
        self._readout_error: Optional[ReadoutError] = None
        # (gate name, qubit count) -> resolved QuantumError (or None): the
        # hot simulator loops resolve the same handful of keys millions of
        # times, so the fallback chain below runs once per key, not per gate
        # application.  Invalidated by every builder method.
        self._resolution_cache: Dict[Tuple[str, int], Optional[QuantumError]] = {}
        self._fingerprint: Optional[Tuple] = None

    def _invalidate_caches(self) -> None:
        self._resolution_cache.clear()
        self._fingerprint = None

    # ----------------------------------------------------------------- building
    def add_gate_error(self, gate_name: str, error: QuantumError) -> "NoiseModel":
        """Register a Kraus error to be applied after every ``gate_name`` gate."""
        self._gate_errors[gate_name.lower()] = error
        self._invalidate_caches()
        return self

    def add_all_single_qubit_error(self, error: QuantumError) -> "NoiseModel":
        """Register a default error for every single-qubit unitary."""
        if error.num_qubits != 1:
            raise ValueError("expected a single-qubit error")
        self._gate_errors["all_1q"] = error
        self._invalidate_caches()
        return self

    def add_all_two_qubit_error(self, error: QuantumError) -> "NoiseModel":
        """Register a default error for every two-qubit unitary."""
        if error.num_qubits != 2:
            raise ValueError("expected a two-qubit error")
        self._gate_errors["all_2q"] = error
        self._invalidate_caches()
        return self

    def set_readout_error(self, error: ReadoutError) -> "NoiseModel":
        """Set the measurement confusion probabilities (applied to every qubit)."""
        self._readout_error = error
        self._invalidate_caches()
        return self

    # ------------------------------------------------------------------ queries
    @property
    def readout_error(self) -> Optional[ReadoutError]:
        """The registered readout error, if any."""
        return self._readout_error

    @property
    def is_trivial(self) -> bool:
        """True when the model contains no errors at all."""
        return not self._gate_errors and self._readout_error is None

    @property
    def is_gate_local(self) -> bool:
        """True when every error acts only on its gate's qubits and depends
        only on the gate's name and arity.

        This is the precondition of the factorized noisy sweep in
        :class:`repro.core.execution.DensityMatrixEngine`: with gate-local
        errors, gates on disjoint registers never correlate them, so the
        registers of the Quorum prefix evolve as a product state.  The lookup
        implemented here keys errors by (name, arity) and applies them to the
        gate's own qubits, so the answer is checked on the class: a subclass
        that overrides :meth:`error_for_instruction` (and can see the
        instruction's qubits) is not gate-local unless it also overrides this
        property.  Engines send non-local models to the full-register walk.
        """
        return (type(self).error_for_instruction
                is NoiseModel.error_for_instruction)

    def error_for_instruction(self, instruction: Instruction) -> Optional[QuantumError]:
        """Return the Kraus error to apply after ``instruction`` (or None).

        Resolution (and thereby the channel's precomputed superoperator) is
        cached per (gate name, qubit count); the simulators and the circuit
        compiler hit this on every gate, so the lookup must not re-walk the
        fallback chain per application.
        """
        if not instruction.is_unitary:
            return None
        return self._resolve_cached(instruction.name, len(instruction.qubits))

    def superoperator_for(self, gate_name: str,
                          num_qubits: int) -> Optional[np.ndarray]:
        """Cached channel superoperator for a (gate name, qubit count) key.

        Convenience twin of :meth:`error_for_instruction` for callers that
        work with superoperators directly (e.g. ahead-of-time compilation).
        """
        error = self._resolve_cached(gate_name, num_qubits)
        return None if error is None else error.superoperator

    def _resolve_cached(self, gate_name: str,
                        arity: int) -> Optional[QuantumError]:
        key = (gate_name.lower(), int(arity))
        try:
            return self._resolution_cache[key]
        except KeyError:
            pass
        error = self._resolve(*key)
        self._resolution_cache[key] = error
        return error

    def _resolve(self, name: str, arity: int) -> Optional[QuantumError]:
        if name in self._gate_errors:
            return self._gate_errors[name]
        if arity == 1 and "all_1q" in self._gate_errors:
            return self._gate_errors["all_1q"]
        if arity == 2 and "all_2q" in self._gate_errors:
            return self._gate_errors["all_2q"]
        return None

    def fingerprint(self) -> Tuple:
        """Content-based hashable fingerprint (compiled-program cache key part).

        Two independently constructed but identical models (same gate errors,
        same readout confusion) share the fingerprint, so per-member noise
        models built from the same calibration data share compiled programs.
        """
        if self._fingerprint is None:
            gates = tuple(sorted(
                (name, error.num_qubits, error.superoperator.tobytes())
                for name, error in self._gate_errors.items()
            ))
            readout = (None if self._readout_error is None else
                       (self._readout_error.prob_1_given_0,
                        self._readout_error.prob_0_given_1))
            self._fingerprint = (gates, readout)
        return self._fingerprint

    def registered_gate_names(self) -> List[str]:
        """Names with explicit error entries (useful for reporting/tests)."""
        return sorted(self._gate_errors)

    def __repr__(self) -> str:
        readout = "yes" if self._readout_error is not None else "no"
        return (
            f"NoiseModel(gates={sorted(self._gate_errors)}, readout_error={readout})"
        )
