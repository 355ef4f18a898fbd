"""SWAP-test execution engines used by the detector.

Each engine answers the same question -- "what is the probability of reading 1 on
the SWAP-test ancilla for this encoded sample, this random ansatz, and this
compression level?" -- with a different cost/fidelity trade-off:

* :class:`AnalyticEngine` evaluates the reduced-density-matrix expression exactly
  (vectorized over a whole batch of samples) and optionally adds binomial shot
  noise.  This is the default for noiseless sweeps and is cross-validated against
  the circuit-level engines in the test suite.
* :class:`DensityMatrixEngine` evolves register A's density matrix exactly.  The
  noiseless path runs the whole sample batch through the batched kernels of a
  :class:`~repro.quantum.backend.SimulationBackend`.  Noisy or gate-level runs
  use the *factorized sweep*: with gate-local noise the circuit prefix leaves
  the ``2n+1``-qubit register in ``|0><0|_anc (x) rho_B (x) rho_A``, so the
  engine prepares ``rho_B`` for every sample with a batched, circuit-free
  state-preparation kernel, pushes it through the member's cached ``n``-qubit
  encoder channel to get ``rho_A``, and reads each compression level as
  ``p1 = Re sum conj(W00[p,q,r,s]) rho_B[p,r] rho_A[q,s]``, where ``W00`` is
  the ancilla-0 block of the level's cached Heisenberg-picture observable.
  No ``2n+1``-qubit density matrix is ever formed.  Noise models that are not
  gate-local (:attr:`repro.quantum.noise.NoiseModel.is_gate_local`) take the
  full-register reference walk instead; the per-sample
  :class:`~repro.quantum.simulator.DensityMatrixSimulator` is the oracle the
  sweep is tested against (<= 1e-12).
* :class:`StatevectorEngine` runs stochastic trajectories, mimicking how a
  shot-based hardware run (or Qiskit Aer's statevector method with mid-circuit
  resets) behaves.  All samples and all trajectories are evolved together as one
  ``(samples * trajectories, 2**n)`` batch.

Batched execution
-----------------
Every engine accepts ``simulation_backend=`` (a name from
:func:`repro.quantum.backend.available_simulation_backends` or a
:class:`~repro.quantum.backend.SimulationBackend` instance; default
``"numpy"``) and routes its linear algebra through that backend's batched
primitives: amplitudes enter as ``(samples, 2**n)`` float arrays, the leading
batch axis is preserved end to end, and the ansatz unitary ``E`` is built once
per ensemble member (held on the ansatz) rather than once per sample.

``p1_levels_batch`` fuses a member's whole compression sweep into one call:
samples and levels form a single flattened batch wherever the math allows, and
the shot-noise RNG is consumed in exactly the order the historical per-level
loop used, so fixed-seed results are unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.algorithms.autoencoder import (
    build_autoencoder_circuit,
    build_autoencoder_prefix,
    build_autoencoder_suffix,
)
from repro.quantum.backend import SimulationBackend, get_simulation_backend
from repro.quantum.backends import FakeBrisbane
from repro.quantum.compiler import CircuitCompiler, default_compiler
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import (
    BatchedDensityMatrixSimulator,
    DensityMatrixSimulator,
)

__all__ = [
    "SwapTestEngine",
    "AnalyticEngine",
    "DensityMatrixEngine",
    "StatevectorEngine",
    "apply_shot_noise",
    "make_engine",
]


def apply_shot_noise(exact_p1: np.ndarray, shots: Optional[int],
                     rng: np.random.Generator) -> np.ndarray:
    """Replace exact probabilities with binomial shot estimates.

    This is the single source of truth for how every engine converts exact
    probabilities into shot estimates: one elementwise binomial draw over the
    clipped array, consuming ``rng`` in C order.  The online scorer
    (:mod:`repro.serving.scorer`) calls it directly with a restored member RNG
    so that serving-time shot noise is bit-identical to fit-time shot noise.
    """
    if shots is None:
        return exact_p1
    clipped = np.clip(exact_p1, 0.0, 1.0)
    return rng.binomial(shots, clipped) / float(shots)


class SwapTestEngine:
    """Interface shared by the three execution strategies.

    Every engine executes precomputed dense operators, so the per-sweep work
    reduces to a few batched matmuls.  Each member's encoder unitary is held
    on its ansatz; sample-independent channels and observables (the noisy
    encoder channel, each level's suffix) are lowered once through a
    :class:`~repro.quantum.compiler.CircuitCompiler` (shared LRU cache keyed
    by circuit signature, noise fingerprint, and backend dtype).

    :meth:`p1_batch` is the one-level case of :meth:`p1_levels_batch`, which
    validates its inputs and applies shot noise to the engine's exact
    :meth:`_exact_levels_batch` sweep.
    """

    def __init__(self, shots: Optional[int] = 4096,
                 rng: Optional[np.random.Generator] = None,
                 simulation_backend: Union[str, SimulationBackend, None] = None,
                 compiler: Optional[CircuitCompiler] = None
                 ) -> None:
        if shots is not None and shots < 1:
            raise ValueError("shots must be positive or None for exact probabilities")
        self.shots = shots
        self.rng = rng or np.random.default_rng()
        self.backend = get_simulation_backend(simulation_backend)
        self.compiler = compiler if compiler is not None else default_compiler()

    def p1_batch(self, amplitudes: np.ndarray, ansatz: RandomAutoencoderAnsatz,
                 compression_level: int) -> np.ndarray:
        """SWAP-test P(1) for every row of ``amplitudes`` (shape: samples x 2^n)."""
        return self.p1_levels_batch(amplitudes, ansatz, (compression_level,))[0]

    def p1_levels_batch(self, amplitudes: np.ndarray,
                        ansatz: RandomAutoencoderAnsatz,
                        compression_levels: Sequence[int]) -> np.ndarray:
        """SWAP-test P(1) for every (level, sample) pair; shape ``(levels, samples)``.

        This is the fused entry point the ensemble executor uses: one call per
        member covers the member's whole compression sweep.  One elementwise
        binomial call over the ``(levels, samples)`` array draws shot noise
        bit-identically to the historical sequential per-level calls.
        """
        levels = self._validated_levels(compression_levels, ansatz)
        amplitudes = self._validated_amplitudes(amplitudes, ansatz)
        return self._apply_shot_noise(
            self._exact_levels_batch(amplitudes, ansatz, levels)
        )

    def p1_levels_member_batch(self, amplitude_stack: np.ndarray,
                               ansatzes: Sequence[RandomAutoencoderAnsatz],
                               compression_levels: Sequence[int]) -> np.ndarray:
        """Exact P(1) for a whole signature group; ``(members, levels, samples)``.

        The cross-member fused entry point: one call covers the compression
        sweeps of *every* member in a structure-signature group
        (``amplitude_stack[m]`` holds member ``m``'s encoded samples,
        ``ansatzes[m]`` its random ansatz).  Probabilities are **exact** -- no
        shot noise is applied and ``self.rng`` is never touched -- because the
        caller (:func:`repro.core.ensemble.execute_member_group`) draws shot
        noise per member from each plan's own restored RNG in member-major
        order, which keeps every member's random stream bitwise identical to
        the serial executor.

        The default loops members through :meth:`_exact_levels_batch`;
        :class:`AnalyticEngine` and :class:`DensityMatrixEngine` override it
        with member-batched computations that run the serial kernels.
        """
        stack, ansatzes = self._validated_member_group(amplitude_stack,
                                                       ansatzes)
        levels = self._validated_levels(compression_levels, ansatzes[0])
        return np.stack([
            self._exact_levels_batch(stack[m], ansatzes[m], levels)
            for m in range(stack.shape[0])
        ])

    def _exact_levels_batch(self, amplitudes: np.ndarray,
                            ansatz: RandomAutoencoderAnsatz,
                            levels: Sequence[int]) -> np.ndarray:
        """Exact (shot-noise-free) ``(levels, samples)`` sweep probabilities.

        Inputs arrive pre-validated.  Shot-based engines (statevector)
        consume RNG *during* evolution and therefore cannot separate exact
        probabilities from noise, so they do not implement it and override
        :meth:`p1_batch` and :meth:`p1_levels_batch` instead -- the fused
        executor never selects them.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no exact member-batched sweep; "
            "run its members individually through p1_levels_batch"
        )

    def _validated_member_group(self, amplitude_stack: np.ndarray,
                                ansatzes: Sequence[RandomAutoencoderAnsatz]
                                ) -> tuple:
        """Validate a member-batched sweep's stacked inputs."""
        stack = np.asarray(amplitude_stack, dtype=float)
        if stack.ndim != 3:
            raise ValueError(
                "amplitude_stack must be 3-D (members, samples, 2**n)"
            )
        ansatzes = list(ansatzes)
        if not ansatzes or stack.shape[0] != len(ansatzes):
            raise ValueError("one ansatz per member stack entry is required")
        num_qubits = ansatzes[0].num_qubits
        if any(ansatz.num_qubits != num_qubits for ansatz in ansatzes[1:]):
            raise ValueError(
                "a member group must share one register size; group plans by "
                "structure signature before batching"
            )
        for member in range(stack.shape[0]):
            self._validated_amplitudes(stack[member], ansatzes[member])
        return stack, ansatzes

    def _member_encoder_stack(self, ansatzes: Sequence[RandomAutoencoderAnsatz]
                              ) -> np.ndarray:
        """The group's ``(members, 2^n, 2^n)`` encoder parameter stack.

        The members' held encoder unitaries, stacked in the backend dtype --
        bitwise the encoders the serial path applies.
        """
        return np.stack([self._encoder_unitary(ansatz) for ansatz in ansatzes])

    def _validated_levels(self, compression_levels: Sequence[int],
                          ansatz: RandomAutoencoderAnsatz) -> list:
        """Validate a compression sweep for ``p1_levels_batch`` implementations."""
        levels = [int(level) for level in compression_levels]
        if not levels:
            raise ValueError("at least one compression level is required")
        for level in levels:
            if not 0 <= level <= ansatz.num_qubits:
                raise ValueError("compression level out of range")
        return levels

    def _validated_amplitudes(self, amplitudes: np.ndarray,
                              ansatz: RandomAutoencoderAnsatz) -> np.ndarray:
        """Level-independent amplitude validation, shared by every entry point.

        Level sweeps validate amplitudes exactly once (and validate *every*
        level of the sweep via :meth:`_validated_levels`), rather than checking
        the batch against the first level only.
        """
        amplitudes = np.asarray(amplitudes, dtype=float)
        if amplitudes.ndim != 2:
            raise ValueError("amplitudes must be a 2-D batch (samples, 2**n)")
        if amplitudes.shape[1] != 2 ** ansatz.num_qubits:
            raise ValueError("amplitude width does not match the ansatz register")
        norms = np.linalg.norm(amplitudes, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            # The circuit-level path would reject this in `initialize`; fail the
            # batched paths just as loudly instead of returning garbage overlaps.
            raise ValueError("amplitude rows must be normalized statevectors")
        return amplitudes

    def _validated_batch(self, amplitudes: np.ndarray,
                         ansatz: RandomAutoencoderAnsatz,
                         compression_level: int) -> np.ndarray:
        """Input validation of a one-level batch (statevector, the oracle)."""
        if not 0 <= compression_level <= ansatz.num_qubits:
            raise ValueError("compression level out of range")
        return self._validated_amplitudes(amplitudes, ansatz)

    def _apply_shot_noise(self, exact_p1: np.ndarray) -> np.ndarray:
        """Replace exact probabilities with binomial shot estimates."""
        return apply_shot_noise(exact_p1, self.shots, self.rng)

    def _encoder_unitary(self, ansatz: RandomAutoencoderAnsatz) -> np.ndarray:
        """The member's dense encoder ``E`` in the backend dtype.

        Read from the unitary the ansatz holds
        (:meth:`~repro.algorithms.ansatz.RandomAutoencoderAnsatz.encoder_unitary`,
        built once per member at plan or model-load time); no encoder circuit
        is built and the compiler is not consulted.
        """
        return np.asarray(ansatz.encoder_unitary(), dtype=self.backend.dtype)


class AnalyticEngine(SwapTestEngine):
    """Exact reduced-density-matrix evaluation, vectorized over samples.

    For register A the circuit applies ``E``, resets the first ``k`` qubits, and
    applies ``E^dagger``; the SWAP test against the untouched encoding ``|psi>``
    then reads 1 with probability ``(1 - <psi| rho_A |psi>) / 2``.  Writing
    ``|phi> = E |psi>`` and splitting the basis index into (reset bits ``s``, kept
    bits ``r``), the overlap reduces to ``sum_s |<phi[:, 0], phi[:, s]>|^2`` --
    a handful of dense inner products per sample.
    """

    def _exact_levels_batch(self, amplitudes: np.ndarray,
                            ansatz: RandomAutoencoderAnsatz,
                            levels: Sequence[int]) -> np.ndarray:
        # |phi_i> = E |psi_i>, the whole batch in one matmul (E is cached on the
        # ansatz, so it is built once per ensemble member) -- and shared by every
        # compression level of the sweep.
        phi = self.backend.apply_unitary_batch(
            self.backend.as_states(amplitudes), self._encoder_unitary(ansatz)
        )
        overlap = self.backend.compression_overlap_levels(phi, levels)
        return np.clip((1.0 - overlap) / 2.0, 0.0, 1.0)

    def p1_levels_member_batch(self, amplitude_stack: np.ndarray,
                               ansatzes: Sequence[RandomAutoencoderAnsatz],
                               compression_levels: Sequence[int]) -> np.ndarray:
        """Whole signature group in one stacked encode + overlap pass.

        The member axis rides along for free: the encoders become one
        ``(members, dim, dim)`` parameter stack applied by a single batched
        matmul, and the overlap reduction runs over the flattened
        ``(members * samples)`` batch.  Both kernels are elementwise /
        per-slice in the batch axis, so every member's slice is bitwise
        identical to its serial :meth:`p1_levels_batch` result.
        """
        stack, ansatzes = self._validated_member_group(amplitude_stack,
                                                       ansatzes)
        levels = self._validated_levels(compression_levels, ansatzes[0])
        members, samples, dim = stack.shape
        psi = self.backend.as_states(
            stack.reshape(members * samples, dim)
        ).reshape(members, samples, dim)
        phi = self.backend.apply_compiled_unitary_member_batch(
            psi, self._member_encoder_stack(ansatzes)
        )
        overlap = self.backend.compression_overlap_levels(
            phi.reshape(members * samples, dim), levels
        )
        exact_p1 = np.clip((1.0 - overlap) / 2.0, 0.0, 1.0)
        # (levels, members * samples) -> (members, levels, samples), C-ordered
        # so the caller's per-member shot-noise draws see contiguous slices.
        return np.ascontiguousarray(
            exact_p1.reshape(len(levels), members, samples).transpose(1, 0, 2)
        )


class DensityMatrixEngine(SwapTestEngine):
    """Exact density-matrix simulation (optionally noisy).

    Noiseless runs evolve register A's ``2^n x 2^n`` density matrix for the
    whole sample batch at once through the simulation backend's batched
    kernels; this is mathematically identical to simulating the full
    ``2n+1``-qubit circuit (the reference register stays pure and the SWAP test
    reads ``P(1) = (1 - <psi| rho_A |psi>) / 2``).

    Runs with a noise model or gate-level encoding use :meth:`_factorized_sweep`
    whenever :attr:`factorizes`: the prefix state is
    ``|0><0|_anc (x) rho_B (x) rho_A`` for gate-local noise, so only two
    ``n``-qubit registers are simulated -- ``rho_B`` by the batched noisy
    state-preparation kernel, ``rho_A`` by the member's cached encoder channel
    -- and each level's P(1) is one contraction of the ancilla-0 block of the
    level's cached dual observable against the pair.  Serial and fused
    (member-batched) runs share that sweep, so they agree bitwise.  Models
    that are not gate-local take the full-register reference walk: the
    ``2n+1``-qubit prefix walked once per sweep, gate by gate, and each
    level's suffix replayed from that checkpoint.  The per-sample
    :meth:`p1_per_sample_circuit_level` is the oracle both are tested against.
    """

    def __init__(self, shots: Optional[int] = 4096,
                 rng: Optional[np.random.Generator] = None,
                 noise_model: Optional[NoiseModel] = None,
                 gate_level_encoding: bool = False,
                 simulation_backend: Union[str, SimulationBackend, None] = None,
                 compiler: Optional[CircuitCompiler] = None
                 ) -> None:
        super().__init__(shots, rng, simulation_backend=simulation_backend,
                         compiler=compiler)
        self.noise_model = noise_model
        self.gate_level_encoding = gate_level_encoding

    def _exact_levels_batch(self, amplitudes: np.ndarray,
                            ansatz: RandomAutoencoderAnsatz,
                            levels: Sequence[int]) -> np.ndarray:
        if self.noise_model is not None or self.gate_level_encoding:
            return self._circuit_level_sweep(amplitudes, ansatz, levels)
        backend = self.backend
        psi = backend.as_states(amplitudes)
        encoder = self._encoder_unitary(ansatz)
        decoder = encoder.conj().T
        # Encoding and the pure-state density build are level-independent and
        # run once for the whole sweep; only the (cheap) reset/decode/overlap
        # tail is per level, each level's batch staying cache-sized.
        phi = backend.apply_unitary_batch(psi, encoder)
        rhos = backend.density_from_states(phi)
        exact_p1 = np.empty((len(levels), amplitudes.shape[0]))
        for position, level in enumerate(levels):
            level_rhos = backend.reset_low_qubits_density_batch(rhos, level)
            level_rhos = backend.evolve_density_batch(level_rhos, decoder)
            overlap = backend.expectation_batch(level_rhos, psi)
            exact_p1[position] = np.clip((1.0 - overlap) / 2.0, 0.0, 1.0)
        return exact_p1

    @property
    def factorizes(self) -> bool:
        """True when circuit-level sweeps run the factorized sweep.

        The factorization needs no noise or a noise model whose errors are
        gate-local (:attr:`repro.quantum.noise.NoiseModel.is_gate_local`);
        anything else walks the full register with the reference walker.
        """
        return self.noise_model is None or self.noise_model.is_gate_local

    def p1_levels_member_batch(self, amplitude_stack: np.ndarray,
                               ansatzes: Sequence[RandomAutoencoderAnsatz],
                               compression_levels: Sequence[int]) -> np.ndarray:
        """Whole signature group through one factorized sweep.

        The serial path runs the same :meth:`_factorized_sweep` with one
        member, so fused and serial results share every kernel and are
        bitwise identical.  The noiseless ``initialize`` path and runs that
        do not factorize keep the reference per-member loop.
        """
        if (self.noise_model is None and not self.gate_level_encoding) \
                or not self.factorizes:
            return super().p1_levels_member_batch(amplitude_stack, ansatzes,
                                                  compression_levels)
        stack, ansatzes = self._validated_member_group(amplitude_stack,
                                                       ansatzes)
        levels = self._validated_levels(compression_levels, ansatzes[0])
        return self._factorized_sweep(stack, ansatzes, levels)

    def _factorized_sweep(self, stack: np.ndarray,
                          ansatzes: Sequence[RandomAutoencoderAnsatz],
                          levels: Sequence[int]) -> np.ndarray:
        """Exact ``(members, levels, samples)`` probabilities, two registers.

        With gate-local noise, the prefix touches registers A and B
        separately, so the post-prefix state is exactly
        ``|0><0|_anc (x) rho_B (x) rho_A``:

        * ``rho_B`` is the (noisy) state preparation of each row, run for
          all ``members * samples`` rows at once by
          :meth:`~repro.quantum.simulator.BatchedDensityMatrixSimulator
          .prepare_batch` (or the pure ``initialize`` state);
        * ``rho_A`` is ``rho_B`` pushed through the member's cached
          ``n``-qubit encoder channel;
        * each level's P(1) is ``Re <W_00, rho_B (x) rho_A>``, where
          ``W_00`` is the ancilla-0 block of the level's cached dual
          observable, contracted without forming the Kronecker product.

        Per member, every kernel sees the same ``(samples, ...)`` slice
        whatever the member count, which keeps fused results bitwise equal
        to serial ones.  Large groups run in member chunks of at most
        ``BatchedDensityMatrixSimulator.MAX_FLAT_ELEMENTS`` density entries,
        which bounds memory without changing any member's result.
        """
        members, samples, dim = stack.shape
        chunk = max(1, BatchedDensityMatrixSimulator.MAX_FLAT_ELEMENTS
                    // (samples * dim * dim))
        exact_p1 = np.empty((members, len(levels), samples))
        for start in range(0, members, chunk):
            group = slice(start, start + chunk)
            exact_p1[group] = self._factorized_chunk(stack[group],
                                                     ansatzes[group], levels)
        return exact_p1

    def _factorized_chunk(self, stack: np.ndarray,
                          ansatzes: Sequence[RandomAutoencoderAnsatz],
                          levels: Sequence[int]) -> np.ndarray:
        """:meth:`_factorized_sweep` of one member chunk."""
        members, samples, dim = stack.shape
        num_qubits = ansatzes[0].num_qubits
        backend = self.backend
        rows = stack.reshape(members * samples, dim)
        if self.gate_level_encoding:
            walker = BatchedDensityMatrixSimulator(
                noise_model=self.noise_model, backend=backend,
                compiler=self.compiler,
            )
            prepared = walker.prepare_batch(rows)
        else:
            prepared = backend.density_from_states(backend.as_states(rows))
        rhos_b = prepared.reshape(members, samples, dim, dim)
        register = list(range(num_qubits))
        rhos_a = [
            backend.apply_compiled_superoperator_batch(
                rhos_b[member],
                self.compiler.channel_program(ansatz.encoder_circuit(register),
                                              self.noise_model, backend),
            )
            for member, ansatz in enumerate(ansatzes)
        ]
        block = dim * dim
        exact_p1 = np.empty((members, len(levels), samples))
        for position, level in enumerate(levels):
            observables = self._level_observables(ansatzes, level)
            for member in range(members):
                exact_p1[member, position] = (
                    backend.product_expectation_density_batch(
                        rhos_b[member], rhos_a[member],
                        observables[member][:block, :block],
                    )
                )
        return exact_p1

    def _level_observables(self, ansatzes: Sequence[RandomAutoencoderAnsatz],
                           level: int) -> Sequence[np.ndarray]:
        """Each member's cached dual observable of one level's suffix.

        A group of several members fetches them as one member-stacked
        artifact; its entries are the per-member observables, bit for bit.
        """
        suffixes = [build_autoencoder_suffix(ansatz, level, measure=False)
                    for ansatz in ansatzes]
        ancilla = 2 * ansatzes[0].num_qubits
        if len(suffixes) == 1:
            return [self.compiler.dual_observable(
                suffixes[0], self.noise_model, ancilla, self.backend)]
        return self.compiler.member_stacked_dual_observable(
            suffixes, self.noise_model, ancilla, self.backend)

    def _circuit_level_sweep(self, amplitudes: np.ndarray,
                             ansatz: RandomAutoencoderAnsatz,
                             levels: Sequence[int]) -> np.ndarray:
        """Exact ``(levels, samples)`` probabilities of one member's sweep.

        The factorized sweep with one member, or -- for noise models that
        are not gate-local -- the reference walk: the level-independent
        ``2n+1``-qubit prefix walked once, gate by gate, and each level's
        suffix replayed forward from that checkpoint.
        """
        if self.factorizes:
            return self._factorized_sweep(amplitudes[None], [ansatz],
                                          levels)[0]
        prefixes = [
            build_autoencoder_prefix(
                row, ansatz, gate_level_encoding=self.gate_level_encoding,
            )
            for row in amplitudes
        ]
        walker = BatchedDensityMatrixSimulator(
            noise_model=self.noise_model, backend=self.backend,
            compiler=self.compiler, compile_programs=False,
        )
        checkpoint = walker.evolve_batch(prefixes)
        ancilla = 2 * ansatz.num_qubits
        exact_p1 = np.empty((len(levels), amplitudes.shape[0]))
        for position, level in enumerate(levels):
            suffix = build_autoencoder_suffix(ansatz, level, measure=False)
            rhos = walker.replay_suffix_batch(checkpoint, suffix)
            exact_p1[position] = self.backend.probability_one_density_batch(
                rhos, ancilla
            )
        return exact_p1

    def p1_per_sample_circuit_level(self, amplitudes: np.ndarray,
                                    ansatz: RandomAutoencoderAnsatz,
                                    compression_level: int) -> np.ndarray:
        """Reference per-sample circuit walk (regression baseline for the batched
        walk; not used on any hot path)."""
        amplitudes = self._validated_batch(amplitudes, ansatz, compression_level)
        simulator = DensityMatrixSimulator(noise_model=self.noise_model,
                                           backend=self.backend)
        results = np.empty(amplitudes.shape[0])
        for index, row in enumerate(amplitudes):
            circuit = build_autoencoder_circuit(
                row, ansatz, compression_level,
                gate_level_encoding=self.gate_level_encoding, measure=False,
            )
            final_state = simulator.evolve(circuit)
            ancilla = 2 * ansatz.num_qubits
            exact_p1 = final_state.probability_of_outcome(ancilla, 1)
            results[index] = exact_p1
        return self._apply_shot_noise(results)


class StatevectorEngine(SwapTestEngine):
    """Trajectory-sampled simulation (no noise model support).

    Every trajectory keeps register A pure: the partial reset becomes a
    projective measurement (outcome drawn per trajectory) followed by a
    conditional flip to |0>.  The engine therefore evolves a
    ``(samples * trajectories, 2**n)`` batch of register-A states through the
    backend kernels, computes each trajectory's exact ancilla probability
    ``(1 - |<psi|phi_traj>|^2) / 2``, and distributes the shot budget over the
    trajectories exactly like the per-circuit trajectory simulator does.
    """

    #: Upper bound on (samples x trajectories) rows evolved at once; chunks of
    #: the sample axis keep peak memory bounded for large datasets while each
    #: chunk still runs through one batched kernel call.
    MAX_FLAT_BATCH = 1 << 15

    def __init__(self, shots: Optional[int] = 4096,
                 rng: Optional[np.random.Generator] = None,
                 max_trajectories: Optional[int] = 64,
                 simulation_backend: Union[str, SimulationBackend, None] = None,
                 compiler: Optional[CircuitCompiler] = None
                 ) -> None:
        if shots is None:
            raise ValueError("the statevector engine is shot-based; provide shots")
        super().__init__(shots, rng, simulation_backend=simulation_backend,
                         compiler=compiler)
        self.max_trajectories = max_trajectories

    def p1_batch(self, amplitudes: np.ndarray, ansatz: RandomAutoencoderAnsatz,
                 compression_level: int) -> np.ndarray:
        amplitudes = self._validated_batch(amplitudes, ansatz, compression_level)
        num_samples = amplitudes.shape[0]

        trajectories = self.shots
        if compression_level == 0:
            # No reset -> the circuit is deterministic; one trajectory suffices.
            trajectories = 1
        elif self.max_trajectories is not None:
            trajectories = min(trajectories, self.max_trajectories)
        trajectories = max(trajectories, 1)
        shots_per_trajectory = np.asarray(self._split_shots(self.shots,
                                                            trajectories))
        trajectories = shots_per_trajectory.shape[0]

        results = np.empty(num_samples)
        chunk = max(1, self.MAX_FLAT_BATCH // trajectories)
        for start in range(0, num_samples, chunk):
            stop = min(start + chunk, num_samples)
            results[start:stop] = self._p1_chunk(
                amplitudes[start:stop], ansatz, compression_level,
                trajectories, shots_per_trajectory,
            )
        return results

    def p1_levels_batch(self, amplitudes: np.ndarray,
                        ansatz: RandomAutoencoderAnsatz,
                        compression_levels: Sequence[int]) -> np.ndarray:
        """The levels run sequentially through :meth:`p1_batch`."""
        levels = self._validated_levels(compression_levels, ansatz)
        return np.stack([
            self.p1_batch(amplitudes, ansatz, level)
            for level in levels
        ])

    def _p1_chunk(self, amplitudes: np.ndarray,
                  ansatz: RandomAutoencoderAnsatz, compression_level: int,
                  trajectories: int,
                  shots_per_trajectory: np.ndarray) -> np.ndarray:
        """Trajectory-sample one chunk of samples as a single flat batch."""
        backend = self.backend
        encoder = self._encoder_unitary(ansatz)
        psi = backend.as_states(amplitudes)
        phi = backend.apply_unitary_batch(psi, encoder)
        # One flat batch over (sample, trajectory) pairs; sample-major so that
        # reshaping back to (samples, trajectories) is a plain view.
        states = np.repeat(phi, trajectories, axis=0)
        for qubit in range(compression_level):
            probability_one = backend.probability_one_batch(states, qubit)
            outcomes = (self.rng.random(states.shape[0])
                        < probability_one).astype(int)
            states = backend.collapse_qubit_batch(states, qubit, outcomes,
                                                  reset_to_zero=True)
        decoded = backend.apply_unitary_batch(states, encoder.conj().T)
        fidelity = backend.overlap_batch(np.repeat(psi, trajectories, axis=0),
                                         decoded)
        p1 = np.clip((1.0 - fidelity) / 2.0, 0.0, 1.0)
        p1 = p1.reshape(amplitudes.shape[0], trajectories)
        ones = self.rng.binomial(shots_per_trajectory[None, :], p1).sum(axis=1)
        return ones / float(self.shots)

    @staticmethod
    def _split_shots(shots: int, trajectories: int) -> list:
        base = shots // trajectories
        remainder = shots % trajectories
        split = [base + (1 if index < remainder else 0)
                 for index in range(trajectories)]
        return [s for s in split if s > 0] or [shots]


def make_engine(backend: str, shots: Optional[int],
                rng: Optional[np.random.Generator] = None,
                noisy: bool = False,
                gate_level_encoding: bool = False,
                num_qubits: int = 3,
                simulation_backend: Union[str, SimulationBackend, None] = None,
                compiler: Optional[CircuitCompiler] = None
                ) -> SwapTestEngine:
    """Factory used by the detector to build the configured engine.

    ``backend`` selects the *engine strategy* (``analytic`` / ``density_matrix``
    / ``statevector``); ``simulation_backend`` selects the *numerical kernel
    implementation* those engines run on (see :mod:`repro.quantum.backend`);
    ``compiler`` overrides the process-wide shared compiled-program cache (the
    online scorer passes a private instance in tests so cache counters can be
    asserted in isolation).
    """
    backend = backend.lower()
    if backend == "analytic":
        if noisy:
            raise ValueError("the analytic engine cannot model hardware noise")
        return AnalyticEngine(shots=shots, rng=rng,
                              simulation_backend=simulation_backend,
                              compiler=compiler)
    if backend == "density_matrix":
        noise_model = None
        if noisy:
            noise_model = FakeBrisbane(num_qubits=2 * num_qubits + 1).to_noise_model()
        return DensityMatrixEngine(shots=shots, rng=rng, noise_model=noise_model,
                                   gate_level_encoding=gate_level_encoding or noisy,
                                   simulation_backend=simulation_backend,
                                   compiler=compiler)
    if backend == "statevector":
        if noisy:
            raise ValueError("the statevector engine cannot model hardware noise")
        return StatevectorEngine(shots=shots, rng=rng,
                                 simulation_backend=simulation_backend,
                                 compiler=compiler)
    raise ValueError(f"unknown backend {backend!r}")
