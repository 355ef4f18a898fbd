"""Determinism and regression suite for the plan/execute architecture.

Three invariants guard the refactor:

* for a fixed seed, the ``serial``, ``threads``, and ``processes`` executors
  produce *identical* detector scores (the plans carry the member RNG, so the
  strategy that runs a plan cannot change its randomness);
* the fused ``(levels x samples)`` batch reproduces the historical per-level
  loop (bit-identically for the engines that override it);
* the batched noisy circuit walk reproduces the per-sample walk to 1e-10.
"""

import pickle

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.config import QuorumConfig
from repro.core.detector import QuorumDetector
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import (
    AnalyticEngine,
    DensityMatrixEngine,
    StatevectorEngine,
)
from repro.core.parallel import (
    FusedExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    get_executor,
)


def toy_data(num_samples=50, num_features=9, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(num_samples, num_features))


def make_batch(num_samples=12, num_qubits=3, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                         size=(num_samples, 2 ** num_qubits - 1))
    return batch_amplitudes(values, num_qubits)


class TestExecutorRegistry:
    def test_all_strategies_registered(self):
        assert set(available_executors()) == {"auto", "serial", "threads",
                                              "processes", "fused"}

    def test_get_executor_resolves_each(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("threads"), ThreadExecutor)
        assert isinstance(get_executor("processes"), ProcessExecutor)
        assert isinstance(get_executor("fused"), FusedExecutor)

    def test_unknown_executor_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("distributed")

    def test_config_validates_executor(self):
        assert QuorumConfig(executor="threads").executor == "threads"
        with pytest.raises(ValueError, match="executor"):
            QuorumConfig(executor="gpu")


class TestExecutorDeterminism:
    """Fixed seed => identical scores, whichever strategy runs the plans."""

    @pytest.mark.parametrize("shots", [None, 4096])
    def test_scores_identical_across_executors(self, shots):
        data = toy_data()
        scores = {}
        for executor in ("serial", "threads", "processes"):
            detector = QuorumDetector(ensemble_groups=4, shots=shots, seed=42,
                                      executor=executor, n_jobs=2)
            scores[executor] = detector.fit(data).anomaly_scores()
        assert np.array_equal(scores["serial"], scores["threads"])
        assert np.array_equal(scores["serial"], scores["processes"])

    def test_noisy_backend_identical_across_executors(self):
        data = toy_data(num_samples=16, num_features=4)
        scores = {}
        for executor in ("serial", "threads"):
            detector = QuorumDetector(ensemble_groups=2, shots=256, seed=9,
                                      num_qubits=2, backend="density_matrix",
                                      noisy=True, executor=executor, n_jobs=2)
            scores[executor] = detector.fit(data).anomaly_scores()
        assert np.array_equal(scores["serial"], scores["threads"])

    @pytest.mark.parametrize("shots", [None, 4096])
    def test_fused_scores_identical_to_serial(self, shots):
        data = toy_data()
        serial = QuorumDetector(ensemble_groups=4, shots=shots, seed=42,
                                executor="serial").fit(data)
        fused = QuorumDetector(ensemble_groups=4, shots=shots, seed=42,
                               executor="fused").fit(data)
        forced = QuorumDetector(ensemble_groups=4, shots=shots, seed=42,
                                fused_members=True).fit(data)
        assert np.array_equal(serial.anomaly_scores(), fused.anomaly_scores())
        assert np.array_equal(serial.anomaly_scores(), forced.anomaly_scores())

    def test_fused_noisy_scores_and_rng_streams_bitwise(self):
        """Fused vs serial on the noisy path: scores AND the post-run member
        RNG streams must match bit for bit (the fused path draws shot noise
        from each member's own restored generator in member-major order)."""
        from repro.core.parallel import derive_member_seeds, run_ensemble_members

        # run_ensemble_members takes normalized rows (squared subsets <= 1).
        data = toy_data(num_samples=16, num_features=4) * 0.4
        seeds = derive_member_seeds(9, 3)
        base = dict(ensemble_groups=3, shots=256, seed=9, num_qubits=2,
                    backend="density_matrix", noisy=True)
        serial_results, serial_plans = run_ensemble_members(
            data, QuorumConfig(**base, executor="serial"), seeds,
            return_plans=True)
        fused_results, fused_plans = run_ensemble_members(
            data, QuorumConfig(**base, executor="fused"), seeds,
            return_plans=True)
        for serial_result, fused_result in zip(serial_results, fused_results):
            assert np.array_equal(serial_result.deviations,
                                  fused_result.deviations)
            for level in serial_result.bucket_statistics:
                for side in (0, 1):
                    assert np.array_equal(
                        serial_result.bucket_statistics[level][side],
                        fused_result.bucket_statistics[level][side])
        for serial_plan, fused_plan in zip(serial_plans, fused_plans):
            assert (serial_plan.rng.bit_generator.state
                    == fused_plan.rng.bit_generator.state)

    def test_fused_statevector_falls_back_per_member(self):
        data = toy_data(num_samples=12, num_features=4)
        base = dict(ensemble_groups=2, shots=128, seed=9, num_qubits=2,
                    backend="statevector")
        serial = QuorumDetector(**base, executor="serial").fit(data)
        fused = QuorumDetector(**base, executor="fused").fit(data)
        assert np.array_equal(serial.anomaly_scores(), fused.anomaly_scores())

    def test_no_fused_members_disables_fusion(self):
        config = QuorumConfig(executor="fused", fused_members=False)
        assert not config.wants_fused_members
        assert QuorumConfig(executor="fused").wants_fused_members
        assert QuorumConfig(fused_members=True).wants_fused_members
        assert not QuorumConfig().wants_fused_members

    def test_auto_matches_explicit_processes(self):
        data = toy_data()
        auto = QuorumDetector(ensemble_groups=3, shots=None, seed=1,
                              executor="auto", n_jobs=2).fit(data)
        explicit = QuorumDetector(ensemble_groups=3, shots=None, seed=1,
                                  executor="processes", n_jobs=2).fit(data)
        assert np.array_equal(auto.anomaly_scores(), explicit.anomaly_scores())

    def test_executor_recorded_in_metadata(self):
        detector = QuorumDetector(ensemble_groups=2, shots=None, seed=1,
                                  executor="threads", n_jobs=2)
        detector.fit(toy_data(num_samples=20))
        assert detector.diagnostics()["executor"] == "threads"


class TestFusedLevelBatch:
    """p1_levels_batch == the historical per-level p1_batch loop."""

    @pytest.mark.parametrize("engine_cls", [AnalyticEngine, DensityMatrixEngine])
    @pytest.mark.parametrize("shots", [None, 2048])
    def test_fused_matches_per_level_loop_bitwise(self, engine_cls, shots):
        ansatz = RandomAutoencoderAnsatz(3, seed=21)
        batch = make_batch(seed=1)
        levels = [1, 2]
        fused = engine_cls(
            shots=shots, rng=np.random.default_rng(5)
        ).p1_levels_batch(batch, ansatz, levels)
        loop_engine = engine_cls(shots=shots, rng=np.random.default_rng(5))
        looped = np.stack([loop_engine.p1_batch(batch, ansatz, level)
                           for level in levels])
        assert fused.shape == (2, batch.shape[0])
        assert np.array_equal(fused, looped)

    def test_statevector_default_stacking_matches_loop(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=22)
        batch = make_batch(seed=2)
        fused = StatevectorEngine(
            shots=128, rng=np.random.default_rng(3)
        ).p1_levels_batch(batch, ansatz, [1, 2])
        loop_engine = StatevectorEngine(shots=128, rng=np.random.default_rng(3))
        looped = np.stack([loop_engine.p1_batch(batch, ansatz, level)
                           for level in [1, 2]])
        assert np.array_equal(fused, looped)

    def test_fused_noisy_matches_per_level_loop(self):
        from repro.quantum.backends import FakeBrisbane

        ansatz = RandomAutoencoderAnsatz(2, seed=23)
        batch = make_batch(num_samples=4, num_qubits=2, seed=3)
        noise = FakeBrisbane(5).to_noise_model()
        fused = DensityMatrixEngine(
            shots=None, noise_model=noise, gate_level_encoding=True
        ).p1_levels_batch(batch, ansatz, [1, 2])
        loop_engine = DensityMatrixEngine(shots=None, noise_model=noise,
                                          gate_level_encoding=True)
        looped = np.stack([loop_engine.p1_batch(batch, ansatz, level)
                           for level in [1, 2]])
        assert np.allclose(fused, looped, atol=1e-10)

    def test_empty_levels_rejected(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=24)
        with pytest.raises(ValueError, match="at least one compression level"):
            AnalyticEngine(shots=None).p1_levels_batch(make_batch(), ansatz, [])

    def test_out_of_range_level_rejected(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=25)
        with pytest.raises(ValueError, match="compression level"):
            AnalyticEngine(shots=None).p1_levels_batch(make_batch(), ansatz,
                                                       [1, 7])


class TestBatchedNoisyWalk:
    """The batched circuit walk == the per-sample reference walk (<= 1e-10)."""

    @pytest.mark.parametrize("gate_level", [False, True])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_noiseless_walks_agree(self, gate_level, level):
        ansatz = RandomAutoencoderAnsatz(2, seed=31)
        batch = make_batch(num_samples=5, num_qubits=2, seed=4)
        engine = DensityMatrixEngine(shots=None,
                                     gate_level_encoding=gate_level)
        batched = engine.p1_batch(batch, ansatz, level)
        per_sample = engine.p1_per_sample_circuit_level(batch, ansatz, level)
        assert np.allclose(batched, per_sample, atol=1e-10)

    @pytest.mark.parametrize("gate_level", [False, True])
    def test_noisy_walks_agree(self, gate_level):
        from repro.quantum.backends import FakeBrisbane

        ansatz = RandomAutoencoderAnsatz(2, seed=32)
        batch = make_batch(num_samples=4, num_qubits=2, seed=5)
        noise = FakeBrisbane(5).to_noise_model()
        engine = DensityMatrixEngine(shots=None, noise_model=noise,
                                     gate_level_encoding=gate_level)
        batched = engine.p1_batch(batch, ansatz, 1)
        per_sample = engine.p1_per_sample_circuit_level(batch, ansatz, 1)
        assert np.allclose(batched, per_sample, atol=1e-10)

    def test_chunked_walk_matches_unchunked(self):
        from repro.quantum.simulator import BatchedDensityMatrixSimulator
        from repro.algorithms.autoencoder import build_autoencoder_circuit

        ansatz = RandomAutoencoderAnsatz(2, seed=33)
        batch = make_batch(num_samples=6, num_qubits=2, seed=6)
        circuits = [build_autoencoder_circuit(row, ansatz, 1, measure=False)
                    for row in batch]
        walker = BatchedDensityMatrixSimulator()
        unchunked = walker.evolve_batch(circuits)
        walker.MAX_FLAT_ELEMENTS = 2 ** 5  # forces one-circuit chunks
        chunked = walker.evolve_batch(circuits)
        assert np.allclose(unchunked, chunked, atol=1e-12)

    def test_structurally_different_circuits_grouped_correctly(self):
        """Zero-amplitude features elide prep rotations; grouping must scatter
        results back into input order."""
        ansatz = RandomAutoencoderAnsatz(2, seed=34)
        batch = make_batch(num_samples=4, num_qubits=2, seed=7)
        # Make two samples structurally different: all mass on the overflow
        # state zeroes several multiplexed-RY angles.
        sparse = np.zeros(4)
        sparse[-1] = 1.0
        batch[1] = sparse
        batch[3] = sparse
        engine = DensityMatrixEngine(shots=None, gate_level_encoding=True)
        batched = engine.p1_batch(batch, ansatz, 1)
        per_sample = engine.p1_per_sample_circuit_level(batch, ansatz, 1)
        assert np.allclose(batched, per_sample, atol=1e-10)


class TestMemberPlans:
    def test_plans_are_picklable_and_reusable(self):
        from repro.core.ensemble import execute_member, plan_member

        config = QuorumConfig(ensemble_groups=1, shots=None, seed=0)
        data = toy_data(num_samples=30)
        normalized = data / (np.max(data) * np.sqrt(7))
        plan = plan_member(30, 9, config, member_index=2, member_seed=77)
        restored = pickle.loads(pickle.dumps(plan))
        original = execute_member(normalized, plan, config)
        roundtripped = execute_member(normalized, restored, config)
        assert np.array_equal(original.deviations, roundtripped.deviations)
        assert original.member_index == roundtripped.member_index == 2

    def test_plan_plus_execute_equals_run_ensemble_member(self):
        from repro.core.ensemble import (
            execute_member,
            plan_member,
            run_ensemble_member,
        )

        config = QuorumConfig(ensemble_groups=1, shots=4096, seed=0)
        data = toy_data(num_samples=40)
        normalized = data / (np.max(data) * np.sqrt(7))
        plan = plan_member(40, 9, config, member_index=0, member_seed=5)
        split = execute_member(normalized, plan, config)
        direct = run_ensemble_member(normalized, config, 0, member_seed=5)
        assert np.array_equal(split.deviations, direct.deviations)
        assert np.array_equal(split.selected_features, direct.selected_features)
        assert split.p1_statistics == direct.p1_statistics

    def test_planning_needs_only_the_shape(self):
        from repro.core.ensemble import plan_member

        config = QuorumConfig(ensemble_groups=1, shots=None, seed=0)
        plan = plan_member(100, 20, config, member_index=1, member_seed=3)
        assert plan.selected_features.shape == (7,)
        assert plan.buckets.num_samples == 100
        with pytest.raises(ValueError):
            plan_member(0, 20, config, 0, 0)
