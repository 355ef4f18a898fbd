"""Member-held encoder unitaries and the member-stacked gate walk behind them.

Every ensemble member's encoder unitary is built once, for a whole structure
group in one stacked walk, and held on its ansatz.  The walk must be bitwise
equal to the per-member constructions it replaces (the compiler's fused
unitary, the ansatz's one-member walk, and the gate-by-gate batched kernel),
match the dense ``expand_gate`` product oracle, travel with pickled plans, and
never reach a saved model bundle.
"""

import json
import pickle

import numpy as np
import pytest

import repro.algorithms.ansatz as ansatz_module
from repro.algorithms.ansatz import (
    RandomAutoencoderAnsatz,
    encoder_gate_stacks,
    hold_encoder_unitaries,
)
from repro.core.config import QuorumConfig
from repro.core.detector import QuorumDetector
from repro.core.ensemble import plan_member, plan_structure_key
from repro.core.parallel import (
    ProcessExecutor,
    SerialExecutor,
    derive_member_seeds,
    plan_members,
)
from repro.quantum.backend import SimulationBackend, get_simulation_backend
from repro.quantum.compiler import CircuitCompiler, structure_signature
from repro.quantum.statevector import expand_gate
from repro.serving.artifact import save_model

GROUP_SIZES = (1, 7, 300)
#: Members compared one by one in every group: the first few, both sides of
#: the 256-member block boundary the 5-qubit walk crosses, and the last.
CHECKED = (0, 1, 6, 137, 255, 256, 299)


def _group(num_qubits, num_layers, entanglement, size):
    """``size`` fresh ansatzes of one structure (seeds 0 .. size-1)."""
    return [RandomAutoencoderAnsatz(num_qubits, num_layers, entanglement,
                                    seed=seed)
            for seed in range(size)]


def _gate_by_gate(ansatz):
    """The batched kernel applied one instruction at a time (the walk the
    stacked form replaced): identity rows through ``apply_gate_batch``."""
    backend = get_simulation_backend("numpy")
    states = np.eye(2 ** ansatz.num_qubits, dtype=complex)
    for instruction in ansatz.encoder_circuit().instructions:
        states = backend.apply_gate_batch(
            states, instruction.matrix_or_standard(), instruction.qubits)
    return states.T.copy()


def _expand_gate_product(ansatz):
    unitary = np.eye(2 ** ansatz.num_qubits, dtype=complex)
    for instruction in ansatz.encoder_circuit().instructions:
        unitary = expand_gate(instruction.matrix_or_standard(),
                              instruction.qubits, ansatz.num_qubits) @ unitary
    return unitary


class TestMemberStackedWalk:
    @pytest.mark.parametrize("entanglement", ["linear", "ring", "full"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    def test_bitwise_equal_to_per_member_builds(self, num_qubits, num_layers,
                                                entanglement):
        compiler = CircuitCompiler()
        for size in GROUP_SIZES:
            group = _group(num_qubits, num_layers, entanglement, size)
            hold_encoder_unitaries(group)
            for index in (i for i in CHECKED if i < size):
                held = group[index].encoder_unitary()
                alone = RandomAutoencoderAnsatz(
                    num_qubits, num_layers, entanglement,
                    angles_=group[index].angles_)
                assert np.array_equal(held, alone.encoder_unitary())
                assert np.array_equal(
                    held, compiler.fused_unitary(group[index].encoder_circuit()))
                assert np.array_equal(held, _gate_by_gate(group[index]))
            for index in (0, size - 1):
                oracle = _expand_gate_product(group[index])
                assert np.max(np.abs(group[index].encoder_unitary()
                                     - oracle)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", [2, 5])
    def test_float32_walk_within_tolerance(self, num_qubits):
        group = _group(num_qubits, 2, "ring", 7)
        stacks = encoder_gate_stacks(group)
        exact = get_simulation_backend("numpy").member_unitaries_from_instructions(
            stacks, num_qubits)
        single = get_simulation_backend(
            "numpy-float32").member_unitaries_from_instructions(stacks,
                                                                num_qubits)
        assert single.dtype == np.complex64
        assert np.max(np.abs(single - exact)) <= 5e-5

    def test_block_budget_does_not_change_the_result(self, monkeypatch):
        group = _group(3, 2, "linear", 7)
        stacks = encoder_gate_stacks(group)
        backend = get_simulation_backend("numpy")
        whole = backend.member_unitaries_from_instructions(stacks, 3)
        # A budget of two members' unitaries walks 7 members in 4 blocks.
        monkeypatch.setattr(SimulationBackend, "MEMBER_WALK_BLOCK_BYTES",
                            2 * 8 * 8 * 16)
        assert np.array_equal(
            backend.member_unitaries_from_instructions(stacks, 3), whole)

    def test_mismatched_gate_stacks_are_rejected(self):
        backend = get_simulation_backend("numpy")
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ValueError, match="one gate per member"):
            backend.member_unitaries_from_instructions(
                [(np.stack([x, x]), (0,)), (np.stack([x, x, x]), (1,))], 2)
        with pytest.raises(ValueError, match="does not match"):
            backend.member_unitaries_from_instructions([(x, (0,))], 2)

    def test_held_unitaries_are_read_only_and_walked_once(self, monkeypatch):
        group = _group(3, 2, "linear", 4)
        hold_encoder_unitaries(group)
        held = [ansatz.encoder_unitary() for ansatz in group]
        assert all(not unitary.flags.writeable for unitary in held)

        def fail(*args, **kwargs):
            raise AssertionError("a held encoder was rebuilt")

        monkeypatch.setattr(ansatz_module, "encoder_gate_stacks", fail)
        hold_encoder_unitaries(group)
        assert all(ansatz.encoder_unitary() is unitary
                   for ansatz, unitary in zip(group, held))

    def test_mixed_structures_walk_per_group(self):
        group = (_group(3, 2, "linear", 3) + _group(3, 2, "full", 2)
                 + _group(4, 1, "ring", 2))
        hold_encoder_unitaries(group)
        for ansatz in group:
            assert np.array_equal(ansatz.encoder_unitary(),
                                  _gate_by_gate(ansatz))
        with pytest.raises(ValueError, match="one ansatz structure"):
            encoder_gate_stacks(group)


class TestHeldEncoderTravels:
    def _data(self):
        rng = np.random.default_rng(5)
        return rng.uniform(0.0, 1.0 / np.sqrt(7), size=(30, 7))

    def test_pickled_plan_keeps_its_read_only_encoder(self):
        config = QuorumConfig(ensemble_groups=2)
        plan = plan_members(30, 7, config, derive_member_seeds(3, 2))[0]
        copy = pickle.loads(pickle.dumps(plan))
        assert np.array_equal(copy.ansatz._encoder_unitary,
                              plan.ansatz.encoder_unitary())
        assert not copy.ansatz._encoder_unitary.flags.writeable
        assert not copy.ansatz.angles_.flags.writeable

    def test_process_workers_use_the_held_encoder(self, monkeypatch):
        data = self._data()
        config = QuorumConfig(ensemble_groups=4, shots=512, n_jobs=2,
                              executor="processes")
        seeds = derive_member_seeds(9, 4)
        serial = SerialExecutor().run(
            data, plan_members(30, 7, config, seeds), config)
        plans = plan_members(30, 7, config, seeds)

        def fail(*args, **kwargs):
            raise AssertionError("an encoder was rebuilt after planning")

        # Forked workers inherit the patch: a worker that rebuilt an encoder
        # instead of reading the pickled one would fail the run.
        monkeypatch.setattr(ansatz_module, "encoder_gate_stacks", fail)
        try:
            pooled = ProcessExecutor().run(data, plans, config)
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"no process pool in this environment: {error}")
        for left, right in zip(serial, pooled):
            assert np.array_equal(left.deviations, right.deviations)

    def test_saved_bundle_does_not_persist_the_matrix(self, tmp_path):
        detector = QuorumDetector(ensemble_groups=3, seed=4, shots=256)
        detector.fit(np.random.default_rng(1).normal(size=(24, 7)))
        assert all(plan.ansatz._encoder_unitary is not None
                   for plan in detector.member_plans())
        path = save_model(detector, tmp_path / "model.json")
        members = json.loads(path.read_text())["members"]
        assert len(members) == 3
        for member in members:
            assert set(member) == {"member_index", "member_seed",
                                   "selected_features", "bucket_size",
                                   "buckets", "angles", "rng_state",
                                   "reference"}


class TestPlanStructureKey:
    def test_grouping_equals_structure_signature_grouping(self):
        structures = [(3, 2, "linear"), (3, 2, "ring"), (3, 2, "full"),
                      (3, 1, "linear"), (4, 2, "linear"), (3, 2, "linear"),
                      (4, 2, "linear"), (3, 2, "ring")]
        plans = []
        for index, (qubits, layers, entanglement) in enumerate(structures):
            config = QuorumConfig(num_qubits=qubits, num_layers=layers,
                                  entanglement=entanglement)
            plans.append(plan_member(20, 7, config, index, 100 + index))

        def partition(key):
            groups = {}
            for index, plan in enumerate(plans):
                groups.setdefault(key(plan), []).append(index)
            return sorted(groups.values())

        def by_signature(plan):
            circuit = plan.ansatz.encoder_circuit()
            return plan.ansatz.num_qubits, structure_signature(circuit)

        assert partition(plan_structure_key) == partition(by_signature)
        assert len(partition(plan_structure_key)) == 5
        assert plan_structure_key(plans[0]) == (3, 2, "linear")
