"""Executor strategies for the embarrassingly parallel ensemble.

The detector's members share nothing (Section IV-F calls the design
"embarrassingly parallel"), and PR 1's batched kernels moved their hot path
into GIL-releasing BLAS.  This module exploits both properties through a
plan/execute architecture: :func:`run_ensemble_members` builds one cheap,
picklable :class:`~repro.core.ensemble.MemberPlan` per member up front, then
hands the plans to a pluggable :class:`ExecutorStrategy`:

* ``serial`` -- plain loop in the calling process (also the fallback).
* ``threads`` -- a ``ThreadPoolExecutor`` sharing the dataset zero-copy;
  effective because members spend their time inside batched BLAS kernels that
  release the GIL.
* ``processes`` -- a process pool whose workers map the dataset once from
  ``multiprocessing.shared_memory`` instead of receiving one pickled copy
  each; only the tiny plans and result arrays cross process boundaries.
* ``fused`` -- cross-member stacked execution in the calling process: plans
  are grouped by ansatz structure
  (:func:`~repro.core.ensemble.plan_structure_key`) and each group runs as
  ONE ``(members x levels x samples)`` batch per sweep step through
  :func:`~repro.core.ensemble.execute_member_group`, sharing a single engine
  (one noise-model build, one walker) across the whole ensemble.  Configs
  the stacked sweep cannot express (statevector backend) fall back to the
  per-member loop inside the strategy.

``QuorumConfig.executor`` selects a strategy (``"auto"`` picks ``processes``
when ``n_jobs > 1``; ``QuorumConfig.fused_members`` can force fusion on or
off independently of the executor).  Pool creation failures --
``OSError``/``ValueError`` (restricted environments: no ``/dev/shm``,
sandboxed fork), ``PicklingError``/``RuntimeError`` (unpicklable state,
missing start-method bootstrapping) -- fall back to the serial strategy, and
the executor actually used is logged and recorded on the strategy result.

All strategies produce bit-identical scores for a fixed seed: every member
owns an independent RNG stream, and the fused path draws its shot noise per
member from exactly those streams.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.ansatz import hold_encoder_unitaries
from repro.core.config import QuorumConfig
from repro.core.ensemble import (
    EnsembleMemberResult,
    MemberPlan,
    execute_member,
    execute_member_group,
    plan_member,
    plan_structure_key,
)
from repro.core.execution import make_engine

__all__ = [
    "ExecutorStrategy",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "FusedExecutor",
    "available_executors",
    "get_executor",
    "plan_members",
    "run_ensemble_members",
    "derive_member_seeds",
]

logger = logging.getLogger(__name__)

#: Per-worker dataset view and its shared-memory handle, installed by
#: :func:`_init_shared_worker` (the handle must stay referenced for the view's
#: buffer to remain mapped).
_WORKER_DATASET: Optional[np.ndarray] = None
_WORKER_SHM: Optional[shared_memory.SharedMemory] = None


def derive_member_seeds(master_seed: Optional[int], count: int) -> List[int]:
    """Deterministically derive one child seed per ensemble member."""
    if count < 1:
        raise ValueError("count must be positive")
    seed_sequence = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1)[0]) for child in seed_sequence.spawn(count)]


class ExecutorStrategy(ABC):
    """How a list of member plans is executed against the shared dataset."""

    #: Registry key of the strategy.
    name: str = "abstract"

    @abstractmethod
    def run(self, normalized_data: np.ndarray, plans: Sequence[MemberPlan],
            config: QuorumConfig) -> List[EnsembleMemberResult]:
        """Execute every plan and return results in plan order."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SerialExecutor(ExecutorStrategy):
    """Execute plans one after another in the calling process."""

    name = "serial"

    def run(self, normalized_data: np.ndarray, plans: Sequence[MemberPlan],
            config: QuorumConfig) -> List[EnsembleMemberResult]:
        return [execute_member(normalized_data, plan, config) for plan in plans]


class ThreadExecutor(ExecutorStrategy):
    """Execute plans on a thread pool over the zero-copy shared dataset.

    Threads see the parent's dataset array directly (no copy, no pickling);
    the batched kernels spend their time in BLAS with the GIL released, so
    member execution overlaps despite running in one process.
    """

    name = "threads"

    def run(self, normalized_data: np.ndarray, plans: Sequence[MemberPlan],
            config: QuorumConfig) -> List[EnsembleMemberResult]:
        workers = min(config.n_jobs, len(plans))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(
                lambda plan: execute_member(normalized_data, plan, config),
                plans,
            ))


def _init_shared_worker(shm_name: str, shape: Tuple[int, ...],
                        dtype_str: str) -> None:
    """Pool initializer: map the shared-memory dataset once per worker."""
    global _WORKER_DATASET, _WORKER_SHM
    _WORKER_SHM = shared_memory.SharedMemory(name=shm_name)
    _WORKER_DATASET = np.ndarray(shape, dtype=np.dtype(dtype_str),
                                 buffer=_WORKER_SHM.buf)


def _run_planned_member(args: Tuple[MemberPlan, QuorumConfig]
                        ) -> EnsembleMemberResult:
    plan, config = args
    if _WORKER_DATASET is None:
        raise RuntimeError("worker process was not initialized with the dataset")
    return execute_member(_WORKER_DATASET, plan, config)


class ProcessExecutor(ExecutorStrategy):
    """Execute plans on a process pool fed from shared memory.

    The dataset is written once into ``multiprocessing.shared_memory``; every
    worker maps that one block instead of unpickling its own copy, so task
    payloads shrink to (plan, config) tuples regardless of dataset size.
    """

    name = "processes"

    def run(self, normalized_data: np.ndarray, plans: Sequence[MemberPlan],
            config: QuorumConfig) -> List[EnsembleMemberResult]:
        normalized_data = np.ascontiguousarray(normalized_data)
        shm = shared_memory.SharedMemory(create=True,
                                         size=normalized_data.nbytes)
        try:
            view = np.ndarray(normalized_data.shape, dtype=normalized_data.dtype,
                              buffer=shm.buf)
            view[:] = normalized_data
            context = multiprocessing.get_context()
            with context.Pool(
                processes=min(config.n_jobs, len(plans)),
                initializer=_init_shared_worker,
                initargs=(shm.name, normalized_data.shape,
                          normalized_data.dtype.str),
            ) as pool:
                return pool.map(_run_planned_member,
                                [(plan, config) for plan in plans])
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


class FusedExecutor(ExecutorStrategy):
    """Execute plans as cross-member stacked batches, one per structure group.

    Members whose ansatzes share a structure (qubit count, layers and
    entanglement; angles excluded) differ only in continuous payloads, so
    each group's whole compression sweep collapses into member-stacked
    contractions (:func:`~repro.core.ensemble.execute_member_group`): one
    engine build, one member-batched circuit walk, and one stacked
    expectation per level instead of one full dispatch per member.  Shot
    noise is drawn per member from each plan's own RNG, so scores are
    bit-identical to the serial strategy.

    Engine strategies without an exact stacked sweep (the shot-based
    statevector engine) run the plain per-member loop instead -- same
    results, no fusion.
    """

    name = "fused"

    #: Engine strategies whose exact sweeps support cross-member stacking
    #: (the statevector engine consumes RNG *during* evolution, so its exact
    #: probabilities cannot be separated from its noise).
    FUSABLE_BACKENDS = ("analytic", "density_matrix")

    def run(self, normalized_data: np.ndarray, plans: Sequence[MemberPlan],
            config: QuorumConfig) -> List[EnsembleMemberResult]:
        if config.backend not in self.FUSABLE_BACKENDS:
            logger.info(
                "backend %r has no exact member-batched sweep; the fused "
                "executor is running its members individually",
                config.backend,
            )
            return [execute_member(normalized_data, plan, config)
                    for plan in plans]
        groups: Dict[Tuple, List[int]] = {}
        for position, plan in enumerate(plans):
            groups.setdefault(plan_structure_key(plan), []).append(position)
        # One engine serves every group: the noise model and walker are built
        # once per ensemble instead of once per member.  The engine's own RNG
        # is never consumed (exact sweeps only), so sharing it is safe.
        engine = make_engine(
            config.backend, config.shots, noisy=config.noisy,
            gate_level_encoding=config.gate_level_encoding,
            num_qubits=config.num_qubits,
            simulation_backend=config.simulation_backend,
        )
        results: List[Optional[EnsembleMemberResult]] = [None] * len(plans)
        for indices in groups.values():
            group = execute_member_group(
                normalized_data, [plans[i] for i in indices], config,
                engine=engine,
            )
            for index, result in zip(indices, group):
                results[index] = result
        return results  # type: ignore[return-value]


_EXECUTORS: Dict[str, Callable[[], ExecutorStrategy]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
    FusedExecutor.name: FusedExecutor,
}


def available_executors() -> Tuple[str, ...]:
    """Names of all registered executor strategies (plus ``"auto"``)."""
    return ("auto",) + tuple(sorted(_EXECUTORS))


def get_executor(name: str) -> ExecutorStrategy:
    """Resolve an executor strategy by name (``"auto"`` is resolved upstream)."""
    key = str(name).lower()
    if key not in _EXECUTORS:
        raise ValueError(
            f"unknown executor {name!r}; available: "
            f"{', '.join(available_executors())}"
        )
    return _EXECUTORS[key]()


def plan_members(num_samples: int, num_features: int, config: QuorumConfig,
                 seeds: Sequence[int],
                 bucket_size: Optional[int] = None) -> List[MemberPlan]:
    """Build one :class:`~repro.core.ensemble.MemberPlan` per seed, in order.

    Planning is deterministic in the dataset *shape* and the seeds, so the same
    call always reproduces the same plans (feature subsets, buckets, ansatz
    angles, and post-planning RNG snapshots).  Every plan's ansatz gets its
    encoder unitary here, in one member-stacked walk per structure group.
    """
    plans = [
        plan_member(num_samples, num_features, config, index, seed,
                    bucket_size=bucket_size)
        for index, seed in enumerate(seeds)
    ]
    hold_encoder_unitaries(plan.ansatz for plan in plans)
    return plans


def run_ensemble_members(normalized_data: np.ndarray, config: QuorumConfig,
                         seeds: Sequence[int],
                         bucket_size: Optional[int] = None,
                         return_plans: bool = False):
    """Plan every ensemble member, then execute the plans on the configured
    executor strategy (falling back to serial when a pool cannot be created).

    With ``return_plans=True`` the return value is ``(results, plans)``, where
    ``plans`` are the executed plans in member order -- the detector hands them
    to :mod:`repro.serving.artifact` so a fitted model can be persisted with
    each member's exact configuration and post-planning RNG snapshot.
    """
    normalized_data = np.asarray(normalized_data, dtype=float)
    if normalized_data.ndim != 2:
        raise ValueError("normalized_data must be 2-D")
    num_samples, num_features = normalized_data.shape

    def build_plans() -> List[MemberPlan]:
        return plan_members(num_samples, num_features, config, seeds,
                            bucket_size=bucket_size)

    plans = build_plans()
    if config.wants_fused_members and len(plans) > 1:
        # Fusion is in-process and needs no worker pool, so it is selected
        # regardless of n_jobs (QuorumConfig.fused_members=True also forces
        # it under any executor setting).
        name = FusedExecutor.name
    elif (config.n_jobs <= 1 or len(plans) <= 1
          or config.executor == FusedExecutor.name):
        # executor="fused" with fused_members=False runs the per-member
        # serial reference.
        name = SerialExecutor.name
    elif config.executor == "auto":
        name = ProcessExecutor.name
    else:
        name = config.executor
    strategy = get_executor(name)

    used = strategy.name
    try:
        results = strategy.run(normalized_data, plans, config)
    except (OSError, ValueError, pickle.PicklingError, RuntimeError) as error:
        if strategy.name == SerialExecutor.name:
            raise
        # Restricted environments (no /dev/shm, sandboxed fork, spawn without
        # a picklable __main__) fall back to serial rather than failing the run.
        logger.warning(
            "%r executor unavailable (%s: %s); falling back to serial",
            strategy.name, type(error).__name__, error,
        )
        used = SerialExecutor.name
        # Re-plan before the serial pass: a strategy that executed some members
        # before failing advanced those plans' RNGs, and reusing them would
        # silently break the fixed-seed bit-identity guarantee.
        plans = build_plans()
        results = SerialExecutor().run(normalized_data, plans, config)
    logger.info("ensemble of %d members executed with the %r executor",
                len(plans), used)
    if return_plans:
        return results, plans
    return results
