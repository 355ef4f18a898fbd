"""Online scoring of unseen samples against a frozen Quorum ensemble.

:class:`OnlineScorer` wraps a loaded :class:`~repro.serving.artifact.ModelArtifact`
and answers score requests without refitting.  Two scoring modes exist:

* ``"reference"`` (default, the online mode): each member's SWAP-test outputs
  for the new samples are compared against the *fit-time* bucket reference
  statistics frozen in the artifact
  (:func:`repro.core.scoring.reference_deviations`).
* ``"replay"``: the request must contain exactly the training set (same
  sample count and order); deviations are computed with the saved bucket
  partitions, reproducing ``QuorumDetector.anomaly_scores()`` **bitwise** for
  fixed seeds.

Determinism and micro-batching
------------------------------
For the analytic and density-matrix engines, shot noise is a single binomial
draw applied *after* the exact probability sweep.  The scorer exploits this:
the expensive linear algebra runs **exactly** (``shots=None``), and each
request's shot noise is drawn afterwards from a generator restored from the
member's persisted post-planning RNG state.  Two consequences:

* a request's scores depend only on its own samples -- concurrent submissions
  coalesced into one fused batch are bitwise identical to serial submission;
* one request containing the whole training set consumes the RNG exactly as
  ``fit`` did, which is what makes the replay mode bitwise.

The micro-batching queue (:meth:`OnlineScorer.submit`) coalesces concurrent
requests into one ``(levels x samples)`` fused batch per ensemble member, so
the per-request marginal cost is the sample-dependent prefix plus one matmul
per compression level.  Each member's encoder unitary is built once, at
construction, and held on its ansatz; the noisy encoder channels and suffix
observables come from the process-wide compiler cache and are reused across
requests.

When the model was fitted with cross-member fusion
(``QuorumConfig.wants_fused_members``, or the ``fused_members`` constructor
override), the scorer additionally stacks the exact sweeps of members sharing
an ansatz structure into one ``(members x levels x samples)`` dispatch per
group
(:meth:`~repro.core.execution.SwapTestEngine.p1_levels_member_batch`).  Shot
noise is still drawn per member afterwards, so fused scores remain bitwise
identical to the member-by-member sweep; the ``stacked_dispatches`` and
``members_per_dispatch`` counters in :meth:`OnlineScorer.diagnostics` show
the grouping in effect.

The trajectory-sampled statevector engine consumes randomness *during*
evolution, so its requests are executed one at a time (each with a freshly
restored member RNG); they still flow through the same queue.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.ansatz import hold_encoder_unitaries
from repro.core.bucketing import BucketAssignment
from repro.core.config import QuorumConfig
from repro.core.ensemble import batch_amplitudes, plan_structure_key
from repro.core.execution import SwapTestEngine, apply_shot_noise, make_engine
from repro.core.scoring import (BucketStatistics, bucket_deviations,
                                reference_deviations)
from repro.quantum.compiler import CircuitCompiler, default_compiler
from repro.serving.artifact import MemberArtifact, ModelArtifact
from repro.serving.telemetry import MetricsRegistry, default_registry

__all__ = ["ScoreResult", "OnlineScorer", "SCORING_MODES"]

#: Modes accepted by :meth:`OnlineScorer.score` / :meth:`OnlineScorer.submit`.
SCORING_MODES = ("reference", "replay")

#: Engines whose shot noise is separable from the exact sweep (see module doc).
_FUSABLE_BACKENDS = ("analytic", "density_matrix")


@dataclass
class ScoreResult:
    """Scores for one request.

    Attributes
    ----------
    scores:
        Per-sample anomaly scores (higher = more anomalous), summed over every
        (member x compression level) run exactly like the detector does.
    num_runs:
        Number of runs accumulated into each score.
    mode:
        Scoring mode that produced the result.
    num_samples:
        Number of scored samples.
    timings:
        Per-stage wall-clock spans in seconds (``queue_wait``,
        ``batch_assembly``, ``engine_compute``, ``shot_noise``) where the
        execution path measured them; the HTTP layer renders these into the
        opt-in ``X-Timing`` response header.  Batch-level stages carry the
        whole batch's duration for every coalesced request in it.
    """

    scores: np.ndarray
    num_runs: int
    mode: str
    num_samples: int
    timings: Optional[Dict[str, float]] = None


@dataclass
class _Member:
    """Precomputed per-member serving state."""

    artifact: MemberArtifact
    selected_features: np.ndarray
    ansatz: object
    buckets: BucketAssignment
    #: Frozen per-level reference statistics; the degenerate-bucket mask is
    #: hoisted into the :class:`BucketStatistics` once at load time instead of
    #: being re-derived on every request.
    reference: Dict[int, BucketStatistics]

    def fresh_rng(self) -> np.random.Generator:
        """A generator positioned exactly after the member's planning draws."""
        return self.artifact.restored_rng()


class _Request:
    """One queued scoring request (normalized rows + completion future)."""

    __slots__ = ("normalized", "mode", "future", "enqueued_at")

    def __init__(self, normalized: np.ndarray, mode: str) -> None:
        self.normalized = normalized
        self.mode = mode
        self.future: "Future[ScoreResult]" = Future()
        self.enqueued_at = time.perf_counter()


class OnlineScorer:
    """Score unseen samples against a loaded model artifact.

    Parameters
    ----------
    artifact:
        A loaded :class:`~repro.serving.artifact.ModelArtifact`.
    simulation_backend / fused_members:
        Optional overrides of the artifact's config (e.g. score on a different
        kernel backend than the model was fitted on, or force cross-member
        fused execution on/off regardless of the fitted executor choice).
    compiler:
        Compiled-program cache the engines should use; defaults to the
        process-wide shared instance.  Tests pass a private compiler so cache
        hit/miss counters can be asserted in isolation.
    max_batch_samples:
        Upper bound on the number of samples one coalesced micro-batch may
        contain; requests beyond it wait for the next batch.
    batch_window_s:
        How long the worker waits after the first queued request for more
        requests to arrive before executing the batch.  A couple of
        milliseconds is enough to coalesce a concurrent burst without adding
        visible latency to a lone request.
    metrics:
        Telemetry registry the stage-latency histograms and serving counters
        land in; defaults to the process-global registry (what
        ``GET /v1/metrics`` serves).  Tests inject private instances.
    """

    def __init__(self, artifact: ModelArtifact,
                 simulation_backend: Optional[str] = None,
                 fused_members: Optional[bool] = None,
                 compiler: Optional[CircuitCompiler] = None,
                 max_batch_samples: int = 512,
                 batch_window_s: float = 0.002,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_batch_samples < 1:
            raise ValueError("max_batch_samples must be positive")
        if batch_window_s < 0:
            raise ValueError("batch_window_s cannot be negative")
        config = artifact.config
        overrides: Dict[str, object] = {}
        if simulation_backend is not None:
            overrides["simulation_backend"] = simulation_backend
        if fused_members is not None:
            overrides["fused_members"] = fused_members
        if overrides:
            config = config.with_overrides(**overrides)
        self.artifact = artifact
        self.config: QuorumConfig = config
        self.levels: Tuple[int, ...] = tuple(artifact.levels)
        self.normalizer = artifact.build_normalizer()
        self.compiler = compiler if compiler is not None else default_compiler()
        self.max_batch_samples = int(max_batch_samples)
        self.batch_window_s = float(batch_window_s)

        self._members: List[_Member] = [
            _Member(
                artifact=member,
                selected_features=np.asarray(member.selected_features, dtype=int),
                ansatz=member.build_ansatz(config),
                buckets=member.bucket_assignment(),
                reference={int(level): BucketStatistics(
                               means=np.asarray(means, dtype=float),
                               stds=np.asarray(stds, dtype=float))
                           for level, (means, stds) in member.reference.items()},
            )
            for member in artifact.members
        ]
        self._fusable = config.backend in _FUSABLE_BACKENDS
        self._fused_members = bool(
            self._fusable and config.wants_fused_members
            and len(self._members) > 1)
        # One stacked walk per structure group builds every member's encoder
        # unitary now, so no request builds or looks one up.
        hold_encoder_unitaries(member.ansatz for member in self._members)
        # Members sharing an ansatz structure execute as one stacked batch per
        # sweep step; mixed-structure ensembles split into one dispatch per
        # group.  Computed once -- the ansatzes are frozen in the artifact.
        self._member_groups: List[List[int]] = []
        if self._fused_members:
            groups: Dict[Tuple, List[int]] = {}
            for index, member in enumerate(self._members):
                groups.setdefault(plan_structure_key(member), []).append(index)
            self._member_groups = list(groups.values())
        self._exact_engine: Optional[SwapTestEngine] = None
        if self._fusable:
            # Exact probabilities only -- per-request shot noise is applied
            # afterwards from each member's restored RNG, which is what makes
            # coalesced and serial submission bitwise identical.
            self._exact_engine = self._build_engine(shots=None)

        self._lock = threading.Lock()
        # Serializes access to the shared exact engine: the micro-batch worker
        # thread and stateful callers (dedicated sessions, job workers) may
        # sweep concurrently, and engine-internal per-member caches are not
        # synchronized.
        self._engine_lock = threading.Lock()
        self._queue: List[_Request] = []
        self._queue_cond = threading.Condition(self._lock)
        self._worker: Optional[threading.Thread] = None
        self._closed = False
        self._stats = {"requests": 0, "samples": 0, "batches": 0,
                       "coalesced_requests": 0, "stacked_dispatches": 0}
        # Histogram {group size -> stacked dispatches of that size}; stays
        # empty unless cross-member fusion is active.
        self._members_per_dispatch: Dict[int, int] = {}
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_requests = self.metrics.counter(
            "scoring_requests_total", "scoring requests completed")
        self._m_samples = self.metrics.counter(
            "scoring_samples_total", "samples scored")
        self._m_batches = self.metrics.counter(
            "scoring_batches_total", "micro-batches executed")
        self._h_queue_wait = self.metrics.histogram(
            "scoring_queue_wait_seconds",
            "submit-to-batch-start wait in the micro-batch queue")
        self._h_assembly = self.metrics.histogram(
            "scoring_batch_assembly_seconds",
            "stacking coalesced requests into one fused batch")
        self._h_engine = self.metrics.histogram(
            "scoring_engine_seconds",
            "exact probability sweep (the engine compute)")
        self._h_shot_noise = self.metrics.histogram(
            "scoring_shot_noise_seconds",
            "per-member shot-noise draws + deviation scoring")

    # ------------------------------------------------------------ engine setup
    def _build_engine(self, shots: Optional[int],
                      rng: Optional[np.random.Generator] = None
                      ) -> SwapTestEngine:
        config = self.config
        return make_engine(
            config.backend, shots, rng=rng, noisy=config.noisy,
            gate_level_encoding=config.gate_level_encoding,
            num_qubits=config.num_qubits,
            simulation_backend=config.simulation_backend,
            compiler=self.compiler,
        )

    # ---------------------------------------------------------------- scoring
    def _normalize(self, features: Union[np.ndarray, Sequence]) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError(
                "expected a (samples, features) matrix with at least one row")
        if features.shape[1] != self.artifact.num_features:
            raise ValueError(
                f"the model was fitted on {self.artifact.num_features} "
                f"features, got {features.shape[1]}"
            )
        return self.normalizer.transform(features)

    def _member_amplitudes(self, member: _Member,
                           normalized: np.ndarray) -> np.ndarray:
        return batch_amplitudes(normalized[:, member.selected_features],
                                self.config.num_qubits)

    def _exact_member_p1(self, normalized: np.ndarray) -> List[np.ndarray]:
        """Exact ``(levels, samples)`` probabilities, one array per member."""
        engine = self._exact_engine
        assert engine is not None
        if not self._fused_members:
            with self._engine_lock:
                return [
                    engine.p1_levels_batch(
                        self._member_amplitudes(member, normalized),
                        member.ansatz, self.levels)
                    for member in self._members
                ]
        member_p1: List[Optional[np.ndarray]] = [None] * len(self._members)
        dispatched: List[int] = []
        with self._engine_lock:
            for group in self._member_groups:
                stack = np.stack([
                    self._member_amplitudes(self._members[index], normalized)
                    for index in group
                ])
                sweep = engine.p1_levels_member_batch(
                    stack, [self._members[index].ansatz for index in group],
                    self.levels)
                for position, index in enumerate(group):
                    member_p1[index] = sweep[position]
                dispatched.append(len(group))
        with self._lock:
            self._stats["stacked_dispatches"] += len(dispatched)
            for size in dispatched:
                self._members_per_dispatch[size] = (
                    self._members_per_dispatch.get(size, 0) + 1)
        return member_p1

    def _finalize(self, member_p1: List[np.ndarray], mode: str,
                  shot_noise: bool,
                  rngs: Optional[List[np.random.Generator]] = None
                  ) -> ScoreResult:
        """Turn per-member P(1) sweeps for ONE request into summed deviations.

        ``shot_noise=True`` applies each member's binomial draws here (the
        fusable path computed exact probabilities); ``False`` means the engine
        already sampled shots during evolution (statevector trajectories).
        ``rngs`` substitutes caller-owned generators (consumed in place) for
        the per-request restored ones -- the stateful-session path.
        """
        num_samples = member_p1[0].shape[1]
        self._check_replay_size(num_samples, mode)
        finalize_start = time.perf_counter()
        total = np.zeros(num_samples)
        runs = 0
        for index, (member, p1_sweep) in enumerate(zip(self._members,
                                                       member_p1)):
            if shot_noise:
                rng = rngs[index] if rngs is not None else member.fresh_rng()
                p1_sweep = apply_shot_noise(p1_sweep, self.config.shots, rng)
            # Accumulate each member's levels into its own vector first, then
            # add members together -- the exact summation order the detector
            # uses, so replay-mode scores match `fit` bitwise (float addition
            # is not associative).
            member_total = np.zeros(num_samples)
            for position, level in enumerate(self.levels):
                level_p1 = p1_sweep[position]
                if mode == "replay":
                    member_total += bucket_deviations(level_p1, member.buckets)
                else:
                    reference = member.reference[level]
                    member_total += reference_deviations(
                        level_p1, reference.means, reference.stds,
                        live=reference.live)
                runs += 1
            total += member_total
        shot_noise_s = time.perf_counter() - finalize_start
        self._h_shot_noise.observe(shot_noise_s)
        return ScoreResult(scores=total, num_runs=runs, mode=mode,
                           num_samples=num_samples,
                           timings={"shot_noise": shot_noise_s})

    @staticmethod
    def _merge_timings(result: ScoreResult,
                       extra: Dict[str, float]) -> ScoreResult:
        merged = dict(extra)
        merged.update(result.timings or {})
        result.timings = merged
        return result

    def _count_request(self, result: ScoreResult) -> None:
        with self._lock:
            self._stats["requests"] += 1
            self._stats["samples"] += result.num_samples
        self._m_requests.inc()
        self._m_samples.inc(result.num_samples)

    def _score_rows(self, normalized: np.ndarray, mode: str) -> ScoreResult:
        engine_start = time.perf_counter()
        if self._fusable:
            member_p1 = self._exact_member_p1(normalized)
            engine_s = time.perf_counter() - engine_start
            self._h_engine.observe(engine_s)
            result = self._merge_timings(
                self._finalize(member_p1, mode, shot_noise=True),
                {"engine_compute": engine_s})
        else:
            # Shot-based engine: randomness is consumed during evolution, so
            # each member runs with its own freshly restored RNG per request.
            member_p1 = []
            for member in self._members:
                engine = self._build_engine(self.config.shots,
                                            rng=member.fresh_rng())
                member_p1.append(engine.p1_levels_batch(
                    self._member_amplitudes(member, normalized),
                    member.ansatz, self.levels))
            engine_s = time.perf_counter() - engine_start
            self._h_engine.observe(engine_s)
            result = self._merge_timings(
                self._finalize(member_p1, mode, shot_noise=False),
                {"engine_compute": engine_s})
        self._count_request(result)
        return result

    def score(self, features: Union[np.ndarray, Sequence],
              mode: str = "reference") -> ScoreResult:
        """Score a batch of raw feature rows synchronously (no coalescing)."""
        self._check_mode(mode)
        normalized = self._normalize(features)
        self._check_replay_size(normalized.shape[0], mode)
        return self._score_rows(normalized, mode)

    # ------------------------------------------------------- stateful scoring
    def fresh_member_rngs(self) -> List[np.random.Generator]:
        """One restored post-planning generator per member.

        The seed state a *dedicated session* holds: passing these generators
        to :meth:`score_stateful` for every sequential request makes the
        member RNG streams advance across the session exactly as one long
        fit-time sweep would.
        """
        return [member.fresh_rng() for member in self._members]

    def score_stateful(self, features: Union[np.ndarray, Sequence],
                       rngs: List[np.random.Generator],
                       mode: str = "reference") -> ScoreResult:
        """Score with caller-owned per-member generators, consumed in place.

        Unlike :meth:`score` (which restores each member's RNG from the
        artifact *per request*, making requests independent), this advances
        the supplied generators -- the contract dedicated sessions build on:

        * the **first** request of a fresh generator set consumes the RNG
          exactly like :meth:`score`, so a full-training-set ``replay`` as
          the opening request is bitwise identical to the detector's fit;
        * two generator sets fed the same request sequence produce
          bitwise-identical score sequences (sticky determinism).

        The caller is responsible for sequencing: concurrent calls sharing
        one generator set would interleave draws nondeterministically.
        """
        self._check_mode(mode)
        if len(rngs) != len(self._members):
            raise ValueError(
                f"expected {len(self._members)} member generators, "
                f"got {len(rngs)}")
        normalized = self._normalize(features)
        self._check_replay_size(normalized.shape[0], mode)
        if self._fusable:
            result = self._finalize(self._exact_member_p1(normalized), mode,
                                    shot_noise=True, rngs=rngs)
        else:
            # Trajectory engines consume the generator during evolution, so
            # handing the session's generator to the engine *is* the sticky
            # stream (no post-hoc noise application).
            member_p1 = []
            for member, rng in zip(self._members, rngs):
                engine = self._build_engine(self.config.shots, rng=rng)
                member_p1.append(engine.p1_levels_batch(
                    self._member_amplitudes(member, normalized),
                    member.ansatz, self.levels))
            result = self._finalize(member_p1, mode, shot_noise=False)
        self._count_request(result)
        return result

    # ----------------------------------------------------------- micro-batching
    def submit(self, features: Union[np.ndarray, Sequence],
               mode: str = "reference") -> "Future[ScoreResult]":
        """Queue a request for micro-batched execution; returns a future.

        Concurrent submissions are coalesced into one fused batch per member;
        results are bitwise identical to calling :meth:`score` per request.
        """
        self._check_mode(mode)
        normalized = self._normalize(features)
        self._check_replay_size(normalized.shape[0], mode)
        request = _Request(normalized, mode)
        with self._queue_cond:
            if self._closed:
                raise RuntimeError("the scorer has been closed")
            self._queue.append(request)
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(target=self._worker_loop,
                                                name="quorum-scorer",
                                                daemon=True)
                self._worker.start()
            self._queue_cond.notify_all()
        return request.future

    @staticmethod
    def _check_mode(mode: str) -> None:
        if mode not in SCORING_MODES:
            raise ValueError(
                f"unknown scoring mode {mode!r}; expected one of {SCORING_MODES}")

    def _check_replay_size(self, num_samples: int, mode: str) -> None:
        """Reject a wrong-sized replay request *before* any simulation runs."""
        if mode == "replay" and num_samples != self.artifact.num_samples:
            raise ValueError(
                f"replay mode requires the full training set of "
                f"{self.artifact.num_samples} samples (got {num_samples}); "
                "use mode='reference' for unseen data"
            )

    def _drain_batch(self) -> List[_Request]:
        """Pop queued requests up to the sample budget (at least one)."""
        batch: List[_Request] = []
        budget = self.max_batch_samples
        while self._queue:
            pending = self._queue[0]
            rows = pending.normalized.shape[0]
            if batch and rows > budget:
                break
            batch.append(self._queue.pop(0))
            budget -= rows
        return batch

    def _worker_loop(self) -> None:
        while True:
            with self._queue_cond:
                while not self._queue and not self._closed:
                    self._queue_cond.wait()
                if self._closed and not self._queue:
                    return
            # Let a concurrent burst accumulate before draining, so the fused
            # batch amortizes the per-member sweep over many requests.
            if self.batch_window_s:
                time.sleep(self.batch_window_s)
            with self._queue_cond:
                batch = self._drain_batch()
            if batch:
                self._execute_batch(batch)

    def _execute_batch(self, batch: List[_Request]) -> None:
        batch = [request for request in batch
                 if not request.future.cancelled()]
        if not batch:
            return
        batch_start = time.perf_counter()
        queue_waits = {id(request): batch_start - request.enqueued_at
                      for request in batch}
        for wait_s in queue_waits.values():
            self._h_queue_wait.observe(wait_s)
        with self._lock:
            self._stats["batches"] += 1
            self._stats["coalesced_requests"] += len(batch)
        self._m_batches.inc()
        if not self._fusable or len(batch) == 1:
            for request in batch:
                self._resolve(
                    request,
                    lambda req=request: self._merge_timings(
                        self._score_rows(req.normalized, req.mode),
                        {"queue_wait": queue_waits[id(req)]}))
            return
        try:
            assembly_start = time.perf_counter()
            stacked = np.concatenate([request.normalized for request in batch])
            assembly_s = time.perf_counter() - assembly_start
            self._h_assembly.observe(assembly_s)
            engine_start = time.perf_counter()
            member_p1 = self._exact_member_p1(stacked)
            engine_s = time.perf_counter() - engine_start
            self._h_engine.observe(engine_s)
        except Exception as error:  # pragma: no cover - defensive
            for request in batch:
                if not request.future.cancelled():
                    try:
                        request.future.set_exception(error)
                    except Exception:
                        pass
            return
        offset = 0
        for request in batch:
            rows = request.normalized.shape[0]
            window = slice(offset, offset + rows)
            offset += rows
            slices = [p1[:, window] for p1 in member_p1]
            # Batch-level spans (assembly, engine) are shared by every
            # coalesced request; queue wait is each request's own.
            stages = {"queue_wait": queue_waits[id(request)],
                      "batch_assembly": assembly_s,
                      "engine_compute": engine_s}
            self._resolve(request,
                          lambda s=slices, req=request, t=stages:
                          self._finalize_counted(s, req.mode, t))

    def _finalize_counted(self, member_p1: List[np.ndarray], mode: str,
                          stage_timings: Optional[Dict[str, float]] = None
                          ) -> ScoreResult:
        result = self._finalize(member_p1, mode, shot_noise=True)
        if stage_timings:
            result = self._merge_timings(result, stage_timings)
        self._count_request(result)
        return result

    @staticmethod
    def _resolve(request: _Request, producer) -> None:
        future = request.future
        if future.cancelled():
            # The client gave up (e.g. an HTTP timeout); skip the work.
            return
        try:
            result = producer()
        except Exception as error:
            if not future.cancelled():
                try:
                    future.set_exception(error)
                except Exception:  # racing cancel between check and set
                    pass
            return
        if not future.cancelled():
            try:
                future.set_result(result)
            except Exception:  # racing cancel between check and set
                pass

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the micro-batch worker; queued requests are still completed."""
        with self._queue_cond:
            self._closed = True
            self._queue_cond.notify_all()
            worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout=10.0)

    def __enter__(self) -> "OnlineScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- diagnostics
    def diagnostics(self) -> Dict[str, object]:
        """Operator diagnostics: model summary, serving counters, cache stats.

        Served verbatim by ``GET /model`` so operators can verify warm-cache
        serving (``compiler_cache.hits`` growing while ``compiles`` stays
        flat across requests).
        """
        with self._lock:
            serving = dict(self._stats)
            members_per_dispatch = dict(self._members_per_dispatch)
        stats = self.compiler.stats
        return {
            "model": self.artifact.summary(),
            "serving": {
                **serving,
                "max_batch_samples": self.max_batch_samples,
                "batch_window_s": self.batch_window_s,
                "micro_batch_fusion": self._fusable,
                "fused_members": self._fused_members,
                "members_per_dispatch": members_per_dispatch,
            },
            "compiler_cache": {
                "compiles": stats.compiles,
                "group_compiles": stats.group_compiles,
                "hits": stats.hits,
                "misses": stats.misses,
                "entries": self.compiler.cache_size(),
                "bytes": self.compiler.cache_bytes(),
            },
        }
