"""Async job manager: long-running work behind ``POST /v1/jobs``.

The synchronous score path holds one HTTP connection open per request, which
is wrong for minutes-long work (a full-dataset replay, a fresh fit).
:class:`JobManager` runs that work on a bounded thread pool instead:
``submit`` validates the request, enqueues it, and immediately returns a
:class:`Job` with a uuid id; clients poll ``status``, fetch ``result``, or
``cancel``.  Finished jobs are garbage-collected after a TTL so a long-lived
server does not accumulate every result ever produced.

Job kinds
---------
``replay_dataset``
    Score the (full) training set in ``replay`` mode against a registered
    model.  Routed through the scorer's micro-batch queue, so the result is
    **bitwise identical** to an in-process ``OnlineScorer`` replay.
``score``
    Bulk ``reference`` (or ``replay``) scoring as a job -- the asynchronous
    twin of ``POST /v1/models/{id}/score`` for payloads too large to wait on.
``fit``
    Train-as-a-job: fit a fresh :class:`QuorumDetector` on submitted samples
    and register the resulting artifact in the model registry (optionally
    persisting it to disk), so new models come online without a restart.

Everything is lock-protected; the clock is injectable so TTL expiry is
deterministic under test.
"""

from __future__ import annotations

import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.serving.models import (
    JOB_KINDS,
    ApiError,
    JobInfo,
    JobSubmitRequest,
)
from repro.serving.registry import ModelRegistry
from repro.serving.scorer import SCORING_MODES
from repro.serving.telemetry import MetricsRegistry, default_registry

__all__ = ["Job", "JobManager"]

#: Statuses that end a job's lifecycle (eligible for TTL garbage collection).
TERMINAL_STATES = ("succeeded", "failed", "cancelled")

#: QuorumConfig overrides a ``fit`` job may set; anything else is rejected at
#: submit time so a typo fails fast instead of fitting a default detector.
FIT_CONFIG_KEYS = (
    "ensemble_groups", "shots", "seed", "num_qubits", "backend",
    "simulation_backend", "noisy", "bucket_probability",
    "anomaly_fraction_estimate",
)

#: How long one in-job scoring call may wait on the micro-batch queue.
JOB_SCORE_TIMEOUT_S = 3600.0


@dataclass
class Job:
    """One unit of asynchronous work and its lifecycle record."""

    job_id: str
    kind: str
    model_id: Optional[str]
    created_at: float
    status: str = "queued"
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, object]] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    future: Optional[object] = None  # concurrent.futures.Future

    @property
    def queued_s(self) -> Optional[float]:
        """Submit-to-start wait (to finish, for jobs cancelled unstarted)."""
        reference = self.started_at if self.started_at is not None \
            else self.finished_at
        if reference is None:
            return None
        return max(0.0, reference - self.created_at)

    @property
    def run_s(self) -> Optional[float]:
        """Start-to-finish execution time (None until both are known)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return max(0.0, self.finished_at - self.started_at)

    def info(self) -> JobInfo:
        return JobInfo(job_id=self.job_id, kind=self.kind, status=self.status,
                       model_id=self.model_id, created_at=self.created_at,
                       started_at=self.started_at,
                       finished_at=self.finished_at, error=self.error,
                       queued_s=self.queued_s, run_s=self.run_s)


class JobManager:
    """Bounded worker pool + lock-protected job table with TTL expiry.

    Parameters
    ----------
    registry:
        The model registry jobs score against (and that ``fit`` jobs extend).
    workers:
        Worker-pool size; queued jobs beyond it wait their turn.
    ttl_s:
        How long a *finished* job (and its result) stays retrievable.
    clock:
        Injectable time source; tests advance a fake clock to exercise TTL
        expiry without sleeping.
    metrics:
        Telemetry registry for job duration histograms and outcome counters;
        defaults to the process-global registry.
    """

    def __init__(self, registry: ModelRegistry, workers: int = 2,
                 ttl_s: float = 900.0,
                 clock: Callable[[], float] = time.time,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.registry = registry
        self.ttl_s = float(ttl_s)
        self.workers = int(workers)
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._pool = ThreadPoolExecutor(max_workers=self.workers,
                                        thread_name_prefix="quorum-job")
        self._closed = False
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_finished = self.metrics.counter(
            "jobs_finished_total", "jobs reaching a terminal status")
        self._h_queue_wait = self.metrics.histogram(
            "job_queue_wait_seconds", "submit-to-start wait on the job pool")
        self._h_run = self.metrics.histogram(
            "job_run_seconds", "job execution time (start to finish)")

    # ------------------------------------------------------------- submission
    def submit(self, request: JobSubmitRequest) -> Job:
        """Validate and enqueue one job; returns immediately with its record."""
        if request.kind not in JOB_KINDS:
            raise ApiError("bad_request",
                           f"unknown job kind {request.kind!r}; expected one "
                           f"of {JOB_KINDS}")
        work = self._build_work(request)
        return self.submit_fn(request.kind, work, model_id=request.model_id)

    def submit_fn(self, kind: str,
                  work: Callable[[threading.Event], Dict[str, object]],
                  model_id: Optional[str] = None) -> Job:
        """Enqueue an arbitrary work callable (tests inject controllable work).

        ``work`` receives the job's cancel event and returns the JSON-ready
        result payload.
        """
        with self._lock:
            if self._closed:
                raise ApiError("shutting_down",
                               "the job manager is shutting down")
            self._gc_locked()
            job = Job(job_id=uuid.uuid4().hex, kind=kind, model_id=model_id,
                      created_at=self._clock())
            self._jobs[job.job_id] = job
            job.future = self._pool.submit(self._run, job, work)
        return job

    def _build_work(self, request: JobSubmitRequest
                    ) -> Callable[[threading.Event], Dict[str, object]]:
        """Validate kind-specific params and close over the actual work."""
        params = request.params
        if request.kind in ("replay_dataset", "score"):
            samples = params.get("samples")
            allowed = ("samples",) if request.kind == "replay_dataset" \
                else ("samples", "mode")
            unknown = sorted(set(params) - set(allowed))
            if unknown:
                raise ApiError("bad_request",
                               f"unknown param(s) {unknown} for a "
                               f"{request.kind} job",
                               detail={"allowed": list(allowed)})
            if not isinstance(samples, list) or not samples:
                raise ApiError("bad_request",
                               f"a {request.kind} job requires a non-empty "
                               '"samples" matrix in params')
            mode = "replay" if request.kind == "replay_dataset" \
                else params.get("mode", "reference")
            if mode not in SCORING_MODES:
                raise ApiError("bad_request",
                               f"unknown scoring mode {mode!r}; expected one "
                               f"of {SCORING_MODES}")
            # Resolve now so an unknown model fails at submit time (404),
            # not as a failed job the client has to poll to discover.
            self.registry.get(request.model_id)
            model_key = request.model_id

            def work(cancel_event: threading.Event) -> Dict[str, object]:
                entry = self.registry.get(model_key)
                result = entry.scorer.submit(samples, mode=mode).result(
                    timeout=JOB_SCORE_TIMEOUT_S)
                return {
                    "scores": result.scores.tolist(),
                    "num_runs": result.num_runs,
                    "num_samples": result.num_samples,
                    "mode": result.mode,
                    "model_id": entry.model_id,
                    "schema_version": entry.artifact.schema_version,
                }

            return work

        # kind == "fit"
        allowed = ("samples", "config", "register_as", "save_path")
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            raise ApiError("bad_request",
                           f"unknown param(s) {unknown} for a fit job",
                           detail={"allowed": list(allowed)})
        samples = params.get("samples")
        if not isinstance(samples, list) or not samples:
            raise ApiError("bad_request",
                           'a fit job requires a non-empty "samples" matrix '
                           "in params")
        config = params.get("config", {})
        if not isinstance(config, dict):
            raise ApiError("bad_request", "fit params.config must be an object")
        bad_keys = sorted(set(config) - set(FIT_CONFIG_KEYS))
        if bad_keys:
            raise ApiError("bad_request",
                           f"unsupported fit config key(s) {bad_keys}",
                           detail={"allowed": list(FIT_CONFIG_KEYS)})
        register_as = params.get("register_as")
        if register_as is not None and (not isinstance(register_as, str)
                                        or not register_as):
            raise ApiError("bad_request",
                           "fit params.register_as must be a non-empty string")
        save_path = params.get("save_path")
        if save_path is not None and (not isinstance(save_path, str)
                                      or not save_path):
            raise ApiError("bad_request",
                           "fit params.save_path must be a non-empty string")

        def fit_work(cancel_event: threading.Event) -> Dict[str, object]:
            from repro.core.detector import QuorumDetector
            from repro.serving.artifact import ModelArtifact, save_model

            try:
                detector = QuorumDetector(**config)
                detector.fit(np.asarray(samples, dtype=float))
                artifact = ModelArtifact.from_detector(detector)
            except (TypeError, ValueError) as error:
                raise ApiError("bad_request",
                               f"fit job failed: {error}") from None
            saved_to = None
            if save_path is not None:
                saved_to = str(save_model(artifact, save_path))
            entry = self.registry.register(artifact, model_id=register_as,
                                           path=saved_to)
            return {
                "model_id": entry.model_id,
                "sha256": entry.sha256,
                "saved_to": saved_to,
                "summary": entry.artifact.summary(),
            }

        return fit_work

    # -------------------------------------------------------------- execution
    def _run(self, job: Job,
             work: Callable[[threading.Event], Dict[str, object]]) -> None:
        with self._lock:
            if job.cancel_event.is_set() or job.status == "cancelled":
                self._finish_locked(job, "cancelled")
                return
            job.status = "running"
            job.started_at = self._clock()
        try:
            result = work(job.cancel_event)
        except ApiError as error:
            with self._lock:
                job.error = {"code": error.code, "message": error.message}
                self._finish_locked(job, "failed")
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            with self._lock:
                job.error = {"code": "internal",
                             "message": f"{type(error).__name__}: {error}"}
                self._finish_locked(job, "failed")
        else:
            with self._lock:
                if job.cancel_event.is_set():
                    # Cancelled mid-run: the work unit is not interruptible,
                    # but the contract is "no result after cancel".
                    self._finish_locked(job, "cancelled")
                else:
                    job.result = result
                    self._finish_locked(job, "succeeded")

    def _finish_locked(self, job: Job, status: str) -> None:
        job.status = status
        job.finished_at = self._clock()
        self._m_finished.inc(status=status)
        queued_s = job.queued_s
        if queued_s is not None:
            self._h_queue_wait.observe(queued_s)
        run_s = job.run_s
        if run_s is not None:
            self._h_run.observe(run_s)

    # ----------------------------------------------------------------- access
    def get(self, job_id: str) -> Job:
        with self._lock:
            self._gc_locked()
            job = self._jobs.get(job_id)
            if job is None:
                raise ApiError("job_not_found", f"no job with id {job_id!r} "
                               "(finished jobs expire after "
                               f"{self.ttl_s:.0f}s)")
            return job

    def result(self, job_id: str) -> Dict[str, object]:
        """The result payload of a succeeded job.

        Raises ``job_not_done`` (409) while the job is queued/running or was
        cancelled, and re-raises a failed job's error with its original code.
        """
        job = self.get(job_id)
        with self._lock:
            if job.status == "succeeded":
                assert job.result is not None
                return job.result
            if job.status == "failed":
                error = job.error or {"code": "internal",
                                      "message": "job failed"}
                raise ApiError(str(error.get("code", "internal")),
                               str(error.get("message", "job failed")),
                               detail={"job_id": job.job_id})
            if job.status == "cancelled":
                raise ApiError("job_not_done",
                               f"job {job_id} was cancelled; no result",
                               detail={"status": job.status})
            raise ApiError("job_not_done",
                           f"job {job_id} is {job.status}; poll "
                           "GET /v1/jobs/{id} until it finishes",
                           detail={"status": job.status})

    def cancel(self, job_id: str) -> Job:
        """Cancel a job (idempotent; finished jobs are left untouched).

        A queued job is cancelled immediately; a running job has its cancel
        event set -- the work is not preempted, but its result is discarded
        and the terminal status becomes ``cancelled``.
        """
        job = self.get(job_id)
        with self._lock:
            if job.status in TERMINAL_STATES:
                return job
            job.cancel_event.set()
            future = job.future
            if job.status == "queued" and future is not None \
                    and future.cancel():
                self._finish_locked(job, "cancelled")
            return job

    def list(self) -> List[Job]:
        with self._lock:
            self._gc_locked()
            return sorted(self._jobs.values(), key=lambda job: job.created_at)

    def counts(self) -> Dict[str, int]:
        """``{status: count}`` over live (non-GC'd) jobs."""
        counts = {status: 0 for status in
                  ("queued", "running", "succeeded", "failed", "cancelled")}
        with self._lock:
            self._gc_locked()
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    # ---------------------------------------------------------------- expiry
    def _gc_locked(self) -> None:
        now = self._clock()
        expired = [job_id for job_id, job in self._jobs.items()
                   if job.status in TERMINAL_STATES
                   and job.finished_at is not None
                   and now - job.finished_at > self.ttl_s]
        for job_id in expired:
            del self._jobs[job_id]

    def gc(self) -> None:
        """Drop finished jobs past their TTL (also runs on every access)."""
        with self._lock:
            self._gc_locked()

    # -------------------------------------------------------------- lifecycle
    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs, cancel the queue, and (optionally) wait."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for job in self._jobs.values():
                if job.status == "queued":
                    job.cancel_event.set()
                    if job.future is not None and job.future.cancel():
                        self._finish_locked(job, "cancelled")
        self._pool.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
