"""JobManager: lifecycle, bitwise replay parity, cancellation, TTL expiry."""

import threading
import time

import numpy as np
import pytest

from repro.core.detector import QuorumDetector
from repro.quantum.compiler import CircuitCompiler
from repro.serving.artifact import load_model, save_model
from repro.serving.jobs import TERMINAL_STATES, JobManager
from repro.serving.models import ApiError, JobSubmitRequest
from repro.serving.registry import ModelRegistry
from repro.serving.scorer import OnlineScorer


def _toy_data(samples=24, features=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(samples, features))


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    data = _toy_data()
    detector = QuorumDetector(ensemble_groups=2, seed=17, shots=512)
    detector.fit(data)
    path = save_model(detector, tmp_path_factory.mktemp("jobs") / "model.json")
    return {"data": data, "detector": detector, "path": path}


@pytest.fixture()
def registry(bundle):
    with ModelRegistry(compiler=CircuitCompiler()) as reg:
        reg.load(bundle["path"], model_id="m")
        yield reg


def _wait_terminal(manager, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = manager.get(job_id)
        if job.status in TERMINAL_STATES:
            return job
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestLifecycle:
    def test_replay_job_is_bitwise_identical_to_in_process_replay(
            self, bundle, registry):
        """Acceptance criterion: submit -> poll -> result equals an
        in-process OnlineScorer replay bitwise."""
        request = JobSubmitRequest(
            kind="replay_dataset", model_id="m",
            params={"samples": bundle["data"].tolist()})
        with JobManager(registry, workers=2) as manager:
            job = manager.submit(request)
            assert job.status in ("queued", "running")
            done = _wait_terminal(manager, job.job_id)
            assert done.status == "succeeded"
            result = manager.result(job.job_id)

        with OnlineScorer(load_model(bundle["path"])) as scorer:
            expected = scorer.score(bundle["data"], mode="replay")
        assert np.array_equal(np.array(result["scores"]), expected.scores)
        assert np.array_equal(np.array(result["scores"]),
                              bundle["detector"].anomaly_scores())
        assert result["mode"] == "replay"
        assert result["model_id"] == "m"

    def test_score_job_reference_mode(self, bundle, registry):
        unseen = _toy_data(samples=4, seed=5)
        with JobManager(registry, workers=1) as manager:
            job = manager.submit(JobSubmitRequest(
                kind="score", model_id="m",
                params={"samples": unseen.tolist(), "mode": "reference"}))
            _wait_terminal(manager, job.job_id)
            result = manager.result(job.job_id)
        direct = registry.get("m").scorer.submit(unseen).result(timeout=60)
        assert np.array_equal(np.array(result["scores"]), direct.scores)

    def test_fit_job_registers_a_scoreable_model(self, bundle, registry,
                                                 tmp_path):
        save_path = tmp_path / "fitted.json"
        with JobManager(registry, workers=1) as manager:
            job = manager.submit(JobSubmitRequest(
                kind="fit",
                params={"samples": bundle["data"].tolist(),
                        "config": {"ensemble_groups": 2, "seed": 17,
                                   "shots": 512},
                        "register_as": "fresh",
                        "save_path": str(save_path)}))
            done = _wait_terminal(manager, job.job_id)
            assert done.status == "succeeded", done.error
            result = manager.result(job.job_id)
        assert result["model_id"] == "fresh"
        assert save_path.exists()
        # Same data/config/seed as the fixture detector: identical content...
        assert result["sha256"] == registry.get("m").sha256
        # ...and the new entry scores.
        scored = registry.get("fresh").scorer.submit(
            bundle["data"][:3]).result(timeout=60)
        assert scored.num_samples == 3

    def test_result_before_done_is_job_not_done(self, registry):
        release = threading.Event()

        def work(cancel_event):
            release.wait(timeout=30)
            return {"ok": True}

        with JobManager(registry, workers=1) as manager:
            job = manager.submit_fn("score", work)
            with pytest.raises(ApiError) as excinfo:
                manager.result(job.job_id)
            assert excinfo.value.code == "job_not_done"
            assert excinfo.value.http_status == 409
            release.set()
            _wait_terminal(manager, job.job_id)
            assert manager.result(job.job_id) == {"ok": True}

    def test_failed_job_reraises_its_error_code(self, registry):
        def work(cancel_event):
            raise ApiError("model_not_found", "gone mid-flight")

        with JobManager(registry, workers=1) as manager:
            job = manager.submit_fn("score", work)
            done = _wait_terminal(manager, job.job_id)
            assert done.status == "failed"
            assert done.error["code"] == "model_not_found"
            with pytest.raises(ApiError) as excinfo:
                manager.result(job.job_id)
            assert excinfo.value.code == "model_not_found"

    def test_crashing_job_fails_with_internal(self, registry):
        def work(cancel_event):
            raise RuntimeError("boom")

        with JobManager(registry, workers=1) as manager:
            job = manager.submit_fn("score", work)
            done = _wait_terminal(manager, job.job_id)
            assert done.status == "failed"
            assert done.error == {"code": "internal",
                                  "message": "RuntimeError: boom"}


class TestValidation:
    @pytest.mark.parametrize("request_json, match", [
        ({"kind": "replay_dataset", "model_id": "m", "params": {}},
         "non-empty"),
        ({"kind": "replay_dataset", "model_id": "m",
          "params": {"samples": [[1]], "mode": "replay"}}, "unknown param"),
        ({"kind": "score", "model_id": "m",
          "params": {"samples": [[1]], "mode": "sideways"}}, "scoring mode"),
        ({"kind": "fit", "params": {"samples": [[1]],
                                    "config": {"learning_rate": 0.1}}},
         "config key"),
        ({"kind": "fit", "params": {"samples": [[1]],
                                    "config": {"compile_circuits": False}}},
         "config key"),
        ({"kind": "fit", "params": {"samples": [[1]], "register_as": ""}},
         "register_as"),
    ])
    def test_bad_params_fail_at_submit_time(self, registry, request_json,
                                            match):
        with JobManager(registry, workers=1) as manager:
            with pytest.raises(ApiError, match=match) as excinfo:
                manager.submit(JobSubmitRequest.from_json(request_json))
            assert excinfo.value.code == "bad_request"
            assert manager.counts() == {status: 0 for status in
                                        manager.counts()}

    def test_unknown_model_404s_at_submit_not_as_failed_job(self, registry):
        with JobManager(registry, workers=1) as manager:
            with pytest.raises(ApiError) as excinfo:
                manager.submit(JobSubmitRequest(
                    kind="score", model_id="ghost",
                    params={"samples": [[1.0] * 5]}))
            assert excinfo.value.code == "model_not_found"

    def test_unknown_job_id_is_job_not_found(self, registry):
        with JobManager(registry, workers=1) as manager:
            with pytest.raises(ApiError) as excinfo:
                manager.get("deadbeef")
            assert excinfo.value.code == "job_not_found"


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, registry):
        blocker = threading.Event()
        started = threading.Event()
        ran = threading.Event()

        def blocking_work(cancel_event):
            started.set()
            blocker.wait(timeout=30)
            return {"ok": True}

        def queued_work(cancel_event):
            ran.set()
            return {"ok": True}

        with JobManager(registry, workers=1) as manager:
            first = manager.submit_fn("score", blocking_work)
            assert started.wait(timeout=10)
            queued = manager.submit_fn("score", queued_work)
            assert manager.get(queued.job_id).status == "queued"

            cancelled = manager.cancel(queued.job_id)
            assert cancelled.status == "cancelled"
            blocker.set()
            _wait_terminal(manager, first.job_id)
            assert manager.result(first.job_id) == {"ok": True}
            assert not ran.is_set()
            with pytest.raises(ApiError) as excinfo:
                manager.result(queued.job_id)
            assert excinfo.value.code == "job_not_done"

    def test_cancel_running_job_discards_result(self, registry):
        release = threading.Event()

        def work(cancel_event):
            release.wait(timeout=30)
            return {"secret": True}

        with JobManager(registry, workers=1) as manager:
            job = manager.submit_fn("score", work)
            deadline = time.monotonic() + 10
            while manager.get(job.job_id).status != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            manager.cancel(job.job_id)
            release.set()
            done = _wait_terminal(manager, job.job_id)
            assert done.status == "cancelled"
            assert done.result is None

    def test_cancel_is_idempotent_and_skips_finished(self, registry):
        with JobManager(registry, workers=1) as manager:
            job = manager.submit_fn("score", lambda cancel: {"ok": 1})
            _wait_terminal(manager, job.job_id)
            after = manager.cancel(job.job_id)
            assert after.status == "succeeded"  # finished jobs stay finished
            cancelled_twice = manager.cancel(job.job_id)
            assert cancelled_twice.status == "succeeded"


class TestTTLExpiry:
    def test_finished_jobs_expire_after_ttl(self, registry):
        fake = [1000.0]
        with JobManager(registry, workers=1, ttl_s=60.0,
                        clock=lambda: fake[0]) as manager:
            job = manager.submit_fn("score", lambda cancel: {"ok": 1})
            _wait_terminal(manager, job.job_id)

            fake[0] += 59.0  # within TTL: still retrievable
            assert manager.result(job.job_id) == {"ok": 1}

            fake[0] += 2.0  # past TTL: garbage-collected
            with pytest.raises(ApiError) as excinfo:
                manager.get(job.job_id)
            assert excinfo.value.code == "job_not_found"
            assert manager.list() == []

    def test_running_jobs_never_expire(self, registry):
        fake = [1000.0]
        release = threading.Event()
        with JobManager(registry, workers=1, ttl_s=1.0,
                        clock=lambda: fake[0]) as manager:
            job = manager.submit_fn(
                "score", lambda cancel: (release.wait(timeout=30),
                                         {"ok": 1})[1])
            fake[0] += 1000.0
            assert manager.get(job.job_id).status in ("queued", "running")
            release.set()
            _wait_terminal(manager, job.job_id)


class TestShutdown:
    def test_close_rejects_new_submissions(self, registry):
        manager = JobManager(registry, workers=1)
        manager.close()
        with pytest.raises(ApiError) as excinfo:
            manager.submit_fn("score", lambda cancel: {})
        assert excinfo.value.code == "shutting_down"
        assert excinfo.value.http_status == 503

    def test_close_cancels_queued_jobs(self, registry):
        started = threading.Event()
        release = threading.Event()

        def blocking_work(cancel_event):
            started.set()
            release.wait(timeout=30)
            return {}

        manager = JobManager(registry, workers=1)
        manager.submit_fn("score", blocking_work)
        assert started.wait(timeout=10)
        queued = manager.submit_fn("score", lambda cancel: {})
        release.set()
        manager.close(wait=True)
        assert queued.status == "cancelled"
