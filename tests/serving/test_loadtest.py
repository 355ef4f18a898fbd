"""Loadtest harness: metrics math, closed-loop pool, fleet, orchestrator."""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.detector import QuorumDetector
from repro.serving.artifact import save_model
from repro.serving.loadtest import (
    REPORT_VERSION,
    ReplicaFleet,
    ReplicaSpawnError,
    find_knee,
    run_closed_loop,
    run_loadtest,
    spawn_replica,
    suggest_batching,
    summarize_latencies,
)
from repro.serving.server import build_server
from repro.serving.telemetry import percentile


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    rng = np.random.default_rng(5)
    data = rng.normal(size=(20, 4))
    detector = QuorumDetector(ensemble_groups=2, seed=13, shots=256)
    detector.fit(data)
    return str(save_model(detector,
                          tmp_path_factory.mktemp("model") / "m.json"))


@pytest.fixture(scope="module")
def local_server(model_path):
    server = build_server(model_path, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    server.runtime.close()
    thread.join(timeout=10)


class TestMetrics:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summarize_converts_to_milliseconds(self):
        summary = summarize_latencies([0.010, 0.020, 0.030])
        assert summary["p50"] == pytest.approx(20.0)
        assert summary["max"] == pytest.approx(30.0)
        assert summary["mean"] == pytest.approx(20.0)
        assert set(summary) == {"mean", "p50", "p95", "p99", "max"}

    def test_summarize_empty_is_zero(self):
        assert summarize_latencies([])["p99"] == 0.0


class TestKnee:
    def test_knee_at_flattening_point(self):
        curve = [(1, 50.0), (2, 100.0), (4, 104.0), (8, 105.0)]
        assert find_knee(curve) == (2, 100.0)

    def test_never_flattening_returns_last(self):
        curve = [(1, 50.0), (2, 100.0), (4, 200.0)]
        assert find_knee(curve) == (4, 200.0)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            find_knee([])

    def test_suggestion_prefers_best_window_of_largest_fleet(self):
        def run(replicas, window, concurrency, rps):
            return {"replicas": replicas, "batch_window_ms": window,
                    "concurrency": concurrency, "throughput_rps": rps}

        runs = [
            run(1, 2.0, 4, 500.0),   # baseline ignored for the suggestion
            run(2, 2.0, 2, 100.0), run(2, 2.0, 4, 120.0),
            run(2, 8.0, 2, 150.0), run(2, 8.0, 4, 290.0),
        ]
        suggestion = suggest_batching(runs, samples_per_request=16)
        assert suggestion["batch_window_ms"] == 8.0
        assert suggestion["knee_concurrency"] == 4
        # 4 workers x 16 samples = 64 in flight at the knee.
        assert suggestion["max_batch_samples"] == 64

    def test_suggestion_clamps_to_bounds(self):
        runs = [{"replicas": 1, "batch_window_ms": 2.0, "concurrency": 1,
                 "throughput_rps": 10.0}]
        assert suggest_batching(runs, samples_per_request=1)[
            "max_batch_samples"] == 32
        assert suggest_batching(runs, samples_per_request=10**6)[
            "max_batch_samples"] == 4096


class TestClosedLoop:
    def test_measures_in_process_server(self, local_server):
        result = run_closed_loop(local_server, "/v1/healthz", None,
                                 concurrency=2, duration_s=0.5,
                                 method="GET")
        assert result["concurrency"] == 2
        assert result["requests"] > 0
        assert result["errors"] == 0
        assert result["throughput_rps"] > 0
        assert result["latency_ms"]["p50"] <= result["latency_ms"]["p99"]

    def test_counts_http_errors(self, local_server):
        result = run_closed_loop(local_server, "/v1/no-such-route", None,
                                 concurrency=1, duration_s=0.3, method="GET")
        assert result["requests"] == 0
        assert result["errors"] > 0

    def test_rejects_bad_parameters(self, local_server):
        with pytest.raises(ValueError):
            run_closed_loop(local_server, "/", None, concurrency=0,
                            duration_s=1.0)
        with pytest.raises(ValueError):
            run_closed_loop(local_server, "/", None, concurrency=1,
                            duration_s=0.0)


class TestReplicaFleet:
    def test_spawns_and_reaps_real_replicas(self, model_path):
        fleet = ReplicaFleet(model_path, replicas=1, batch_window_ms=1.0)
        try:
            fleet.start()
            (host, port), = fleet.addresses
            url = f"http://{host}:{port}/v1/healthz"
            with urllib.request.urlopen(url, timeout=30) as response:
                assert json.load(response)["status"] == "ok"
        finally:
            exit_codes = fleet.close()
        assert exit_codes == [0]
        assert fleet.addresses == []

    def test_bad_model_path_fails_fast(self, tmp_path):
        fleet = ReplicaFleet(tmp_path / "missing.json", replicas=1,
                             startup_timeout_s=60.0)
        with pytest.raises(RuntimeError):
            fleet.start()
        assert fleet.close() == []

    def test_rejects_zero_replicas(self, model_path):
        with pytest.raises(ValueError):
            ReplicaFleet(model_path, replicas=0)


class TestSpawnReplica:
    def test_crash_on_boot_surfaces_immediately(self, tmp_path):
        """A replica dying before the startup line reports its exit code and
        stderr tail right away instead of burning the startup deadline."""
        started = time.monotonic()
        with pytest.raises(ReplicaSpawnError) as excinfo:
            spawn_replica(tmp_path / "missing.json", startup_timeout_s=120.0)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0  # early exit, not the 120 s deadline
        error = excinfo.value
        assert error.exit_code not in (None, 0)
        assert "missing.json" in error.stderr_tail
        assert str(error.exit_code) in str(error)

    def test_replica_process_handle(self, model_path):
        """The handle exposes pid/liveness/signals for the supervisor."""
        replica = spawn_replica(model_path, batch_window_ms=1.0)
        try:
            assert replica.alive
            assert replica.poll() is None
            assert replica.pid > 0
            host, port = replica.host, replica.port
            assert replica.address == f"{host}:{port}"
            url = f"http://{replica.address}/v1/healthz"
            with urllib.request.urlopen(url, timeout=30) as response:
                assert json.load(response)["status"] == "ok"
            summary = replica.exit_summary()
            assert summary["exit_code"] is None  # still running
        finally:
            exit_code = replica.close()
        assert exit_code == 0  # SIGTERM drained cleanly
        assert not replica.alive

    def test_close_resumes_a_stopped_replica_first(self, model_path):
        """SIGSTOP must not force close() to escalate to SIGKILL."""
        import signal as signal_module

        replica = spawn_replica(model_path, batch_window_ms=1.0)
        try:
            replica.send_signal(signal_module.SIGSTOP)
        except BaseException:
            replica.close()
            raise
        exit_code = replica.close(term_timeout_s=30.0)
        assert exit_code == 0  # SIGCONT + SIGTERM, not a dirty SIGKILL


class TestRunLoadtest:
    def test_report_schema_single_replica(self, model_path):
        report = run_loadtest(model_path, replicas=1, concurrencies=[2],
                              duration_s=0.4, warmup_s=0.1,
                              samples_per_request=2)
        assert report["version"] == REPORT_VERSION
        assert report["scale_out"] is None  # no 1->K story with K=1
        assert report["replica_exits"]["clean"] is True
        (run,) = report["runs"]
        assert run["replicas"] == 1
        assert run["requests"] > 0
        assert sum(run["per_replica_requests"].values()) >= run["requests"]
        assert set(report["suggestion"]) >= {
            "knee_concurrency", "batch_window_ms", "max_batch_samples"}
        json.dumps(report)  # the report must be JSON-serializable

    def test_replay_mode_validates_training_set(self, model_path):
        with pytest.raises(ValueError, match="training set"):
            run_loadtest(model_path, mode="replay")
        with pytest.raises(ValueError, match="full training set"):
            run_loadtest(model_path, mode="replay",
                         replay_samples=np.zeros((3, 4)))

    def test_unknown_mode_rejected(self, model_path):
        with pytest.raises(ValueError, match="mode"):
            run_loadtest(model_path, mode="chaos")

    def test_bad_concurrency_rejected(self, model_path):
        with pytest.raises(ValueError):
            run_loadtest(model_path, concurrencies=[0])
