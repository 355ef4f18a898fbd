"""Serve workloads: closed-loop HTTP clients against a one-replica fleet.

The fixture model is fit in-process on seeded rows, saved, and served by a
``quorum-repro fleet --replicas 1`` subprocess (supervisor, round-robin proxy
and one ``serve`` replica).  Clients talk to the proxy over HTTP keep-alive.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
from spans import Tracer, core_metrics

WORKLOADS = {
    # One client, one row per request: each request runs alone, as a lone
    # event does in production (two clients would coalesce requests).
    "serve_noisy": {"dataset": "breast_cancer", "fixture_rows": 64,
                    "detector": {"backend": "density_matrix", "noisy": True,
                                 "num_qubits": 3, "ensemble_groups": 8},
                    "clients": 1, "rows_per_request": 1},
    # A cheap engine, so queueing, coalescing, shot noise, serialization and
    # the proxy are a visible share of each request.
    "serve_analytic": {"dataset": "power_plant", "fixture_rows": 256,
                       "detector": {"ensemble_groups": 50},
                       "clients": 2, "rows_per_request": 32},
}

SETUP_REPEATS = 3
#: Fixture fits repeat until this much fit time is measured (at least once).
FIXTURE_MIN_S = 1.0
#: A request row is a dataset row plus Gaussian noise of this share of each
#: feature's standard deviation, so no row repeats within a run and the
#: compile cache, which keys on content, never sees a row twice.
JITTER = 0.05
REQUEST_TIMEOUT_S = 120.0
STATUS_INTERVAL_S = 1.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_SERVING = re.compile(r"on http://([^\s:]+):(\d+)\s*$")


class RowSource:
    """Seeded stream of fresh request rows drawn around the dataset."""

    def __init__(self, data: np.ndarray, seed: int) -> None:
        self._data = data
        self._scale = JITTER * data.std(axis=0)
        self._rng = np.random.default_rng(seed)

    def rows(self, count: int) -> np.ndarray:
        picks = self._rng.integers(len(self._data), size=count)
        noise = self._rng.normal(size=(count, self._data.shape[1]))
        return self._data[picks] + noise * self._scale


class Fleet:
    """A ``quorum-repro fleet --replicas 1`` subprocess."""

    def __init__(self, model_path: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(common.SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
        self._log = open(log_path, "a")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fleet", "--model",
             model_path, "--replicas", "1", "--port", "0",
             "--status-interval", str(STATUS_INTERVAL_S)],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env)
        self._status: Optional[dict] = None
        self._replica_pids: set = set()
        self.address: Optional[Tuple[str, int]] = None
        match = _SERVING.search(self.process.stdout.readline())
        self._reader = threading.Thread(target=self._read_status, daemon=True)
        self._reader.start()
        if match is None:
            self.close()
            raise common.BenchError(f"fleet did not start; see {log_path}")
        self.address = (match.group(1), int(match.group(2)))

    def _read_status(self) -> None:
        for line in self.process.stdout:
            with contextlib.suppress(ValueError):
                status = json.loads(line)
                self._status = status
                self._replica_pids.update(
                    slot["pid"] for slot in status.get("slots", ())
                    if slot.get("pid"))

    def wait_healthy(self, timeout_s: float = 120.0) -> Tuple[float, str]:
        """Seconds from spawn to the first 200 ``/v1/healthz`` via the proxy,
        and the default model id."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            connection = http.client.HTTPConnection(*self.address, timeout=5)
            try:
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                body = response.read()
                if response.status == 200:
                    return (time.perf_counter() - self.started,
                            json.loads(body)["default_model"])
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.01)
        raise common.BenchError("fleet never answered /v1/healthz with 200")

    def replica_pid(self, timeout_s: float = 10.0) -> int:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            status = self._status
            if status and status["slots"] and status["slots"][0]["pid"]:
                return int(status["slots"][0]["pid"])
            time.sleep(0.1)
        raise common.BenchError("fleet status never named the replica pid")

    def close(self) -> None:
        """Stop the fleet and wait for it and every replica it reported."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()
        self._log.close()
        for pid in self._replica_pids:
            # A replica outlives its fleet only if the fleet died uncleanly;
            # the command line check keeps a reused pid safe.
            with contextlib.suppress(OSError):
                with open(f"/proc/{pid}/cmdline", "rb") as cmdline:
                    if b"repro.cli" in cmdline.read():
                        os.kill(pid, signal.SIGKILL)


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise common.BenchError(f"no VmHWM for pid {pid}")


def _cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of every thread of process ``pid``."""
    with open(f"/proc/{pid}/stat") as stat:
        # Fields after the parenthesised command name; utime and stime are
        # the 14th and 15th fields of the whole line.
        fields = stat.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _timing(header: Optional[str]) -> Dict[str, float]:
    """``stage=ms;...`` header -> ``{stage: ms}``."""
    stages = {}
    for part in (header or "").split(";"):
        stage, _, value = part.partition("=")
        if value:
            stages[stage.strip()] = float(value)
    return stages


class Client:
    """One keep-alive HTTP connection to the proxy."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self._address = address
        self._connection: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, body: Optional[dict] = None,
             headers: Optional[Dict[str, str]] = None):
        """-> (status, payload or None, response headers, start, end)."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = dict(headers or {})
        if data is not None:
            headers["Content-Type"] = "application/json"
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                *self._address, timeout=REQUEST_TIMEOUT_S)
        started = time.perf_counter()
        try:
            self._connection.request(method, path, body=data, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, None, {}, started, time.perf_counter()
        ended = time.perf_counter()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return response.status, payload, dict(response.getheaders()), \
            started, ended

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def _scores_ok(status, payload, rows: int) -> bool:
    if status != 200 or not isinstance(payload, dict):
        return False
    scores = payload.get("scores")
    return (isinstance(scores, list) and len(scores) == rows
            and all(isinstance(s, (int, float)) and math.isfinite(s)
                    for s in scores))


def _client_loop(address, path: str, source: RowSource, rows: int,
                 deadline: float, timed: bool, records: List[dict]) -> None:
    client = Client(address)
    headers = {"X-Timing": "1"} if timed else {}
    try:
        while time.perf_counter() < deadline:
            body = {"samples": source.rows(rows).tolist(),
                    "mode": "reference"}
            status, payload, response_headers, started, ended = client.call(
                "POST", path, body, headers)
            records.append({
                "start": started, "end": ended, "status": status,
                "ok": _scores_ok(status, payload, rows),
                "timing": _timing(response_headers.get("X-Timing")),
                "proxy": _timing(response_headers.get("X-Proxy-Timing"))})
    finally:
        client.close()


def _fit_fixture(workload: str, seed: int, tracer: Optional[Tracer],
                 outcome: common.Outcome):
    """Fit the served model on seeded dataset rows.

    Returns the dataset, the fixture rows, the fitted detector, and each
    fit's seconds and compiler-cache counters.
    """
    from repro import load_dataset

    spec = WORKLOADS[workload]
    dataset = load_dataset(spec["dataset"], seed=seed)
    picks = np.random.default_rng(common.derived_seed(seed, "fixture")).choice(
        dataset.num_samples, spec["fixture_rows"], replace=False)
    rows = dataset.data[picks]
    kwargs = dict(spec["detector"], seed=common.derived_seed(seed, "detector"))
    fit_times: List[float] = []
    fit_stats: List[Dict[str, int]] = []
    first_scores = None
    while not fit_times or sum(fit_times) < FIXTURE_MIN_S:
        fit_seconds, _, stats, detector = common.timed_fit(kwargs, rows,
                                                           tracer)
        fit_times.append(fit_seconds)
        fit_stats.append(stats)
        scores = detector.anomaly_scores()
        outcome.attempted += 1
        if first_scores is None:
            first_scores = scores
        elif not np.array_equal(scores, first_scores):
            outcome.fail("fixture fits of the same seed differ")
    return dataset, rows, detector, fit_times, fit_stats


def run(workload: str, seed: int, seconds: float,
        tracer: Optional[Tracer]) -> common.Outcome:
    spec = WORKLOADS[workload]
    outcome = common.Outcome()
    dataset, rows, detector, fit_times, fit_stats = _fit_fixture(
        workload, seed, tracer, outcome)
    common.OUT.mkdir(exist_ok=True)
    stem = f"{workload}-{seed}-{os.getpid()}"
    model_path = str(common.OUT / f"fixture-{stem}.json")
    log_path = str(common.OUT / f"fleet-{stem}.log")
    detector.save_model(model_path)

    setups: List[float] = []
    fleet: Optional[Fleet] = None
    try:
        for attempt in range(SETUP_REPEATS):
            fleet = Fleet(model_path, log_path)
            elapsed, model_id = fleet.wait_healthy()
            setups.append(elapsed)
            if attempt < SETUP_REPEATS - 1:
                fleet.close()
                fleet = None
        path = f"/v1/models/{model_id}"
        admin = Client(fleet.address)

        # Outside the window: replay parity, then one reference request so
        # lazy per-replica set-up is not timed.
        status, payload, _, _, _ = admin.call(
            "POST", path + "/score",
            {"samples": rows.tolist(), "mode": "replay"})
        outcome.attempted += 1
        if not _scores_ok(status, payload, len(rows)):
            outcome.fail(f"replay request failed (status {status})")
        elif not np.array_equal(np.asarray(payload["scores"], dtype=float),
                                detector.anomaly_scores()):
            outcome.fail("replay scores differ bitwise from the fixture fit")
        warmup = RowSource(dataset.data, common.derived_seed(seed, "warmup"))
        status, payload, _, _, _ = admin.call(
            "POST", path + "/score",
            {"samples": warmup.rows(spec["rows_per_request"]).tolist()})
        outcome.attempted += 1
        if not _scores_ok(status, payload, spec["rows_per_request"]):
            outcome.fail(f"warm-up request failed (status {status})")
        _, before, _, _, _ = admin.call("GET", path)

        # The fleet's processes: supervisor with the proxy, and the replica.
        pids = (fleet.process.pid, fleet.replica_pid())
        # The host's speed, sampled right before and right after the window
        # (the fleet is idle then, so the passes compete with nothing).
        host_ms = [common.reference_sample()]
        cpu_before = sum(_cpu_seconds(pid) for pid in pids)
        records: List[List[dict]] = [[] for _ in range(spec["clients"])]
        window_start = time.perf_counter()
        deadline = window_start + seconds
        threads = [
            threading.Thread(target=_client_loop, args=(
                fleet.address, path + "/score",
                RowSource(dataset.data,
                          common.derived_seed(seed, f"client{index}")),
                spec["rows_per_request"], deadline, tracer is not None,
                records[index]))
            for index in range(spec["clients"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fleet_cpu_s = sum(_cpu_seconds(pid) for pid in pids) - cpu_before
        if fleet.replica_pid() != pids[1]:
            raise common.BenchError("the replica was replaced mid-window")
        host_ms.append(common.reference_sample())
        done = [record for client in records for record in client]
        window_s = max(record["end"] for record in done) - window_start
        _, after, _, _, _ = admin.call("GET", path)
        admin.close()
        peak_rss_mb = _vm_hwm_mb(fleet.replica_pid())
    finally:
        if fleet is not None:
            fleet.close()
        with contextlib.suppress(FileNotFoundError):
            os.remove(model_path)

    outcome.attempted += len(done)
    for record in done:
        if not record["ok"]:
            outcome.fail(f"request failed (status {record['status']})")
    latencies = [(record["end"] - record["start"]) * 1e3 for record in done]
    outcome.metric("setup_s", statistics.median(setups), "s",
                   f"median of {len(setups)} fleet spawns")
    cpu_ms_per_op = fleet_cpu_s * 1e3 / len(done)
    outcome.metric("cpu_per_op_ref",
                   cpu_ms_per_op / statistics.fmean(host_ms), "ref",
                   "cpu_ms_per_op over the reference passes around the "
                   "window")
    outcome.metric("cpu_ms_per_op", cpu_ms_per_op, "ms",
                   "fleet CPU time (proxy, supervisor and replica) per "
                   f"request, {fleet_cpu_s:.2f} s over {len(done)} requests")
    outcome.metric("reference_ms", statistics.median(host_ms), "ms",
                   f"one reference pass, median of {len(host_ms)} samples")
    outcome.metric("peak_rss_mb", peak_rss_mb, "MB", "replica VmHWM")
    outcome.metric("fit_s", statistics.median(fit_times), "s",
                   f"fixture fit, median of {len(fit_times)}")
    outcome.metric("latency_p50_ms", statistics.median(latencies), "ms",
                   f"n={len(latencies)}")
    if len(latencies) >= 200:
        outcome.metric("latency_p95_ms", statistics.quantiles(
            latencies, n=20, method="inclusive")[18], "ms",
            f"n={len(latencies)}")
    else:
        outcome.metric("latency_p95_ms", None, "ms",
                       common.p95_note(len(latencies)))
    outcome.metric("requests_per_s", len(done) / window_s, "1/s",
                   f"{spec['clients']} closed-loop client(s)")
    if tracer is not None:
        outcome.per_layer.update(core_metrics(tracer, fit_stats))
        outcome.per_layer.update(
            _serving_layers(done, before, after, tracer))
    return outcome


def _serving_layers(done: List[dict], before: dict, after: dict,
                    tracer: Tracer) -> Dict[str, float]:
    """Per-request stage medians from the timing headers, plus the
    replica's serving and compile-cache counter deltas over the window."""
    stages = {"scorer.queue_wait_ms": [], "scorer.batch_assembly_ms": [],
              "scorer.engine_ms": [], "scorer.shot_noise_ms": [],
              "server.serialization_ms": [], "proxy.overhead_ms": [],
              "http.client_overhead_ms": []}
    timed = 0
    for index, record in enumerate(done):
        timing, proxy = record["timing"], record["proxy"]
        tracer.add("http.request", record["start"], record["end"],
                   op=tracer.op + index, status=record["status"],
                   timing=timing, proxy=proxy)
        if "total" not in timing or "proxy" not in proxy:
            continue
        timed += 1
        client_ms = (record["end"] - record["start"]) * 1e3
        stages["scorer.queue_wait_ms"].append(timing.get("queue_wait", 0.0))
        stages["scorer.batch_assembly_ms"].append(
            timing.get("batch_assembly", 0.0))
        stages["scorer.engine_ms"].append(timing.get("engine_compute", 0.0))
        stages["scorer.shot_noise_ms"].append(timing.get("shot_noise", 0.0))
        stages["server.serialization_ms"].append(
            timing.get("serialization", 0.0))
        stages["proxy.overhead_ms"].append(proxy["proxy"] - timing["total"])
        stages["http.client_overhead_ms"].append(client_ms - proxy["proxy"])
    metrics = {name: statistics.median(values) if values else 0.0
               for name, values in stages.items()}
    batches = after["serving"]["batches"] - before["serving"]["batches"]
    coalesced = (after["serving"]["coalesced_requests"]
                 - before["serving"]["coalesced_requests"])
    compiles = (after["compiler_cache"]["compiles"]
                - before["compiler_cache"]["compiles"])
    metrics.update({
        "serving.timed_requests": timed,
        "scorer.requests_per_batch": coalesced / batches if batches else 0.0,
        "compiler.compiles_per_request": compiles / len(done),
        "compiler.server_cache_bytes": after["compiler_cache"]["bytes"],
    })
    return metrics
