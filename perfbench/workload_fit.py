"""Fit workloads: ``QuorumDetector.fit`` in-process, repeated for the window.

Each fit starts with a cold compiled-program cache, because every
``quorum-repro detect`` invocation pays its own compiles.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import common
from spans import Tracer, core_metrics

WORKLOADS = {
    # The paper's Brisbane hardware-model configuration on Table I's
    # breast_cancer: n=3 (7-qubit circuits), noisy density-matrix engine.
    "fit_noisy": {"dataset": "breast_cancer",
                  "detector": {"backend": "density_matrix", "noisy": True,
                               "num_qubits": 3, "ensemble_groups": 4}},
    # The paper's 1000-member ensemble on the analytic engine.
    "fit_analytic": {"dataset": "pen_global",
                     "detector": {"ensemble_groups": 1000}},
}

SETUP_REPEATS = 5

_PROBE = (
    "import sys; sys.path[:0] = {paths!r}; import workload_fit; "
    "workload_fit.prepare({workload!r}, {seed}); print('ready', flush=True)"
)


def prepare(workload: str, seed: int):
    """Generate the dataset and build the detector (what ``setup_s`` times)."""
    from repro import QuorumDetector, load_dataset

    spec = WORKLOADS[workload]
    dataset = load_dataset(spec["dataset"], seed=seed)
    kwargs = dict(spec["detector"], seed=common.derived_seed(seed, "detector"))
    return dataset, kwargs, QuorumDetector(**kwargs)


def _setup_seconds(workload: str, seed: int) -> float:
    """Process start to dataset generated and detector built, in a child."""
    probe = _PROBE.format(paths=[str(common.SRC), str(common.HERE)],
                          workload=workload, seed=seed)
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", probe],
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        status = child.wait(timeout=60)
    if line.strip() != "ready" or status != 0:
        raise common.BenchError(f"set-up probe failed (exit {status})")
    return elapsed


def run(workload: str, seed: int, seconds: float,
        tracer: Optional[Tracer]) -> common.Outcome:
    from repro.metrics.classification import evaluate_top_k

    outcome = common.Outcome()
    setups = [_setup_seconds(workload, seed) for _ in range(SETUP_REPEATS)]
    dataset, kwargs, _ = prepare(workload, seed)
    fit_times: List[float] = []
    fit_cpu: List[float] = []
    fit_stats: List[Dict[str, int]] = []
    # The host's speed, sampled before the first fit and after every fit.
    host_ms = [common.reference_sample()]
    fit_ref: List[float] = []
    first_scores: Optional[np.ndarray] = None
    f1 = None
    window_start = time.perf_counter()
    deadline = window_start + seconds
    while not fit_times or time.perf_counter() < deadline:
        fit_seconds, cpu_seconds, stats, detector = common.timed_fit(
            kwargs, dataset, tracer)
        fit_times.append(fit_seconds)
        fit_cpu.append(cpu_seconds)
        fit_stats.append(stats)
        host_ms.append(common.reference_sample())
        fit_ref.append(cpu_seconds * 1e3 / statistics.fmean(host_ms[-2:]))
        scores = detector.anomaly_scores()
        # Drop this fit's detector before the next fit, so peak RSS is that
        # of one fit rather than two.
        del detector
        outcome.attempted += 1
        if scores.shape != (dataset.num_samples,) \
                or not np.all(np.isfinite(scores)):
            outcome.fail(f"fit {len(fit_times)}: scores are not one finite "
                         "value per sample")
            continue
        if first_scores is None:
            first_scores = scores
            f1 = evaluate_top_k(scores, dataset.labels,
                                dataset.num_anomalies).f1
        elif not np.array_equal(scores, first_scores):
            outcome.fail(f"fit {len(fit_times)}: scores differ from the "
                         "first fit of the same seed")
    window_s = time.perf_counter() - window_start

    fit_s = statistics.median(fit_times)
    outcome.metric("setup_s", statistics.median(setups), "s",
                   f"median of {len(setups)} set-ups")
    outcome.metric("cpu_per_op_ref", statistics.median(fit_ref), "ref",
                   "a fit's CPU time over the reference passes around it, "
                   f"median of {len(fit_ref)}")
    outcome.metric("cpu_ms_per_op", statistics.median(fit_cpu) * 1e3, "ms",
                   f"CPU time of one fit, median of {len(fit_cpu)}")
    outcome.metric("reference_ms", statistics.median(host_ms), "ms",
                   f"one reference pass, median of {len(host_ms)} samples")
    outcome.metric("peak_rss_mb",
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "MB", "fitting process")
    outcome.metric("fit_s", fit_s, "s", f"median of {len(fit_times)} fits")
    outcome.metric("latency_p50_ms", fit_s * 1e3, "ms",
                   f"one operation is one fit; n={len(fit_times)}")
    outcome.metric("latency_p95_ms", None, "ms",
                   common.p95_note(len(fit_times)))
    outcome.metric("requests_per_s", len(fit_times) / window_s, "1/s",
                   "fits completed per second")
    outcome.metric("f1_at_k", f1, "",
                   f"evaluate_top_k, k={dataset.num_anomalies} anomalies")
    if tracer is not None:
        outcome.per_layer.update(core_metrics(tracer, fit_stats))
    return outcome
