"""Paths, seeds and the result record shared by the workloads."""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Reports, span dumps, fixture models and fleet logs of past runs.
OUT = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark could not run the workload at all."""


def derived_seed(seed: int, purpose: str) -> int:
    """A 32-bit seed for one purpose, derived from the workload seed."""
    tag = int.from_bytes(purpose.encode("utf-8"), "little")
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


#: Reference passes timed at each point where a workload samples the host.
REFERENCE_PASSES = 2


def reference_cpu_ms() -> float:
    """CPU milliseconds of one pass of the fixed reference computation.

    The pass mixes what the detector spends its time on -- interpreter work,
    many small NumPy calls and 128 x 128 complex matrix products (a 7-qubit
    density matrix) -- in roughly equal shares.  Timed in the same run as the
    workload, it measures how fast this host is running right now.
    """
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    vector = rng.normal(size=64)
    started = time.process_time()
    total = 0
    for index in range(600_000):
        total += index * index % 7
    for _ in range(20_000):
        vector = np.tanh(vector) + 0.5
    for _ in range(160):
        matrix = matrix @ matrix
        matrix /= np.abs(matrix).max()
    return (time.process_time() - started) * 1e3


def reference_sample() -> float:
    """Mean CPU milliseconds of ``REFERENCE_PASSES`` reference passes."""
    return statistics.fmean(reference_cpu_ms()
                            for _ in range(REFERENCE_PASSES))


def timed_fit(kwargs: dict, data, tracer):
    """One ``QuorumDetector(**kwargs).fit(data)`` with a cold compile cache.

    Returns the fit's wall seconds, its CPU seconds (user + system, every
    thread of this process), its compiler-cache counter deltas (and the cache
    size after it), and the fitted detector.  With a tracer the fit is
    one traced operation under a root ``fit`` span.
    """
    from repro import QuorumDetector
    from repro.quantum.compiler import default_compiler

    compiler = default_compiler()
    compiler.clear()
    detector = QuorumDetector(**kwargs)
    before = (compiler.stats.compiles, compiler.stats.hits,
              compiler.stats.misses)
    span = (tracer.span("fit") if tracer is not None
            else contextlib.nullcontext())
    started = time.perf_counter()
    cpu_started = time.process_time()
    with span:
        detector.fit(data)
    cpu_seconds = time.process_time() - cpu_started
    seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.op += 1
    stats = {"compiles": compiler.stats.compiles - before[0],
             "hits": compiler.stats.hits - before[1],
             "misses": compiler.stats.misses - before[2],
             "cache_bytes": compiler.cache_bytes()}
    return seconds, cpu_seconds, stats, detector


def p95_note(samples: int) -> str:
    """Why p95 is not reported: fewer than ten samples would lie beyond it."""
    return (f"n={samples}; needs n>=200 for ten samples above the 95th "
            "percentile")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: End-to-end figures: name -> (value or None, unit, how it was taken).
    #: ``BENCHMARK.json`` names the ones the result line carries.
    metrics: Dict[str, Tuple[Optional[float], str, str]] = field(
        default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def metric(self, name: str, value: Optional[float], unit: str,
               how: str) -> None:
        self.metrics[name] = (None if value is None else float(value), unit,
                              how)
