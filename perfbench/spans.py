"""In-memory span recorder and the wrappers that trace the detector's layers.

A traced run patches the public calls listed in ``install_core_wrappers``
with thin wrappers that record one span per call: name, start, end, parent
span, run id and the operation (one ``fit`` or one request) it belongs to.
Spans stay in memory and are written out when the run ends.  Nothing under
``src/`` is edited; each wrapper replaces the binding its caller actually
looks up (a function imported by name into another module is patched in that
module).
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Tracer:
    """Records spans; a span nested in a span of the same name is not recorded.

    The same-name guard keeps a layer's busy time from counting twice when one
    traced call reaches another of the same layer (``evolve_member_batch``
    falling back to ``evolve_batch``, a compiler method calling another).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self.op = 0
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Optional[Dict]]:
        stack = self._stack()
        if any(open_span["name"] == name for open_span in stack):
            yield None
            return
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "op": self.op,
                  "parent": stack[-1]["id"] if stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, op: int,
            **attrs: object) -> None:
        """Record a span timed elsewhere (a client request)."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "run": self.run_id, "op": op, "parent": None,
                           "start": start, "end": end, **attrs})

    # ------------------------------------------------------------- patching
    def wrap(self, owner: object, attr: str, name: str,
             samples=None) -> None:
        """Trace ``owner.attr`` as ``name``; ``samples(args)`` sizes a call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            extra = {"samples": samples(args)} if samples else {}
            with self.span(name, **extra):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)

    def wrap_compiler(self, cls: type, attr: str) -> None:
        """Trace a ``CircuitCompiler`` method, marking calls that missed."""
        original = getattr(cls, attr)

        @functools.wraps(original)
        def traced(compiler, *args, **kwargs):
            misses = compiler.stats.misses
            with self.span("compiler.call") as record:
                try:
                    return original(compiler, *args, **kwargs)
                finally:
                    if record is not None:
                        record["missed"] = compiler.stats.misses > misses

        setattr(cls, attr, traced)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install_core_wrappers(tracer: Tracer) -> None:
    """Patch every core layer the benchmark reports on."""
    import repro.core.ensemble as ensemble
    import repro.core.execution as execution
    import repro.core.parallel as parallel
    from repro.quantum.backend import SimulationBackend
    from repro.quantum.compiler import CircuitCompiler
    from repro.quantum.simulator import BatchedDensityMatrixSimulator

    tracer.wrap(parallel, "plan_members", "parallel.plan")
    tracer.wrap(ensemble, "batch_amplitudes", "ensemble.encode")
    for cls in _subclasses(execution.SwapTestEngine):
        for attr in ("p1_levels_batch", "p1_levels_member_batch"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "execution.engine")
    for attr in ("build_autoencoder_prefix", "build_autoencoder_suffix",
                 "build_autoencoder_circuit"):
        tracer.wrap(execution, attr, "autoencoder.circuit_build")
    tracer.wrap(BatchedDensityMatrixSimulator, "evolve_batch",
                "simulator.prefix", samples=lambda args: len(args[1]))
    tracer.wrap(BatchedDensityMatrixSimulator, "evolve_member_batch",
                "simulator.prefix",
                samples=lambda args: sum(len(batch) for batch in args[1]))
    for attr in ("unitary_program", "fused_unitary", "channel_program",
                 "dual_observable", "member_stacked_unitary",
                 "member_stacked_dual_observable",
                 "member_stacked_channel_program"):
        tracer.wrap_compiler(CircuitCompiler, attr)
    for cls in _subclasses(SimulationBackend):
        for attr in ("observable_expectation_density_batch",
                     "observable_expectation_density_member_batch"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "backend.suffix")
    # apply_shot_noise is defined in execution and imported by name into
    # ensemble (the fused executor's per-member draws); both bindings run.
    tracer.wrap(execution, "apply_shot_noise", "execution.shot_noise")
    tracer.wrap(ensemble, "apply_shot_noise", "execution.shot_noise")
    tracer.wrap(ensemble, "bucket_statistics", "scoring.bucket")
    tracer.wrap(ensemble, "bucket_deviations", "scoring.bucket")


# ------------------------------------------------------------ aggregation
def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_totals(spans: Sequence[Dict[str, object]]) -> Dict[str, Dict]:
    """Per span name: calls, busy seconds, self seconds, samples, missed.

    Self time is a span's duration minus the part of it covered by its
    children.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"]))
    totals: Dict[str, Dict] = {}
    for record in spans:
        duration = record["end"] - record["start"]
        entry = totals.setdefault(record["name"], {
            "calls": 0, "busy_s": 0.0, "self_s": 0.0, "samples": 0,
            "missed_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - _covered(children.get(record["id"], ()))
        entry["samples"] += int(record.get("samples", 0))
        if record.get("missed"):
            entry["missed_s"] += duration
    return totals


def core_metrics(tracer: Tracer, fit_stats: Sequence[Dict[str, int]]
                 ) -> Dict[str, float]:
    """Per-fit core layer metrics: the median over the run's fits.

    ``fit_stats[i]`` holds fit ``i``'s compiler-cache counter deltas and the
    cache size after it.  Counts of a fixed-seed fit repeat exactly, so their
    median is that count.
    """
    per_fit: List[Dict[str, float]] = []
    for op, stats in enumerate(fit_stats):
        totals = layer_totals([s for s in tracer.spans if s["op"] == op])

        def get(name: str, key: str) -> float:
            return totals.get(name, {}).get(
                key, 0 if key in ("calls", "samples") else 0.0)

        prefix_s = get("simulator.prefix", "busy_s")
        prefix_samples = get("simulator.prefix", "samples")
        lookups = stats["hits"] + stats["misses"]
        per_fit.append({
            "fit.self_s": get("fit", "self_s"),
            "parallel.plan_s": get("parallel.plan", "busy_s"),
            "parallel.plan_calls": get("parallel.plan", "calls"),
            "ensemble.encode_s": get("ensemble.encode", "busy_s"),
            "ensemble.encode_calls": get("ensemble.encode", "calls"),
            "execution.engine_s": get("execution.engine", "busy_s"),
            "execution.engine_self_s": get("execution.engine", "self_s"),
            "execution.engine_calls": get("execution.engine", "calls"),
            "autoencoder.circuit_build_s":
                get("autoencoder.circuit_build", "busy_s"),
            "autoencoder.circuits_built":
                get("autoencoder.circuit_build", "calls"),
            "simulator.prefix_s": prefix_s,
            "simulator.prefix_self_s": get("simulator.prefix", "self_s"),
            "simulator.prefix_calls": get("simulator.prefix", "calls"),
            "simulator.prefix_samples": prefix_samples,
            "simulator.prefix_us_per_sample":
                prefix_s / prefix_samples * 1e6 if prefix_samples else 0.0,
            "compiler.compile_s": get("compiler.call", "missed_s"),
            "compiler.calls": get("compiler.call", "calls"),
            "compiler.compiles": stats["compiles"],
            "compiler.hits": stats["hits"],
            "compiler.misses": stats["misses"],
            "compiler.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
            "compiler.cache_bytes": stats["cache_bytes"],
            "backend.suffix_s": get("backend.suffix", "busy_s"),
            "backend.suffix_calls": get("backend.suffix", "calls"),
            "execution.shot_noise_s": get("execution.shot_noise", "busy_s"),
            "execution.shot_noise_calls":
                get("execution.shot_noise", "calls"),
            "scoring.bucket_s": get("scoring.bucket", "busy_s"),
            "scoring.bucket_calls": get("scoring.bucket", "calls"),
        })
    if not per_fit:
        return {}
    # Integer counts keep an observed value (median_low), times the median.
    return {name: (statistics.median_low if isinstance(value, int)
                   else statistics.median)(fit[name] for fit in per_fit)
            for name, value in per_fit[0].items()}


def self_times(tracer: Tracer) -> List[Tuple[str, float]]:
    """Every traced layer's self time summed over the run, largest first."""
    totals = layer_totals(tracer.spans)
    return sorted(((name, entry["self_s"]) for name, entry in totals.items()),
                  key=lambda item: -item[1])
