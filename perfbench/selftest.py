"""Self-test of the traced run: every per-layer metric records where it should.

Runs each workload once with ``--trace 1`` (and ``fit_analytic`` once
untraced first, so the tracing-overhead line is exercised) and checks:

* every per-layer metric of ``BENCHMARK.json`` is reported;
* each layer a workload loads recorded at least one span (non-zero metric),
  and the layers it bypasses recorded none;
* on ``fit_noisy`` the noisy prefix walk has the largest self time;
* on ``serve_noisy`` the replica compiles programs for every request.

Usage (from the repository root; takes a few minutes)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
SECONDS = "1"

CORE = ["parallel.plan_s", "ensemble.encode_s", "execution.engine_s",
        "execution.shot_noise_s", "scoring.bucket_s", "compiler.compile_s",
        "compiler.compiles"]
NOISY = ["autoencoder.circuit_build_s", "autoencoder.circuits_built",
         "simulator.prefix_s", "simulator.prefix_samples",
         "backend.suffix_s"]
SERVING = ["scorer.queue_wait_ms", "scorer.engine_ms",
           "scorer.shot_noise_ms", "server.serialization_ms",
           "proxy.overhead_ms", "http.client_overhead_ms",
           "serving.timed_requests", "scorer.requests_per_batch",
           "compiler.server_cache_bytes"]

#: workload -> (metrics that must be > 0, metrics that must be 0).  The
#: serve workloads' core layers come from the fixture fit in the benchmark
#: process; their serving layers from the replica's timing headers.
EXPECTED = {
    "fit_noisy": (CORE + NOISY, SERVING),
    # The analytic engine compiles one fused encoder unitary per member
    # through the compiler, but never walks the simulator or the suffix.
    "fit_analytic": (CORE, NOISY + SERVING),
    "serve_noisy": (CORE + NOISY + SERVING + ["compiler.compiles_per_request"],
                    []),
    "serve_analytic": (CORE + SERVING + ["scorer.batch_assembly_ms"],
                       NOISY + ["compiler.compiles_per_request"]),
}


def _run(workload: str, trace: int) -> str:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{completed.returncode}:\n{completed.stderr}")
    return completed.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["per_layer"]]
    problems = []
    _run("fit_analytic", 0)
    for workload, (nonzero, zero) in EXPECTED.items():
        stdout = _run(workload, 1)
        metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
        report = json.loads((ROOT / ".perfbench" / (
            f"report-{workload}-{SEED}-trace1.json")).read_text())
        if sorted(metrics) != sorted(names):
            problems.append(f"{workload}: per-layer names differ from "
                            "BENCHMARK.json")
        for name in nonzero:
            if not metrics[name]["value"] > 0:
                problems.append(f"{workload}: {name} recorded nothing")
        for name in zero:
            if metrics[name]["value"] != 0:
                problems.append(f"{workload}: {name} should be 0, got "
                                f"{metrics[name]['value']}")
        if workload == "fit_noisy":
            layers = {name: seconds for name, seconds in report["self_s"]}
            if max(layers, key=layers.get) != "simulator.prefix":
                problems.append(f"fit_noisy: largest self time is not the "
                                f"prefix walk: {layers}")
        if workload == "fit_analytic" and "tracing overhead" not in stdout:
            problems.append("fit_analytic: no tracing overhead reported")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
