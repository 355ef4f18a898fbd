"""Quorum benchmark: one workload, one seed, one measured window.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit_noisy --seed 1 --seconds 15 \
        --trace 0

Prints every metric by name with its unit, checks the program's outputs, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace
1`` re-runs the same workload with every layer wrapped in spans and reports
its per-layer metrics.  Reports (and the span dump of a traced run) are
written to ``.perfbench/``.  Exits 1 when an output check failed and 2 when
the workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

# One BLAS thread in this process and in every process it starts: OpenBLAS
# workers spin while they wait, so two of them on a two-CPU VM make CPU time
# depend on what else is scheduled, and a served request would compete with
# its own client for the second CPU.  Set before numpy is first imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import common  # noqa: E402
import workload_fit  # noqa: E402
import workload_serve  # noqa: E402
from spans import Tracer, install_core_wrappers, self_times  # noqa: E402

ROOT = common.ROOT
#: End-to-end figures a traced run also reports, to show tracing overhead.
TRACE_OVERHEAD = ("latency_p50_ms", "cpu_per_op_ref")
RUNNERS = {**{name: workload_fit.run for name in workload_fit.WORKLOADS},
           **{name: workload_serve.run for name in workload_serve.WORKLOADS}}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # Turn SIGTERM into SystemExit, so the fleet is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (common.SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {common.SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(common.SRC))

    tracer = None
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.trace:
        tracer = Tracer(run_id)
        install_core_wrappers(tracer)
    try:
        outcome = RUNNERS[args.workload](args.workload, args.seed,
                                         args.seconds, tracer)
    except common.BenchError as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit, how) in outcome.metrics.items():
        print(f"  {name:<16} {_fmt(value):>12} {unit:<4} ({how})")
    error_rate = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'error_rate':<16} {_fmt(error_rate):>12}      "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    for failure in outcome.failures:
        print(f"  CHECK FAILED: {failure}")

    common.OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "run": run_id,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "failures": outcome.failures,
              "metrics": {k: v[0] for k, v in outcome.metrics.items()}}
    if args.trace:
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        # The traced run's own end-to-end figures: compared with the
        # untraced run of the same seed they give the tracing overhead.
        for name in TRACE_OVERHEAD:
            outcome.per_layer[f"trace.{name}"] = outcome.metrics[name][0]
        unknown = sorted(set(outcome.per_layer) - set(units))
        if unknown:
            print(f"perfbench: per-layer metrics missing from BENCHMARK.json:"
                  f" {unknown}", file=sys.stderr)
            return 2
        values = {name: outcome.per_layer.get(name, 0) for name in units}
        print("  per-layer (median per fit; serving stages median per "
              "request):")
        for name, value in values.items():
            print(f"    {name:<34} {_fmt(value):>12} {units[name]}")
        print("  self time by layer over the run (s):")
        for name, seconds in self_times(tracer):
            print(f"    {name:<34} {seconds:12.4f}")
        untraced = common.OUT / (f"report-{args.workload}-{args.seed}"
                                 "-trace0.json")
        if untraced.exists():
            base = json.loads(untraced.read_text())["metrics"]
            for name in TRACE_OVERHEAD:
                traced = outcome.metrics[name][0]
                print(f"  tracing overhead: {name} {traced:.4g} traced vs "
                      f"{base[name]:.4g} untraced "
                      f"({(traced / base[name] - 1) * 100:+.1f}%)")
        report["per_layer"] = values
        report["self_s"] = self_times(tracer)
        (common.OUT / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.spans))
        result = {name: {"value": values[name], "unit": units[name]}
                  for name in units}
    else:
        result = {}
        for entry in spec["end_to_end"]:
            value, unit, _ = outcome.metrics.get(entry["name"],
                                                 (None, None, None))
            if value is None:
                print(f"perfbench: {args.workload} measured no "
                      f"{entry['name']}", file=sys.stderr)
                return 2
            result[entry["name"]] = {"value": value, "unit": unit}
    (common.OUT / (f"report-{args.workload}-{args.seed}"
                   f"-trace{args.trace}.json")).write_text(
        json.dumps(report, indent=1))
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
