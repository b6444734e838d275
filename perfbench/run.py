"""The benchmark's one-command entry point.

    python3 perfbench/run.py --workload fig1_tuple --seed 1 --seconds 10 --trace 0

Runs one workload (see ``perfbench/README.md``), checks its outputs,
prints every metric by name with its unit plus the run conditions, and
ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, measured
with no wrappers installed; ``--trace 1`` installs the layer wrappers
(``perfbench/layers.py``), reports the per-layer metrics and writes the
spans to ``perfbench/out/``.  Exits 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    END_TO_END_UNITS,
    OUT_DIR,
    add_src_to_path,
    conditions,
    pin_to_one_cpu,
)

#: the workloads BENCHMARK.json declares, then fig1_bulk and server_wire,
#: which run by name but are not declared (README.md says why)
WORKLOADS = ("fig1_tuple", "linear_road", "server_ingest", "fig1_bulk",
             "server_wire")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant-error", action="store_true",
        help="corrupt one result row before checking (self-test only)",
    )
    return parser.parse_args(argv)


def run_workload(opts: argparse.Namespace, tracer):
    if opts.workload in ("fig1_tuple", "fig1_bulk"):
        import fig1

        return fig1.run(opts.seed, opts.seconds,
                        bulk=opts.workload == "fig1_bulk",
                        tracer=tracer, plant_error=opts.plant_error)
    if opts.workload == "linear_road":
        import linear_road

        return linear_road.run(opts.seed, opts.seconds, tracer=tracer,
                               plant_error=opts.plant_error)
    if opts.workload == "server_ingest":
        import server_ingest

        return server_ingest.run(opts.seed, opts.seconds, tracer=tracer,
                                 plant_error=opts.plant_error)
    import server_wire

    return server_wire.run(opts.seed, opts.seconds, trace=bool(opts.trace),
                           plant_error=opts.plant_error)


def main(argv=None) -> int:
    opts = parse_args(argv)
    add_src_to_path()
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import the engine: {exc}\n")
        return 2
    from layers import PER_LAYER_UNITS, install, layer_metrics
    from layers import self_time_check

    run_conditions = conditions(opts.seed, opts.seconds, bool(opts.trace))
    if opts.workload != "server_wire":
        # server_wire's processes are threaded; they stay unpinned
        run_conditions["pinned_cpu"] = pin_to_one_cpu()
    tracer = None
    if opts.trace and opts.workload != "server_wire":
        # server_wire traces inside the server process (server_proc.py)
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)
    started = time.perf_counter()
    result = run_workload(opts, tracer)
    run_conditions["run_s"] = round(time.perf_counter() - started, 3)
    run_conditions["loadavg_after"] = list(os.getloadavg())

    if tracer is not None:
        result.per_layer = layer_metrics(tracer, result.extra["ctx"])
        result.extra["self_time_check"] = self_time_check(tracer)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"{opts.workload}-seed{opts.seed}.spans.jsonl"
        tracer.write_spans(str(spans))
        tracer.uninstall()
        result.extra["spans_file"] = str(spans)
    units = PER_LAYER_UNITS if opts.trace else END_TO_END_UNITS
    values = result.per_layer if opts.trace else result.end_to_end
    metrics = {name: (values.get(name, 0.0), unit)
               for name, unit in units.items()}

    error_rate = result.failed / result.attempted if result.attempted else 1.0
    correct = result.failed == 0 and result.attempted > 0
    if result.invalid:
        print(f"INVALID run: {result.invalid}")
        correct = False
    bad = [n for n, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"non-finite metrics: {bad}")
        correct = False
    for note in result.notes:
        print(f"note: {note}")
    print(f"workload {opts.workload}  seed {opts.seed}  "
          f"trace {opts.trace}")
    for key, value in run_conditions.items():
        print(f"  condition {key} = {value}")
    for key, value in result.extra.items():
        if key != "ctx":
            print(f"  detail {key} = {value}")
    if opts.trace:
        for name, value in result.end_to_end.items():
            print(f"  traced end-to-end {name} = {value:.6g} "
                  f"{END_TO_END_UNITS[name]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {error_rate:.6g} ratio "
          f"({result.failed} failed of {result.attempted} attempted)")
    print(f"  output check: {'PASS' if correct else 'FAIL'}")

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / (f"{opts.workload}-seed{opts.seed}"
                        f"-trace{opts.trace}.json")
    record.write_text(json.dumps({
        "workload": opts.workload,
        "conditions": run_conditions,
        "correct": correct,
        "invalid": result.invalid,
        "attempted": result.attempted,
        "failed": result.failed,
        "error_rate": error_rate,
        "end_to_end": result.end_to_end,
        "per_layer": result.per_layer,
        "notes": result.notes,
        "details": {k: v for k, v in result.extra.items() if k != "ctx"},
    }, indent=1, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
