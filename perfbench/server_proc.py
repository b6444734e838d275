"""The process under test for ``server_wire``: ``DataCell.serve()`` with
durability on, driven over stdin/stdout by ``server_wire.py``.

    python3 perfbench/server_proc.py --state DIR [--trace]

Prints ``{"port": N}`` once listening, then answers one JSON line per
command line on stdin:

* ``mark T`` — at perf_counter time ``T`` start the measured window
  (WAL counters, tracer) and sample this process's CPU time every
  ``CPU_SAMPLE_S`` seconds; replies at once;
* ``report {ctx}`` — the window's CPU samples, peak RSS, server
  drop/error counts and, when traced, the per-layer metrics;
* ``quit`` (or end of input) — shut the engine down and exit.  The
  load generator closes its connections first, so shutdown has no
  sessions to drain.

With ``--trace`` the layer wrappers are installed here, inside the
server process, before the engine is built.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import add_src_to_path, peak_rss_mb  # noqa: E402
from server_wire import BASKET_SQL, FSYNC  # noqa: E402

CPU_SAMPLE_S = 0.1
SHUTDOWN_WAIT_S = 5.0


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _window(at: float, samples: list, stop: threading.Event,
            on_start) -> None:
    """At perf_counter time ``at``, start the measured window, then
    record (perf_counter, CPU seconds) pairs until ``stop``.  The load
    generator stamps with the same monotonic clock, so the two line up."""
    stop.wait(max(0.0, at - time.perf_counter()))
    on_start()
    while not stop.is_set():
        samples.append((time.perf_counter(), _cpu_seconds()))
        stop.wait(CPU_SAMPLE_S)


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--state", required=True)
    parser.add_argument("--trace", action="store_true")
    opts = parser.parse_args(argv)
    add_src_to_path()

    tracer = None
    if opts.trace:
        from layers import install
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)
    from repro import DataCell
    from repro.durability.wal import DurabilityConfig

    cell = DataCell(durability=DurabilityConfig(directory=opts.state,
                                                fsync=FSYNC))
    cell.execute(BASKET_SQL)
    cell.start()
    server = cell.serve(port=0)
    _reply({"port": server.address[1]})

    wal = cell.durability.wal
    wal0 = [0, 0]
    samples: list = []
    sampling = threading.Event()

    def start_window() -> None:
        wal0[:] = [wal.bytes_written, wal.fsyncs]
        if tracer is not None:
            tracer.mark()

    sampler = None
    try:
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "mark":
                sampler = threading.Thread(
                    target=_window, name="perfbench-window", daemon=True,
                    args=(float(arg), samples, sampling, start_window))
                sampler.start()
                _reply({"ok": True})
            elif command == "report":
                ctx = json.loads(arg)
                sampling.set()
                if sampler is not None:
                    sampler.join()
                samples.append((time.perf_counter(), _cpu_seconds()))
                stats = server.stats()
                ctx["wal_bytes"] = wal.bytes_written - wal0[0]
                ctx["wal_fsyncs"] = wal.fsyncs - wal0[1]
                report = {
                    "cpu_samples": samples,
                    "peak_rss_mb": peak_rss_mb(),
                    "dropped_frames": stats["dropped_frames"],
                    "ingest_errors": stats["ingest"]["errors"],
                    "applied_rows": stats["ingest"]["applied_rows"],
                }
                if tracer is not None:
                    from layers import layer_metrics, self_time_check

                    report["per_layer"] = layer_metrics(tracer, ctx)
                    report["self_time_check"] = self_time_check(tracer)
                    spans = ctx.get("spans_file")
                    if spans:
                        tracer.write_spans(spans)
                _reply(report)
            elif command == "quit":
                break
    finally:
        sampling.set()
        # the load generator has closed its connections; let the server
        # release those sessions so shutdown has none left to drain
        deadline = time.monotonic() + SHUTDOWN_WAIT_S
        while server.sessions() and time.monotonic() < deadline:
            time.sleep(0.01)
        cell.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
