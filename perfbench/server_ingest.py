"""Workload ``server_ingest``: the server's ingest and delivery path, in
one process and one thread.

The pieces ``DataCell.serve()`` wires per connection, minus the asyncio
transport: decoded INSERT frames become ``IngestBatch`` items on an
``IngestQueue`` (as ``DataCellServer._do_insert`` builds them), the
``ServerIngestPump`` transition applies them with ``insert_columns``
into a basket whose WAL is on, one filter query runs, and its emitter
feeds a ``SubscriptionBinding`` that encodes DATA frames into a
``ClientSession`` output queue.  Each step the benchmark feeds one frame,
runs the network to quiescence, drains the session queue and decodes
the ACK and DATA frames as a client would.  After ``WARMUP_FRAMES``
untimed frames, ``FRAMES_PER_SECOND`` frames per requested second are
timed: a fixed amount of work, sized to take about that long on a
2-core machine.  Fixed work matters here because memory grows with the
rows delivered: ``submit_continuous`` subscribes a collecting client to
every query's emitter, and in server use nothing fetches from it.  A
time-bounded run would report more memory for a faster engine.

Why it exists: it keeps the ``server.protocol``, ``server.ingest``,
``server.session`` and ``durability.wal`` layers measured by a workload
steady enough to gate on.  The threaded, socket-level ``server_wire``
is not (its tail follows the host's CPU steal; see README.md).  Latency
is frame fed → its ACK and rows decoded; frames are closed loop.
"""

from __future__ import annotations

import itertools
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from common import OUT_DIR, RunResult, latency_summary, peak_rss_mb
from common import row_checksum, setup_time, window_figures
from server_wire import BASKET_SQL, CUTOFF, FILTER_SQL, FSYNC, VALUES
from server_wire import insert_frames

FRAME_ROWS = 20
WARMUP_FRAMES = 200
FRAMES_PER_SECOND = 650
CHUNK_FRAMES = 500


def build(state: Path):
    """A fresh cell wired like one server connection; returns its parts."""
    from repro import DataCell
    from repro.durability.wal import DurabilityConfig
    from repro.server.ingest import IngestQueue, ServerIngestPump
    from repro.server.protocol import FrameDecoder
    from repro.server.session import (
        ClientSession,
        ServerConfig,
        SubscriptionBinding,
    )

    cell = DataCell(durability=DurabilityConfig(directory=state,
                                                fsync=FSYNC))
    cell.execute(BASKET_SQL)
    config = ServerConfig()
    queue = IngestQueue()
    cell.scheduler.register(
        ServerIngestPump(cell, queue, batch_limit=config.ingest_batch))
    handle = cell.submit_continuous(FILTER_SQL, name="q_filter")
    session = ClientSession(1, config)
    columns = [(c.name, c.atom) for c in handle.output_basket.user_columns]
    binding = SubscriptionBinding(session, handle.name, columns,
                                  emitter=handle.emitter)
    session.add_subscription(handle.name, handle, binding, True)
    handle.emitter.subscribe(binding)
    return cell, queue, session, FrameDecoder(), state


def _release(built) -> None:
    cell, state = built[0], built[-1]
    cell.stop()
    cell.durability.close()
    shutil.rmtree(state, ignore_errors=True)


def frames(seed: int):
    """Endless seeded stream of (encoded INSERT frame, ids, values)."""
    rng = np.random.default_rng(seed)
    first = 0
    while True:
        values = rng.integers(0, VALUES, CHUNK_FRAMES * FRAME_ROWS)
        encoded = insert_frames(values, FRAME_ROWS, first_id=first,
                                first_seq=first // FRAME_ROWS)
        for f, frame in enumerate(encoded):
            lo = f * FRAME_ROWS
            ids = np.arange(first + lo, first + lo + FRAME_ROWS)
            yield frame, ids, values[lo:lo + FRAME_ROWS]
        first += len(values)


def run(seed: int, seconds: float, tracer: Optional[Any] = None,
        plant_error: bool = False) -> RunResult:
    from repro.durability.serde import FRAME_HEADER
    from repro.server.ingest import IngestBatch
    from repro.server.protocol import Command, decode_payload

    OUT_DIR.mkdir(exist_ok=True)
    states = itertools.count()
    setup_s, built = setup_time(
        lambda: build(OUT_DIR / f"server_ingest-state-{seed}-{next(states)}"),
        discard=_release,
    )
    cell, queue, session, decoder, _ = built
    wal = cell.durability.wal
    wal0 = (0, 0)
    stream = frames(seed)
    latencies: List[float] = []
    ends: List[float] = []
    cpus: List[float] = []
    attempted = failed = 0
    started = 0.0
    try:
        for index in range(WARMUP_FRAMES
                           + int(FRAMES_PER_SECOND * seconds)):
            if index == WARMUP_FRAMES:
                if tracer is not None:
                    tracer.mark()
                wal0 = (wal.bytes_written, wal.fsyncs)
                latencies, ends, cpus = [], [], []
                started = time.perf_counter()
            frame, ids, values = next(stream)
            if tracer is not None:
                tracer.batch = index
            t0 = time.perf_counter()
            c0 = time.process_time()
            for message in decoder.feed(frame):
                queue.put(IngestBatch(
                    str(message.meta["basket"]), message.columns,
                    message.arrays, message.row_count,
                    seq=message.meta.get("seq"), tenant=session.tenant,
                    reply=session.send,
                ))
            cell.run_until_quiescent()
            rows: List[tuple] = []
            acks = errors = 0
            for out in session.queue.drain(limit=1 << 30):
                reply = decode_payload(out[FRAME_HEADER.size:])
                if reply.command is Command.DATA:
                    rows.extend(reply.rows())
                elif reply.command is Command.ACK:
                    acks += 1
                else:
                    errors += 1
            cpus.append(time.process_time() - c0)
            end = time.perf_counter()
            latencies.append(end - t0)
            ends.append(end)
            if plant_error and index == WARMUP_FRAMES + 5 and rows:
                rows.append(rows[0])  # a duplicate result row
            keep = values < CUTOFF
            want = list(zip(ids[keep].tolist(), values[keep].tolist()))
            attempted += 1
            failed += (acks != 1 or errors > 0 or len(rows) != len(want)
                       or row_checksum(rows) != row_checksum(want))
        dropped = session.dropped_frames
        wal_bytes = wal.bytes_written - wal0[0]
        wal_fsyncs = wal.fsyncs - wal0[1]
    finally:
        _release(built)
    window = time.perf_counter() - started
    notes: List[str] = []
    end_to_end: Dict[str, float] = {
        "setup_s": setup_s,
        **window_figures(ends, [FRAME_ROWS] * len(ends), latencies, cpus),
        **latency_summary(latencies, ends, notes),
        "peak_rss_mb": peak_rss_mb(),
    }
    return RunResult(
        attempted=attempted,
        failed=failed + dropped,
        end_to_end=end_to_end,
        notes=notes,
        extra={
            "frame_rows": FRAME_ROWS,
            "frames": len(latencies),
            "dropped_frames": dropped,
            "window_s": window,
            "ctx": {"tuples": FRAME_ROWS * len(latencies),
                    "batches": len(latencies), "seconds": window,
                    "wal_bytes": wal_bytes, "wal_fsyncs": wal_fsyncs},
        },
    )
