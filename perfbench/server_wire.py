"""Workload ``server_wire``: the network front door with durability on.

A benchmark-owned launcher starts ``server_proc.py`` (``DataCell.serve()``
with a WAL) in its own process.  This process is the load generator: one
producer connection and one subscriber connection, driven by one
``selectors`` loop.  The producer sends pre-encoded columnar INSERT
frames on a fixed open-loop schedule (``RATE_ROWS_PER_S`` in frames of
``FRAME_ROWS``, below saturation); the subscriber's query is one filter.

Latency runs from each frame's *due* time to the receipt of its last
qualifying row, so a stalled server also delays later frames' samples.
``loadgen.lag_p99_ms`` is how late the generator itself sent; a run
whose lag p99 exceeds ``LAG_LIMIT_MS`` is invalid, since a late client
offers less load than the schedule claims.  Every inserted row that
passes the filter must arrive exactly once; the server's drop and ingest
error counts are read from ``server.stats()``.

Not declared in ``BENCHMARK.json``: its latency follows the host's CPU
steal more than the engine (README.md has the measurements), so it runs
by name for back-to-back comparisons of the threaded, socket-level path.
"""

from __future__ import annotations

import json
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import OUT_DIR, WINDOW_S, RunResult, latency_summary
from common import slow_windows
from common import percentile

RATE_ROWS_PER_S = 2000
FRAME_ROWS = 10
VALUES = 1000
CUTOFF = 900  # the filter keeps v < CUTOFF
BASKET = "readings"
BASKET_SQL = f"create basket {BASKET} (id int, v int)"
FILTER_SQL = (
    f"select x.id, x.v from [select * from {BASKET}] as x "
    f"where x.v < {CUTOFF}"
)
#: fsync off: on a shared virtual disk, fsync time swings the latency
#: median 4x between runs and would drown any engine change.  Every WAL
#: record is still encoded, appended and flushed to the OS.
FSYNC = "off"
SETUP_REPEATS = 3
#: frames of the first WARMUP_S seconds are sent and checked, not timed
WARMUP_S = 2.0
LAG_LIMIT_MS = 20.0
DRAIN_TIMEOUT_S = 10.0
IO_TIMEOUT_S = 30.0

HERE = Path(__file__).resolve().parent


class _Conn:
    """A blocking protocol connection (handshake, then raw frames)."""

    def __init__(self, port: int):
        from repro.server.protocol import FrameDecoder

        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()

    def send(self, message) -> None:
        from repro.server.protocol import encode_message

        self.sock.sendall(encode_message(message))

    def wait(self, command) -> Any:
        """Read until a message with ``command`` arrives (setup only)."""
        from repro.server.protocol import Command

        while True:
            data = self.sock.recv(65536)
            if not data:
                raise RuntimeError("server closed the connection")
            for message in self.decoder.feed(data):
                if message.command is Command.ERROR:
                    raise RuntimeError(f"server error: {message.meta}")
                if message.command is command:
                    return message

    def hello(self) -> None:
        from repro.server.protocol import PROTOCOL_VERSION, Command, Message

        self.send(Message(Command.HELLO, {"version": PROTOCOL_VERSION,
                                          "client": "perfbench"}))
        self.wait(Command.HELLO_OK)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _Server:
    """The launcher: one server process and its control pipe."""

    def __init__(self, state: Path, trace: bool):
        cmd = [sys.executable, str(HERE / "server_proc.py"),
               "--state", str(state)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited unexpectedly")
        return json.loads(line)

    def command(self, text: str) -> Dict[str, Any]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _start(state: Path, trace: bool) -> Tuple[_Server, _Conn, _Conn]:
    """Spawn, listen, connect both sessions and register the query."""
    from repro.server.protocol import Command, Message

    if state.exists():
        shutil.rmtree(state)
    server = _Server(state, trace)
    try:
        port = server.read()["port"]
        producer, subscriber = _Conn(port), _Conn(port)
        producer.hello()
        subscriber.hello()
        subscriber.send(Message(Command.SUBSCRIBE,
                                {"sql": FILTER_SQL, "seq": 1}))
        subscriber.wait(Command.ACK)
    except BaseException:
        server.close()
        raise
    return server, producer, subscriber


def insert_frames(values: np.ndarray, frame_rows: int, first_id: int = 0,
                  first_seq: int = 2) -> List[bytes]:
    """Encoded INSERT frames of ``(id, v)`` rows, ``frame_rows`` each;
    row ``i`` of ``values`` gets id ``first_id + i``."""
    from repro.kernel.types import AtomType
    from repro.server.protocol import encode_message, insert_message

    columns = [("id", AtomType.INT), ("v", AtomType.INT)]
    frames = []
    for f in range(len(values) // frame_rows):
        lo = f * frame_rows
        rows = [(first_id + i, int(values[i]))
                for i in range(lo, lo + frame_rows)]
        frames.append(encode_message(
            insert_message(BASKET, columns, rows, seq=first_seq + f)))
    return frames


def _frames(seed: int, seconds: float):
    """Pre-encoded INSERT frames, each row's value, and the filter mask."""
    n_frames = int((WARMUP_S + seconds) * RATE_ROWS_PER_S / FRAME_ROWS)
    values = np.random.default_rng(seed).integers(
        0, VALUES, n_frames * FRAME_ROWS)
    return insert_frames(values, FRAME_ROWS), values, values < CUTOFF


def _cpu_per_row(samples: List[List[float]], t_start: float,
                 t_stop: float) -> float:
    """Server CPU microseconds per row offered, per ``WINDOW_S`` window
    of the sending phase, read in the slow windows (``slow_windows``)."""
    inside = [(t, c) for t, c in samples if t_start <= t <= t_stop]
    costs = []
    i = 0
    for j in range(1, len(inside)):
        if inside[j][0] - inside[i][0] >= WINDOW_S:
            (t0, c0), (t1, c1) = inside[i], inside[j]
            costs.append((c1 - c0) / ((t1 - t0) * RATE_ROWS_PER_S) * 1e6)
            i = j
    return slow_windows(costs, higher_is_slower=True) if costs else 0.0


def run(seed: int, seconds: float, trace: bool = False,
        plant_error: bool = False) -> RunResult:
    from repro.server.protocol import Command

    OUT_DIR.mkdir(exist_ok=True)
    state = OUT_DIR / f"server_wire-state-{seed}"
    frames, values, passes = _frames(seed, seconds)
    n_frames = len(frames)
    interval = FRAME_ROWS / RATE_ROWS_PER_S
    warm = int(WARMUP_S / interval)
    measured_rows = (n_frames - warm) * FRAME_ROWS

    setups: List[float] = []
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        server, producer, subscriber = _start(state, trace)
        setups.append(time.perf_counter() - started)
        if attempt < SETUP_REPEATS - 1:
            producer.close()
            subscriber.close()
            server.close()

    try:
        remaining = np.bincount(
            np.arange(len(values)) // FRAME_ROWS,
            weights=passes, minlength=n_frames,
        ).astype(np.int64)
        seen = np.zeros(len(values), dtype=bool)
        bad_frames = set()
        latencies: List[float] = []
        ends: List[float] = []
        lags: List[float] = []
        acks = errors = 0
        sent_pass = got_pass = 0
        backlog_max = 0
        want_pass = int(passes.sum())
        last_done = 0.0
        sel = selectors.DefaultSelector()
        sel.register(producer.sock, selectors.EVENT_READ, producer)
        sel.register(subscriber.sock, selectors.EVENT_READ, subscriber)
        t_start = time.perf_counter() + 0.05
        t_measure = t_start + warm * interval
        server.command(f"mark {t_measure!r}")
        drain_deadline = None
        nxt = 0
        while True:
            now = time.perf_counter()
            while nxt < n_frames and t_start + nxt * interval <= now:
                if nxt >= warm:
                    lags.append(now - (t_start + nxt * interval))
                producer.sock.sendall(frames[nxt])
                sent_pass += int(remaining[nxt])
                backlog_max = max(backlog_max, sent_pass - got_pass)
                nxt += 1
                now = time.perf_counter()
            if nxt == n_frames:
                if got_pass >= want_pass and acks >= n_frames:
                    break
                if drain_deadline is None:
                    drain_deadline = now + DRAIN_TIMEOUT_S
                elif now > drain_deadline:
                    break
                timeout = drain_deadline - now
            else:
                timeout = t_start + nxt * interval - now
            for key, _ in sel.select(max(timeout, 0.0)):
                conn = key.data
                data = conn.sock.recv(1 << 20)
                received = time.perf_counter()
                if not data:
                    raise RuntimeError("server closed a connection")
                for message in conn.decoder.feed(data):
                    if message.command is Command.ACK:
                        acks += 1
                    elif message.command is Command.ERROR:
                        errors += 1
                    elif message.command is Command.DATA:
                        ids = np.asarray(message.arrays[0], dtype=np.int64)
                        vs = np.asarray(message.arrays[1], dtype=np.int64)
                        if plant_error and got_pass == 0 and len(vs):
                            vs = vs.copy()
                            vs[0] += 1  # a wrong result value
                        ok = ((ids >= 0) & (ids < len(values)))
                        ids_ok = ids[ok]
                        wrong = ~ok
                        wrong[ok] = ((values[ids_ok] != vs[ok])
                                     | ~passes[ids_ok] | seen[ids_ok])
                        seen[ids_ok] = True
                        for f in np.unique(ids[wrong] // FRAME_ROWS):
                            bad_frames.add(int(f))
                        good = ids[~wrong]
                        got_pass += len(good)
                        frames_hit, counts = np.unique(
                            good // FRAME_ROWS, return_counts=True)
                        for f, c in zip(frames_hit.tolist(), counts.tolist()):
                            remaining[f] -= c
                            if remaining[f] == 0 and f >= warm:
                                latencies.append(
                                    received - (t_start + f * interval))
                                ends.append(received)
                                last_done = received
        sel.close()
        ctx = {"tuples": measured_rows, "batches": n_frames - warm,
               "seconds": last_done - t_measure,
               "loadgen_lag_p99_ms": percentile(lags, 99) * 1e3,
               "loadgen_backlog_max_rows": backlog_max}
        if trace:
            ctx["spans_file"] = str(OUT_DIR / f"server_wire-seed{seed}"
                                    ".spans.jsonl")
        report = server.command("report " + json.dumps(ctx))
    finally:
        producer.close()
        subscriber.close()
        server.close()
        shutil.rmtree(state, ignore_errors=True)

    missing = set(np.flatnonzero(remaining > 0).tolist())
    missing_frames = len(missing)
    failed_frames = len(bad_frames | missing)
    failed = (failed_frames + errors + (n_frames - min(acks, n_frames))
              + int(report["dropped_frames"]) + int(report["ingest_errors"]))
    notes: List[str] = []
    end_to_end = {
        "setup_s": statistics.median(setups),
        "tuples_per_s": measured_rows / (last_done - t_measure),
        **latency_summary(latencies, ends, notes),
        "cpu_us_per_tuple": _cpu_per_row(report["cpu_samples"], t_measure,
                                         t_start + n_frames * interval),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    lag_p99 = ctx["loadgen_lag_p99_ms"]
    invalid: Optional[str] = None
    if lag_p99 > LAG_LIMIT_MS:
        invalid = (f"load generator ran late: lag p99 {lag_p99:.2f} ms > "
                   f"{LAG_LIMIT_MS} ms")
    extra: Dict[str, Any] = {
        "frames": n_frames,
        "rate_rows_per_s": RATE_ROWS_PER_S,
        "frame_rows": FRAME_ROWS,
        "frames_missing_rows": missing_frames,
        "acks": acks,
        "server_errors": errors,
        "dropped_frames": report["dropped_frames"],
        "loadgen_lag_p99_ms": lag_p99,
        "loadgen_backlog_max_rows": backlog_max,
        "ctx": ctx,
    }
    if "self_time_check" in report:
        extra["self_time_check"] = report["self_time_check"]
        extra["spans_file"] = ctx.get("spans_file")
    return RunResult(
        attempted=n_frames,
        failed=failed,
        end_to_end=end_to_end,
        per_layer=report.get("per_layer", {}),
        notes=notes,
        extra=extra,
        invalid=invalid,
    )
