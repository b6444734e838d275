"""Workloads ``fig1_tuple`` and ``fig1_bulk``: the paper's Figure 1 chain.

receptor -> two baskets -> two continuous SQL queries -> emitters, built
through ``DataCell``'s public API and driven synchronously.  The range
query reads ``s_range``; the ``GROUP BY k`` count/sum reads ``s_group``;
the one receptor replicates every tuple into both baskets.

``fig1_tuple`` pushes one tuple per activation, so the fixed cost of a
firing dominates.  ``fig1_bulk`` pushes ``BULK_BATCH`` tuples per
activation, so per-row cost dominates and the fixed cost amortises.
Latency is push -> ``run_until_quiescent`` returns (results are then in
the subscribers' hands).  Each batch's output is checked against a
one-shot reference computed on the same generated batch.

Only ``fig1_tuple`` is declared in ``BENCHMARK.json``.  ``fig1_bulk``
runs by name: its p99 latency, set by the engine's full garbage
collections, is not steady enough to gate on (README.md has the
measurements).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import RunResult, latency_summary, peak_rss_mb, setup_time
from common import row_checksum, window_figures

KEYS = 100
VALUES = 1000
LOW, HIGH = 100, 200
BULK_BATCH = 1000
CHUNK = 4096

RANGE_SQL = (
    "select x.k, x.v from [select * from s_range] as x "
    f"where x.v >= {LOW} and x.v < {HIGH}"
)
GROUP_SQL = (
    "select x.k, count(*) as n, sum(x.v) as total "
    "from [select * from s_group] as x group by x.k"
)


def build(batch: int) -> Tuple[Any, Any, Any, Any]:
    """A fresh cell with the Figure 1 network; returns its handles."""
    from repro import DataCell

    cell = DataCell()
    cell.execute("create basket s_range (k int, v int)")
    cell.execute("create basket s_group (k int, v int)")
    receptor = cell.add_receptor("rx", ["s_range", "s_group"],
                                 batch_size=batch)
    q_range = cell.submit_continuous(RANGE_SQL, name="q_range")
    q_group = cell.submit_continuous(GROUP_SQL, name="q_group")
    return cell, receptor.channel, q_range, q_group


def batches(seed: int, size: int):
    """Endless seeded stream of (k array, v array) batches."""
    rng = np.random.default_rng(seed)
    while True:
        n = max(size, CHUNK // size * size)
        ks = rng.integers(0, KEYS, n)
        vs = rng.integers(0, VALUES, n)
        for i in range(0, n, size):
            yield ks[i:i + size], vs[i:i + size]


def expected(ks: np.ndarray, vs: np.ndarray) -> Tuple[int, int, int, int]:
    """One-shot reference: (range rows, range checksum, group rows,
    group checksum) for one batch."""
    mask = (vs >= LOW) & (vs < HIGH)
    range_rows = list(zip(ks[mask].tolist(), vs[mask].tolist()))
    keys, inverse = np.unique(ks, return_inverse=True)
    counts = np.bincount(inverse)
    sums = np.bincount(inverse, weights=vs).astype(np.int64)
    group_rows = list(zip(keys.tolist(), counts.tolist(), sums.tolist()))
    return (len(range_rows), row_checksum(range_rows),
            len(group_rows), row_checksum(group_rows))


def run(seed: int, seconds: float, bulk: bool,
        tracer: Optional[Any] = None, plant_error: bool = False) -> RunResult:
    size = BULK_BATCH if bulk else 1
    setup_s, (cell, channel, q_range, q_group) = setup_time(
        lambda: build(size))
    stream = batches(seed, size)
    warmup = 20 if bulk else 200
    latencies: List[float] = []
    ends: List[float] = []
    cpus: List[float] = []
    attempted = failed = 0
    index = 0
    deadline = None
    started = 0.0
    while True:
        if index == warmup:
            if tracer is not None:
                tracer.mark()
            latencies, ends, cpus = [], [], []
            started = time.perf_counter()
            deadline = started + seconds
        elif deadline is not None and time.perf_counter() >= deadline:
            break
        ks, vs = next(stream)
        rows = list(zip(ks.tolist(), vs.tolist()))
        if tracer is not None:
            tracer.batch = index
        t0 = time.perf_counter()
        c0 = time.process_time()
        if bulk:
            channel.push_many(rows)
        else:
            channel.push(rows[0])
        cell.run_until_quiescent()
        cpus.append(time.process_time() - c0)
        end = time.perf_counter()
        latencies.append(end - t0)
        ends.append(end)
        got_range = q_range.fetch()
        got_group = q_group.fetch()
        if plant_error and index == warmup + 5:
            got_group.append(got_group[0])  # a duplicate result row
        want = expected(ks, vs)
        got = (len(got_range), row_checksum(got_range),
               len(got_group), row_checksum(got_group))
        attempted += 1
        failed += got != want
        index += 1
    window = time.perf_counter() - started
    tuples = size * len(latencies)
    notes: List[str] = []
    end_to_end: Dict[str, float] = {
        "setup_s": setup_s,
        **window_figures(ends, [size] * len(ends), latencies, cpus),
        **latency_summary(latencies, ends, notes),
        "peak_rss_mb": peak_rss_mb(),
    }
    return RunResult(
        attempted=attempted,
        failed=failed,
        end_to_end=end_to_end,
        notes=notes,
        extra={
            "batch_tuples": size,
            "batches": len(latencies),
            "window_s": window,
            "ctx": {"tuples": tuples, "batches": len(latencies),
                    "seconds": window},
        },
    )
