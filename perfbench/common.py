"""Shared pieces of the benchmark: statistics, checksums, run conditions
and the result record every workload returns."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: end-to-end metric name -> unit, in BENCHMARK.json order
END_TO_END_UNITS = {
    "setup_s": "s",
    "tuples_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_us_per_tuple": "us",
    "peak_rss_mb": "MB",
}

#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
#: p99 is taken per window of this many samples
WINDOW_SAMPLES = 100 * TAIL_SAMPLES

#: width of the windows throughput, CPU per tuple and p50 are taken over
WINDOW_S = 1.0
#: ... and the run reports them at this percentile of its windows, counted
#: from the slow end (see ``slow_windows``)
SLOW_PERCENTILE = 90

#: set-up is timed over repeated builds for this long ...
SETUP_S = 2.0
#: ... and at least this many
SETUP_MIN_BUILDS = 5

_MASK = (1 << 64) - 1


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def row_checksum(rows: Iterable[Sequence[Any]]) -> int:
    """Order-independent multiset checksum: a duplicate or a changed row
    moves it.  Hashes of ints and floats do not depend on PYTHONHASHSEED."""
    return sum(hash(tuple(row)) for row in rows) & _MASK


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_time(build, discard=None):
    """Build repeatedly for ``SETUP_S`` seconds, at least
    ``SETUP_MIN_BUILDS`` times; return (seconds, last build).

    The seconds are read at the slow end of the builds' times
    (``SLOW_PERCENTILE``), for the reason ``slow_windows`` gives: the
    builds span a few of the host's speed changes, and its slow speed
    recurs in every run.  Each build starts from a collected heap, so a
    collection triggered by earlier allocations does not land inside
    one of them.  ``discard`` releases every build but the last.
    """
    times: List[float] = []
    built = None
    deadline = time.perf_counter() + SETUP_S
    while len(times) < SETUP_MIN_BUILDS or time.perf_counter() < deadline:
        if built is not None and discard is not None:
            discard(built)
        gc.collect()
        started = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - started)
    return percentile(times, SLOW_PERCENTILE), built


def _git_commit() -> str:
    try:
        # the ceiling keeps git from reading repositories above the root
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def pin_to_one_cpu() -> int:
    """Pin this process to the highest CPU it may run on; returns it.

    The in-process workloads are single-threaded.  Left free, the
    thread migrates between CPUs, and on the 2-vCPU development VM that
    moved fig1_tuple's p99 between 1.65 and 2.80 ms across seeds; pinned,
    1.63 to 1.86 ms.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def conditions(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """The run conditions recorded with every result."""
    import numpy

    return {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }


@dataclass
class RunResult:
    """What a workload hands back to ``run.py``."""

    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: why the run cannot stand as a measurement (None = valid)
    invalid: Optional[str] = None


def time_windows(ends: Sequence[float], window_s: float = WINDOW_S,
                 step: int = 1) -> List[range]:
    """Consecutive ranges of sample indices, each spanning at least
    ``window_s`` of end times and holding a multiple of ``step``
    samples.  The last, partial window is dropped unless it is the only
    one.

    ``step`` keeps a workload's cycle whole in every window: a Linear
    Road minute is two ticks, a light one and one that also computes
    the minute's tolls, and a window holding one more of either moves
    its median from one kind to the other.
    """
    windows: List[range] = []
    if not ends:
        return windows
    start, lo = ends[0], 0
    for i, end in enumerate(ends):
        if end - start >= window_s and (i + 1 - lo) % step == 0:
            windows.append(range(lo, i + 1))
            start, lo = end, i + 1
    return windows or [range(len(ends))]


def slow_windows(figures: Sequence[float], higher_is_slower: bool) -> float:
    """The run's figure as read in its slow windows: the
    ``SLOW_PERCENTILE``-th of the per-window figures, counted from the
    slow end.

    The shared host switches between a slow speed and fast bursts that
    last from a second to minutes and run 1.3-1.9x faster; a run may
    hold few bursts or many.  Its slow speed recurs in every run, so
    the slow windows give a figure that is steady from run to run, where
    a median or mean over the run follows the share of bursts in it.  A
    change to the engine moves the slow windows as much as any other.
    """
    q = SLOW_PERCENTILE if higher_is_slower else 100 - SLOW_PERCENTILE
    return percentile(figures, q)


def latency_summary(samples_s: Sequence[float], ends: Sequence[float],
                    notes: List[str], step: int = 1) -> Dict[str, float]:
    """p50 and p99 in ms; ``ends`` are the samples' completion times.

    p50 is each ``WINDOW_S`` window's median, read in the slow windows
    (``slow_windows``; ``step`` as in ``time_windows``).  p99 is the median, over windows of
    ``WINDOW_SAMPLES`` consecutive samples, of each window's p99: each
    has ``TAIL_SAMPLES`` samples beyond it, and the median keeps a burst
    of noise confined to one window from setting the run's tail.  A run
    shorter than one such window reports p99 over all its samples and
    says so in ``notes``.
    """
    n = len(samples_s)
    windows = [samples_s[i:i + WINDOW_SAMPLES]
               for i in range(0, n - WINDOW_SAMPLES + 1, WINDOW_SAMPLES)]
    if not windows:
        notes.append(
            f"only {n} latency samples; p99 needs {WINDOW_SAMPLES} to "
            f"have {TAIL_SAMPLES} beyond it"
        )
        windows = [samples_s]
    medians = [percentile([samples_s[i] for i in w], 50)
               for w in time_windows(ends, step=step)]
    return {
        "latency_p50_ms": slow_windows(medians, higher_is_slower=True) * 1e3,
        "latency_p99_ms": statistics.median(
            percentile(w, 99) for w in windows) * 1e3,
    }


def window_figures(ends: Sequence[float], tuples: Sequence[float],
                   busy: Sequence[float], cpu: Sequence[float],
                   step: int = 1) -> Dict[str, float]:
    """Throughput (tuples / busy seconds) and CPU per tuple per
    ``WINDOW_S`` window, read in the slow windows (``slow_windows``;
    ``step`` as in ``time_windows``).

    Inputs are per batch: end time, tuples, busy seconds, CPU seconds.
    """
    rates: List[float] = []
    costs: List[float] = []
    for w in time_windows(ends, step=step):
        t = sum(tuples[i] for i in w)
        rates.append(t / sum(busy[i] for i in w))
        costs.append(sum(cpu[i] for i in w) / t * 1e6)
    if not rates:
        return {"tuples_per_s": 0.0, "cpu_us_per_tuple": 0.0}
    return {"tuples_per_s": slow_windows(rates, higher_is_slower=False),
            "cpu_us_per_tuple": slow_windows(costs, higher_is_slower=True)}


def add_src_to_path() -> None:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.stderr.write(f"perfbench: no engine sources at {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
