"""Workload ``linear_road``: the paper's §5 claim.

The ``LinearRoadHarness`` network (one position basket read by three
factories in SHARED mode, a balance factory, three emitters, user-defined
plans) fed tick by tick at a steady per-tick load.  The first
``WARMUP_TICKS`` ticks are the road filling with cars; they are fed and
checked but not timed.  Then ``TICKS_PER_SECOND`` ticks per requested
second are timed: a fixed amount of work, sized to take about that long
on a 2-core machine.  Latency is one tick's drain time (insert its
reports, run to quiescence).  Outputs over every tick are checked with
``LinearRoadReference`` and ``validate_outputs``.

The load is held steady across seeds by :class:`SteadyRoadGenerator`:
the stock generator draws its three congested entry segments and its
Poisson car arrivals from the seed, which moves the per-tick report
count by ±15% between seeds.  Here the congested segments are fixed and
arrivals are regular; lanes, speeds, trip lengths, accidents and balance
requests still come from the seed.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Dict, List, Optional

from common import RunResult, latency_summary, peak_rss_mb, setup_time
from common import window_figures

SCALE = 1.0
CARS_PER_MINUTE = 3.0
WARMUP_TICKS = 150
#: a minute of the road is two ticks (reports every 30 s); the warm-up is
#: whole minutes, so every timed window starts on a minute
TICKS_PER_MINUTE = 2
TICKS_PER_SECOND = 150
HOT_SEGMENTS = (20, 50, 80)


def steady_generator(config):
    """A ``LinearRoadGenerator`` with fixed hot segments and regular
    arrivals (see the module docstring)."""
    from repro.linearroad.generator import LinearRoadGenerator

    class SteadyRoadGenerator(LinearRoadGenerator):
        _owed = 0.0

        def _poisson(self, lam: float) -> int:
            self._owed += lam
            cars = int(self._owed)
            self._owed -= cars
            return cars

        def _admit_cars(self, cars, hot_segments, tick) -> None:
            fixed = {xway: list(HOT_SEGMENTS) for xway in hot_segments}
            super()._admit_cars(cars, fixed, tick)

    return SteadyRoadGenerator(config)


def _multiset_misses(got, want) -> int:
    """Rows missing from ``got`` plus rows ``got`` has in excess."""
    diff = Counter(map(tuple, got))
    diff.subtract(Counter(map(tuple, want)))
    return sum(abs(n) for n in diff.values())


def run(seed: int, seconds: float, tracer: Optional[Any] = None,
        plant_error: bool = False) -> RunResult:
    from repro.linearroad.generator import LinearRoadConfig
    from repro.linearroad.harness import LinearRoadHarness
    from repro.linearroad.model import REPORT_INTERVAL
    from repro.linearroad.validator import (
        LinearRoadReference,
        validate_outputs,
    )

    ticks_wanted = WARMUP_TICKS + int(TICKS_PER_SECOND * seconds)
    config = LinearRoadConfig(
        scale=SCALE, duration=ticks_wanted * REPORT_INTERVAL,
        cars_per_minute=CARS_PER_MINUTE, seed=seed,
    )
    # set up on a small heap, before the inputs exist
    setup_s, harness = setup_time(lambda: LinearRoadHarness(config))
    generator = steady_generator(config)
    reports = generator.generate()
    requests = generator.balance_requests(reports)
    by_tick: Dict[int, List[tuple]] = {}
    for report in reports:
        by_tick.setdefault(report.t // REPORT_INTERVAL, []).append(
            report.as_row())
    req_by_tick: Dict[int, List[tuple]] = {}
    for req in requests:
        req_by_tick.setdefault(req[0] // REPORT_INTERVAL, []).append(req)
    ticks = sorted(set(by_tick) | set(req_by_tick))
    latencies: List[float] = []
    ends: List[float] = []
    loads: List[int] = []
    cpus: List[float] = []
    fed_reports = 0
    started = 0.0
    for i, tick in enumerate(ticks):
        if i == WARMUP_TICKS:
            if tracer is not None:
                tracer.mark()
            started = time.perf_counter()
        rows = by_tick.get(tick, [])
        reqs = req_by_tick.get(tick, [])
        stamp = float(tick * REPORT_INTERVAL)
        if tracer is not None:
            tracer.batch = tick
        t0 = time.perf_counter()
        c0 = time.process_time()
        if stamp > harness.clock.now():
            harness.clock.set(stamp)
        if rows:
            harness.positions.insert_rows(rows, timestamp=stamp)
        if reqs:
            harness.balance_req.insert_rows(reqs, timestamp=stamp)
        harness.cell.run_until_quiescent()
        cpu = time.process_time() - c0
        end = time.perf_counter()
        fed_reports += len(rows)
        if i >= WARMUP_TICKS:
            cpus.append(cpu)
            latencies.append(end - t0)
            ends.append(end)
            loads.append(len(rows))
    window = time.perf_counter() - started
    measured_reports = sum(loads)
    notes: List[str] = []
    end_to_end = {
        "setup_s": setup_s,
        **window_figures(ends, loads, latencies, cpus, step=TICKS_PER_MINUTE),
        **latency_summary(latencies, ends, notes, step=TICKS_PER_MINUTE),
        "peak_rss_mb": peak_rss_mb(),
    }

    # check every tick, warm-up included, against the reference
    reference = LinearRoadReference(reports).compute()
    want_balances = reference.expected_balances(requests)
    tolls = list(harness.toll_client.rows)
    alerts = list(harness.alert_client.rows)
    balances = list(harness.balance_client.rows)
    if plant_error and tolls:
        tolls.append(tolls[0])  # a duplicate result row
    problems = validate_outputs(reference, tolls, alerts, balances,
                                want_balances)
    attempted = (len(reference.tolls) + len(reference.alerts)
                 + len(want_balances))
    failed = (_multiset_misses(tolls, reference.tolls)
              + _multiset_misses(alerts, reference.alerts)
              + _multiset_misses(balances, want_balances))
    if problems and not failed:
        failed = 1
    notes.extend(problems)
    return RunResult(
        attempted=max(attempted, 1),
        failed=failed,
        end_to_end=end_to_end,
        notes=notes,
        extra={
            "ticks_measured": len(latencies),
            "reports_fed": fed_reports,
            "reports_per_tick": measured_reports / max(len(latencies), 1),
            "window_s": window,
            "ctx": {"tuples": measured_reports, "reports": measured_reports,
                    "batches": len(latencies), "seconds": window},
        },
    )
