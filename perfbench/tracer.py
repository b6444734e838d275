"""Outside-in span tracer: wraps the public entry points of each layer.

The engine is not modified.  ``layers.install`` replaces selected
methods and module-level functions with this module's timing wrappers,
*from the benchmark's own files*, and ``layers.layer_metrics`` turns what
they recorded into the per-layer metrics named in ``BENCHMARK.json``.

Three kinds of wrapper:

* **span** — the call gets a span ``(id, parent, name, start, end,
  thread, batch)`` kept in memory (up to ``SPAN_CAP``; the rest are
  counted as dropped) and written out by :meth:`Tracer.write_spans`.
  Self time is the span's duration minus the time its child spans
  cover; each thread keeps its own stack, so self times never mix
  threads.
* **timed** — aggregated like a span (calls, inclusive and self time,
  units) but not stored; used for per-tuple calls such as
  ``InMemoryChannel.push`` whose spans would dwarf the work they time.
* **count** — only counted (metric updates, scheduler probes); these
  take no part in the span stack, so their time stays with the caller.

Aggregates are per thread (no locks on the hot path) and merged when
read.  A wrapper must patch the name the caller resolves: methods are
patched on their class, module functions in every module that imported
them by name (``repro.core.engine.compile_continuous``).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN_CAP = 200_000

perf_counter = time.perf_counter


class _Agg:
    __slots__ = ("calls", "incl", "self_time", "units", "outer_incl",
                 "outer_units")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.units = 0
        # inclusive time / units of calls not nested in a same-layer call
        self.outer_incl = 0.0
        self.outer_units = 0

    def add(self, other: "_Agg") -> None:
        self.calls += other.calls
        self.incl += other.incl
        self.self_time += other.self_time
        self.units += other.units
        self.outer_incl += other.outer_incl
        self.outer_units += other.outer_units


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[list] = []  # [span id, layer, child seconds]
        self.aggs: Optional[Dict[str, _Agg]] = None


class Tracer:
    """In-memory spans and per-entry-point aggregates."""

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._all_aggs: List[Tuple[int, Dict[str, _Agg]]] = []
        self._aggs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self.batch = -1  # batch, tick or frame id; set by the workloads
        self.started = perf_counter()
        self._mark: Dict[str, _Agg] = {}
        self.samples: Dict[str, List[float]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _aggs(self) -> Dict[str, _Agg]:
        state = self._state
        aggs = state.aggs
        if aggs is None:
            aggs = state.aggs = {}
            with self._aggs_lock:
                self._all_aggs.append((threading.get_ident(), aggs))
        return aggs

    def _agg(self, name: str) -> _Agg:
        aggs = self._aggs()
        agg = aggs.get(name)
        if agg is None:
            agg = aggs[name] = _Agg()
        return agg

    def sample(self, name: str, value: float) -> None:
        """Record one distribution sample (waits); list.append is atomic."""
        bucket = self.samples.get(name)
        if bucket is None:
            bucket = self.samples.setdefault(name, [])
        bucket.append(value)

    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        layer: str,
        units: Optional[Callable[[tuple, Any], int]] = None,
        keep_span: bool = True,
    ) -> Callable:
        """A timing wrapper around ``fn`` (span or timed aggregate)."""
        tracer = self
        state = self._state
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [next(ids) if keep_span else 0, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                agg = tracer._agg(name)
                agg.calls += 1
                agg.incl += duration
                agg.self_time += duration - frame[2]
                outer = parent is None or parent[1] != layer
                if outer:
                    agg.outer_incl += duration
                if keep_span:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((
                            frame[0], parent[0] if parent else 0, name,
                            start, end, threading.get_ident(), tracer.batch,
                        ))
                    else:
                        tracer.dropped_spans += 1
            if units is not None:
                n = units(args, result)
                agg.units += n
                if outer:
                    agg.outer_units += n
            return result

        return wrapper

    def counter(self, name: str, fn: Callable,
                timed: bool = False) -> Callable:
        """A counting wrapper.  ``timed`` adds the call's time to the
        aggregate only when no span is open on this thread (time inside
        a span stays that span's self time)."""
        tracer = self
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if timed and not state.stack:
                start = perf_counter()
                result = fn(*args, **kwargs)
                agg = tracer._agg(name)
                agg.outer_incl += perf_counter() - start
            else:
                result = fn(*args, **kwargs)
                agg = tracer._agg(name)
            agg.calls += 1
            return result

        return wrapper

    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, _Agg]:
        merged: Dict[str, _Agg] = {}
        with self._aggs_lock:
            tables = [aggs for _, aggs in self._all_aggs]
        for aggs in tables:
            for name, agg in list(aggs.items()):
                merged.setdefault(name, _Agg()).add(agg)
        return merged

    def mark(self) -> None:
        """Start the measured window: later reads subtract this point."""
        self._mark = self.totals()
        for bucket in self.samples.values():
            bucket.clear()

    def window(self) -> Dict[str, _Agg]:
        totals = self.totals()
        for name, before in self._mark.items():
            agg = totals.setdefault(name, _Agg())
            agg.calls -= before.calls
            agg.incl -= before.incl
            agg.self_time -= before.self_time
            agg.units -= before.units
            agg.outer_incl -= before.outer_incl
            agg.outer_units -= before.outer_units
        return totals

    def self_time_by_thread(self) -> Dict[int, float]:
        """Per-thread sum of self times since install (all entry points)."""
        out: Dict[int, float] = {}
        with self._aggs_lock:
            tables = list(self._all_aggs)
        for ident, aggs in tables:
            out[ident] = out.get(ident, 0.0) + sum(
                a.self_time for a in list(aggs.values())
            )
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per line: the spans recorded in memory."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, thread, batch in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start - self.started, "end": end - self.started,
                    "thread": thread, "batch": batch,
                }) + "\n")
            if self.dropped_spans:
                fh.write(json.dumps({"dropped": self.dropped_spans}) + "\n")
