"""Which entry point of which layer the traced run wraps, and the
per-layer metrics derived from what the wrappers recorded.

Every name patched here is a public entry point of a ``repro`` module
(plus ``Scheduler._fire``, the one place a firing's bookkeeping lives).
Module functions are patched where the caller resolves them:
``compile_continuous`` in ``repro.core.engine``, ``encode_message`` in
``repro.server.session`` and ``repro.server.server``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict

from common import percentile
from tracer import Tracer, _Agg

US = 1e6
_zero = _Agg()

#: per-layer metric name -> unit, in BENCHMARK.json order
PER_LAYER_UNITS = {
    "core.factory.fixed_us_per_activation": "us",
    "core.factory.activations": "1/batch",
    "core.factory.useful_activation_ratio": "ratio",
    "core.scheduler.self_us_per_step": "us",
    "core.scheduler.probes_per_firing": "count",
    "core.basket.snapshot_us_per_call": "us",
    "core.basket.consume_us_per_call": "us",
    "core.basket.insert_us_per_tuple": "us",
    "adapters.channels.push_us_per_tuple": "us",
    "core.receptor.us_per_tuple": "us",
    "kernel.interpreter.us_per_program": "us",
    "kernel.interpreter.ns_per_row": "ns",
    "core.emitter.us_per_activation": "us",
    "core.emitter.us_per_tuple": "us",
    "linearroad.queries.us_per_report": "us",
    "durability.wal.append_us_per_record": "us",
    "durability.wal.bytes_per_tuple": "B",
    "durability.wal.syncs_per_s": "1/s",
    "server.protocol.decode_us_per_frame": "us",
    "server.protocol.encode_us_per_frame": "us",
    "server.ingest.wait_ms_p99": "ms",
    "server.session.wait_ms_p99": "ms",
    "sql.compile_ms_per_query": "ms",
    "obs.metrics.updates_per_firing": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.backlog_max_rows": "count",
}

_CONSUME = ("consume_seqs", "consume_all", "gc_shared", "advance_reader")
_INSERT = ("insert_rows", "insert_columns", "append_result")
_WAL = ("append_insert", "append_emit", "append_firing")
_METRIC_UPDATES = (
    ("Counter", ("inc",)),
    ("Gauge", ("set", "set_max", "inc", "dec")),
    ("Histogram", ("observe", "observe_many")),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; call once per tracer."""
    from repro.adapters import channels
    from repro.core import basket, emitter, engine, factory, receptor
    from repro.core import scheduler
    from repro.durability import wal
    from repro.kernel import interpreter
    from repro.linearroad import queries
    from repro.obs import metrics
    from repro.server import ingest, protocol, server, session
    from repro.sql import compiler

    t = tracer

    def span(name, layer, units=None, keep_span=True):
        return lambda fn: t.wrap(name, fn, layer, units, keep_span)

    one = lambda args, result: 1  # noqa: E731

    # adapters.channels: per-tuple calls, so aggregated, not stored
    t.patch(channels.InMemoryChannel, "push",
            span("channels.push", "adapters.channels", one, False))
    t.patch(channels.InMemoryChannel, "push_many",
            span("channels.push_many", "adapters.channels",
                 lambda a, r: len(a[1]), False))
    t.patch(receptor.Receptor, "activate",
            span("receptor.activate", "core.receptor",
                 lambda a, r: r.tuples_in))
    t.patch(basket.Basket, "snapshot",
            span("basket.snapshot", "core.basket"))
    for attr in _CONSUME:
        t.patch(basket.Basket, attr,
                span(f"basket.{attr}", "core.basket"))
    for attr in _INSERT:
        t.patch(basket.Basket, attr,
                span(f"basket.{attr}", "core.basket",
                     lambda a, r: int(r or 0)))
    t.patch(factory.Factory, "activate",
            span("factory.activate", "core.factory",
                 lambda a, r: 1 if r.tuples_out > 0 else 0))
    t.patch(scheduler.Scheduler, "step",
            span("scheduler.step", "core.scheduler"))
    t.patch(scheduler.Scheduler, "_fire",
            span("scheduler.fire", "core.scheduler"))
    for cls in (receptor.Receptor, factory.Factory, emitter.Emitter,
                ingest.ServerIngestPump):
        t.patch(cls, "enabled",
                lambda fn: t.counter("scheduler.probe", fn, timed=True))
    t.patch(interpreter.MalInterpreter, "execute",
            span("interpreter.execute", "kernel.interpreter"))
    t.patch(compiler.MalContinuousPlan, "run",
            span("plan.run", "sql.plan",
                 lambda a, r: sum(s.count for s in a[1].values())))
    for cls in (queries.SegmentStatisticsPlan, queries.AccidentDetectionPlan,
                queries.TollNotificationPlan, queries.AccountBalancePlan):
        t.patch(cls, "run", span(f"lr.{cls.__name__}.run",
                                 "linearroad.queries"))
    t.patch(emitter.Emitter, "activate",
            span("emitter.activate", "core.emitter",
                 lambda a, r: r.tuples_in))
    for attr in _WAL:
        t.patch(wal.WalWriter, attr, span(f"wal.{attr}", "durability.wal"))
    t.patch(protocol.FrameDecoder, "feed",
            span("protocol.decode", "server.protocol",
                 lambda a, r: len(r)))
    for module in (session, server):
        t.patch(module, "encode_message",
                span("protocol.encode", "server.protocol", one))
    t.patch(engine, "compile_continuous", span("sql.compile", "sql"))
    for cls_name, attrs in _METRIC_UPDATES:
        cls = getattr(metrics, cls_name)
        for attr in attrs:
            t.patch(cls, attr,
                    lambda fn: t.counter("obs.metric_update", fn))
    _install_waits(t, ingest, session, basket)


def _install_waits(t: Tracer, ingest: Any, session: Any,
                   basket: Any) -> None:
    """Queue waits: IngestQueue.put -> the pump's insert of that batch,
    and OutputQueue.offer_data -> drain."""
    perf = time.perf_counter
    put_at: Dict[int, float] = {}
    taken = threading.local()

    def make_put(fn):
        def put(self, batch):
            put_at[id(batch)] = perf()
            return fn(self, batch)
        return put

    def make_take(fn):
        def take(self, limit):
            out = fn(self, limit)
            taken.batches = deque(out)
            return out
        return take

    def make_insert(fn):
        # the pump applies its taken batches in order, one insert each
        def insert_columns(self, *args, **kwargs):
            result = fn(self, *args, **kwargs)
            pending = getattr(taken, "batches", None)
            if pending:
                stamp = put_at.pop(id(pending.popleft()), None)
                if stamp is not None:
                    t.sample("server.ingest.wait", perf() - stamp)
            return result
        return insert_columns

    def make_activate(fn):
        def activate(self):
            try:
                return fn(self)
            finally:
                # a batch rejected at apply time has no insert: forget it
                for batch in getattr(taken, "batches", ()):
                    put_at.pop(id(batch), None)
                taken.batches = None
        return activate

    offered_at: Dict[int, float] = {}

    def make_offer(fn):
        def offer_data(self, frame, rows):
            # stamp first: the writer may drain the frame before we return
            offered_at[id(frame)] = perf()
            outcome = fn(self, frame, rows)
            if outcome not in ("queued", "dropped"):
                offered_at.pop(id(frame), None)
            return outcome
        return offer_data

    def make_drain(fn):
        def drain(self, limit=256):
            out = fn(self, limit)
            now = perf()
            for frame in out:
                stamp = offered_at.pop(id(frame), None)
                if stamp is not None:
                    t.sample("server.session.wait", now - stamp)
            return out
        return drain

    t.patch(ingest.IngestQueue, "put", make_put)
    t.patch(ingest.IngestQueue, "take", make_take)
    t.patch(basket.Basket, "insert_columns", make_insert)
    t.patch(ingest.ServerIngestPump, "activate", make_activate)
    t.patch(ingest.ServerIngestPump, "activate",
            lambda fn: t.wrap("ingest.pump", fn, "server.ingest"))
    t.patch(session.OutputQueue, "offer_data", make_offer)
    t.patch(session.OutputQueue, "drain", make_drain)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ctx: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics over the measured window.

    ``ctx`` carries what only the workload knows: ``tuples`` (input
    tuples), ``batches`` (input batches, ticks or frames), ``seconds``
    (measured window), ``reports`` (Linear Road), WAL ``wal_bytes`` /
    ``wal_fsyncs`` deltas and the ``loadgen_*`` figures.
    """
    w = tracer.window()
    get = lambda name: w.get(name) or _zero  # noqa: E731

    def group(names):
        total = _Agg()
        for name in names:
            total.add(get(name))
        return total

    fact = get("factory.activate")
    step, fire, probe = (get("scheduler.step"), get("scheduler.fire"),
                         get("scheduler.probe"))
    # synchronous sweeps are steps; the threaded scheduler has none, so
    # each transition thread's poll iteration (one probe) is its step
    steps = step.calls or probe.calls
    sched_self = step.self_time + fire.self_time + probe.outer_incl
    consume = group(f"basket.{a}" for a in _CONSUME)
    insert = group(f"basket.{a}" for a in _INSERT)
    push, push_many = get("channels.push"), get("channels.push_many")
    execute, plan = get("interpreter.execute"), get("plan.run")
    emit = get("emitter.activate")
    lr = group(n for n in w if n.startswith("lr."))
    walg = group(f"wal.{a}" for a in _WAL)
    decode, encode = get("protocol.decode"), get("protocol.encode")
    compile_all = tracer.totals().get("sql.compile") or _zero
    updates = get("obs.metric_update")
    tuples = ctx.get("tuples", 0)
    ingest_waits = tracer.samples.get("server.ingest.wait", [])
    session_waits = tracer.samples.get("server.session.wait", [])
    return {
        "core.factory.fixed_us_per_activation":
            _ratio(fact.self_time, fact.calls) * US,
        "core.factory.activations": _ratio(fact.calls, ctx.get("batches", 0)),
        "core.factory.useful_activation_ratio": _ratio(fact.units, fact.calls),
        "core.scheduler.self_us_per_step": _ratio(sched_self, steps) * US,
        "core.scheduler.probes_per_firing": _ratio(probe.calls, fire.calls),
        "core.basket.snapshot_us_per_call":
            _ratio(get("basket.snapshot").incl,
                   get("basket.snapshot").calls) * US,
        "core.basket.consume_us_per_call":
            _ratio(consume.self_time, consume.calls) * US,
        "core.basket.insert_us_per_tuple":
            _ratio(insert.self_time, insert.units) * US,
        "adapters.channels.push_us_per_tuple":
            _ratio(push.outer_incl + push_many.outer_incl,
                   push.outer_units + push_many.outer_units) * US,
        "core.receptor.us_per_tuple":
            _ratio(get("receptor.activate").self_time,
                   get("receptor.activate").units) * US,
        "kernel.interpreter.us_per_program":
            _ratio(execute.incl, execute.calls) * US,
        "kernel.interpreter.ns_per_row":
            _ratio(execute.incl, plan.units) * 1e9,
        "core.emitter.us_per_activation":
            _ratio(emit.self_time, emit.calls) * US,
        "core.emitter.us_per_tuple": _ratio(emit.self_time, emit.units) * US,
        "linearroad.queries.us_per_report":
            _ratio(lr.incl, ctx.get("reports", 0)) * US,
        "durability.wal.append_us_per_record":
            _ratio(walg.incl, walg.calls) * US,
        "durability.wal.bytes_per_tuple":
            _ratio(ctx.get("wal_bytes", 0), tuples),
        "durability.wal.syncs_per_s":
            _ratio(ctx.get("wal_fsyncs", 0), ctx.get("seconds", 0)),
        "server.protocol.decode_us_per_frame":
            _ratio(decode.incl, decode.units) * US,
        "server.protocol.encode_us_per_frame":
            _ratio(encode.incl, encode.calls) * US,
        "server.ingest.wait_ms_p99": percentile(ingest_waits, 99) * 1e3,
        "server.session.wait_ms_p99": percentile(session_waits, 99) * 1e3,
        "sql.compile_ms_per_query":
            _ratio(compile_all.incl, compile_all.calls) * 1e3,
        "obs.metrics.updates_per_firing": _ratio(updates.calls, fire.calls),
        "loadgen.lag_p99_ms": ctx.get("loadgen_lag_p99_ms", 0.0),
        "loadgen.backlog_max_rows": ctx.get("loadgen_backlog_max_rows", 0),
    }


def self_time_check(tracer: Tracer) -> Dict[str, Any]:
    """Per-thread sum of self times against wall time since install."""
    wall = time.perf_counter() - tracer.started
    by_thread = tracer.self_time_by_thread()
    worst = max(by_thread.values(), default=0.0)
    return {"wall_s": wall, "max_thread_self_s": worst,
            "ok": worst <= wall}

