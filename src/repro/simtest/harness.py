"""The differential harness: one episode, a list of configurations.

DataCell's core correctness claim, inherited from building on a
relational kernel, is that a continuous query *is* the one-shot query:
replaying the delivered stream into a table and running the SQL once
must give what the streaming path emitted — under any firing order,
any batching, and any boundary fault that preserves the delivered
stream.  Purpose-built DSMSs cannot check themselves this cheaply; we
can, so every simulated episode is checked.

The harness has three parts (also in ``docs/testing.md``):

* an :class:`Episode` — the workload (an oracle SQL case, a weighted
  aggregate case, the two-stream join, a count window or a time
  window), its input rows, the seed, the firing policy and the fault
  plan (channel faults, injected exceptions, timestamp disorder, and
  the firing at which a crash configuration kills the engine);
* a :class:`Config` — how the engine runs it: the route (``reeval``,
  ``basic`` or ``incremental``), receptor or wire ingest, and whether
  the engine is killed at firing ``crash_after`` and recovered;
* a reference per workload kind, chosen by :func:`check`:

  ==============  ====================================================
  sql             multiset equality with the one-shot query
  aggregate/join  integrate the weighted deltas, then multiset
                  equality with the one-shot query
  count_window    the sequence :class:`NaiveReEvalWindow` computes
  time_window     the sequence the re-eval route emits
  any + crash     the uninterrupted run of the same configuration,
                  compared as a sequence
  ==============  ====================================================

The one-shot side accumulates the *post-fault delivered* stream: a
dropped batch is absent from both sides, a duplicated one present twice
on both.  Window results are ordered by window index before comparison.

On failure :func:`shrink` minimizes the episode — schedule first (drop
faults, switch to the ``priority`` policy, drop disorder), then ddmin
over ``rows`` and ``right_rows`` — re-running the full check on every
candidate.  The repro line is ``check(Episode(...), Config(...))``:
both dataclass reprs paste back as they print.
"""

from __future__ import annotations

import random
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from ..adapters.channels import Channel, InMemoryChannel
from ..baselines.reeval import NaiveReEvalWindow
from ..core.continuous import ContinuousQuery
from ..core.engine import DataCell
from ..core.windows import WindowMode, WindowSpec
from ..durability import DurabilityConfig
from ..errors import DataCellError
from ..incremental import integrate_weighted_rows
from ..kernel.types import AtomType
from ..obs.metrics import MetricsRegistry
from ..obs.sysstreams import SystemStreamsConfig
from .faults import FaultPlan, FaultableChannel
from .policies import policy_names
from .server_episode import attach_server_ingress
from .sim import EpisodeResult, InputEvent, SimScheduler

__all__ = [
    "KINDS",
    "ROUTES",
    "WORKLOADS",
    "Workload",
    "Episode",
    "Config",
    "Run",
    "Result",
    "SimulatedCrash",
    "cases",
    "execute",
    "check",
    "shrink",
    "matrix",
]

Row = Tuple[Any, ...]
BugHook = Callable[[ContinuousQuery], None]
Columns = Tuple[Tuple[str, AtomType], ...]

KINDS = ("sql", "aggregate", "join", "count_window", "time_window")
ROUTES = ("reeval", "basic", "incremental")
QUERY = "q"  # fixed query name: recovery needs an identical topology


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Stream:
    """One input stream: its basket, channel and ingest transition."""

    basket: str
    columns: Columns
    channel: str = "wire"
    receptor: str = "tap"


FEED = Stream("feed", (("a", AtomType.INT), ("b", AtomType.INT)))
VALUES = Stream("feed", (("v", AtomType.INT),))
STAMPED = Stream("s", (("v", AtomType.LNG), ("g", AtomType.STR)))
JOIN_STREAMS = (
    Stream("jleft", (("k", AtomType.INT), ("a", AtomType.INT)),
           "lwire", "ltap"),
    Stream("jright", (("k", AtomType.INT), ("b", AtomType.INT)),
           "rwire", "rtap"),
)


@dataclass(frozen=True)
class Workload:
    """A continuous query with its one-shot twin (window kinds: none).

    Integer-valued streams keep float summation order out of the
    equivalence question.
    """

    name: str
    kind: str
    streams: Tuple[Stream, ...] = (FEED,)
    continuous_sql: str = ""
    oneshot_sql: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "passthrough", "sql", (FEED,),
            "select x.a, x.b from [select * from feed] as x",
            "select a, b from feed",
        ),
        Workload(
            "filter", "sql", (FEED,),
            "select x.a, x.b from "
            "[select * from feed where feed.a > 10] as x",
            "select a, b from feed where a > 10",
        ),
        Workload(
            "compound", "sql", (FEED,),
            "select x.a, x.b from "
            "[select * from feed where feed.a > 10 and feed.b < 5] as x",
            "select a, b from feed where a > 10 and b < 5",
        ),
        Workload(
            "disjunct", "sql", (FEED,),
            "select x.b from "
            "[select * from feed where feed.a > 15 or feed.b = 2] as x",
            "select b from feed where a > 15 or b = 2",
        ),
        Workload(
            "arith", "sql", (FEED,),
            "select x.a + x.b from "
            "[select * from feed where not (feed.a > 10)] as x",
            "select a + b from feed where not (a > 10)",
        ),
        Workload(
            "agg_grouped", "aggregate", (FEED,),
            "select x.a, sum(x.b), count(x.b), min(x.b), max(x.b) "
            "from [select * from feed] as x group by x.a",
            "select a, sum(b), count(b), min(b), max(b) "
            "from feed group by a",
        ),
        Workload(
            "agg_filtered", "aggregate", (FEED,),
            "select x.a, sum(x.b), avg(x.b) from [select * from feed] as x "
            "where x.b > 2 group by x.a",
            "select a, sum(b), avg(b) from feed where b > 2 group by a",
        ),
        Workload(
            "agg_global", "aggregate", (FEED,),
            "select count(*), sum(x.b), min(x.b) "
            "from [select * from feed] as x",
            "select count(*), sum(b), min(b) from feed",
        ),
        Workload(
            "join", "join", JOIN_STREAMS,
            "select x.k, x.a, y.b from [select * from jleft] as x, "
            "[select * from jright] as y where x.k = y.k",
            "select jleft.k, jleft.a, jright.b from jleft, jright "
            "where jleft.k = jright.k",
        ),
        Workload("count_window", "count_window", (VALUES,)),
        Workload("time_window", "time_window", (STAMPED,)),
    )
}

#: kinds whose incremental output rows carry a trailing ±1 weight
WEIGHTED = ("aggregate", "join")

COUNT_WINDOWS = ((5, 2), (4, 4), (1, 1), (8, 3), (30, 10), (6, 3))
TIME_WINDOWS = ((8.0, 2.0), (5.0, 5.0), (12.0, 3.0))
AGGREGATE_SETS = (
    ("sum",), ("count",), ("avg",), ("min",), ("max",),
    ("sum", "count", "min", "max"),
)
FSYNC_CYCLE = ("interval", "off", "always")


def cases(kind: str) -> List[str]:
    """The workload names of one kind, sorted."""
    return sorted(n for n, w in WORKLOADS.items() if w.kind == kind)


# ----------------------------------------------------------------------
# episode and configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Episode:
    """Everything that determines one episode's input, and nothing else."""

    seed: int
    rows: Tuple[Row, ...]
    workload: str = "filter"
    #: join only: the right stream (the left one uses ``rows``)
    right_rows: Tuple[Row, ...] = ()
    policy: str = "random"
    batch_size: int = 3
    time_step: float = 0.25
    #: window kinds: (size, slide) in tuples or seconds
    window: Tuple[float, float] = (5, 2)
    aggregates: Tuple[str, ...] = ("sum",)
    grouped: bool = False
    #: count windows: the query's firing threshold (flushed at the end)
    min_tuples: int = 1
    # --- the fault plan -------------------------------------------------
    batch_fault_rate: float = 0.0
    exception_rate: float = 0.0
    #: time windows: max seconds a timestamp lags the stream head
    disorder: float = 0.0
    #: crash configurations: the firing the engine is killed at, the
    #: checkpoint cadence before it, the WAL fsync policy, and whether
    #: the telemetry sampler runs (sys.* streams skip WAL/checkpoints)
    crash_after: int = 5
    checkpoint_every: Optional[int] = None
    fsync: str = "interval"
    sampling: bool = False

    @property
    def kind(self) -> str:
        return WORKLOADS[self.workload].kind

    def inputs(self) -> List[Tuple[Stream, Tuple[Row, ...]]]:
        streams = WORKLOADS[self.workload].streams
        return list(zip(streams, (self.rows, self.right_rows)))

    def fault_plan(self) -> Optional[FaultPlan]:
        if self.batch_fault_rate <= 0 and self.exception_rate <= 0:
            return None
        return FaultPlan(
            seed=self.seed,
            batch_fault_rate=self.batch_fault_rate,
            exception_rate=self.exception_rate,
            delay_seconds=self.time_step * 2,
        )

    def script(self) -> List[InputEvent]:
        """Scripted arrivals; a second stream lags by half a step."""
        events = []
        for j, (stream, rows) in enumerate(self.inputs()):
            for i in range(0, len(rows), self.batch_size):
                events.append(
                    InputEvent.make(
                        at=(i // self.batch_size) * self.time_step
                        + j * self.time_step / 2,
                        channel=stream.channel,
                        events=rows[i : i + self.batch_size],
                    )
                )
        return events


@dataclass(frozen=True)
class Config:
    """How the engine runs an episode.

    Written on the command line as ``route[+wire][+crash]``, e.g.
    ``incremental+wire`` or ``basic+crash``.
    """

    route: str = "reeval"
    #: ingest through the server's wire seam (frame encode/decode +
    #: ingest queue + pump, see :mod:`.server_episode`) instead of a
    #: receptor
    wire: bool = False
    #: kill at firing ``Episode.crash_after``, recover from checkpoint +
    #: WAL, feed the rest of the stream
    crash: bool = False

    @classmethod
    def parse(cls, text: str) -> "Config":
        route, *flags = text.strip().split("+")
        if route not in ROUTES or not set(flags) <= {"wire", "crash"}:
            raise ValueError(f"bad configuration {text!r}")
        return cls(route, wire="wire" in flags, crash="crash" in flags)

    def __str__(self) -> str:
        flags = [f for f in ("wire", "crash") if getattr(self, f)]
        return "+".join([self.route] + flags)

    def applies(self, kind: str) -> bool:
        """Whether this configuration has a reference for ``kind``.

        Weighted output and time windows exist only on the incremental
        route (a time window's reference *is* the re-eval route); the
        basic route is a window route.  The join's two streams and the
        time window's stamped inserts do not go over the wire, nor do
        they crash: recovery resumes one stream at ``rows[total_in:]``,
        and a restarted virtual clock moves time-window stamps.
        """
        if kind in WEIGHTED or kind == "time_window":
            routes: Tuple[str, ...] = ("incremental",)
        elif kind == "sql":
            routes = ("reeval", "incremental")
        else:
            routes = ROUTES
        if (self.wire or self.crash) and kind in ("join", "time_window"):
            return False
        return self.route in routes


REEVAL = Config()


# ----------------------------------------------------------------------
# the one engine builder
# ----------------------------------------------------------------------
@dataclass
class Rig:
    sim: SimScheduler
    cell: DataCell
    handle: ContinuousQuery
    channels: List[Channel]
    faults: Optional[FaultPlan]


def _quiet_metrics() -> MetricsRegistry:
    # no-op instruments keep 200-episode CI runs fast and keep hidden
    # wall-clock stamp columns out of the deterministic state
    return MetricsRegistry(enabled=False)


def build(
    episode: Episode,
    config: Config,
    directory: Optional[Path] = None,
    bug: Optional[BugHook] = None,
) -> Rig:
    """One simulated engine with the episode's topology.

    Durability is on iff ``directory`` is given.  Every crash phase
    builds through here, so basket/factory/emitter names are identical
    — the topology-identity contract recovery requires.  ``bug`` (tests
    only) mutates the registered query, to prove the harness catches
    and shrinks a planted defect.
    """
    workload = WORKLOADS[episode.workload]
    faults = episode.fault_plan()
    metrics = _quiet_metrics()
    sim = SimScheduler(
        seed=episode.seed, policy=episode.policy, faults=faults,
        metrics=metrics,
    )
    cell = DataCell(
        clock=sim.clock, scheduler=sim, metrics=metrics,
        durability=(
            DurabilityConfig(directory=directory, fsync=episode.fsync)
            if directory is not None
            else None
        ),
        system_streams=(
            SystemStreamsConfig(interval=2 * episode.time_step)
            if episode.sampling
            else None
        ),
    )
    channels: List[Channel] = []
    for stream in workload.streams:
        cell.create_basket(stream.basket, list(stream.columns))
        channel: Channel = InMemoryChannel(stream.channel)
        if faults is not None:
            channel = FaultableChannel(channel, faults, sim.clock)
        if config.wire:
            attach_server_ingress(
                cell, channel, stream.basket, list(stream.columns)
            )
        else:
            cell.add_receptor(stream.receptor, [stream.basket], channel)
        sim.bind_channel(stream.channel, channel)
        channels.append(channel)
    if workload.kind == "count_window":
        size, slide = episode.window
        handle = cell.submit_window_aggregate(
            VALUES.basket, "v", list(episode.aggregates[:1]),
            WindowSpec(WindowMode.COUNT, int(size), int(slide)),
            name=QUERY, execution=config.route,
        )
        handle.factory.inputs[0].min_tuples = episode.min_tuples
    else:
        handle = cell.submit_continuous(
            workload.continuous_sql, name=QUERY, execution=config.route
        )
    if bug is not None:
        bug(handle)
    return Rig(sim, cell, handle, channels, faults)


def _drain(sim: SimScheduler) -> None:
    while sim.sim_fire() is not None:
        pass


def _fetch(handle: ContinuousQuery) -> List[Row]:
    return [tuple(r) for r in handle.fetch()]


@dataclass
class Run:
    """What one simulated run produced."""

    rows: List[Row]
    #: post-fault ground truth per input stream, in ingest order
    delivered: List[List[Row]]
    episode: EpisodeResult
    faults: Optional[FaultPlan]
    fallbacks: List[Tuple[str, str]]


def execute(
    episode: Episode, config: Config = REEVAL, bug: Optional[BugHook] = None
) -> Run:
    """Drive the episode's script through one engine to quiescence."""
    rig = build(episode, config, bug=bug)
    result = rig.sim.run_episode(episode.script())
    if episode.min_tuples > 1:
        # a threshold above the final residue legitimately gates the
        # tail (the paper's min-tuples firing condition); flush it so
        # strict equivalence against the full-stream reference applies
        rig.handle.factory.inputs[0].min_tuples = 1
        _drain(rig.sim)
    rig.sim.attach_digests(rig.cell.catalog.baskets())
    delivered = [
        [tuple(e) for e in channel.delivered]
        if isinstance(channel, FaultableChannel)
        else [tuple(r) for r in rows]
        for channel, (_, rows) in zip(rig.channels, episode.inputs())
    ]
    return Run(
        _fetch(rig.handle), delivered, result, rig.faults,
        list(rig.cell.incremental_fallbacks),
    )


def _drive_time_window(episode: Episode, route: str) -> List[Row]:
    """Direct, simulator-free seeded drive with explicit timestamps.

    Out-of-order arrival needs explicit stamps — receptor ingest always
    stamps "now" — so this kind inserts straight into the basket, firing
    to quiescence on a seeded cadence.  Every route sees the identical
    stamped sequence.
    """
    size, slide = episode.window
    cell = DataCell(metrics=_quiet_metrics())
    cell.create_basket(STAMPED.basket, list(STAMPED.columns))
    handle = cell.submit_window_aggregate(
        STAMPED.basket, "v", list(episode.aggregates),
        WindowSpec(WindowMode.TIME, size, slide),
        group_by="g" if episode.grouped else None,
        execution=route, name=QUERY,
    )
    basket = cell.basket(STAMPED.basket)
    rng = random.Random(f"datacell-time-window:{episode.seed}")
    out: List[Row] = []
    t = 100.0
    for i, row in enumerate(episode.rows):
        t += rng.random() * (slide / 2)
        lag = rng.random() * episode.disorder if episode.disorder else 0.0
        basket.insert_rows([[row[0], f"g{row[1] % 3}"]], timestamp=t - lag)
        if i % episode.batch_size == 0:
            cell.run_until_quiescent()
            out.extend(_fetch(handle))
    cell.run_until_quiescent()
    return out + _fetch(handle)


def _oneshot(episode: Episode, delivered: Sequence[List[Row]]) -> List[Row]:
    """Re-run the query once over the accumulated stream tables."""
    workload = WORKLOADS[episode.workload]
    cell = DataCell(metrics=_quiet_metrics())
    for (stream, _), rows in zip(episode.inputs(), delivered):
        table = cell.create_table(stream.basket, list(stream.columns))
        if rows:
            table.append_rows([list(r) for r in rows])
    return [tuple(r) for r in cell.execute(workload.oneshot_sql).rows()]


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------
class SimulatedCrash(Exception):
    """Raised from the firing hook to kill an episode at a boundary."""


@dataclass
class Result:
    """Verdict of one episode under one configuration."""

    episode: Episode
    config: Config
    got: List[Any]
    expected: List[Any]
    #: sequence (window, crash) or multiset (SQL) comparison
    ordered: bool = False
    #: a failure that is not a row difference (e.g. an unexpected
    #: incremental fallback)
    detail: str = ""
    run: Optional[Run] = None
    crashed: bool = False  # False = crash_after landed past quiescence
    pre_crash: List[Row] = field(default_factory=list)
    post_recovery: List[Row] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if self.detail:
            return False
        if self.ordered:
            return self.got == self.expected
        return Counter(self.got) == Counter(self.expected)

    @property
    def missing(self) -> "Counter[Any]":
        return Counter(self.expected) - Counter(self.got)

    @property
    def extra(self) -> "Counter[Any]":
        return Counter(self.got) - Counter(self.expected)

    def repro(self) -> str:
        """The one-line repro: paste it back as it prints."""
        return f"check({self.episode!r}, {self.config!r})"

    def explain(self) -> str:
        if self.ok:
            return f"{self.config} ≡ reference"
        if self.detail:
            diff = self.detail
        elif self.ordered:
            got, want = self.got, self.expected
            at = next(
                (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)),
            )
            diff = (
                f"row {at}: got {got[at:at + 3]} expected "
                f"{want[at:at + 3]} (lengths {len(got)}/{len(want)})"
            )
            if self.config.crash:
                diff += f", {len(self.pre_crash)} before the kill"
        else:
            diff = f"missing={dict(self.missing)} extra={dict(self.extra)}"
        return f"{self.repro()} failed: {diff}"


def check(
    episode: Episode,
    config: Config = REEVAL,
    bug: Optional[BugHook] = None,
    directory: Optional[Path] = None,
) -> Result:
    """Run one episode under one configuration against its reference."""
    kind = episode.kind
    if not config.applies(kind):
        raise DataCellError(f"configuration {config} has no {kind} reference")
    if config.crash:
        return _check_crash(episode, config, bug, directory)
    if kind == "time_window":
        return Result(
            episode, config,
            _drive_time_window(episode, config.route),
            _drive_time_window(episode, "reeval"),
            ordered=True,
        )
    run = execute(episode, config, bug)
    if kind == "count_window":
        size, slide = episode.window
        naive = NaiveReEvalWindow(int(size), int(slide), episode.aggregates[0])
        for (value,) in run.delivered[0]:
            naive.insert(value)
        # output rows are (window_id, aggregate); order by window index
        # so the comparison is insensitive to delivery batching
        got = [float(r[1]) for r in sorted(run.rows, key=lambda r: r[0])]
        return Result(
            episode, config, got, [float(v) for v in naive.results],
            ordered=True, run=run,
        )
    got, detail = run.rows, ""
    if kind in WEIGHTED:
        if run.fallbacks:
            detail = f"unexpected fallback: {run.fallbacks}"
        try:
            got = integrate_weighted_rows(run.rows)
        except DataCellError:
            detail = detail or "integrated delta output has negative weights"
    return Result(
        episode, config, got, _oneshot(episode, run.delivered),
        detail=detail, run=run,
    )


def _check_crash(
    episode: Episode,
    config: Config,
    bug: Optional[BugHook],
    directory: Optional[Path],
) -> Result:
    """Kill-and-restart: recovered output ≡ uninterrupted output.

    Three phases over one durability directory: the uninterrupted
    reference; a run with durability on that a firing hook kills after
    ``crash_after`` firings (checkpointing every ``checkpoint_every``
    first), abandoned with no final fsync, exactly what a process kill
    leaves on disk; and a fresh engine that recovers, drains the
    replayed in-flight work, and ingests the suffix the dead process
    never saw (``rows[total_in:]`` — ingest is FIFO, so the restored
    ``total_in`` counter is the resume point).  Crashes land on firing
    boundaries, where exactly-once holds (``docs/durability.md``).
    """
    if episode.fault_plan() is not None:
        raise DataCellError("crash episodes take no channel faults")
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="datacell-crash-") as tmp:
            return _check_crash(episode, config, bug, Path(tmp))
    directory = directory / f"ep-{episode.seed}"
    plain = replace(config, crash=False)
    reference = execute(episode, plain, bug).rows

    dying = build(episode, plain, directory, bug)

    def hook(fired: int) -> None:
        if fired >= episode.crash_after:
            raise SimulatedCrash(f"firing {fired}")
        if episode.checkpoint_every and fired % episode.checkpoint_every == 0:
            dying.cell.checkpoint()

    crashed = False
    try:
        dying.sim.run_episode(episode.script(), on_firing=hook)
    except SimulatedCrash:
        crashed = True
    pre = _fetch(dying.handle)
    dying.cell.durability.abandon()  # a kill: no final fsync

    rig = build(episode, plain, directory, bug)
    rig.cell.recover()
    _drain(rig.sim)  # replayed in-flight work; delivered rows suppressed
    basket = rig.cell.basket(WORKLOADS[episode.workload].streams[0].basket)
    remaining = episode.rows[basket.total_in :]
    for i in range(0, len(remaining), episode.batch_size):
        basket.insert_rows(
            [list(r) for r in remaining[i : i + episode.batch_size]]
        )
        _drain(rig.sim)
    post = _fetch(rig.handle)
    rig.cell.durability.close()

    combined = pre + post
    if episode.kind == "count_window":
        combined = sorted(combined, key=lambda r: r[0])
        reference = sorted(reference, key=lambda r: r[0])
    return Result(
        episode, config, combined, reference, ordered=True,
        crashed=crashed, pre_crash=pre, post_recovery=post,
    )


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink(
    episode: Episode,
    config: Config = REEVAL,
    bug: Optional[BugHook] = None,
    max_attempts: int = 400,
) -> Tuple[Episode, int]:
    """Minimize a failing episode; returns ``(smallest, attempts)``.

    Schedule first — a repro without faults under the deterministic
    default policy is worth more than a short stream — then greedy
    ddmin over the row streams.  Every candidate re-runs the full
    check, so the result is guaranteed to still fail.
    """
    attempts = 0

    def fails(candidate: Episode) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        return not check(candidate, config, bug).ok

    current = episode
    for simpler in (
        {"batch_fault_rate": 0.0, "exception_rate": 0.0},
        {"policy": "priority"},
        {"disorder": 0.0},
    ):
        candidate = replace(current, **simpler)
        if candidate != current and fails(candidate):
            current = candidate
    for name in ("rows", "right_rows"):
        rows = list(getattr(current, name))
        chunk = max(1, len(rows) // 2)
        while rows:
            i = 0
            while i < len(rows):
                kept = rows[:i] + rows[i + chunk :]
                candidate = replace(current, **{name: tuple(kept)})
                if kept and fails(candidate):
                    rows, current = kept, candidate
                else:
                    i += chunk
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return current, attempts


# ----------------------------------------------------------------------
# seeded episode generation
# ----------------------------------------------------------------------
def matrix(
    configs: Sequence[Config], episodes: int, base_seed: int
) -> Iterator[Tuple[Episode, Config]]:
    """Episode ``index`` of a run: a pure function of its arguments.

    Cycles every applicable (workload kind, configuration) pair; within
    a pair, cases, geometries, aggregates, policies and fsync modes
    cycle round by round and everything else derives from the seed.  A
    third of the rounds get channel faults and a sixth injected
    exceptions (crash and time-window episodes take neither), every
    other time-window round is out of order.
    """
    pairs = [(k, c) for c in configs for k in KINDS if c.applies(k)]
    if not pairs:
        raise DataCellError("no configuration applies to any workload")
    for index in range(episodes):
        kind, config = pairs[index % len(pairs)]
        yield _episode(base_seed + index, index // len(pairs), kind, config), config


def _episode(seed: int, round_: int, kind: str, config: Config) -> Episode:
    rng = random.Random(f"datacell-episode:{seed}")
    names = cases(kind)
    workload = WORKLOADS[names[round_ % len(names)]]
    ingress = "server_wire" if config.wire else workload.streams[0].receptor
    policies = list(policy_names()) + [f"starve:{ingress}"]
    faultable = not config.crash and kind != "time_window"
    episode = Episode(
        seed=seed,
        rows=tuple(
            (rng.randint(-5, 30), rng.randint(0, 10))
            for _ in range(rng.randint(5, 60))
        ),
        workload=workload.name,
        policy=policies[round_ % len(policies)],
        batch_size=rng.choice((1, 2, 3, 5, 8)),
        batch_fault_rate=0.3 if faultable and round_ % 3 == 0 else 0.0,
        exception_rate=0.15 if faultable and round_ % 6 == 3 else 0.0,
    )
    if kind == "join":
        episode = replace(
            episode,
            rows=tuple(
                (rng.randint(0, 8), rng.randint(0, 20))
                for _ in range(len(episode.rows))
            ),
            right_rows=tuple(
                (rng.randint(0, 8), rng.randint(0, 20))
                for _ in range(rng.randint(4, 40))
            ),
        )
    elif kind == "count_window":
        size, slide = COUNT_WINDOWS[round_ % len(COUNT_WINDOWS)]
        episode = replace(
            episode,
            window=(size, slide),
            aggregates=AGGREGATE_SETS[round_ % 5],
            min_tuples=1 if config.crash else rng.choice((1, 1, 1, size + 2)),
            rows=tuple(
                (rng.randint(0, 50),) for _ in range(rng.randint(size, 80))
            ),
        )
    elif kind == "time_window":
        size, slide = TIME_WINDOWS[round_ % len(TIME_WINDOWS)]
        episode = replace(
            episode,
            window=(size, slide),
            aggregates=AGGREGATE_SETS[round_ % len(AGGREGATE_SETS)],
            grouped=round_ % 2 == 0,
            disorder=slide * 2.5 if round_ % 2 == 1 else 0.0,
            rows=tuple(
                (rng.randint(0, 50), rng.randint(0, 5))
                for _ in range(rng.randint(10, 70))
            ),
        )
    if config.crash:
        # ~3 firings per batch (ingest + factory + emitter); land the
        # kill anywhere from the first firing to past quiescence so
        # clean shutdowns are exercised too
        batches = len(episode.rows) // episode.batch_size + 1
        episode = replace(
            episode,
            crash_after=rng.randint(1, max(3, 3 * batches)),
            checkpoint_every=rng.choice((None, 2, 4, 7)),
            fsync=FSYNC_CYCLE[round_ % len(FSYNC_CYCLE)],
            sampling=round_ % 2 == 1,
        )
    return episode
