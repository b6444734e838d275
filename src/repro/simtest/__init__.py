"""Deterministic simulation + differential testing for the DataCell.

The paper's headline architecture (§2.4) is the multi-threaded scheduler:
every receptor/factory/emitter an independent thread, data streaming
through baskets.  Thread schedules are not reproducible, so interleaving
bugs (lost wakeups, basket races, double consumption under the §2.5
strategies) surface only as flakes.  This package provides the
correctness substrate instead:

* :class:`~repro.simtest.sim.SimScheduler` drives the *exact same*
  transition objects under a seed-controlled virtual scheduler — one
  firing at a time, ordering chosen by a pluggable
  :class:`~repro.core.scheduler.FiringPolicy`, time supplied by a
  :class:`~repro.core.clock.VirtualClock`.  A whole episode is
  reproducible from ``(seed, policy, fault plan)``.
* :mod:`~repro.simtest.faults` injects drop/duplicate/reorder/delay
  faults at basket boundaries and raises exceptions inside transitions
  (exercising the scheduler's ``on_exception`` hook and the flight
  recorder).
* :mod:`~repro.simtest.harness` runs one :class:`Episode` under a list
  of configurations (:class:`Config`: re-eval, basic or incremental route;
  receptor or wire ingest; killed at firing k and recovered) and checks
  each against its reference: the one-shot SQL over the delivered
  stream (integrated first for weighted deltas), the naive per-tuple
  window baseline, the re-eval route, or the uninterrupted run — the
  "streaming must equal re-running the SQL" property DataCell inherits
  from the relational kernel.  One shrinker minimizes ``(stream,
  schedule)`` on failure; ``python -m repro.simtest.run`` is the CLI.

See ``docs/testing.md`` for the fault matrix, the oracle equivalence
rules, and how to reproduce a failure from a printed repro line.
"""

# NOTE: .run is intentionally not imported here — it is the CLI entry
# point (``python -m repro.simtest.run``) and importing it from the
# package __init__ would trigger the runpy double-import warning.
from .faults import FaultableChannel, FaultPlan, InjectedFault
from .harness import (
    KINDS,
    WORKLOADS,
    Config,
    Episode,
    Result,
    Run,
    cases,
    check,
    execute,
    matrix,
    shrink,
)
from .policies import (
    PriorityInvertingPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    StarvePolicy,
    make_policy,
    policy_names,
)
from .sim import EpisodeResult, InputEvent, SimScheduler

__all__ = [
    "FaultPlan",
    "FaultableChannel",
    "InjectedFault",
    "KINDS",
    "WORKLOADS",
    "Config",
    "Episode",
    "Result",
    "Run",
    "cases",
    "check",
    "execute",
    "matrix",
    "shrink",
    "RandomPolicy",
    "RoundRobinPolicy",
    "PriorityInvertingPolicy",
    "StarvePolicy",
    "make_policy",
    "policy_names",
    "SimScheduler",
    "InputEvent",
    "EpisodeResult",
]
