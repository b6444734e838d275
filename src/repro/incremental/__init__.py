"""Delta-stream (Z-set) incremental execution (DBSP model).

This package implements the incremental execution mode selected with
``DataCell(execution="incremental")``: streams are modelled as sequences
of *Z-sets* (weighted multisets where a weight of ``+1`` is an insert and
``-1`` a retraction), operators are *lifted* to work on deltas, and
stateful operators (aggregates, joins, windows) maintain integrated
state so the cost of each firing is ``O(|delta|)`` instead of
``O(|state|)``.

Layers:

* :mod:`~repro.incremental.zset` — the Z-set value type and its algebra;
* :mod:`~repro.incremental.circuit` — stream operators (lift, delay
  z⁻¹, integrate, differentiate, incremental group-aggregate,
  incremental equi-join) and the retraction-capable aggregate state;
* :mod:`~repro.incremental.windows` — window aggregates and the
  sliding-window join as delta producers (retraction on expiry);
* :mod:`~repro.incremental.compile` — the SQL shape detector that turns
  a continuous query into an incremental circuit, with per-query
  fallback to the re-evaluation (MAL) path.

Every operator here has a re-evaluation twin; the ``incremental``
configurations of ``repro.simtest`` prove it against its reference.
See ``docs/incremental.md``.
"""

from .circuit import (
    Delay,
    Differentiate,
    IncrementalGroupAggregate,
    IncrementalJoin,
    Integrate,
    Lift,
    RetractableAggState,
)
from .compile import (
    CircuitContinuousPlan,
    IncrementalUnsupported,
    compile_incremental,
)
from .windows import DeltaWindowAggregatePlan, DeltaWindowJoinPlan
from .zset import WEIGHT_COLUMN, ZSet, integrate_weighted_rows

__all__ = [
    "ZSet",
    "WEIGHT_COLUMN",
    "integrate_weighted_rows",
    "Lift",
    "Delay",
    "Integrate",
    "Differentiate",
    "IncrementalGroupAggregate",
    "IncrementalJoin",
    "RetractableAggState",
    "DeltaWindowAggregatePlan",
    "DeltaWindowJoinPlan",
    "CircuitContinuousPlan",
    "IncrementalUnsupported",
    "compile_incremental",
]
