"""The DataCell core: baskets, factories, scheduler, strategies, windows."""

from .basket import Basket, BasketSnapshot, TIME_COLUMN
from .clock import Clock, LogicalClock, VirtualClock, WallClock
from .continuous import ContinuousQuery
from .emitter import CollectingClient, Emitter
from .engine import DataCell
from .factory import (
    ActivationResult,
    CallablePlan,
    ConsumeMode,
    ContinuousPlan,
    Factory,
    InputBinding,
    PlanOutput,
)
from .receptor import Receptor
from .scheduler import FiringPolicy, PriorityPolicy, Scheduler
from .shedding import LoadShedController, apply_shedding_policy
from .topology import NetworkTopology, build_topology
from .windows import (
    IncrementalWindowAggregatePlan,
    ReEvalWindowAggregatePlan,
    SlidingWindowJoinPlan,
    WindowMode,
    WindowSpec,
)

__all__ = [
    "Basket",
    "BasketSnapshot",
    "TIME_COLUMN",
    "Clock",
    "LogicalClock",
    "VirtualClock",
    "WallClock",
    "ContinuousQuery",
    "CollectingClient",
    "Emitter",
    "DataCell",
    "ActivationResult",
    "CallablePlan",
    "ConsumeMode",
    "ContinuousPlan",
    "Factory",
    "InputBinding",
    "PlanOutput",
    "Receptor",
    "Scheduler",
    "FiringPolicy",
    "PriorityPolicy",
    "LoadShedController",
    "apply_shedding_policy",
    "NetworkTopology",
    "build_topology",
    "WindowSpec",
    "WindowMode",
    "IncrementalWindowAggregatePlan",
    "ReEvalWindowAggregatePlan",
    "SlidingWindowJoinPlan",
]
