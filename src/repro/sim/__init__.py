"""Discrete-event simulation substrate (kernel, queues, measurement)."""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    StopSimulation,
    Timeout,
    WakeSignal,
)
from .parallel import (
    TRANSPORTS,
    PartitionError,
    PartitionPlan,
    PartitionedRun,
    RemoteMessage,
    ZeroLookaheadError,
    default_transport,
    resolve_run_options,
    plan_from_spec,
    profile_weights,
    run_partitioned,
)
from .resources import Channel, Resource, Store
from .stats import Counter, LatencyStat, ThroughputMeter

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Counter",
    "Event",
    "LatencyStat",
    "PartitionError",
    "PartitionPlan",
    "PartitionedRun",
    "Process",
    "RemoteMessage",
    "Resource",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "ThroughputMeter",
    "Timeout",
    "TRANSPORTS",
    "WakeSignal",
    "ZeroLookaheadError",
    "default_transport",
    "resolve_run_options",
    "plan_from_spec",
    "profile_weights",
    "run_partitioned",
]
