"""Discrete-event simulation substrate: kernel, clocks, and network."""

from .clock import HLC, ClockModel, Timestamp, TS_MAX, TS_ZERO
from .core import (
    Future,
    Process,
    SimulationError,
    Simulator,
    all_of,
    any_of,
)
from .network import (
    FaultPlane,
    LatencyModel,
    Network,
    NetworkUnavailableError,
    RpcTimeoutError,
    TABLE1_REGIONS,
    TABLE1_RTT_MS,
    synthetic_rtt_matrix,
)
from .retry import ExponentialBackoff

__all__ = [
    "HLC",
    "ClockModel",
    "Timestamp",
    "TS_MAX",
    "TS_ZERO",
    "Future",
    "Process",
    "SimulationError",
    "Simulator",
    "all_of",
    "any_of",
    "ExponentialBackoff",
    "FaultPlane",
    "LatencyModel",
    "Network",
    "NetworkUnavailableError",
    "RpcTimeoutError",
    "TABLE1_REGIONS",
    "TABLE1_RTT_MS",
    "synthetic_rtt_matrix",
]
