"""Deterministic free-agency roster engine for mixture-of-experts
fraud-detection agents on a simulated drifting transaction stream."""

from .domain import (
    Agent,
    AgentId,
    AgentStatus,
    ComputationError,
    ConfigError,
    EventKind,
    RosterEvent,
)
from .engine import Engine, SnapshotError, restore_engine, write_snapshot
from .lifecycle import LifecycleConfig
from .moe import Expert, check_gate, rl_update, uniform_gate
from .simulator import PatternSpec, Segment, StreamConfig

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "AgentId",
    "AgentStatus",
    "ComputationError",
    "ConfigError",
    "Engine",
    "EventKind",
    "Expert",
    "LifecycleConfig",
    "PatternSpec",
    "RosterEvent",
    "Segment",
    "SnapshotError",
    "StreamConfig",
    "check_gate",
    "restore_engine",
    "rl_update",
    "uniform_gate",
    "write_snapshot",
    "__version__",
]
