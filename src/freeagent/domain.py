"""Core identifiers, enumerations, and value types shared by every module.

All of these are passive records: they carry no behaviour beyond light
derivation helpers, and all mutation happens inside the single-threaded
engine loop. Safe to copy between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal

# Fixed layout of the feature space. The entries from SENSITIVE_START on are
# "sensitive": a Probationary shadow is given only the columns before them.
FEATURE_DIM = 6
SENSITIVE_START = 3
MODALITY_DIM = 3

AgentId = int

# The only role the pipeline dispatches, and its type; configs naming another are rejected.
FRAUD_ROLE = "FraudDetection"
DispatchedRole = Literal["FraudDetection"]


class ConfigError(ValueError):
    """Invalid configuration: bad dimensions, bad ranges, unknown keys.

    ``at`` names the key, below the object being built, that holds the error.
    """

    def __init__(self, message: str, at: str = "") -> None:
        super().__init__(message)
        self.at = at


class ComputationError(ValueError):
    """Numeric inputs outside the contract (non-finite, out of range)."""


class AgentStatus(str, Enum):
    ACTIVE = "Active"
    PROBATIONARY = "Probationary"
    RELEASED = "Released"


class EventKind(str, Enum):
    RELEASE = "Release"
    SIGN = "Sign"
    PROMOTE = "Promote"
    FREE_AGENCY = "FreeAgency"


@dataclass(slots=True)
class Agent:
    """One roster or pool member: the spec it was built from, fixed for the
    run, plus its state.

    ``gate_weights`` weigh the spec's experts, one weight each, and are
    the only learned state: the experts and the learning rate are the
    spec's. ``performance``, in [0, 1], is the output of the most recent
    evaluation (0.0 before the first). ``service_time`` counts completed
    roster cycles and never decreases while the agent is not Released.
    Counts are >= 0; building an agent checks them and ``performance``.
    ``status`` picks the features the agent decides on: all of them when
    Active, their Restricted view (the first ``SENSITIVE_START``) when Probationary.
    """

    id: AgentId
    spec: "AgentSpec"  # noqa: F821 - defined in the config module
    status: AgentStatus
    gate_weights: tuple[float, ...]
    service_time: int = 0
    performance: float = 0.0
    consecutive_below: int = 0

    def __post_init__(self) -> None:
        for name in ("id", "service_time", "consecutive_below"):
            if (count := getattr(self, name)) < 0:
                raise ConfigError(f"expected an integer >= 0, got {count}", at=name)
        if not 0.0 <= self.performance <= 1.0:
            raise ConfigError(f"expected a number in [0, 1], got {self.performance}",
                              at="performance")


@dataclass(frozen=True, slots=True)
class RosterEvent:
    """Audit record of one roster transition."""

    cycle: int
    kind: EventKind
    agent: AgentId
    detail: str = ""
    performance_snapshot: float = 0.0

    @classmethod
    def of(cls, cycle: int, kind: EventKind, agent: Agent, detail: str) -> RosterEvent:
        """An event of ``agent``, snapshotting its performance as it stands."""
        return cls(cycle, kind, agent.id, detail, agent.performance)
