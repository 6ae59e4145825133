"""Per-agent mixture of experts: linear scorers, hard top-1 gating, and a
multiplicative-weights gate update driven by per-sample rewards.

Expert parameters are fixed at construction; only the gate learns. The
update is deterministic: the used expert's gate weight is multiplied by
``exp(learning_rate * reward)`` and the vector is renormalized, so a
stream of +1 rewards makes an expert's weight approach 1 geometrically.
Routing and scoring of a batch live in ``pipeline.decide``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from . import domain
from .domain import Agent, AgentStatus, ComputationError, ConfigError, LifecycleError


@dataclass(frozen=True, slots=True)
class Expert:
    """Linear scorer: fraud verdict iff dot(weights, features) >= threshold.

    ``profile`` lives in modality space and encodes which input
    modalities this expert understands; the gate matches it against a
    sample's modality vector. A config must give both at their ``length``.
    """

    profile: tuple[float, ...] = field(metadata={"length": domain.MODALITY_DIM})
    weights: tuple[float, ...] = field(metadata={"length": domain.FEATURE_DIM})
    threshold: float

    def __post_init__(self) -> None:
        if min(self.profile, default=0.0) < 0:
            raise ConfigError("expert profile entries must be non-negative")


@dataclass(frozen=True, slots=True)
class MoEState:
    experts: tuple[Expert, ...]
    gate_weights: tuple[float, ...]
    learning_rate: float = 0.05

    def __post_init__(self) -> None:
        if not self.experts:
            raise ConfigError("an agent needs at least one expert")
        if len(self.gate_weights) != len(self.experts):
            raise ConfigError("gate_weights length must match expert count")
        # Non-negative rather than strictly positive: a starved expert's
        # weight may underflow to 0.0 after enough renormalizations.
        if any(w < 0 for w in self.gate_weights) or sum(self.gate_weights) <= 0:
            raise ConfigError("gate weights must be non-negative with positive sum")
        check_learning_rate(self.learning_rate)


# The largest rate whose gate factor exp(learning_rate * reward) stays finite.
MAX_LEARNING_RATE = math.log(sys.float_info.max)


def check_learning_rate(rate: float) -> None:
    if not 0.0 < rate <= MAX_LEARNING_RATE:
        raise ConfigError(f"learning_rate must be in (0, {MAX_LEARNING_RATE!r}]")


def uniform_moe(experts: tuple[Expert, ...], learning_rate: float = 0.05) -> MoEState:
    n = len(experts)  # no experts: no weights, which MoEState refuses
    return MoEState(experts, tuple(1.0 / n for _ in experts), learning_rate)


def rl_update(moe: MoEState, experts: Sequence[int], signals: Sequence[float]) -> MoEState:
    """Multiplicative-weights steps on the gate, one per sample outcome, in order.

    For each outcome the used expert's weight is scaled by exp(eta *
    reward) and the vector renormalized to sum 1. Positive rewards
    reinforce the route that produced them; a zero reward is a no-op.
    The steps are taken one at a time because the closed form over a
    batch rounds differently.
    """
    factors = {}
    for reward in set(signals):
        if not -1.0 <= reward <= 1.0:
            raise ComputationError(f"sample reward {reward} outside [-1, 1]")
        factors[reward] = math.exp(moe.learning_rate * reward)
    weights = list(moe.gate_weights)
    for expert_used, reward in zip(experts, signals):
        weights[expert_used] *= factors[reward]
        total = sum(weights)
        weights = [w / total for w in weights]
    return replace(moe, gate_weights=tuple(weights))


def moe_init(agent: Agent) -> Agent:
    """Reset a probationary agent's gate to uniform, keeping its experts.

    Idempotent; applied on the agent's first probation transition pass.
    """
    if agent.status is not AgentStatus.PROBATIONARY:
        raise LifecycleError(f"moe_init on agent {agent.id} with status {agent.status.value}")
    n = len(agent.moe.experts)
    agent.moe = replace(agent.moe, gate_weights=(1.0 / n,) * n)
    return agent
