"""Roster state machine: evaluate-and-release, vacancy filling, probation
transitions, and service-time accounting.

All operations mutate the (roster, pool) pair in place, append audit
events, and iterate agents in ascending id order so runs are
deterministic; this module writes every event kind. The roster and pool
are disjoint at every step. Every roster agent is evaluated once per
cycle, on its metrics.csv row, and every transition is visible as
exactly one Release/FreeAgency/Sign/Promote event, which is what makes
event-log replay possible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .domain import (
    FRAUD_ROLE,
    Agent,
    AgentId,
    AgentStatus,
    ConfigError,
    DispatchedRole,
    EventKind,
    RosterEvent,
)
from .metrics import MetricsRow
from .moe import uniform_gate

logger = logging.getLogger("freeagent.lifecycle")


@dataclass(frozen=True, slots=True)
class LifecycleConfig:
    """Release and probation policy.

    ``sustain_window`` is the number of consecutive below-threshold
    evaluations before release; 1 reproduces immediate-release
    semantics. ``reward_threshold``, when set, makes a sub-threshold
    cycle reward count as "below" too.
    """

    release_threshold: float = 0.80
    reward_threshold: float | None = None
    sustain_window: int = 3
    max_service_time: int = 50
    keep_service_time_on_resign: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.release_threshold <= 1.0:
            raise ConfigError("release_threshold must be in [0, 1]")
        if self.sustain_window < 1:
            raise ConfigError("sustain_window must be >= 1")
        if self.max_service_time < 1:
            raise ConfigError("max_service_time must be >= 1")


@dataclass(frozen=True)
class RoleSpec:
    """A roster role and the skills a pool agent needs to be signed into it."""

    name: DispatchedRole
    required_skills: frozenset[str]

    def __post_init__(self) -> None:
        if self.name != FRAUD_ROLE:
            raise ConfigError(f"expected one of {[FRAUD_ROLE]}, got {self.name!r}", at="name")


def vacant_roles(roster: dict[AgentId, Agent], roles: tuple[RoleSpec, ...]) -> list[RoleSpec]:
    """A role is vacant iff no roster agent holds it. Every roster agent,
    Active or Probationary, fills its role. The engine takes the vacancies
    before it judges probation, so an agent that fails probation leaves
    its role open until the next cycle, unless evaluation already released
    it (at ``sustain_window`` 1)."""
    filled = {agent.spec.role for agent in roster.values()}
    return [role for role in roles if role.name not in filled]


def _release(
    agent: Agent,
    roster: dict[AgentId, Agent],
    pool: list[Agent],
    kind: EventKind,
    cycle: int,
    detail: str,
    events: list[RosterEvent],
) -> None:
    agent.status = AgentStatus.RELEASED
    agent.consecutive_below = 0
    del roster[agent.id]
    pool.append(agent)
    events.append(RosterEvent.of(cycle, kind, agent, detail))


def evaluate_and_release(
    roster: dict[AgentId, Agent],
    pool: list[Agent],
    rows: dict[AgentId, MetricsRow],
    cfg: LifecycleConfig,
    cycle: int,
    events: list[RosterEvent],
) -> None:
    """Evaluate every roster agent, Probationary ones included, and move
    sustained underperformers to the pool.

    Each agent is judged on its metrics.csv row of the cycle in ``rows``,
    which is the evaluation's record: its performance becomes the row's F1.
    A cycle counts as "below" when the F1 drops under the release
    threshold, or when the row's reward drops under the optional reward
    threshold.
    """
    for agent_id in sorted(roster):
        agent, row = roster[agent_id], rows[agent_id]
        agent.performance = row.f1
        below = row.f1 < cfg.release_threshold or (
            cfg.reward_threshold is not None and row.reward < cfg.reward_threshold
        )

        agent.consecutive_below = agent.consecutive_below + 1 if below else 0

        if agent.consecutive_below >= cfg.sustain_window:
            _release(
                agent, roster, pool, EventKind.RELEASE, cycle,
                f"below threshold {cfg.release_threshold} for "
                f"{agent.consecutive_below} consecutive evaluations",
                events,
            )


def fill_vacant_roles(
    roster: dict[AgentId, Agent],
    pool: list[Agent],
    vacancies: list[RoleSpec],
    cfg: LifecycleConfig,
    cycle: int,
    events: list[RosterEvent],
) -> None:
    """Sign the best qualified pool agent into each vacancy.

    Qualification is a skills superset match plus room under the service
    cap: an agent whose service time after signing would already be at
    the cap would be freed again this cycle, so it is passed over.
    Selection is by highest last-known performance with ties to the
    lowest id. An unfillable vacancy is logged and left open.
    """

    def service_after_signing(agent: Agent) -> int:
        return agent.service_time if cfg.keep_service_time_on_resign else 0

    for vacancy in vacancies:
        candidates = [
            i for i, a in enumerate(pool)
            if a.spec.skills >= vacancy.required_skills
            and service_after_signing(a) < cfg.max_service_time
        ]
        if not candidates:
            logger.warning(
                "cycle %d: vacancy %s unfilled, no pool candidate with skills %s "
                "below the service cap",
                cycle, vacancy.name, sorted(vacancy.required_skills),
            )
            continue
        best = pool.pop(min(candidates, key=lambda i: (-pool[i].performance, pool[i].id)))
        best.status = AgentStatus.PROBATIONARY
        best.consecutive_below = 0
        best.service_time = service_after_signing(best)
        roster[best.id] = best
        detail = f"signed for role {vacancy.name}"
        events.append(RosterEvent.of(cycle, EventKind.SIGN, best, detail))


def transition_probationary(
    roster: dict[AgentId, Agent],
    pool: list[Agent],
    cfg: LifecycleConfig,
    cycle: int,
    events: list[RosterEvent],
) -> None:
    """Promote or re-release every Probationary roster agent on its shadow window.

    Each such agent first has its gate reset to uniform (the moe init of
    the first transition pass), then either becomes a full Active member
    or returns to the pool, on the performance that
    ``evaluate_and_release`` measured on its shadow window this cycle.
    The engine runs this before it signs, so every agent judged here was
    on probation through the cycle's batch.
    """
    for agent_id in sorted(roster):
        agent = roster[agent_id]
        if agent.status is not AgentStatus.PROBATIONARY:
            continue
        agent.gate_weights = uniform_gate(len(agent.spec.experts))
        if agent.performance >= cfg.release_threshold:
            agent.status = AgentStatus.ACTIVE
            agent.consecutive_below = 0
            detail = f"shadow performance {agent.performance:.4f} >= {cfg.release_threshold}"
            events.append(RosterEvent.of(cycle, EventKind.PROMOTE, agent, detail))
        else:
            _release(
                agent, roster, pool, EventKind.RELEASE, cycle,
                f"failed probation at {agent.performance:.4f} < {cfg.release_threshold}",
                events,
            )


def increment_service_time(roster: dict[AgentId, Agent]) -> None:
    """End-of-cycle tick: every roster agent (Active or Probationary)
    gains exactly one cycle of service; pool agents are untouched. The
    tick is no event: a member's metrics.csv row records its service time."""
    for agent in roster.values():
        agent.service_time += 1


def enforce_service_cap(
    roster: dict[AgentId, Agent],
    pool: list[Agent],
    cfg: LifecycleConfig,
    cycle: int,
    events: list[RosterEvent],
) -> None:
    """Post-tick sweep so no roster agent ever ends a cycle at or past
    the service cap; anyone who just reached it becomes a free agent."""
    for agent_id in sorted(roster):
        agent = roster[agent_id]
        if agent.service_time >= cfg.max_service_time:
            _release(
                agent, roster, pool, EventKind.FREE_AGENCY, cycle,
                f"service_time {agent.service_time} reached cap {cfg.max_service_time}",
                events,
            )
