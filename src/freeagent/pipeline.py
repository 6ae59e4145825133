"""Per-sample dispatch: pick the best active detector, run probationary
agents in shadow, enforce tiered redaction, and act on fraud verdicts.

Shadow decisions never trigger actions and shadow agents only ever see
Restricted-tier data; both properties are auditable from the detection
log. Actions are recorded, not executed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from .domain import (
    FRAUD_ROLE,
    SENSITIVE_START,
    AccessTier,
    Agent,
    AgentId,
    AgentStatus,
    DataSample,
    Decision,
)
from .metrics import PerformanceLog, update_fraud_metrics
from .moe import expert_score, gate
from .simulator import KeyedRng

logger = logging.getLogger("freeagent.pipeline")


class Action:
    BLOCK = "Block"
    ALERT = "Alert"
    NONE = "None"


@dataclass(frozen=True, slots=True)
class DetectionRecord:
    """One decision of one agent on one sample: the only per-sample outcome.

    ``action`` is Block for a fraud verdict of the assigned agent and None
    otherwise; shadow rows never carry an action.
    """

    seq: int
    agent: AgentId
    verdict: bool
    score: float
    shadow: bool
    action: str

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "agent": self.agent,
            "verdict": self.verdict,
            "score": self.score,
            "shadow": self.shadow,
            "action": self.action,
        }


def quantize_coarse(value: float) -> float:
    """Round to 1 decimal, halves away from zero (the sandbox obfuscation)."""
    return math.copysign(math.floor(abs(value) * 10.0 + 0.5), value) / 10.0


def redact(sample: DataSample, tier: AccessTier) -> DataSample:
    """Apply tiered visibility to a sample's features.

    Full sees everything; Restricted loses the sensitive suffix; Sandbox
    additionally sees only coarsened values of the remaining features.
    Labels and patterns ride along for bookkeeping but the decision path
    never reads them (see decide).
    """
    if tier is AccessTier.FULL:
        return sample
    visible = list(sample.features[:SENSITIVE_START])
    if tier is AccessTier.SANDBOX:
        visible = [quantize_coarse(v) for v in visible]
    features = tuple(visible) + (0.0,) * (len(sample.features) - SENSITIVE_START)
    return replace(sample, features=features)


def decide(agent: Agent, features: tuple[float, ...], modality: tuple[float, ...]) -> Decision:
    """Route through the agent's gate and score with the chosen expert.

    Takes bare feature/modality vectors so a decision cannot depend on
    anything else in the sample.
    """
    idx = gate(agent.moe, modality)
    score, verdict = expert_score(agent.moe.experts[idx], features)
    return Decision(verdict=verdict, score=score, expert_used=idx)


class CyclePipeline:
    """Processes one cycle's batch against a fixed roster snapshot.

    The assigned agent is the best Active detector (highest performance,
    ties to the lowest id); Probationary agents decide in shadow. Handoff
    success is drawn per dispatch from a Philox stream keyed on (seed,
    cycle, agent), so outcomes are reproducible and independent of
    processing order. A failed handoff counts as attempted and skips the
    sample for that agent only; the dispatcher then falls through to the
    next-best active agent.
    """

    def __init__(
        self,
        roster: dict[AgentId, Agent],
        log: PerformanceLog,
        seed: int,
        cycle: int,
        misbehaving: frozenset[AgentId] = frozenset(),
    ) -> None:
        self.roster = roster
        self.log = log
        self.cycle = cycle
        self.misbehaving = misbehaving
        self.rewards: dict[AgentId, list[tuple[int, float]]] = {}
        self.detections: list[DetectionRecord] = []
        self.stalled_samples = 0
        self._handoff_rngs: dict[AgentId, KeyedRng] = {}
        self._seed = seed
        # Membership and status are fixed for the duration of the batch;
        # performance only changes at evaluation time, so the dispatch
        # order and each agent's tier are too.
        fraud = [a for a in roster.values() if a.role == FRAUD_ROLE]
        self._active = [
            (a, a.access_tier)
            for a in sorted(fraud, key=lambda a: (-a.performance, a.id))
            if a.status is AgentStatus.ACTIVE
        ]
        self._shadows = [
            (a, a.access_tier)
            for a in sorted(fraud, key=lambda a: a.id)
            if a.status is AgentStatus.PROBATIONARY
        ]

    def _handoff_ok(self, agent: Agent) -> bool:
        if agent.handoff_reliability >= 1.0:
            self.log.record_handoff(agent.id, True)
            return True
        rng = self._handoff_rngs.get(agent.id)
        if rng is None:
            rng = KeyedRng()
            rng.reset("handoff", self._seed, self.cycle, agent.id)
            self._handoff_rngs[agent.id] = rng
        ok = bool(rng.generator.random() < agent.handoff_reliability)
        self.log.record_handoff(agent.id, ok)
        return ok

    def _decide(self, agent: Agent, tier: AccessTier, sample: DataSample, shadow: bool) -> None:
        if agent.id in self.misbehaving and tier is not AccessTier.FULL:
            # Audit hook: the agent tried to read the raw sample. The
            # attempt is blocked and tallied; the decision still runs on
            # redacted data.
            self.log.record_violation(agent.id)
        red = redact(sample, tier)
        decision = decide(agent, red.features, red.modality)
        update_fraud_metrics(self.log, agent, sample, decision)
        self.rewards.setdefault(agent.id, []).append(
            (decision.expert_used, 1.0 if decision.verdict == sample.label else -1.0)
        )
        self.detections.append(
            DetectionRecord(
                seq=sample.seq,
                agent=agent.id,
                verdict=decision.verdict,
                score=decision.score,
                shadow=shadow,
                action=Action.BLOCK if decision.verdict and not shadow else Action.NONE,
            )
        )

    def process_sample(self, sample: DataSample) -> None:
        # Dispatch down the performance ranking until a handoff succeeds.
        for agent, tier in self._active:
            if self._handoff_ok(agent):
                self._decide(agent, tier, sample, shadow=False)
                break
        if not self._active:
            self.stalled_samples += 1

        for agent, tier in self._shadows:
            if self._handoff_ok(agent):
                self._decide(agent, tier, sample, shadow=True)

    def run_batch(self, samples: list[DataSample]) -> None:
        for sample in samples:
            self.process_sample(sample)
        if self.stalled_samples:
            logger.warning(
                "cycle %d: no active %s agent; %d samples undecided (vacancy pending)",
                self.cycle,
                FRAUD_ROLE,
                self.stalled_samples,
            )
