"""Batch dispatch: pick the best active detector, run probationary agents
in shadow, enforce tiered redaction, and act on fraud verdicts.

Shadow decisions never trigger actions and shadow agents only ever see
Restricted-tier data; both properties are auditable from the detection
log. Actions are recorded, not executed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .domain import FRAUD_ROLE, SENSITIVE_START, AccessTier, Agent, AgentId, AgentStatus
from .metrics import PerformanceLog
from .moe import Expert
from .simulator import KeyedRng, SampleBatch

logger = logging.getLogger("freeagent.pipeline")


class Action:
    BLOCK = "Block"
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


def quantize_coarse(values: np.ndarray) -> np.ndarray:
    """Round to 1 decimal, halves away from zero (the sandbox obfuscation)."""
    return np.copysign(np.floor(np.abs(values) * 10.0 + 0.5), values) / 10.0


def redact(features: np.ndarray, tier: AccessTier) -> np.ndarray:
    """Feature rows as an agent at ``tier`` sees them.

    Full sees everything; Restricted loses the sensitive suffix; Sandbox
    additionally sees only coarsened values of the remaining features.
    """
    if tier is AccessTier.FULL:
        return features
    visible = features[:, :SENSITIVE_START]
    out = np.zeros_like(features)
    out[:, :SENSITIVE_START] = quantize_coarse(visible) if tier is AccessTier.SANDBOX else visible
    return out


def _dot_columns(rows: np.ndarray, weights: tuple[float, ...]) -> np.ndarray:
    """Row-wise dot product, accumulated one column at a time from 0.0.

    This is the sequential sum a scalar dot product takes, so every row's
    result is bit-identical to it (``rows @ weights`` is not). Starting
    from 0.0 also turns a leading -0.0 product into +0.0, as ``sum()`` does.
    """
    acc = 0.0
    for j, w in enumerate(weights):
        acc = acc + rows[:, j] * w
    return acc


def decide(
    experts: tuple[Expert, ...],
    gate_weights: tuple[float, ...],
    features: np.ndarray,
    modality: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route each row through the gate and score it with the chosen expert.

    Returns the expert index, score and verdict (fraud iff score >=
    threshold) per row. The gate picks the expert maximizing
    gate_weight * dot(profile, modality), ties to the lowest index. Takes
    bare feature/modality rows so a decision cannot depend on anything
    else in the sample. Pure: no state is touched.
    """
    affinity = np.column_stack(
        [w * _dot_columns(modality, e.profile) for w, e in zip(gate_weights, experts)]
    )
    chosen = affinity.argmax(axis=1)  # first maximum
    scores = np.column_stack([_dot_columns(features, e.weights) for e in experts])
    score = np.take_along_axis(scores, chosen[:, None], axis=1)[:, 0]
    thresholds = np.array([e.threshold for e in experts])
    return chosen, score, score >= thresholds[chosen]


class CyclePipeline:
    """Processes one cycle's batch against a fixed roster snapshot.

    The assigned agent is the best Active detector (highest performance,
    ties to the lowest id); Probationary agents decide in shadow. Handoff
    success is drawn per dispatch from a Philox stream keyed on (seed,
    cycle, agent), so outcomes are reproducible and independent of
    processing order. A failed handoff counts as attempted and skips the
    sample for that agent only; the dispatcher then falls through to the
    next-best active agent. Detection rows are built only when
    ``emit_detections`` is set.
    """

    def __init__(
        self,
        roster: dict[AgentId, Agent],
        log: PerformanceLog,
        seed: int,
        cycle: int,
        emit_detections: bool = False,
    ) -> None:
        self.roster = roster
        self.log = log
        self.cycle = cycle
        # Per agent: the experts used and the +1/-1 reward signals, in seq order.
        self.rewards: dict[AgentId, tuple[list[int], list[float]]] = {}
        self.detections: list[DetectionRecord] = []
        self.stalled_samples = 0
        self._seed = seed
        self._emit = emit_detections
        self._rng = KeyedRng()
        # Membership and status are fixed for the duration of the batch;
        # performance only changes at evaluation time, so the dispatch
        # order and each agent's tier are too.
        fraud = [a for a in roster.values() if a.spec.role == FRAUD_ROLE]
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

    def _handoffs(self, agent: Agent, k: int) -> np.ndarray:
        """Which of ``k`` dispatches to ``agent`` succeed, in dispatch order.

        Each dispatch takes the next uniform of the agent's keyed stream,
        which starts fresh because an agent is reached at most once per
        batch; a fully reliable agent draws nothing.
        """
        win = self.log.window(agent.id)
        if agent.spec.handoff_reliability >= 1.0:
            ok = np.ones(k, dtype=bool)
        else:
            gen = self._rng.reset("handoff", self._seed, self.cycle, agent.id)
            ok = gen.random(k) < agent.spec.handoff_reliability
        win.handoffs_attempted += k
        win.handoffs_succeeded += int(np.count_nonzero(ok))
        return ok

    def run_batch(self, batch: SampleBatch) -> None:
        n = len(batch)
        views: dict[AccessTier, np.ndarray] = {}
        records = []  # (row, slot, record); slot 0 is the assigned agent, then shadows by id

        def run(agent: Agent, tier: AccessTier, rows: np.ndarray, slot: int) -> None:
            if not len(rows):
                return
            if tier not in views:
                views[tier] = redact(batch.features, tier)
            expert, score, verdict = decide(agent.spec.experts, agent.gate_weights,
                                            views[tier][rows], batch.modality[rows])
            label = batch.label[rows]
            win = self.log.window(agent.id)
            win.true_positives += int(np.count_nonzero(verdict & label))
            win.false_positives += int(np.count_nonzero(verdict & ~label))
            win.false_negatives += int(np.count_nonzero(~verdict & label))
            win.true_negatives += int(np.count_nonzero(~verdict & ~label))
            if agent.spec.misbehaving and tier is not AccessTier.FULL:
                # Audit hook: the agent tried to read the raw samples. Each
                # attempt is blocked and tallied; the decisions still run
                # on redacted data.
                win.violations += len(rows)
            self.rewards[agent.id] = (
                expert.tolist(), np.where(verdict == label, 1.0, -1.0).tolist()
            )
            if self._emit:
                shadow = slot > 0
                records.extend(
                    (i, slot, DetectionRecord(batch.seq0 + i, agent.id, v, s, shadow,
                                              Action.BLOCK if v and not shadow else Action.NONE))
                    for i, s, v in zip(rows.tolist(), score.tolist(), verdict.tolist())
                )

        # Dispatch down the performance ranking, one fall-through level at
        # a time, until every handoff succeeded or the ranking ran out.
        pending = np.arange(n)
        for agent, tier in self._active:
            if not len(pending):
                break
            ok = self._handoffs(agent, len(pending))
            run(agent, tier, pending[ok], 0)
            pending = pending[~ok]
        if not self._active:
            self.stalled_samples += n

        for slot, (agent, tier) in enumerate(self._shadows, start=1):
            run(agent, tier, np.flatnonzero(self._handoffs(agent, n)), slot)

        records.sort(key=lambda r: r[:2])
        self.detections.extend(r[2] for r in records)
        if self.stalled_samples:
            logger.warning(
                "cycle %d: no active %s agent; %d samples undecided (vacancy pending)",
                self.cycle,
                FRAUD_ROLE,
                self.stalled_samples,
            )
