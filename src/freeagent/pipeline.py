"""Batch dispatch: pick the best active detector, run probationary agents
in shadow on redacted features, and act on fraud verdicts.

Shadow decisions never trigger actions and shadow agents only ever see
the Restricted view (``redact``); both properties are auditable from the
detection log. Actions are recorded, not executed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .domain import FRAUD_ROLE, SENSITIVE_START, Agent, AgentId, AgentStatus
from .metrics import PerformanceLog
from .moe import Expert
from .simulator import SampleBatch, keyed_generator

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


def redact(features: np.ndarray) -> np.ndarray:
    """The Restricted view a Probationary shadow decides on: a copy of the
    feature rows with the sensitive suffix zeroed. Active agents decide on
    the rows themselves."""
    out = np.zeros_like(features)
    out[:, :SENSITIVE_START] = features[:, :SENSITIVE_START]
    return out


def _dot_columns(columns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Dot products along the first axis, accumulated one term at a time from 0.0.

    ``columns[j] * weights[j]`` holds the j-th product of every result
    element; the sum is the sequential one a scalar dot product takes, so
    each element is bit-identical to it (a matrix product is not).
    Starting from 0.0 also turns a leading -0.0 product into +0.0, as
    ``sum()`` does.
    """
    acc = 0.0
    for column, weight in zip(columns, weights):
        acc = acc + column * weight
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

    One pass covers every expert: the ``(n, E)`` affinities are summed
    one modality column at a time from 0.0 against the experts' profile
    matrix, then scaled by the gate weights. Only the chosen expert's
    weights are gathered, and each row's score is summed one feature
    column at a time from 0.0. Every element gets the same IEEE
    operations, in the same order, as in a scalar loop over the samples
    and experts, so the bits are the same.
    """
    profiles = np.array([e.profile for e in experts]).T  # (MODALITY_DIM, E)
    affinity = _dot_columns(modality.T[:, :, None], profiles) * np.array(gate_weights)
    chosen = affinity.argmax(axis=1)  # first maximum
    weights = np.array([e.weights for e in experts])[chosen]  # (n, FEATURE_DIM)
    score = _dot_columns(features.T, weights.T)
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
        # Membership and status are fixed for the duration of the batch;
        # performance only changes at evaluation time, so the dispatch
        # order is too.
        self._active = [
            a for a in sorted(roster.values(), key=lambda a: (-a.performance, a.id))
            if a.status is AgentStatus.ACTIVE
        ]
        self._shadows = [
            a for a in sorted(roster.values(), key=lambda a: a.id)
            if a.status is AgentStatus.PROBATIONARY
        ]

    def _handoffs(self, agent: Agent, k: int) -> np.ndarray:
        """Which of ``k`` dispatches to ``agent`` succeed, in dispatch order.

        Each dispatch takes the next uniform of the agent's keyed stream,
        which starts fresh because an agent is reached at most once per
        batch.
        """
        win = self.log.window(agent.id)
        gen = keyed_generator("handoff", self._seed, self.cycle, agent.id)
        ok = gen.random(k) < agent.spec.handoff_reliability
        win.handoffs_attempted += k
        win.handoffs_succeeded += int(np.count_nonzero(ok))
        return ok

    def run_batch(self, batch: SampleBatch) -> None:
        """Dispatch every sample of ``batch``: Active agents decide on its
        features, shadows on their Restricted view, built once per batch."""
        n = len(batch)
        restricted = redact(batch.features) if self._shadows else batch.features
        records: list[DetectionRecord] = []

        def run(agent: Agent, rows: np.ndarray, shadow: bool) -> None:
            if not len(rows):
                return
            features = restricted if shadow else batch.features
            expert, score, verdict = decide(agent.spec.experts, agent.gate_weights,
                                            features[rows], batch.modality[rows])
            label = batch.label[rows]
            win = self.log.window(agent.id)
            tn, fn, fp, tp = np.bincount(2 * verdict + label, minlength=4).tolist()
            win.true_positives += tp
            win.false_positives += fp
            win.false_negatives += fn
            win.true_negatives += tn
            if agent.spec.misbehaving and shadow:
                # Audit hook: the agent tried to read the raw samples. Each
                # attempt is blocked and tallied; the decisions still run
                # on redacted data.
                win.violations += len(rows)
            self.rewards[agent.id] = (
                expert.tolist(), np.where(verdict == label, 1.0, -1.0).tolist()
            )
            if self._emit:
                records.extend(
                    DetectionRecord(batch.seq0 + i, agent.id, v, s, shadow,
                                    Action.BLOCK if v and not shadow else Action.NONE)
                    for i, s, v in zip(rows.tolist(), score.tolist(), verdict.tolist())
                )

        # Dispatch down the performance ranking, one fall-through level at
        # a time, until every handoff succeeded or the ranking ran out.
        pending = np.arange(n)
        for agent in self._active:
            if not len(pending):
                break
            ok = self._handoffs(agent, len(pending))
            run(agent, pending[ok], False)
            pending = pending[~ok]
        if not self._active:
            self.stalled_samples += n

        for agent in self._shadows:
            run(agent, np.flatnonzero(self._handoffs(agent, n)), True)

        records.sort(key=lambda r: (r.seq, r.shadow, r.agent))
        self.detections.extend(records)
        if self.stalled_samples:
            logger.warning(
                "cycle %d: no active %s agent; %d samples undecided (vacancy pending)",
                self.cycle,
                FRAUD_ROLE,
                self.stalled_samples,
            )
