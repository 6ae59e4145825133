"""Batch dispatch: pick the best active detector, run probationary agents
in shadow on the visible features, and act on fraud verdicts.

Shadow decisions never trigger actions, and shadow agents are only ever
given the Restricted view, the first ``SENSITIVE_START`` feature columns;
both properties are auditable from the detection log. Actions are
recorded, not executed.
"""

from __future__ import annotations

import json
import logging

import numpy as np

from .domain import FRAUD_ROLE, SENSITIVE_START, Agent, AgentId, AgentStatus
from .metrics import PerformanceLog
from .moe import Expert
from .simulator import SampleBatch, keyed_generator

logger = logging.getLogger("freeagent.pipeline")

_JSON_BOOL = ("false", "true")


def _detection_lines(seq0: int, chunks: list[tuple[np.ndarray, ...]]) -> list[str]:
    """One batch's ``detections.jsonl`` lines from its decision columns.

    Each chunk is one agent's ``(rows, agent, shadow, verdict, score)``.
    Active agents' chunks come first, their rows disjoint, then the shadows'
    by id, so a stable sort on the row orders the lines by seq, then the
    assigned agent, then the shadows by id. The action is Block for an
    assigned fraud verdict, else None. ``json`` writes the scores, so a
    non-finite one reads ``NaN``, ``Infinity`` or ``-Infinity``.
    """
    columns = [np.concatenate(column) for column in zip(*chunks)]
    order = columns[0].argsort(kind="stable")
    rows, agent, shadow, verdict, score = (column[order].tolist() for column in columns)
    scores = json.dumps(score)[1:-1].split(", ")
    return [
        f'{{"seq":{seq0 + i},"agent":{a},"verdict":{_JSON_BOOL[v]},"score":{x},'
        f'"shadow":{_JSON_BOOL[s]},"action":"{"Block" if v and not s else "None"}"}}\n'
        for i, a, v, x, s in zip(rows, agent, verdict, scores, shadow)
    ]


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
    else in the sample. Rows of fewer than ``FEATURE_DIM`` columns, such
    as a shadow's Restricted view, are scored on those columns alone.
    Pure: no state is touched.

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
    next-best active agent. The ``detections.jsonl`` lines are rendered
    only when ``emit_detections`` is set.
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
        self.detections: list[str] = []
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

    def run_batch(self, batch: SampleBatch | int) -> None:
        """Dispatch every sample of ``batch``: Active agents decide on all
        its feature columns, shadows on the first ``SENSITIVE_START``. An
        empty roster may be given the batch's size alone: all stall."""
        n = batch if isinstance(batch, int) else len(batch)
        chunks: list[tuple[np.ndarray, ...]] = []

        def run(agent: Agent, rows: np.ndarray, shadow: bool) -> None:
            if not len(rows):
                return
            features = batch.features[rows, :SENSITIVE_START] if shadow else batch.features[rows]
            expert, score, verdict = decide(agent.spec.experts, agent.gate_weights,
                                            features, batch.modality[rows])
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
                # on the visible columns.
                win.violations += len(rows)
            # Sums of +1 and -1 are exact in float64, in any order.
            win.net = np.bincount(
                expert, weights=np.where(verdict == label, 1.0, -1.0),
                minlength=len(agent.spec.experts),
            ).tolist()
            if self._emit:
                chunks.append((rows, np.full(len(rows), agent.id), np.full(len(rows), shadow),
                               verdict, score))

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

        if chunks:
            self.detections.extend(_detection_lines(batch.seq0, chunks))
        if self.stalled_samples:
            shadows = ", ".join(str(a.id) for a in self._shadows)
            logger.warning(
                "cycle %d: no active %s agent; %d samples undecided (%s)",
                self.cycle,
                FRAUD_ROLE,
                self.stalled_samples,
                f"Probationary agent {shadows} in shadow" if shadows else "vacancy pending",
            )
