"""Batch dispatch: pick the best active detector, run probationary agents
in shadow on the visible features, and act on fraud verdicts.

Shadow decisions never trigger actions, and shadow agents are only ever
given the Restricted view, the first ``SENSITIVE_START`` feature rows;
both properties are auditable from the detection log. Actions are
recorded, not executed.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .domain import FRAUD_ROLE, SENSITIVE_START, Agent, AgentId, AgentStatus
from .metrics import AgentWindow, PerformanceLog
from .moe import Expert
from .simulator import SampleBatch, keyed_generator

logger = logging.getLogger("freeagent.pipeline")

_JSON_BOOL = ("false", "true")


def _detection_lines(seq0: int, chunks: list[tuple[np.ndarray, ...]]) -> list[str]:
    """One batch's ``detections.jsonl`` lines from its decision columns.

    Each chunk is one agent's ``(rows, agent, shadow, verdict, score)``, in
    any order. The lines are sorted by seq, then shadow flag, then agent:
    a sample's one assigned agent, then its shadows by id. The action is
    Block for an assigned fraud verdict, else None. ``json`` writes the
    scores, so a non-finite one reads ``NaN``, ``Infinity`` or
    ``-Infinity``.
    """
    columns = [np.concatenate(column) for column in zip(*chunks)]
    order = np.lexsort((columns[1], columns[2], columns[0]))  # row, shadow, agent
    rows, agent, shadow, verdict, score = (column[order].tolist() for column in columns)
    scores = json.dumps(score)[1:-1].split(", ")
    return [
        f'{{"seq":{seq0 + i},"agent":{a},"verdict":{_JSON_BOOL[v]},"score":{x},'
        f'"shadow":{_JSON_BOOL[s]},"action":"{"Block" if v and not s else "None"}"}}\n'
        for i, a, v, x, s in zip(rows, agent, verdict, scores, shadow)
    ]


class ExpertMatrices(NamedTuple):
    """An agent's experts as the arrays ``decide`` reads: expert e is column
    e of the C-contiguous ``profiles`` and ``weights`` and ``thresholds[e]``,
    each value as its ``Expert`` holds it."""

    profiles: np.ndarray  # (MODALITY_DIM, E)
    weights: np.ndarray  # (FEATURE_DIM, E)
    thresholds: np.ndarray  # (E,)


def expert_matrices(experts: Sequence[Expert]) -> ExpertMatrices:
    """The experts' matrices, read-only: a spec's are shared by every
    decision of its agents."""
    matrices = ExpertMatrices(np.array([e.profile for e in experts]).T.copy(),
                              np.array([e.weights for e in experts]).T.copy(),
                              np.array([e.threshold for e in experts]))
    for array in matrices:
        array.flags.writeable = False
    return matrices


def decide(
    experts: ExpertMatrices,
    gate_weights: Sequence[float] | np.ndarray,
    features: np.ndarray,
    modality: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route each sample through the gate and score it with the chosen expert.

    ``features`` and ``modality`` hold one C-contiguous row per coordinate
    and one column per sample. ``gate_weights`` holds one weight per
    expert: a sequence when one agent's gate routes every sample, or an
    ``(E, n)`` array, one gate per sample column, when agents that share
    these experts decide together. Returns the expert index, score and
    verdict (fraud iff score >= threshold) per sample. The gate picks the
    expert maximizing gate_weight * dot(profile, modality), ties to the
    lowest index. Takes bare feature/modality columns so a decision cannot
    depend on anything else in the sample. Fewer than ``FEATURE_DIM``
    feature rows, such as a shadow's Restricted view, are scored on those
    rows alone. Pure: no state is touched.

    Each dot product is one broadcast product, C-contiguous with the terms
    on its first axis, and one ``np.add.reduce`` over that axis from 0.0.
    numpy adds along an outer axis one row at a time, the order of a
    scalar sum, so every affinity, scaled by its gate weight, and every
    score has the bits of a scalar loop over the samples and experts.
    (A single column is summed as one run instead, pairwise from 8 terms
    on; ``FEATURE_DIM`` and ``MODALITY_DIM`` are below 8, where that is
    the same left-to-right loop.) Only the chosen experts' weights are
    gathered.
    """
    profiles, weights, thresholds = experts
    affinity = np.add.reduce(modality[:, None] * profiles[:, :, None], axis=0, initial=0.0)
    affinity *= np.asarray(gate_weights).reshape(len(thresholds), -1)
    chosen = affinity.argmax(axis=0)  # first maximum
    terms = weights[:len(features)].take(chosen, axis=1)
    terms *= features
    score = np.add.reduce(terms, axis=0, initial=0.0)
    return chosen, score, score >= thresholds.take(chosen)


# The most columns one ``decide`` call is given. A group decides its
# agents' rows side by side, up to every sample once per agent, so its
# temporaries are bounded per block, not per group: the affinity terms of
# 12 experts take 288 kB at this size.
BLOCK_COLUMNS = 2**10


class CyclePipeline:
    """Processes one cycle's batch against a fixed roster snapshot.

    The assigned agent is the best Active detector (highest performance,
    ties to the lowest id); Probationary agents decide in shadow. Handoff
    success is drawn per dispatch from a Philox stream keyed on (seed,
    cycle, agent), so outcomes are reproducible and independent of
    processing order. A failed handoff counts as attempted and skips the
    sample for that agent only; the dispatcher then falls through to the
    next-best active agent. Once every handoff is drawn, the agents whose
    experts are bit-identical and who decide on the same view are routed,
    scored and tallied together, one group at a time. Each roster agent's
    window in ``log`` starts at zero here. The ``detections.jsonl`` lines
    are rendered only when ``emit_detections`` is set.
    """

    def __init__(
        self,
        roster: dict[AgentId, Agent],
        seed: int,
        cycle: int,
        emit_detections: bool = False,
    ) -> None:
        self.roster = roster
        self.log = PerformanceLog({agent_id: AgentWindow() for agent_id in roster})
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
        win = self.log.windows[agent.id]
        gen = keyed_generator("handoff", self._seed, self.cycle, agent.id)
        ok = gen.random(k) < agent.spec.handoff_reliability
        win.handoffs_attempted += k
        win.handoffs_succeeded += int(np.count_nonzero(ok))
        return ok

    def _decide_group(
        self, batch: SampleBatch, members: list[tuple[Agent, np.ndarray]], shadow: bool
    ) -> list[tuple[np.ndarray, ...]]:
        """Route, score and tally the rows of agents that share one expert
        set and one view, side by side, one ``decide`` call per block of
        ``BLOCK_COLUMNS`` columns; each agent's gate scales only its own
        columns. Each agent's confusion counts and net rewards come from
        one ``bincount`` each, over codes offset by the agent's slot in the
        group. Returns the agents' detection chunks when detections are
        rendered, else none.
        """
        matrices = members[0][0].spec.matrices
        n_experts, width = len(matrices.thresholds), len(members)
        # A group of one, the usual case, needs no slots: its one gate and
        # unshifted codes keep it to fewer numpy calls than a slotted pass.
        if width == 1:
            [(agent, rows)] = members
            gate = agent.gate_weights
        else:
            rows = np.concatenate([r for _, r in members])
            slot = np.repeat(np.arange(width), [len(r) for _, r in members])
            gates = np.array([agent.gate_weights for agent, _ in members]).T
        # A shadow is given a fresh array of the visible feature rows
        # alone; a slice of a full-height ``take`` would hold the
        # sensitive ones in its ``.base``.
        features = batch.features[:SENSITIVE_START] if shadow else batch.features
        confusion, nets, decisions = [], [], []
        for lo in range(0, len(rows), BLOCK_COLUMNS):
            block = rows[lo:lo + BLOCK_COLUMNS]
            if width > 1:
                block_slot = slot[lo:lo + BLOCK_COLUMNS]
                gate = gates.take(block_slot, axis=1)
            expert, score, verdict = decide(matrices, gate, features.take(block, axis=1),
                                            batch.modality.take(block, axis=1))
            label = batch.label.take(block)
            outcome = 2 * verdict + label  # tn, fn, fp, tp
            if width > 1:
                outcome += 4 * block_slot
                expert += n_experts * block_slot
            confusion.append(np.bincount(outcome, minlength=4 * width))
            # Sums of +1 and -1 are exact in float64, in any order.
            nets.append(np.bincount(expert, weights=np.where(verdict == label, 1.0, -1.0),
                                    minlength=n_experts * width))
            if self._emit:
                decisions.append((verdict, score))

        confusion = sum(confusion[1:], confusion[0]).reshape(width, 4).tolist()
        nets = sum(nets[1:], nets[0]).reshape(width, n_experts).tolist()
        for (agent, rows), (tn, fn, fp, tp), net in zip(members, confusion, nets):
            win = self.log.windows[agent.id]
            win.true_positives += tp
            win.false_positives += fp
            win.false_negatives += fn
            win.true_negatives += tn
            win.net = net
            if agent.spec.misbehaving and shadow:
                # Audit hook: the agent tried to read the raw samples. Each
                # attempt is blocked and tallied; the decisions still run
                # on the visible columns.
                win.violations += len(rows)
        if not decisions:
            return []
        verdict, score = (np.concatenate(column) for column in zip(*decisions))
        chunks, lo = [], 0
        for agent, rows in members:
            hi = lo + len(rows)
            chunks.append((rows, np.full(len(rows), agent.id), np.full(len(rows), shadow),
                           verdict[lo:hi], score[lo:hi]))
            lo = hi
        return chunks

    def run_batch(self, batch: SampleBatch | int) -> None:
        """Dispatch every sample of ``batch``: Active agents decide on all
        its feature rows, shadows on the first ``SENSITIVE_START``. An
        empty roster may be given the batch's size alone: all stall."""
        n = batch if isinstance(batch, int) else len(batch)
        # Dispatch down the performance ranking, one fall-through level at
        # a time, until every handoff succeeded or the ranking ran out;
        # then each shadow is offered every sample. Agents whose experts are
        # bit-identical and who decide on the same view make one group.
        groups: dict[tuple[bytes, bool], list[tuple[Agent, np.ndarray]]] = {}
        pending = np.arange(n)
        for agent in self._active:
            if not len(pending):
                break
            ok = self._handoffs(agent, len(pending))
            if len(rows := pending[ok]):
                groups.setdefault((agent.spec.expert_key, False), []).append((agent, rows))
            pending = pending[~ok]
        for agent in self._shadows:
            if len(rows := np.flatnonzero(self._handoffs(agent, n))):
                groups.setdefault((agent.spec.expert_key, True), []).append((agent, rows))
        if not self._active:
            self.stalled_samples += n

        # Weights that validate accepts can overflow a score; the non-finite
        # score is the documented output, so numpy is not to warn about it.
        chunks: list[tuple[np.ndarray, ...]] = []
        with np.errstate(over="ignore", invalid="ignore"):
            for (_, shadow), members in groups.items():
                chunks += self._decide_group(batch, members, shadow)
        if chunks:  # empty unless detections are rendered
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
