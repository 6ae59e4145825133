"""Batch dispatch: pick the best active detector, run probationary agents
in shadow on the visible features, and act on fraud verdicts.

Shadow decisions never trigger actions, and shadow agents are only ever
given the Restricted view, the first ``SENSITIVE_START`` feature rows;
both properties are auditable from the detection log. Actions are
recorded, not executed.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .domain import SENSITIVE_START, Agent, AgentId, AgentStatus
from .metrics import AgentWindow, PerformanceLog
from .moe import Expert
from .simulator import SampleBatch, keyed_generator

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

    The affinity product broadcasts the profiles along the samples, a zero
    stride on its inner axis, which numpy 2.4.6 runs on a slow path (about
    1 ns per element against 0.23) while the output holds at most 4 ufunc
    buffers; ``CyclePipeline.run_batch`` calls this under a buffer of
    ``DECIDE_BUFSIZE`` elements, which keeps its blocks out of that window.
    The buffer size changes how numpy chunks a loop, not the order of any
    sum, so the bits are the same under any size.
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
# numpy's ufunc buffer, in elements, while a cycle decides: small enough to
# take decide's affinity product off numpy's slow broadcast path (see
# decide). At the default 8192 that path holds the product of any block of
# up to 2,730 columns at 12 experts; under this buffer the (3, 12, 1024)
# product took 8.1 instead of 28.3 us (timeit minima, 2-core Xeon VM). 512
# and 1024 did no better end to end. Set inside the dispatch's
# ``np.errstate``, whose exit restores it (numpy 2.0 on).
DECIDE_BUFSIZE = 2**11


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

    def _handoffs(self, agent: Agent, offered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``offered`` rows whose dispatch to ``agent`` succeeds, and
        which of them did, in dispatch order.

        Each dispatch takes the next uniform of the agent's keyed stream,
        which starts fresh because an agent is reached at most once per
        batch.
        """
        win = self.log.windows[agent.id]
        gen = keyed_generator("handoff", self._seed, self.cycle, agent.id)
        ok = gen.random(len(offered)) < agent.spec.handoff_reliability
        taken = offered.compress(ok)
        win.handoffs_attempted += len(offered)
        win.handoffs_succeeded += len(taken)
        return taken, ok

    def _decide_group(
        self, batch: SampleBatch, members: list[tuple[Agent, np.ndarray]], shadow: bool
    ) -> list[tuple[np.ndarray, ...]]:
        """Route, score and tally the rows of agents that share one expert
        set and one view, side by side, one ``decide`` call per block of
        ``BLOCK_COLUMNS`` columns; each agent's gate scales only its own
        columns. Each block is tallied by one ``bincount`` over the codes
        ``4*(E*slot + expert) + 2*verdict + label``, ``slot`` the agent's
        place in the group: an agent's bins, summed over its experts, are
        its confusion counts, and an expert's ``(tn + tp) - (fn + fp)`` is
        its net reward. Returns the agents' detection chunks when
        detections are rendered, else none.
        """
        matrices = members[0][0].spec.matrices
        n_bins = 4 * len(matrices.thresholds)  # one agent's: 4 per expert
        # A group of one, the usual case, needs no slots: its one gate and
        # unshifted codes keep it to the fewest numpy calls.
        if len(members) == 1:
            [(agent, rows)] = members
            gate = agent.gate_weights
        else:
            rows = np.concatenate([r for _, r in members])
            edges = [0, *accumulate(len(r) for _, r in members)]
            gates = np.array([agent.gate_weights for agent, _ in members]).T
            shifts = np.arange(0, n_bins * len(members), n_bins)
        # A shadow is given a fresh array of the visible feature rows
        # alone; a slice of a full-height ``take`` would hold the
        # sensitive ones in its ``.base``.
        features = batch.features[:SENSITIVE_START] if shadow else batch.features
        tallies, decisions = [], []
        for lo in range(0, len(rows), BLOCK_COLUMNS):
            hi = lo + BLOCK_COLUMNS
            block = rows[lo:hi]
            if len(members) > 1:
                # Each agent's gate and code shift, once per column of its
                # own in this block. Built per block, not once per group: a
                # group-wide (E, n) gate left enough freed memory at the
                # heap's top for glibc to hand it back to the system each
                # cycle, and fault it in again.
                ends = [min(max(edge, lo), hi) for edge in edges]
                columns = [b - a for a, b in zip(ends, ends[1:])]
                gate = gates.repeat(columns, axis=1)
            expert, score, verdict = decide(matrices, gate, features.take(block, axis=1),
                                            batch.modality.take(block, axis=1))
            code = expert * 4
            code += 2 * verdict + batch.label.take(block)  # tn, fn, fp, tp
            if len(members) > 1:
                code += shifts.repeat(columns)
            tallies.append(np.bincount(code, minlength=n_bins * len(members)))
            if self._emit:
                decisions.append((verdict, score))

        # per agent, per expert: its (tn, fn, fp, tp)
        tally = sum(tallies[1:], tallies[0]).reshape(len(members), -1, 4).tolist()
        for (agent, rows), outcomes in zip(members, tally):
            tn, fn, fp, tp = map(sum, zip(*outcomes))
            win = self.log.windows[agent.id]
            win.true_positives += tp
            win.false_positives += fp
            win.false_negatives += fn
            win.true_negatives += tn
            # (tn + tp) - (fn + fp) per expert. An integer's float: a net of
            # 0 reads +0.0, as a sum of +1.0 and -1.0 from 0.0 does.
            win.net = [float((a + d) - (b + c)) for a, b, c, d in outcomes]
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
        if isinstance(batch, int) and self.roster:
            raise TypeError("only an empty roster may be given a batch's size "
                            "instead of its samples")
        n = batch if isinstance(batch, int) else len(batch)
        # Dispatch down the performance ranking, one fall-through level at
        # a time, until every handoff succeeded or the ranking ran out;
        # then each shadow is offered every sample. Agents whose experts are
        # bit-identical and who decide on the same view make one group.
        groups: dict[tuple[bytes, bool], list[tuple[Agent, np.ndarray]]] = {}
        everyone = pending = np.arange(n)
        for agent in self._active:
            rows, ok = self._handoffs(agent, pending)
            if len(rows):
                groups.setdefault((agent.spec.expert_key, False), []).append((agent, rows))
            if len(rows) == len(pending) or agent is self._active[-1]:
                break  # nothing falls through, or nobody is left to take it
            pending = pending.compress(~ok)
        for agent in self._shadows:
            if len(rows := self._handoffs(agent, everyone)[0]):
                groups.setdefault((agent.spec.expert_key, True), []).append((agent, rows))
        if not self._active:
            self.stalled_samples += n

        # Weights that validate accepts can overflow a score; the non-finite
        # score is the documented output, so numpy is not to warn about it.
        # The errstate's exit also restores numpy's buffer size.
        chunks: list[tuple[np.ndarray, ...]] = []
        if groups:
            with np.errstate(over="ignore", invalid="ignore"):
                np.setbufsize(DECIDE_BUFSIZE)
                for (_, shadow), members in groups.items():
                    chunks += self._decide_group(batch, members, shadow)
        if chunks:  # empty unless detections are rendered
            self.detections.extend(_detection_lines(batch.seq0, chunks))
