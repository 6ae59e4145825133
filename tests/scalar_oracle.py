"""Sample-at-a-time reference for the batch path in ``freeagent``.

The engine generates, routes, scores and counts one cycle as columns
(``simulator.generate_cycle``, ``pipeline.CyclePipeline``), giving a
shadow only the visible feature columns, renders its ``detections.jsonl``
lines from those columns, and updates each gate once from its experts' net
rewards (``moe.rl_update``). This module does the same work one sample at
a time with plain Python floats, in the order the stream and dispatch
contracts state: a shadow decides on a zero-filled copy of the row, each
decision's reward is added to its expert's net reward as it goes, and each
decision is kept as a record that ``json.dumps`` writes as its line. So
tests can require the batch path to match it bit for bit and byte for
byte. Its gate and gate update are its own, over plain weights; it uses
neither ``pipeline.decide`` nor ``moe.rl_update``. Its keyed streams are
its own too: each cycle's sample stream and each agent's handoff stream
is a fresh ``Generator(Philox(key=...))`` whose key it derives with
``hashlib`` as the stream contract documents, and it draws the sample
stream one scalar at a time, so a change to the engine's key derivation
or draw order fails against it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from freeagent.domain import FRAUD_ROLE, SENSITIVE_START, Agent, AgentId, AgentStatus
from freeagent.metrics import PerformanceLog
from freeagent.moe import Expert
from freeagent.simulator import (
    _MODALITY_JITTER, FEATURE_DIM, MODALITY_DIM, PatternSpec, StreamConfig,
)


@dataclass(frozen=True, slots=True)
class DataSample:
    seq: int
    features: tuple[float, ...]
    modality: tuple[float, ...]
    label: bool
    pattern: int  # index into the cycle's mixture


@dataclass(frozen=True, slots=True)
class Detection:
    """One decision of one agent on one sample."""

    seq: int
    agent: AgentId
    verdict: bool
    score: float
    shadow: bool

    def line(self) -> str:
        """Its ``detections.jsonl`` line: the assigned agent's fraud verdict
        is the only one that acts."""
        action = "Block" if self.verdict and not self.shadow else "None"
        return json.dumps({"seq": self.seq, "agent": self.agent, "verdict": self.verdict,
                           "score": self.score, "shadow": self.shadow, "action": action},
                          separators=(",", ":")) + "\n"


def keyed_generator(text: str) -> np.random.Generator:
    """A fresh Philox4x64 generator with a zero counter, keyed by
    ``blake2b(text, digest_size=16)``; the key's first 8 digest bytes are its
    low word, read little-endian."""
    digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


def mixture(cfg: StreamConfig, cycle: int) -> list[tuple[PatternSpec, float]]:
    """The mixture of the last segment started by ``cycle``, in pattern-list order."""
    weights = [seg for seg in cfg.schedule if seg.start_cycle <= cycle][-1].mixture
    return [(spec, weights[spec.name]) for spec in cfg.patterns if spec.name in weights]


def generate_cycle_samples(cfg: StreamConfig, cycle: int) -> list[DataSample]:
    """The samples of ``cycle``, in seq order, drawn one scalar at a time
    from the cycle's keyed stream: every sample's two uniforms (pattern,
    label), then every sample's FEATURE_DIM normals, then every sample's
    MODALITY_DIM jitter uniforms."""
    n = cfg.samples_per_cycle
    gen = keyed_generator(f"sample|{cfg.seed}|{cycle}")
    uniforms = [gen.random() for _ in range(2 * n)]
    normals = [gen.standard_normal() for _ in range(n * FEATURE_DIM)]
    jitters = [gen.random() for _ in range(n * MODALITY_DIM)]
    patterns = mixture(cfg, cycle)

    samples = []
    for seq in range(n):
        u_pattern, u_label = uniforms[2 * seq:2 * seq + 2]
        pattern = len(patterns) - 1
        acc = 0.0
        for k, (_, weight) in enumerate(patterns):
            acc += weight
            if u_pattern < acc:
                pattern = k
                break
        spec = patterns[pattern][0]

        label = bool(u_label < spec.fraud_rate)
        features = normals[seq * FEATURE_DIM:(seq + 1) * FEATURE_DIM]
        if label:
            for coord, shift in spec.fraud_shift.items():
                features[coord] += shift

        jitter = jitters[seq * MODALITY_DIM:(seq + 1) * MODALITY_DIM]
        modality = [
            base * (1.0 + _MODALITY_JITTER * (2.0 * u - 1.0)) if base > 0 else 0.0
            for base, u in zip(spec.modality_base, jitter)
        ]
        total = _add_left(modality)
        samples.append(DataSample(
            seq=cycle * n + seq,
            features=tuple(features),
            modality=tuple(m / total for m in modality),
            label=label,
            pattern=pattern,
        ))
    return samples


def redact(features: tuple[float, ...]) -> tuple[float, ...]:
    """The Restricted view a shadow decides on: the sensitive suffix zeroed."""
    return features[:SENSITIVE_START] + (0.0,) * (len(features) - SENSITIVE_START)


def _add_left(values) -> float:
    """``0.0 + v0 + v1 + ...``, added left to right, as ``sum()`` does up to Python 3.11."""
    # From 3.12 on, sum() of floats compensates its rounding (CPython gh-100425).
    total = 0.0
    for value in values:
        total += value
    return total


def _dot(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    return _add_left(x * y for x, y in zip(a, b))


def gate(
    experts: tuple[Expert, ...], gate_weights: tuple[float, ...], modality: tuple[float, ...]
) -> int:
    """Index maximizing gate_weight * dot(profile, modality), ties to the lowest."""
    best_idx = 0
    best_aff = -math.inf
    for idx, expert in enumerate(experts):
        aff = gate_weights[idx] * _dot(expert.profile, modality)
        if aff > best_aff:
            best_aff = aff
            best_idx = idx
    return best_idx


def expert_score(expert: Expert, features: tuple[float, ...]) -> tuple[float, bool]:
    score = _dot(expert.weights, features)
    return score, score >= expert.threshold


def net_rewards(n: int, steps) -> list[float]:
    """Each of ``n`` experts' net reward over ``(expert_used, reward)`` steps,
    added one step at a time."""
    net = [0.0] * n
    for expert_used, reward in steps:
        if not 0 <= expert_used < n:
            raise IndexError(f"expert {expert_used} out of range for {n} experts")
        net[expert_used] += reward
    return net


def rl_update(
    gate_weights: tuple[float, ...], learning_rate: float, net: list[float]
) -> tuple[float, ...]:
    """Gate contract 2 over plain floats: each weight scaled by
    ``exp(learning_rate * (R - m))``, ``m`` the largest net reward ``R`` of a
    positive weight, then divided by the total added left to right."""
    m = max(r for w, r in zip(gate_weights, net) if w > 0)
    weights = [w * math.exp(learning_rate * (r - m)) if w > 0 else w
               for w, r in zip(gate_weights, net)]
    total = _add_left(weights)
    return tuple(w / total for w in weights)


def update_fraud_metrics(log: PerformanceLog, agent_id: AgentId, verdict: bool, label: bool) -> None:
    win = log.window(agent_id)
    if verdict and label:
        win.true_positives += 1
    elif verdict:
        win.false_positives += 1
    elif label:
        win.false_negatives += 1
    else:
        win.true_negatives += 1


class ScalarPipeline:
    """Dispatch of one sample at a time, in seq order.

    Each sample goes down the Active ranking until a handoff succeeds;
    every Probationary agent then decides it in shadow after its own
    handoff draw. Each handoff draw is the next uniform of the agent's
    keyed stream for the cycle.
    """

    def __init__(self, roster: dict[AgentId, Agent], seed: int, cycle: int) -> None:
        self.log = PerformanceLog()
        self.rewards: dict[AgentId, list[float]] = {}  # per agent, each expert's net reward
        self.detections: list[Detection] = []
        self.stalled_samples = 0
        self._rngs: dict[AgentId, np.random.Generator] = {}
        self._seed, self._cycle = seed, cycle
        fraud = [a for a in roster.values() if a.spec.role == FRAUD_ROLE]
        ranked = sorted(fraud, key=lambda a: (-a.performance, a.id))
        self._active = [a for a in ranked if a.status is AgentStatus.ACTIVE]
        self._shadows = sorted(
            (a for a in fraud if a.status is AgentStatus.PROBATIONARY), key=lambda a: a.id
        )

    def _handoff_ok(self, agent: Agent) -> bool:
        win = self.log.window(agent.id)
        win.handoffs_attempted += 1
        if agent.id not in self._rngs:
            key = f"handoff|{self._seed}|{self._cycle}|{agent.id}"
            self._rngs[agent.id] = keyed_generator(key)
        ok = bool(self._rngs[agent.id].random() < agent.spec.handoff_reliability)
        win.handoffs_succeeded += ok
        return ok

    def _decide(self, agent: Agent, sample: DataSample, shadow: bool) -> None:
        if agent.spec.misbehaving and shadow:
            self.log.window(agent.id).violations += 1
        features = redact(sample.features) if shadow else sample.features
        idx = gate(agent.spec.experts, agent.gate_weights, sample.modality)
        score, verdict = expert_score(agent.spec.experts[idx], features)
        update_fraud_metrics(self.log, agent.id, verdict, sample.label)
        net = self.rewards.setdefault(agent.id, [0.0] * len(agent.spec.experts))
        net[idx] += 1.0 if verdict == sample.label else -1.0
        self.detections.append(Detection(sample.seq, agent.id, verdict, score, shadow))

    def process_sample(self, sample: DataSample) -> None:
        for agent in self._active:
            if self._handoff_ok(agent):
                self._decide(agent, sample, shadow=False)
                break
        if not self._active:
            self.stalled_samples += 1
        for agent in self._shadows:
            if self._handoff_ok(agent):
                self._decide(agent, sample, shadow=True)
