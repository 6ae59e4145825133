"""Sample-at-a-time reference for the batch path in ``freeagent``.

The engine generates, redacts, routes, scores and counts one cycle as
columns (``simulator.generate_cycle``, ``pipeline.CyclePipeline``) and
applies a batch of gate steps at once (``moe.rl_update``). This module
does the same work one sample at a time with plain Python floats, in the
order the stream and dispatch contracts state, so tests can require the
batch path to match it bit for bit. Its gate and gate step are its own,
over plain weights; it uses neither ``pipeline.decide`` nor
``moe.rl_update``. Its keyed streams are its own too: each sample and
each agent's handoff stream is a fresh ``Generator(Philox(key=...))``
whose key it derives with ``hashlib`` as the stream contract documents,
so a change to the engine's key derivation or generator reset fails
against it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from freeagent.domain import FRAUD_ROLE, SENSITIVE_START, AccessTier, Agent, AgentId, AgentStatus
from freeagent.metrics import PerformanceLog
from freeagent.moe import Expert
from freeagent.pipeline import Action, DetectionRecord
from freeagent.simulator import _MODALITY_JITTER, FEATURE_DIM, MODALITY_DIM, StreamConfig


@dataclass(frozen=True, slots=True)
class DataSample:
    seq: int
    features: tuple[float, ...]
    modality: tuple[float, ...]
    label: bool
    pattern: int  # index into the cycle's mixture


def philox_generator(key: int) -> np.random.Generator:
    """A fresh Philox4x64 generator with a zero counter and the 128-bit ``key``."""
    return np.random.Generator(np.random.Philox(key=key))


def keyed_generator(kind: str, seed: int, cycle: int, index: int) -> np.random.Generator:
    """The generator keyed by ``blake2b("<kind>|<seed>|<cycle>|<index>",
    digest_size=16)``; the key's first 8 digest bytes are its low word, read
    little-endian."""
    digest = hashlib.blake2b(f"{kind}|{seed}|{cycle}|{index}".encode(), digest_size=16).digest()
    return philox_generator(int.from_bytes(digest, "little"))


def generate_sample(cfg: StreamConfig, cycle: int, seq: int) -> DataSample:
    """The sample at (cycle, seq), drawn from its own keyed substream."""
    gen = keyed_generator("sample", cfg.seed, cycle, seq)
    # the last segment started by ``cycle``; its mixture in pattern-list order
    weights = [seg for seg in cfg.schedule if seg.start_cycle <= cycle][-1].mixture
    mixture = [(spec, weights[spec.name]) for spec in cfg.patterns if spec.name in weights]

    u_pattern = gen.random()
    pattern = len(mixture) - 1
    acc = 0.0
    for k, (_, weight) in enumerate(mixture):
        acc += weight
        if u_pattern < acc:
            pattern = k
            break
    spec = mixture[pattern][0]

    label = bool(gen.random() < spec.fraud_rate)
    features = gen.standard_normal(FEATURE_DIM).tolist()
    if label:
        for coord, shift in spec.fraud_shift.items():
            features[coord] += shift

    jitter = gen.random(MODALITY_DIM).tolist()
    modality = [
        base * (1.0 + _MODALITY_JITTER * (2.0 * u - 1.0)) if base > 0 else 0.0
        for base, u in zip(spec.modality_base, jitter)
    ]
    total = _add_left(modality)
    return DataSample(
        seq=cycle * cfg.samples_per_cycle + seq,
        features=tuple(features),
        modality=tuple(m / total for m in modality),
        label=label,
        pattern=pattern,
    )


def quantize_coarse(value: float) -> float:
    return math.copysign(math.floor(abs(value) * 10.0 + 0.5), value) / 10.0


def redact(features: tuple[float, ...], tier: AccessTier) -> tuple[float, ...]:
    if tier is AccessTier.FULL:
        return features
    visible = list(features[:SENSITIVE_START])
    if tier is AccessTier.SANDBOX:
        visible = [quantize_coarse(v) for v in visible]
    return tuple(visible) + (0.0,) * (len(features) - SENSITIVE_START)


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


def rl_update(
    gate_weights: tuple[float, ...], learning_rate: float, expert_used: int, reward: float
) -> tuple[float, ...]:
    """One multiplicative-weights step; returns the new gate weights."""
    weights = list(gate_weights)
    weights[expert_used] *= math.exp(learning_rate * reward)
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
        self.rewards: dict[AgentId, list[tuple[int, float]]] = {}
        self.detections: list[DetectionRecord] = []
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
        if agent.spec.handoff_reliability >= 1.0:
            ok = True
        else:
            if agent.id not in self._rngs:
                self._rngs[agent.id] = keyed_generator("handoff", self._seed, self._cycle, agent.id)
            ok = bool(self._rngs[agent.id].random() < agent.spec.handoff_reliability)
        win.handoffs_succeeded += ok
        return ok

    def _decide(self, agent: Agent, sample: DataSample, shadow: bool) -> None:
        tier = agent.access_tier
        if agent.spec.misbehaving and tier is not AccessTier.FULL:
            self.log.window(agent.id).violations += 1
        features = redact(sample.features, tier)
        idx = gate(agent.spec.experts, agent.gate_weights, sample.modality)
        score, verdict = expert_score(agent.spec.experts[idx], features)
        update_fraud_metrics(self.log, agent.id, verdict, sample.label)
        self.rewards.setdefault(agent.id, []).append(
            (idx, 1.0 if verdict == sample.label else -1.0)
        )
        self.detections.append(DetectionRecord(
            seq=sample.seq, agent=agent.id, verdict=verdict, score=score, shadow=shadow,
            action=Action.BLOCK if verdict and not shadow else Action.NONE,
        ))

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
