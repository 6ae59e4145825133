"""Seeded synthetic transaction stream with scheduled concept drift.

Stream determinism contract
---------------------------
Each cycle draws from one keyed stream: a fresh numpy ``Generator`` over a
Philox4x64 bit generator with a zero counter, whose 128-bit key is
``blake2b("sample|<seed>|<cycle>", digest_size=16)`` read little-endian
(the key/counter split of Salmon et al., SC'11). For a cycle of ``n``
samples it draws, in this order, ``random((n, 2))`` (per sample, one
uniform for the pattern mixture and one for the fraud label),
``standard_normal((n, FEATURE_DIM))`` for feature noise and
``random((n, MODALITY_DIM))`` for modality jitter. A fill yields what the
same number of scalar calls would, in row-major order. The pattern is the
first of the running segment's mixture, taken in the order of the stream's
pattern list, whose running weight exceeds the first uniform.

Any cycle is therefore reproducible without generating anything before
it, which is what resuming from a snapshot needs; a single sample is not
drawn without the rest of its cycle, and its values depend on
``samples_per_cycle``. Every draw is numpy's own, so the bytes are fixed by
numpy's stream compatibility policy (NEP 19), which holds only for a fixed
numpy version: pin your numpy (pyproject.toml only sets a floor); the bytes
were checked on numpy 2.4.6.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .domain import FEATURE_DIM, MODALITY_DIM, ConfigError

# Relative jitter applied to non-zero modality base entries. Zero entries
# stay exactly zero so experts for unrelated modalities never compete.
_MODALITY_JITTER = 0.1

# A cycle's batch is built in memory at once, so its size is capped well
# below what numpy refuses to allocate: one dispatch-workload cycle at the
# cap took 2.6-2.8 s and peaked at 240 MB on a 2-core Xeon VM (numpy 2.4.6).
MAX_SAMPLES_PER_CYCLE = 2**20


def keyed_generator(*parts: object) -> np.random.Generator:
    """A fresh ``Generator(Philox(key))``, the key being ``blake2b("<part>|<part>|...",
    digest_size=16)`` read little-endian."""
    digest = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


@dataclass(frozen=True)
class PatternSpec:
    """One generator pattern: which coordinates fraud shifts, and how far.

    Legitimate samples are standard normal on every feature coordinate;
    fraud samples add ``fraud_shift[coord]`` on the designated ones.
    """

    name: str
    fraud_rate: float
    fraud_shift: dict[int, float]
    modality_base: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.fraud_rate < 1.0:
            raise ConfigError(f"pattern {self.name}: fraud_rate must be in (0, 1)")
        if len(self.modality_base) != MODALITY_DIM:
            raise ConfigError(f"pattern {self.name}: modality_base must have {MODALITY_DIM} entries")
        if any(m < 0 for m in self.modality_base) or not sum(self.modality_base) > 0:
            raise ConfigError(f"pattern {self.name}: modality_base must be non-negative, sum > 0")
        for coord in self.fraud_shift:
            if not 0 <= coord < FEATURE_DIM:
                raise ConfigError(f"pattern {self.name}: shift coordinate {coord} out of range")


@dataclass(frozen=True)
class Segment:
    """From ``start_cycle`` on, each sample's pattern is drawn from
    ``mixture``, a pattern name -> weight map."""

    start_cycle: int
    mixture: dict[str, float]


@dataclass(frozen=True)
class StreamConfig:
    """The stream: its seed and sizes, the patterns, and the drift schedule
    of pattern mixtures. Errors name the key they are at."""

    seed: int
    samples_per_cycle: int
    total_cycles: int
    patterns: tuple[PatternSpec, ...]
    schedule: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.samples_per_cycle <= MAX_SAMPLES_PER_CYCLE:
            raise ConfigError(f"samples_per_cycle must be in [1, {MAX_SAMPLES_PER_CYCLE}]")
        if self.total_cycles < 1:
            raise ConfigError("total_cycles must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        names = [p.name for p in self.patterns]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate pattern names", at="patterns")
        if not self.schedule:
            raise ConfigError("drift schedule needs at least one segment", at="schedule")
        if self.schedule[0].start_cycle != 0:
            raise ConfigError("first segment must start at cycle 0", at="schedule")
        starts = [seg.start_cycle for seg in self.schedule]
        if starts != sorted(set(starts)):
            raise ConfigError("segment starts must be strictly increasing", at="schedule")
        for i, seg in enumerate(self.schedule):
            at = f"schedule[{i}].mixture"
            if unknown := seg.mixture.keys() - set(names):
                raise ConfigError(f"unknown patterns {sorted(unknown)}", at=at)
            weights = [w for _, w in self._ordered(seg)]  # summed in pattern-list order
            if not weights or not all(w > 0 for w in weights):  # NaN fails too
                raise ConfigError("mixture weights must be positive", at=at)
            if abs(sum(weights) - 1.0) > 1e-9:
                raise ConfigError("mixture weights must sum to 1", at=at)

    def _ordered(self, seg: Segment) -> tuple[tuple[PatternSpec, float], ...]:
        return tuple((p, seg.mixture[p.name]) for p in self.patterns if p.name in seg.mixture)

    def mixture(self, cycle: int) -> tuple[tuple[PatternSpec, float], ...]:
        """The mixture of the segment running at ``cycle``, in pattern-list
        order, which keeps the draw of each sample's pattern deterministic."""
        return self._ordered(next(s for s in reversed(self.schedule) if s.start_cycle <= cycle))


@dataclass(frozen=True, slots=True)
class SampleBatch:
    """One cycle of the stream as columns, row i being sample ``seq0 + i``.

    ``label`` is the truth metrics and reward score against; ``pattern``
    (an index into the cycle's mixture) is read by the tests only. Agents
    see neither: the decision path takes features and modality alone.
    """

    seq0: int
    features: np.ndarray  # (n, FEATURE_DIM) float64
    modality: np.ndarray  # (n, MODALITY_DIM) float64
    label: np.ndarray  # (n,) bool
    pattern: np.ndarray  # (n,) int

    def __len__(self) -> int:
        return len(self.label)


def generate_cycle(cfg: StreamConfig, cycle: int) -> SampleBatch:
    """All samples of one cycle, in seq order.

    The draws are the cycle's keyed stream's, in the contract's order;
    everything after them is a column operation that applies the same IEEE
    operations, in the same order, as a sample-at-a-time loop would.
    """
    if not 0 <= cycle < cfg.total_cycles:
        raise ConfigError(f"cycle {cycle} outside [0, {cfg.total_cycles})")
    n = cfg.samples_per_cycle
    gen = keyed_generator("sample", cfg.seed, cycle)
    uniforms = gen.random((n, 2))
    features = gen.standard_normal((n, FEATURE_DIM))
    jitter = gen.random((n, MODALITY_DIM))

    # First mixture entry whose running weight exceeds the pattern uniform;
    # the last entry takes anything the rounded sum leaves uncovered.
    mixture = cfg.mixture(cycle)
    bounds = list(accumulate(weight for _, weight in mixture))
    pattern = np.minimum(np.searchsorted(bounds, uniforms[:, 0], side="right"), len(mixture) - 1)
    label = uniforms[:, 1] < np.array([spec.fraud_rate for spec, _ in mixture])[pattern]

    for k, (spec, _) in enumerate(mixture):
        shifted = label & (pattern == k)
        for coord, shift in spec.fraud_shift.items():
            features[shifted, coord] += shift

    base = np.array([spec.modality_base for spec, _ in mixture])[pattern]
    # Zero base entries stay exactly zero whatever the jitter.
    modality = np.where(base > 0, base * (1.0 + _MODALITY_JITTER * (2.0 * jitter - 1.0)), 0.0)
    total = 0.0 + modality[:, 0] + modality[:, 1] + modality[:, 2]
    return SampleBatch(
        seq0=cycle * n,
        features=features,
        modality=modality / total[:, None],
        label=label,
        pattern=pattern,
    )

