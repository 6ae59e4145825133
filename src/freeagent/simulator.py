"""Seeded synthetic transaction stream with scheduled concept drift, and
the closed-form design of the bundled scenario's patterns and experts.

Stream determinism contract
---------------------------
Every sample is generated from its own counter-based substream: a numpy
Philox4x64 bit generator whose 128-bit key is
``blake2b("sample|<seed>|<cycle>|<seq>", digest_size=16)`` with a zero
counter. Per sample the draw order is fixed: one uniform for the pattern
mixture, one uniform for the fraud label, FEATURE_DIM standard normals
for feature noise, MODALITY_DIM uniforms for modality jitter. The pattern
is the first of the running segment's mixture, taken in the order of the
stream's pattern list, whose running weight exceeds the first uniform.
Any cycle (and any single sample) is therefore reproducible without
generating anything before it. Bit-exactness holds only for a fixed numpy
version, so pin your numpy (pyproject.toml only sets a floor); the bytes
were checked on numpy 2.4.6.

Scenario construction
---------------------
The bundled scenario's accuracy numbers are produced BY DESIGN, not
learned: fraud samples shift designated feature coordinates by offsets
computed in closed form from the Gaussian error function, so a linear
expert with a known threshold hits a designed accuracy. The scenario
exists to exercise the roster machinery, not to make a learning claim.
The preset that runs it (``config.section_4_4_preset``) measures the
designed accuracies and refuses to build outside the spec bands.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import accumulate
from statistics import NormalDist

import numpy as np

from .domain import FEATURE_DIM, MODALITY_DIM, ConfigError
from .moe import Expert

_NORMAL = NormalDist()

# Relative jitter applied to non-zero modality base entries. Zero entries
# stay exactly zero so experts for unrelated modalities never compete.
_MODALITY_JITTER = 0.1

# A cycle's batch is built in memory at once, so its size is capped well
# below what numpy refuses to allocate: one dispatch-workload cycle at the
# cap took 19 s and peaked at 281 MB on a 2-core Xeon VM.
MAX_SAMPLES_PER_CYCLE = 2**20


def derive_key(*parts: object) -> np.ndarray:
    """128-bit Philox key from a domain-separated part list."""
    payload = "|".join(str(p) for p in parts).encode()
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


class KeyedRng:
    """Reusable Philox generator reset to a fresh key per use.

    Resetting the bit-generator state is equivalent to constructing
    ``Generator(Philox(key=...))`` but avoids per-sample object churn.
    """

    def __init__(self) -> None:
        self._bitgen = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bitgen)

    def reset(self, *parts: object) -> np.random.Generator:
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": derive_key(*parts)},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self.generator


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

    Each sample draws from its own keyed substream straight into its row;
    everything after the draws is a column operation that applies the same
    IEEE operations, in the same order, as a sample-at-a-time loop would.
    """
    if not 0 <= cycle < cfg.total_cycles:
        raise ConfigError(f"cycle {cycle} outside [0, {cfg.total_cycles})")
    n = cfg.samples_per_cycle
    uniforms = np.empty((n, 2))
    features = np.empty((n, FEATURE_DIM))
    jitter = np.empty((n, MODALITY_DIM))
    rng = KeyedRng()
    for seq in range(n):
        gen = rng.reset("sample", cfg.seed, cycle, seq)
        gen.random(out=uniforms[seq])
        gen.standard_normal(out=features[seq])
        gen.random(out=jitter[seq])

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


# ---------------------------------------------------------------------------
# Demo scenario: incumbent tuned for pattern A, candidate tuned for the
# post-drift A/B mixture with extra headroom on the sensitive suffix.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """Accuracy targets and acceptance bands for the bundled scenario.

    Derivation sketch (all via the normal quantile z):
      * a single-coordinate expert with threshold z(p) on a fraud shift
        of 2*z(p) is correct on each class with probability p;
      * the incumbent's behavior expert keeps its pattern-A threshold, so
        the visible pattern-B shift is set for the incumbent's designed
        mixture accuracy;
      * the candidate's strongest expert also weights the first sensitive
        coordinate; its threshold is placed for the full-tier class
        accuracies and the visible shift for the restricted-tier target.
    """

    incumbent_a_accuracy: float = 0.95
    incumbent_mixture_accuracy: float = 0.75
    candidate_shadow_mixture_accuracy: float = 0.88
    candidate_full_legit_accuracy: float = 0.95
    candidate_full_fraud_accuracy: float = 0.91
    fraud_rate: float = 0.5
    post_drift_b_weight: float = 0.5
    sensitive_weight: float = 0.5
    incumbent_a_band: tuple[float, float] = (0.93, 0.97)
    incumbent_mixture_band: tuple[float, float] = (0.72, 0.78)
    candidate_shadow_band: tuple[float, float] = (0.85, 0.91)
    candidate_full_min: float = 0.90

    def offsets(self) -> dict[str, float]:
        """Solve the feature shifts and thresholds in closed form."""
        z = _NORMAL.inv_cdf
        phi = _NORMAL.cdf
        theta = z(self.incumbent_a_accuracy)
        shift_a = 2.0 * theta

        mix_b = self.post_drift_b_weight
        acc_b_incumbent = (
            self.incumbent_mixture_accuracy - (1.0 - mix_b) * self.incumbent_a_accuracy
        ) / mix_b
        fraud_hit = 2.0 * acc_b_incumbent - self.incumbent_a_accuracy
        if not 0.0 < fraud_hit < 1.0:
            raise ConfigError("incumbent mixture target infeasible for the given A accuracy")
        shift_b_visible = theta + z(fraud_hit)

        sigma_full = (2.0 + self.sensitive_weight**2) ** 0.5
        threshold_candidate = sigma_full * z(self.candidate_full_legit_accuracy)
        mean_full = threshold_candidate + sigma_full * z(self.candidate_full_fraud_accuracy)

        acc_b_shadow = (
            self.candidate_shadow_mixture_accuracy - (1.0 - mix_b) * self.incumbent_a_accuracy
        ) / mix_b
        legit_restricted = phi(threshold_candidate / 2.0**0.5)
        fraud_restricted = 2.0 * acc_b_shadow - legit_restricted
        if not 0.0 < fraud_restricted < 1.0:
            raise ConfigError("candidate shadow target infeasible for the given thresholds")
        mean_restricted = threshold_candidate + 2.0**0.5 * z(fraud_restricted)

        shift_b_numeric = mean_restricted - shift_b_visible
        shift_b_sensitive = (mean_full - mean_restricted) / self.sensitive_weight
        if shift_b_numeric <= 0 or shift_b_sensitive <= 0:
            raise ConfigError("scenario targets produce non-positive feature shifts")

        return {
            "theta": theta,
            "shift_a": shift_a,
            "shift_b_visible": shift_b_visible,
            "shift_b_numeric": shift_b_numeric,
            "shift_b_sensitive": shift_b_sensitive,
            "threshold_candidate": threshold_candidate,
        }


DEFAULT_SCENARIO = ScenarioSpec()


def scenario_patterns(spec: ScenarioSpec = DEFAULT_SCENARIO) -> tuple[PatternSpec, PatternSpec]:
    ofs = spec.offsets()
    pattern_a = PatternSpec(
        name="A",
        fraud_rate=spec.fraud_rate,
        fraud_shift={0: ofs["shift_a"]},
        modality_base=(0.7, 0.3, 0.0),
    )
    pattern_b = PatternSpec(
        name="B",
        fraud_rate=spec.fraud_rate,
        fraud_shift={
            1: ofs["shift_b_numeric"],
            2: ofs["shift_b_visible"],
            3: ofs["shift_b_sensitive"],
        },
        modality_base=(0.0, 0.3, 0.7),
    )
    return pattern_a, pattern_b


def _unit_weight(coord: int) -> tuple[float, ...]:
    w = [0.0] * FEATURE_DIM
    w[coord] = 1.0
    return tuple(w)


def incumbent_experts(spec: ScenarioSpec = DEFAULT_SCENARIO) -> tuple[Expert, ...]:
    theta = spec.offsets()["theta"]
    return (
        Expert(profile=(1.0, 0.0, 0.0), weights=_unit_weight(0), threshold=theta),
        Expert(profile=(0.0, 1.0, 0.0), weights=_unit_weight(1), threshold=theta),
        Expert(profile=(0.0, 0.0, 1.0), weights=_unit_weight(2), threshold=theta),
    )


def candidate_experts(spec: ScenarioSpec = DEFAULT_SCENARIO) -> tuple[Expert, ...]:
    ofs = spec.offsets()
    pattern_b_weights = [0.0] * FEATURE_DIM
    pattern_b_weights[1] = 1.0
    pattern_b_weights[2] = 1.0
    pattern_b_weights[3] = spec.sensitive_weight
    return (
        Expert(profile=(1.0, 0.0, 0.0), weights=_unit_weight(0), threshold=ofs["theta"]),
        Expert(profile=(0.0, 1.0, 0.0), weights=_unit_weight(1), threshold=ofs["theta"]),
        Expert(
            profile=(0.0, 0.0, 1.0),
            weights=tuple(pattern_b_weights),
            threshold=ofs["threshold_candidate"],
        ),
    )
