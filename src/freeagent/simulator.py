"""Seeded synthetic transaction stream with scheduled concept drift.

Stream determinism contract
---------------------------
Every sample is generated from its own counter-based substream: a numpy
Philox4x64 bit generator with a zero counter whose 128-bit key is
``blake2b("sample|<seed>|<cycle>|<seq>", digest_size=16)`` (two
little-endian words, low first). Per sample the draw order is fixed: one
uniform for the pattern mixture, one for the fraud label, FEATURE_DIM
standard normals for feature noise, MODALITY_DIM uniforms for modality
jitter. The pattern is the first of the running segment's mixture, taken
in the order of the stream's pattern list, whose running weight exceeds
the first uniform. Any cycle (and any single sample) is therefore
reproducible without generating anything before it. Bit-exactness holds
only for a fixed numpy version, so pin your numpy (pyproject.toml only
sets a floor); the bytes were checked on numpy 2.4.6.

A fresh substream costs one key write (Salmon et al., SC'11): the
process's one Philox generator is reset (``keyed_reset``) by writing the
key, a zero counter, ``buffer_pos = 4`` and ``has_uint32 = 0`` into
numpy's ``philox_state``, every field a draw reads before writing. Before
the first reset, a probe set through numpy's setter must read back through
``_PhiloxState``, or the engine refuses to run, naming the numpy version;
the check only reads. Sharing is safe because streams (samples, handoffs,
calibration) are never interleaved: each is reset, drawn and left before
the next reset.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .domain import FEATURE_DIM, MODALITY_DIM, ConfigError

# Relative jitter applied to non-zero modality base entries. Zero entries
# stay exactly zero so experts for unrelated modalities never compete.
_MODALITY_JITTER = 0.1

# A cycle's batch is built in memory at once, so its size is capped well
# below what numpy refuses to allocate: one dispatch-workload cycle at the
# cap took 19 s and peaked at 281 MB on a 2-core Xeon VM.
MAX_SAMPLES_PER_CYCLE = 2**20


def derive_keys(kind: str, seed: int, cycle: int, indices: Iterable[int]) -> np.ndarray:
    """One (low, high) uint64 row per index: the Philox key ``blake2b("<kind>|
    <seed>|<cycle>|<index>", digest_size=16)``, the shared prefix hashed once."""
    prefix = hashlib.blake2b(f"{kind}|{seed}|{cycle}|".encode(), digest_size=16)
    digests = bytearray()
    for index in indices:
        h = prefix.copy()
        h.update(str(index).encode())
        digests += h.digest()
    return np.frombuffer(digests, dtype="<u8").reshape(-1, 2)


# numpy's ``philox_state`` (numpy/random/philox.h), at ``Philox().ctypes.state_address``.
class _PhiloxState(ctypes.Structure):
    _fields_ = [("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("buffer_pos", ctypes.c_int), ("buffer", ctypes.c_uint64 * 4),
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


# Each field differs from a fresh state's and from the others', so no misread matches.
_PROBE = {"bit_generator": "Philox", "state": {"counter": (1, 2, 3, 2**64 - 1), "key": (2**63, 5)},
          "buffer": (6, 7, 8, 9), "buffer_pos": 2, "has_uint32": 1, "uinteger": 2**32 - 10}


def check_philox_layout(bitgen: np.random.BitGenerator) -> _PhiloxState:
    """``bitgen``'s state, once ``_PROBE`` set through numpy's own setter
    reads back through ``_PhiloxState``; else refuse. Writes nothing through it."""
    if isinstance(bitgen, np.random.Philox):
        bitgen.state = _PROBE
        st = _PhiloxState.from_address(bitgen.ctypes.state_address)
        seen = {"bit_generator": "Philox",
                "state": {"counter": tuple(st.ctr.contents), "key": tuple(st.key.contents)},
                "buffer": tuple(st.buffer), "buffer_pos": st.buffer_pos,
                "has_uint32": st.has_uint32, "uinteger": st.uinteger}
        if seen == _PROBE:
            return st
    raise RuntimeError(f"numpy {np.__version__}: a {type(bitgen).__name__} state does not read "
                       "back through the philox_state layout the keyed streams are reset in")


@functools.cache
def keyed_reset() -> Callable[[int, int], np.random.Generator]:
    """The in-place reset of the process's one keyed generator, built and checked
    on first use: ``reset(low, high)`` gives ``Generator(Philox(key=low | high << 64))``."""
    bitgen = np.random.Philox(key=0)
    state = check_philox_layout(bitgen)
    key, counter = state.key.contents, state.ctr.contents
    generator = np.random.Generator(bitgen)  # keeps the state's memory alive

    def reset(low: int, high: int) -> np.random.Generator:
        key[:] = low, high
        counter[:] = 0, 0, 0, 0
        state.buffer_pos, state.has_uint32 = 4, 0
        return generator

    return reset


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
    reset = keyed_reset()
    keys = derive_keys("sample", cfg.seed, cycle, range(n)).tolist()
    for (low, high), u, f, j in zip(keys, uniforms, features, jitter):
        gen = reset(low, high)
        gen.random(out=u)
        gen.standard_normal(out=f)
        gen.random(out=j)

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
