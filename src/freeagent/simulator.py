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

A cycle of ``KERNEL_MIN_ROWS`` samples or more skips the reset: a numpy
kernel computes, for all keys at once, the 12 words a fresh generator
yields (Philox4x64-10 at counters 1 to 3). Uniforms are ``(word >> 11) *
2**-53``; normals take the ziggurat's fast path (Marsaglia & Tsang, JSS
2000) through numpy's ``wi`` and ``ki``, checked in below. A sample with a
normal off that path (about 9%: ``ki[1]`` is 0) is redrawn whole through
the keyed reset, as is every sample of a smaller cycle, where the kernel's
fixed cost outweighs the draws. ``check_kernel`` must find the kernel's
words and normals numpy's, or the engine refuses to run, naming the version.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .domain import FEATURE_DIM, MODALITY_DIM, ConfigError, UnsupportedNumpy

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
    raise UnsupportedNumpy(f"numpy {np.__version__}: a {type(bitgen).__name__} state does not "
                           "read back through the philox_state layout of the keyed reset")


# Philox4x64-10 in two lanes: a round multiplies the counter words (c0, c2)
# by (M0, M1), and the key (k0, k1) is bumped by (W0, W1) between rounds.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW, _HALF = np.uint64(2**32 - 1), np.uint64(32)  # a Python int converts on every call
_M_LO, _M_HI = _PHILOX_M & _LOW, _PHILOX_M >> _HALF


def philox_words(keys: np.ndarray) -> np.ndarray:
    """(12, n) uint64: column i holds the first 12 words that a fresh
    ``Generator(Philox(key))`` yields for the (low, high) key ``keys[i]``."""
    n = len(keys)
    key = np.tile(keys.T, 3)  # column c * n + i runs block c + 1 of key i
    a, b = np.zeros_like(key), np.zeros_like(key)  # the lanes (c0, c2) and (c1, c3)
    a[0] = np.arange(1, 4, dtype=np.uint64).repeat(n)  # numpy's first block is at counter 1
    for _ in range(10):
        # mulhi(a, M) from 32-bit halves; no partial product or sum wraps
        lo, hi = a & _LOW, a >> _HALF
        mid = hi * _M_LO + (lo * _M_LO >> _HALF)
        lo = lo * _M_HI + (mid & _LOW)
        hi = hi * _M_HI + (mid >> _HALF) + (lo >> _HALF)
        a, b = hi[::-1] ^ b ^ key, (a * _PHILOX_M)[::-1]
        key += _PHILOX_W
    return np.stack([w[c * n:(c + 1) * n] for c in range(3) for w in (a[0], b[0], a[1], b[1])])


def ziggurat(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normal numpy's ``standard_normal`` draws from each word on the
    ziggurat's fast path, and whether the word takes that path."""
    idx = (words & 0xFF).astype(np.intp)
    rabs = words >> 9 & 2**52 - 1
    x = rabs * _WI[idx]
    return np.where(words & 0x100, -x, x), rabs < _KI[idx]


def check_kernel() -> None:
    """Refuse unless the kernel's words and normals for probe inputs are numpy's."""
    keys = np.array([(0, 0), (2**64 - 1, 2**64 - 1), (2**63, 5), (5, 2**63)], dtype=np.uint64)
    raw = [np.random.Philox(key=low | high << 64).random_raw(12) for low, high in keys.tolist()]
    rows = np.flatnonzero(_KI)  # ki[1] == 0 accepts no word
    probes = (rows | (rows & 1) << 8).astype(np.uint64) | _KI[rows] - 1 << 9  # last accepted rabs
    bitgen = np.random.Philox(key=0)
    gen, fresh, seen = np.random.Generator(bitgen), bitgen.state, []
    for word in probes.tolist():
        bitgen.state = {**fresh, "buffer": (word, 1, 2, 3), "buffer_pos": 0}
        seen.append((gen.standard_normal(), bitgen.random_raw()))  # 1 iff one word was read
    if not (np.array_equal(philox_words(keys), np.transpose(raw))
            and seen == [(x, 1) for x in ziggurat(probes)[0].tolist()]):
        raise UnsupportedNumpy(f"numpy {np.__version__}: the sample kernel draws differently")


@functools.cache
def keyed_reset() -> Callable[[int, int], np.random.Generator]:
    """The in-place reset of the process's one keyed generator, built and checked
    on first use: ``reset(low, high)`` gives ``Generator(Philox(key=low | high << 64))``."""
    bitgen = np.random.Philox(key=0)
    state = check_philox_layout(bitgen)
    check_kernel()  # before any cycle can take the kernel
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


# A kernel call costs about 190 numpy calls (0.5 ms on a 2-core VM) at any row
# count; timed alternately against the keyed reset there, it lost at 96 rows, won at 128.
KERNEL_MIN_ROWS = 128
# A kernel call takes at most KERNEL_MAX_ROWS rows, which bounds its scratch
# arrays. There, a 2000-row cycle in one call against two of 1000 rows raised
# end-to-end samples/s by 4%; one 4000-row call was slower than two of 2000.
KERNEL_MAX_ROWS = 2048


def generate_cycle(cfg: StreamConfig, cycle: int) -> SampleBatch:
    """All samples of one cycle, in seq order.

    Each sample's draws are its own keyed substream's; everything after the
    draws is a column operation that applies the same IEEE operations, in
    the same order, as a sample-at-a-time loop would.
    """
    if not 0 <= cycle < cfg.total_cycles:
        raise ConfigError(f"cycle {cycle} outside [0, {cfg.total_cycles})")
    n = cfg.samples_per_cycle
    uniforms = np.empty((n, 2))
    features = np.empty((n, FEATURE_DIM))
    jitter = np.empty((n, MODALITY_DIM))
    keys = derive_keys("sample", cfg.seed, cycle, range(n))
    reset = keyed_reset()  # built and checked before the kernel's first call
    drawn = np.zeros(n, dtype=bool)  # by the kernel, every normal on the fast path
    if n >= KERNEL_MIN_ROWS:
        for rows in np.array_split(np.arange(n), -(-n // KERNEL_MAX_ROWS)):  # even chunks
            words = philox_words(keys[rows])
            uniforms[rows] = (words[0:2] >> 11).T * 2.0**-53
            jitter[rows] = (words[8:11] >> 11).T * 2.0**-53
            normals, accepted = ziggurat(words[2:8])
            features[rows], drawn[rows] = normals.T, accepted.all(axis=0)
    redo = np.flatnonzero(~drawn)  # the rest: drawn in place through the keyed reset
    for i, (low, high) in zip(redo.tolist(), keys[redo].tolist()):
        gen = reset(low, high)
        gen.random(out=uniforms[i])
        gen.standard_normal(out=features[i])
        gen.random(out=jitter[i])

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


# numpy's wi_double and ki_double (ziggurat_constants.h), big-endian: float64 bits, uint64.
_WI_HEX = """
    3ccf493b7815d979 3c8b8d0be3fdf6c6 3c9250af3c2c5bb4 3c957cb938443b61 3c9801fce82fa70c
    3c9a230c2e4cd0bc 3c9c004d2f3861f7 3c9dac2f5a747274 3c9f32482d4cd5c3 3ca04d32278ebbad
    3ca0f5053b025d43 3ca192a697413677 3ca227a28f7a1af5 3ca2b52e3863d880 3ca33c3fc05791f5
    3ca3bd9ec1a2b12f 3ca439ef8dff9b55 3ca4b1bb363dfea7 3ca52575621ad374 3ca59580a707ce96
    3ca60231cfd97eea 3ca66bd261a37c3d 3ca6d2a292000570 3ca736dad346f8a6 3ca798ad10b32a77
    3ca7f845ad46f543 3ca855cc53430a77 3ca8b1649e7b769a 3ca90b2ea94ecf98 3ca96347822c1eea
    3ca9b9c98e38c546 3caa0eccdca4a72c 3caa62676d77cd59 3caab4ad6e101630 3cab05b16d136c9c
    3cab558487427a29 3caba4368e529f3a 3cabf1d62abf8232 3cac3e70f9594ef3 3cac8a13a5323b61
    3cacd4c9fe72268b 3cad1e9f0e80b748 3cad679d29e41f10 3cadafce0023b8c3 3cadf73aa9f17653
    3cae3debb5d2edfe 3cae83e9337a6f00 3caec93abdf982ce 3caf0de784f06226 3caf51f654d8f688
    3caf956d9e87d7ae 3cafd8537dfa2eac 3cb00d56e04234ec 3cb02e40f5398f9a 3cb04eea9e16a5fc
    3cb06f565b72a010 3cb08f869071f40b 3cb0af7d84bc6113 3cb0cf3d664bcc7f 3cb0eec84b16086b
    3cb10e20329515ee 3cb12d4707310fbe 3cb14c3e9f8e9141 3cb16b08bfc4201e 3cb189a71a78da34
    3cb1a81b51ee6d88 3cb1c666f8f82acb 3cb1e48b93e0d42e 3cb2028a9940a09f 3cb2206572c4c6e9
    3cb23e1d7de9c31f 3cb25bb40ca96bfb 3cb2792a661dd37f 3cb29681c719d71b 3cb2b3bb62b82eda
    3cb2d0d862e1b853 3cb2edd9e8cba98e 3cb30ac10d6e48d7 3cb3278ee1f4b930 3cb3444470265ea1
    3cb360e2baca52d5 3cb37d6abe05586a 3cb399dd6fb2b264 3cb3b63bbfb83d03 3cb3d28698561de0
    3cb3eebede725a83 3cb40ae571e09e74 3cb426fb2da6745d 3cb44300e83c30a4 3cb45ef773cac75d
    3cb47adf9e66c336 3cb496ba32488f2f 3cb4b287f602415d 3cb4ce49acb311dc 3cb4ea001638a605
    3cb505abef5e5562 3cb5214df20a8b5a 3cb53ce6d56a664f 3cb558774e1bb2c8 3cb574000e555f78
    3cb58f81c60e8514 3cb5aafd23241b59 3cb5c672d17d733d 3cb5e1e37b2f8cd3 3cb5fd4fc89f5e38
    3cb618b860a31fc3 3cb6341de8a2b0a2 3cb64f8104b7260b 3cb66ae257c99672 3cb6864283b13137
    3cb6a1a22950b2b1 3cb6bd01e8b343bb 3cb6d8626128d352 3cb6f3c43161f854 3cb70f27f78b68eb
    3cb72a8e516914c6 3cb745f7dc70eedc 3cb7616535e5731f 3cb77cd6faeff449 3cb7984dc8babd93
    3cb7b3ca3c8b1409 3cb7cf4cf3db22fb 3cb7ead68c73dee7 3cb80667a486ea1f 3cb82200dac88676
    3cb83da2ce899f15 3cb8594e1fd1f5bd 3cb875036f7a7ec5 3cb890c35f47f72d 3cb8ac8e9205c043
    3cb8c865aba10c9c 3cb8e44951446a27 3cb9003a2973b58f 3cb91c38dc288347 3cb9384612ef0afc
    3cb954627903a28a 3cb9708ebb70d5ee 3cb98ccb892e2a31 3cb9a919933f99bf 3cb9c5798cd5d92c
    3cb9e1ec2b6f7411 3cb9fe7226fad24a 3cba1b0c39f93692 3cba37bb21a2c85b 3cba547f9e0bbb88
    3cba715a724aa9a4 3cba8e4c64a0313d 3cbaab563e9ff108 3cbac878cd5af5ce 3cbae5b4e18bb336
    3cbb030b4fc3a11a 3cbb207cf09a985b 3cbb3e0aa0e00c00 3cbb5bb541ce3d03 3cbb797db93f8927
    3cbb9764f1e5f73c 3cbbb56bdb85256e 3cbbd3936b2ec0a2 3cbbf1dc9b81ae83 3cbc10486cec16a0
    3cbc2ed7e5f07a2d 3cbc4d8c136e0d1c 3cbc6c6608ec8705 3cbc8b66e0eba617 3cbcaa8fbd36a2ab
    3cbcc9e1c73bd690 3cbce95e3068e037 3cbd0906328b8f6e 3cbd28db1037ef20 3cbd48de1533c647
    3cbd691096e7f123 3cbd8973f4d7fba5 3cbdaa0999206e70 3cbdcad2f8fc490e 3cbdebd195522e37
    3cbe0d06fb49d21c 3cbe2e74c4ea46f6 3cbe501c99c1d188 3cbe72002f97fe25 3cbe94214b2abf0a
    3cbeb681c0f76f08 3cbed9237610a73a 3cbefc086101eca9 3cbf1f328ac25321 3cbf42a40fb74d6d
    3cbf665f20c90168 3cbf8a6604899782 3cbfaebb187122bf 3cbfd360d22fe785 3cbff859c118f60b
    3cc00ed447d3a075 3cc021a8028fc947 3cc034a983a902ab 3cc047da4e3ef5c7 3cc05b3bf6adb37e
    3cc06ed023a72668 3cc082988f632e17 3cc0969708e8a254 3cc0aacd7571c0c4 3cc0bf3dd1eed448
    3cc0d3ea34aa3d30 3cc0e8d4cf116593 3cc0fdffefa69fb6 3cc1136e04207041 3cc129219bbb5d35
    3cc13f1d69c4096d 3cc1556448602e3b 3cc16bf93b9deef3 3cc182df74d21261 3cc19a1a564eebac
    3cc1b1ad777f2f8e 3cc1c99ca971a694 3cc1e1ebfbe4ae39 3cc1fa9fc2e2d901 3cc213bc9d04cc81
    3cc22d477a6fd3ee 3cc24745a4ac9c24 3cc261bcc77658e0 3cc27cb2faa8592e 3cc2982ecd770e78
    3cc2b437532a0a52 3cc2d0d43196db97 3cc2ee0db1a978f5 3cc30becd256aeee 3cc32a7b5e68a4a3
    3cc349c405ae12a3 3cc369d27a33a840 3cc38ab39256410a 3cc3ac7570ae88fa 3cc3cf27b31704a6
    3cc3f2dbaa60f475 3cc417a49cb9e5da 3cc43d9815545e94 3cc464ce44a73a15 3cc48d62759c43bc
    3cc4b7739d6b5a27 3cc4e3250dcd8902 3cc5109f53e9ac41 3cc54011523a7e42 3cc571b1a94ae41b
    3cc5a5c08b718dd9 3cc5dc8a243ad0fe 3cc61669cf861e4c 3cc653ce7b006aea 3cc69540be9fe5c3
    3cc6db6b8d09e232 3cc72728f05f7a34 3cc7799556090673 3cc7d42df4d6ce8c 3cc839030529f234
    3cc8ab0fbfaa7c14 3cc92ee0946f4496 3cc9cbee014057ab 3cca8fdc7894775a 3ccb981f3878fdb1
    3ccd3bb48209ad33
"""
_KI_HEX = """
    000ef33d8025ef6a 0000000000000000 000c08be98fbc6a8 000da354fabd8142 000e51f67ec1eeea
    000eb255e9d3f77e 000eef4b817ecab9 000f19470afa44aa 000f37ed61ffcb18 000f4f469561255c
    000f61a5e41ba396 000f707a755396a4 000f7cb2ec28449a 000f86f10c6357d3 000f8fa6578325de
    000f9724c74dd0da 000f9da907dbf509 000fa360f581fa74 000fa86fde5b4bf8 000facf160d354dc
    000fb0fb6718b90f 000fb49f8d5374c6 000fb7ec2366fe77 000fbaece9a1e50e 000fbdab9d040bed
    000fc03060ff6c57 000fc2821037a248 000fc4a67ae25bd1 000fc6a2977aee31 000fc87aa92896a4
    000fca325e4bde85 000fcbcce902231a 000fcd4d12f839c4 000fceb54d8fec99 000fd007bf1dc930
    000fd1464dd6c4e6 000fd272a8e2f450 000fd38e4ff0c91e 000fd49a9990b478 000fd598b8920f53
    000fd689c08e99ec 000fd76ea9c8e832 000fd848547b08e8 000fd9178bad2c8c 000fd9dd07a7add2
    000fda9970105e8c 000fdb4d5dc02e20 000fdbf95c5bfcd0 000fdc9debb99a7d 000fdd3b8118729d
    000fddd288342f90 000fde6364369f64 000fdeee708d514e 000fdf7401a6b42e 000fdff46599ed40
    000fe06fe4bc24f2 000fe0e6c225a258 000fe1593c28b84c 000fe1c78cbc3f99 000fe231e9db1caa
    000fe29885da1b91 000fe2fb8fb54186 000fe35b33558d4a 000fe3b799d0002a 000fe410e99ead7f
    000fe46746d47734 000fe4bad34c095c 000fe50baed29524 000fe559f74ebc78 000fe5a5c8e41212
    000fe5ef3e138689 000fe6366fd91078 000fe67b75c6d578 000fe6be661e11aa 000fe6ff55e5f4f2
    000fe73e5900a702 000fe77b823e9e39 000fe7b6e37070a2 000fe7f08d774243 000fe8289053f08c
    000fe85efb35173a 000fe893dc840864 000fe8c741f0cebc 000fe8f9387d4ef6 000fe929cc879b1d
    000fe95909d388ea 000fe986fb939aa2 000fe9b3ac714866 000fe9df2694b6d5 000fea0973abe67c
    000fea329cf166a4 000fea5aab32952c 000fea81a6d5741a 000feaa797de1cf0 000feacc85f3d920
    000feaf07865e63c 000feb13762fec13 000feb3585fe2a4a 000feb56ae3162b4 000feb76f4e284fa
    000feb965fe62014 000febb4f4cf9d7c 000febd2b8f449d0 000febefb16e2e3e 000fec0be31ebde8
    000fec2752b15a15 000fec42049dafd3 000fec5bfd29f196 000fec75406ceef4 000fec8dd2500cb4
    000feca5b6911f12 000fecbcf0c427fe 000fecd38454fb15 000fece97488c8b3 000fecfec47f91b7
    000fed1377358528 000fed278f844903 000fed3b10242f4c 000fed4dfbad586e 000fed605498c3dd
    000fed721d414fe8 000fed8357e4a982 000fed9406a42cc8 000feda42b85b704 000fedb3c8746ab4
    000fedc2df416652 000fedd171a46e52 000feddf813c8ad3 000feded0f909980 000fedfa1e0fd414
    000fee06ae124bc4 000fee12c0d95a06 000fee1e579006e0 000fee29734b6524 000fee34150ae4bc
    000fee3e3db89b3c 000fee47ee2982f4 000fee51271db086 000fee59e9407f41 000fee623528b42e
    000fee6a0b5897f1 000fee716c3e077a 000fee7858327b82 000fee7ecf7b06ba 000fee84d2484ab2
    000fee8a60b66343 000fee8f7accc851 000fee94207e25da 000fee9851a829ea 000fee9c0e13485c
    000fee9f557273f4 000feea22762ccae 000feea4836b42ac 000feea668fc2d71 000feea7d76ed6fa
    000feea8ce04fa0a 000feea94be8333b 000feea950296410 000feea8d9c0075e 000feea7e7897654
    000feea678481d24 000feea48aa29e83 000feea21d22e4da 000fee9f2e352024 000fee9bbc26af2e
    000fee97c524f2e4 000fee93473c0a3a 000fee8e40557516 000fee88ae369c7a 000fee828e7f3dfd
    000fee7bdea7b888 000fee749bff37ff 000fee6cc3a9bd5e 000fee64529e007e 000fee5b45a32888
    000fee51994e57b6 000fee474a0006cf 000fee3c53e12c50 000fee30b2e02ad8 000fee2462ad8205
    000fee175eb83c5a 000fee09a22a1447 000fedfb27e349cc 000fedebea76216c 000feddbe422047e
    000fedcb0ece39d3 000fedb964042cf4 000feda6dce938c9 000fed937237e98d 000fed7f1c38a836
    000fed69d2b9c02b 000fed538d06ae00 000fed3c41dea422 000fed23e76a2fd8 000fed0a732fe644
    000fecefda07fe34 000fecd4100eb7b8 000fecb708956eb4 000fec98b61230c1 000fec790a0da978
    000fec57f50f31fe 000fec356686c962 000fec114cb4b335 000febeb948e6fd0 000febc429a0b692
    000feb9af5ee0cdc 000feb6fe1c98542 000feb42d3ad1f9e 000feb13b00b2d4b 000feae2591a02e9
    000feaaeae992257 000fea788d8ee326 000fea3fcffd73e5 000fea044c8dd9f6 000fe9c5d62f563b
    000fe9843ba947a4 000fe93f471d4728 000fe8f6bd76c5d6 000fe8aa5dc4e8e6 000fe859e07ab1ea
    000fe804f690a940 000fe7ab488233c0 000fe74c751f6aa5 000fe6e8102aa202 000fe67da0b6abd8
    000fe60c9f38307e 000fe5947338f742 000fe51470977280 000fe48bd436f458 000fe3f9bffd1e37
    000fe35d35eeb19c 000fe2b5122fe4fe 000fe20003995557 000fe13c82788314 000fe068c4ee67b0
    000fdf82b02b71aa 000fde87c57efeaa 000fdd7509c63bfd 000fdc46e529bf13 000fdaf8f82e0282
    000fd985e1b2ba75 000fd7e6ef48cf04 000fd613adbd650b 000fd40149e2f012 000fd1a1a7b4c7ac
    000fcee204761f9e 000fcba8d85e11b2 000fc7d26ecd2d22 000fc32b2f1e22ed 000fbd6581c0b83a
    000fb606c4005434 000fac40582a2874 000f9e971e014598 000f89fa48a41dfc 000f66c5f7f0302c
    000f1a5a4b331c4a
"""
_WI = np.frombuffer(bytes.fromhex(_WI_HEX), ">f8").astype(np.float64)
_KI = np.frombuffer(bytes.fromhex(_KI_HEX), ">u8").astype(np.uint64)
