"""Stream generation: determinism, schedule, mixture statistics, the
in-place keyed reset, and the section-4.4 preset's calibration."""

import hashlib
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import binom

from freeagent import simulator
from freeagent.config import (
    _CALIBRATION_SAMPLES,
    _CALIBRATION_SEED,
    DEFAULT_SCENARIO,
    DRIFT_CYCLE,
    ScenarioSpec,
    _check_calibration,
    _scenario,
    section_4_4_preset,
)
from freeagent.domain import AccessTier, ConfigError, UnsupportedNumpy
from freeagent.engine import Engine
from freeagent.moe import uniform_gate
from freeagent.pipeline import decide, redact
from freeagent.simulator import (
    KERNEL_MAX_ROWS,
    KERNEL_MIN_ROWS,
    PatternSpec,
    Segment,
    StreamConfig,
    check_philox_layout,
    derive_keys,
    generate_cycle,
    keyed_reset,
    philox_words,
)
from tests.scalar_oracle import generate_sample, keyed_generator, philox_generator

PATTERN_A = PatternSpec(
    name="A", fraud_rate=0.2, fraud_shift={0: 3.0}, modality_base=(0.7, 0.3, 0.0)
)
PATTERN_B = PatternSpec(
    name="B", fraud_rate=0.5, fraud_shift={2: 2.0}, modality_base=(0.0, 0.3, 0.7)
)
PATTERN_C = PatternSpec(
    name="C", fraud_rate=0.7, fraud_shift={1: -1.5, 4: 2.5, 5: 0.25},
    modality_base=(0.2, 0.0, 0.8),
)


def columns(batch):
    return (batch.seq0, batch.features, batch.modality, batch.label, batch.pattern)


def same_batch(a, b):
    return a.seq0 == b.seq0 and all(
        np.array_equal(x, y) for x, y in zip(columns(a)[1:], columns(b)[1:])
    )


def pattern_names(cfg, cycle, batch):
    mixture = cfg.mixture(cycle)
    return [mixture[k][0].name for k in batch.pattern.tolist()]


DRIFT = (Segment(0, {"A": 1.0}), Segment(2, {"A": 0.5, "B": 0.5}))


def stream(seed=7, spc=1000, cycles=4, segments=DRIFT, patterns=(PATTERN_A, PATTERN_B, PATTERN_C)):
    return StreamConfig(seed=seed, samples_per_cycle=spc, total_cycles=cycles, patterns=patterns,
                        schedule=segments)


class TestDeterminism:
    def test_same_config_same_cycle_identical(self):
        cfg = stream()
        assert same_batch(generate_cycle(cfg, 1), generate_cycle(cfg, 1))

    def test_random_access_matches_batch(self):
        # any single sample is reproducible without generating the rest
        cfg = stream(spc=50)
        batch = generate_cycle(cfg, 3)
        for seq in (0, 17, 49):
            s = generate_sample(cfg, 3, seq)
            assert s.seq == batch.seq0 + seq
            assert s.features == tuple(batch.features[seq].tolist())
            assert s.label is bool(batch.label[seq])

    def test_different_seeds_differ(self):
        a = generate_cycle(stream(seed=1, spc=20), 0)
        b = generate_cycle(stream(seed=2, spc=20), 0)
        assert not same_batch(a, b)

    def test_cycle_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            generate_cycle(stream(cycles=2), 2)


class TestStreamContent:
    def test_fraud_count_within_binomial_bound(self):
        # oracle: 99.9% central interval of Binomial(1000, 0.2), roughly 158-242
        n, p = 1000, 0.2
        lo, hi = binom.ppf(0.0005, n, p), binom.ppf(0.9995, n, p)
        assert 155 <= lo <= 162 and 238 <= hi <= 246
        cfg = stream(spc=n, segments=(Segment(0, {"A": 1.0}),))
        frauds = int(generate_cycle(cfg, 0).label.sum())
        assert lo <= frauds <= hi

    def test_no_post_drift_pattern_before_drift(self):
        cfg = stream(spc=400)
        assert set(pattern_names(cfg, 1, generate_cycle(cfg, 1))) == {"A"}
        assert set(pattern_names(cfg, 2, generate_cycle(cfg, 2))) == {"A", "B"}

    def test_modality_normalized_and_zeros_exact(self):
        cfg = stream(spc=200)
        batch = generate_cycle(cfg, 2)
        for modality, name in zip(batch.modality.tolist(), pattern_names(cfg, 2, batch)):
            assert abs(sum(modality) - 1.0) < 1e-9
            assert all(m >= 0 for m in modality)
            if name == "A":
                assert modality[2] == 0.0
            else:
                assert modality[0] == 0.0

    def test_fraud_shift_applied_to_designated_coordinate(self):
        cfg = stream(spc=2000, segments=(Segment(0, {"A": 1.0}),))
        batch = generate_cycle(cfg, 0)
        fraud_mean = batch.features[batch.label, 0].mean()
        legit_mean = batch.features[~batch.label, 0].mean()
        assert fraud_mean - legit_mean == pytest.approx(3.0, abs=0.2)

    def test_global_seq_positions(self):
        cfg = stream(spc=10)
        batch = generate_cycle(cfg, 2)
        assert (batch.seq0, len(batch)) == (20, 10)


# Row counts on both sides of the kernel selection and across a chunk edge.
ROW_COUNTS = (1, KERNEL_MIN_ROWS - 1, KERNEL_MIN_ROWS, KERNEL_MAX_ROWS + 1)


def same_rows(batch, cfg, cycle, seqs):
    """Rows ``seqs`` of ``batch`` against the scalar oracle, bit for bit."""
    for i in seqs:
        s = generate_sample(cfg, cycle, i)
        assert batch.seq0 + i == s.seq
        assert [x.hex() for x in batch.features[i].tolist()] == [x.hex() for x in s.features]
        assert [x.hex() for x in batch.modality[i].tolist()] == [x.hex() for x in s.modality]
        assert (bool(batch.label[i]), int(batch.pattern[i])) == (s.label, s.pattern)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    cycle=st.integers(0, 3),
    weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_batch_matches_oracle_sample_by_sample(seed, cycle, weights):
    # multi-pattern segments, including a mixture whose weights need not
    # sum to 1 bit-exactly, so the last entry also catches the remainder
    total = sum(weights)
    mixture = dict(zip("ABC", (w / total for w in weights)))
    for spc in ROW_COUNTS:
        cfg = stream(seed=seed, spc=spc, segments=(
            Segment(0, {"B": 0.3, "C": 0.7}), Segment(2, mixture),
        ))
        same_rows(generate_cycle(cfg, cycle), cfg, cycle, range(spc))


WORD = st.integers(0, 2**64 - 1)
DRAWS = (
    lambda gen: gen.random(5),
    lambda gen: gen.standard_normal(7),
    lambda gen: gen.integers(0, 2**32, size=3, dtype=np.uint32),
)


def leave_mid_block(gen):
    gen.random()
    assert gen.bit_generator.state["buffer_pos"] < 4


def leave_half_word(gen):
    gen.integers(0, 2**32, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1


class DeafPhilox(np.random.Philox):
    """A Philox whose state setter keeps nothing it is given."""

    @property
    def state(self):
        return np.random.Philox.state.__get__(self)

    @state.setter
    def state(self, value):
        pass


class TestKeyedReset:
    @pytest.mark.parametrize("dirty", [leave_mid_block, leave_half_word])
    @settings(max_examples=40, deadline=None)
    @given(low=WORD, high=WORD)
    @example(low=0, high=0)
    @example(low=2**64 - 1, high=2**64 - 1)
    @example(low=0, high=2**64 - 1)
    @example(low=2**64 - 1, high=0)
    def test_in_place_reset_draws_as_a_fresh_generator(self, dirty, low, high):
        # the shared generator is left dirty by an earlier stream: a reset
        # that forgot the key, the counter, the buffer position or the
        # pending half word would draw differently from here on
        reset = keyed_reset()
        dirty(reset(2**63 + 1, 12345))
        ours, fresh = reset(low, high), philox_generator(low | high << 64)
        for draw in DRAWS:
            assert np.array_equal(draw(ours), draw(fresh))

    def test_layout_check_accepts_a_philox_and_returns_its_state(self):
        bitgen = np.random.Philox(key=0)
        state = check_philox_layout(bitgen)
        assert state.buffer_pos == bitgen.state["buffer_pos"]
        assert list(state.key.contents) == bitgen.state["state"]["key"].tolist()

    @pytest.mark.parametrize("make", [lambda: np.random.PCG64(5), lambda: DeafPhilox(key=5)],
                             ids=["pcg64", "deaf_philox"])
    def test_layout_check_refuses_a_state_that_does_not_read_back(self, make):
        bitgen = make()
        # the state as numpy's own getter reads it, past DeafPhilox's override
        getter = (np.random.Philox if isinstance(bitgen, np.random.Philox) else type(bitgen)).state
        before = repr(getter.__get__(bitgen))
        with pytest.raises(UnsupportedNumpy, match=f"^numpy {re.escape(np.__version__)}: "
                                                   f"a {type(bitgen).__name__} state"):
            check_philox_layout(bitgen)
        assert repr(getter.__get__(bitgen)) == before  # nothing was written

    def test_the_engine_builds_and_checks_one_generator_per_process(self, monkeypatch, tmp_path):
        checked, kernel_checked = [], []
        real, real_kernel = simulator.check_philox_layout, simulator.check_kernel
        monkeypatch.setattr(simulator, "check_philox_layout",
                            lambda bitgen: checked.append(bitgen) or real(bitgen))
        monkeypatch.setattr(simulator, "check_kernel",
                            lambda: kernel_checked.append(1) or real_kernel())
        simulator.keyed_reset.cache_clear()
        try:
            # handoff reliability 0.98 draws a handoff stream per agent per cycle
            cfg = section_4_4_preset(total_cycles=12, samples_per_cycle=50)
            assert {spec.handoff_reliability for spec in (*cfg.roster, *cfg.pool)} == {0.98}
            Engine(cfg).run(tmp_path / "first")
            Engine(cfg).run(tmp_path / "second")
            # 10,000-sample cycles: the kernel draws them, in chunks
            _check_calibration.__wrapped__(DEFAULT_SCENARIO)
        finally:
            simulator.keyed_reset.cache_clear()
        assert len(checked) == len(kernel_checked) == 1


class TestKeys:
    def test_bulk_keys_match_per_sample_blake2b_at_digit_boundaries(self):
        seed, cycle = 2**64 - 1, 7
        keys = derive_keys("sample", seed, cycle, range(1001))
        assert keys.shape == (1001, 2) and keys.dtype == np.uint64
        for seq in (0, 9, 10, 99, 100, 999, 1000):
            digest = hashlib.blake2b(f"sample|{seed}|{cycle}|{seq}".encode(), digest_size=16)
            low, high = keys[seq].tolist()
            assert low | high << 64 == int.from_bytes(digest.digest(), "little")

    def test_handoff_key_of_one_index(self):
        digest = hashlib.blake2b(b"handoff|42|3|17", digest_size=16).digest()
        (low, high), = derive_keys("handoff", 42, 3, (17,)).tolist()
        assert low | high << 64 == int.from_bytes(digest, "little")

    @pytest.mark.parametrize("seed,spc", [
        (2**64 - 1, 1001), (2**64 - 1, 1), (0, 1),
        (0, KERNEL_MIN_ROWS - 1), (2**64 - 1, KERNEL_MIN_ROWS), (0, KERNEL_MAX_ROWS + 1),
    ])
    def test_batch_matches_oracle_across_digit_boundaries(self, seed, spc):
        cfg = stream(seed=seed, spc=spc)
        seqs = {0, 9, 10, 99, 100, 999, 1000, spc - 1} & set(range(spc))
        same_rows(generate_cycle(cfg, 2), cfg, 2, sorted(seqs))


def extract_tables():
    """numpy's ziggurat tables, read back through ``standard_normal``: each
    draw starts at a word set into Philox's buffer. ``rabs = 1`` returns
    ``wi[idx]``, and ``ki[idx]`` is the least ``rabs`` off the fast path,
    where a draw reads more than its one word. The idx-0 tail can refill the
    buffer and end at position 1 again, but with the counter moved."""
    bitgen = np.random.Philox(key=0)
    gen, fresh = np.random.Generator(bitgen), bitgen.state

    def draw(idx, rabs):
        bitgen.state = {**fresh, "buffer": (idx | rabs << 9, 0, 0, 0), "buffer_pos": 0}
        x = gen.standard_normal()
        after = bitgen.state
        return x, after["buffer_pos"] == 1 and after["state"]["counter"].tolist() == [0] * 4

    wi, ki = [], []
    for idx in range(256):
        wi.append(draw(idx, 1)[0])
        lo, hi = 0, 2**52  # the least rabs off the fast path is in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if draw(idx, mid)[1] else (lo, mid)
        ki.append(lo)
    return wi, ki


class TestKernel:
    def test_the_tables_are_numpys_own(self):
        wi, ki = extract_tables()
        assert [x.hex() for x in wi] == [x.hex() for x in simulator._WI.tolist()]
        assert ki == simulator._KI.tolist()
        assert (ki[0], ki[1]) == (0xEF33D8025EF6A, 0)

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(st.tuples(WORD, WORD), min_size=1, max_size=4))
    @example(keys=[(0, 0)])
    @example(keys=[(2**64 - 1, 2**64 - 1)])
    @example(keys=[(0, 2**64 - 1), (2**64 - 1, 0)])
    def test_words_are_a_fresh_generators_first_twelve(self, keys):
        raw = [np.random.Philox(key=low | high << 64).random_raw(12) for low, high in keys]
        assert philox_words(np.array(keys, dtype=np.uint64)).T.tolist() == np.array(raw).tolist()

    def test_rows_off_the_fast_path_are_redrawn_exactly(self):
        # the first seed whose kernel-sized cycle has a normal word in the
        # idx-0 tail and one at idx 1, whose ki of 0 accepts no word
        ki0 = simulator._KI.tolist()[0]
        for seed in itertools.count():
            normals = [keyed_generator("sample", seed, 2, seq).bit_generator.random_raw(8)[2:]
                       for seq in range(KERNEL_MIN_ROWS)]
            tail = [seq for seq, words in enumerate(normals) if any(
                w & 0xFF == 0 and w >> 9 & 2**52 - 1 >= ki0 for w in words.tolist())]
            idx_1 = [seq for seq, words in enumerate(normals) if any(words & 0xFF == 1)]
            if tail and idx_1:
                break
        cfg = stream(seed=seed, spc=KERNEL_MIN_ROWS)
        same_rows(generate_cycle(cfg, 2), cfg, 2, range(KERNEL_MIN_ROWS))

    @pytest.mark.parametrize("name,entry", [("_WI", 7), ("_KI", 5), ("_PHILOX_M", 1)])
    def test_the_engine_refuses_a_kernel_numpy_draws_differently(
        self, monkeypatch, tmp_path, name, entry
    ):
        cfg = section_4_4_preset(total_cycles=1, samples_per_cycle=KERNEL_MIN_ROWS)
        changed = getattr(simulator, name).copy()
        # a wi 2**20 ulps up, a ki past the fast path, a multiplier off by 2**20
        changed.view(np.uint64).flat[entry] += 2**20
        monkeypatch.setattr(simulator, name, changed)
        simulator.keyed_reset.cache_clear()  # a refused build is not cached
        with pytest.raises(UnsupportedNumpy, match=f"^numpy {re.escape(np.__version__)}: "):
            Engine(cfg).run(tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestScheduleValidation:
    def test_first_segment_must_start_at_zero(self):
        with pytest.raises(ConfigError, match="first segment must start at cycle 0") as exc:
            stream(segments=(Segment(1, {"A": 1.0}),))
        assert exc.value.at == "schedule"

    def test_weights_must_sum_to_one(self):
        # summed in pattern-list order, as the stream draws them
        with pytest.raises(ConfigError, match="sum to 1") as exc:
            stream(segments=(Segment(0, {"B": 0.5, "A": 0.6}),))
        assert exc.value.at == "schedule[0].mixture"

    @pytest.mark.parametrize("patterns,segments,at,message", [
        pytest.param((PATTERN_A,), (), "schedule", "at least one segment", id="no_segment"),
        pytest.param((PATTERN_A,), (Segment(0, {"A": 1.0}), Segment(0, {"A": 1.0})), "schedule",
                     "strictly increasing", id="starts_repeat"),
        pytest.param((PATTERN_A,), (Segment(0, {"A": 1.0}), Segment(2, {"Z": 1.0})),
                     "schedule[1].mixture", "unknown patterns ['Z']", id="unknown_pattern"),
        pytest.param((PATTERN_A, PATTERN_B), (Segment(0, {"A": 1.5, "B": -0.5}),),
                     "schedule[0].mixture", "positive", id="weight_negative"),
        pytest.param((PATTERN_A,), (Segment(0, {}),), "schedule[0].mixture", "positive",
                     id="mixture_empty"),
        pytest.param((PATTERN_A, PATTERN_A), (Segment(0, {"A": 1.0}),), "patterns",
                     "duplicate pattern names", id="duplicate_pattern"),
    ])
    def test_bad_schedule_rejected_at_its_key(self, patterns, segments, at, message):
        with pytest.raises(ConfigError) as exc:
            stream(segments=segments, patterns=patterns)
        assert message in str(exc.value) and exc.value.at == at

    def test_segment_lookup(self):
        # the running segment's mixture, in pattern-list order
        cfg = stream(segments=(Segment(0, {"A": 1.0}), Segment(2, {"B": 0.75, "A": 0.25})))
        assert cfg.mixture(0) == cfg.mixture(1) == ((PATTERN_A, 1.0),)
        assert cfg.mixture(2) == cfg.mixture(99) == ((PATTERN_A, 0.25), (PATTERN_B, 0.75))


def accuracy(spec, stream, tier):
    """Share of correct verdicts of ``spec``'s experts under a uniform gate
    on the stream's one cycle, the features redacted to ``tier``."""
    batch = generate_cycle(stream, 0)
    gate = uniform_gate(len(spec.experts))
    _, _, verdict = decide(spec.experts, gate, redact(batch.features, tier), batch.modality)
    return np.count_nonzero(verdict == batch.label) / len(batch)


class TestScenario:
    def test_default_scenario_calibrates(self):
        cfg = section_4_4_preset()
        (incumbent,), (candidate,) = cfg.roster, cfg.pool
        engine = Engine(cfg)
        assert set(engine.roster).isdisjoint(a.id for a in engine.pool)
        assert "pattern-B" in candidate.skills
        assert "pattern-B" not in incumbent.skills

    def test_designed_accuracies_land_in_bands(self):
        # the spec bands at n=10,000, measured on fresh streams of the
        # preset's own pre- and post-drift mixtures
        cfg = section_4_4_preset()
        (incumbent,), (candidate,) = cfg.roster, cfg.pool
        pre_drift, post_drift = cfg.stream.schedule
        pure_a = replace(cfg.stream, seed=123, samples_per_cycle=10_000, total_cycles=1,
                         schedule=(Segment(0, pre_drift.mixture),))
        mixture = replace(cfg.stream, seed=321, samples_per_cycle=10_000, total_cycles=1,
                          schedule=(Segment(0, post_drift.mixture),))
        assert [(p.name, w) for p, w in pure_a.mixture(0)] == [("A", 1.0)]
        assert [(p.name, w) for p, w in mixture.mixture(0)] == [("A", 0.5), ("B", 0.5)]
        assert post_drift.start_cycle == 10
        assert 0.93 <= accuracy(incumbent, pure_a, AccessTier.FULL) <= 0.97
        assert 0.72 <= accuracy(incumbent, mixture, AccessTier.FULL) <= 0.78
        assert 0.85 <= accuracy(candidate, mixture, AccessTier.RESTRICTED) <= 0.91
        assert accuracy(candidate, mixture, AccessTier.FULL) >= 0.90

    def test_the_calibration_stream_is_pinned(self):
        # exact correct counts on the preset's own calibration stream, so a
        # stream that moved but stayed in band still fails
        stream, incumbent, candidate = _scenario(
            DEFAULT_SCENARIO, _CALIBRATION_SEED, _CALIBRATION_SAMPLES, DRIFT_CYCLE + 1
        )
        assert (_CALIBRATION_SEED, _CALIBRATION_SAMPLES) == (0xCA11B, 10_000)
        pure_a, mixture = generate_cycle(stream, 0), generate_cycle(stream, DRIFT_CYCLE)

        def correct(spec, batch, tier):
            gate = uniform_gate(len(spec.experts))
            _, _, verdict = decide(spec.experts, gate, redact(batch.features, tier),
                                   batch.modality)
            return int(np.count_nonzero(verdict == batch.label))

        assert [
            correct(incumbent, pure_a, AccessTier.FULL),
            correct(incumbent, mixture, AccessTier.FULL),
            correct(candidate, mixture, AccessTier.RESTRICTED),
            correct(candidate, mixture, AccessTier.FULL),
        ] == [9488, 7410, 8760, 9411]

    def test_infeasible_targets_rejected(self):
        bad = ScenarioSpec(incumbent_mixture_accuracy=0.95)  # no drop at all
        with pytest.raises(ConfigError):
            bad.offsets()

    def test_calibration_failure_raises(self):
        narrow = ScenarioSpec(incumbent_a_band=(0.999, 1.0))
        with pytest.raises(ConfigError, match="calibration failed: incumbent on pattern A"):
            section_4_4_preset(scenario=narrow)

    @pytest.mark.parametrize("narrow,check", [
        pytest.param({"incumbent_mixture_band": (0.76, 0.78)}, "incumbent on mixture",
                     id="incumbent_mixture"),
        pytest.param({"candidate_shadow_band": (0.85, 0.86)}, "candidate shadow on mixture",
                     id="candidate_shadow"),
        pytest.param({"candidate_full_min": 0.99}, "candidate full on mixture",
                     id="candidate_full"),
    ])
    def test_every_band_is_checked_whatever_the_run_size(self, narrow, check):
        # the calibration stream is the preset's own, not the caller's
        with pytest.raises(ConfigError, match=f"calibration failed: {check} = "):
            section_4_4_preset(
                seed=1, scenario=ScenarioSpec(**narrow), total_cycles=1, samples_per_cycle=1
            )


class TestPatternValidation:
    def test_fraud_rate_bounds(self):
        with pytest.raises(ConfigError):
            PatternSpec("X", 0.0, {}, (1.0, 0.0, 0.0))

    def test_shift_coordinate_bounds(self):
        with pytest.raises(ConfigError):
            PatternSpec("X", 0.5, {9: 1.0}, (1.0, 0.0, 0.0))

    def test_modality_base_length(self):
        with pytest.raises(ConfigError):
            PatternSpec("X", 0.5, {}, (1.0, 0.0))
