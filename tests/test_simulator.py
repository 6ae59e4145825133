"""Stream generation: determinism, the keyed streams against the scalar
oracle, schedule, mixture statistics, and the section-4.4 preset's
calibration."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from freeagent import config
from freeagent.config import (
    _CALIBRATION_SAMPLES,
    _CALIBRATION_SEED,
    DRIFT_CYCLE,
    _scenario,
    section_4_4_preset,
)
from freeagent.domain import FEATURE_DIM, MODALITY_DIM, SENSITIVE_START, ConfigError
from freeagent.engine import Engine
from freeagent.moe import uniform_gate
from freeagent.pipeline import decide
from freeagent.simulator import PatternSpec, Segment, StreamConfig, generate_cycle, keyed_generator
from tests import scalar_oracle as oracle

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
# PatternSpec takes -0.0 as a base entry; like 0.0 it must give a +0.0 modality
PATTERN_D = PatternSpec(
    name="D", fraud_rate=0.4, fraud_shift={0: -2.0, 3: 1.5, 5: 0.5},
    modality_base=(-0.0, 0.6, 0.0),
)


def columns(batch):
    return (batch.seq0, batch.features, batch.modality, batch.label, batch.pattern)


def same_batch(a, b):
    return a.seq0 == b.seq0 and all(
        np.array_equal(x, y) for x, y in zip(columns(a)[1:], columns(b)[1:])
    )


def pattern_names(cfg, cycle, batch):
    mixture = oracle.mixture(cfg, cycle)
    return [mixture[k][0].name for k in batch.pattern.tolist()]


DRIFT = (Segment(0, {"A": 1.0}), Segment(2, {"A": 0.5, "B": 0.5}))


def stream(seed=7, spc=1000, cycles=4, segments=DRIFT, patterns=(PATTERN_A, PATTERN_B, PATTERN_C)):
    return StreamConfig(seed=seed, samples_per_cycle=spc, total_cycles=cycles, patterns=patterns,
                        schedule=segments)


class TestDeterminism:
    def test_same_config_same_cycle_identical(self):
        cfg = stream()
        assert same_batch(generate_cycle(cfg, 1), generate_cycle(cfg, 1))

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
        for modality, name in zip(batch.modality.T.tolist(), pattern_names(cfg, 2, batch)):
            assert abs(sum(modality) - 1.0) < 1e-9
            assert all(m >= 0 for m in modality)
            if name == "A":
                assert modality[2] == 0.0
            else:
                assert modality[0] == 0.0

    def test_fraud_shift_applied_to_designated_coordinate(self):
        cfg = stream(spc=2000, segments=(Segment(0, {"A": 1.0}),))
        batch = generate_cycle(cfg, 0)
        fraud_mean = batch.features[0, batch.label].mean()
        legit_mean = batch.features[0, ~batch.label].mean()
        assert fraud_mean - legit_mean == pytest.approx(3.0, abs=0.2)

    @pytest.mark.parametrize("spc", [1, 50, 1000])
    def test_the_batch_is_one_c_contiguous_row_per_coordinate(self, spc):
        batch = generate_cycle(stream(spc=spc), 2)
        assert batch.features.shape == (FEATURE_DIM, spc)
        assert batch.modality.shape == (MODALITY_DIM, spc)
        assert batch.features.flags.c_contiguous and batch.modality.flags.c_contiguous
        # each owns its memory: no row-major draw is kept behind it
        assert batch.features.base is None and batch.modality.base is None

    def test_global_seq_positions(self):
        cfg = stream(spc=10)
        batch = generate_cycle(cfg, 2)
        assert (batch.seq0, len(batch)) == (20, 10)


# Row counts from one to past 2048, so a fill spans many Philox blocks.
ROW_COUNTS = (1, 2, 50, 1000, 2049)


def same_rows(batch, cfg, cycle, seqs):
    """Rows ``seqs`` of ``batch`` against the scalar oracle, bit for bit."""
    samples = oracle.generate_cycle_samples(cfg, cycle)
    for i in seqs:
        s = samples[i]
        assert batch.seq0 + i == s.seq
        assert [x.hex() for x in batch.features[:, i].tolist()] == [x.hex() for x in s.features]
        assert [x.hex() for x in batch.modality[:, i].tolist()] == [x.hex() for x in s.modality]
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


def test_one_two_and_three_pattern_segments_match_the_oracle():
    # every segment's tables in one schedule; D's -0.0 base entry next to
    # its 0.0 one, and patterns that shift one or several coordinates
    cfg = stream(seed=2**64 - 1, spc=1000, cycles=6,
                 patterns=(PATTERN_A, PATTERN_B, PATTERN_C, PATTERN_D), segments=(
                     Segment(0, {"D": 1.0}),
                     Segment(2, {"A": 0.25, "D": 0.75}),
                     Segment(4, {"B": 0.2, "C": 0.3, "D": 0.5}),
                 ))
    for cycle in range(6):
        batch = generate_cycle(cfg, cycle)
        same_rows(batch, cfg, cycle, range(len(batch)))
        names = pattern_names(cfg, cycle, batch)
        assert set(names) == ({"D"}, {"A", "D"}, {"B", "C", "D"})[cycle // 2]
        d_rows = [name == "D" for name in names]
        assert [m.hex() for m in batch.modality[0, d_rows].tolist()] == ["0x0.0p+0"] * sum(d_rows)


class TestKeys:
    def test_handoff_key_of_one_index(self):
        ours = keyed_generator("handoff", 42, 3, 17)
        theirs = oracle.keyed_generator("handoff|42|3|17")
        assert ours.random(5).tolist() == theirs.random(5).tolist()

    # 20-digit seeds, at both ends of that range, and a fill over many blocks
    @pytest.mark.parametrize("seed", [10**19, 2**64 - 1])
    def test_the_generator_is_philox_with_the_key(self, seed):
        ours = keyed_generator("sample", seed, 7)
        theirs = oracle.keyed_generator(f"sample|{seed}|7")
        assert ours.random(3).tobytes() == theirs.random(3).tobytes()
        assert (ours.standard_normal((2049, FEATURE_DIM)).tobytes()
                == theirs.standard_normal((2049, FEATURE_DIM)).tobytes())

    def test_generators_of_one_key_share_no_state(self):
        first = keyed_generator("handoff", 1, 2, 3)
        second = keyed_generator("handoff", 1, 2, 3)
        drawn = first.random(4099)
        assert second.random(4099).tobytes() == drawn.tobytes()
        # a generator built after both drew starts at counter zero too
        assert keyed_generator("handoff", 1, 2, 3).random(4099).tobytes() == drawn.tobytes()

    # seeds of 1 and 20 digits in the key text, at both ends of the 64-bit range
    @pytest.mark.parametrize("seed,spc", [
        (2**64 - 1, 1001), (2**64 - 1, 1), (0, 1), (0, 127), (2**64 - 1, 128), (0, 2049),
    ])
    def test_batch_matches_oracle_across_digit_boundaries(self, seed, spc):
        cfg = stream(seed=seed, spc=spc)
        same_rows(generate_cycle(cfg, 2), cfg, 2, range(spc))


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
        # the last segment started by the cycle, its mixture in pattern-list
        # order: A (weight 0.25, fraud rate 0.2) takes the pattern uniforms
        # below 0.25, and B (0.75, 0.5) the rest
        cfg = stream(cycles=100,
                     segments=(Segment(0, {"A": 1.0}), Segment(2, {"B": 0.75, "A": 0.25})))
        n = cfg.samples_per_cycle
        for cycle in (0, 1, 2, 99):
            batch = generate_cycle(cfg, cycle)
            u_pattern, u_label = keyed_generator("sample", cfg.seed, cycle).random((n, 2)).T
            is_b = u_pattern >= 0.25 if cycle >= 2 else np.zeros(n, dtype=bool)
            assert batch.pattern.tolist() == is_b.astype(int).tolist()
            rates = np.where(is_b, PATTERN_B.fraud_rate, PATTERN_A.fraud_rate)
            assert batch.label.tolist() == (u_label < rates).tolist()


def accuracy(spec, stream, restricted=False):
    """Share of correct verdicts of ``spec``'s experts under a uniform gate
    on the stream's one cycle, on the full features or their Restricted view."""
    batch = generate_cycle(stream, 0)
    gate = uniform_gate(len(spec.experts))
    features = batch.features[:SENSITIVE_START] if restricted else batch.features
    _, _, verdict = decide(spec.matrices, gate, features, batch.modality)
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
        assert [(p.name, w) for p, w in oracle.mixture(pure_a, 0)] == [("A", 1.0)]
        assert [(p.name, w) for p, w in oracle.mixture(mixture, 0)] == [("A", 0.5), ("B", 0.5)]
        assert post_drift.start_cycle == 10
        assert 0.93 <= accuracy(incumbent, pure_a) <= 0.97
        assert 0.72 <= accuracy(incumbent, mixture) <= 0.78
        assert 0.85 <= accuracy(candidate, mixture, restricted=True) <= 0.91
        assert accuracy(candidate, mixture) >= 0.90

    def test_the_calibration_stream_is_pinned(self):
        # exact correct counts on the preset's own calibration stream, so a
        # stream that moved but stayed in band still fails
        stream, incumbent, candidate = _scenario(
            _CALIBRATION_SEED, _CALIBRATION_SAMPLES, DRIFT_CYCLE + 1
        )
        assert (_CALIBRATION_SEED, _CALIBRATION_SAMPLES) == (0xCA11B, 10_000)
        pure_a, mixture = generate_cycle(stream, 0), generate_cycle(stream, DRIFT_CYCLE)

        def correct(spec, batch, features):
            gate = uniform_gate(len(spec.experts))
            _, _, verdict = decide(spec.matrices, gate, features, batch.modality)
            return int(np.count_nonzero(verdict == batch.label))

        assert [
            correct(incumbent, pure_a, pure_a.features),
            correct(incumbent, mixture, mixture.features),
            correct(candidate, mixture, mixture.features[:SENSITIVE_START]),
            correct(candidate, mixture, mixture.features),
        ] == [9454, 7431, 8776, 9383]

    def test_calibration_failure_raises(self, monkeypatch):
        monkeypatch.setitem(config.CALIBRATION_BANDS, "incumbent on pattern A", (0.999, 1.0))
        config._check_calibration.cache_clear()
        with pytest.raises(ConfigError, match="calibration failed: incumbent on pattern A"):
            section_4_4_preset()

    @pytest.mark.parametrize("check,band", [
        pytest.param("incumbent on mixture", (0.76, 0.78), id="incumbent_mixture"),
        pytest.param("candidate shadow on mixture", (0.85, 0.86), id="candidate_shadow"),
        pytest.param("candidate full on mixture", (0.99, 1.0), id="candidate_full"),
    ])
    def test_every_band_is_checked_whatever_the_run_size(self, monkeypatch, check, band):
        # the calibration stream is the preset's own, not the caller's
        monkeypatch.setitem(config.CALIBRATION_BANDS, check, band)
        config._check_calibration.cache_clear()
        with pytest.raises(ConfigError, match=f"calibration failed: {check} = "):
            section_4_4_preset(seed=1, total_cycles=1, samples_per_cycle=1)


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
