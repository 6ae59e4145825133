"""Confusion bookkeeping and the ratios of the counts."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from freeagent import engine as engine_module
from freeagent.metrics import AgentWindow, count_ratios
from freeagent.pipeline import CyclePipeline
from freeagent.simulator import SampleBatch
from tests.test_engine import small_config
from tests.test_pipeline import detector


def f1(tp: int, fp: int, fn: int) -> float:
    """The F1 that ``count_ratios`` gives; true negatives do not enter it."""
    return count_ratios(tp, fp, fn, 0)[2]


def f1_oracle(tp: int, fp: int, fn: int) -> float:
    """Independent harmonic-mean identity: F1 = 2TP / (2TP + FP + FN)."""
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def decide_batch(verdicts: list[bool], labels: list[bool]) -> AgentWindow:
    """Have one Active detector decide a batch with the given verdicts and
    labels; return its window."""
    n = len(verdicts)
    features = np.zeros((6, n))
    features[0] = verdicts  # the detector says fraud iff feature 0 >= 0.5
    batch = SampleBatch(seq0=0, features=features, modality=np.repeat([[1.0], [0.0], [0.0]], n, 1),
                        label=np.array(labels, dtype=bool), pattern=np.zeros(n, dtype=int))
    pipe = CyclePipeline({0: detector(0)}, seed=0, cycle=0)
    pipe.run_batch(batch)
    return pipe.log.windows[0]


class TestUpdateFraudMetrics:
    @pytest.mark.parametrize(
        "verdict,label,counter",
        [
            (True, True, "true_positives"),
            (True, False, "false_positives"),
            (False, True, "false_negatives"),
            (False, False, "true_negatives"),
        ],
    )
    def test_exactly_one_counter_moves(self, verdict, label, counter):
        win = decide_batch([verdict], [label])
        for name in ("true_positives", "false_positives", "false_negatives", "true_negatives"):
            assert getattr(win, name) == (1 if name == counter else 0)
        assert win.samples_seen == 1

    def test_confusion_sum_equals_decided(self):
        rng = random.Random(7)
        n = 200
        pairs = [(rng.random() < 0.5, rng.random() < 0.5) for _ in range(n)]
        win = decide_batch([v for v, _ in pairs], [lab for _, lab in pairs])
        assert win.true_positives == sum(v and lab for v, lab in pairs)
        assert win.true_negatives == sum(not v and not lab for v, lab in pairs)
        counters = win.true_positives + win.false_positives
        counters += win.false_negatives + win.true_negatives
        assert counters == n == win.samples_seen


class TestF1:
    def test_balanced_example(self):
        assert f1(8, 2, 2) == pytest.approx(0.8, abs=1e-12)

    def test_all_zero_window_is_zero(self):
        assert f1(0, 0, 0) == 0.0

    def test_perfect_detection(self):
        assert f1(5, 0, 0) == 1.0

    def test_uneven_example(self):
        # P=0.5, R=0.25 -> F1=1/3
        assert f1(1, 1, 3) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    def test_matches_harmonic_oracle(self, tp, fp, fn):
        assert abs(f1(tp, fp, fn) - f1_oracle(tp, fp, fn)) < 1e-12

    @given(*(st.integers(0, 100) for _ in range(4)))
    def test_count_ratios_match_definitions(self, tp, fp, fn, tn):
        precision, recall, f1_score, accuracy = count_ratios(tp, fp, fn, tn)
        assert precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert recall == (tp / (tp + fn) if tp + fn else 0.0)
        assert f1_score == f1(tp, fp, fn)
        assert accuracy == ((tp + tn) / (tp + fp + fn + tn) if tp + fp + fn + tn else 0.0)

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    def test_bounded_and_one_only_when_clean(self, tp, fp, fn):
        value = f1(tp, fp, fn)
        assert 0.0 <= value <= 1.0
        assert (value == 1.0) == (fp == 0 and fn == 0 and tp > 0)


def test_window_reset_clears_everything(monkeypatch):
    # each cycle's pipeline starts a log of that cycle alone
    logs = []

    class Recording(CyclePipeline):
        def __init__(self, roster, *args, **kwargs):
            super().__init__(roster, *args, **kwargs)
            # nothing carried over, handoffs and violations included
            assert self.log.windows == {agent_id: AgentWindow() for agent_id in roster}
            logs.append(self.log)

    monkeypatch.setattr(engine_module, "CyclePipeline", Recording)
    engine = engine_module.Engine(small_config(cycles=3))
    for _ in range(3):
        engine.run_cycle()
    assert len({id(log) for log in logs}) == 3
    for log in logs:
        win = log.windows[0]
        assert win.samples_seen == win.handoffs_attempted == 60
