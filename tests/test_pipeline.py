"""Dispatch, redaction, shadow processing, and handoff behaviour."""

import pytest

from freeagent.domain import (
    AccessTier,
    Agent,
    AgentStatus,
    DataSample,
)
from freeagent.metrics import PerformanceLog
from freeagent.moe import Expert, uniform_moe
from freeagent.pipeline import (
    Action,
    CyclePipeline,
    decide,
    quantize_coarse,
    redact,
)


def detector(agent_id, status=AgentStatus.ACTIVE, performance=0.0, threshold=0.5,
             reliability=1.0, weights=None):
    """Agent with one expert scoring feature 0."""
    agent = Agent(
        id=agent_id,
        role="FraudDetection",
        skills=frozenset({"fraud"}),
        status=status,
        moe=uniform_moe(
            (Expert(profile=(1.0, 0.0, 0.0),
                    weights=weights or (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                    threshold=threshold),)
        ),
        handoff_reliability=reliability,
    )
    agent.performance = performance
    return agent


def sample(features, label=False, seq=0):
    return DataSample(
        seq=seq, features=tuple(features), modality=(1.0, 0.0, 0.0), label=label, pattern="A"
    )


def dispatch_one(roster, log=None):
    """Run one fraud sample through a pipeline; return it and its detections."""
    pipe = CyclePipeline(roster, log or PerformanceLog(), seed=1, cycle=0)
    pipe.process_sample(sample((0.9, 0, 0, 0, 0, 0), label=True))
    return pipe, pipe.detections


def assigned(detections):
    return [d.agent for d in detections if not d.shadow]


class TestSelectFraudAgent:
    def test_performance_argmax(self):
        log = PerformanceLog()
        roster = {2: detector(2, performance=0.7), 1: detector(1, performance=0.9)}
        _, rows = dispatch_one(roster, log)
        assert assigned(rows) == [1]
        assert log.window(1).samples_seen == 1
        assert log.window(2).samples_seen == 0

    def test_tie_breaks_to_lowest_id(self):
        roster = {5: detector(5, performance=0.8), 3: detector(3, performance=0.8)}
        _, rows = dispatch_one(roster)
        assert assigned(rows) == [3]

    def test_probationary_never_selected(self):
        roster = {1: detector(1, status=AgentStatus.PROBATIONARY, performance=0.99)}
        pipe, rows = dispatch_one(roster)
        assert assigned(rows) == []
        assert [d.agent for d in rows if d.shadow] == [1]
        assert pipe.stalled_samples == 1

    def test_empty_roster(self):
        pipe, rows = dispatch_one({})
        assert rows == []
        assert pipe.stalled_samples == 1


class TestRedact:
    FEATURES = (0.9, 0.1, 0.2, 0.7, 0.3, 0.5)

    def test_full_is_identity(self):
        s = sample(self.FEATURES)
        assert redact(s, AccessTier.FULL) is s

    def test_restricted_zeroes_sensitive_suffix(self):
        red = redact(sample(self.FEATURES), AccessTier.RESTRICTED)
        assert red.features == (0.9, 0.1, 0.2, 0.0, 0.0, 0.0)

    def test_sandbox_quantizes_and_zeroes(self):
        red = redact(sample((0.87, -0.14, 1.25, 0.7, 0.3, 0.5)), AccessTier.SANDBOX)
        assert red.features == (0.9, -0.1, 1.3, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "value,expected",
        [(0.87, 0.9), (0.85, 0.9), (-0.85, -0.9), (0.84, 0.8), (0.0, 0.0), (1.25, 1.3)],
    )
    def test_quantize_half_away_from_zero(self, value, expected):
        assert quantize_coarse(value) == pytest.approx(expected)

    def test_label_and_pattern_not_readable_by_decision(self):
        # the decision path takes only features and modality
        agent = detector(0)
        s = sample((0.9, 0, 0, 0, 0, 0), label=True)
        d = decide(agent, s.features, s.modality)
        assert d.verdict is True  # from the score, not the label


class TestProcessSample:
    def test_fraud_sample_blocks_and_counts_tp(self):
        roster = {0: detector(0)}
        log = PerformanceLog()
        pipe = CyclePipeline(roster, log, seed=1, cycle=0)
        assert pipe.process_sample(sample((0.9, 0, 0, 0, 0, 0), label=True)) is None
        [row] = pipe.detections
        assert row.verdict is True and row.shadow is False
        assert row.action == Action.BLOCK
        assert log.window(0).true_positives == 1

    def test_shadow_false_positive_takes_no_action(self):
        roster = {0: detector(0, threshold=99.0), 1: detector(1, status=AgentStatus.PROBATIONARY)}
        log = PerformanceLog()
        pipe = CyclePipeline(roster, log, seed=1, cycle=0)
        pipe.process_sample(sample((0.9, 0, 0, 0, 0, 0), label=False))
        active, shadow = pipe.detections
        assert (active.agent, active.verdict) == (0, False)  # assigned agent says legit
        assert (shadow.agent, shadow.verdict) == (1, True)   # shadow says fraud
        assert active.action == shadow.action == Action.NONE
        assert log.window(1).false_positives == 1

    def test_shadow_decides_on_restricted_view(self):
        # shadow weights the sensitive suffix, which it cannot see
        shadow = detector(
            1, status=AgentStatus.PROBATIONARY, weights=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        )
        roster = {0: detector(0), 1: shadow}
        pipe = CyclePipeline(roster, PerformanceLog(), seed=1, cycle=0)
        pipe.process_sample(sample((0.0, 0, 0, 5.0, 0, 0), label=True))
        [row] = [d for d in pipe.detections if d.shadow]
        assert row.verdict is False
        assert row.score == 0.0

    def test_no_active_agent_stalls_but_shadows_run(self):
        roster = {1: detector(1, status=AgentStatus.PROBATIONARY)}
        pipe = CyclePipeline(roster, PerformanceLog(), seed=1, cycle=0)
        pipe.process_sample(sample((0.9, 0, 0, 0, 0, 0), label=True))
        assert pipe.stalled_samples == 1
        [row] = pipe.detections
        assert row.agent == 1 and row.shadow and row.action == Action.NONE

    def test_handoff_failures_traced_under_fixed_seed(self):
        roster = {0: detector(0, reliability=0.5)}
        log = PerformanceLog()
        pipe = CyclePipeline(roster, log, seed=99, cycle=0)
        n = 200
        for seq in range(n):
            pipe.process_sample(sample((0.9, 0, 0, 0, 0, 0), label=True, seq=seq))
        win = log.window(0)
        assert win.handoffs_attempted == n
        # skipped samples leave no confusion-counter trace
        assert win.samples_seen == win.handoffs_succeeded == len(pipe.detections)
        assert 60 <= win.handoffs_succeeded <= 140

        # identical seed reproduces the exact same handoff outcomes
        log2 = PerformanceLog()
        pipe2 = CyclePipeline({0: detector(0, reliability=0.5)}, log2, seed=99, cycle=0)
        for seq in range(n):
            pipe2.process_sample(sample((0.9, 0, 0, 0, 0, 0), label=True, seq=seq))
        assert log2.window(0).handoffs_succeeded == win.handoffs_succeeded

    def test_failed_handoff_falls_through_to_backup(self):
        never = detector(0, performance=0.9, reliability=0.0)
        backup = detector(1, performance=0.5)
        log = PerformanceLog()
        pipe = CyclePipeline({0: never, 1: backup}, log, seed=1, cycle=0)
        pipe.process_sample(sample((0.9, 0, 0, 0, 0, 0), label=True))
        assert [d.agent for d in pipe.detections] == [1]
        assert log.window(0).handoffs_attempted == 1
        assert log.window(0).samples_seen == 0
        assert log.window(1).true_positives == 1

    def test_reward_signals_recorded_per_sample(self):
        roster = {0: detector(0)}
        pipe = CyclePipeline(roster, PerformanceLog(), seed=1, cycle=0)
        pipe.process_sample(sample((0.9, 0, 0, 0, 0, 0), label=True))   # correct
        pipe.process_sample(sample((0.9, 0, 0, 0, 0, 0), label=False))  # wrong
        assert pipe.rewards[0] == [(0, 1.0), (0, -1.0)]

    def test_misbehaving_restricted_agent_logged_not_leaked(self):
        shadow = detector(1, status=AgentStatus.PROBATIONARY)
        roster = {0: detector(0), 1: shadow}
        log = PerformanceLog()
        pipe = CyclePipeline(roster, log, seed=1, cycle=0, misbehaving=frozenset({1}))
        pipe.process_sample(sample((0.0, 0, 0, 9.0, 0, 0), label=True))
        assert log.window(1).violations == 1
        # decision still based on redacted data (sensitive suffix invisible)
        [row] = [d for d in pipe.detections if d.shadow]
        assert row.verdict is False

    def test_misbehaving_full_tier_agent_never_violates(self):
        roster = {0: detector(0)}
        log = PerformanceLog()
        pipe = CyclePipeline(roster, log, seed=1, cycle=0, misbehaving=frozenset({0}))
        pipe.process_sample(sample((0.9, 0, 0, 0, 0, 0), label=True))
        assert log.window(0).violations == 0


class TestShadowIsolation:
    def test_no_action_ever_from_probationary(self):
        roster = {
            0: detector(0, threshold=0.5),
            1: detector(1, status=AgentStatus.PROBATIONARY, threshold=-99.0),  # always fraud
        }
        pipe = CyclePipeline(roster, PerformanceLog(), seed=5, cycle=0)
        for seq in range(50):
            pipe.process_sample(sample((0.1, 0, 0, 0, 0, 0), label=False, seq=seq))
        assert all(d.action == Action.NONE for d in pipe.detections)
        shadow_rows = [d for d in pipe.detections if d.shadow]
        assert len(shadow_rows) == 50
        assert all(d.verdict for d in shadow_rows)

    def test_dispatch_totality_with_reliable_agents(self):
        roster = {0: detector(0), 1: detector(1)}
        pipe = CyclePipeline(roster, PerformanceLog(), seed=5, cycle=0)
        assert pipe.run_batch(
            [sample((0.9, 0, 0, 0, 0, 0), label=True, seq=s) for s in range(40)]
        ) is None
        non_shadow = [d for d in pipe.detections if not d.shadow]
        assert [d.seq for d in non_shadow] == list(range(40))
