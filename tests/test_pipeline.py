"""Dispatch, the views agents decide on, shadow processing, and handoff
behaviour."""

import inspect
import json

import numpy as np
import pytest

from freeagent import pipeline as pipeline_module
from freeagent.config import AgentSpec
from freeagent.domain import (
    FEATURE_DIM,
    FRAUD_ROLE,
    SENSITIVE_START,
    Agent,
    AgentStatus,
)
from freeagent.metrics import AgentWindow
from freeagent.moe import Expert, uniform_gate
from freeagent.pipeline import CyclePipeline, decide
from freeagent.simulator import SampleBatch


def detector(agent_id, status=AgentStatus.ACTIVE, performance=0.0, threshold=0.5,
             reliability=1.0, weights=None, skills=("fraud",), misbehaving=False):
    """Agent with one expert scoring feature 0."""
    spec = AgentSpec(
        role=FRAUD_ROLE,
        skills=frozenset(skills),
        experts=(Expert(profile=(1.0, 0.0, 0.0),
                        weights=weights or (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                        threshold=threshold),),
        handoff_reliability=reliability,
        misbehaving=misbehaving,
    )
    agent = Agent(id=agent_id, spec=spec, status=status, gate_weights=uniform_gate(1))
    agent.performance = performance
    return agent


def batch(features, label=False, n=1):
    """``n`` copies of one sample with modality (1, 0, 0), seqs from 0."""
    return SampleBatch(
        seq0=0,
        features=np.tile(np.array(features, dtype=float)[:, None], (1, n)),
        modality=np.tile([[1.0], [0.0], [0.0]], (1, n)),
        label=np.full(n, label),
        pattern=np.zeros(n, dtype=int),
    )


def pipeline(roster, seed=1, **kwargs):
    return CyclePipeline(roster, seed=seed, cycle=0, emit_detections=True, **kwargs)


def detections(pipe):
    """The pipeline's detections.jsonl lines, parsed."""
    return [json.loads(line) for line in pipe.detections]


def dispatch_one(roster):
    """Run one fraud sample through a pipeline; return it and its detections."""
    pipe = pipeline(roster)
    pipe.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True))
    return pipe, detections(pipe)


def assigned(rows):
    return [d["agent"] for d in rows if not d["shadow"]]


class TestSelectFraudAgent:
    def test_performance_argmax(self):
        roster = {2: detector(2, performance=0.7), 1: detector(1, performance=0.9)}
        pipe, rows = dispatch_one(roster)
        assert assigned(rows) == [1]
        assert pipe.log.windows[1].samples_seen == 1
        assert pipe.log.windows[2].samples_seen == 0

    def test_tie_breaks_to_lowest_id(self):
        roster = {5: detector(5, performance=0.8), 3: detector(3, performance=0.8)}
        _, rows = dispatch_one(roster)
        assert assigned(rows) == [3]

    def test_probationary_never_selected(self):
        roster = {1: detector(1, status=AgentStatus.PROBATIONARY, performance=0.99)}
        pipe, rows = dispatch_one(roster)
        assert assigned(rows) == []
        assert [d["agent"] for d in rows if d["shadow"]] == [1]
        assert pipe.stalled_samples == 1

    def test_empty_roster(self):
        pipe, rows = dispatch_one({})
        assert rows == []
        assert pipe.stalled_samples == 1


class TestWindows:
    def test_the_pipeline_makes_one_window_per_roster_agent(self):
        assert "log" not in inspect.signature(CyclePipeline).parameters  # no log is given
        roster = {3: detector(3, performance=0.9), 1: detector(1, performance=0.5),
                  2: detector(2, status=AgentStatus.PROBATIONARY, reliability=0.0)}
        pipe = pipeline(roster)
        assert pipe.log.windows == {agent_id: AgentWindow() for agent_id in roster}
        pipe.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True, n=4))
        windows = pipe.log.windows
        assert sorted(windows) == sorted(roster)
        assert len({id(win) for win in windows.values()}) == len(roster)  # none shared
        assert windows[3].samples_seen == 4 and windows[3].net == [4.0]
        # agent 3 took every sample, so agent 1 was never reached
        assert windows[1] == AgentWindow() and windows[1].net is None
        # every handoff to the shadow failed: attempted, nothing decided
        assert windows[2] == AgentWindow(handoffs_attempted=4)

    def test_an_empty_roster_has_no_window(self):
        pipe = pipeline({})
        pipe.run_batch(3)
        assert pipe.log.windows == {}

    def test_a_batch_given_as_its_size_needs_an_empty_roster(self):
        # a roster would draw its handoffs and then have no samples to
        # decide: refused before any window is touched
        roster = {1: detector(1, performance=0.9),
                  2: detector(2, status=AgentStatus.PROBATIONARY)}
        pipe = pipeline(roster)
        with pytest.raises(TypeError, match="only an empty roster may be given a batch's size"):
            pipe.run_batch(1000)
        assert pipe.log.windows == {agent_id: AgentWindow() for agent_id in roster}
        assert pipe.stalled_samples == 0 and pipe.detections == []


class TestNumpyState:
    """``run_batch`` decides under its own numpy error state and ufunc
    buffer size and leaves both as it found them."""

    ROSTER = {1: detector(1, performance=0.9), 2: detector(2, status=AgentStatus.PROBATIONARY)}

    def test_the_dispatch_state_is_set_while_deciding_and_undone_after(self, monkeypatch):
        seen = []

        def spy(*args):
            seen.append((np.getbufsize(), np.geterr()["over"], np.geterr()["invalid"]))
            return decide(*args)

        monkeypatch.setattr(pipeline_module, "decide", spy)
        with np.errstate(divide="raise", over="warn"):
            np.setbufsize(4096)
            before = np.getbufsize(), np.geterr()
            pipeline(self.ROSTER).run_batch(batch((0.9, 0, 0, 0, 0, 0), n=4))
            assert (np.getbufsize(), np.geterr()) == before
        assert seen == [(pipeline_module.DECIDE_BUFSIZE, "ignore", "ignore")] * 2

    def test_a_decide_that_raises_leaves_numpy_as_it_was(self, monkeypatch):
        calls = []

        def fails_second(*args):
            calls.append(args)
            if len(calls) == 2:  # the shadow's group, after the Active one decided
                raise RuntimeError("decide failed")
            return decide(*args)

        monkeypatch.setattr(pipeline_module, "decide", fails_second)
        before = np.getbufsize(), np.geterr()
        with pytest.raises(RuntimeError, match="decide failed"):
            pipeline(self.ROSTER).run_batch(batch((0.9, 0, 0, 0, 0, 0), n=4))
        assert len(calls) == 2
        assert (np.getbufsize(), np.geterr()) == before


class TestViews:
    FEATURES = (0.9, 0.1, 0.2, 0.7, 0.3, 0.5)

    def test_full_is_identity(self):
        # an Active agent decides on the batch's own rows, suffix included
        pipe = pipeline({0: detector(0, weights=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0))})
        pipe.run_batch(batch((0.0, 0, 0, 5.0, 0, 0), label=True))
        [row] = detections(pipe)
        assert (row["verdict"], row["score"]) == (True, 5.0)

    def test_a_shadow_is_given_only_the_visible_columns(self, monkeypatch):
        given = []

        def spy(experts, gate_weights, features, modality):
            given.append(features.T.tolist())  # one list per sample
            if len(features) == SENSITIVE_START:  # a shadow call: no array it views is taller
                base = features
                while base is not None:
                    assert np.ndim(base) == 2 and len(base) <= SENSITIVE_START
                    base = base.base
            return decide(experts, gate_weights, features, modality)

        monkeypatch.setattr(pipeline_module, "decide", spy)
        roster = {0: detector(0), 1: detector(1, status=AgentStatus.PROBATIONARY),
                  2: detector(2, status=AgentStatus.PROBATIONARY, misbehaving=True)}
        pipe = pipeline(roster)
        pipe.run_batch(batch(self.FEATURES, n=2))
        # Per call: every column is an Active agent's, on every feature, or
        # every column a shadow's, on the visible ones. The two shadows share
        # their experts, so they share one call.
        full, visible = list(self.FEATURES), list(self.FEATURES[:SENSITIVE_START])
        for rows in given:
            assert rows in ([full] * len(rows), [visible] * len(rows))
        seen = {AgentStatus.ACTIVE: 0, AgentStatus.PROBATIONARY: 0}
        for agent in roster.values():
            seen[agent.status] += pipe.log.windows[agent.id].samples_seen
        assert seen == {AgentStatus.ACTIVE: 2, AgentStatus.PROBATIONARY: 4}
        assert given == [[full] * 2, [visible] * 4]  # the Active agents' call first
        # the misbehaving shadow's attempts on the raw samples are still tallied
        assert [pipe.log.windows[a].violations for a in roster] == [0, 0, 2]

    def test_a_shadows_array_shares_no_memory_with_the_sensitive_rows(self, monkeypatch):
        given = []

        def spy(experts, gate_weights, features, modality):
            given.append(features)
            return decide(experts, gate_weights, features, modality)

        monkeypatch.setattr(pipeline_module, "decide", spy)
        roster = {0: detector(0), 1: detector(1, status=AgentStatus.PROBATIONARY)}
        b = batch(self.FEATURES, n=4)
        pipeline(roster).run_batch(b)
        active, shadow = given
        assert active.shape == (FEATURE_DIM, 4) and shadow.shape == (SENSITIVE_START, 4)
        assert not np.shares_memory(shadow, b.features[SENSITIVE_START:])
        assert not np.shares_memory(shadow, b.features)  # a fresh array, not a view

    def test_label_and_pattern_not_readable_by_decision(self):
        # the decision path takes only features and modality
        agent = detector(0)
        for label in (True, False):
            b = batch((0.9, 0, 0, 0, 0, 0), label=label)
            _, _, verdict = decide(agent.spec.matrices, agent.gate_weights, b.features, b.modality)
            assert verdict.tolist() == [True]  # from the score, not the label


class TestProcessSample:
    def test_fraud_sample_blocks_and_counts_tp(self):
        roster = {0: detector(0)}
        pipe = pipeline(roster)
        assert pipe.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True)) is None
        [row] = detections(pipe)
        assert row["verdict"] is True and row["shadow"] is False
        assert row["action"] == "Block"
        assert pipe.log.windows[0].true_positives == 1

    def test_shadow_false_positive_takes_no_action(self):
        roster = {0: detector(0, threshold=99.0), 1: detector(1, status=AgentStatus.PROBATIONARY)}
        pipe = pipeline(roster)
        pipe.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=False))
        active, shadow = detections(pipe)
        assert (active["agent"], active["verdict"]) == (0, False)  # assigned agent says legit
        assert (shadow["agent"], shadow["verdict"]) == (1, True)   # shadow says fraud
        assert active["action"] == shadow["action"] == "None"
        assert pipe.log.windows[1].false_positives == 1

    def test_shadow_decides_on_restricted_view(self):
        # shadow weights the sensitive suffix, which it cannot see
        shadow = detector(
            1, status=AgentStatus.PROBATIONARY, weights=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        )
        roster = {0: detector(0), 1: shadow}
        pipe = pipeline(roster)
        pipe.run_batch(batch((0.0, 0, 0, 5.0, 0, 0), label=True))
        [row] = [d for d in detections(pipe) if d["shadow"]]
        assert row["verdict"] is False
        assert row["score"] == 0.0

    def test_no_active_agent_stalls_but_shadows_run(self):
        roster = {1: detector(1, status=AgentStatus.PROBATIONARY)}
        pipe = pipeline(roster)
        pipe.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True))
        assert pipe.stalled_samples == 1
        [row] = detections(pipe)
        assert row["agent"] == 1 and row["shadow"] and row["action"] == "None"

    def test_handoff_failures_traced_under_fixed_seed(self):
        roster = {0: detector(0, reliability=0.5)}
        pipe = pipeline(roster, seed=99)
        n = 200
        pipe.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True, n=n))
        win = pipe.log.windows[0]
        assert win.handoffs_attempted == n
        # skipped samples leave no confusion-counter trace
        assert win.samples_seen == win.handoffs_succeeded == len(pipe.detections)
        assert 60 <= win.handoffs_succeeded <= 140

        # identical seed reproduces the exact same handoff outcomes
        pipe2 = pipeline({0: detector(0, reliability=0.5)}, seed=99)
        pipe2.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True, n=n))
        assert pipe2.log.windows[0].handoffs_succeeded == win.handoffs_succeeded
        assert pipe2.detections == pipe.detections

    def test_failed_handoff_falls_through_to_backup(self):
        never = detector(0, performance=0.9, reliability=0.0)
        backup = detector(1, performance=0.5)
        pipe = pipeline({0: never, 1: backup})
        pipe.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True))
        assert [d["agent"] for d in detections(pipe)] == [1]
        assert pipe.log.windows[0].handoffs_attempted == 1
        assert pipe.log.windows[0].samples_seen == 0
        assert pipe.log.windows[1].true_positives == 1

    def test_net_rewards_recorded_per_expert(self):
        roster = {0: detector(0)}
        pipe = pipeline(roster)
        two = batch((0.9, 0, 0, 0, 0, 0), n=2)
        two.label[0] = True  # the fraud verdict is correct on seq 0, wrong on seq 1
        pipe.run_batch(two)
        assert pipe.log.windows[0].net == [0.0]  # +1 and -1 on expert 0

    def test_misbehaving_restricted_agent_logged_not_leaked(self):
        shadow = detector(1, status=AgentStatus.PROBATIONARY, misbehaving=True)
        roster = {0: detector(0), 1: shadow}
        pipe = pipeline(roster)
        pipe.run_batch(batch((0.0, 0, 0, 9.0, 0, 0), label=True))
        assert pipe.log.windows[1].violations == 1
        # decision still based on the visible columns (sensitive suffix not given)
        [row] = [d for d in detections(pipe) if d["shadow"]]
        assert row["verdict"] is False

    def test_misbehaving_full_tier_agent_never_violates(self):
        roster = {0: detector(0, misbehaving=True)}
        pipe = pipeline(roster)
        pipe.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True))
        assert pipe.log.windows[0].violations == 0


class TestShadowIsolation:
    def test_no_action_ever_from_probationary(self):
        roster = {
            0: detector(0, threshold=0.5),
            1: detector(1, status=AgentStatus.PROBATIONARY, threshold=-99.0),  # always fraud
        }
        pipe = pipeline(roster, seed=5)
        pipe.run_batch(batch((0.1, 0, 0, 0, 0, 0), label=False, n=50))
        assert all(d["action"] == "None" for d in detections(pipe))
        shadow_rows = [d for d in detections(pipe) if d["shadow"]]
        assert len(shadow_rows) == 50
        assert all(d["verdict"] for d in shadow_rows)

    def test_dispatch_totality_with_reliable_agents(self):
        roster = {0: detector(0), 1: detector(1)}
        pipe = pipeline(roster, seed=5)
        assert pipe.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True, n=40)) is None
        non_shadow = [d for d in detections(pipe) if not d["shadow"]]
        assert [d["seq"] for d in non_shadow] == list(range(40))

    def test_detection_rows_built_only_when_emitted(self):
        roster = {0: detector(0), 1: detector(1, status=AgentStatus.PROBATIONARY)}
        pipe = CyclePipeline(roster, seed=5, cycle=0)
        pipe.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True, n=3))
        assert pipe.detections == []
        assert pipe.log.windows[0].true_positives == pipe.log.windows[1].true_positives == 3
        emitted = pipeline(roster, seed=5)
        emitted.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True, n=3))
        assert [(d["seq"], d["agent"]) for d in detections(emitted)] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
        ]
        # Per seq the assigned row comes first, then the shadows by id,
        # even when the assigned agent's id is above theirs.
        roster = {3: detector(3), 2: detector(2, status=AgentStatus.PROBATIONARY),
                  1: detector(1, status=AgentStatus.PROBATIONARY)}
        emitted = pipeline(roster, seed=5)
        emitted.run_batch(batch((0.9, 0, 0, 0, 0, 0), label=True, n=2))
        assert [(d["seq"], d["agent"], d["shadow"]) for d in detections(emitted)] == [
            (0, 3, False), (0, 1, True), (0, 2, True), (1, 3, False), (1, 1, True), (1, 2, True)
        ]
