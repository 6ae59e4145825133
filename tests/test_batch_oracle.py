"""Differential test: the columnar cycle (``generate_cycle`` ->
``CyclePipeline.run_batch`` -> ``rl_update``) against the sample-at-a-time
oracle in ``tests/scalar_oracle.py``, compared bit for bit."""

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeagent.config import AgentSpec
from freeagent.domain import FRAUD_ROLE, SENSITIVE_START, Agent, AgentStatus
from freeagent.metrics import AgentWindow
from freeagent.moe import Expert, rl_update
from freeagent import pipeline as pipeline_module
from freeagent.pipeline import CyclePipeline, decide, expert_matrices
from freeagent.simulator import PatternSpec, Segment, StreamConfig, generate_cycle
from tests import scalar_oracle as oracle

PATTERNS = (
    PatternSpec("A", 0.3, {0: 2.0}, (0.7, 0.3, 0.0)),
    PatternSpec("B", 0.5, {1: 1.0, 2: 1.5, 3: 2.0}, (0.0, 0.3, 0.7)),
    PatternSpec("C", 0.6, {4: -1.0}, (0.4, 0.4, 0.2)),
)
# Few distinct values, so gate affinities and expert choices tie often.
PROFILES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0), (1.0, 1.0, 1.0))
# Negative weights on the sensitive suffix (coordinates 3-5) give -0.0
# products in the oracle's zero-filled Restricted view.
WEIGHTS = (0.0, 1.0, -1.0, 0.5, -0.25, 0.3)
GATE_WEIGHTS = (0.0, 0.0, 0.25, 0.5, 1.0)  # 0.0: a starved expert that underflowed


def hexes(values):
    return [float(v).hex() for v in values]


@st.composite
def experts(draw):
    return Expert(
        profile=draw(st.sampled_from(PROFILES)),
        weights=tuple(draw(st.lists(st.sampled_from(WEIGHTS), min_size=6, max_size=6))),
        threshold=draw(st.sampled_from((-0.5, 0.0, 0.5, 1.0))),
    )


@st.composite
def gate_weights(draw, n):
    weights = [draw(st.sampled_from(GATE_WEIGHTS)) for _ in range(n)]
    if sum(weights) == 0:
        weights[-1] = 1.0
    return tuple(weights)


def signed_zero_twin(chosen):
    """``chosen`` with the sign of its first zero flipped, in a profile or
    else in the weights: equal as floats, other bytes. None without a zero."""
    for i, expert in enumerate(chosen):
        for field in ("profile", "weights"):
            values = getattr(expert, field)
            if 0.0 in values:
                k = values.index(0.0)
                flipped = values[:k] + (-values[k],) + values[k + 1:]
                return chosen[:i] + (replace(expert, **{field: flipped}),) + chosen[i + 1:]
    return None


@st.composite
def rosters(draw):
    """Agents with experts of their own, replicas sharing one expert tuple
    with their own gates, reliabilities and statuses, and signed-zero twins
    of that tuple."""
    n_active = draw(st.integers(0, 4))
    n_shadow = draw(st.integers(0, 3))
    shared = tuple(draw(st.lists(experts(), min_size=1, max_size=4)))
    twin = signed_zero_twin(shared) or shared
    roster = {}
    for agent_id in draw(st.permutations(range(n_active + n_shadow))):
        status = AgentStatus.ACTIVE if len(roster) < n_active else AgentStatus.PROBATIONARY
        chosen = draw(st.sampled_from((None, shared, twin)))
        if chosen is None:
            chosen = tuple(draw(st.lists(experts(), min_size=1, max_size=4)))
        spec = AgentSpec(
            role=FRAUD_ROLE,
            skills=frozenset({"fraud"}),
            experts=chosen,
            learning_rate=draw(st.sampled_from((0.05, 0.3))),
            handoff_reliability=draw(st.sampled_from((1.0, 0.9, 0.5, 0.0))),
            misbehaving=draw(st.booleans()),
        )
        roster[agent_id] = Agent(
            id=agent_id,
            spec=spec,
            status=status,
            gate_weights=draw(gate_weights(len(chosen))),
            performance=draw(st.sampled_from((0.0, 0.5, 0.9))),
        )
    return roster


@st.composite
def streams(draw):
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
    total = sum(weights)
    return StreamConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        samples_per_cycle=draw(st.sampled_from((1, 2, 50, 1000, 2049))),
        total_cycles=2,
        patterns=PATTERNS,
        schedule=(
            Segment(0, {"A": 1.0}),
            Segment(1, dict(zip("ABC", (w / total for w in weights)))),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(stream=streams(), cycle=st.integers(0, 1), roster=rosters())
def test_batch_cycle_matches_scalar_oracle(stream, cycle, roster):
    calls = []

    def spy(experts, gate_weights, features, modality):
        calls.append(((b"".join(array.tobytes() for array in experts),
                       len(features) == SENSITIVE_START), modality.shape[1]))
        return decide(experts, gate_weights, features, modality)

    pipe = CyclePipeline(roster, seed=stream.seed, cycle=cycle, emit_detections=True)
    batch = generate_cycle(stream, cycle)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "decide", spy)
        pipe.run_batch(batch)

    # One call per group and block of columns: the agents that decided,
    # keyed on their experts' bytes and their view, so replicas decide
    # together and signed-zero twins apart.
    groups = {}
    for agent in roster.values():
        if decided := pipe.log.windows[agent.id].samples_seen:
            key = (agent.spec.expert_key, agent.status is AgentStatus.PROBATIONARY)
            groups[key] = groups.get(key, 0) + decided
    block = pipeline_module.BLOCK_COLUMNS
    assert sorted(calls) == sorted(
        (key, min(block, total - lo)) for key, total in groups.items()
        for lo in range(0, total, block))

    ref = oracle.ScalarPipeline(roster, seed=stream.seed, cycle=cycle)
    samples = oracle.generate_cycle_samples(stream, cycle)
    for sample in samples:
        ref.process_sample(sample)

    def counts(windows):  # every tally but the net rewards, which the oracle keeps apart;
        # zero for an agent the oracle never reached, so it made no window
        return {a: astuple(replace(windows.get(a, AgentWindow()), net=None)) for a in roster}

    assert sorted(pipe.log.windows) == sorted(roster)  # one window per roster agent
    assert counts(pipe.log.windows) == counts(ref.windows)
    assert pipe.stalled_samples == ref.stalled_samples
    nets = {a: w.net for a, w in pipe.log.windows.items() if w.net is not None}
    assert sorted(nets) == sorted(ref.rewards)
    for agent_id, net in ref.rewards.items():
        assert hexes(nets[agent_id]) == hexes(net)
        agent = roster[agent_id]
        updated = rl_update(agent.gate_weights, agent.spec.learning_rate, nets[agent_id])
        assert hexes(updated) == hexes(
            oracle.rl_update(agent.gate_weights, agent.spec.learning_rate, net))

    # byte for byte: the hand-built lines against json's
    assert pipe.detections == [d.line() for d in ref.detections]

    # The kernel on both views, all feature rows and a shadow's first
    # SENSITIVE_START against the oracle's zero-filled row, for every agent.
    for agent in roster.values():
        agent_experts = agent.spec.experts
        for restricted in (False, True):
            features = batch.features[:SENSITIVE_START] if restricted else batch.features
            chosen, score, verdict = decide(agent.spec.matrices, agent.gate_weights,
                                            features, batch.modality)
            expected = []
            for s in samples:
                idx = oracle.gate(agent_experts, agent.gate_weights, s.modality)
                expected.append((idx, *oracle.expert_score(
                    agent_experts[idx],
                    oracle.redact(s.features) if restricted else s.features)))
            got = zip(chosen.tolist(), score.tolist(), verdict.tolist())
            assert [(i, x.hex(), v) for i, x, v in got] == [
                (i, x.hex(), v) for i, x, v in expected
            ]


def tallies(pipe):
    """Every window's counts and net rewards, the nets as hex."""
    return {a: (astuple(replace(w, net=None)), w.net and hexes(w.net))
            for a, w in pipe.log.windows.items()}


@settings(max_examples=30, deadline=None)
@given(stream=streams(), cycle=st.integers(0, 1), roster=rosters())
def test_blocks_of_three_columns_decide_as_one_block(stream, cycle, roster):
    batch = generate_cycle(stream, cycle)

    def run():
        pipe = CyclePipeline(roster, seed=stream.seed, cycle=cycle, emit_detections=True)
        pipe.run_batch(batch)
        return pipe

    whole = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "BLOCK_COLUMNS", 3)
        blocks = run()
    assert tallies(blocks) == tallies(whole)
    assert blocks.detections == whole.detections


@pytest.mark.parametrize("block", [None, 3], ids=["one-block", "blocks-of-3"])
def test_replicas_an_active_agent_and_a_shadow_and_twins(block):
    # six replicas of one expert tuple as in the dispatch workload, one of
    # them in shadow, and a signed-zero twin: three groups, decided in one
    # block each or in blocks of three columns, every byte the oracle's
    stream = StreamConfig(seed=42, samples_per_cycle=300, total_cycles=2, patterns=PATTERNS,
                          schedule=(Segment(0, {"A": 0.5, "B": 0.3, "C": 0.2}),))
    shared = (Expert((1.0, 0.0, 0.5), (1.0, 0.5, 0.0, -0.25, 0.3, 1.0), 0.5),
              Expert((0.0, 1.0, 0.0), (0.0, 1.0, 1.0, 0.5, -1.0, 0.0), 1.0))
    twin = signed_zero_twin(shared)
    assert twin == shared  # equal as floats

    def agent(agent_id, chosen, status=AgentStatus.ACTIVE):
        spec = AgentSpec(FRAUD_ROLE, frozenset({"fraud"}), chosen, handoff_reliability=0.4)
        gate = (0.25 + agent_id, 1.0)
        return Agent(id=agent_id, spec=spec, status=status, gate_weights=gate,
                     performance=1.0 - agent_id / 10)

    roster = {i: agent(i, shared) for i in range(5)}
    roster[5] = agent(5, shared, AgentStatus.PROBATIONARY)
    roster[6] = agent(6, twin)
    assert len({a.spec.expert_key for a in roster.values()}) == 2
    calls = []

    def spy(experts, gate_weights, features, modality):
        calls.append(experts)
        return decide(experts, gate_weights, features, modality)

    pipe = CyclePipeline(roster, seed=stream.seed, cycle=1, emit_detections=True)
    batch = generate_cycle(stream, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "decide", spy)
        if block:
            patch.setattr(pipeline_module, "BLOCK_COLUMNS", block)
        pipe.run_batch(batch)
    # the groups in call order: the Active replicas, the twin, the shadow
    runs = [m for k, m in enumerate(calls) if not k or m is not calls[k - 1]]
    assert [id(m) for m in runs] == [id(roster[i].spec.matrices) for i in (0, 6, 5)]
    assert len(calls) == 3 if block is None else len(calls) > 3
    assert all(pipe.log.windows[i].samples_seen for i in roster)  # every agent decided

    ref = oracle.ScalarPipeline(roster, seed=stream.seed, cycle=1)
    for sample in oracle.generate_cycle_samples(stream, 1):
        ref.process_sample(sample)
    assert tallies(pipe) == {a: (astuple(replace(w, net=None)), hexes(ref.rewards[a]))
                             for a, w in ref.windows.items()}
    assert pipe.detections == [d.line() for d in ref.detections]


def test_negative_weight_on_redacted_coordinate_scores_plus_zero():
    # every visible product is -0.0: zero weights on negative features; the
    # suffix is not given. A scalar sum() over the zero-filled row, whose
    # suffix products are -0.0 too, starts from 0 and returns +0.0, which
    # detections.jsonl shows
    expert = Expert(profile=(1.0, 0.0, 0.0), weights=(0.0, 0.0, 0.0, -1.0, -0.5, -2.0),
                    threshold=0.5)
    features = np.array([[-1.5], [-2.0], [-0.3], [4.0], [1.0], [-2.0]])  # one sample
    _, score, _ = decide(expert_matrices((expert,)), (1.0,), features[:SENSITIVE_START],
                         np.array([[1.0], [0.0], [0.0]]))
    expected = oracle.expert_score(expert, oracle.redact(tuple(features[:, 0].tolist())))[0]
    assert score[0].hex() == expected.hex() == "0x0.0p+0"
