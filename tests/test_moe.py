"""Gating, expert scoring, and the multiplicative gate update."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from freeagent.config import AgentSpec
from freeagent.domain import (
    FRAUD_ROLE,
    Agent,
    AgentStatus,
    ComputationError,
    ConfigError,
    LifecycleError,
)
from freeagent.moe import Expert, MoEState, moe_init, rl_update, uniform_moe
from freeagent.pipeline import decide


def gate(moe, modality):
    """The expert ``decide`` routes one sample with this modality to."""
    features = np.zeros((1, len(moe.experts[0].weights)))
    return int(decide(moe, features, np.array([modality], dtype=float))[0][0])


def expert_score(expert, features):
    """Score and verdict of ``decide`` for one sample scored by ``expert``."""
    moe = MoEState(experts=(expert,), gate_weights=(1.0,))
    modality = np.ones((1, len(expert.profile)))
    _, score, verdict = decide(moe, np.array([features], dtype=float), modality)
    return float(score[0]), bool(verdict[0])


def two_expert_moe(gate_weights=(0.5, 0.5), profiles=((1.0, 0.0), (0.0, 1.0))):
    experts = tuple(
        Expert(profile=p, weights=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), threshold=0.5)
        for p in profiles
    )
    return MoEState(experts=experts, gate_weights=gate_weights)


def make_agent(moe, status=AgentStatus.PROBATIONARY):
    spec = AgentSpec(FRAUD_ROLE, frozenset({"fraud"}), moe.experts, moe.learning_rate)
    return Agent(id=0, spec=spec, status=status, moe=moe)


class TestGate:
    def test_single_expert_always_selected(self):
        moe = MoEState(
            experts=(Expert(profile=(1.0,), weights=(1.0,), threshold=0.0),),
            gate_weights=(1.0,),
        )
        assert gate(moe, (0.3,)) == 0
        assert gate(moe, (0.0,)) == 0

    def test_affinity_argmax(self):
        # 0.5*0.7=0.35 beats 0.5*0.3=0.15
        assert gate(two_expert_moe(), (0.3, 0.7)) == 1

    def test_tie_breaks_to_lowest_index(self):
        moe = two_expert_moe(profiles=((1.0, 1.0), (1.0, 1.0)))
        assert gate(moe, (0.4, 0.6)) == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            gate(two_expert_moe(), (0.3, 0.3, 0.4))

    def test_pure_no_mutation(self):
        moe = two_expert_moe()
        before = moe.gate_weights
        for _ in range(5):
            assert gate(moe, (0.2, 0.8)) == 1
        assert moe.gate_weights == before

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
        st.floats(0.001, 1000.0),
    )
    def test_argmax_invariant_under_positive_scaling(self, modality, scale):
        moe = two_expert_moe()
        m = tuple(modality)
        scaled = tuple(x * scale for x in m)
        assert gate(moe, m) == gate(moe, scaled)


class TestExpertScore:
    def test_direct_dot_product(self):
        e = Expert(profile=(1.0,), weights=(1.0, 0, 0, 0, 0, 0), threshold=0.5)
        score, verdict = expert_score(e, (0.9, 0, 0, 0, 0, 0))
        assert score == pytest.approx(0.9)
        assert verdict is True

    def test_zero_weights_scores_zero(self):
        e = Expert(profile=(1.0,), weights=(0.0,) * 6, threshold=0.1)
        score, verdict = expert_score(e, (5.0,) * 6)
        assert score == 0.0
        assert verdict is False

    def test_boundary_score_is_fraud(self):
        # score == threshold counts as fraud
        e = Expert(profile=(1.0,), weights=(0.5, 0.5, 0, 0, 0, 0), threshold=0.4)
        score, verdict = expert_score(e, (0.4, 0.4, 0, 0, 0, 0))
        assert score == pytest.approx(0.4)
        assert verdict is True

    def test_dimension_mismatch_rejected(self):
        e = Expert(profile=(1.0,), weights=(1.0, 0.0), threshold=0.0)
        with pytest.raises(ConfigError):
            expert_score(e, (1.0, 2.0, 3.0))

    def test_negative_profile_rejected(self):
        with pytest.raises(ConfigError):
            Expert(profile=(-0.1,), weights=(1.0,), threshold=0.0)


class TestRlUpdate:
    def test_single_positive_update(self):
        # independent oracle: direct evaluation of the exponential step
        moe = two_expert_moe()
        updated = rl_update(moe, [0], [1.0])
        e = math.exp(0.05)
        expect0 = 0.5 * e / (0.5 * e + 0.5)
        assert updated.gate_weights[0] == pytest.approx(expect0, abs=1e-12)
        assert updated.gate_weights[1] == pytest.approx(1 - expect0, abs=1e-12)
        # spec anchor values
        assert updated.gate_weights[0] == pytest.approx(0.5125, abs=5e-4)
        assert updated.gate_weights[1] == pytest.approx(0.4875, abs=5e-4)

    def test_zero_reward_is_noop(self):
        moe = two_expert_moe()
        assert rl_update(moe, [1], [0.0]).gate_weights == moe.gate_weights

    def test_hundred_updates_match_closed_form(self):
        moe = rl_update(two_expert_moe(), [1] * 100, [1.0] * 100)
        closed = 0.5 * math.exp(5.0) / (0.5 + 0.5 * math.exp(5.0))
        assert moe.gate_weights[1] == pytest.approx(closed, abs=1e-9)
        assert moe.gate_weights[1] > 0.99

    def test_out_of_range_reward_rejected(self):
        with pytest.raises(ComputationError):
            rl_update(two_expert_moe(), [0, 0], [1.0, 1.5])

    def test_experts_and_rate_untouched(self):
        moe = two_expert_moe()
        updated = rl_update(moe, [0], [-1.0])
        assert updated.experts == moe.experts
        assert updated.learning_rate == moe.learning_rate

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.floats(-1.0, 1.0)), min_size=1, max_size=60
        )
    )
    def test_normalization_preserved_over_any_sequence(self, steps):
        moe = rl_update(two_expert_moe(), *zip(*steps))
        assert abs(sum(moe.gate_weights) - 1.0) < 1e-9

    def test_rewarded_expert_dominates(self):
        # strictly increasing, -> 1 in the limit
        moe = MoEState(
            experts=tuple(
                Expert(profile=(1.0,), weights=(1.0,), threshold=0.0) for _ in range(3)
            ),
            gate_weights=(1 / 3, 1 / 3, 1 / 3),
        )
        prev = moe.gate_weights[2]
        for _ in range(200):
            moe = rl_update(moe, [2], [1.0])
            assert moe.gate_weights[2] > prev
            prev = moe.gate_weights[2]
        assert moe.gate_weights[2] > 0.99


class TestMoeInit:
    def test_uniform_reset_three_experts(self):
        moe = MoEState(
            experts=tuple(
                Expert(profile=(1.0,), weights=(1.0,), threshold=0.0) for _ in range(3)
            ),
            gate_weights=(0.7, 0.2, 0.1),
        )
        agent = make_agent(moe)
        moe_init(agent)
        assert agent.moe.gate_weights == (1 / 3, 1 / 3, 1 / 3)

    def test_single_expert(self):
        agent = make_agent(
            MoEState(
                experts=(Expert(profile=(1.0,), weights=(1.0,), threshold=0.0),),
                gate_weights=(1.0,),
            )
        )
        moe_init(agent)
        assert agent.moe.gate_weights == (1.0,)

    def test_idempotent(self):
        agent = make_agent(two_expert_moe(gate_weights=(0.9, 0.1)))
        moe_init(agent)
        once = agent.moe.gate_weights
        moe_init(agent)
        assert agent.moe.gate_weights == once

    def test_rejects_non_probationary(self):
        agent = make_agent(two_expert_moe(), status=AgentStatus.ACTIVE)
        with pytest.raises(LifecycleError):
            moe_init(agent)


def test_uniform_moe_rejects_empty():
    with pytest.raises(ConfigError):
        uniform_moe(())
