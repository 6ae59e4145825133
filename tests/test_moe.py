"""Gating, expert scoring, the multiplicative gate update and gate checks."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from freeagent.config import AgentSpec
from freeagent.domain import (
    FEATURE_DIM,
    FRAUD_ROLE,
    MODALITY_DIM,
    Agent,
    AgentStatus,
    ComputationError,
    ConfigError,
)
from freeagent.engine import Engine
from freeagent.lifecycle import LifecycleConfig, transition_probationary
from freeagent.moe import Expert, check_gate, rl_update, uniform_gate
from freeagent.pipeline import decide, expert_matrices
from tests.test_engine import BLIND_EXPERT, GOOD_EXPERT, small_config

FEATURE_0 = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def gate(experts, gate_weights, modality):
    """The expert ``decide`` routes one sample with this modality to."""
    features = np.zeros((FEATURE_DIM, 1))
    modality = np.array(modality, dtype=float)[:, None]
    return int(decide(expert_matrices(experts), gate_weights, features, modality)[0][0])


def expert_score(expert, features):
    """Score and verdict of ``decide`` for one sample scored by ``expert``."""
    modality = np.ones((MODALITY_DIM, 1))
    _, score, verdict = decide(expert_matrices((expert,)), (1.0,),
                               np.array(features, dtype=float)[:, None], modality)
    return float(score[0]), bool(verdict[0])


def experts(*profiles):
    return tuple(Expert(profile=p, weights=FEATURE_0, threshold=0.5) for p in profiles)


TWO_EXPERTS = experts((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def probationary(gate_weights, n_experts):
    """A probationary agent with ``n_experts`` experts and this gate."""
    spec = AgentSpec(FRAUD_ROLE, frozenset({"fraud"}), experts(*[(1.0, 0.0, 0.0)] * n_experts))
    return Agent(id=0, spec=spec, status=AgentStatus.PROBATIONARY, gate_weights=gate_weights)


def reset_gate(agent):
    """Run the probation transition on ``agent``, which resets its gate; a
    shadow performance of 0.9 promotes it."""
    agent.performance = 0.9
    transition_probationary({0: agent}, [], LifecycleConfig(), 0, [])


class TestGate:
    def test_single_expert_always_selected(self):
        only = experts((1.0, 0.0, 0.0))
        assert gate(only, (1.0,), (0.3, 0.0, 0.7)) == 0
        assert gate(only, (1.0,), (0.0, 0.0, 1.0)) == 0

    def test_affinity_argmax(self):
        # 0.5*0.7=0.35 beats 0.5*0.3=0.15
        assert gate(TWO_EXPERTS, (0.5, 0.5), (0.3, 0.7, 0.0)) == 1

    def test_tie_breaks_to_lowest_index(self):
        same = experts((1.0, 1.0, 0.0), (1.0, 1.0, 0.0))
        assert gate(same, (0.5, 0.5), (0.4, 0.6, 0.0)) == 0

    def test_dimension_mismatch_rejected(self):
        # a profile outside modality space never reaches the gate
        with pytest.raises(ConfigError) as exc:
            Expert(profile=(0.3, 0.7), weights=FEATURE_0, threshold=0.5)
        assert exc.value.at == "profile"

    def test_pure_no_mutation(self):
        weights = (0.5, 0.5)
        for _ in range(5):
            assert gate(TWO_EXPERTS, weights, (0.2, 0.8, 0.0)) == 1
        assert weights == (0.5, 0.5)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
        st.floats(0.001, 1000.0),
    )
    def test_argmax_invariant_under_positive_scaling(self, modality, scale):
        m = (*modality, 0.0)
        scaled = tuple(x * scale for x in m)
        assert gate(TWO_EXPERTS, (0.5, 0.5), m) == gate(TWO_EXPERTS, (0.5, 0.5), scaled)


class TestExpertScore:
    def test_direct_dot_product(self):
        e = Expert(profile=(1.0, 0.0, 0.0), weights=FEATURE_0, threshold=0.5)
        score, verdict = expert_score(e, (0.9, 0, 0, 0, 0, 0))
        assert score == pytest.approx(0.9)
        assert verdict is True

    def test_zero_weights_scores_zero(self):
        e = Expert(profile=(1.0, 0.0, 0.0), weights=(0.0,) * 6, threshold=0.1)
        score, verdict = expert_score(e, (5.0,) * 6)
        assert score == 0.0
        assert verdict is False

    def test_boundary_score_is_fraud(self):
        # score == threshold counts as fraud
        e = Expert(profile=(1.0, 0.0, 0.0), weights=(0.5, 0.5, 0, 0, 0, 0), threshold=0.4)
        score, verdict = expert_score(e, (0.4, 0.4, 0, 0, 0, 0))
        assert score == pytest.approx(0.4)
        assert verdict is True

    def test_dimension_mismatch_rejected(self):
        # weights outside feature space never reach a score
        with pytest.raises(ConfigError) as exc:
            Expert(profile=(1.0, 0.0, 0.0), weights=(1.0, 0.0), threshold=0.0)
        assert exc.value.at == "weights"

    def test_negative_profile_rejected(self):
        with pytest.raises(ConfigError):
            Expert(profile=(-0.1, 0.0, 0.0), weights=FEATURE_0, threshold=0.0)


@pytest.mark.parametrize("profile,weights,at", [
    pytest.param((1.0,), FEATURE_0, "profile", id="profile_short"),
    pytest.param((1.0, 0.0, 0.0, 0.0), FEATURE_0, "profile", id="profile_long"),
    pytest.param((), FEATURE_0, "profile", id="profile_empty"),
    pytest.param((1.0, 0.0, 0.0), (1.0,), "weights", id="weights_short"),
    pytest.param((1.0, 0.0, 0.0), FEATURE_0 + (0.0,), "weights", id="weights_long"),
])
def test_expert_lengths_checked_at_construction(profile, weights, at):
    # a directly built expert is refused before any cycle can run it
    with pytest.raises(ConfigError) as exc:
        Expert(profile=profile, weights=weights, threshold=0.5)
    assert exc.value.at == at


class TestRlUpdate:
    def test_single_positive_update(self):
        # independent oracle: direct evaluation of the exponential step
        updated = rl_update((0.5, 0.5), 0.05, [1.0, 0.0])
        e = math.exp(0.05)
        expect0 = 0.5 * e / (0.5 * e + 0.5)
        assert updated[0] == pytest.approx(expect0, abs=1e-12)
        assert updated[1] == pytest.approx(1 - expect0, abs=1e-12)
        # spec anchor values
        assert updated[0] == pytest.approx(0.5125, abs=5e-4)
        assert updated[1] == pytest.approx(0.4875, abs=5e-4)

    def test_zero_reward_is_noop(self):
        # a +1 and a -1 on expert 1 cancel
        assert rl_update((0.5, 0.5), 0.05, [0.0, 0.0]) == (0.5, 0.5)

    def test_hundred_updates_match_closed_form(self):
        weights = rl_update((0.5, 0.5), 0.05, [0.0, 100.0])
        closed = 0.5 * math.exp(5.0) / (0.5 + 0.5 * math.exp(5.0))
        assert weights[1] == pytest.approx(closed, abs=1e-9)
        assert weights[1] > 0.99

    def test_out_of_range_reward_rejected(self):
        for reward in (math.inf, -math.inf, math.nan):
            with pytest.raises(ComputationError):
                rl_update((0.5, 0.5), 0.05, [1.0, reward])

    def test_experts_and_rate_untouched(self):
        # a cycle's gate update changes the agent's gate weights, never its spec
        config = small_config(roster_experts=(GOOD_EXPERT, BLIND_EXPERT), cycles=1)
        engine = Engine(config)
        engine.run_cycle()
        agent = engine.roster[0]
        assert agent.spec is config.roster[0]
        assert agent.spec.experts == (GOOD_EXPERT, BLIND_EXPERT)
        assert agent.spec.learning_rate == 0.05
        assert type(agent.gate_weights) is tuple and agent.gate_weights != uniform_gate(2)

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.floats(-1.0, 1.0)), min_size=1, max_size=60
        )
    )
    def test_normalization_preserved_over_any_sequence(self, steps):
        net = [0.0, 0.0]
        for expert, reward in steps:
            net[expert] += reward
        weights = rl_update((0.5, 0.5), 0.05, net)
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_rewarded_expert_dominates(self):
        # strictly increasing, -> 1 in the limit
        weights = uniform_gate(3)
        prev = weights[2]
        for _ in range(200):
            weights = rl_update(weights, 0.05, [0.0, 0.0, 1.0])
            assert weights[2] > prev
            prev = weights[2]
        assert weights[2] > 0.99


class TestMoeInit:
    """The gate reset of a probation transition."""

    def test_uniform_reset_three_experts(self):
        agent = probationary((0.7, 0.2, 0.1), 3)
        reset_gate(agent)
        assert agent.gate_weights == uniform_gate(3) == (1 / 3, 1 / 3, 1 / 3)

    def test_single_expert(self):
        agent = probationary((1.0,), 1)
        reset_gate(agent)
        assert agent.gate_weights == uniform_gate(1) == (1.0,)

    def test_idempotent(self):
        agent = probationary((0.9, 0.1), 2)
        reset_gate(agent)
        once = agent.gate_weights
        agent.status = AgentStatus.PROBATIONARY  # back on probation after the promotion
        reset_gate(agent)
        assert agent.gate_weights == once == (0.5, 0.5)


class TestCheckGate:
    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.0, 1.0), (2.0, 3.0)],
                             ids=["uniform", "starved", "unnormalized"])
    def test_accepts_a_usable_gate(self, weights):
        # a starved expert's weight may underflow to 0; the sum need not be 1
        check_gate(weights, 2)

    @pytest.mark.parametrize("weights,message", [
        pytest.param((1.0,), "expected one weight per expert (2), got 1", id="short"),
        pytest.param((0.3, 0.3, 0.4), "expected one weight per expert (2), got 3", id="long"),
        pytest.param((1.5, -0.5), "non-negative with positive sum", id="negative"),
        pytest.param((0.0, 0.0), "non-negative with positive sum", id="zero_sum"),
        pytest.param((math.nan, 1.0), "finite and non-negative", id="nan"),
        pytest.param((math.inf, 1.0), "finite and non-negative", id="inf"),
        # each weight is finite, but not their total
        pytest.param((1e308, 1e308), "to a finite total", id="total_overflows"),
    ])
    def test_rejects_a_gate_that_cannot_route(self, weights, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            check_gate(weights, 2)


def test_check_gate_rejects_empty():
    with pytest.raises(ConfigError):
        check_gate((), 0)
