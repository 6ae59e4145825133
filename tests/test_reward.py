"""Multi-factor reward: the weighted formula and its component derivation."""

import math
import random

import pytest

from freeagent.config import AgentSpec
from freeagent.domain import FRAUD_ROLE, Agent, AgentStatus, ComputationError, ConfigError
from freeagent.metrics import AgentWindow, count_ratios
from freeagent.moe import Expert, uniform_gate
from freeagent.reward import RewardConfig, compute_components, compute_reward


def make_agent(agent_id=0, cost=1.0):
    spec = AgentSpec(
        role=FRAUD_ROLE,
        skills=frozenset({"fraud"}),
        experts=(Expert(profile=(1.0, 0.0, 0.0), weights=(1.0,) + (0.0,) * 5, threshold=0.0),),
        cost_per_sample=cost,
    )
    return Agent(id=agent_id, spec=spec, status=AgentStatus.ACTIVE, gate_weights=uniform_gate(1))


class TestComputeReward:
    def test_accuracy_only(self):
        w = RewardConfig(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0)
        assert compute_reward(w, 0.9, 0.2, 0.4, 0.7) == pytest.approx(0.9)

    def test_weighted_mix(self):
        w = RewardConfig(alpha=0.5, beta=0.2, gamma=0.2, delta=0.1)
        assert compute_reward(w, 1.0, 1.0, 1.0, 0.0) == pytest.approx(0.9)

    def test_pure_penalty_negates(self):
        w = RewardConfig(alpha=0.0, beta=0.0, gamma=0.0, delta=1.0)
        assert compute_reward(w, 0.5, 0.5, 0.5, 0.3) == pytest.approx(-0.3)

    def test_non_finite_rejected(self):
        w = RewardConfig()
        with pytest.raises(ComputationError):
            compute_reward(w, math.nan, 0.0, 0.0, 0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            RewardConfig(alpha=-0.1)

    def test_linearity_per_component(self):
        rng = random.Random(11)
        signs = {"accuracy": 1.0, "synergy": 1.0, "efficiency": 1.0, "penalty": -1.0}
        for _ in range(200):
            w = RewardConfig(*(rng.uniform(0, 2) for _ in range(4)))
            base = {k: rng.uniform(0, 0.5) for k in signs}
            delta = rng.uniform(0.01, 0.5)
            r0 = compute_reward(w, *base.values())
            for k, (weight) in zip(signs, (w.alpha, w.beta, w.gamma, w.delta)):
                bumped = dict(base)
                bumped[k] += delta
                r1 = compute_reward(w, *bumped.values())
                assert abs((r1 - r0) - signs[k] * weight * delta) < 1e-9

    def test_bounds_with_clamped_components(self):
        rng = random.Random(13)
        for _ in range(500):
            w = RewardConfig(*(rng.uniform(0, 2) for _ in range(4)))
            r = compute_reward(w, *(rng.uniform(0, 1) for _ in range(4)))
            assert -w.delta - 1e-12 <= r <= w.alpha + w.beta + w.gamma + 1e-12

    def test_accuracy_weight_ranking_matches_f1(self):
        # with weights (1,0,0,0) ranking by reward is ranking by F1
        w = RewardConfig(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0)
        rng = random.Random(17)
        triples = [(rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50)) for _ in range(50)]
        f1s = [count_ratios(tp, fp, fn, 0)[2] for tp, fp, fn in triples]
        rewards = [compute_reward(w, f, rng.random(), rng.random(), rng.random()) for f in f1s]
        assert max(range(50), key=f1s.__getitem__) == max(range(50), key=rewards.__getitem__)


class TestComputeComponents:
    def test_all_at_bounds(self):
        agent = make_agent(cost=1.0)  # exactly baseline
        win = AgentWindow()
        win.true_positives, win.true_negatives = 5, 5
        win.handoffs_attempted = win.handoffs_succeeded = 10
        synergy, efficiency, penalty = compute_components(
            agent, win, RewardConfig(baseline_cost_per_sample=1.0))
        assert synergy == 1.0
        assert efficiency == 1.0
        assert penalty == 0.0
        assert count_ratios(5, 0, 0, 5)[2] == 1.0  # the accuracy: a perfect window's F1

    def test_double_cost_halves_efficiency(self):
        agent = make_agent(cost=2.0)
        win = AgentWindow()
        win.true_negatives = 10  # ten decided samples
        cfg = RewardConfig(baseline_cost_per_sample=1.0)
        _, efficiency, _ = compute_components(agent, win, cfg)
        assert efficiency == pytest.approx(0.5)

    def test_penalty_combines_violations_and_fp_excess(self):
        # violations 5/100 plus FP rate 0.10 over a 0.05 budget -> 0.10
        agent = make_agent()
        win = AgentWindow()
        win.violations = 5
        win.false_positives = 10
        win.true_negatives = 90
        _, _, penalty = compute_components(
            agent, win, RewardConfig(baseline_cost_per_sample=1.0, fp_budget=0.05)
        )
        assert penalty == pytest.approx(0.10)

    def test_empty_window_all_zero(self):
        agent = make_agent()
        parts = compute_components(agent, AgentWindow(), RewardConfig())
        assert (count_ratios(0, 0, 0, 0)[2], *parts) == (0.0, 0.0, 0.0, 0.0)

    def test_penalty_capped_at_one(self):
        agent = make_agent()
        win = AgentWindow()
        win.true_negatives = 10  # ten decided samples
        win.violations = 50
        _, _, penalty = compute_components(agent, win, RewardConfig())
        assert penalty == 1.0

    def test_cheap_agent_efficiency_clamped(self):
        agent = make_agent(cost=0.5)
        win = AgentWindow()
        win.true_negatives = 10  # ten decided samples
        cfg = RewardConfig(baseline_cost_per_sample=1.0)
        _, efficiency, _ = compute_components(agent, win, cfg)
        assert efficiency == 1.0
