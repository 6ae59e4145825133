"""Multi-factor reward: the weighted formula and its component derivation."""

import math
import random

import pytest

from freeagent.config import AgentSpec
from freeagent.domain import FRAUD_ROLE, Agent, AgentStatus, ComputationError, ConfigError
from freeagent.metrics import PerformanceLog, f1_from_counts
from freeagent.moe import Expert, uniform_gate
from freeagent.reward import (
    RewardComponents,
    RewardConfig,
    compute_components,
    compute_reward,
)


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
        c = RewardComponents(accuracy=0.9, synergy=0.2, efficiency=0.4, penalty=0.7)
        assert compute_reward(w, c) == pytest.approx(0.9)

    def test_weighted_mix(self):
        w = RewardConfig(alpha=0.5, beta=0.2, gamma=0.2, delta=0.1)
        c = RewardComponents(accuracy=1.0, synergy=1.0, efficiency=1.0, penalty=0.0)
        assert compute_reward(w, c) == pytest.approx(0.9)

    def test_pure_penalty_negates(self):
        w = RewardConfig(alpha=0.0, beta=0.0, gamma=0.0, delta=1.0)
        c = RewardComponents(accuracy=0.5, synergy=0.5, efficiency=0.5, penalty=0.3)
        assert compute_reward(w, c) == pytest.approx(-0.3)

    def test_non_finite_rejected(self):
        w = RewardConfig()
        c = RewardComponents(accuracy=math.nan, synergy=0.0, efficiency=0.0, penalty=0.0)
        with pytest.raises(ComputationError):
            compute_reward(w, c)

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
            r0 = compute_reward(w, RewardComponents(**base))
            for k, (weight) in zip(signs, (w.alpha, w.beta, w.gamma, w.delta)):
                bumped = dict(base)
                bumped[k] += delta
                r1 = compute_reward(w, RewardComponents(**bumped))
                assert abs((r1 - r0) - signs[k] * weight * delta) < 1e-9

    def test_bounds_with_clamped_components(self):
        rng = random.Random(13)
        for _ in range(500):
            w = RewardConfig(*(rng.uniform(0, 2) for _ in range(4)))
            c = RewardComponents(*(rng.uniform(0, 1) for _ in range(4)))
            r = compute_reward(w, c)
            assert -w.delta - 1e-12 <= r <= w.alpha + w.beta + w.gamma + 1e-12

    def test_accuracy_weight_ranking_matches_f1(self):
        # with weights (1,0,0,0) ranking by reward is ranking by F1
        w = RewardConfig(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0)
        rng = random.Random(17)
        triples = [(rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50)) for _ in range(50)]
        f1s = [f1_from_counts(*t) for t in triples]
        rewards = [
            compute_reward(w, RewardComponents(accuracy=f, synergy=rng.random(),
                                               efficiency=rng.random(), penalty=rng.random()))
            for f in f1s
        ]
        assert max(range(50), key=f1s.__getitem__) == max(range(50), key=rewards.__getitem__)


class TestComputeComponents:
    def test_all_at_bounds(self):
        log = PerformanceLog()
        agent = make_agent(cost=1.0)  # exactly baseline
        win = log.window(agent.id)
        win.true_positives, win.true_negatives = 5, 5
        win.handoffs_attempted = win.handoffs_succeeded = 10
        c = compute_components(agent, log, RewardConfig(baseline_cost_per_sample=1.0))
        assert c.synergy == 1.0
        assert c.efficiency == 1.0
        assert c.penalty == 0.0
        assert c.accuracy == 1.0  # perfect window

    def test_double_cost_halves_efficiency(self):
        log = PerformanceLog()
        agent = make_agent(cost=2.0)
        win = log.window(agent.id)
        win.true_negatives = 10  # ten decided samples
        c = compute_components(agent, log, RewardConfig(baseline_cost_per_sample=1.0))
        assert c.efficiency == pytest.approx(0.5)

    def test_penalty_combines_violations_and_fp_excess(self):
        # violations 5/100 plus FP rate 0.10 over a 0.05 budget -> 0.10
        log = PerformanceLog()
        agent = make_agent()
        win = log.window(agent.id)
        win.violations = 5
        win.false_positives = 10
        win.true_negatives = 90
        c = compute_components(
            agent, log, RewardConfig(baseline_cost_per_sample=1.0, fp_budget=0.05)
        )
        assert c.penalty == pytest.approx(0.10)

    def test_empty_window_all_zero(self):
        log = PerformanceLog()
        agent = make_agent()
        c = compute_components(agent, log, RewardConfig())
        assert (c.accuracy, c.synergy, c.efficiency, c.penalty) == (0.0, 0.0, 0.0, 0.0)

    def test_penalty_capped_at_one(self):
        log = PerformanceLog()
        agent = make_agent()
        win = log.window(agent.id)
        win.true_negatives = 10  # ten decided samples
        win.violations = 50
        c = compute_components(agent, log, RewardConfig())
        assert c.penalty == 1.0

    def test_cheap_agent_efficiency_clamped(self):
        log = PerformanceLog()
        agent = make_agent(cost=0.5)
        win = log.window(agent.id)
        win.true_negatives = 10  # ten decided samples
        c = compute_components(agent, log, RewardConfig(baseline_cost_per_sample=1.0))
        assert c.efficiency == 1.0
