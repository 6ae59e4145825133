"""Multi-factor cycle reward: weighted accuracy, synergy, and efficiency
minus a weighted penalty, each component in [0, 1].

The engine scores each roster agent's cycle once, as its metrics.csv row.
The reward's accuracy is that row's detection F1 (``metrics.count_ratios``);
``compute_components`` derives the other three from the agent's window
and cost:
  synergy    - fraction of dispatch handoffs that completed
  efficiency - baseline cost per sample over the agent's cost per sample,
               capped at 1
  penalty    - violation rate plus false-positive rate in excess of the
               configured budget, capped at 1

The F1 and synergy are ratios of counts and the other two are capped, so
every component is in [0, 1] without a clamp. Default weights favour
accuracy; they are config knobs, not tuned values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import Agent, ComputationError, ConfigError
from .metrics import AgentWindow


@dataclass(frozen=True, slots=True)
class RewardConfig:
    """The reward section: the four component weights, the cost baseline of
    efficiency and the false-positive budget of the penalty."""

    alpha: float = 1.0
    beta: float = 0.25
    gamma: float = 0.25
    delta: float = 0.5
    baseline_cost_per_sample: float = 1.0
    fp_budget: float = 0.10

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"reward weight {name} must be finite and >= 0")
        if not self.baseline_cost_per_sample > 0:
            raise ConfigError("baseline_cost_per_sample must be positive")
        if not 0.0 <= self.fp_budget <= 1.0:
            raise ConfigError("fp_budget must be in [0, 1]")


def compute_reward(w: RewardConfig, accuracy: float, synergy: float, efficiency: float,
                   penalty: float) -> float:
    """alpha*accuracy + beta*synergy + gamma*efficiency - delta*penalty."""
    parts = (accuracy, synergy, efficiency, penalty)
    if not all(math.isfinite(p) for p in parts):
        raise ComputationError(f"non-finite reward component in {parts}")
    return w.alpha * accuracy + w.beta * synergy + w.gamma * efficiency - w.delta * penalty


def compute_components(agent: Agent, win: AgentWindow,
                       cfg: RewardConfig) -> tuple[float, float, float]:
    """The synergy, efficiency and penalty of the agent's window.

    Degenerate denominators (no handoffs, no samples) yield 0 for the
    affected component rather than an error.
    """
    synergy = win.handoffs_succeeded / win.handoffs_attempted if win.handoffs_attempted else 0.0

    # Every decided sample costs the agent's cost_per_sample, so the
    # baseline cost of the work over the cost spent is a ratio of rates.
    if win.samples_seen > 0:
        efficiency = min(cfg.baseline_cost_per_sample / agent.spec.cost_per_sample, 1.0)
        fp_denom = win.false_positives + win.true_negatives
        fp_rate = win.false_positives / fp_denom if fp_denom > 0 else 0.0
        penalty = min(
            1.0, win.violations / win.samples_seen + max(0.0, fp_rate - cfg.fp_budget)
        )
    else:
        efficiency = penalty = 0.0
    return synergy, efficiency, penalty
