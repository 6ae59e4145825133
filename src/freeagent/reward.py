"""Multi-factor cycle reward: weighted accuracy, synergy, and efficiency
minus a weighted penalty, each component normalized into [0, 1].

Component operationalization (from one agent window and the agent's cost):
  accuracy   - detection F1 for the window
  synergy    - fraction of dispatch handoffs that completed
  efficiency - baseline cost for the work done divided by cost spent,
               clamped to [0, 1]
  penalty    - violation rate plus false-positive rate in excess of the
               configured budget, capped at 1

Default weights favour accuracy; they are config knobs, not tuned values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import Agent, ComputationError, ConfigError
from .metrics import PerformanceLog, f1_from_counts


@dataclass(frozen=True, slots=True)
class RewardComponents:
    accuracy: float
    synergy: float
    efficiency: float
    penalty: float


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


def compute_reward(w: RewardConfig, c: RewardComponents) -> float:
    """alpha*accuracy + beta*synergy + gamma*efficiency - delta*penalty."""
    parts = (c.accuracy, c.synergy, c.efficiency, c.penalty)
    if not all(math.isfinite(p) for p in parts):
        raise ComputationError(f"non-finite reward component in {parts}")
    return w.alpha * c.accuracy + w.beta * c.synergy + w.gamma * c.efficiency - w.delta * c.penalty


def compute_components(agent: Agent, log: PerformanceLog, cfg: RewardConfig) -> RewardComponents:
    """Derive the four reward inputs from the agent's current window.

    Degenerate denominators (no handoffs, no samples) yield 0 for the
    affected component rather than an error.
    """
    win = log.window(agent.id)

    accuracy = f1_from_counts(win.true_positives, win.false_positives, win.false_negatives)

    if win.handoffs_attempted > 0:
        synergy = win.handoffs_succeeded / win.handoffs_attempted
    else:
        synergy = 0.0

    # Every decided sample costs the agent's cost_per_sample, so the
    # baseline cost of the work over the cost spent is a ratio of rates.
    if win.samples_seen > 0:
        efficiency = _clamp(cfg.baseline_cost_per_sample / agent.spec.cost_per_sample)
        fp_denom = win.false_positives + win.true_negatives
        fp_rate = win.false_positives / fp_denom if fp_denom > 0 else 0.0
        penalty = min(
            1.0, win.violations / win.samples_seen + max(0.0, fp_rate - cfg.fp_budget)
        )
    else:
        efficiency = penalty = 0.0

    return RewardComponents(
        accuracy=_clamp(accuracy),
        synergy=_clamp(synergy),
        efficiency=efficiency,
        penalty=_clamp(penalty),
    )


def _clamp(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
