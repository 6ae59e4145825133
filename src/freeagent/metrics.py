"""Per-agent cycle tallies (confusion, handoff and violation counters and
each expert's net reward), the ratios of the counts, and the metrics.csv
row that scores one agent's cycle.

Windows are tumbling: each cycle's pipeline starts one zeroed window per
roster agent, so every evaluation reflects only the cycle just processed
(which is what makes drift visible quickly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, get_type_hints

from .domain import AgentId


@dataclass(slots=True)
class AgentWindow:
    """One agent's tally of its cycle: confusion counters, handoff and
    violation tallies, and ``net``, each expert's net reward over the
    batch (+1 per correct decision, -1 per wrong one; the input of
    ``moe.rl_update``), which stays None unless the agent decided."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    true_negatives: int = 0
    handoffs_attempted: int = 0
    handoffs_succeeded: int = 0
    violations: int = 0
    net: list[float] | None = None

    @property
    def samples_seen(self) -> int:
        """Decided samples: each one moved exactly one confusion counter."""
        return (
            self.true_positives
            + self.false_positives
            + self.false_negatives
            + self.true_negatives
        )


METRICS_COLUMNS = (
    "cycle", "agent", "status", "TP", "FP", "FN", "TN",
    "precision", "recall", "f1", "accuracy",
    "synergy", "efficiency", "penalty", "reward", "service_time",
)


class MetricsRow(NamedTuple):
    """One agent's cycle as metrics.csv writes it and the lifecycle judges
    it, its fields in ``METRICS_COLUMNS`` order. ``status`` is the agent's
    status while the cycle's batch ran, ``service_time`` its service after
    the cycle's lifecycle stages."""

    cycle: int
    agent: AgentId
    status: str
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    accuracy: float
    synergy: float
    efficiency: float
    penalty: float
    reward: float
    service_time: int


# Each column's type, which reads its cell back (integers exact), and a
# row's metrics.csv line, ``METRICS_LINE % row``: float fields with 6
# decimals, everything else as ``str``.
METRICS_TYPES = tuple(get_type_hints(MetricsRow).values())
METRICS_LINE = ",".join("%.6f" if hint is float else "%s" for hint in METRICS_TYPES) + "\n"


@dataclass
class PerformanceLog:
    """One cycle's windows: one per roster agent, by id."""

    windows: dict[AgentId, AgentWindow]


def count_ratios(tp: int, fp: int, fn: int, tn: int) -> tuple[float, float, float, float]:
    """Precision, recall, F1 and accuracy of confusion counts.

    Every 0/0 ratio is defined as 0; F1 is 0 when precision + recall is
    0, which keeps the function total on all-zero windows.
    """
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    decided = tp + fp + fn + tn
    accuracy = (tp + tn) / decided if decided > 0 else 0.0
    return precision, recall, f1, accuracy

