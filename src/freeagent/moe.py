"""Per-agent mixture of experts: linear scorers, hard top-1 gating, and a
multiplicative-weights gate update driven by each cycle's rewards.

An agent's experts and learning rate are its spec's, fixed for the run;
its gate weights, one per expert, are the only state that learns
(``Agent.gate_weights``). The update is deterministic and runs once per
agent per cycle (gate contract 2): each expert's weight is multiplied by
``exp(learning_rate * R)``, where ``R`` is the expert's net reward over
the cycle (+1 per correct decision, -1 per wrong one), and the vector is
renormalized. That is the product of one step per decision, so a stream
of +1 rewards makes an expert's weight approach 1 geometrically. The
renormalizing total adds the weights left to right in expert order,
``w0 + w1 + ...``; it never calls ``sum()``, which compensates its
rounding from Python 3.12 on, so the gate's bytes do not depend on the
Python version. Routing and scoring of a batch live in
``pipeline.decide``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

from .domain import FEATURE_DIM, MODALITY_DIM, ComputationError, ConfigError


@dataclass(frozen=True, slots=True)
class Expert:
    """Linear scorer: fraud verdict iff dot(weights, features) >= threshold.

    ``profile`` lives in modality space and encodes which input
    modalities this expert understands; the gate matches it against a
    sample's modality vector. It has ``MODALITY_DIM`` entries and
    ``weights`` has ``FEATURE_DIM``.
    """

    profile: tuple[float, ...]
    weights: tuple[float, ...]
    threshold: float

    def __post_init__(self) -> None:
        for key, values, length in (("profile", self.profile, MODALITY_DIM),
                                     ("weights", self.weights, FEATURE_DIM)):
            if len(values) != length:
                raise ConfigError(f"expected {length} entries, got {len(values)}", at=key)
        if min(self.profile) < 0:
            raise ConfigError("expert profile entries must be non-negative", at="profile")


# The largest learning rate a config may set. rl_update's factors never
# exceed 1, so any finite rate keeps the gate finite; an infinite one would
# give the best expert the factor exp(inf * 0), NaN. This bound, ln of the
# largest float, is the range configs have always had, and the gate tests
# cover rates up to it.
MAX_LEARNING_RATE = math.log(sys.float_info.max)


def check_learning_rate(rate: float) -> None:
    if not 0.0 < rate <= MAX_LEARNING_RATE:
        raise ConfigError(f"learning_rate must be in (0, {MAX_LEARNING_RATE!r}]")


def uniform_gate(n: int) -> tuple[float, ...]:
    """The gate of ``n`` experts before any learning: each weighs 1/n."""
    return (1.0 / n,) * n


def _add_left(values) -> float:
    """``0.0 + v0 + v1 + ...``, the total ``sum()`` takes up to Python 3.11."""
    total = 0.0
    for value in values:
        total += value
    return total


def check_gate(weights: tuple[float, ...], n: int) -> None:
    """Refuse gate weights that cannot route between ``n`` experts.

    Weights may be 0 rather than strictly positive: a starved expert's
    weight may underflow to 0.0 after enough renormalizations. Their total,
    added left to right as ``rl_update`` adds it, must be finite: every
    gate the engine writes sums to 1.
    """
    if len(weights) != n:
        raise ConfigError(f"expected one weight per expert ({n}), got {len(weights)}")
    total = _add_left(weights)
    if not all(0 <= w < math.inf for w in weights) or total <= 0:
        raise ConfigError("gate weights must be finite and non-negative with positive sum")
    if total == math.inf:
        raise ConfigError("gate weights must add up, left to right, to a finite total")


def rl_update(
    gate_weights: tuple[float, ...], learning_rate: float, net: Sequence[float]
) -> tuple[float, ...]:
    """One cycle's multiplicative-weights update of the gate, in closed form.

    ``net[e]`` is expert e's net reward over the cycle. Each weight is
    scaled by ``exp(learning_rate * (net[e] - m))``, ``m`` the largest net
    reward of a positive weight, and divided by the scaled total, added
    left to right. Taking out the common factor ``exp(learning_rate * m)``
    means no factor exceeds 1, so ``exp`` cannot overflow, and the expert
    at ``m`` keeps its weight, so the total is positive. A weight of 0
    stays 0. Returns the new weights.
    """
    n = len(gate_weights)
    if len(net) != n:
        raise IndexError(f"net rewards of {len(net)} experts out of range for {n} experts")
    if not all(map(math.isfinite, net)):
        raise ComputationError(f"net reward not finite: {list(net)}")
    m = max(r for w, r in zip(gate_weights, net) if w > 0)
    scaled = [w * math.exp(learning_rate * (r - m)) if w > 0 else w
              for w, r in zip(gate_weights, net)]
    total = _add_left(scaled)
    return tuple(x / total for x in scaled)
