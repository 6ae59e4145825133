"""Per-agent mixture of experts: linear scorers, hard top-1 gating, and a
multiplicative-weights gate update driven by per-sample rewards.

An agent's experts and learning rate are its spec's, fixed for the run;
its gate weights, one per expert, are the only state that learns
(``Agent.gate_weights``). The update is deterministic: the used expert's
gate weight is multiplied by ``exp(learning_rate * reward)`` and the
vector is renormalized, so a stream of +1 rewards makes an expert's
weight approach 1 geometrically. The renormalizing total adds the
weights left to right in expert order, ``w0 + w1 + ...``, in a step
function generated once per expert count; it never calls ``sum()``,
which compensates its rounding from Python 3.12 on, so the gate's bytes
do not depend on the Python version. Routing and scoring of a batch
live in ``pipeline.decide``.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable, Sequence
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


# The largest rate whose gate factor exp(learning_rate * reward) stays finite.
MAX_LEARNING_RATE = math.log(sys.float_info.max)


def check_learning_rate(rate: float) -> None:
    if not 0.0 < rate <= MAX_LEARNING_RATE:
        raise ConfigError(f"learning_rate must be in (0, {MAX_LEARNING_RATE!r}]")


def uniform_gate(n: int) -> tuple[float, ...]:
    """The gate of ``n`` experts before any learning: each weighs 1/n."""
    return (1.0 / n,) * n


def check_gate(weights: tuple[float, ...], n: int) -> None:
    """Refuse gate weights that cannot route between ``n`` experts.

    Weights may be 0 rather than strictly positive: a starved expert's
    weight may underflow to 0.0 after enough renormalizations.
    """
    if len(weights) != n:
        raise ConfigError(f"expected one weight per expert ({n}), got {len(weights)}")
    if not all(0 <= w < math.inf for w in weights) or sum(weights) <= 0:
        raise ConfigError("gate weights must be finite and non-negative with positive sum")


@functools.cache
def _gate_step(n: int) -> Callable[..., tuple[float, ...]]:
    """The gate's step loop for ``n`` experts, generated once per ``n``.

    The weights live in the locals ``w0 ... w{n-1}``; an ``if e == 0:
    ... elif`` chain scales the used one, ``t = w0 + w1 + ...`` adds them
    left to right, and each local is divided by ``t``. These are the
    additions ``sum()`` makes from integer 0 up to Python 3.11: ``0 +
    w0`` differs from ``w0`` only when ``w0`` is -0.0, and adding any
    nonzero weight drops that zero's sign, so the totals are equal.
    """
    ws = [f"w{i}" for i in range(n)]
    chain = "\n        el".join(f"if e == {i}: {w} *= factors[r]" for i, w in enumerate(ws))
    source = "\n".join([
        "def step(weights, experts_used, signals, factors):",
        f"    {', '.join(ws)}, = weights",
        "    for e, r in zip(experts_used, signals):",
        f"        {chain}",
        f"        else: raise IndexError(f'expert {{e}} out of range for {n} experts')",
        f"        t = {' + '.join(ws)}",
        *(f"        {w} /= t" for w in ws),
        f"    return ({', '.join(ws)},)",
    ])
    namespace: dict = {}
    exec(compile(source, f"<gate step for {n} experts>", "exec"), namespace)
    return namespace["step"]


def rl_update(
    gate_weights: tuple[float, ...],
    learning_rate: float,
    experts_used: Sequence[int],
    signals: Sequence[float],
) -> tuple[float, ...]:
    """Multiplicative-weights steps on the gate, one per sample outcome, in order.

    For each outcome the used expert's weight is scaled by exp(eta *
    reward) and the vector renormalized to sum 1, its total added left
    to right in expert order (``_gate_step``). Positive rewards
    reinforce the route that produced them; a zero reward is a no-op.
    The steps are taken one at a time because the closed form over a
    batch rounds differently. Returns the new weights.
    """
    factors = {}
    for reward in set(signals):
        if not -1.0 <= reward <= 1.0:
            raise ComputationError(f"sample reward {reward} outside [-1, 1]")
        factors[reward] = math.exp(learning_rate * reward)
    return _gate_step(len(gate_weights))(gate_weights, experts_used, signals, factors)
