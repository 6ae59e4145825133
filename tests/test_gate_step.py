"""Differential test: the gate step ``moe.rl_update`` generates per expert
count against the one-step-at-a-time update of ``tests/scalar_oracle.py``,
compared bit for bit with ``float.hex``."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from freeagent.domain import ComputationError
from freeagent.moe import MAX_LEARNING_RATE, _gate_step, rl_update, uniform_gate
from tests import scalar_oracle as oracle

REWARDS = (-1.0, 0.0, 1.0)
# 0.0: a weight that underflowed; -0.0: one check_gate accepts from a
# snapshot; 5e-324: the smallest subnormal, which one -1 step sends to 0.0.
WEIGHTS = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1.0)), st.floats(0.0, 1.0))
RATES = st.one_of(st.sampled_from((0.05, MAX_LEARNING_RATE)),
                  st.floats(0.0, MAX_LEARNING_RATE, exclude_min=True))


def outcome(update):
    """Each weight's hex, or the name of the exception the update raised."""
    try:
        weights = update()
    except ZeroDivisionError as exc:  # every weight reached 0.0
        return type(exc).__name__
    assert type(weights) is tuple and all(type(w) is float for w in weights)
    return [w.hex() for w in weights]


def one_at_a_time(weights, rate, steps):
    for expert_used, reward in steps:
        weights = oracle.rl_update(weights, rate, expert_used, reward)
    return weights


def check(weights, rate, steps):
    used = [e for e, _ in steps]
    signals = [r for _, r in steps]
    assert outcome(lambda: rl_update(weights, rate, used, signals)) == outcome(
        lambda: one_at_a_time(weights, rate, steps)
    )


@st.composite
def cases(draw):
    n = draw(st.integers(1, 12))
    weights = draw(st.lists(WEIGHTS, min_size=n, max_size=n).filter(lambda ws: sum(ws) > 0))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(REWARDS)),
                          max_size=60))
    return tuple(weights), draw(RATES), steps


@settings(max_examples=300, deadline=None)
@given(cases())
@example(((-0.0, 0.5), 0.05, [(1, 1.0), (0, -1.0)]))
@example(((-0.0, -0.0, 1.0), MAX_LEARNING_RATE, [(2, -1.0), (0, 1.0), (1, 0.0)]))
@example(((5e-324, 1.0), MAX_LEARNING_RATE, [(0, -1.0), (1, 1.0)]))
@example(((1.0,), 0.05, []))
def test_the_step_matches_the_oracle(case):
    check(*case)


@pytest.mark.parametrize("rate", [0.05, MAX_LEARNING_RATE])
@pytest.mark.parametrize("n", range(1, 13))
def test_every_expert_count_matches_the_oracle(n, rate):
    rnd = random.Random(n)
    steps = [(rnd.randrange(n), rnd.choice(REWARDS)) for _ in range(300)]
    check(uniform_gate(n), rate, steps)


def test_one_step_function_per_expert_count():
    _gate_step.cache_clear()
    for n in (3, 12, 3, 12, 3):
        rl_update(uniform_gate(n), 0.05, [n - 1], [1.0])
    info = _gate_step.cache_info()
    assert (info.misses, info.hits) == (2, 3)


@pytest.mark.parametrize("reward", [1.5, math.nextafter(1.0, 2.0), -math.inf, math.nan])
@pytest.mark.parametrize("n", [1, 3, 12])
def test_an_out_of_range_reward_raises(n, reward):
    with pytest.raises(ComputationError, match="outside"):
        rl_update(uniform_gate(n), 0.05, [0, 0], [1.0, reward])


@pytest.mark.parametrize("expert", [-1, 3])
def test_an_expert_index_out_of_range_raises(expert):
    with pytest.raises(IndexError, match="out of range for 3 experts"):
        rl_update(uniform_gate(3), 0.05, [0, expert], [1.0, 1.0])
