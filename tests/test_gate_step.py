"""The gate update ``moe.rl_update`` (gate contract 2): a differential test
against the closed form over plain floats in ``tests/scalar_oracle.py``,
compared bit for bit with ``float.hex``, a bound on its rounding against a
60-digit ``decimal`` reference, and the property that a gate ``check_gate``
accepts updates to one it accepts."""

import decimal
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from freeagent.domain import ComputationError, ConfigError
from freeagent.moe import MAX_LEARNING_RATE, check_gate, rl_update, uniform_gate
from tests import scalar_oracle as oracle

REWARDS = (-1.0, 0.0, 1.0)
# 0.0: a weight that underflowed; -0.0: one check_gate accepts from a
# snapshot; 5e-324: the smallest subnormal, which one -1 step sends to 0.0.
WEIGHTS = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1.0)), st.floats(0.0, 1.0))
RATES = st.one_of(st.sampled_from((0.05, MAX_LEARNING_RATE)),
                  st.floats(0.0, MAX_LEARNING_RATE, exclude_min=True))
# The largest error of rl_update against the decimal reference, in units in
# the last place of the exact result, measured on CASES.
MAX_ULPS = 3.35


def hexes(weights):
    assert type(weights) is tuple and all(type(w) is float for w in weights)
    return [w.hex() for w in weights]


def net_of(n, steps):
    """The net rewards ``CyclePipeline.run_batch`` hands ``rl_update``."""
    experts = np.array([e for e, _ in steps], dtype=np.intp)
    signals = np.array([r for _, r in steps], dtype=float)
    return np.bincount(experts, weights=signals, minlength=n).tolist()


def check(weights, rate, steps):
    n = len(weights)
    assert hexes(rl_update(weights, rate, net_of(n, steps))) == hexes(
        oracle.rl_update(weights, rate, oracle.net_rewards(n, steps))
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
@example(((0.0, 5e-324), MAX_LEARNING_RATE, [(0, 1.0)] * 3 + [(1, -1.0)]))
@example(((1.0,), 0.05, []))
def test_the_step_matches_the_oracle(case):
    check(*case)


@pytest.mark.parametrize("rate", [0.05, MAX_LEARNING_RATE])
@pytest.mark.parametrize("n", range(1, 13))
def test_every_expert_count_matches_the_oracle(n, rate):
    rnd = random.Random(n)
    steps = [(rnd.randrange(n), rnd.choice(REWARDS)) for _ in range(300)]
    check(uniform_gate(n), rate, steps)


CASES = 500
CONTEXT = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def exact_update(weights, rate, net):
    """``w * exp(rate * R)`` renormalized, in 60 significant digits."""
    rate = decimal.Decimal(rate)
    scaled = [CONTEXT.multiply(decimal.Decimal(w),
                               CONTEXT.exp(CONTEXT.multiply(rate, decimal.Decimal(r))))
              for w, r in zip(weights, net)]
    total = decimal.Decimal(0)
    for x in scaled:
        total = CONTEXT.add(total, x)
    return [CONTEXT.divide(x, total) for x in scaled]


def test_the_closed_form_is_within_a_few_ulps_of_the_exact_update():
    # 2-12 experts with random positive weights, up to 2000 decisions at
    # the default rate; the per-decision fold this replaced was off by up
    # to 60.4 ulps on the same cases
    rnd = random.Random(2026)
    worst = 0.0
    for _ in range(CASES):
        n = rnd.randint(2, 12)
        weights = tuple(rnd.random() for _ in range(n))
        steps = [(rnd.randrange(n), rnd.choice((-1.0, 1.0)))
                 for _ in range(rnd.randint(0, 2000))]
        net = net_of(n, steps)
        for got, exact in zip(rl_update(weights, 0.05, net), exact_update(weights, 0.05, net)):
            ulps = abs(decimal.Decimal(got) - exact) / decimal.Decimal(math.ulp(float(exact)))
            worst = max(worst, float(ulps))
    assert worst <= MAX_ULPS


@pytest.mark.parametrize("reward", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("n", [1, 3, 12])
def test_an_out_of_range_reward_raises(n, reward):
    with pytest.raises(ComputationError, match="not finite"):
        rl_update(uniform_gate(n), 0.05, [reward] + [1.0] * (n - 1))


@pytest.mark.parametrize("expert", [-1, 3])
def test_an_expert_index_out_of_range_raises(expert):
    # bincount refuses a negative index, and a larger one lengthens the net
    # rewards past the expert count, which rl_update refuses
    with pytest.raises((ValueError, IndexError),
                       match="negative|out of range for 3 experts"):
        rl_update(uniform_gate(3), 0.05, net_of(3, [(0, 1.0), (expert, 1.0)]))


# Gates check_gate accepts, up to weights whose total is barely finite.
BIG_WEIGHTS = st.one_of(WEIGHTS, st.floats(0.0, 6e307))


@st.composite
def accepted_gates(draw):
    n = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(BIG_WEIGHTS, min_size=n, max_size=n)))
    try:
        check_gate(weights, n)
    except ConfigError:
        reject()
    net = draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n))
    return weights, draw(RATES), net


@settings(max_examples=300, deadline=None)
@given(accepted_gates())
@example(((5.9e307, 5.9e307, 5.9e307), MAX_LEARNING_RATE, [1.0, 2.0, 3.0]))
@example(((-0.0, 0.0, 1.0), MAX_LEARNING_RATE, [1e300, 1e300, -1e300]))
def test_an_accepted_gate_updates_to_an_accepted_gate(case):
    # the total stays finite and positive, so the new gate routes again; a
    # zero weight keeps its value and its sign
    weights, rate, net = case
    updated = rl_update(weights, rate, net)
    check_gate(updated, len(weights))
    assert all(0.0 <= w <= 1.0 for w in updated)
    assert [w.hex() for w in weights if w == 0] == [w.hex() for w, before in zip(updated, weights)
                                                     if before == 0]
