"""Differential test: ``pipeline.decide``, which routes and scores a batch
through all of an agent's experts at once, against the per-sample,
per-expert scalar gate and scorer of ``tests/scalar_oracle.py``, compared
bit for bit (chosen expert, score bytes, verdict). The cases are written
one sample per row and given to ``decide`` as the batch's columns. A
shadow's features, the first ``SENSITIVE_START`` feature rows, are checked
against the oracle on their zero-filled Restricted view."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeagent.config import AgentSpec, section_4_4_preset
from freeagent.domain import FEATURE_DIM, FRAUD_ROLE, MODALITY_DIM, SENSITIVE_START
from freeagent.moe import Expert, uniform_gate
from freeagent.pipeline import decide, expert_matrices
from tests import scalar_oracle as oracle

# Few distinct values, so affinities tie and scores hit thresholds exactly;
# (0, 0, 0) is an expert that understands no modality.
PROFILES = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
            (0.5, 0.5, 0.0), (1.0, 1.0, 1.0))
WEIGHTS = (0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 0.3)
THRESHOLDS = (-0.5, 0.0, 0.5, 1.0)
GATE_WEIGHTS = (0.0, 0.25, 0.5, 1.0)  # 0.0: a starved expert that underflowed
# Signed zeros and negatives, so products come out -0.0 in either view.
FEATURES = st.one_of(st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -0.01, 0.04)),
                     st.floats(-10.0, 10.0))
MODALITY = st.one_of(st.sampled_from((0.0, 0.3, 0.5, 0.7, 1.0)), st.floats(0.0, 2.0))


def reference(experts, gate_weights, features, modality, restricted):
    """Per row: the oracle's gate over every expert, then the chosen one's
    score on the full row or its Restricted view (``restricted``)."""
    out = []
    for f, m in zip(features.tolist(), modality.tolist()):
        idx = oracle.gate(experts, gate_weights, tuple(m))
        f = oracle.redact(tuple(f)) if restricted else tuple(f)
        out.append((idx, *oracle.expert_score(experts[idx], f)))
    return out


def same_as_reference(experts, gate_weights, features, modality, restricted=False):
    """``decide`` on the feature rows a shadow (``restricted``) or an Active
    agent is given, against the oracle."""
    given = features.T[:SENSITIVE_START] if restricted else features.T
    chosen, score, verdict = decide(expert_matrices(experts), gate_weights,
                                    given.copy(), modality.T.copy())
    expected = reference(experts, gate_weights, features, modality, restricted)
    assert chosen.tolist() == [idx for idx, _, _ in expected]
    assert score.dtype == np.float64
    assert score.tobytes() == np.array([s for _, s, _ in expected]).tobytes()
    assert verdict.tolist() == [v for _, _, v in expected]
    return chosen, score, verdict


@st.composite
def cases(draw):
    n_experts = draw(st.integers(1, 12))
    experts = tuple(
        Expert(profile=draw(st.sampled_from(PROFILES)),
               weights=tuple(draw(st.lists(st.sampled_from(WEIGHTS), min_size=FEATURE_DIM,
                                           max_size=FEATURE_DIM))),
               threshold=draw(st.sampled_from(THRESHOLDS)))
        for _ in range(n_experts)
    )
    gate_weights = tuple(draw(st.sampled_from(GATE_WEIGHTS)) for _ in experts)
    n = draw(st.integers(1, 20))
    features = np.array(draw(st.lists(FEATURES, min_size=n * FEATURE_DIM,
                                      max_size=n * FEATURE_DIM))).reshape(n, FEATURE_DIM)
    modality = np.array(draw(st.lists(MODALITY, min_size=n * MODALITY_DIM,
                                      max_size=n * MODALITY_DIM))).reshape(n, MODALITY_DIM)
    return experts, gate_weights, features, modality


@settings(max_examples=100, deadline=None)
@given(case=cases(), restricted=st.booleans())
def test_matches_scalar_reference(case, restricted):
    experts, gate_weights, features, modality = case
    same_as_reference(experts, gate_weights, features, modality, restricted)


@pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
def test_dispatch_experts_repeated_four_times(restricted):
    # the dispatch workload's agents: the preset candidate's three experts,
    # four times over, so a uniform gate ties every expert with three copies
    experts = section_4_4_preset().pool[0].experts * 4
    rng = np.random.default_rng(11)
    features = rng.standard_normal((500, FEATURE_DIM))
    modality = rng.random((500, MODALITY_DIM)) * (rng.random((500, MODALITY_DIM)) < 0.7)
    for gate_weights in (uniform_gate(12), tuple(rng.random(12)), (0.0,) * 11 + (1.0,)):
        chosen, _, _ = same_as_reference(experts, gate_weights, features, modality, restricted)
        if gate_weights == uniform_gate(12):
            assert chosen.max() < 3  # ties break to the lowest index


def test_ties_and_zero_gates_break_to_the_lowest_index():
    experts = tuple(Expert(profile=p, weights=(1.0,) + (0.0,) * 5, threshold=0.5)
                    for p in ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    features = np.zeros((4, FEATURE_DIM))
    modality = np.array([[0.4, 0.6, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    cases = {
        (0.25, 0.25, 0.25, 0.25): [1, 0, 3, 1],  # rows 1 and 3 tie at 0.0 and 0.25
        (0.0, 0.0, 0.0, 0.0): [0, 0, 0, 0],
        (1.0, 0.0, 0.5, 0.0): [2, 0, 0, 2],
    }
    for gate_weights, expected in cases.items():
        chosen, _, _ = same_as_reference(experts, gate_weights, features, modality)
        assert chosen.tolist() == expected


def test_the_gate_weight_scales_the_summed_affinity():
    # an exact tie, which scaling each product by the gate weight first
    # breaks: 0.56*(0.02*0.19) + 0.64*(0.84*0.19) rounds above the tie
    tie = 0.19 * (0.0 + 0.56 * 0.02 + 0.64 * 0.84)
    experts = (Expert(profile=(0.0, 0.0, tie), weights=(0.0,) * 6, threshold=0.0),
               Expert(profile=(0.02, 0.84, 0.0), weights=(0.0,) * 6, threshold=0.0))
    modality = np.array([[0.56, 0.64, 1.0]])
    chosen, _, _ = same_as_reference(experts, (1.0, 0.19), np.zeros((1, FEATURE_DIM)), modality)
    assert chosen.tolist() == [0]


@pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
def test_a_score_equal_to_its_threshold_is_fraud(restricted):
    expert = Expert(profile=(1.0, 0.0, 0.0), weights=(0.5, 1.0, 0.0, -1.0, 0.0, 0.0),
                    threshold=0.5)
    features = np.array([[0.2, 0.4, 0.0, 0.0, 0.0, 0.0],  # 0.1 + 0.4 == 0.5
                         [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                         [0.0, 0.5, -0.0, 0.0, 0.0, 0.0],
                         [-0.0, 0.4, 0.0, 0.0, 0.0, 0.0]])
    _, score, verdict = same_as_reference((expert,), (1.0,), features,
                                          np.ones((4, MODALITY_DIM)), restricted)
    assert score.tolist()[:3] == [0.5] * 3
    assert verdict.tolist() == [True, True, True, False]


def test_all_negative_zero_products_score_plus_zero():
    # a shadow's columns of -0.0s: every product is -0.0 and the sum from
    # 0.0 gives +0.0, as the scalar sum() does on the zero-filled row
    expert = Expert(profile=(1.0, 0.0, 0.0), weights=(1.0, 1.0, 1.0, -1.0, -1.0, -1.0),
                    threshold=0.0)
    _, score, verdict = same_as_reference((expert,), (1.0,), np.array([[-0.0] * FEATURE_DIM]),
                                          np.ones((1, MODALITY_DIM)), restricted=True)
    assert score[0].hex() == "0x0.0p+0" and verdict.tolist() == [True]


def test_a_specs_matrices_are_its_experts_built_once():
    experts = (Expert(profile=(0.0, -0.0, 1.0), weights=(-0.0, 0.0, 0.3, -1.0, 0.5, -0.25),
                      threshold=-0.0),
               Expert(profile=(0.5, 0.5, -0.0), weights=(1.0, -0.0, 0.0, 0.0, -0.0, 0.1),
                      threshold=0.5))
    spec = AgentSpec(FRAUD_ROLE, frozenset({"fraud"}), experts)
    assert "matrices" not in vars(spec)  # built on first use, not at load
    matrices = spec.matrices
    assert spec.matrices is matrices
    assert matrices.profiles.shape == (len(experts), MODALITY_DIM)
    assert matrices.weights.shape == (FEATURE_DIM, len(experts))
    assert matrices.weights.flags.c_contiguous
    assert not any(array.flags.writeable for array in matrices)  # shared, so read-only

    def hexes(rows):
        return [[x.hex() for x in row] for row in rows]

    assert hexes(matrices.profiles.tolist()) == hexes(e.profile for e in experts)
    assert hexes(matrices.weights.T.tolist()) == hexes(e.weights for e in experts)
    assert hexes([matrices.thresholds.tolist()]) == hexes([[e.threshold for e in experts]])
