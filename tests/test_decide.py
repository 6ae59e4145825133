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
from freeagent.pipeline import ExpertMatrices, decide, expert_matrices
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
    assert matrices.profiles.shape == (MODALITY_DIM, len(experts))
    assert matrices.weights.shape == (FEATURE_DIM, len(experts))
    assert matrices.profiles.flags.c_contiguous and matrices.weights.flags.c_contiguous
    assert not any(array.flags.writeable for array in matrices)  # shared, so read-only

    def hexes(rows):
        return [[x.hex() for x in row] for row in rows]

    assert hexes(matrices.profiles.T.tolist()) == hexes(e.profile for e in experts)
    assert hexes(matrices.weights.T.tolist()) == hexes(e.weights for e in experts)
    assert hexes([matrices.thresholds.tolist()]) == hexes([[e.threshold for e in experts]])


def test_the_expert_key_is_the_matrices_bytes_signed_zeros_apart():
    # agents group on the key, so experts equal as floats but not as bytes
    # (0.0 against -0.0) must not share one
    expert = Expert(profile=(0.0, 1.0, 0.5), weights=(1.0, 0.0, -1.0, 0.5, 0.0, 0.3),
                    threshold=0.5)
    twin = Expert(profile=(-0.0, 1.0, 0.5), weights=expert.weights, threshold=0.5)
    other = Expert(profile=expert.profile, weights=(1.0, -0.0, -1.0, 0.5, 0.0, 0.3),
                   threshold=0.5)

    def spec(*experts):
        return AgentSpec(FRAUD_ROLE, frozenset({"fraud"}), experts)

    assert twin == expert and other == expert  # equal as floats
    keys = [spec(*e).expert_key for e in ((expert,), (twin,), (other,), (expert, expert))]
    assert len(set(keys)) == 4
    assert spec(expert).expert_key == spec(expert).expert_key == b"".join(
        array.tobytes() for array in spec(expert).matrices)


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.mark.parametrize("n", [1, 3])
def test_each_sum_takes_its_terms_in_order(n):
    # 1e16 + 1.0 rounds back to 1e16, so the features sum to 0.0 in scalar
    # order and to 1.0 in any order that adds 1.0 after the cancellation
    terms = (1e16, 1.0, -1e16, 0.0, 0.0, 0.0)
    assert left_to_right(terms) == 0.0 and left_to_right(terms[::2] + terms[1::2]) == 1.0
    scorer = Expert(profile=(0.0, 0.0, 0.0), weights=(1.0,) * FEATURE_DIM, threshold=0.5)
    # the same cancellation in modality space: its affinity ties the
    # zero-profile expert's 0.0 only in scalar order, and the tie goes to
    # the lowest index
    router = Expert(profile=(1.0, 1.0, 1.0), weights=(0.0,) * FEATURE_DIM, threshold=0.5)
    features = np.tile(np.array(terms)[:, None], (1, n))
    modality = np.tile([[1e16], [1.0], [-1e16]], (1, n))
    chosen, score, verdict = decide(expert_matrices((scorer, router)), (1.0, 1.0),
                                    features, modality)
    assert chosen.tolist() == [0] * n
    assert score.tolist() == [0.0] * n and verdict.tolist() == [False] * n


@pytest.mark.parametrize("n", [2, 3, 40])
def test_more_than_eight_rows_are_summed_left_to_right(n):
    # numpy sums a run of 8 or more elements pairwise; decide reduces over
    # the outer axis of a C-contiguous array, which it adds one row at a
    # time, so rows beyond FEATURE_DIM and MODALITY_DIM keep scalar order
    # (a single column is one run: see decide's docstring)
    rng = np.random.default_rng(5)
    rows_f, rows_m, n_experts = 11, 9, 4

    def wide(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape).astype(float)

    weights = wide((rows_f, n_experts))
    weights[:4] = 1.0
    experts = ExpertMatrices(np.abs(wide((rows_m, n_experts))), weights, wide(n_experts))
    features, modality = wide((rows_f, n)), np.abs(wide((rows_m, n)))
    # column 0 scores 0.0 left to right, where 1.0 + 1e16 rounds to 1e16,
    # and 1.0 pairwise, which adds 1e16 and -1e16 first
    features[:, 0] = (1.0, 0.0, 1e16, -1e16, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    gate_weights = tuple(rng.random(n_experts))
    chosen, score, verdict = decide(experts, gate_weights, features, modality)
    for k in range(n):
        affinity = [g * left_to_right((experts.profiles[:, e] * modality[:, k]).tolist())
                    for e, g in enumerate(gate_weights)]
        expert = affinity.index(max(affinity))
        expected = left_to_right((experts.weights[:, expert] * features[:, k]).tolist())
        assert (chosen[k], score[k].hex(), verdict[k]) == (
            expert, expected.hex(), expected >= experts.thresholds[expert])
    assert score[0] == 0.0
    assert np.sum(experts.weights[:, chosen[0]] * features[:, 0]) == 1.0


def test_a_gate_per_column_scales_each_column_alone():
    # agents that share experts decide together, each column routed by its
    # own agent's gate: the same bits as deciding each agent's columns apart
    experts = section_4_4_preset().pool[0].experts * 4
    matrices = expert_matrices(experts)
    rng = np.random.default_rng(3)
    features = rng.standard_normal((FEATURE_DIM, 30))
    modality = rng.random((MODALITY_DIM, 30))
    gates = [uniform_gate(12), tuple(rng.random(12)), (0.0,) * 11 + (1.0,)]
    widths = [10, 15, 5]
    columns = np.repeat(np.array(gates).T, widths, axis=1)
    together = decide(matrices, columns, features, modality)
    bounds = np.cumsum([0] + widths)
    apart = [decide(matrices, g, features[:, lo:hi].copy(), modality[:, lo:hi].copy())
             for g, lo, hi in zip(gates, bounds, bounds[1:])]
    for got, parts in zip(together, zip(*apart)):
        assert got.tobytes() == np.concatenate(parts).tobytes()
