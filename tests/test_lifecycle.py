"""Release, signing, probation, and service-time rules at the function level."""

from dataclasses import replace

import pytest

from freeagent.domain import AgentStatus, ConfigError, EventKind
from freeagent.lifecycle import (
    LifecycleConfig,
    RoleSpec,
    enforce_service_cap,
    evaluate_and_release,
    fill_vacant_roles,
    increment_service_time,
    transition_probationary,
    vacant_roles,
)
from freeagent.metrics import MetricsRow, count_ratios
from tests.test_pipeline import detector


def seeded_rows(agent_id, tp, fp, fn, tn=0, reward=1.0, rows=None):
    """``rows`` (or a new dict) with the agent's metrics row of a cycle with
    these counts and this cycle reward; the reward is read only under a
    reward threshold."""
    rows = {} if rows is None else rows
    rows[agent_id] = MetricsRow(0, agent_id, "Active", tp, fp, fn, tn,
                                *count_ratios(tp, fp, fn, tn), 0.0, 0.0, 0.0, reward, 0)
    return rows


def rows_for_f1(agent_id, f1_target, rows=None, reward=1.0):
    """Rows with one whose F1 is exactly f1_target (recall=precision)."""
    # with FP == FN, F1 == TP/(TP+FP); choose TP=round(1000*f1), FP=FN=rest
    tp = round(1000 * f1_target)
    bad = 1000 - tp
    return seeded_rows(agent_id, tp, bad, bad, reward=reward, rows=rows)


class TestEvaluate:
    def test_sets_performance_and_emits_no_event(self):
        # the row is the evaluation's record: the agent takes its F1, and
        # only a transition is logged
        agent = detector(0)
        rows, events = seeded_rows(0, 8, 2, 2), []
        evaluate_and_release({0: agent}, [], rows, LifecycleConfig(), 3, events)
        assert agent.performance == rows[0].f1 == pytest.approx(0.8)
        assert agent.consecutive_below == 0  # 0.8 is not below 0.80
        assert events == []

    def test_empty_window_evaluates_to_zero(self):
        agent = detector(0, performance=0.9)
        events = []
        evaluate_and_release({0: agent}, [], seeded_rows(0, 0, 0, 0), LifecycleConfig(), 0,
                             events)
        assert agent.performance == 0.0
        assert agent.consecutive_below == 1
        assert events == []


class TestEvaluateAndRelease:
    def test_immediate_release_below_threshold_w1(self):
        cfg = LifecycleConfig(release_threshold=0.80, sustain_window=1)
        agent = detector(0)
        roster, pool = {0: agent}, []
        events = []
        evaluate_and_release(roster, pool, rows_for_f1(0, 0.79), cfg, 0, events)
        assert roster == {} and pool == [agent]
        assert agent.status is AgentStatus.RELEASED
        assert agent.performance == pytest.approx(0.79)
        (release,) = events
        assert (release.kind, release.agent) == (EventKind.RELEASE, 0)
        assert release.detail == "below threshold 0.8 for 1 consecutive evaluations"
        assert release.performance_snapshot == agent.performance

    def test_good_performer_at_cap_is_kept_for_the_cap_sweep(self):
        # evaluation judges performance alone; the cap sweep is the one cap exit
        cfg = LifecycleConfig(max_service_time=50)
        agent = detector(0)
        agent.service_time = 50
        roster, pool, events = {0: agent}, [], []
        evaluate_and_release(roster, pool, rows_for_f1(0, 0.95), cfg, 0, events)
        assert roster == {0: agent} and pool == []
        assert agent.performance == pytest.approx(0.95) and events == []
        enforce_service_cap(roster, pool, cfg, 0, events)
        assert roster == {} and pool == [agent]
        assert events[-1].kind is EventKind.FREE_AGENCY
        assert events[-1].detail == "service_time 50 reached cap 50"

    def test_sustain_window_not_met_retained(self):
        cfg = LifecycleConfig(sustain_window=3)
        agent = detector(0)
        agent.consecutive_below = 1  # one bad prior cycle
        roster, pool, events = {0: agent}, [], []
        evaluate_and_release(roster, pool, rows_for_f1(0, 0.85), cfg, 0, events)
        assert 0 in roster
        assert agent.consecutive_below == 0  # good cycle resets the streak

    def test_streak_accumulates_to_release(self):
        cfg = LifecycleConfig(sustain_window=3)
        agent = detector(0)
        roster, pool = {0: agent}, []
        for cycle in range(3):
            events = []
            evaluate_and_release(roster, pool, rows_for_f1(0, 0.5), cfg, cycle, events)
        assert pool == [agent]
        assert agent.status is AgentStatus.RELEASED

    def test_reward_threshold_counts_as_below(self):
        cfg = LifecycleConfig(release_threshold=0.5, reward_threshold=0.9, sustain_window=1)
        agent = detector(0)
        roster, pool, events = {0: agent}, [], []
        # F1 fine (0.95) but reward under tau
        evaluate_and_release(roster, pool, rows_for_f1(0, 0.95, reward=0.2), cfg, 0, events)
        assert pool == [agent]

    def test_release_precedence_over_free_agency(self):
        cfg = LifecycleConfig(sustain_window=1, max_service_time=10)
        agent = detector(0)
        agent.service_time = 10
        roster, pool, events = {0: agent}, [], []
        evaluate_and_release(roster, pool, rows_for_f1(0, 0.1), cfg, 0, events)
        assert events[-1].kind is EventKind.RELEASE

    def test_ascending_id_order(self):
        cfg = LifecycleConfig(sustain_window=1)
        roster = {5: detector(5), 2: detector(2)}
        rows = rows_for_f1(5, 0.1)
        rows_for_f1(2, 0.1, rows)
        pool, events = [], []
        evaluate_and_release(roster, pool, rows, cfg, 0, events)
        assert [(e.kind, e.agent) for e in events] == [(EventKind.RELEASE, 2),
                                                      (EventKind.RELEASE, 5)]
        assert [a.id for a in pool] == [2, 5]


def signed(events):
    """The ids the Sign events record, in order."""
    return [e.agent for e in events if e.kind is EventKind.SIGN]


class TestFillVacantRoles:
    def test_skills_superset_required(self):
        a = detector(1, skills={"text"})
        a.status = AgentStatus.RELEASED
        b = detector(2, skills={"text", "pattern-B"})
        b.status = AgentStatus.RELEASED
        b.performance = 0.9
        pool = [a, b]
        roster, events = {}, []
        vac = [RoleSpec("FraudDetection", frozenset({"text", "pattern-B"}))]
        assert fill_vacant_roles(roster, pool, vac, LifecycleConfig(), 0, events) is None
        assert signed(events) == [2] and len(events) == 1
        assert events[0].detail == "signed for role FraudDetection"
        assert roster[2].status is AgentStatus.PROBATIONARY
        assert pool == [a]

    def test_best_performance_wins(self):
        # brute-force oracle over the 2-candidate set: argmax performance
        lo, hi = detector(1, performance=0.7), detector(2, performance=0.9)
        for agent in (lo, hi):
            agent.status = AgentStatus.RELEASED
        expected = max([lo, hi], key=lambda a: a.performance).id
        roster, events = {}, []
        vac = [RoleSpec("FraudDetection", frozenset({"fraud"}))]
        fill_vacant_roles(roster, [lo, hi], vac, LifecycleConfig(), 0, events)
        assert signed(events) == [expected]

    def test_performance_tie_breaks_to_lowest_id(self):
        a, b = detector(4, performance=0.8), detector(2, performance=0.8)
        for agent in (a, b):
            agent.status = AgentStatus.RELEASED
        events = []
        fill_vacant_roles(
            {}, [a, b], [RoleSpec("FraudDetection", frozenset())], LifecycleConfig(), 0, events
        )
        assert signed(events) == [2]

    def test_empty_pool_leaves_vacancy(self, caplog):
        events = []
        with caplog.at_level("WARNING", logger="freeagent.lifecycle"):
            fill_vacant_roles(
                {}, [], [RoleSpec("FraudDetection", frozenset())], LifecycleConfig(), 0, events
            )
        assert events == []
        assert "unfilled" in caplog.text

    def test_service_time_reset_when_configured(self):
        agent = detector(1)
        agent.status = AgentStatus.RELEASED
        agent.service_time = 7
        cfg = LifecycleConfig(keep_service_time_on_resign=False)
        events = []
        fill_vacant_roles({}, [agent], [RoleSpec("FraudDetection", frozenset())], cfg, 0, events)
        assert signed(events) == [1]
        assert agent.service_time == 0

    def test_service_time_kept_by_default(self):
        agent = detector(1)
        agent.status = AgentStatus.RELEASED
        agent.service_time = 7
        events = []
        fill_vacant_roles(
            {}, [agent], [RoleSpec("FraudDetection", frozenset())], LifecycleConfig(), 0, events
        )
        assert signed(events) == [1]
        assert agent.service_time == 7

    @pytest.mark.parametrize("keep", [True, False])
    def test_agent_at_service_cap_passed_over(self, keep):
        # the best candidate would be freed again by the cap sweep this same
        # cycle, so the next-best one below the cap is signed instead
        capped, fresh = detector(1, performance=0.9), detector(2, performance=0.5)
        for agent in (capped, fresh):
            agent.status = AgentStatus.RELEASED
        capped.service_time = 2
        cfg = LifecycleConfig(max_service_time=2, keep_service_time_on_resign=keep)
        roster, pool, events = {}, [capped, fresh], []
        fill_vacant_roles(roster, pool, [RoleSpec("FraudDetection", frozenset())], cfg, 0, events)
        assert signed(events) == ([2] if keep else [1])
        enforce_service_cap(roster, pool, cfg, 0, [])
        assert list(roster) == signed(events)


class TestVacancies:
    def test_vacancy_iff_role_unfilled(self):
        roles = (RoleSpec("FraudDetection", frozenset({"fraud"})),)
        active = detector(0)
        assert vacant_roles({0: active}, roles) == []
        prob = detector(1, status=AgentStatus.PROBATIONARY)
        assert vacant_roles({1: prob}, roles) == []
        assert vacant_roles({}, roles) == list(roles)


class TestTransitionProbationary:
    def make_prob(self, agent_id=1, performance=0.0):
        """A probationary agent whose shadow window evaluated to ``performance``."""
        return detector(agent_id, status=AgentStatus.PROBATIONARY, performance=performance)

    def test_promoted_at_088(self):
        agent = self.make_prob(performance=0.88)
        roster, pool, events = {1: agent}, [], []
        transition_probationary(roster, pool, LifecycleConfig(), 0, events)
        assert agent.status is AgentStatus.ACTIVE
        assert events[-1].kind is EventKind.PROMOTE

    def test_released_below_threshold(self):
        agent = self.make_prob(performance=0.70)
        roster, pool, events = {1: agent}, [], []
        transition_probationary(roster, pool, LifecycleConfig(), 0, events)
        assert agent.status is AgentStatus.RELEASED
        assert pool == [agent]
        assert events[-1].kind is EventKind.RELEASE

    def test_exact_threshold_promotes(self):
        agent = self.make_prob(performance=0.80)
        roster, pool, events = {1: agent}, [], []
        transition_probationary(roster, pool, LifecycleConfig(), 0, events)
        assert agent.status is AgentStatus.ACTIVE

    def test_gate_reset_on_transition(self):
        agent = self.make_prob(performance=0.9)
        agent.spec = replace(agent.spec, experts=agent.spec.experts * 2)
        agent.gate_weights = (0.9, 0.1)
        transition_probationary({1: agent}, [], LifecycleConfig(), 0, [])
        assert agent.gate_weights == (0.5, 0.5)

    def test_every_probationary_roster_agent_is_judged(self):
        active = detector(0, performance=0.1)
        probs = [self.make_prob(1, 0.9), self.make_prob(2, 0.7), self.make_prob(3, 0.85)]
        roster, pool, events = {a.id: a for a in (active, *probs)}, [], []
        transition_probationary(roster, pool, LifecycleConfig(), 0, events)
        assert [(e.agent, e.kind) for e in events] == [
            (1, EventKind.PROMOTE), (2, EventKind.RELEASE), (3, EventKind.PROMOTE)
        ]
        assert sorted(roster) == [0, 1, 3] and pool == [probs[1]]
        assert active.status is AgentStatus.ACTIVE

    def test_active_agents_untouched(self):
        agent = detector(1, performance=0.1)
        transition_probationary({1: agent}, [], LifecycleConfig(), 0, [])
        assert agent.status is AgentStatus.ACTIVE

    def test_judged_on_the_evaluation_of_stage_3_with_no_second_event(self):
        # evaluate_and_release already evaluated the agent on its shadow
        # window; the transition writes only the Promote or Release
        agent = self.make_prob()
        roster, pool, events = {1: agent}, [], []
        cfg = LifecycleConfig()
        evaluate_and_release(roster, pool, rows_for_f1(1, 0.88), cfg, 0, events)
        transition_probationary(roster, pool, cfg, 0, events)
        assert [e.kind for e in events] == [EventKind.PROMOTE]
        assert events[0].performance_snapshot == agent.performance == pytest.approx(0.88)
        assert agent.status is AgentStatus.ACTIVE


class TestServiceTime:
    def test_active_and_probationary_tick(self):
        active = detector(0)
        active.service_time = 4
        prob = detector(1, status=AgentStatus.PROBATIONARY)
        increment_service_time({0: active, 1: prob})
        assert active.service_time == 5
        assert prob.service_time == 1

    def test_pool_agents_unchanged(self):
        pooled = detector(2, status=AgentStatus.RELEASED)
        pooled.service_time = 7
        increment_service_time({})
        assert pooled.service_time == 7

    def test_cap_sweep_releases_at_cap(self):
        cfg = LifecycleConfig(max_service_time=5)
        agent = detector(0)
        agent.service_time = 5
        roster, pool, events = {0: agent}, [], []
        enforce_service_cap(roster, pool, cfg, 0, events)
        assert pool == [agent]
        assert events[-1].kind is EventKind.FREE_AGENCY

    def test_cap_sweep_ignores_below_cap(self):
        cfg = LifecycleConfig(max_service_time=5)
        agent = detector(0)
        agent.service_time = 4
        roster, pool = {0: agent}, []
        enforce_service_cap(roster, pool, cfg, 0, [])
        assert 0 in roster


class TestConfigValidation:
    def test_sustain_window_zero_rejected(self):
        with pytest.raises(ConfigError):
            LifecycleConfig(sustain_window=0)

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            LifecycleConfig(release_threshold=1.5)
