"""Engine-level cycle composition: ordering, conservation, stall recovery,
and event-log replay."""

from dataclasses import replace

import pytest

from freeagent.config import AgentSpec, RunConfig, section_4_4_preset
from freeagent.domain import AgentStatus, ConfigError, EventKind
from freeagent.engine import METRICS_COLUMNS, Engine, RunTotals
from freeagent.lifecycle import LifecycleConfig, RoleSpec
from freeagent.moe import Expert
from freeagent.simulator import PatternSpec, Segment, StreamConfig
from tests.test_golden import workload

GOOD_PATTERN = PatternSpec(
    name="A", fraud_rate=0.5, fraud_shift={0: 6.0}, modality_base=(0.7, 0.3, 0.0)
)

GOOD_EXPERT = Expert(profile=(1.0, 0.0, 0.0), weights=(1.0, 0, 0, 0, 0, 0), threshold=3.0)
BLIND_EXPERT = Expert(profile=(1.0, 0.0, 0.0), weights=(0.0,) * 6, threshold=1.0)


def small_config(
    roster_experts=(GOOD_EXPERT,),
    pool_specs=(),
    cycles=4,
    spc=60,
    lifecycle=None,
    seed=5,
    required=frozenset({"fraud"}),
):
    roster = (
        AgentSpec(
            role="FraudDetection",
            skills=frozenset({"fraud"}),
            experts=tuple(roster_experts),
        ),
    )
    return RunConfig(
        stream=StreamConfig(
            seed=seed,
            samples_per_cycle=spc,
            total_cycles=cycles,
            patterns=(GOOD_PATTERN,),
            schedule=(Segment(0, {GOOD_PATTERN.name: 1.0}),),
        ),
        lifecycle=lifecycle or LifecycleConfig(),
        roles=(RoleSpec(name="FraudDetection", required_skills=required),),
        roster=roster,
        pool=tuple(pool_specs),
    )


def replay_membership(events, initial_roster, initial_pool):
    """Independent replay oracle: fold membership transitions only."""
    roster, pool = set(initial_roster), set(initial_pool)
    for e in events:
        if e.kind in (EventKind.RELEASE, EventKind.FREE_AGENCY):
            assert e.agent in roster, f"release of non-roster agent {e.agent}"
            roster.remove(e.agent)
            pool.add(e.agent)
        elif e.kind is EventKind.SIGN:
            assert e.agent in pool, f"signing of non-pool agent {e.agent}"
            pool.remove(e.agent)
            roster.add(e.agent)
        # Evaluate/Promote/ServiceTick do not move agents between sets
    return roster, pool


class TestHealthyRoster:
    def test_no_roster_churn(self):
        engine = Engine(small_config())
        for _ in range(4):
            report = engine.run_cycle()
            kinds = {e.kind for e in report.events}
            assert kinds <= {EventKind.EVALUATE, EventKind.SERVICE_TICK}
        assert engine.roster[0].service_time == 4
        assert engine.roster[0].performance > 0.9

    def test_metrics_row_shape(self):
        engine = Engine(small_config())
        report = engine.run_cycle()
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.status == "Active"
        assert row.tp + row.fp + row.fn + row.tn == 60
        assert len(METRICS_COLUMNS) == len(row.to_csv().split(","))


class TestReplacementFlow:
    def make_engine(self):
        pool = (
            AgentSpec(
                role="FraudDetection",
                skills=frozenset({"fraud", "rescue"}),
                experts=(GOOD_EXPERT,),
            ),
        )
        cfg = small_config(
            roster_experts=(BLIND_EXPERT,),
            pool_specs=pool,
            cycles=6,
            lifecycle=LifecycleConfig(sustain_window=2),
            required=frozenset({"fraud", "rescue"}),
        )
        return Engine(cfg)

    def test_release_and_sign_same_cycle_then_promote(self):
        engine = self.make_engine()
        all_events = []
        for _ in range(6):
            all_events.extend(engine.run_cycle().events)
        releases = [e for e in all_events if e.kind is EventKind.RELEASE]
        signs = [e for e in all_events if e.kind is EventKind.SIGN]
        promotes = [e for e in all_events if e.kind is EventKind.PROMOTE]
        assert len(releases) == 1 and len(signs) == 1 and len(promotes) == 1
        assert releases[0].cycle == signs[0].cycle == 1  # W=2: cycles 0 and 1 below
        assert promotes[0].cycle == 2
        assert engine.roster[1].status is AgentStatus.ACTIVE
        assert engine.pool[0].id == 0

    def test_stall_cycle_still_feeds_shadow(self):
        engine = self.make_engine()
        reports = [engine.run_cycle() for _ in range(3)]
        # cycle 2 has no Active agent (probation), but the shadow decided samples
        assert reports[2].stalled
        stall = reports[2]
        assert stall.system_tp + stall.system_fp + stall.system_fn + stall.system_tn == 0
        shadow_rows = [r for r in reports[2].rows if r.status == "Probationary"]
        assert len(shadow_rows) == 1
        assert shadow_rows[0].tp + shadow_rows[0].fp + shadow_rows[0].fn + shadow_rows[0].tn > 0

    def test_conservation_every_cycle(self):
        engine = self.make_engine()
        ids = set(engine.roster) | {a.id for a in engine.pool}
        for _ in range(6):
            engine.run_cycle()
            roster_ids = set(engine.roster)
            pool_ids = {a.id for a in engine.pool}
            assert roster_ids | pool_ids == ids
            assert roster_ids & pool_ids == set()

    @pytest.mark.parametrize("make", [lambda: workload("churn", 60), section_4_4_preset],
                             ids=["churn-60", "preset"])
    def test_roster_agents_are_active_or_probationary_and_pool_agents_released(self, make):
        # Only roster agents decide, on the view their status picks, so no
        # other status may reach the roster, nor a deciding one the pool.
        engine = Engine(make())
        for _ in range(engine.config.stream.total_cycles):
            engine.run_cycle()
            assert all(a.status in (AgentStatus.ACTIVE, AgentStatus.PROBATIONARY)
                       for a in engine.roster.values())
            assert all(a.status is AgentStatus.RELEASED for a in engine.pool)

    def test_failed_probation_is_refilled_the_next_cycle(self):
        # The vacancies are taken before probation is judged: a lone agent
        # released at cycle 12 leaves its role open until cycle 13.
        cfg = section_4_4_preset()
        engine = Engine(replace(cfg, lifecycle=replace(cfg.lifecycle, release_threshold=0.9,
                                                       sustain_window=2)))
        kinds = (EventKind.RELEASE, EventKind.SIGN, EventKind.PROMOTE, EventKind.FREE_AGENCY)
        events = [(e.cycle, e.kind, e.agent, e.detail) for _ in range(15)
                  for e in engine.run_cycle().events if e.kind in kinds]
        assert [event[:3] for event in events] == [
            (11, EventKind.RELEASE, 0), (11, EventKind.SIGN, 1), (12, EventKind.RELEASE, 1),
            (13, EventKind.SIGN, 1), (14, EventKind.PROMOTE, 1),
        ]
        assert events[2][3].startswith("failed probation")

    def test_replay_reproduces_final_partition(self):
        engine = self.make_engine()
        initial_roster = set(engine.roster)
        initial_pool = {a.id for a in engine.pool}
        events = [e for _ in range(6) for e in engine.run_cycle().events]
        roster, pool = replay_membership(events, initial_roster, initial_pool)
        assert roster == set(engine.roster)
        assert pool == {a.id for a in engine.pool}

    def test_events_appended_in_cycle_order(self):
        engine = self.make_engine()
        cycles = [e.cycle for _ in range(6) for e in engine.run_cycle().events]
        assert cycles == sorted(cycles)

    def test_signed_candidate_skills_match_vacancy(self):
        engine = self.make_engine()
        events = [e for _ in range(6) for e in engine.run_cycle().events]
        sign = next(e for e in events if e.kind is EventKind.SIGN)
        required = engine.config.roles[0].required_skills
        signed_agent = engine.roster.get(sign.agent) or next(
            a for a in engine.pool if a.id == sign.agent
        )
        assert signed_agent.spec.skills >= required


class TestLiteralMode:
    def test_w1_releases_on_first_bad_evaluation(self):
        cfg = small_config(
            roster_experts=(BLIND_EXPERT,), lifecycle=LifecycleConfig(sustain_window=1)
        )
        engine = Engine(cfg)
        report = engine.run_cycle()
        release = [e for e in report.events if e.kind is EventKind.RELEASE]
        assert len(release) == 1 and release[0].cycle == 0


class TestServiceCap:
    def test_cap_enforced_at_cycle_end(self):
        cfg = small_config(cycles=8, lifecycle=LifecycleConfig(max_service_time=3))
        engine = Engine(cfg)
        events = []
        for _ in range(8):
            events.extend(engine.run_cycle().events)
            for agent in engine.roster.values():
                assert agent.service_time < 3
        fa = [e for e in events if e.kind is EventKind.FREE_AGENCY]
        assert fa and fa[0].cycle == 2  # ticked to 3 at the end of cycle 2

    def test_cap_two_frees_each_signed_agent_before_it_decides_as_active(self):
        # Documented, not rejected: signed at service 1 after the tick, an
        # agent shadows one cycle and reaches the cap on the tick of the cycle
        # that promotes it, so the cap sweep frees it before it ever decides.
        base = section_4_4_preset(samples_per_cycle=100, total_cycles=8)
        cfg = replace(
            base,
            lifecycle=LifecycleConfig(max_service_time=2, sustain_window=1),
            pool=(base.pool[0],) * 3,
        )
        engine = Engine(cfg)
        reports = [engine.run_cycle() for _ in range(8)]
        routine = (EventKind.EVALUATE, EventKind.SERVICE_TICK)
        for agent in (1, 2, 3):
            kinds = [e.kind for r in reports for e in r.events if e.agent == agent]
            transitions = [k for k in kinds if k not in routine]
            assert transitions == [EventKind.SIGN, EventKind.PROMOTE, EventKind.FREE_AGENCY]
        active = {row.agent for r in reports for row in r.rows if row.status == "Active"}
        assert active == {0}
        decided = [r.system_tp + r.system_fp + r.system_fn + r.system_tn for r in reports]
        assert decided[2:] == [0] * 6

    def test_preseeded_overcap_agent_released_at_first_evaluation(self):
        roster = (
            AgentSpec(
                role="FraudDetection",
                skills=frozenset({"fraud"}),
                experts=(GOOD_EXPERT,),
                service_time=99,
            ),
        )
        cfg = small_config(lifecycle=LifecycleConfig(max_service_time=10))
        cfg = RunConfig(
            stream=cfg.stream, lifecycle=cfg.lifecycle, roles=cfg.roles,
            roster=roster, pool=(),
        )
        engine = Engine(cfg)
        report = engine.run_cycle()
        assert any(e.kind is EventKind.FREE_AGENCY for e in report.events)
        assert engine.roster == {}


class TestDegenerate:
    def test_empty_roster_and_pool_cycle_completes(self, caplog):
        cfg = RunConfig(
            stream=StreamConfig(
                seed=1, samples_per_cycle=10, total_cycles=2, patterns=(GOOD_PATTERN,),
                schedule=(Segment(0, {GOOD_PATTERN.name: 1.0}),),
            ),
            roles=(RoleSpec(name="FraudDetection", required_skills=frozenset({"fraud"})),),
        )
        engine = Engine(cfg)
        with caplog.at_level("WARNING"):
            report = engine.run_cycle()
        assert report.system_tp + report.system_fp + report.system_fn + report.system_tn == 0
        assert report.stalled
        assert "unfilled" in caplog.text  # the vacancy is logged

    def test_rewards_row_written_for_released_agent(self):
        cfg = small_config(
            roster_experts=(BLIND_EXPERT,), lifecycle=LifecycleConfig(sustain_window=1)
        )
        engine = Engine(cfg)
        report = engine.run_cycle()
        # released this cycle, but its pipeline-phase row is still emitted
        assert [r.agent for r in report.rows] == [0]
        assert report.rows[0].status == "Active"


class TestRunTotals:
    NO_KEY_CYCLES = {"first_release": None, "first_sign": None, "first_promote": None}

    @pytest.mark.parametrize("totals,at", [
        pytest.param({"cycles": [(1, 2, 3, 4, False), (1, -1, 0, 0, False)]}, "cycles[1]",
                     id="count_negative"),
        pytest.param({"event_counts": {"Sign": -1}}, "event_counts.Sign",
                     id="event_count_negative"),
        pytest.param({"event_counts": {"Bogus": 1}}, "event_counts.Bogus", id="event_kind_unknown"),
        pytest.param({"key_cycles": {"first_release": None, "first_promote": None}}, "key_cycles",
                     id="key_cycle_missing"),
        pytest.param({"key_cycles": dict(NO_KEY_CYCLES, first_drop=None)},
                     "key_cycles.first_drop", id="key_cycle_unknown"),
        pytest.param({"key_cycles": dict(NO_KEY_CYCLES, first_sign=-1)},
                     "key_cycles.first_sign", id="key_cycle_negative"),
        pytest.param({"cycles": [(0, 0, 0, 0, True)],
                      "key_cycles": dict(NO_KEY_CYCLES, first_sign=1)},
                     "key_cycles.first_sign", id="key_cycle_past_the_totals"),
    ])
    def test_out_of_range_totals_refused_naming_the_key(self, totals, at):
        # a snapshot's totals are read through these checks
        with pytest.raises(ConfigError) as exc:
            RunTotals(**totals)
        assert exc.value.at == at

    def test_the_totals_of_a_run_pass_their_checks(self):
        engine = Engine(small_config(pool_specs=small_config().roster, cycles=3))
        for _ in range(3):
            engine.run_cycle()
        assert RunTotals(**vars(engine.totals)) == engine.totals
