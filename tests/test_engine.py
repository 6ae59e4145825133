"""Engine-level cycle composition: ordering, conservation, stall recovery,
and event-log replay."""

import re
from dataclasses import replace
from operator import is_

import pytest

from freeagent import engine as engine_module
from freeagent.cli import main
from freeagent.config import AgentSpec, RunConfig, section_4_4_preset
from freeagent.domain import AgentStatus, EventKind
from freeagent.engine import METRICS_COLUMNS, Engine, restore_engine
from freeagent.lifecycle import LifecycleConfig, RoleSpec
from freeagent.metrics import METRICS_LINE
from freeagent.moe import Expert, rl_update
from freeagent.pipeline import CyclePipeline
from freeagent.reward import compute_reward
from freeagent.simulator import PatternSpec, Segment, StreamConfig, generate_cycle
from tests.test_golden import assert_resumed_as_full, workload

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
        # Promote does not move an agent between sets
    return roster, pool


class TestHealthyRoster:
    def test_no_roster_churn(self):
        # no transition is logged; each cycle's row records the tick
        engine = Engine(small_config())
        for cycle in range(4):
            report = engine.run_cycle()
            assert report.events == []
            assert [(row.agent, row.service_time) for row in report.rows] == [(0, cycle + 1)]
        assert engine.roster[0].service_time == 4
        assert engine.roster[0].performance > 0.9

    def test_metrics_row_shape(self):
        engine = Engine(small_config())
        report = engine.run_cycle()
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.status == "Active"
        assert row.tp + row.fp + row.fn + row.tn == 60
        assert len(METRICS_COLUMNS) == len((METRICS_LINE % row).split(","))


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
        assert engine.totals.cycles[2][4]
        assert engine.totals.cycles[2] == (0, 0, 0, 0, True)  # no Active agent decided
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

    @pytest.mark.parametrize("make", [lambda: workload("churn", 60), section_4_4_preset],
                             ids=["churn-60", "preset"])
    def test_the_gate_input_and_the_row_come_from_one_tally(self, monkeypatch, make):
        # Stage 2 reads each member's window once: its row scores the
        # window's counts, its gate learns from the window's net rewards,
        # and the row's reward follows from the row's own columns, so the
        # reward a release was judged on can be explained from metrics.csv.
        logs, nets = [], []

        class Recording(CyclePipeline):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                logs.append(self.log)

        def recording_update(gate_weights, learning_rate, net):
            nets.append(net)
            return rl_update(gate_weights, learning_rate, net)

        monkeypatch.setattr(engine_module, "CyclePipeline", Recording)
        monkeypatch.setattr(engine_module, "rl_update", recording_update)
        engine = Engine(make())
        decided = 0
        for _ in range(engine.config.stream.total_cycles):
            before = len(nets)
            report = engine.run_cycle()
            windows, fed = logs[-1].windows, []
            for row in report.rows:
                win = windows[row.agent]
                assert (row.tp, row.fp, row.fn, row.tn) == (
                    win.true_positives, win.false_positives,
                    win.false_negatives, win.true_negatives)
                if win.net is None:
                    assert win.samples_seen == 0
                else:
                    assert sum(win.net) == (row.tp + row.tn) - (row.fp + row.fn)
                    fed.append(win.net)
                reward = compute_reward(engine.config.reward, row.f1, row.synergy,
                                        row.efficiency, row.penalty)
                assert row.reward.hex() == reward.hex()
            # the gates took exactly the windows' net rewards, in id order
            assert len(nets) - before == len(fed) and all(map(is_, nets[before:], fed))
            decided += len(fed)
        assert decided > 0

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
        for agent in (1, 2, 3):
            kinds = [e.kind for r in reports for e in r.events if e.agent == agent]
            assert kinds == [EventKind.SIGN, EventKind.PROMOTE, EventKind.FREE_AGENCY]
            # one shadow row, at service 2 after its tick; the cap sweep
            # frees it before it decides as Active
            rows = [row for r in reports for row in r.rows if row.agent == agent]
            assert [(row.status, row.service_time) for row in rows] == [("Probationary", 2)]
        active = {row.agent for r in reports for row in r.rows if row.status == "Active"}
        assert active == {0}
        decided = [sum(cycle[:4]) for cycle in engine.totals.cycles]
        assert decided[2:] == [0] * 6

    def test_preseeded_overcap_agent_decides_its_first_cycle_then_is_freed(self):
        # The cap sweep is the one cap exit: an agent seeded past the cap
        # decides cycle 0 as Active, is freed after its tick, and its role
        # is signed the next cycle.
        base = small_config(lifecycle=LifecycleConfig(max_service_time=10))
        overcap = replace(base.roster[0], service_time=99)
        cfg = replace(base, roster=(overcap,), pool=(base.roster[0],))
        engine = Engine(cfg)
        first = engine.run_cycle()
        (row,) = first.rows
        assert row.agent == 0 and row.status == "Active"
        assert row.tp + row.fp + row.fn + row.tn == cfg.stream.samples_per_cycle
        assert row.service_time == 100  # the tick
        (freed,) = first.events
        assert (freed.kind, freed.agent) == (EventKind.FREE_AGENCY, 0)
        assert freed.detail == "service_time 100 reached cap 10"
        assert engine.roster == {}
        second = engine.run_cycle()
        assert [e.agent for e in second.events if e.kind is EventKind.SIGN] == [1]


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
            engine.run_cycle()
        assert engine.totals.cycles == [(0, 0, 0, 0, True)]
        assert engine.totals.cycles[0][4]
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


class TestEmptyRoster:
    # the cut churn workload's cycles that start with an empty roster
    EMPTY = [3, 7, 11, 15, 19, 23, 27, 31, 35, 40, 44, 48, 52, 56]

    def test_a_cycle_with_an_empty_roster_draws_no_stream(self, monkeypatch):
        drawn, stalled = [], []

        def counting_generate(stream, cycle):
            drawn.append(cycle)
            return generate_cycle(stream, cycle)

        class Recording(CyclePipeline):
            def run_batch(self, batch):
                super().run_batch(batch)
                stalled.append(self.stalled_samples)

        monkeypatch.setattr(engine_module, "generate_cycle", counting_generate)
        monkeypatch.setattr(engine_module, "CyclePipeline", Recording)
        engine = Engine(workload("churn", 60))
        empty = []
        for cycle in range(60):
            if not engine.roster:
                empty.append(cycle)
            engine.run_cycle()
        assert empty == self.EMPTY
        assert drawn == [c for c in range(60) if c not in empty]
        # each empty cycle still stalls all its samples, as do the cycles
        # whose roster has no Active agent
        assert [stalled[c] for c in empty] == [50] * len(empty)
        assert sum(stalled) == 1450 and len(stalled) == 60

    def test_a_run_resumed_before_an_empty_roster_cycle_writes_the_same_bytes(self, tmp_path):
        full, resumed = tmp_path / "full", tmp_path / "resumed"
        Engine(workload("churn", 40)).run(full)
        snapshot = full / "snapshots" / "state_cycle_0015.json"
        assert restore_engine(snapshot).roster == {}
        assert main(["run", "--restore", str(snapshot), "--out", str(resumed)]) == 0
        assert_resumed_as_full(full, resumed, 15)


class TestStall:
    def test_the_stalled_cycles_are_those_the_pipeline_warned_of(self, caplog):
        # the totals' flag comes from the rows; the warning from stalled_samples
        engine = Engine(workload("churn", 60))
        with caplog.at_level("WARNING", logger="freeagent.pipeline"):
            while engine.cycle < 60:
                engine.run_cycle()
        stall = re.compile(r"cycle (\d+): no active FraudDetection agent")
        warned = [int(m[1]) for r in caplog.records if (m := stall.match(r.getMessage()))]
        stalled = [cycle for cycle, row in enumerate(engine.totals.cycles) if row[4]]
        assert warned == stalled
        assert len(stalled) == 29  # 1450 stalled samples, 50 a cycle

    def test_a_run_without_detections_removes_an_earlier_runs_file(self, tmp_path):
        cfg = small_config()
        Engine(replace(cfg, emit_detections=True)).run(tmp_path)
        assert (tmp_path / "detections.jsonl").read_text()
        Engine(cfg).run(tmp_path)
        assert not (tmp_path / "detections.jsonl").exists()
        assert (tmp_path / "metrics.csv").exists()


class TestRerun:
    def test_a_rerun_leaves_only_its_own_snapshots(self, tmp_path):
        cfg = replace(small_config(cycles=8), snapshot_interval=2)
        Engine(cfg).run(tmp_path)
        snapshots = tmp_path / "snapshots"
        assert len(list(snapshots.iterdir())) == 4
        (snapshots / "notes.txt").write_text("not a restore point\n")
        rerun = replace(cfg, stream=replace(cfg.stream, seed=7, total_cycles=6),
                        snapshot_interval=3)
        Engine(rerun).run(tmp_path)
        assert sorted(p.name for p in snapshots.iterdir()) == [
            "notes.txt", "state_cycle_0003.json", "state_cycle_0006.json"]
        assert restore_engine(snapshots / "state_cycle_0006.json").config == rerun
        # a run that writes no snapshot leaves none of another run's
        Engine(replace(rerun, snapshot_interval=0)).run(tmp_path)
        assert [p.name for p in snapshots.iterdir()] == ["notes.txt"]


class TestRunTotals:
    def test_the_totals_of_a_run_pass_their_checks(self, tmp_path):
        # each snapshot's restore folds the run's files, through the checks
        # that they lead to the snapshot, into the totals the run had folded
        cfg = workload("churn", 60)
        Engine(cfg).run(tmp_path)
        live = Engine(cfg)
        for cycle in range(5, 61, 5):
            while live.cycle < cycle:
                live.run_cycle()
            restored = restore_engine(tmp_path / "snapshots" / f"state_cycle_{cycle:04d}.json")
            assert restored.totals == live.totals, cycle
        assert live.totals.event_counts["Promote"] == 14
