"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion.

The drift-scenario criteria all run against the bundled "section-4.4"
preset with its pinned seed; the property criteria use seeded generators
so the whole suite is reproducible.
"""

import json
import math
import random
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from freeagent.config import AgentSpec, RunConfig, preset_config
from freeagent.domain import AgentStatus, EventKind
from freeagent.engine import Engine, restore_engine
from freeagent.lifecycle import LifecycleConfig, RoleSpec
from freeagent.metrics import count_ratios
from freeagent.moe import Expert, rl_update
from freeagent.pipeline import decide
from freeagent.reward import RewardConfig, compute_reward
from freeagent.simulator import PatternSpec, Segment, StreamConfig
from tests.scalar_oracle import expert_score, gate, generate_cycle_samples, redact
from tests.test_engine import BLIND_EXPERT, replay_membership, small_config

DRIFT_CYCLE = 10
SUSTAIN_W = 3


def criterion(number: str, description: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {number} {description}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__)
    assert ok, line


class ScenarioRun:
    """One in-process preset run with per-cycle captures for the audits."""

    def __init__(self):
        config = replace(preset_config("section-4.4"), emit_detections=True)
        self.config = config
        self.engine = Engine(config)
        self.reports = []
        # (cycle, agent) -> the shadow agent's experts and gate weights
        self.shadow_states: dict[tuple[int, int], tuple] = {}
        self.active_by_cycle: dict[int, set[int]] = {}
        started = time.perf_counter()
        while self.engine.cycle < config.stream.total_cycles:
            cycle = self.engine.cycle
            for aid, agent in self.engine.roster.items():
                if agent.status is AgentStatus.PROBATIONARY:
                    self.shadow_states[(cycle, aid)] = (agent.spec.experts, agent.gate_weights)
            self.active_by_cycle[cycle] = {
                aid
                for aid, agent in self.engine.roster.items()
                if agent.status is AgentStatus.ACTIVE
            }
            self.reports.append(self.engine.run_cycle())
        self.elapsed = time.perf_counter() - started
        self.events = [e for report in self.reports for e in report.events]
        self.rows = [row for report in self.reports for row in report.rows]
        self.detections = [json.loads(line) for report in self.reports
                           for line in report.detections]

    def pooled_accuracy(self, agent_id, cycles=None, status=None):
        rows = [
            r
            for r in self.rows
            if r.agent == agent_id
            and (cycles is None or r.cycle in cycles)
            and (status is None or r.status == status)
        ]
        decided = sum(r.tp + r.fp + r.fn + r.tn for r in rows)
        if decided == 0:
            return None
        return sum(r.tp + r.tn for r in rows) / decided

    def first_event(self, kind: EventKind):
        return next((e for e in self.events if e.kind is kind), None)


@pytest.fixture(scope="module")
def scenario():
    return ScenarioRun()


class TestCriterion1Scenario:
    def test_drift_scenario_replication(self, scenario):
        release = scenario.first_event(EventKind.RELEASE)
        sign = scenario.first_event(EventKind.SIGN)
        promote = scenario.first_event(EventKind.PROMOTE)

        pre = scenario.pooled_accuracy(0, cycles=range(0, DRIFT_CYCLE))
        post_end = release.cycle + 1 if release else scenario.config.stream.total_cycles
        post = scenario.pooled_accuracy(0, cycles=range(DRIFT_CYCLE, post_end))
        a_ok = pre is not None and pre >= 0.93 and post is not None and post <= 0.78

        b_ok = release is not None and DRIFT_CYCLE <= release.cycle <= DRIFT_CYCLE + SUSTAIN_W + 1
        c_ok = sign is not None and release is not None and sign.cycle == release.cycle

        shadow = scenario.pooled_accuracy(1, status="Probationary")
        d_ok = shadow is not None and 0.85 <= shadow <= 0.91

        promoted = scenario.pooled_accuracy(1, status="Active")
        e_ok = promote is not None and promoted is not None and promoted >= 0.90

        # the Active agents' (tp, fp, fn, tn, stalled) of each cycle, by cycle
        system = scenario.engine.totals.cycles
        pre_counts = [sum(c[k] for c in system[:DRIFT_CYCLE]) for k in range(3)]
        f1_pre = count_ratios(*pre_counts, 0)[2]
        f_ok = False
        if promote is not None:
            window = [c for c in system[promote.cycle:promote.cycle + 10] if sum(c[:4]) > 0]
            f_ok = any(abs(count_ratios(*c[:3], 0)[2] - f1_pre) <= 0.05 for c in window)

        runtime_ok = scenario.elapsed < 60.0

        detail = (
            f"a: pre={pre:.4f}/post={post:.4f}, b: release@{release.cycle if release else '-'}, "
            f"c: sign@{sign.cycle if sign else '-'}, d: shadow={shadow:.4f}, "
            f"e: promoted={promoted:.4f}, f: pre-drift F1={f1_pre:.4f}, "
            f"runtime={scenario.elapsed:.1f}s"
        )
        criterion(
            "1", "drift scenario replication",
            a_ok and b_ok and c_ok and d_ok and e_ok and f_ok and runtime_ok, detail,
        )


class TestCriterion2F1Oracle:
    def test_f1_matches_independent_oracle(self):
        def f1(tp, fp, fn):  # the F1 of every metrics.csv row
            return count_ratios(tp, fp, fn, 0)[2]

        def oracle(tp, fp, fn):
            denom = 2 * tp + fp + fn
            return 0.0 if denom == 0 else 2 * tp / denom

        rng = random.Random(20240)
        worst = 0.0
        for _ in range(10_000):
            tp, fp, fn = (rng.randint(0, 100) for _ in range(3))
            worst = max(worst, abs(f1(tp, fp, fn) - oracle(tp, fp, fn)))

        for value in range(101):  # any two of the three zero, exhaustively
            worst = max(worst, abs(f1(value, 0, 0) - oracle(value, 0, 0)))
            worst = max(worst, abs(f1(0, value, 0) - oracle(0, value, 0)))
            worst = max(worst, abs(f1(0, 0, value) - oracle(0, 0, value)))

        criterion("2", "F1 oracle equivalence", worst < 1e-12, f"max |diff|={worst:.2e}")


class TestCriterion3RewardLinearity:
    def test_linearity_and_bounds(self):
        rng = random.Random(30303)
        signs = (1.0, 1.0, 1.0, -1.0)
        max_slope_err = 0.0
        bounds_ok = True
        for _ in range(1_000):
            w = RewardConfig(*(rng.uniform(0.0, 2.0) for _ in range(4)))
            weights = (w.alpha, w.beta, w.gamma, w.delta)
            base = [rng.uniform(0.0, 0.7) for _ in range(4)]
            delta = rng.uniform(0.01, 0.3)
            r0 = compute_reward(w, *base)
            bounds_ok &= -w.delta - 1e-12 <= r0 <= w.alpha + w.beta + w.gamma + 1e-12
            for k in range(4):
                bumped = list(base)
                bumped[k] += delta
                slope = (compute_reward(w, *bumped) - r0) / delta
                max_slope_err = max(max_slope_err, abs(slope - signs[k] * weights[k]))
        criterion(
            "3", "reward linearity and bounds",
            max_slope_err < 1e-9 and bounds_ok, f"max slope error={max_slope_err:.2e}",
        )


def _random_run_config(rng: random.Random) -> RunConfig:
    def one_hot(coord):
        w = [0.0] * 6
        w[coord] = 1.0
        return tuple(w)

    bases = [(0.7, 0.3, 0.0), (0.0, 0.3, 0.7), (0.3, 0.7, 0.0)]
    patterns = []
    for name in ("P", "Q")[: rng.choice([1, 2])]:
        patterns.append(
            PatternSpec(
                name=name,
                fraud_rate=rng.uniform(0.2, 0.8),
                fraud_shift={rng.randrange(3): rng.uniform(1.0, 6.0)},
                modality_base=rng.choice(bases),
            )
        )
    mix = {p.name: 1.0 / len(patterns) for p in patterns}
    segments = (Segment(0, mix),)
    if len(patterns) == 2 and rng.random() < 0.5:
        segments = (Segment(0, {patterns[0].name: 1.0}), Segment(rng.randrange(5, 20), mix))

    def agent_spec():
        experts = tuple(
            Expert(
                profile=rng.choice([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
                weights=one_hot(rng.randrange(3)),
                threshold=rng.uniform(0.3, 4.0),
            )
            for _ in range(rng.choice([1, 2]))
        )
        skills = {"fraud"} | ({"extra"} if rng.random() < 0.6 else set())
        return AgentSpec(
            role="FraudDetection",
            skills=frozenset(skills),
            experts=experts,
            handoff_reliability=rng.uniform(0.9, 1.0),
            service_time=rng.randrange(0, 4),
        )

    required = frozenset({"fraud"}) if rng.random() < 0.7 else frozenset({"fraud", "extra"})
    return RunConfig(
        stream=StreamConfig(
            seed=rng.getrandbits(32),
            samples_per_cycle=40,
            total_cycles=30,
            patterns=tuple(patterns),
            schedule=segments,
        ),
        lifecycle=LifecycleConfig(
            release_threshold=rng.uniform(0.5, 0.9),
            sustain_window=rng.choice([1, 2, 3]),
            max_service_time=rng.randrange(4, 40),
            keep_service_time_on_resign=rng.random() < 0.5,
        ),
        roles=(RoleSpec(name="FraudDetection", required_skills=required),),
        roster=tuple(agent_spec() for _ in range(rng.choice([1, 1, 2]))),
        pool=tuple(agent_spec() for _ in range(rng.choice([0, 1, 2]))),
    )


class TestCriterion4LifecycleInvariants:
    def test_invariants_over_random_runs(self):
        rng = random.Random(40404)
        runs = 100
        for _ in range(runs):
            config = _random_run_config(rng)
            engine = Engine(config)
            all_ids = set(engine.roster) | {a.id for a in engine.pool}
            initial_roster = set(engine.roster)
            initial_pool = {a.id for a in engine.pool}
            events = []
            streaks: dict[int, int] = {}
            threshold = config.lifecycle.release_threshold
            window = config.lifecycle.sustain_window
            cap = config.lifecycle.max_service_time

            for _cycle in range(30):
                start_status = {aid: a.status for aid, a in engine.roster.items()}
                events.extend(engine.run_cycle().events)

                # service cap holds at every cycle boundary
                for agent in engine.roster.values():
                    assert agent.service_time < cap, "agent ended cycle at/past service cap"

                # conservation of the roster/pool partition
                roster_ids = set(engine.roster)
                pool_ids = {a.id for a in engine.pool}
                assert roster_ids | pool_ids == all_ids
                assert roster_ids & pool_ids == set()

                # independently tracked sustain streaks force release
                for aid, agent in engine.roster.items():
                    was_active = start_status.get(aid) is AgentStatus.ACTIVE
                    if was_active and agent.status is AgentStatus.ACTIVE:
                        below = agent.performance < threshold
                        streaks[aid] = streaks.get(aid, 0) + 1 if below else 0
                        assert streaks[aid] < window, "sustained underperformer kept on roster"
                    else:
                        streaks[aid] = 0
                for aid in list(streaks):
                    if aid not in engine.roster:
                        streaks.pop(aid)

            final_roster, final_pool = replay_membership(events, initial_roster, initial_pool)
            assert final_roster == set(engine.roster)
            assert final_pool == {a.id for a in engine.pool}

        criterion("4", "lifecycle invariants on random runs", True, f"{runs} runs x 30 cycles")


class TestCriterion5ShadowAudit:
    def test_shadow_isolation_and_redaction_audit(self, scenario):
        spc = scenario.config.stream.samples_per_cycle
        shadow_rows = [d for d in scenario.detections if d["shadow"]]
        action_rows = [d for d in scenario.detections if d["action"] != "None"]

        isolation_ok = all(d["action"] == "None" for d in shadow_rows) and all(
            d["agent"] in scenario.active_by_cycle[d["seq"] // spc] for d in action_rows
        )

        # recompute every shadow decision from Restricted-redacted inputs,
        # each cycle's samples drawn once by the oracle
        samples = {}
        mismatches = 0
        for det in shadow_rows:
            cycle, seq = divmod(det["seq"], spc)
            experts, gate_weights = scenario.shadow_states[(cycle, det["agent"])]
            if cycle not in samples:
                samples[cycle] = generate_cycle_samples(scenario.config.stream, cycle)
            sample = samples[cycle][seq]
            idx = gate(experts, gate_weights, sample.modality)
            score, verdict = expert_score(experts[idx], redact(sample.features))
            if verdict != det["verdict"] or score != det["score"]:
                mismatches += 1

        criterion(
            "5", "shadow isolation and redaction audit",
            isolation_ok and mismatches == 0 and len(shadow_rows) > 0,
            f"{len(shadow_rows)} shadow decisions recomputed bit-exactly",
        )


class TestCriterion6GatingLearning:
    def test_gate_learns_the_correct_expert(self):
        profile = (1.0, 0.0, 0.0)
        wrong = Expert(profile, weights=(0.0,) * 6, threshold=0.5)   # always legit
        right = Expert(profile, weights=(1.0, 0, 0, 0, 0, 0), threshold=0.5)   # fraud on x=1
        experts, gate_weights = (wrong, right), (0.5, 0.5)

        # stationary all-fraud stream, one sample per batch
        features, modality, label = np.ones((1, 6)), np.ones((1, 3)), True
        selections = []
        for _ in range(300):
            chosen, _, verdict = decide(experts, gate_weights, features, modality)
            idx = int(chosen[0])
            selections.append(idx)
            net = [0.0, 0.0]
            net[idx] = 1.0 if bool(verdict[0]) == label else -1.0
            gate_weights = rl_update(gate_weights, 0.05, net)

        tail_freq = sum(1 for s in selections[-100:] if s == 1) / 100
        # closed form: expert 0 used once at -1, expert 1 gets +1 thereafter
        closed = (0.5 * math.exp(0.05 * 299)) / (
            0.5 * math.exp(0.05 * 299) + 0.5 * math.exp(-0.05)
        )
        weight_ok = gate_weights[1] > 0.99
        closed_ok = abs(gate_weights[1] - closed) < 1e-9
        criterion(
            "6", "gating learns the rewarded expert",
            tail_freq >= 0.9 and weight_ok and closed_ok,
            f"tail selection freq={tail_freq:.2f}, final weight={gate_weights[1]:.6f}",
        )


class TestCriterion7Determinism:
    def test_byte_identical_outputs_and_snapshot_differential(self, tmp_path):
        config = replace(preset_config("section-4.4"), snapshot_interval=10)

        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        Engine(config).run(out_a)
        Engine(config).run(out_b)

        same_events = (out_a / "events.jsonl").read_bytes() == (out_b / "events.jsonl").read_bytes()
        same_metrics = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

        restored = restore_engine(out_a / "snapshots" / "state_cycle_0010.json")
        restored.run(out_c)

        def tail_lines(path, min_cycle, json_field=None):
            lines = []
            for line in path.read_text().splitlines():
                if json_field:
                    if json.loads(line)[json_field] >= min_cycle:
                        lines.append(line)
                else:
                    if not line.startswith("cycle,") and int(line.split(",")[0]) >= min_cycle:
                        lines.append(line)
            return lines

        events_match = tail_lines(out_a / "events.jsonl", 10, "cycle") == tail_lines(
            out_c / "events.jsonl", 10, "cycle"
        )
        metrics_match = tail_lines(out_a / "metrics.csv", 10) == tail_lines(
            out_c / "metrics.csv", 10
        )
        summaries = [(out / "summary.json").read_bytes() for out in (out_a, out_b, out_c)]
        same_summary = summaries[0] == summaries[1] == summaries[2]

        criterion(
            "7", "byte determinism and snapshot differential",
            same_events and same_metrics and events_match and metrics_match and same_summary,
            "two runs identical; restore-at-10 matches cycles 10+ and the whole summary.json",
        )


class TestCriterion8LiteralMode:
    def test_w1_immediate_release(self):
        config = small_config(
            roster_experts=(BLIND_EXPERT,),
            lifecycle=LifecycleConfig(sustain_window=1, reward_threshold=None),
            required=frozenset({"fraud", "pattern-B"}),  # released agent cannot re-sign
        )
        engine = Engine(config)
        report = engine.run_cycle()
        releases = [e for e in report.events if e.kind is EventKind.RELEASE]
        ok = len(releases) == 1 and releases[0].cycle == 0 and not engine.roster
        criterion(
            "8", "literal immediate-release mode (W=1)", ok,
            "single sub-threshold evaluation released in the same cycle",
        )
