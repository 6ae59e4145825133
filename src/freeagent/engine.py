"""Single-threaded run engine: builds agents from config, executes the
fixed per-cycle stage order, and persists the machine-readable outputs.

Stage order within one cycle is fixed for determinism:

  1. pipeline processes the cycle's batch against the current roster
  2. per-agent cycle rewards are computed and each agent's recorded
     per-sample reward signals are applied to its gate, in sample order
  3. evaluate-and-release
  4. fill vacancies, transition probationary agents (those signed in an
     earlier cycle), tick service time, then sweep the service cap so no
     roster agent ends the cycle at or past it
  5. metrics rows are emitted and all windows reset

All randomness is drawn from counter-keyed generators (stream and
handoffs), so state never includes RNG positions and a snapshot taken at
any cycle boundary resumes bit-exactly.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path

from .config import AgentSpec, RunConfig, config_to_dict, expert_to_dict, parse_config, parse_expert
from .domain import Agent, AgentId, AgentStatus, EventKind, RosterEvent
from .lifecycle import (
    enforce_service_cap,
    evaluate_and_release,
    fill_vacant_roles,
    increment_service_time,
    transition_probationary,
    vacant_roles,
)
from .metrics import PerformanceLog, count_ratios, f1_from_counts
from .moe import MoEState, rl_update, uniform_moe
from .pipeline import CyclePipeline, DetectionRecord
from .reward import compute_components, compute_reward
from .simulator import generate_cycle

logger = logging.getLogger("freeagent.engine")

SNAPSHOT_FORMAT_VERSION = 1

METRICS_COLUMNS = (
    "cycle", "agent", "status", "TP", "FP", "FN", "TN",
    "precision", "recall", "f1", "accuracy",
    "synergy", "efficiency", "penalty", "reward", "service_time",
)

EVENT_FIELDS = ("cycle", "kind", "agent", "detail", "performance_snapshot")


class SnapshotError(RuntimeError):
    """Snapshot missing, corrupt, or from an incompatible version."""


@dataclass(frozen=True, slots=True)
class MetricsRow:
    cycle: int
    agent: AgentId
    status: str
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    accuracy: float
    synergy: float
    efficiency: float
    penalty: float
    reward: float
    service_time: int

    def to_csv(self) -> str:
        return ",".join(
            (
                str(self.cycle), str(self.agent), self.status,
                str(self.tp), str(self.fp), str(self.fn), str(self.tn),
                f"{self.precision:.6f}", f"{self.recall:.6f}", f"{self.f1:.6f}",
                f"{self.accuracy:.6f}", f"{self.synergy:.6f}", f"{self.efficiency:.6f}",
                f"{self.penalty:.6f}", f"{self.reward:.6f}", str(self.service_time),
            )
        )


@dataclass
class CycleReport:
    cycle: int
    rows: list[MetricsRow]
    events: list[RosterEvent]
    detections: list[DetectionRecord]
    system_tp: int
    system_fp: int
    system_fn: int
    system_tn: int
    stalled: bool

    @property
    def system_decided(self) -> int:
        return self.system_tp + self.system_fp + self.system_fn + self.system_tn

    @property
    def system_f1(self) -> float:
        return f1_from_counts(self.system_tp, self.system_fp, self.system_fn)


def _system_metrics(tp: int, fp: int, fn: int, tn: int) -> dict:
    """The decided count, F1 and accuracy that summary.json reports."""
    _, _, f1, accuracy = count_ratios(tp, fp, fn, tn)
    return {"decided": tp + fp + fn + tn, "f1": f1, "accuracy": accuracy}


def _agent_from_spec(spec: AgentSpec, agent_id: AgentId, status: AgentStatus) -> Agent:
    return Agent(
        id=agent_id,
        role=spec.role,
        skills=spec.skills,
        status=status,
        moe=uniform_moe(spec.experts, learning_rate=spec.learning_rate),
        service_time=spec.service_time,
        cost_per_sample=spec.cost_per_sample,
        handoff_reliability=spec.handoff_reliability,
    )


def agent_to_dict(agent: Agent) -> dict:
    return {
        "id": agent.id,
        "role": agent.role,
        "skills": sorted(agent.skills),
        "status": agent.status.value,
        "service_time": agent.service_time,
        "performance": agent.performance,
        "consecutive_below": agent.consecutive_below,
        "cost_per_sample": agent.cost_per_sample,
        "handoff_reliability": agent.handoff_reliability,
        "moe": {
            "learning_rate": agent.moe.learning_rate,
            "gate_weights": list(agent.moe.gate_weights),
            "experts": [expert_to_dict(e) for e in agent.moe.experts],
        },
    }


def agent_from_dict(node: dict) -> Agent:
    moe_node = node["moe"]
    path = f"agent {node['id']}.moe"
    return Agent(
        id=node["id"],
        role=node["role"],
        skills=frozenset(node["skills"]),
        status=AgentStatus(node["status"]),
        moe=MoEState(
            experts=tuple(
                parse_expert(e, f"{path}.experts[{i}]")
                for i, e in enumerate(moe_node["experts"])
            ),
            gate_weights=tuple(moe_node["gate_weights"]),
            learning_rate=moe_node["learning_rate"],
        ),
        service_time=node["service_time"],
        performance=node["performance"],
        consecutive_below=node["consecutive_below"],
        cost_per_sample=node["cost_per_sample"],
        handoff_reliability=node["handoff_reliability"],
    )


class Engine:
    """Owns all mutable run state; one instance per run."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.roster: dict[AgentId, Agent] = {}
        self.pool: list[Agent] = []
        self.log = PerformanceLog()
        self.events: list[RosterEvent] = []
        self.cycle = 0
        self.probation_started: dict[AgentId, int] = {}
        self.misbehaving: frozenset[AgentId] = frozenset()
        self.next_agent_id = 0
        self._build_agents()

    def _build_agents(self) -> None:
        misbehaving = set()
        for spec in self.config.roster:
            agent = _agent_from_spec(spec, self.next_agent_id, AgentStatus.ACTIVE)
            self.roster[agent.id] = agent
            if spec.misbehaving:
                misbehaving.add(agent.id)
            self.next_agent_id += 1
        for spec in self.config.pool:
            agent = _agent_from_spec(spec, self.next_agent_id, AgentStatus.RELEASED)
            self.pool.append(agent)
            if spec.misbehaving:
                misbehaving.add(agent.id)
            self.next_agent_id += 1
        self.misbehaving = frozenset(misbehaving)

    # -- one cycle --------------------------------------------------------

    def run_cycle(self) -> CycleReport:
        cfg = self.config
        cycle = self.cycle
        events_before = len(self.events)

        # Stage 1: process the batch with the roster as it stands.
        batch = generate_cycle(cfg.stream, cycle)
        pipe = CyclePipeline(
            roster=self.roster,
            log=self.log,
            seed=cfg.stream.seed,
            cycle=cycle,
            misbehaving=self.misbehaving,
            emit_detections=cfg.emit_detections,
        )
        pipe.run_batch(batch)
        pipeline_status = {aid: self.roster[aid].status for aid in sorted(self.roster)}

        # Stage 2: cycle rewards, then gate updates in recorded order.
        rewards: dict[AgentId, float] = {}
        components = {}
        for aid in sorted(self.roster):
            agent = self.roster[aid]
            comps = compute_components(agent, self.log, cfg.reward_config)
            components[aid] = comps
            rewards[aid] = compute_reward(cfg.reward_weights, comps)
        for aid in sorted(pipe.rewards):
            agent = self.roster[aid]
            agent.moe = rl_update(agent.moe, *pipe.rewards[aid])

        # Stage 3: evaluation and release.
        evaluate_and_release(
            self.roster, self.pool, self.log, cfg.lifecycle, cycle, self.events, rewards
        )

        # Stage 4: refill, probation transitions, service accounting.
        vacancies = vacant_roles(self.roster, cfg.roles)
        signed = fill_vacant_roles(
            self.roster, self.pool, vacancies, cfg.lifecycle, cycle, self.events
        )
        for aid in signed:
            self.probation_started[aid] = cycle
        eligible = {aid for aid, start in self.probation_started.items() if start < cycle}
        transition_probationary(
            self.roster, self.pool, self.log, cfg.lifecycle, cycle, self.events, eligible
        )
        increment_service_time(self.roster, cycle, self.events)
        enforce_service_cap(self.roster, self.pool, cfg.lifecycle, cycle, self.events)
        self.probation_started = {
            aid: start
            for aid, start in self.probation_started.items()
            if aid in self.roster and self.roster[aid].status is AgentStatus.PROBATIONARY
        }

        # Stage 5: metrics rows (status as of the pipeline phase), reset.
        rows = []
        system = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        all_agents = {a.id: a for a in self.pool}
        all_agents.update(self.roster)
        for aid, status in pipeline_status.items():
            agent = all_agents[aid]
            win = self.log.window(aid)
            comps = components[aid]
            tp, fp, fn, tn = (
                win.true_positives, win.false_positives,
                win.false_negatives, win.true_negatives,
            )
            precision, recall, f1, accuracy = count_ratios(tp, fp, fn, tn)
            rows.append(
                MetricsRow(
                    cycle=cycle, agent=aid, status=status.value,
                    tp=tp, fp=fp, fn=fn, tn=tn,
                    precision=precision, recall=recall, f1=f1, accuracy=accuracy,
                    synergy=comps.synergy, efficiency=comps.efficiency,
                    penalty=comps.penalty, reward=rewards[aid],
                    service_time=agent.service_time,
                )
            )
            if status is AgentStatus.ACTIVE:
                system["tp"] += tp
                system["fp"] += fp
                system["fn"] += fn
                system["tn"] += tn

        self.log.reset_all()
        self.cycle += 1

        return CycleReport(
            cycle=cycle,
            rows=rows,
            events=self.events[events_before:],
            detections=pipe.detections,
            system_tp=system["tp"],
            system_fp=system["fp"],
            system_fn=system["fn"],
            system_tn=system["tn"],
            stalled=pipe.stalled_samples > 0,
        )

    # -- full run with outputs -------------------------------------------

    def run(self, out_dir: str | Path) -> dict:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        snap_dir = out / "snapshots"
        if self.config.snapshot_interval > 0:
            snap_dir.mkdir(exist_ok=True)

        reports: list[CycleReport] = []
        events_path = out / "events.jsonl"
        metrics_path = out / "metrics.csv"
        detections_path = out / "detections.jsonl"

        with (
            events_path.open("w", encoding="utf-8", newline="\n") as events_file,
            metrics_path.open("w", encoding="utf-8", newline="\n") as metrics_file,
        ):
            detections_file = (
                detections_path.open("w", encoding="utf-8", newline="\n")
                if self.config.emit_detections
                else None
            )
            try:
                metrics_file.write(",".join(METRICS_COLUMNS) + "\n")
                while self.cycle < self.config.stream.total_cycles:
                    report = self.run_cycle()
                    reports.append(report)
                    for event in report.events:
                        events_file.write(
                            json.dumps(event.to_dict(), separators=(",", ":")) + "\n"
                        )
                    for row in report.rows:
                        metrics_file.write(row.to_csv() + "\n")
                    if detections_file is not None:
                        for det in report.detections:
                            detections_file.write(
                                json.dumps(det.to_dict(), separators=(",", ":")) + "\n"
                            )
                    interval = self.config.snapshot_interval
                    if interval > 0 and self.cycle % interval == 0:
                        write_snapshot(self, snap_dir / f"state_cycle_{self.cycle:04d}.json")
            finally:
                if detections_file is not None:
                    detections_file.close()

        summary = self.build_summary(reports)
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return summary

    def build_summary(self, reports: list[CycleReport]) -> dict:
        event_counts: dict[str, int] = {}
        key_cycles: dict[str, int | None] = {
            "first_release": None, "first_sign": None, "first_promote": None,
        }
        for event in self.events:
            event_counts[event.kind.value] = event_counts.get(event.kind.value, 0) + 1
            if event.kind is EventKind.RELEASE and key_cycles["first_release"] is None:
                key_cycles["first_release"] = event.cycle
            if event.kind is EventKind.SIGN and key_cycles["first_sign"] is None:
                key_cycles["first_sign"] = event.cycle
            if event.kind is EventKind.PROMOTE and key_cycles["first_promote"] is None:
                key_cycles["first_promote"] = event.cycle

        cycles = [
            {
                "cycle": r.cycle,
                "stalled": r.stalled,
                **_system_metrics(r.system_tp, r.system_fp, r.system_fn, r.system_tn),
            }
            for r in reports
        ]

        phases = []
        segments = self.config.stream.schedule.segments
        for i, seg in enumerate(segments):
            end = (
                segments[i + 1].start_cycle
                if i + 1 < len(segments)
                else self.config.stream.total_cycles
            )
            phase_reports = [r for r in reports if seg.start_cycle <= r.cycle < end]
            tp = sum(r.system_tp for r in phase_reports)
            fp = sum(r.system_fp for r in phase_reports)
            fn = sum(r.system_fn for r in phase_reports)
            tn = sum(r.system_tn for r in phase_reports)
            phases.append(
                {
                    "start_cycle": seg.start_cycle,
                    "end_cycle": end - 1,
                    "mixture": {p.name: w for p, w in seg.mixture},
                    **_system_metrics(tp, fp, fn, tn),
                }
            )

        return {
            "schema_version": 1,
            "seed": self.config.stream.seed,
            "total_cycles": self.config.stream.total_cycles,
            "samples_per_cycle": self.config.stream.samples_per_cycle,
            "completed_through_cycle": self.cycle - 1,
            "event_counts": event_counts,
            "key_cycles": key_cycles,
            "cycles": cycles,
            "phases": phases,
            "final_roster": [agent_to_dict(self.roster[aid]) for aid in sorted(self.roster)],
            "final_pool": [agent_to_dict(a) for a in self.pool],
        }


# ---------------------------------------------------------------------------
# Snapshot / restore
# ---------------------------------------------------------------------------

def snapshot_state(engine: Engine) -> dict:
    """Serializable engine state at a cycle boundary."""
    return {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "next_cycle": engine.cycle,
        "next_agent_id": engine.next_agent_id,
        "probation_started": {str(k): v for k, v in sorted(engine.probation_started.items())},
        "misbehaving": sorted(engine.misbehaving),
        "config": config_to_dict(engine.config),
        "roster": [agent_to_dict(engine.roster[aid]) for aid in sorted(engine.roster)],
        "pool": [agent_to_dict(a) for a in engine.pool],
    }


def write_snapshot(engine: Engine, path: str | Path) -> None:
    """Write the snapshot atomically: a reader of ``path`` sees either the
    previous file or the complete new one, never a partial write."""
    path = Path(path)
    text = json.dumps(snapshot_state(engine), indent=2, sort_keys=True) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def restore_engine(path: str | Path) -> Engine:
    """Rebuild an engine from a snapshot; refuses partial or alien files."""
    try:
        node = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SnapshotError(f"snapshot not found: {path}")
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot corrupt at {path}:{exc.lineno}: {exc.msg}")

    if not isinstance(node, dict) or "format_version" not in node:
        raise SnapshotError(f"{path}: not a snapshot file")
    if node["format_version"] != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot format {node['format_version']} "
            f"!= supported {SNAPSHOT_FORMAT_VERSION}"
        )
    try:
        engine = Engine(parse_config(node["config"], source=f"{path}#config"))
        engine.roster = {a["id"]: agent_from_dict(a) for a in node["roster"]}
        engine.pool = [agent_from_dict(a) for a in node["pool"]]
        engine.cycle = int(node["next_cycle"])
        engine.probation_started = {
            int(k): int(v) for k, v in node["probation_started"].items()
        }
        engine.misbehaving = frozenset(node["misbehaving"])
        engine.next_agent_id = int(node["next_agent_id"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: snapshot incomplete or malformed ({exc!r})")
    return engine
