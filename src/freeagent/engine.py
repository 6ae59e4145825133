"""Single-threaded run engine: builds agents from config, executes the
fixed per-cycle stage order, and persists the machine-readable outputs.

Stage order within one cycle is fixed for determinism:

  1. the pipeline makes one zeroed window per roster agent and processes
     the cycle's batch against the current roster
  2. one pass over the roster in id order scores each agent's window
     once, as its metrics.csv row (counts, ratios, reward components and
     a reward whose accuracy is the row's F1), and gives the gate of each
     agent that decided one closed-form update from the net rewards its
     window holds (gate contract 2, ``moe.rl_update``)
  3. evaluate-and-release, on those rows
  4. take the vacancies stage 3 left, judge every Probationary agent on
     its shadow window, sign into those vacancies, tick service time, then
     sweep the service cap so no roster agent ends the cycle at or past it
  5. the rows take the service time stage 4 left, and the Active agents'
     rows are folded into the run totals that summary.json reports; a
     cycle without an Active row stalled

All randomness is drawn from counter-keyed generators (stream and
handoffs), so the engine's whole state is its config, cycle, roster, pool
and run totals. An agent is its spec, which the config holds, plus its
state, whose only learned part is the gate weights. A snapshot holds the
config, the cycle, each agent's state and the totals, so a run resumed
at any cycle boundary writes the same bytes, summary.json included.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import attrgetter, is_
from pathlib import Path

from .config import _DUMP, RunConfig, _table, config_to_dict, from_dict, to_dict
from .domain import (
    FEATURE_DIM,
    MODALITY_DIM,
    Agent,
    AgentId,
    AgentStatus,
    ConfigError,
    EventKind,
    RosterEvent,
)
from .lifecycle import (
    enforce_service_cap,
    evaluate_and_release,
    fill_vacant_roles,
    increment_service_time,
    transition_probationary,
    vacant_roles,
)
from .metrics import METRICS_COLUMNS, METRICS_LINE, MetricsRow, count_ratios
from .moe import check_gate, rl_update, uniform_gate
from .pipeline import CyclePipeline
from .reward import compute_components, compute_reward
from .simulator import generate_cycle

# Format 5: one closed-form gate update per agent per cycle (gate contract
# 2). Format 4 snapshots were written under one gate step per decision,
# which rounds differently, so they would resume to other gate bytes.
SNAPSHOT_FORMAT_VERSION = 5

FIRST_EVENT_KEYS = {
    EventKind.RELEASE: "first_release",
    EventKind.SIGN: "first_sign",
    EventKind.PROMOTE: "first_promote",
}
_EVENT_KINDS = {kind.value for kind in EventKind}

# Built once: json.dumps with separators builds a new encoder per call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_COMPACT_SORTED = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


class SnapshotError(RuntimeError):
    """Snapshot missing, corrupt, or from an incompatible version."""


@dataclass
class CycleReport:
    rows: list[MetricsRow]
    events: list[RosterEvent]
    detections: list[str]  # detections.jsonl lines


@dataclass
class RunTotals:
    """Everything summary.json reports about the cycles run so far, folded
    in once per cycle; snapshots carry it so a resumed run reports the
    whole run."""

    cycles: list[tuple[int, int, int, int, bool]] = field(default_factory=list)
    event_counts: dict[str, int] = field(default_factory=dict)
    key_cycles: dict[str, int | None] = field(
        default_factory=lambda: dict.fromkeys(FIRST_EVENT_KEYS.values())
    )

    def __post_init__(self) -> None:
        for i, row in enumerate(self.cycles):
            if min(row[:4]) < 0:
                raise ConfigError(f"expected counts >= 0, got {list(row)}", at=f"cycles[{i}]")
        for kind, count in self.event_counts.items():
            if kind not in _EVENT_KINDS or count < 0:
                raise ConfigError(f"expected a count >= 0 of a known event kind, got {count}",
                                  at=f"event_counts.{kind}")
        keys = FIRST_EVENT_KEYS.values()
        if missing := [key for key in keys if key not in self.key_cycles]:
            raise ConfigError(f"missing required key '{missing[0]}'", at="key_cycles")
        for key, cycle in self.key_cycles.items():
            if key not in keys:
                raise ConfigError("unknown key", at=f"key_cycles.{key}")
            if cycle is not None and not 0 <= cycle < len(self.cycles):  # a cycle run so far
                raise ConfigError(f"expected a cycle in [0, {len(self.cycles) - 1}], got {cycle}",
                                  at=f"key_cycles.{key}")

    def fold(self, report: CycleReport) -> None:
        # A cycle without an Active row stalled: it had no Active agent to take its batch.
        active = [row for row in report.rows if row.status == AgentStatus.ACTIVE.value]
        self.cycles.append((sum(r.tp for r in active), sum(r.fp for r in active),
                            sum(r.fn for r in active), sum(r.tn for r in active),
                            not active))
        for event in report.events:
            kind = event.kind.value
            self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
            first = FIRST_EVENT_KEYS.get(event.kind)
            if first is not None and self.key_cycles[first] is None:
                self.key_cycles[first] = event.cycle


def _system_metrics(tp: int, fp: int, fn: int, tn: int) -> dict:
    """The decided count, F1 and accuracy that summary.json reports."""
    _, _, f1, accuracy = count_ratios(tp, fp, fn, tn)
    return {"decided": tp + fp + fn + tn, "f1": f1, "accuracy": accuracy}


def agent_to_dict(agent: Agent) -> dict:
    """The summary.json entry of an agent: its state and its spec's fixed fields."""
    spec, node = agent.spec, to_dict(agent)
    moe = {"learning_rate": spec.learning_rate, "gate_weights": node.pop("gate_weights"),
           "experts": [to_dict(e) for e in spec.experts]}
    return {**node, "role": spec.role, "skills": sorted(spec.skills), "moe": moe,
            "cost_per_sample": spec.cost_per_sample,
            "handoff_reliability": spec.handoff_reliability}


def event_line(event: RosterEvent) -> str:
    """The event's ``events.jsonl`` line: its fields in order, compact, as
    ``json.dumps`` writes them. The detail goes through ``json.dumps``; the
    snapshot is an agent's performance, a float in [0, 1], whose JSON text
    is its ``repr``; the kinds are plain words."""
    return (f'{{"cycle":{event.cycle},"kind":"{event.kind.value}","agent":{event.agent},'
            f'"detail":{json.dumps(event.detail)},'
            f'"performance_snapshot":{event.performance_snapshot!r}}}\n')


# One ``cycles`` entry and one expert of summary.json, laid out as
# ``json.dumps(summary, indent=2, sort_keys=True)`` lays them out at their
# depth: the keys of ``_system_metrics`` with "cycle" and "stalled", and
# the fields of ``Expert``, sorted, with one slot per number. An entry's
# counts are ints and its ratios floats in [0, 1], whose JSON text is their
# ``repr``.
_CYCLE_ENTRY = ('\n    {\n      "accuracy": %r,\n      "cycle": %d,\n      "decided": %d,'
                '\n      "f1": %r,\n      "stalled": %s\n    }')


def _items(n: int) -> str:
    return ",".join(["\n              %s"] * n)


_EXPERT_ENTRY = (f'\n          {{\n            "profile": [{_items(MODALITY_DIM)}\n            ],'
                 f'\n            "threshold": %s,'
                 f'\n            "weights": [{_items(FEATURE_DIM)}\n            ]\n          }}')
# Where the dump of the rest holds the spliced lists: the cycles, and each
# agent's experts, pool first, at the depths only these keys have.
_CYCLES_AT = '\n  "cycles": '
_EXPERTS_AT = '\n        "experts": '


def _listing(entries: list[str], indent: str) -> str:
    return "[" + ",".join(entries) + "\n" + indent + "]" if entries else "[]"


def summary_json(summary: dict) -> str:
    """``json.dumps(summary, indent=2, sort_keys=True)`` and a newline.

    That dump is json's pure-Python encoder, so it runs only on the parts
    without a fixed layout: each ``cycles`` entry and each agent's experts
    come from templates and are spliced in where the dump holds empty
    lists. json's C encoder writes the experts' numbers, in one call.
    Nothing is cached: equal numbers need not print alike (0.0 and -0.0)."""
    agents = [*summary["final_pool"], *summary["final_roster"]]  # in sorted key order
    head, tail = json.dumps(
        {**summary, "cycles": [],
         **{key: [{**agent, "moe": {**agent["moe"], "experts": []}} for agent in summary[key]]
            for key in ("final_pool", "final_roster")}},
        indent=2, sort_keys=True,
    ).split(_CYCLES_AT + "[]")
    cycles = [
        _CYCLE_ENTRY % (c["accuracy"], c["cycle"], c["decided"], c["f1"],
                        "true" if c["stalled"] else "false")
        for c in summary["cycles"]
    ]
    numbers = iter(json.dumps([
        [*e["profile"], e["threshold"], *e["weights"]]
        for agent in agents for e in agent["moe"]["experts"]
    ])[2:-2].split("], ["))
    parts = tail.split(_EXPERTS_AT + "[]")
    out = [head, _CYCLES_AT, _listing(cycles, "  "), parts[0]]
    for agent, part in zip(agents, parts[1:]):
        experts = [_EXPERT_ENTRY % tuple(next(numbers).split(", "))
                   for _ in agent["moe"]["experts"]]
        out += [_EXPERTS_AT, _listing(experts, " " * 8), part]
    return "".join(out) + "\n"


class Engine:
    """Owns all mutable run state; one instance per run."""

    def __init__(self, config: RunConfig) -> None:
        # Agent ids are spec order: roster specs first, then pool specs.
        n_roster = len(config.roster)
        agents = [
            Agent(i, spec, AgentStatus.ACTIVE if i < n_roster else AgentStatus.RELEASED,
                  uniform_gate(len(spec.experts)), spec.service_time)
            for i, spec in enumerate((*config.roster, *config.pool))
        ]
        self.config = config
        self.cycle = 0
        self.roster: dict[AgentId, Agent] = {a.id: a for a in agents[:n_roster]}
        self.pool: list[Agent] = agents[n_roster:]
        self.totals = RunTotals()
        # write_snapshot's encodings, kept between snapshots: each agent's
        # entry with the state it encodes, by id, and one per totals row.
        self._agent_json: dict[AgentId, tuple[tuple, str]] = {}
        self._cycle_json: list[str] = []

    @functools.cached_property
    def config_json(self) -> str:
        """The config as snapshots embed it, encoded once per engine."""
        return _COMPACT_SORTED.encode(config_to_dict(self.config))

    # -- one cycle --------------------------------------------------------

    def run_cycle(self) -> CycleReport:
        cfg = self.config
        cycle = self.cycle
        events: list[RosterEvent] = []

        # Stage 1: process the batch with the roster as it stands. An empty
        # roster reads no sample, so its cycle draws none.
        batch = generate_cycle(cfg.stream, cycle) if self.roster else cfg.stream.samples_per_cycle
        pipe = CyclePipeline(self.roster, cfg.stream.seed, cycle, cfg.emit_detections)
        pipe.run_batch(batch)
        members = [agent for _, agent in sorted(self.roster.items())]

        # Stage 2: score each member's window once, as its metrics.csv row
        # with the status it processed the batch in; the gate of a member
        # that decided takes its one update. No row reads a gate.
        rows: dict[AgentId, MetricsRow] = {}
        for agent in members:
            win = pipe.log.windows[agent.id]
            counts = (win.true_positives, win.false_positives,
                      win.false_negatives, win.true_negatives)
            ratios = count_ratios(*counts)
            parts = compute_components(agent, win, cfg.reward)
            rows[agent.id] = MetricsRow(
                cycle, agent.id, agent.status.value, *counts, *ratios, *parts,
                compute_reward(cfg.reward, ratios[2], *parts), agent.service_time,
            )
            if win.net is not None:
                agent.gate_weights = rl_update(agent.gate_weights, agent.spec.learning_rate,
                                               win.net)

        # Stage 3: evaluation and release.
        evaluate_and_release(self.roster, self.pool, rows, cfg.lifecycle, cycle, events)

        # Stage 4: probation transitions, refill, service accounting. The
        # vacancies are those stage 3 left, so a probation failed here is
        # refilled next cycle.
        vacancies = vacant_roles(self.roster, cfg.roles)
        transition_probationary(self.roster, self.pool, cfg.lifecycle, cycle, events)
        fill_vacant_roles(self.roster, self.pool, vacancies, cfg.lifecycle, cycle, events)
        increment_service_time(self.roster, cycle, events)
        enforce_service_cap(self.roster, self.pool, cfg.lifecycle, cycle, events)

        # Stage 5: the rows take the service time of stage 4, and the cycle
        # joins the totals.
        self.cycle += 1
        report = CycleReport(
            [rows[agent.id]._replace(service_time=agent.service_time) for agent in members],
            events, pipe.detections,
        )
        self.totals.fold(report)
        return report

    # -- full run with outputs -------------------------------------------

    def run(self, out_dir: str | Path) -> dict:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if not self.config.emit_detections:  # an earlier run's file is not this run's
            (out / "detections.jsonl").unlink(missing_ok=True)
        snap_dir = out / "snapshots"
        # A restore point past this run's first cycle is an earlier run's;
        # a run resumed in place keeps the one it started from.
        for path in snap_dir.glob("state_cycle_*.json"):
            number = path.name[len("state_cycle_"):-len(".json")]
            if number.isdigit() and int(number) > self.cycle:
                path.unlink()
        if self.config.snapshot_interval > 0:
            snap_dir.mkdir(exist_ok=True)

        with (
            (out / "events.jsonl").open("w", encoding="utf-8", newline="\n") as events_file,
            (out / "metrics.csv").open("w", encoding="utf-8", newline="\n") as metrics_file,
            (out / "detections.jsonl").open("w", encoding="utf-8", newline="\n")
            if self.config.emit_detections else nullcontext() as detections_file,
        ):
            metrics_file.write(",".join(METRICS_COLUMNS) + "\n")
            while self.cycle < self.config.stream.total_cycles:
                report = self.run_cycle()
                events_file.writelines(map(event_line, report.events))
                metrics_file.writelines([METRICS_LINE % row for row in report.rows])
                if report.detections:  # empty unless emit_detections is set
                    detections_file.writelines(report.detections)
                interval = self.config.snapshot_interval
                if interval > 0 and self.cycle % interval == 0:
                    # Every line of the cycles before the snapshot's reaches
                    # the files first, so a process that dies after writing
                    # it leaves them whole up to its cycle.
                    for file in (events_file, metrics_file, detections_file):
                        if file is not None:
                            file.flush()
                    write_snapshot(self, snap_dir / f"state_cycle_{self.cycle:04d}.json")

        summary = self.build_summary()
        (out / "summary.json").write_text(summary_json(summary), encoding="utf-8")
        return summary

    def build_summary(self) -> dict:
        totals = self.totals
        cycles = [
            {"cycle": i, "stalled": stalled, **_system_metrics(tp, fp, fn, tn)}
            for i, (tp, fp, fn, tn, stalled) in enumerate(totals.cycles)
        ]

        # A phase per segment that starts within the run, ending where the
        # next one starts or the run ends.
        stream = self.config.stream
        segments = [seg for seg in stream.schedule if seg.start_cycle < stream.total_cycles]
        ends = [seg.start_cycle for seg in segments[1:]] + [stream.total_cycles]
        phases = []
        for seg, end in zip(segments, ends):
            span = totals.cycles[seg.start_cycle:end]
            phases.append(
                {
                    "start_cycle": seg.start_cycle,
                    "end_cycle": end - 1,
                    "mixture": dict(seg.mixture),
                    **_system_metrics(*(sum(c[k] for c in span) for k in range(4))),
                }
            )

        return {
            "schema_version": 1,
            "seed": self.config.stream.seed,
            "total_cycles": self.config.stream.total_cycles,
            "samples_per_cycle": self.config.stream.samples_per_cycle,
            "completed_through_cycle": self.cycle - 1,
            "event_counts": totals.event_counts,
            "key_cycles": totals.key_cycles,
            "cycles": cycles,
            "phases": phases,
            "final_roster": [agent_to_dict(self.roster[aid]) for aid in sorted(self.roster)],
            "final_pool": [agent_to_dict(a) for a in self.pool],
        }


# ---------------------------------------------------------------------------
# Snapshot / restore
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Snapshot:
    """A snapshot file: the whole engine state at a cycle boundary."""

    format_version: int
    next_cycle: int
    config: RunConfig
    roster: list[Agent]
    pool: list[Agent]
    totals: RunTotals


# Snapshots are schema dumps; each of their keys is required.
_table(Agent, skip=("spec",), required=True)  # restore joins each entry to its spec
_table(RunTotals, required=True)
_table(Snapshot, required=True)

_AGENT_STATE = attrgetter(*(name for name, _ in _DUMP[Agent]))


def _agent_entry(engine: Engine, agent: Agent) -> str:
    """The agent's compact, sorted ``to_dict``, encoded again only when a
    state field is no longer the object it encoded: equal values need not
    encode alike (0.0 and -0.0)."""
    state, cached = _AGENT_STATE(agent), engine._agent_json.get(agent.id)
    if cached is None or not all(map(is_, cached[0], state)):
        cached = engine._agent_json[agent.id] = state, _COMPACT_SORTED.encode(to_dict(agent))
    return cached[1]


def write_snapshot(engine: Engine, path: str | Path) -> None:
    """Write the engine's ``Snapshot`` (roster in id order) as the compact,
    key-sorted JSON of its ``to_dict`` and a newline, atomically: a reader
    of ``path`` sees either the previous file or the complete new one,
    never a partial write.

    The text is spliced from encodings the engine keeps between snapshots:
    the config, each agent's entry while its state stays the same, and each
    totals row, encoded the first time a snapshot sees it."""
    path = Path(path)
    roster = ",".join(_agent_entry(engine, engine.roster[aid]) for aid in sorted(engine.roster))
    pool = ",".join(_agent_entry(engine, agent) for agent in engine.pool)
    totals, cycles = engine.totals, engine._cycle_json
    cycles.extend(_COMPACT.encode(list(row)) for row in totals.cycles[len(cycles):])
    text = (  # the keys of Snapshot, sorted
        f'{{"config":{engine.config_json},"format_version":{SNAPSHOT_FORMAT_VERSION},'
        f'"next_cycle":{engine.cycle},"pool":[{pool}],"roster":[{roster}],'
        f'"totals":{{"cycles":[{",".join(cycles)}],'
        f'"event_counts":{_COMPACT_SORTED.encode(totals.event_counts)},'
        f'"key_cycles":{_COMPACT_SORTED.encode(totals.key_cycles)}}}}}\n'
    )
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _engine_from_snapshot(node: dict, path: str) -> Engine:
    """The engine of a parsed snapshot: each agent joined to the spec at
    its id, whose experts its gate weights must fit, and a cycle the run
    has and the totals cover."""
    snap = from_dict(Snapshot, node, path)
    specs = (*snap.config.roster, *snap.config.pool)
    if sorted(a.id for a in snap.roster + snap.pool) != list(range(len(specs))):
        raise ConfigError(f"{path}: roster and pool ids must be 0..{len(specs) - 1}, each once")
    for key, agents in (("roster", snap.roster), ("pool", snap.pool)):
        for i, agent in enumerate(agents):
            at, agent.spec = f"{path}.{key}[{i}]", specs[agent.id]
            if (agent.status is AgentStatus.RELEASED) != (key == "pool"):
                raise ConfigError(f"{at}.status: a {key} agent cannot be {agent.status.value}")
            try:
                check_gate(agent.gate_weights, len(agent.spec.experts))
            except ConfigError as exc:
                raise ConfigError(f"{at}.gate_weights: {exc}") from None
    if not 0 <= (cycle := snap.next_cycle) <= (total := snap.config.stream.total_cycles):
        raise ConfigError(f"{path}.next_cycle: expected a cycle in [0, {total}], got {cycle}")
    if (covered := len(snap.totals.cycles)) != cycle:
        raise ConfigError(f"{path}: totals cover {covered} cycles, not {cycle}")
    engine = Engine(snap.config)
    engine.roster, engine.pool = {a.id: a for a in snap.roster}, snap.pool
    engine.cycle, engine.totals = cycle, snap.totals
    return engine


def restore_engine(path: str | Path) -> Engine:
    """Rebuild an engine from a snapshot. Refuses partial or alien files
    and any value its parsers reject, naming the value's dotted path."""
    try:
        node = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SnapshotError(f"snapshot not found: {path}")
    except ValueError as exc:  # bad JSON, not UTF-8, or an integer too long to convert
        raise SnapshotError(f"snapshot corrupt at {path}: {exc}")

    if not isinstance(node, dict) or "format_version" not in node:
        raise SnapshotError(f"{path}: not a snapshot file")
    if node["format_version"] != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot format {node['format_version']} "
            f"!= supported {SNAPSHOT_FORMAT_VERSION}"
        )
    try:
        return _engine_from_snapshot(node, str(path))
    except ConfigError as exc:
        raise SnapshotError(str(exc)) from None
