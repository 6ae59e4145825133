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

A cycle writes each member's row to metrics.csv, the record of its
evaluation and of its service time, and its transitions (Release, Sign,
Promote, FreeAgency) to events.jsonl.

All randomness is drawn from counter-keyed generators (stream and
handoffs), so the engine's whole state is its config, cycle, roster, pool
and run totals. An agent is its spec, which the config holds, plus its
state, whose only learned part is the gate weights. A snapshot holds the
config, the cycle and each agent's state; a restore folds the totals from
the run's files, so a resumed run writes the whole run, summary.json included.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from operator import attrgetter, is_
from pathlib import Path

from .config import _DUMP, _INT, RunConfig, _table, config_to_dict, from_dict, to_dict
from .domain import (
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
from .metrics import METRICS_COLUMNS, METRICS_LINE, METRICS_TYPES, MetricsRow, count_ratios
from .moe import check_gate, rl_update, uniform_gate
from .pipeline import CyclePipeline
from .reward import compute_components, compute_reward
from .simulator import generate_cycle

# Format 7: the run's files give the run totals. Format 6 snapshots carry
# them, format 5's count Evaluate and ServiceTick events too, and format 4's
# were written under one gate step per decision, which rounds differently,
# so they would resume to other gate bytes.
SNAPSHOT_FORMAT_VERSION = 7

FIRST_EVENT_KEYS = {
    EventKind.RELEASE: "first_release",
    EventKind.SIGN: "first_sign",
    EventKind.PROMOTE: "first_promote",
}

# Built once: json.dumps with separators builds a new encoder per call.
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
    in once per cycle; a restore folds it again from the run's files."""

    cycles: list[tuple[int, int, int, int, bool]] = field(default_factory=list)
    event_counts: dict[str, int] = field(default_factory=dict)
    key_cycles: dict[str, int | None] = field(
        default_factory=lambda: dict.fromkeys(FIRST_EVENT_KEYS.values())
    )

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
        # Each output file's text before the first cycle, which run writes first.
        self.history = {"events.jsonl": "", "metrics.csv": ",".join(METRICS_COLUMNS) + "\n",
                        **({"detections.jsonl": ""} if config.emit_detections else {})}
        # write_snapshot's encoding of each agent's entry with the state it encodes, by id.
        self._agent_json: dict[AgentId, tuple[tuple, str]] = {}

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
        increment_service_time(self.roster)
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
        # A restore point past this run's first cycle, or a temporary one, is
        # an earlier run's; a run resumed in place keeps the one it started from.
        for path in snap_dir.glob("state_cycle_*.json*"):
            number = path.name[len("state_cycle_"):-len(".json")]
            if path.suffix == ".tmp" or number.isdigit() and int(number) > self.cycle:
                path.unlink()
        if self.config.snapshot_interval > 0:
            snap_dir.mkdir(exist_ok=True)

        with ExitStack() as stack:
            files = {name: stack.enter_context(
                (out / name).open("w", encoding="utf-8", newline="\n")) for name in self.history}
            for name, file in files.items():  # flushed at once: a resume in place truncated it
                file.write(self.history[name])
                file.flush()
            while self.cycle < self.config.stream.total_cycles:
                report = self.run_cycle()
                files["events.jsonl"].writelines(map(event_line, report.events))
                files["metrics.csv"].writelines([METRICS_LINE % row for row in report.rows])
                if report.detections:  # empty unless emit_detections is set
                    files["detections.jsonl"].writelines(report.detections)
                if (interval := self.config.snapshot_interval) > 0 and self.cycle % interval == 0:
                    # Every line of the cycles before the snapshot's reaches
                    # the files first, so a process that dies after writing
                    # it leaves them whole up to its cycle.
                    for file in files.values():
                        file.flush()
                    write_snapshot(self, snap_dir / f"state_cycle_{self.cycle:04d}.json")

        summary = self.build_summary()
        (out / "summary.json").write_text(_COMPACT_SORTED.encode(summary) + "\n", encoding="utf-8")
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


# Snapshots are schema dumps, and a restore reads events.jsonl; every key is required.
_table(Agent, skip=("spec",), required=True)  # restore joins each entry to its spec
_table(Snapshot, required=True)
_table(RosterEvent, required=True)

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
    never a partial write. A restore folds the run totals from the run's files.

    The text is spliced from encodings the engine keeps between snapshots:
    the config, and each agent's entry while its state stays the same."""
    path = Path(path)
    roster = ",".join(_agent_entry(engine, engine.roster[aid]) for aid in sorted(engine.roster))
    pool = ",".join(_agent_entry(engine, agent) for agent in engine.pool)
    text = (  # the keys of Snapshot, sorted
        f'{{"config":{engine.config_json},"format_version":{SNAPSHOT_FORMAT_VERSION},'
        f'"next_cycle":{engine.cycle},"pool":[{pool}],"roster":[{roster}]}}\n'
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
    its id, whose experts its gate weights must fit, a cycle the run has,
    and the history of the cycles before it."""
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
    engine = Engine(snap.config)
    engine.roster, engine.pool, engine.cycle = {a.id: a for a in snap.roster}, snap.pool, cycle
    if cycle > 0:
        _read_history(engine, Path(path).parent.parent)
    return engine


def _read_history(engine: Engine, run: Path) -> None:
    """Give a restored engine its run's history: each output file's text up
    to its first line of a cycle past the last or without a closing newline,
    and the totals of those cycles. Refused unless each cycle's rows are the
    roster replayed to its start, and the replay ends at the snapshot's."""
    n, cfg, items = engine.cycle, engine.config, {}
    parse = {  # a line's item; a detection's is its cycle
        "events.jsonl": lambda line: from_dict(RosterEvent, json.loads(line), "event"),
        "metrics.csv": lambda line: MetricsRow._make(
            kind(cell) for kind, cell in zip(METRICS_TYPES, line.split(","), strict=True)),
        "detections.jsonl": lambda line: (
            _INT(json.loads(line)["seq"], "detection", "seq") // cfg.stream.samples_per_cycle),
    }
    for name, fresh in engine.history.items():  # a fresh run's text: the metrics.csv header
        path, last = run / name, 0
        try:
            text = path.read_bytes().decode("utf-8")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: cannot read the run before cycle {n}: {exc}") from None
        if not text.startswith(fresh):
            raise ConfigError(f"{path}:1: expected the header {fresh!r}")
        lines = text.split("\n")  # the last one has no closing newline
        items[name], end = [[] for _ in range(n)], len(lines) - 1
        for i in range(bool(fresh), end):
            try:
                cycle = getattr(item := parse[name](lines[i]), "cycle", item)
            except (ValueError, LookupError, TypeError) as exc:  # ConfigError included
                raise ConfigError(f"{path}:{i + 1}: {exc}") from None
            if cycle >= n:
                end = i
                break
            if cycle < last:
                raise ConfigError(f"{path}:{i + 1}: cycle {cycle} after cycle {last}")
            items[name][last := cycle].append(item)
        engine.history[name] = "".join(line + "\n" for line in lines[:end])

    roster = dict.fromkeys(range(len(cfg.roster)), AgentStatus.ACTIVE)
    pool = dict.fromkeys(range(len(cfg.roster), len(cfg.roster) + len(cfg.pool)))  # in order
    row_at, event_at = 2, 1  # the line of the next row and of the next transition
    for cycle, (rows, events) in enumerate(zip(items["metrics.csv"], items["events.jsonl"])):
        if [(row.agent, row.status) for row in rows] != sorted(roster.items()):
            raise ConfigError(f"{run / 'metrics.csv'}:{row_at}: not the roster of cycle {cycle}")
        for event in events:
            kind, agent = event.kind, event.agent
            if agent not in (pool if kind is EventKind.SIGN else roster):
                raise ConfigError(f"{run / 'events.jsonl'}:{event_at}: an illegal {kind.value}")
            if kind is EventKind.SIGN:
                del pool[agent]
                roster[agent] = AgentStatus.PROBATIONARY
            elif kind is EventKind.PROMOTE:
                roster[agent] = AgentStatus.ACTIVE
            else:
                pool[agent] = roster.pop(agent)
            event_at += 1
        row_at += len(rows)
        engine.totals.fold(CycleReport(rows, events, []))
    if roster != {a.id: a.status for a in engine.roster.values()} or list(pool) != [
            a.id for a in engine.pool]:
        raise ConfigError(f"{run / 'events.jsonl'}:{event_at}: the run replays to roster "
                          f"{sorted(roster)} and pool {list(pool)}, not the snapshot's")


def restore_engine(path: str | Path) -> Engine:
    """Rebuild an engine from a snapshot in its run's ``snapshots/``, refusing
    partial or alien files and any value its parsers reject, naming where."""
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
