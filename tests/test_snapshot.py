"""The spliced snapshot writer against its oracle, the schema dump.

``write_snapshot`` splices its text from encodings the engine keeps
between snapshots. The oracle encodes the schema dump of the whole
``Snapshot`` afresh, so a cached agent entry that outlives a change to the
agent shows as a byte difference.

A restore reads the run's history from the snapshot's run directory; the
refusal tests below break that history one way each and require the
restore to exit 2 naming the file and line, leaving the directory as it
was.
"""

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import freeagent.engine
from freeagent.cli import main
from freeagent.config import to_dict
from freeagent.domain import AgentStatus
from freeagent.engine import (
    SNAPSHOT_FORMAT_VERSION,
    Engine,
    Snapshot,
    restore_engine,
    write_snapshot,
)
from tests.test_golden import RESUME_AT, digests, workload

CYCLES = 60  # the golden churn cut: 12 snapshots


def oracle(engine: Engine) -> str:
    roster = [engine.roster[aid] for aid in sorted(engine.roster)]
    state = Snapshot(SNAPSHOT_FORMAT_VERSION, engine.cycle, engine.config, roster, engine.pool)
    return json.dumps(to_dict(state), separators=(",", ":"), sort_keys=True) + "\n"


def check(engine: Engine, path) -> None:
    write_snapshot(engine, path)
    assert path.read_text(encoding="utf-8") == oracle(engine), f"cycle {engine.cycle}"


def run_to(engine: Engine, end: int, path) -> int:
    """Run ``engine`` to cycle ``end``, checking each snapshot it would write."""
    checked = 0
    while engine.cycle < end:
        engine.run_cycle()
        if engine.cycle % engine.config.snapshot_interval == 0:
            check(engine, path)
            checked += 1
    return checked


def test_every_snapshot_of_the_churn_cut_matches_the_schema_dump(tmp_path):
    engine = Engine(workload("churn", CYCLES))
    assert run_to(engine, CYCLES, tmp_path / "snap.json") == 12
    assert engine.totals.event_counts["Promote"] == 14  # the pool moved in and out


def test_a_restored_engine_writes_its_next_snapshots_as_the_schema_dump(tmp_path):
    full = tmp_path / "full"
    Engine(workload("churn", CYCLES)).run(full)
    snap = full / "snapshots" / f"state_cycle_{RESUME_AT:04d}.json"
    restored = restore_engine(snap)
    live = Engine(workload("churn", CYCLES))
    run_to(live, RESUME_AT, tmp_path / "live.json")
    assert restored.totals == live.totals  # folded from the run's files
    check(restored, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == snap.read_bytes()
    assert run_to(restored, CYCLES, tmp_path / "next.json") == (CYCLES - RESUME_AT) // 5


@pytest.mark.parametrize("name, new", [
    ("performance", lambda old: 0.25),
    ("performance", lambda old: -old),  # -0.0 == 0.0, but it encodes as -0.0
    ("service_time", lambda old: old + 1),
    ("consecutive_below", lambda old: old + 1),
    ("gate_weights", lambda old: (2 * old[0], *old[1:])),
    ("status", lambda old: AgentStatus.PROBATIONARY),
])
def test_an_in_place_change_to_a_pool_agent_reaches_the_next_snapshot(tmp_path, name, new):
    engine = Engine(workload("churn", CYCLES))
    snap = tmp_path / "snap.json"
    run_to(engine, 10, snap)
    agent = engine.pool[0]
    assert agent.performance == 0.0  # never signed
    before, old = snap.read_bytes(), getattr(agent, name)
    setattr(agent, name, new(old))
    check(engine, snap)
    assert snap.read_bytes() != before
    setattr(agent, name, old)
    check(engine, snap)
    assert snap.read_bytes() == before


def test_run_writes_each_snapshot_through_write_snapshot(tmp_path, monkeypatch):
    # perfbench's engine.snapshot span wraps this module global by name and
    # sizes the file at its second argument; a call that bypasses it is lost
    calls = []
    real = freeagent.engine.write_snapshot

    def counting(engine, path):
        real(engine, path)
        calls.append(path)

    monkeypatch.setattr(freeagent.engine, "write_snapshot", counting)
    cfg = workload("churn", CYCLES)
    Engine(cfg).run(tmp_path)
    assert len(calls) == cfg.stream.total_cycles // cfg.snapshot_interval == 12
    assert [p.name for p in calls] == [f"state_cycle_{c:04d}.json" for c in range(5, 61, 5)]
    assert all(p.parent == tmp_path / "snapshots" and p.is_file() for p in calls)


@pytest.fixture(scope="module")
def churn_run(tmp_path_factory):
    """The churn cut with detections: its run directory."""
    out = tmp_path_factory.mktemp("history") / "churn"
    Engine(replace(workload("churn", CYCLES), emit_detections=True)).run(out)
    return out


def restore_point(run):
    return run / "snapshots" / f"state_cycle_{RESUME_AT:04d}.json"


def edit(name, old, new=""):
    """A mutation of the run's file ``name``: its first line holding
    ``old`` has it replaced by ``new``, or is deleted when ``new`` is empty.
    A line is matched with a newline before it, so "\\n12," is a row of
    cycle 12."""

    def mutate(run):
        path = run / name
        lines = path.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if old in "\n" + line)
        lines[at] = ("\n" + lines[at]).replace(old, new, 1)[1:] if new else ""
        path.write_text("".join(lines))
        return restore_point(run)

    return mutate


def remove(name):
    def mutate(run):
        (run / name).unlink()
        return restore_point(run)

    return mutate


def copy_out(run):
    # the snapshot copied into a directory of its own, away from its run
    elsewhere = run.parent / "elsewhere" / "snapshots"
    elsewhere.mkdir(parents=True)
    return Path(shutil.copy(restore_point(run), elsewhere))


def reorder_pool(run):
    # the snapshot's pool in another order than the transitions left it
    snapshot = restore_point(run)
    node = json.loads(snapshot.read_text())
    assert len(node["pool"]) > 1
    node["pool"].reverse()
    snapshot.write_text(json.dumps(node))
    return snapshot


@pytest.mark.parametrize("mutate, named", [
    pytest.param(copy_out, "elsewhere/events.jsonl: cannot read the run before cycle 30",
                 id="snapshot_copied_out"),
    pytest.param(edit("metrics.csv", "\n12,"), "churn/metrics.csv:15: not the roster of cycle 12",
                 id="metrics_row_deleted"),
    # the agent signed in cycle 3 shadows cycle 4 with no Sign to put it there
    pytest.param(edit("events.jsonl", '"kind":"Sign"'),
                 "churn/metrics.csv:9: not the roster of cycle 4", id="sign_deleted"),
    pytest.param(remove("detections.jsonl"), "churn/detections.jsonl: cannot read the run",
                 id="detections_removed"),
    pytest.param(remove("events.jsonl"), "churn/events.jsonl: cannot read the run",
                 id="events_removed"),
    pytest.param(edit("metrics.csv", "TP,", "tp,"), "churn/metrics.csv:1: expected the header",
                 id="metrics_header_wrong"),
    pytest.param(edit("metrics.csv", "\n12,", "\n12.0,"),
                 "churn/metrics.csv:15: invalid literal for int()", id="metrics_cycle_not_an_integer"),
    pytest.param(edit("events.jsonl", '"kind":"Sign"', '"kind":"Evaluate"'),
                 "churn/events.jsonl:5: event.kind: expected one of", id="event_kind_unknown"),
    pytest.param(edit("events.jsonl", '{"cycle":', '{"cycle":"'), "churn/events.jsonl:1: ",
                 id="event_not_json"),
    pytest.param(edit("detections.jsonl", '{"seq":0,', '{"seq":-1,'),
                 "churn/detections.jsonl:1: cycle -1 after cycle 0", id="detection_cycle_negative"),
    pytest.param(edit("events.jsonl", '{"cycle":2,', '{"cycle":0,'), "churn/events.jsonl:4: cycle 0 after cycle 1",
                 id="events_out_of_order"),
    pytest.param(edit("events.jsonl", '"kind":"Release"', '"kind":"Sign"'),
                 "churn/events.jsonl:1: an illegal Sign", id="sign_of_a_roster_agent"),
    pytest.param(reorder_pool, "churn/events.jsonl:25: the run replays to roster [4] and pool",
                 id="snapshot_pool_reordered"),
])
def test_a_history_that_does_not_lead_to_the_snapshot_is_refused(
        churn_run, tmp_path, capsys, mutate, named):
    run = tmp_path / "churn"
    shutil.copytree(churn_run, run)
    snapshot = mutate(run)
    before = digests(tmp_path)
    assert main(["run", "--restore", str(snapshot), "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert named in err, err
    assert digests(tmp_path) == before  # nothing was written


def test_the_history_is_cut_at_the_snapshot_and_at_an_unclosed_line(churn_run, tmp_path):
    # the lines of the cycles at or past the restore point are left out,
    # and so is a last line that a killed run wrote only in part
    run = tmp_path / "churn"
    shutil.copytree(churn_run, run)
    with (run / "events.jsonl").open("a") as events:
        events.write('{"cycle":60,"kind":"Rel')
    cycle_of = {"metrics.csv": lambda line: int(line.split(",")[0]),
                "events.jsonl": lambda line: json.loads(line)["cycle"],
                "detections.jsonl": lambda line: json.loads(line)["seq"] // 50}
    restored = restore_engine(restore_point(run))
    assert sorted(restored.history) == sorted(cycle_of)
    for name, text in restored.history.items():
        header, *lines = (churn_run / name).read_text().splitlines(keepends=True)
        if name != "metrics.csv":
            header, lines = "", [header, *lines]
        assert text == header + "".join(
            line for line in lines if cycle_of[name](line) < RESUME_AT), name
