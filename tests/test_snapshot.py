"""The spliced snapshot writer against its oracle, the schema dump.

``write_snapshot`` splices its text from encodings the engine keeps
between snapshots. The oracle encodes the schema dump of the whole
``Snapshot`` afresh, so a cached agent entry that outlives a change to the
agent, or a totals row that never reaches the cache, shows as a byte
difference.
"""

import json

import pytest

import freeagent.engine
from freeagent.config import to_dict
from freeagent.domain import AgentStatus
from freeagent.engine import (
    SNAPSHOT_FORMAT_VERSION,
    Engine,
    Snapshot,
    restore_engine,
    write_snapshot,
)
from tests.test_golden import RESUME_AT, workload

CYCLES = 60  # the golden churn cut: 12 snapshots


def oracle(engine: Engine) -> str:
    roster = [engine.roster[aid] for aid in sorted(engine.roster)]
    state = Snapshot(SNAPSHOT_FORMAT_VERSION, engine.cycle, engine.config, roster,
                     engine.pool, engine.totals)
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
    engine = Engine(workload("churn", CYCLES))
    snap = tmp_path / "snap.json"
    run_to(engine, RESUME_AT, snap)
    restored = restore_engine(snap)
    check(restored, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == snap.read_bytes()
    assert run_to(restored, CYCLES, snap) == (CYCLES - RESUME_AT) // 5


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
