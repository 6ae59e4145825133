"""Checks on the files one ``Engine.run`` wrote.

Every run is checked on its own (replay, internal consistency, the
workload's designed story) and against the first run of the same
invocation (byte-identical outputs, compared by digest).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

OUTPUT_FILES = ("events.jsonl", "metrics.csv", "summary.json")
TRANSITION_KINDS = ("Release", "Sign", "Promote", "FreeAgency")

# Designed story of section-4.4 at seed 42: the incumbent is released two
# cycles after the drift, the candidate is signed the same cycle and
# promoted the next, and the two phases decide these many samples.
PRESET_SEED_42_DECIDED = [9782, 18620]
PRESET_KEY_CYCLES = {"first_release": 12, "first_sign": 12, "first_promote": 13}


def output_paths(out: Path) -> list[Path]:
    snaps = sorted((out / "snapshots").glob("*.json")) if (out / "snapshots").is_dir() else []
    return [out / name for name in OUTPUT_FILES] + snaps


def output_bytes(out: Path) -> int:
    return sum((out / name).stat().st_size for name in OUTPUT_FILES)


def digest(out: Path) -> str:
    """sha256 over the name and bytes of every output file, snapshots included."""
    h = hashlib.sha256()
    for path in output_paths(out):
        data = path.read_bytes()
        h.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def replay(events: list[dict], roster: list[int], pool: list[int]):
    """Fold the membership and status transitions of an event log."""
    status = {aid: "Active" for aid in roster}
    pool = list(pool)
    for e in events:
        kind, aid = e["kind"], e["agent"]
        if kind in ("Release", "FreeAgency"):
            if aid not in status:
                raise ValueError(f"cycle {e['cycle']}: {kind} of non-roster agent {aid}")
            del status[aid]
            pool.append(aid)
        elif kind == "Sign":
            if aid not in pool:
                raise ValueError(f"cycle {e['cycle']}: Sign of non-pool agent {aid}")
            pool.remove(aid)
            status[aid] = "Probationary"
        elif kind == "Promote":
            status[aid] = "Active"
    return status, pool


def check_run(out: Path, workload: str, n_roster: int, n_pool: int,
              snapshot_interval: int, full_size: bool) -> list[str]:
    """Problems found in one run's outputs; empty when the run is correct."""
    problems = []
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    events = [
        json.loads(line)
        for line in (out / "events.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    total = summary["total_cycles"]

    status, pool = replay(events, list(range(n_roster)), list(range(n_roster, n_roster + n_pool)))
    final = {a["id"]: a["status"] for a in summary["final_roster"]}
    if status != final:
        problems.append(f"replayed roster {status} != summary roster {final}")
    if pool != [a["id"] for a in summary["final_pool"]]:
        problems.append("replayed pool differs from summary pool")

    counts = Counter(e["kind"] for e in events)
    if dict(counts) != summary["event_counts"]:
        problems.append(f"event counts {dict(counts)} != summary {summary['event_counts']}")
    firsts = {}
    for key, kind in (("first_release", "Release"), ("first_sign", "Sign"),
                      ("first_promote", "Promote")):
        firsts[key] = next((e["cycle"] for e in events if e["kind"] == kind), None)
    if firsts != summary["key_cycles"]:
        problems.append(f"key cycles {firsts} != summary {summary['key_cycles']}")

    rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    row_cycles = [int(r.split(",", 1)[0]) for r in rows]
    if row_cycles != sorted(row_cycles) or not set(row_cycles) <= set(range(total)):
        problems.append("metrics.csv rows out of cycle order or range")
    if [c["cycle"] for c in summary["cycles"]] != list(range(total)):
        problems.append("summary.json does not cover every cycle")
    expected_snaps = total // snapshot_interval if snapshot_interval else 0
    if len(output_paths(out)) - len(OUTPUT_FILES) != expected_snaps:
        problems.append(f"expected {expected_snaps} snapshots")

    if full_size:
        problems += check_story(workload, summary, counts)
    return problems


def check_story(workload: str, summary: dict, counts: Counter) -> list[str]:
    """The behaviour each workload was designed to exercise."""
    transitions = {kind: counts[kind] for kind in TRANSITION_KINDS}
    decided = [p["decided"] for p in summary["phases"]]
    problems = []
    if workload == "preset":
        if transitions != {"Release": 1, "Sign": 1, "Promote": 1, "FreeAgency": 0}:
            problems.append(f"preset transitions {transitions}")
        if summary["key_cycles"] != PRESET_KEY_CYCLES:
            problems.append(f"preset key cycles {summary['key_cycles']}")
        if summary["seed"] == 42 and decided != PRESET_SEED_42_DECIDED:
            problems.append(f"preset phase decided {decided} != {PRESET_SEED_42_DECIDED}")
    elif workload == "dispatch":
        if any(transitions.values()):
            problems.append(f"dispatch roster moved: {transitions}")
        if [a["status"] for a in summary["final_roster"]] != ["Active"] * 6:
            problems.append("dispatch roster is not six Active agents")
    elif workload == "churn":
        if not all(transitions.values()):
            problems.append(f"churn is missing a transition kind: {transitions}")
    return problems
