"""Golden bytes: the sha256 of every output file of a few fixed runs.

The determinism contract promises identical bytes for an identical config
and seed, and a resumed run writing the same bytes from its snapshot cycle
on. Other tests compare one run with another of the same code; these pin
the bytes themselves, so a change that moves every run the same way (a
stream kernel, a float format, an event order) fails here. The bytes are
promised for one numpy version only, so a failure names the running numpy
and the pinned one; the test is not skipped on another numpy.

Runs: the section-4.4 preset with detections at seeds 42 and 7, the
dispatch workload cut to 3 cycles, and the churn workload cut to 60 cycles
(12 snapshots), resumed from its cycle-30 snapshot into a new directory
and, in a copy, into its own. The same runs check that metrics.csv holds
one row per roster agent and cycle, the roster the transitions replay to,
that the event log and the rows rebuild the log written before Evaluate
and ServiceTick events were dropped, and that summary.json laid out at
indent=2 is the file written before it took the compact encoding.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from freeagent.cli import main
from freeagent.config import load_config, preset_config
from freeagent.engine import Engine
from freeagent.metrics import count_ratios

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"
PINNED_NUMPY = "2.4.6"
RESUME_AT = 30

GOLDEN = {
    "churn": {
        "events.jsonl":
            "e22ad862f7ca131247f37f17f366ce923f3e5c4ab6fd48949f175c12ed5db0b3",
        "metrics.csv":
            "504ddc15146f36c7daec55c8b5fe0ae181bd60c163d512977741b35ac1f32604",
        "snapshots/state_cycle_0005.json":
            "cf6be04f3be2aa43101c4cc7eed0895b9ce1268691729bc1ab0a86daad4559a1",
        "snapshots/state_cycle_0010.json":
            "90480fe4c1f2a97fd6d39b97ffc9bf56f65f23b61bf8b8a786068c6e4f289bdb",
        "snapshots/state_cycle_0015.json":
            "d6cbbfa4f0beb6d54a16241fbd84d3c8742483daa4d563d9d7122c4e78b45670",
        "snapshots/state_cycle_0020.json":
            "08b098d648f7fe2ae1f17d849adb21ce632b838950592c0bb94c92e2565188a0",
        "snapshots/state_cycle_0025.json":
            "96e377b4c6841a3f583161431d10362aa5a38d97b61305885fa6536d3326eafe",
        "snapshots/state_cycle_0030.json":
            "ad4a7bf46f1ae86656874e413b70f9d3b5752dbba634322aa011ccae46c83faa",
        "snapshots/state_cycle_0035.json":
            "c929f914eb962110422cc6a0e27642a50efc1fd016109eca45dd7c21c257a2d8",
        "snapshots/state_cycle_0040.json":
            "751243ee8f03ca127587700e40b625e08340d4595a8abb12e758c99da35bd98e",
        "snapshots/state_cycle_0045.json":
            "7cda840d0e1a5a270da32aea6f372475ceb4c8a546377c964fb047bc4b608d80",
        "snapshots/state_cycle_0050.json":
            "90db410014f2c9eeff983942cdce949b6f1fbbc115496a836aaed90cd7ae92ce",
        "snapshots/state_cycle_0055.json":
            "51a8db3eb8c26919281ef54ec88446ab2585deaa065a8e900e0943ef4940ed70",
        "snapshots/state_cycle_0060.json":
            "61dd1a07fffd242b9845911ff6b71c86ca98de897067f6e801de0cd74059dbc3",
        "summary.json":
            "56d403f4b501fd5c6b66b19ee4c0229ec1b9a29831cb7fabec57fb7b7e6e2e1a",
    },
    "churn-resumed": {
        "events.jsonl":
            "3c235d01ad1072d41cb72db8eeb414a36f11289c734c1bda3cce87fc21ea5e4b",
        "metrics.csv":
            "0e88783ab829a11f6bfd1e33c0cd078b43e00cca287dd1b48f54100ad1f327da",
        "snapshots/state_cycle_0035.json":
            "c929f914eb962110422cc6a0e27642a50efc1fd016109eca45dd7c21c257a2d8",
        "snapshots/state_cycle_0040.json":
            "751243ee8f03ca127587700e40b625e08340d4595a8abb12e758c99da35bd98e",
        "snapshots/state_cycle_0045.json":
            "7cda840d0e1a5a270da32aea6f372475ceb4c8a546377c964fb047bc4b608d80",
        "snapshots/state_cycle_0050.json":
            "90db410014f2c9eeff983942cdce949b6f1fbbc115496a836aaed90cd7ae92ce",
        "snapshots/state_cycle_0055.json":
            "51a8db3eb8c26919281ef54ec88446ab2585deaa065a8e900e0943ef4940ed70",
        "snapshots/state_cycle_0060.json":
            "61dd1a07fffd242b9845911ff6b71c86ca98de897067f6e801de0cd74059dbc3",
        "summary.json":
            "56d403f4b501fd5c6b66b19ee4c0229ec1b9a29831cb7fabec57fb7b7e6e2e1a",
    },
    "dispatch": {
        "events.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "metrics.csv":
            "ec3c52a3c9f8a5384b2b8948bf99ef5218ab7a5e24ca54178365f9b8dbcd7d9c",
        "summary.json":
            "85aab5c433ab7e2924adb393c0f50c81dba327d9eaf973d3b3a8dd1e741a4a54",
    },
    "preset-42": {
        "detections.jsonl":
            "9e17055b527e755f8e787a75dfaa58a8a7639bd6abdb348ecf7be7559f077c8f",
        "events.jsonl":
            "dc12ace70f987b4c7443da85729ac5792dc9bc7b75fdaa894b1fb654c936924a",
        "metrics.csv":
            "4a5f5876d817b9007875fa9890091973f33ddf594b1f2fd1565f934b61c8a74d",
        "summary.json":
            "0503334ad7aa8fd899ae8baf1b856fcb430549094505bd3466f533a0e913a9ad",
    },
    "preset-7": {
        "detections.jsonl":
            "c66ca57cb96fb7621b047592a00e0fb2715ed930585c10871e6d6375a58383ca",
        "events.jsonl":
            "2f7ba15248308e116358e8afeb1976f68f60bba0d2a0d1405e8928d39d01b7ab",
        "metrics.csv":
            "d05935494992083b49ced94640c20a58f13c882c6e895c4f459e034a1af6f528",
        "summary.json":
            "cca6545f72886e36109cff71dd8ba7cc39ebf541dd0b9371d872b2b5c1414f13",
    },
}


def digests(out: Path) -> dict[str, str]:
    """Output file (relative to ``out``) -> sha256 hex digest."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def workload(name: str, cycles: int):
    cfg = load_config(WORKLOADS / f"{name}.json")
    return replace(cfg, stream=replace(cfg.stream, total_cycles=cycles))


def run_config(run: str):
    """The config of a run the ``runs`` fixture made from scratch."""
    if run.startswith("preset-"):
        cfg = preset_config("section-4.4")
        return replace(cfg, stream=replace(cfg.stream, seed=int(run[len("preset-"):])))
    return workload(run, {"dispatch": 3, "churn": 60}[run])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each run's output directory."""
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for seed in (42, 7):
        out[f"preset-{seed}"] = root / f"preset-{seed}"
        assert main(["run", "--preset", "section-4.4", "--seed", str(seed),
                     "--emit-detections", "--out", str(out[f"preset-{seed}"])]) == 0
    for name, cycles in (("dispatch", 3), ("churn", 60)):
        out[name] = root / name
        Engine(workload(name, cycles)).run(out[name])
    out["churn-resumed"] = root / "churn-resumed"
    snapshot = out["churn"] / "snapshots" / f"state_cycle_{RESUME_AT:04d}.json"
    assert main(["run", "--restore", str(snapshot), "--out", str(out["churn-resumed"])]) == 0
    return out


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_output_bytes_match_the_pinned_digests(runs, run):
    got, pinned = digests(runs[run]), GOLDEN[run]
    assert sorted(got) == sorted(pinned), f"{run}: output files differ"
    for name, digest in pinned.items():
        assert got[name] == digest, (
            f"{run}/{name}: sha256 {got[name]} != pinned {digest} "
            f"(numpy {np.__version__}; the digests were pinned on numpy {PINNED_NUMPY})"
        )


def assert_resumed_as_full(full: Path, resumed: Path, at: int) -> None:
    """A run resumed from the snapshot taken before cycle ``at`` wrote the
    full run's bytes from that cycle on, and its summary."""
    assert (resumed / "summary.json").read_bytes() == (full / "summary.json").read_bytes()
    events = (full / "events.jsonl").read_text().splitlines()
    assert (resumed / "events.jsonl").read_text().splitlines() == [
        line for line in events if json.loads(line)["cycle"] >= at
    ]
    header, *rows = (full / "metrics.csv").read_text().splitlines()
    assert (resumed / "metrics.csv").read_text().splitlines() == [header] + [
        row for row in rows if int(row.split(",")[0]) >= at
    ]
    snapshots = sorted(p.name for p in (full / "snapshots").iterdir())
    later = [name for name in snapshots if int(name[12:16]) > at]
    assert sorted(p.name for p in (resumed / "snapshots").iterdir()) == later
    for name in later:
        assert (resumed / "snapshots" / name).read_bytes() == (
            full / "snapshots" / name).read_bytes(), name


def test_the_churn_snapshots_and_the_resumed_run(runs):
    full, resumed = runs["churn"], runs["churn-resumed"]
    snapshots = sorted(p.name for p in (full / "snapshots").iterdir())
    assert snapshots == [f"state_cycle_{c:04d}.json" for c in range(5, 61, 5)]
    assert json.loads((full / "summary.json").read_text())["event_counts"]["Promote"] == 14
    assert_resumed_as_full(full, resumed, RESUME_AT)


def test_a_restore_in_place_keeps_its_restore_point(runs, tmp_path):
    # the churn cut's directory resumed into itself: the snapshots up to the
    # restore point stay, and every file the resumed run writes is its own
    in_place = tmp_path / "churn"
    shutil.copytree(runs["churn"], in_place)
    snapshot = in_place / "snapshots" / f"state_cycle_{RESUME_AT:04d}.json"
    assert main(["run", "--restore", str(snapshot), "--out", str(in_place)]) == 0
    kept = {name: digest for name, digest in GOLDEN["churn"].items()
            if name.startswith("snapshots/") and int(name[-9:-5]) <= RESUME_AT}
    assert digests(in_place) == {**kept, **GOLDEN["churn-resumed"]}


# Runs the churn cut with detections and ends the process with os._exit
# right after the snapshot of cycle AT is written. No `with` block closes,
# and so flushes, the output files: each holds what the run flushed itself.
_KILLED_RUN = """
import os, sys
from dataclasses import replace
from freeagent import engine
from freeagent.config import load_config

at, workload, out = int(sys.argv[1]), sys.argv[2], sys.argv[3]
write_snapshot = engine.write_snapshot

def write_then_die(eng, path):
    write_snapshot(eng, path)
    if path.name == f"state_cycle_{at:04d}.json":
        os._exit(0)

engine.write_snapshot = write_then_die
cfg = load_config(workload)
cfg = replace(cfg, emit_detections=True, stream=replace(cfg.stream, total_cycles=60))
engine.Engine(cfg).run(out)
os._exit(1)
"""


@pytest.mark.parametrize("at", [5, 30])
def test_a_run_killed_after_a_snapshot_leaves_every_line_before_it(runs, tmp_path, at):
    killed, full = tmp_path / "killed", tmp_path / "full"
    cfg = workload("churn", 60)
    Engine(replace(cfg, emit_detections=True)).run(full)
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _KILLED_RUN, str(at),
                           str(WORKLOADS / "churn.json"), str(killed)], env=env, timeout=120)
    assert proc.returncode == 0  # it died at the snapshot
    assert (killed / "snapshots" / f"state_cycle_{at:04d}.json").exists()

    def lines(path):
        return path.read_text().splitlines()

    golden = runs["churn"]
    assert lines(killed / "events.jsonl") == [
        line for line in lines(golden / "events.jsonl") if json.loads(line)["cycle"] < at]
    header, *rows = lines(golden / "metrics.csv")
    assert lines(killed / "metrics.csv") == [header] + [
        row for row in rows if int(row.split(",")[0]) < at]
    per_cycle = cfg.stream.samples_per_cycle
    detections = [line for line in lines(full / "detections.jsonl")
                  if json.loads(line)["seq"] // per_cycle < at]
    assert detections and lines(killed / "detections.jsonl") == detections


def read_run(out: Path):
    """A run's transition events and its metrics.csv rows, each row's cells
    as (cycle, agent, tp, fp, fn, tn, service_time)."""
    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    _, *lines = (out / "metrics.csv").read_text().splitlines()
    rows = []
    for line in lines:
        cells = line.split(",")
        rows.append((*map(int, cells[:2]), *map(int, cells[3:7]), int(cells[-1])))
    return events, rows


def by_cycle(items, cycle_of, cycles: int) -> list[list]:
    out = [[] for _ in range(cycles)]
    for item in items:
        out[cycle_of(item)].append(item)
    return out


def step(roster: set, event: dict) -> None:
    """Fold one transition into the roster: Release and FreeAgency leave it,
    Sign joins it, and Promote keeps it."""
    if event["kind"] in ("Release", "FreeAgency"):
        roster.remove(event["agent"])
    elif event["kind"] == "Sign":
        roster.add(event["agent"])


@pytest.mark.parametrize("run", ["preset-42", "preset-7", "churn"])
def test_every_roster_agent_is_evaluated_once_per_cycle(runs, run):
    # each cycle's metrics.csv rows are the roster at the cycle's start,
    # replayed from the transitions, one row per agent in id order
    cfg = run_config(run)
    events, rows = read_run(runs[run])
    total = cfg.stream.total_cycles
    roster = set(range(len(cfg.roster)))
    for cycle_rows, cycle_events in zip(by_cycle(rows, lambda r: r[0], total),
                                        by_cycle(events, lambda e: e["cycle"], total)):
        assert [row[1] for row in cycle_rows] == sorted(roster)
        for event in cycle_events:
            step(roster, event)


# The sha256 of each run's events.jsonl as written while every roster
# agent's cycle also logged an Evaluate and a ServiceTick event: the
# parent log that ``parent_events`` rebuilds from today's outputs.
PARENT_EVENTS_DIGESTS = {
    "churn": "a692cdc738c9f9169678bbc2368c91521ab78617ebe16762103a6c1e97a4da83",
    "dispatch": "a397f9f773faa52ed10c72592200bfa9bd1c4833876f55c3121769abbb78750e",
    "preset-42": "ed39c0e75e474b0517fea622455e9638e148f2d64edd1a3902d8bd46c0edae71",
    "preset-7": "8f072817410fd440bbe13673d8be1813e30188ee86c4aceae33f1fa3e6ec8f4c",
}


def parent_events(out: Path, cfg) -> str:
    """The events.jsonl of a run with its Evaluate and ServiceTick lines put
    back, in the order the lifecycle wrote them within a cycle: each
    stage-3 Evaluate with its Release, the probation Promote or Release,
    the Sign, a ServiceTick per roster agent in id order, the FreeAgency.

    An Evaluate holds its row's counts and the F1 of those counts. A tick
    holds the service time after it: the row's for an agent with a row
    this cycle, else (an agent signed this cycle) its service after signing
    plus one. Either snapshots the agent's latest F1, 0.0 before its first."""
    total, keep = cfg.stream.total_cycles, cfg.lifecycle.keep_service_time_on_resign
    events, rows = read_run(out)
    service = {i: spec.service_time for i, spec in enumerate((*cfg.roster, *cfg.pool))}
    performance = dict.fromkeys(service, 0.0)
    roster = set(range(len(cfg.roster)))

    def compact(node: dict) -> str:
        return json.dumps(node, separators=(",", ":")) + "\n"

    def line(cycle, kind, agent, detail):
        return compact({"cycle": cycle, "kind": kind, "agent": agent, "detail": detail,
                        "performance_snapshot": performance[agent]})

    out_lines = []
    for cycle, (cycle_rows, cycle_events) in enumerate(zip(
            by_cycle(rows, lambda r: r[0], total), by_cycle(events, lambda e: e["cycle"], total))):
        stage_3 = {e["agent"]: e for e in cycle_events
                   if e["kind"] == "Release" and e["detail"].startswith("below threshold")}
        for _, agent, tp, fp, fn, tn, _ in cycle_rows:
            performance[agent] = count_ratios(tp, fp, fn, tn)[2]
            out_lines.append(line(cycle, "Evaluate", agent, f"tp={tp} fp={fp} fn={fn} tn={tn}"))
            if agent in stage_3:
                out_lines.append(compact(stage_3[agent]))
        row_service = {row[1]: row[6] for row in cycle_rows}
        for event in cycle_events:
            if event["kind"] != "FreeAgency":
                step(roster, event)
                if event not in stage_3.values():
                    out_lines.append(compact(event))
        for agent in sorted(roster):
            service[agent] = row_service.get(agent, (service[agent] if keep else 0) + 1)
            out_lines.append(line(cycle, "ServiceTick", agent, f"service_time={service[agent]}"))
        for event in cycle_events:
            if event["kind"] == "FreeAgency":
                step(roster, event)
                out_lines.append(compact(event))
    return "".join(out_lines)


@pytest.mark.parametrize("run", sorted(PARENT_EVENTS_DIGESTS))
def test_the_rows_and_transitions_rebuild_the_parent_event_log(runs, run):
    # a differential check of the dropped events: what they said is in the
    # rows, the transitions and the config (churn-resumed lacks the rows
    # before its snapshot, so it is not rebuilt)
    rebuilt = parent_events(runs[run], run_config(run)).encode()
    assert hashlib.sha256(rebuilt).hexdigest() == PARENT_EVENTS_DIGESTS[run]


# The sha256 of each run's summary.json as written with json's indent=2,
# key-sorted layout, before the file took the snapshots' compact encoding.
PARENT_SUMMARY_DIGESTS = {
    "churn": "d3f17deea14bae38a60906a73bad0789e90f408058e7c62feaf011adb3c98876",
    "churn-resumed": "d3f17deea14bae38a60906a73bad0789e90f408058e7c62feaf011adb3c98876",
    "dispatch": "1798210b5651d797d805f1d39b909e08ed2e2b23ed0a45b55e19a9f58c40959e",
    "preset-42": "154a788f3452b347cc735c1a985596a532056422af0cb12ce41da72147abb412",
    "preset-7": "15857e893e3cfdddd562f39d8b7dafd238be686b068a50c0251bc768e62ea152",
}


@pytest.mark.parametrize("run", sorted(PARENT_SUMMARY_DIGESTS))
def test_the_summary_re_indented_is_the_parent_summary(runs, run):
    # a differential check of the moved whitespace: the file is the compact,
    # key-sorted dump of what it holds, and that laid out at indent=2 is the
    # parent's file, byte for byte
    text = (runs[run] / "summary.json").read_text(encoding="utf-8")
    summary = json.loads(text)
    assert text == json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n"
    indented = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == PARENT_SUMMARY_DIGESTS[run]
