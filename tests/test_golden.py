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
and, in a copy, into its own, and killed after a snapshot and resumed in
place. The same runs check that metrics.csv holds one row per roster
agent and cycle, the roster the transitions replay to, that the event log
and the rows rebuild the log written before Evaluate and ServiceTick
events were dropped, that summary.json laid out at indent=2 is the file
written before it took the compact encoding, and that each snapshot with
the run totals put back is the file written before the run's files
became their only record.
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
            "4d60101695fc5258d9baeccf67b0f52b9e279f06898c88a661ff6d201f79ca95",
        "snapshots/state_cycle_0010.json":
            "d902e8284df4b4a3d003bff1116526942d0a5239cbd710290178d75cd06d6039",
        "snapshots/state_cycle_0015.json":
            "e4e222f7a6555a4b40d99a7a590a86ffe437ec9e154deaa70539e87c420e7815",
        "snapshots/state_cycle_0020.json":
            "2fdc755cda4d594f4209e60cae790ae57c4cc271361324f99b281452314d6cdc",
        "snapshots/state_cycle_0025.json":
            "337efca45c909233c82444d7a6297984c668085adf1dedc4af8c77a255642c9a",
        "snapshots/state_cycle_0030.json":
            "2574f38ef27d9db21708f960ed853826f9c8efc741ce132f02cab8cb53f07d6c",
        "snapshots/state_cycle_0035.json":
            "376f3ac1c82cde50425b97242b3784b41d1e5a7c893efce23bc6b90bb71ae3a8",
        "snapshots/state_cycle_0040.json":
            "1a017a78f016722297f259d510f664f042a4792ef1474d2ec96d9b595a9d0358",
        "snapshots/state_cycle_0045.json":
            "61b90c91a2a7429e69af35725313eb66fa05e0990ded4dcaa7f9dd8a6d0f5a16",
        "snapshots/state_cycle_0050.json":
            "61c4031843cff5c40385d23d51d74cbe5f719fde3b406a811b7765a931c54dad",
        "snapshots/state_cycle_0055.json":
            "acf11812739ed7c11b648fe59a98668dbf9bff5cd88b7329f929de8bf7bfca9f",
        "snapshots/state_cycle_0060.json":
            "77ff7ea9d5300e8dbda49543f7c5fd1ca34624c9de9a25778b21ed016419f18a",
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


def restore_points_after(pinned: dict[str, str], at: int) -> dict[str, str]:
    """The files of a run resumed at cycle ``at`` into another directory:
    the whole run's, and of its restore points only those it wrote."""
    return {name: digest for name, digest in pinned.items()
            if not name.startswith("snapshots/") or int(name[-9:-5]) > at}


# The churn cut resumed from its cycle-30 snapshot into a new directory.
GOLDEN["churn-resumed"] = restore_points_after(GOLDEN["churn"], RESUME_AT)


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
    out["churn-detections"] = root / "churn-detections"
    Engine(replace(workload("churn", 60), emit_detections=True)).run(out["churn-detections"])
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
    """A run resumed from the snapshot taken before cycle ``at`` into
    another directory holds the full run's files, byte for byte, and the
    restore points it wrote."""
    assert digests(resumed) == restore_points_after(digests(full), at)


def test_the_churn_snapshots_and_the_resumed_run(runs):
    full, resumed = runs["churn"], runs["churn-resumed"]
    snapshots = sorted(p.name for p in (full / "snapshots").iterdir())
    assert snapshots == [f"state_cycle_{c:04d}.json" for c in range(5, 61, 5)]
    assert json.loads((full / "summary.json").read_text())["event_counts"]["Promote"] == 14
    assert_resumed_as_full(full, resumed, RESUME_AT)


def test_a_restore_in_place_keeps_its_restore_point(runs, tmp_path):
    # the churn cut's directory resumed into itself: the snapshots up to the
    # restore point stay, and the run's files are cut there and continued
    in_place = tmp_path / "churn"
    shutil.copytree(runs["churn"], in_place)
    snapshot = in_place / "snapshots" / f"state_cycle_{RESUME_AT:04d}.json"
    assert main(["run", "--restore", str(snapshot), "--out", str(in_place)]) == 0
    assert digests(in_place) == GOLDEN["churn"]


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


def run_script(script: str, *args) -> int:
    """The exit code of ``script`` run in a fresh interpreter on this ``src/``."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          timeout=120).returncode


@pytest.mark.parametrize("at", [5, 30])
def test_a_run_killed_after_a_snapshot_leaves_every_line_before_it(runs, tmp_path, at):
    killed, full = tmp_path / "killed", runs["churn-detections"]
    cfg = workload("churn", 60)
    assert run_script(_KILLED_RUN, at, WORKLOADS / "churn.json", killed) == 0  # died at it
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

    # resumed in place, the directory is the uninterrupted run's, file for file
    snapshot = killed / "snapshots" / f"state_cycle_{at:04d}.json"
    assert main(["run", "--restore", str(snapshot), "--out", str(killed)]) == 0
    assert digests(killed) == digests(full)


# Resumes a run directory in place from its cycle-30 snapshot and ends the
# process with os._exit as cycle 32 starts, before the next snapshot.
_KILLED_RESUME = """
import os, sys
from freeagent import engine

out = sys.argv[1]
run_cycle = engine.Engine.run_cycle

def die_at_cycle_32(self):
    if self.cycle == 32:
        os._exit(0)
    return run_cycle(self)

engine.Engine.run_cycle = die_at_cycle_32
engine.restore_engine(os.path.join(out, "snapshots", "state_cycle_0030.json")).run(out)
os._exit(1)
"""


def test_a_resume_in_place_killed_before_its_first_snapshot_can_resume_again(runs, tmp_path):
    # the kept lines reach the files before the resumed run's first cycle,
    # so the restore point it started from still leads to its snapshot
    out = tmp_path / "churn"
    shutil.copytree(runs["churn"], out)
    assert run_script(_KILLED_RESUME, out) == 0
    snapshot = out / "snapshots" / f"state_cycle_{RESUME_AT:04d}.json"
    assert main(["run", "--restore", str(snapshot), "--out", str(out)]) == 0
    assert digests(out) == GOLDEN["churn"]


# Runs the churn cut and ends the process with os._exit between writing
# the snapshot of cycle 10 to its temporary file and renaming it.
_KILLED_IN_RENAME = """
import os, sys
from freeagent import engine
from freeagent.config import load_config

workload, out = sys.argv[1], sys.argv[2]
replace = os.replace

def die_at_cycle_10(src, dst):
    if str(dst).endswith("state_cycle_0010.json"):
        os._exit(0)
    replace(src, dst)

os.replace = die_at_cycle_10
engine.Engine(load_config(workload)).run(out)
os._exit(1)
"""


def test_a_rerun_sweeps_a_snapshot_temporary_left_by_a_killed_run(tmp_path):
    # the rerun stops before cycle 10, so no write of its own renames the
    # leftover away: the directory is then a fresh run's, file for file
    out, fresh = tmp_path / "churn", tmp_path / "fresh"
    assert run_script(_KILLED_IN_RENAME, WORKLOADS / "churn.json", out) == 0
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [
        "state_cycle_0005.json", "state_cycle_0010.json.tmp"]
    Engine(workload("churn", 8)).run(out)
    Engine(workload("churn", 8)).run(fresh)
    assert digests(out) == digests(fresh)


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


# The sha256 of each snapshot of the churn cut as written in format 6,
# which also carried the run totals; ``parent_snapshot`` rebuilds it.
PARENT_SNAPSHOT_DIGESTS = {
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
}


def parent_snapshot(out: Path, name: str) -> bytes:
    """The snapshot ``name`` of the run in ``out`` as format 6 wrote it: the
    run totals of its cycles put back, folded from the run's files here,
    each cycle's counts summed over its Active rows (a cycle without one
    stalled), the transitions counted by kind and the first cycle of each
    Release, Sign and Promote."""
    node = json.loads((out / name).read_text(encoding="utf-8"))
    n = node["next_cycle"]
    cycles = [[0, 0, 0, 0, True] for _ in range(n)]
    _, *lines = (out / "metrics.csv").read_text().splitlines()
    for cells in (line.split(",") for line in lines):
        if int(cells[0]) < n and cells[2] == "Active":
            counts = cycles[int(cells[0])]
            counts[:] = [a + int(b) for a, b in zip(counts[:4], cells[3:7])] + [False]
    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    events = [event for event in events if event["cycle"] < n]
    counts = {}
    for event in events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    firsts = {f"first_{kind.lower()}": next((e["cycle"] for e in events if e["kind"] == kind), None)
              for kind in ("Release", "Sign", "Promote")}
    node["totals"] = {"cycles": cycles, "event_counts": counts, "key_cycles": firsts}
    node["format_version"] = 6
    return (json.dumps(node, sort_keys=True, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize("name", sorted(PARENT_SNAPSHOT_DIGESTS))
def test_each_snapshot_with_its_totals_put_back_is_the_parent_snapshot(runs, name):
    # a differential check of the moved snapshot bytes: the format-7 file
    # plus the totals its run's files fold to is the format-6 file
    rebuilt = parent_snapshot(runs["churn"], name)
    assert "totals" not in json.loads((runs["churn"] / name).read_text())
    assert hashlib.sha256(rebuilt).hexdigest() == PARENT_SNAPSHOT_DIGESTS[name]
