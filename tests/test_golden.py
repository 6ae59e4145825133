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
and, in a copy, into its own. The same runs check that the event log
evaluates each roster agent once per cycle.
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
from freeagent.config import load_config
from freeagent.engine import Engine

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"
PINNED_NUMPY = "2.4.6"
RESUME_AT = 30

GOLDEN = {
    "churn": {
        "events.jsonl":
            "a692cdc738c9f9169678bbc2368c91521ab78617ebe16762103a6c1e97a4da83",
        "metrics.csv":
            "504ddc15146f36c7daec55c8b5fe0ae181bd60c163d512977741b35ac1f32604",
        "snapshots/state_cycle_0005.json":
            "30d044d2555eaf701e5ac0b2d03a96398b17705921133a7f4f156a81edd43244",
        "snapshots/state_cycle_0010.json":
            "c7c1044cb17289e410a7d8cebeaac09feb7890b6ae8c73f7b2f2b6ffacf07e80",
        "snapshots/state_cycle_0015.json":
            "8f6140fd801b53305408fa33def167259678b1fd50b7bd748d4ff4698718833c",
        "snapshots/state_cycle_0020.json":
            "da27d86ffae1759c282f37c391089ce5f5e7921a750e7be662fe972bd9f65d5a",
        "snapshots/state_cycle_0025.json":
            "7f5c152c890a56f5156f4ca43fda1c19a47bbdfb6147a96933b1b307b227eff1",
        "snapshots/state_cycle_0030.json":
            "504fd837e1f0e12e948d1a4494642c73c472f25b13a7e737f5a18db04278c090",
        "snapshots/state_cycle_0035.json":
            "2f341007a5bab47916f1de41db10dc917124e3a263fc0f462abc8887a1e4fea7",
        "snapshots/state_cycle_0040.json":
            "b05b2423cf18cf479445697bf01b8cdb570918d67118066887469f3d45899bc8",
        "snapshots/state_cycle_0045.json":
            "e51e1641bd79256831fd65d332165341e6993f0278eb27c52d42dbae207e35c8",
        "snapshots/state_cycle_0050.json":
            "2788d654e8dc9614470534a7c560ad048ba21375c404ba791f87e874ef4df4ba",
        "snapshots/state_cycle_0055.json":
            "75f77148920944fdb857be763142ff07b8b37c48e324e61aded70f8b562105b7",
        "snapshots/state_cycle_0060.json":
            "035045d78ab25feca3aa4c1a8cfc0bbc2409838985a59ed71c5141638d2d4883",
        "summary.json":
            "f558e570de6cda34c5386ede53c897221324fdcad32d90f7144df11bba309058",
    },
    "churn-resumed": {
        "events.jsonl":
            "c5a9da91b3baaa7edfbda9fa9be4e34d9039f014928e1f1140f2fef7bf015ede",
        "metrics.csv":
            "0e88783ab829a11f6bfd1e33c0cd078b43e00cca287dd1b48f54100ad1f327da",
        "snapshots/state_cycle_0035.json":
            "2f341007a5bab47916f1de41db10dc917124e3a263fc0f462abc8887a1e4fea7",
        "snapshots/state_cycle_0040.json":
            "b05b2423cf18cf479445697bf01b8cdb570918d67118066887469f3d45899bc8",
        "snapshots/state_cycle_0045.json":
            "e51e1641bd79256831fd65d332165341e6993f0278eb27c52d42dbae207e35c8",
        "snapshots/state_cycle_0050.json":
            "2788d654e8dc9614470534a7c560ad048ba21375c404ba791f87e874ef4df4ba",
        "snapshots/state_cycle_0055.json":
            "75f77148920944fdb857be763142ff07b8b37c48e324e61aded70f8b562105b7",
        "snapshots/state_cycle_0060.json":
            "035045d78ab25feca3aa4c1a8cfc0bbc2409838985a59ed71c5141638d2d4883",
        "summary.json":
            "f558e570de6cda34c5386ede53c897221324fdcad32d90f7144df11bba309058",
    },
    "dispatch": {
        "events.jsonl":
            "a397f9f773faa52ed10c72592200bfa9bd1c4833876f55c3121769abbb78750e",
        "metrics.csv":
            "ec3c52a3c9f8a5384b2b8948bf99ef5218ab7a5e24ca54178365f9b8dbcd7d9c",
        "summary.json":
            "3c6d5514a681a9a938c9dfbb053db2aa1de1730e856fa447e4be5db054f8c19b",
    },
    "preset-42": {
        "detections.jsonl":
            "9e17055b527e755f8e787a75dfaa58a8a7639bd6abdb348ecf7be7559f077c8f",
        "events.jsonl":
            "ed39c0e75e474b0517fea622455e9638e148f2d64edd1a3902d8bd46c0edae71",
        "metrics.csv":
            "4a5f5876d817b9007875fa9890091973f33ddf594b1f2fd1565f934b61c8a74d",
        "summary.json":
            "7cd97793a47306cad62a5c1dcec571f2220678c1878a7aa2b3d82a9603108cd5",
    },
    "preset-7": {
        "detections.jsonl":
            "c66ca57cb96fb7621b047592a00e0fb2715ed930585c10871e6d6375a58383ca",
        "events.jsonl":
            "8f072817410fd440bbe13673d8be1813e30188ee86c4aceae33f1fa3e6ec8f4c",
        "metrics.csv":
            "d05935494992083b49ced94640c20a58f13c882c6e895c4f459e034a1af6f528",
        "summary.json":
            "d2ac161b3abeabba1d61ee24d9609ac4506c256b258d2905acd613db94f5712f",
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


@pytest.mark.parametrize("run", ["preset-42", "preset-7", "churn"])
def test_every_roster_agent_is_evaluated_once_per_cycle(runs, run):
    # metrics.csv holds one row per roster agent and cycle
    _, *rows = (runs[run] / "metrics.csv").read_text().splitlines()
    roster = sorted((int(row.split(",")[0]), int(row.split(",")[1])) for row in rows)
    events = [json.loads(line) for line in (runs[run] / "events.jsonl").read_text().splitlines()]
    evaluated = sorted((e["cycle"], e["agent"]) for e in events if e["kind"] == "Evaluate")
    assert evaluated == roster
