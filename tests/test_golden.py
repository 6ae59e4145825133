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
(12 snapshots), resumed from its cycle-30 snapshot. The same runs check
that the event log evaluates each roster agent once per cycle.
"""

import hashlib
import json
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
            "a3f71f1138bd37d839e7e9782eab8ecdb65d8192fa5855b94504698dca7aab34",
        "metrics.csv":
            "f7b572dab201dc423cf492c4c6a3d055e716f86ffb579ac13f7297d19c53af7b",
        "snapshots/state_cycle_0005.json":
            "98ca31adb530d7c43cb6bce401d54f19c17c4d4bf90c1621a64de4dec8ffea7a",
        "snapshots/state_cycle_0010.json":
            "73abc773c935c4f127f368ab91a7c1df2e4d3034d2eaa11468b6d9b5efe92878",
        "snapshots/state_cycle_0015.json":
            "9c80599a548e3d1f37d1e5024d63476f324b41a7548e4d795bf4f8e36e51f025",
        "snapshots/state_cycle_0020.json":
            "5325e6d75103d22a6a6b07284e090f300609fedc252d15bd13dc25261bdb8ba3",
        "snapshots/state_cycle_0025.json":
            "42eb66fbebd50e2a9adfa3730e3e8afbdaa9bf0dea4fafa6027634fcf9376386",
        "snapshots/state_cycle_0030.json":
            "032a6e1463e5647e262e1694113cdb392d2b3f9636a4558e4bd13d7cfb47b35d",
        "snapshots/state_cycle_0035.json":
            "f10683e42c259453612686d5e64c0df41c2137fb59d0bb6434c55ae723cecc32",
        "snapshots/state_cycle_0040.json":
            "73a166ced4235d0d622d43183a5d5a533103be7f0adcc9067bce0643d07f3d7a",
        "snapshots/state_cycle_0045.json":
            "ce5b64456451bf21471c6e1c166cf86c46652357b2abd797aab7e7e6f7a5fc78",
        "snapshots/state_cycle_0050.json":
            "1d48b74ab5b2025b07952bcb08b0be57bba97eb79692bbab3c051730145d327c",
        "snapshots/state_cycle_0055.json":
            "99fdeb62de8c45f576c51b04fd0d5ef045081c9fcc95b2d530c6e9c154fb3006",
        "snapshots/state_cycle_0060.json":
            "8ebffe7c1b2f354e3ead2f86f13d85a103c90e1901feaaf7273873ec85ee5f7a",
        "summary.json":
            "6a8a34637e054288eb1c18f1dcffd8039d00fb9cf7d0dba3c1bfb6fa82d42feb",
    },
    "churn-resumed": {
        "events.jsonl":
            "eac438954c67bf48743c670a7dfe441204817a905c34a497834294a1802bd777",
        "metrics.csv":
            "6fff139165bb1e888aef09ea68065405e790c361181261c875c66b5ee49bc5d7",
        "snapshots/state_cycle_0035.json":
            "f10683e42c259453612686d5e64c0df41c2137fb59d0bb6434c55ae723cecc32",
        "snapshots/state_cycle_0040.json":
            "73a166ced4235d0d622d43183a5d5a533103be7f0adcc9067bce0643d07f3d7a",
        "snapshots/state_cycle_0045.json":
            "ce5b64456451bf21471c6e1c166cf86c46652357b2abd797aab7e7e6f7a5fc78",
        "snapshots/state_cycle_0050.json":
            "1d48b74ab5b2025b07952bcb08b0be57bba97eb79692bbab3c051730145d327c",
        "snapshots/state_cycle_0055.json":
            "99fdeb62de8c45f576c51b04fd0d5ef045081c9fcc95b2d530c6e9c154fb3006",
        "snapshots/state_cycle_0060.json":
            "8ebffe7c1b2f354e3ead2f86f13d85a103c90e1901feaaf7273873ec85ee5f7a",
        "summary.json":
            "6a8a34637e054288eb1c18f1dcffd8039d00fb9cf7d0dba3c1bfb6fa82d42feb",
    },
    "dispatch": {
        "events.jsonl":
            "ff9f367ea8c4781c048a283795ce6bd725e150a78594a55447062b0846b6d0a1",
        "metrics.csv":
            "aeae42a22ca7fa14fe1ff2a1af26a3084a4e44d42f686fe43df99189f16b9da8",
        "summary.json":
            "f31ee7c05f572c8d1274e676fa0bfd45452a3aae727b63aa148fd3166174f529",
    },
    "preset-42": {
        "detections.jsonl":
            "de8547dfcc8cb1681483e2096d386d081f22d5eb888bd56224fd78894d8474f3",
        "events.jsonl":
            "2f161e82b9539c06b6b1eab2e0f67ce7c74f3d0b6b024df666c7826554c94fb7",
        "metrics.csv":
            "8ddc38bcbdfd857ea4fd39d39642c0ae1857cd75436c830e4c6f13ed6fba0f7f",
        "summary.json":
            "a4a6cc381239f330fc59beead16d4f518b0c3d3a65baf913d7461522928cbb75",
    },
    "preset-7": {
        "detections.jsonl":
            "60d2221df6ed65c3c9e94d5b2379ed7a9f414344692e3653e21784d5747be627",
        "events.jsonl":
            "dd143ef88f7a9d58bba1fce5d6d3ad6f7290723147c781ea1c366182f965b466",
        "metrics.csv":
            "2b308fbaf7851878bc9156498bae24efeba2502b6f53558dd99269fbea261616",
        "summary.json":
            "7f618438aadbdd8f3a242b32a8541a92537dce6ed0b1a218eb3a526cf36d00ed",
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


def test_the_churn_snapshots_and_the_resumed_run(runs):
    full, resumed = runs["churn"], runs["churn-resumed"]
    snapshots = sorted(p.name for p in (full / "snapshots").iterdir())
    assert snapshots == [f"state_cycle_{c:04d}.json" for c in range(5, 61, 5)]
    assert json.loads((full / "summary.json").read_text())["event_counts"]["Promote"] == 13

    assert (resumed / "summary.json").read_bytes() == (full / "summary.json").read_bytes()
    events = (full / "events.jsonl").read_text().splitlines()
    assert (resumed / "events.jsonl").read_text().splitlines() == [
        line for line in events if json.loads(line)["cycle"] >= RESUME_AT
    ]
    header, *rows = (full / "metrics.csv").read_text().splitlines()
    assert (resumed / "metrics.csv").read_text().splitlines() == [header] + [
        row for row in rows if int(row.split(",")[0]) >= RESUME_AT
    ]
    later = [name for name in snapshots if int(name[12:16]) > RESUME_AT]
    assert sorted(p.name for p in (resumed / "snapshots").iterdir()) == later
    for name in later:
        assert (resumed / "snapshots" / name).read_bytes() == (
            full / "snapshots" / name).read_bytes(), name


@pytest.mark.parametrize("run", ["preset-42", "preset-7", "churn"])
def test_every_roster_agent_is_evaluated_once_per_cycle(runs, run):
    # metrics.csv holds one row per roster agent and cycle
    _, *rows = (runs[run] / "metrics.csv").read_text().splitlines()
    roster = sorted((int(row.split(",")[0]), int(row.split(",")[1])) for row in rows)
    events = [json.loads(line) for line in (runs[run] / "events.jsonl").read_text().splitlines()]
    evaluated = sorted((e["cycle"], e["agent"]) for e in events if e["kind"] == "Evaluate")
    assert evaluated == roster
