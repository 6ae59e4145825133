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
            "a692cdc738c9f9169678bbc2368c91521ab78617ebe16762103a6c1e97a4da83",
        "metrics.csv":
            "504ddc15146f36c7daec55c8b5fe0ae181bd60c163d512977741b35ac1f32604",
        "snapshots/state_cycle_0005.json":
            "da5c3beb2ba0b46a8cae839053f5c708a0f3ef02bd8e5d80da69813d5827505a",
        "snapshots/state_cycle_0010.json":
            "001397fb408038878936ba7e7d3a693f57cc65bbf64ed208c80379489ba7e341",
        "snapshots/state_cycle_0015.json":
            "c85fecbbfc720c1a6960dfedcba40e38438cc40000a6e8cd10594e61495c7fcb",
        "snapshots/state_cycle_0020.json":
            "5617c8cae741036c54f13b5a50443f15e7c8d3baf947cc1aaed39a0541c2c183",
        "snapshots/state_cycle_0025.json":
            "986fb4a8a438d5af406e682cefa46fe172529ecea62801aa2385e03fda2e550a",
        "snapshots/state_cycle_0030.json":
            "a1bdbe0f8399f7a66efd0006a6d30718aa62f3210d88dfb79c45a04f7dec7347",
        "snapshots/state_cycle_0035.json":
            "8b8daddd495ba27e55ae89d51a7d3eb65f7313431e9df7baca5957b141ec84a3",
        "snapshots/state_cycle_0040.json":
            "e1086d65b5b2175a998b54068d67802374304c8c867dd3d67dd11c96235c234f",
        "snapshots/state_cycle_0045.json":
            "fee23ef5a0cb785d83eb00da81800887bd096dd436daa2eed280265714f07899",
        "snapshots/state_cycle_0050.json":
            "a783a79ff132c0e485e204c76eecc9eab0053ad2acbb9ee04ee16071d38c581a",
        "snapshots/state_cycle_0055.json":
            "20127fc026e7e1b990986049555fecf47df2e1ef96e929baff5debe90925918b",
        "snapshots/state_cycle_0060.json":
            "af1a98a1bcef147de55bb3846ddcab69c3b484e3adbca24c8d9b08deeae0df7a",
        "summary.json":
            "8865dd288c8cccc87a2831067e27572ed628f5b008e9986246b3bd556a9ea4f4",
    },
    "churn-resumed": {
        "events.jsonl":
            "c5a9da91b3baaa7edfbda9fa9be4e34d9039f014928e1f1140f2fef7bf015ede",
        "metrics.csv":
            "0e88783ab829a11f6bfd1e33c0cd078b43e00cca287dd1b48f54100ad1f327da",
        "snapshots/state_cycle_0035.json":
            "8b8daddd495ba27e55ae89d51a7d3eb65f7313431e9df7baca5957b141ec84a3",
        "snapshots/state_cycle_0040.json":
            "e1086d65b5b2175a998b54068d67802374304c8c867dd3d67dd11c96235c234f",
        "snapshots/state_cycle_0045.json":
            "fee23ef5a0cb785d83eb00da81800887bd096dd436daa2eed280265714f07899",
        "snapshots/state_cycle_0050.json":
            "a783a79ff132c0e485e204c76eecc9eab0053ad2acbb9ee04ee16071d38c581a",
        "snapshots/state_cycle_0055.json":
            "20127fc026e7e1b990986049555fecf47df2e1ef96e929baff5debe90925918b",
        "snapshots/state_cycle_0060.json":
            "af1a98a1bcef147de55bb3846ddcab69c3b484e3adbca24c8d9b08deeae0df7a",
        "summary.json":
            "8865dd288c8cccc87a2831067e27572ed628f5b008e9986246b3bd556a9ea4f4",
    },
    "dispatch": {
        "events.jsonl":
            "a397f9f773faa52ed10c72592200bfa9bd1c4833876f55c3121769abbb78750e",
        "metrics.csv":
            "ec3c52a3c9f8a5384b2b8948bf99ef5218ab7a5e24ca54178365f9b8dbcd7d9c",
        "summary.json":
            "e1d7410b21b7caa0ae43e9fefd7f443dab171cd741f370ef665a4c663bc5f2d8",
    },
    "preset-42": {
        "detections.jsonl":
            "9e17055b527e755f8e787a75dfaa58a8a7639bd6abdb348ecf7be7559f077c8f",
        "events.jsonl":
            "ed39c0e75e474b0517fea622455e9638e148f2d64edd1a3902d8bd46c0edae71",
        "metrics.csv":
            "4a5f5876d817b9007875fa9890091973f33ddf594b1f2fd1565f934b61c8a74d",
        "summary.json":
            "2afc436006738eb8842d449eb1689a38b675b0b315f94c0f9caf9aeb6d11fc83",
    },
    "preset-7": {
        "detections.jsonl":
            "c66ca57cb96fb7621b047592a00e0fb2715ed930585c10871e6d6375a58383ca",
        "events.jsonl":
            "8f072817410fd440bbe13673d8be1813e30188ee86c4aceae33f1fa3e6ec8f4c",
        "metrics.csv":
            "d05935494992083b49ced94640c20a58f13c882c6e895c4f459e034a1af6f528",
        "summary.json":
            "3935fbf3fa27758633903c853531fc999a36fd8cdf1ea9ff5b378328ebeb8467",
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
    assert json.loads((full / "summary.json").read_text())["event_counts"]["Promote"] == 14

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
