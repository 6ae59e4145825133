"""Tests of the benchmark itself, on workloads truncated to a few cycles.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

import hostspeed
import make_workloads
import outputs

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Enough cycles for churn to write two snapshots and move its roster.
TINY_CYCLES = {"preset": 2, "dispatch": 2, "churn": 12}


def bench(workload: str, trace: int, work: Path, root: Path = HERE.parent, seed: int = 7):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--cycles", str(TINY_CYCLES[workload]), "--work", str(work)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Last stdout line and work directory of each (workload, trace) run."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            work = tmp_path_factory.mktemp(f"{workload}{trace}")
            proc = bench(workload, trace, work)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            digest = next(line for line in lines if "output digest" in line).rsplit(" ", 1)[1]
            out[workload, trace] = (json.loads(lines[-1]), digest, work)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(results, workload, trace, kind):
    result, _, _ = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_the_same_bytes(results, workload):
    assert results[workload, 0][1] == results[workload, 1][1]


def test_traced_counts_repeat_exactly(results, tmp_path):
    first = {k: v["value"] for k, v in results["churn", 1][0]["metrics"].items()}
    proc = bench("churn", 1, tmp_path)
    assert proc.returncode == 0, proc.stderr
    second = {k: v["value"]
              for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "ratio")
              and m["name"] != "trace.overhead_ratio"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["lifecycle.signs"] > 0 and first["engine.snapshots"] == 2


def test_self_time_never_exceeds_parent_span(results):
    spans = [json.loads(line)
             for line in (results["churn", 1][2] / "spans.jsonl").read_text().splitlines()]
    own = [s["end"] - s["start"] for s in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert s["parent"] < i
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            own[s["parent"]] -= s["end"] - s["start"]
    for s, self_time in zip(spans, own):
        assert -1e-9 <= self_time <= s["end"] - s["start"]
    names = Counter(s["name"] for s in spans)
    assert names["engine.cycle"] == TINY_CYCLES["churn"]
    assert names["engine.snapshot"] == 2


def test_checked_in_workloads_match_the_generator():
    for workload in WORKLOADS:
        text = (HERE / "workloads" / f"{workload}.json").read_text(encoding="utf-8")
        assert text == make_workloads.render(workload)


def test_story_check_flags_a_changed_preset():
    summary = {"seed": 42, "phases": [{"decided": 9782}, {"decided": 18619}],
               "key_cycles": outputs.PRESET_KEY_CYCLES, "final_roster": []}
    counts = Counter({"Release": 1, "Sign": 1, "Promote": 1})
    assert outputs.check_story("preset", summary, counts) == [
        "preset phase decided [9782, 18619] != [9782, 18620]"
    ]
    with pytest.raises(ValueError, match="Sign of non-pool agent 5"):
        outputs.replay([{"cycle": 3, "kind": "Sign", "agent": 5}], [0], [1])


def test_refuses_to_run_without_the_engine_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("preset", 0, tmp_path / "work", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_ticks_on_a_timer_and_stops():
    probe = hostspeed.Probe()
    previous = signal.getsignal(signal.SIGALRM)
    with probe.sampling():
        t0 = perf_counter()
        while perf_counter() - t0 < 10 * hostspeed.PERIOD_S:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.starts) >= 3 and probe.starts == sorted(probe.starts)
    assert all(d <= s for d, s in zip(probe.durations, probe.spent))
    assert probe.time_in(0.0, perf_counter()) == pytest.approx(sum(probe.spent))
    assert hostspeed.factor(probe.window(0.0, perf_counter())) > 0
