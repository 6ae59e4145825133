"""Smoke test of ``bench/pairs.py`` on truncated workloads: one pair per
workload against HEAD, two cycles per run, no timed rounds, then one
traced run per side, and the calibration probe on both sides."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_the_pairs_writer_runs_both_trees_and_removes_its_worktree(tmp_path):
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, "bench/pairs.py", "--parent", "HEAD", "--out", str(out),
                    "--pairs", "1", "--seconds", "0", "--cycles", "2"],
                   cwd=ROOT, check=True, capture_output=True)
    bench = json.loads(out.read_text())

    assert re.fullmatch(r"[0-9a-f]{40}", bench["parent"]["commit"])
    assert bench["command"] == {"seed": 42, "seconds": 0.0, "trace": 0, "cycles": 2}
    assert set(bench["host"]) == {"python", "numpy", "cpu"}
    assert sorted(bench["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for result in bench["workloads"].values():
        assert result["pairs"] == 1
        assert result["correct"] == {"parent": True, "change": True}
        assert result["failed"] == {"parent": 0, "change": 0}
        assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in result["digests"].values())
        assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
        for stats in result["metrics"].values():
            for side in ("parent", "change"):
                assert stats[side]["q1"] <= stats[side]["median"] <= stats[side]["q3"]
            assert stats["ratio"] == stats["change"]["median"] / stats["parent"]["median"]
            assert stats["change_better_in"] in (0, 1)
        # the same code on both sides: every traced count and byte total agrees
        assert result["layer_mismatches"] == []
        for side in ("parent", "change"):
            assert sorted(result["layers"][side]) == sorted(m["name"] for m in SPEC["per_layer"])

    calibration = bench["calibration_s"]
    for side in ("parent", "change"):
        assert 0 < calibration[side]["q1"] <= calibration[side]["median"] <= calibration[side]["q3"]
    assert calibration["ratio"] == calibration["change"]["median"] / calibration["parent"]["median"]

    worktrees = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=ROOT,
                               check=True, capture_output=True, text=True).stdout
    assert ".bench-work" not in worktrees
