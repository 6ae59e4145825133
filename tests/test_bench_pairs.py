"""``bench/pairs.py``: a smoke test on truncated workloads, one pair per
workload against the working tree's own commit, two cycles per run, no
timed rounds, then one traced run per side, the fixed-count peak_rss_mb
probes, and the calibration probe on both sides, each from its own
worktree; and the commit it names for the working tree it measures."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def test_the_pairs_writer_runs_both_trees_and_removes_its_worktree(tmp_path):
    # the parent is the working tree itself (HEAD when it is clean), so both
    # sides run the same code even while changes are uncommitted
    parent, _ = load_pairs().measured_commit(ROOT)
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, "bench/pairs.py", "--parent", parent, "--out", str(out),
                           "--pairs", "1", "--seconds", "0", "--cycles", "2"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, f"pairs.py exited {proc.returncode}:\n{proc.stderr[-4000:]}"
    bench = json.loads(out.read_text())

    assert bench["parent"]["commit"] == parent == bench["change"]["commit"]
    assert all(re.fullmatch(r"[0-9a-f]{40}", bench["change"][key])
               for key in ("commit", "tree", "head"))
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
        # peak_rss_mb at a fixed run count, whatever either side's speed
        probe = result["peak_rss_mb_probe"]
        assert (probe["unit"], probe["better"], probe["runs"]) == ("MB", "lower", 3)
        for side in ("parent", "change"):
            assert 0 < probe[side]["q1"] <= probe[side]["median"] <= probe[side]["q3"]
        assert probe["ratio"] == probe["change"]["median"] / probe["parent"]["median"]

    calibration = bench["calibration_s"]
    for side in ("parent", "change"):
        assert 0 < calibration[side]["q1"] <= calibration[side]["median"] <= calibration[side]["q3"]
    assert calibration["ratio"] == calibration["change"]["median"] / calibration["parent"]["median"]

    # both sides ran from worktrees under .bench-work/, and neither is left
    worktrees = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=ROOT,
                               check=True, capture_output=True, text=True).stdout
    assert ".bench-work" not in worktrees
    assert not list((ROOT / ".bench-work").glob("pairs-*"))


def test_the_change_side_names_the_tree_it_measured(tmp_path):
    pairs = load_pairs()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@localhost",
                               "-c", "commit.gpgsign=false", *args], cwd=tmp_path,
                              check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    (tmp_path / ".gitignore").write_text("out/\n")
    git("add", "a.txt", ".gitignore")
    git("commit", "-qm", "base")
    head = git("rev-parse", "HEAD").strip()
    assert pairs.measured_commit(tmp_path) == (head, git("rev-parse", "HEAD^{tree}").strip())

    # an edit, an untracked file and an ignored one
    (tmp_path / "a.txt").write_text("two\n")
    (tmp_path / "b.txt").write_text("new\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "x.txt").write_text("ignored\n")
    commit, tree = pairs.measured_commit(tmp_path)
    assert commit != head
    assert git("rev-parse", f"{commit}^{{tree}}").strip() == tree
    assert git("rev-parse", f"{commit}^").strip() == head
    assert git("ls-tree", "--name-only", tree).split() == [".gitignore", "a.txt", "b.txt"]
    assert git("show", f"{commit}:a.txt") == "two\n"
    # dated as HEAD, so asking again, a second later or not, names the same commit
    assert git("show", "-s", "--format=%cI%n%aI", commit) == git(
        "show", "-s", "--format=%cI%n%cI", head)
    assert pairs.measured_commit(tmp_path) == (commit, tree)
    # the real index and branch are left as they were
    assert git("status", "--porcelain") == " M a.txt\n?? b.txt\n"
    assert git("rev-parse", "HEAD").strip() == head
