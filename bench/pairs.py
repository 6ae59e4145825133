"""Alternating before/after pairs of the benchmark, written as one BENCH file.

    python3 bench/pairs.py --parent HEAD~1 --out BENCH_21.json

Checks out ``--parent`` and this checkout's working tree, as the commit
``measured_commit`` names, with ``git worktree`` under ``.bench-work/`` (which
git ignores), side by side at paths of equal length: the path a run starts
from alone can move its cycle times by more than a metric's bound. For each
workload of ``BENCHMARK.json`` it runs ``perfbench/run.py --trace 0`` from
the two trees in turn, the parent first in odd pairs and second in even
ones, then ``perfbench/run.py --trace 1 --seconds 0`` once per side; each
side runs its own ``perfbench/`` as a black box. The BENCH file holds, per
workload and side, the median and quartiles of every end-to-end metric over
the pairs, the ratio of the medians (change over parent), the number of
pairs the change won, both output digests and the output files whose bytes
differ, the traced per-layer metrics and the count and byte metrics that
differ between the sides, with the Python and numpy versions, the CPU
model and the commit and tree of the working tree measured. After the
traced runs, each workload's ``peak_rss_mb`` is probed with a fixed run
count: ``perfbench/run.py --trace 0 --seconds 0`` three times per side, the
sides alternating. It also times the preset's calibration check, the first
``section_4_4_preset()`` call of a fresh interpreter, five times per side
from that side's ``src/``, the sides alternating. The worktrees are removed
when the runs end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("parent", "change")  # also the worktrees' names, which are of one length
# Per-layer metrics that a run repeats exactly, so any difference between
# the sides is a change in what the engine does, not noise.
EXACT_LAYERS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
CALIBRATION_RUNS = 5
RSS_RUNS = 3  # fixed-count peak_rss_mb probes per side and workload
# argv[1] is the src/ directory to import freeagent from. A process runs the
# scenario's calibration check once, in its first section_4_4_preset().
CALIBRATION_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from freeagent.config import section_4_4_preset
start = time.perf_counter()
section_4_4_preset()
print(time.perf_counter() - start)
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the git revision to compare against")
    p.add_argument("--out", required=True, type=Path, help="the BENCH file to write")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                   help="perfbench's --seconds for every run")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cycles", type=int, help="truncate every workload (smoke tests only)")
    return p.parse_args(argv)


def git(*args: str, cwd: Path = ROOT, env: dict[str, str] | None = None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def measured_commit(root: Path = ROOT) -> tuple[str, str]:
    """The commit whose tree is the working tree of ``root`` (every file git
    does not ignore, untracked ones included), and that tree. It is ``HEAD``
    when nothing differs, else a commit on top of ``HEAD`` that no branch
    references, as ``git stash create`` makes. That commit is dated as
    ``HEAD``, so the same tree names the same commit whenever it is asked.
    The real index is untouched."""
    head = git("rev-parse", "HEAD", cwd=root)
    date = git("show", "-s", "--format=%cI", head, cwd=root)
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index"),
               "GIT_AUTHOR_NAME": "bench", "GIT_AUTHOR_EMAIL": "bench@localhost",
               "GIT_COMMITTER_NAME": "bench", "GIT_COMMITTER_EMAIL": "bench@localhost",
               "GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date}
        git("read-tree", "HEAD", cwd=root, env=env)
        git("add", "--all", cwd=root, env=env)
        tree = git("write-tree", cwd=root, env=env)
        if tree == git("rev-parse", "HEAD^{tree}", cwd=root):
            return head, tree
        return git("commit-tree", tree, "-p", head, "-m", "the measured working tree",
                   cwd=root, env=env), tree


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def file_digests(out: Path) -> dict[str, str]:
    """Output file (relative to ``out``) -> sha256 hex digest."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def bench_run(tree: Path, workload: str, work: Path, args: argparse.Namespace,
              seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` from ``tree``: its result line, with the
    output digest it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", str(work)]
    if args.cycles is not None:
        cmd += ["--cycles", str(args.cycles)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["digest"] = re.search(r"output digest (\S+)", proc.stdout).group(1)
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: dict[str, list[dict]]) -> dict:
    """Each end-to-end metric's statistics per side over the pairs."""
    out = {}
    for metric in SPEC["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        out[name] = {"unit": metric["unit"], "better": metric["better"], **stats,
                     "ratio": stats["change"]["median"] / stats["parent"]["median"],
                     "change_better_in": wins}
    return out


def alternating(runs: int):
    """``runs`` rounds of both sides, the parent first in odd rounds."""
    for run in range(1, runs + 1):
        yield from SIDES if run % 2 else SIDES[::-1]


def probe_stats(values: dict[str, list[float]], unit: str) -> dict:
    """Each side's median and quartiles of a probe, and the ratio of the
    medians (change over parent)."""
    stats = {side: quartiles(values[side]) for side in SIDES}
    return {"unit": unit, "better": "lower", "runs": len(values["parent"]), **stats,
            "ratio": stats["change"]["median"] / stats["parent"]["median"]}


def calibration(trees: dict[str, Path]) -> dict:
    """Each side's calibration time, the sides alternating as in the pairs."""
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    for side in alternating(CALIBRATION_RUNS):
        cmd = [sys.executable, "-c", CALIBRATION_PROBE, str(trees[side] / "src")]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: the calibration probe of {trees[side]} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        times[side].append(float(proc.stdout))
    return probe_stats(times, "s")


def run_workload(trees: dict[str, Path], workload: str, base: Path,
                 args: argparse.Namespace) -> dict:
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    works = {side: base / "work" / side / workload for side in SIDES}
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            runs[side].append(bench_run(trees[side], workload, works[side], args, args.seconds))
        print(f"{workload}: pair {pair} of {args.pairs} done", file=sys.stderr)
    files = {side: file_digests(works[side] / "out") for side in SIDES}
    digests = {side: runs[side][-1]["digest"] for side in SIDES}
    traced = {side: bench_run(trees[side], workload, works[side], args, 0, trace=1)
              for side in SIDES}
    print(f"{workload}: traced runs done", file=sys.stderr)
    layers = {side: {name: m["value"] for name, m in traced[side]["metrics"].items()}
              for side in SIDES}
    # perfbench reads peak_rss_mb after all its timed runs, so a faster side
    # runs more of them and reads more memory the engine does not use; each
    # probe is one warm-up and one timed run (--seconds 0)
    probes: dict[str, list[dict]] = {side: [] for side in SIDES}
    for side in alternating(RSS_RUNS):
        probes[side].append(bench_run(trees[side], workload, works[side], args, 0))
    every = {side: [*runs[side], traced[side], *probes[side]] for side in SIDES}
    return {
        "pairs": args.pairs,
        # every run checked out, and the traced run wrote the timed runs' bytes
        "correct": {side: all(r["correct"] for r in every[side])
                    and traced[side]["digest"] == digests[side] for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in every[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in every[side]) for side in SIDES},
        "digests": digests,
        "differing_files": sorted(name for name in files["parent"].keys() | files["change"].keys()
                                  if files["parent"].get(name) != files["change"].get(name)),
        "metrics": compare(runs),
        "layers": layers,
        "layer_mismatches": [name for name in EXACT_LAYERS
                             if layers["parent"].get(name) != layers["change"].get(name)],
        "peak_rss_mb_probe": probe_stats(
            {side: [r["metrics"]["peak_rss_mb"]["value"] for r in probes[side]]
             for side in SIDES}, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.pairs < 1:
        raise SystemExit("error: --pairs must be at least 1")
    commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change, tree = measured_commit()  # before the runs, which take a while
    head = git("rev-parse", "HEAD")
    (ROOT / ".bench-work").mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="pairs-", dir=ROOT / ".bench-work"))
    trees = {side: base / side for side in SIDES}
    try:
        for side, rev in zip(SIDES, (commit, change)):
            git("worktree", "add", "--detach", str(trees[side]), rev)
        workloads = {w["name"]: run_workload(trees, w["name"], base, args)
                     for w in SPEC["workloads"]}
        calibration_s = calibration(trees)
    finally:
        for path in trees.values():
            if path.exists():
                git("worktree", "remove", "--force", str(path))
        shutil.rmtree(base, ignore_errors=True)
    bench = {
        "parent": {"rev": args.parent, "commit": commit},
        "change": {"commit": change, "tree": tree, "head": head,
                   "uncommitted_changes": change != head},
        "command": {"seed": args.seed, "seconds": args.seconds, "trace": 0,
                    "cycles": args.cycles},
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "cpu": cpu_model()},
        "workloads": workloads,
        "calibration_s": calibration_s,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
