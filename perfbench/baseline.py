"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each workload runs ``--runs`` times untraced, seeds 1 to ``--runs``, then
once traced at seed 42. Every run is a fresh process of ``run.py`` with
the benchmark's own ``run_seconds``. The file records each metric's
values, median, quartiles and interquartile range as a share of the
median, per workload.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = next(line for line in proc.stdout.splitlines() if "output digest" in line)
    result["digest"] = digest.rsplit(" ", 1)[1]
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()

    report = {"host": f"{platform.machine()}, {platform.python_implementation()} "
                      f"{platform.python_version()}", "run_seconds": SPEC["run_seconds"],
              "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in range(1, args.runs + 1)]
        traced = run_once(workload, 42, 1)
        ok &= all(r["correct"] for r in runs) and traced["correct"]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs])
                for m in SPEC["end_to_end"]
            },
            "seed_42_digest": traced["digest"],
            "per_layer_seed_42": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:9s} {name:14s} median {s['median']:12.6g} "
                  f"iqr/median {s['iqr_share']:.4f}", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
