"""Regenerate the checked-in workload configs from the section-4.4 preset.

    PYTHONPATH=src python3 perfbench/make_workloads.py

Each config is what ``config_to_dict`` prints, so ``load_config`` accepts
it unchanged. ``perfbench/README.md`` records why each workload exists.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from freeagent.config import config_to_dict, section_4_4_preset  # noqa: E402
from freeagent.lifecycle import LifecycleConfig  # noqa: E402

WORKLOAD_DIR = HERE / "workloads"


def preset() -> dict:
    return config_to_dict(section_4_4_preset())


def dispatch() -> dict:
    base = section_4_4_preset(samples_per_cycle=2000, total_cycles=20)
    candidate = base.pool[0]
    active = replace(candidate, experts=candidate.experts * 4, handoff_reliability=0.4)
    return config_to_dict(replace(base, roster=(active,) * 6, pool=(candidate,)))


def churn() -> dict:
    base = section_4_4_preset(samples_per_cycle=50, total_cycles=600)
    incumbent, candidate = base.roster[0], base.pool[0]
    return config_to_dict(
        replace(
            base,
            roster=tuple(replace(incumbent, service_time=t) for t in range(4)),
            pool=(replace(candidate, handoff_reliability=0.9),) * 64,
            lifecycle=LifecycleConfig(
                max_service_time=4, sustain_window=1, keep_service_time_on_resign=False
            ),
            snapshot_interval=5,
        )
    )


WORKLOADS = {"preset": preset, "dispatch": dispatch, "churn": churn}


def render(name: str) -> str:
    return json.dumps(WORKLOADS[name](), indent=1, sort_keys=True) + "\n"


def main() -> None:
    for name in WORKLOADS:
        (WORKLOAD_DIR / f"{name}.json").write_text(render(name), encoding="utf-8")


if __name__ == "__main__":
    main()
