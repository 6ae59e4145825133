"""In-memory span recorder for the traced benchmark run.

The recorder wraps, from outside ``src/``, the public functions that
``freeagent.engine`` calls into each module, plus ``load_config`` (which
the CLI calls) and ``pipeline.decide`` (the per-sample call into the
mixture of experts). Each call becomes one span: name, start, end,
parent span and engine cycle. Spans stay in memory until the run ends.

A boundary whose function no longer exists is skipped, and every metric
derived from it is left out of the result: absent, not zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# (module, class or None, attribute, span name). The first part of a span
# name is the layer, i.e. the src/freeagent module the work belongs to.
BOUNDARIES = (
    ("freeagent.config", None, "load_config", "config.load"),
    ("freeagent.engine", "Engine", "__init__", "engine.init"),
    ("freeagent.engine", "Engine", "run", "engine.run"),
    ("freeagent.engine", "Engine", "run_cycle", "engine.cycle"),
    ("freeagent.engine", "Engine", "build_summary", "engine.summary"),
    ("freeagent.engine", None, "write_snapshot", "engine.snapshot"),
    ("freeagent.engine", None, "generate_cycle", "simulator.generate"),
    ("freeagent.pipeline", "CyclePipeline", "__init__", "pipeline.init"),
    ("freeagent.pipeline", "CyclePipeline", "run_batch", "pipeline.batch"),
    ("freeagent.pipeline", None, "decide", "moe.decide"),
    ("freeagent.engine", None, "rl_update", "moe.gate_update"),
    ("freeagent.engine", None, "compute_components", "reward.components"),
    ("freeagent.engine", None, "compute_reward", "reward.reward"),
    ("freeagent.engine", None, "evaluate_and_release", "lifecycle.evaluate_and_release"),
    ("freeagent.engine", None, "vacant_roles", "lifecycle.vacant_roles"),
    ("freeagent.engine", None, "fill_vacant_roles", "lifecycle.fill_vacant_roles"),
    ("freeagent.engine", None, "transition_probationary", "lifecycle.transition_probationary"),
    ("freeagent.engine", None, "increment_service_time", "lifecycle.increment_service_time"),
    ("freeagent.engine", None, "enforce_service_cap", "lifecycle.enforce_service_cap"),
)

TRANSITIONS = {
    "Release": "lifecycle.releases",
    "Sign": "lifecycle.signs",
    "Promote": "lifecycle.promotes",
    "FreeAgency": "lifecycle.free_agency",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Recorder.spans, -1 at the top
    cycle: int  # engine cycle running or last finished, -1 before the first


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.cycle = -1
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.cycle)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        The run is single-threaded, so children never overlap each other.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total duration, total self time)."""
        out: dict[str, tuple[int, float, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, dur, self_s = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, dur + span.end - span.start, self_s + own)
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "cycle": s.cycle},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# -- counts taken at the boundaries ------------------------------------------

def _enter_cycle(rec: Recorder, fn, args, kwargs):
    rec.cycle = args[0].cycle


def _leave_generate(rec: Recorder, token, args, kwargs, result) -> None:
    rec.counts["simulator.samples"] += len(result)


def _leave_snapshot(rec: Recorder, token, args, kwargs, result) -> None:
    rec.counts["engine.snapshot_bytes"] += os.path.getsize(args[1])


def _leave_batch(rec: Recorder, token, args, kwargs, result) -> None:
    """Tally the cycle's windows; the engine resets them after every cycle."""
    pipe = args[0]
    counts = rec.counts
    for agent_id, win in pipe.log.windows.items():
        counts["pipeline.dispatch_attempts"] += win.handoffs_attempted
        counts["pipeline.handoff_failures"] += win.handoffs_attempted - win.handoffs_succeeded
        counts["pipeline.violations"] += win.violations
        status = pipe.roster[agent_id].status.value
        if status == "Active":
            counts["pipeline.decisions"] += win.samples_seen
        elif status == "Probationary":
            counts["pipeline.shadow_decisions"] += win.samples_seen
    counts["pipeline.stalled_samples"] += pipe.stalled_samples


def _lifecycle_hooks(fn):
    """Tally the transition events a lifecycle stage appends to ``events``."""
    params = list(inspect.signature(fn).parameters)
    if "events" not in params:
        return None, None
    position = params.index("events")

    def enter(rec, fn, args, kwargs):
        events = args[position] if len(args) > position else kwargs["events"]
        return events, len(events)

    def leave(rec, token, args, kwargs, result):
        events, before = token
        for event in events[before:]:
            key = TRANSITIONS.get(event.kind.value)
            if key is not None:
                rec.counts[key] += 1

    return enter, leave


_LEAVE = {
    "simulator.generate": _leave_generate,
    "engine.snapshot": _leave_snapshot,
    "pipeline.batch": _leave_batch,
}


def _traced(rec: Recorder, name: str, fn):
    enter = _enter_cycle if name == "engine.cycle" else None
    leave = _LEAVE.get(name)
    if name.startswith("lifecycle."):
        enter, leave = _lifecycle_hooks(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = enter(rec, fn, args, kwargs) if enter else None
        result = rec.call(name, fn, args, kwargs)
        if leave:
            leave(rec, token, args, kwargs, result)
        return result

    return traced


class Tracing:
    """Context manager that routes the boundaries through a recorder."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracing:
        for module_name, owner_name, attr, name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            fn = owner.__dict__.get(attr) if owner is not None else None
            if not callable(fn):
                self.missing.add(name)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, _traced(self.rec, name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def boundary_names() -> set[str]:
    return {name for *_, name in BOUNDARIES}


def layer_metrics(rec: Recorder, missing: set[str]) -> dict[str, float]:
    """Per-layer figures of one traced run; see README.md for each."""
    totals = rec.totals()

    def has(*names: str) -> bool:
        return not any(n in missing for n in names)

    def dur(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def layer(prefix: str) -> list[str]:
        return [n for n in boundary_names() if n.startswith(prefix + ".")]

    counts = rec.counts
    out: dict[str, float] = {}
    if has("config.load"):
        out["config.load_s"] = dur("config.load")
    if has("engine.init"):
        out["engine.init_s"] = dur("engine.init")
    if has("engine.run"):
        out["engine.run_s"] = dur("engine.run")
        out["engine.output_bytes"] = counts["engine.output_bytes"]
        if has("engine.cycle", "engine.snapshot", "engine.summary"):
            out["engine.write_s"] = own("engine.run")
    inner = [n for n in boundary_names() if n.split(".")[0] not in ("engine", "config")]
    if has("engine.cycle", *inner):
        out["engine.cycle_self_s"] = own("engine.cycle")
    if has("engine.snapshot"):
        out["engine.snapshot_s"] = dur("engine.snapshot")
        out["engine.snapshots"] = calls("engine.snapshot")
        out["engine.snapshot_bytes"] = counts["engine.snapshot_bytes"]
    if has("engine.summary"):
        out["engine.summary_s"] = dur("engine.summary")
    if has("simulator.generate"):
        samples = counts["simulator.samples"]
        out["simulator.generate_s"] = dur("simulator.generate")
        out["simulator.samples"] = samples
        out["simulator.us_per_sample"] = dur("simulator.generate") / samples * 1e6
    if has("pipeline.init"):
        out["pipeline.init_s"] = dur("pipeline.init")
    if has("pipeline.batch"):
        if has("moe.decide"):
            out["pipeline.batch_self_s"] = own("pipeline.batch")
        for key in ("dispatch_attempts", "handoff_failures", "decisions",
                    "shadow_decisions", "stalled_samples", "violations"):
            out[f"pipeline.{key}"] = counts[f"pipeline.{key}"]
        attempts = counts["pipeline.dispatch_attempts"]
        out["pipeline.handoff_success_ratio"] = (
            (attempts - counts["pipeline.handoff_failures"]) / attempts if attempts else 0.0
        )
        if has("simulator.generate"):
            out["pipeline.decided_share"] = (
                counts["pipeline.decisions"] / samples if samples else 0.0
            )
    if has("moe.decide"):
        out["moe.decide_s"] = dur("moe.decide")
        out["moe.decide_calls"] = calls("moe.decide")
    if has("moe.gate_update"):
        out["moe.gate_update_s"] = dur("moe.gate_update")
        out["moe.gate_updates"] = calls("moe.gate_update")
    if has(*layer("reward")):
        out["reward.s"] = sum(dur(n) for n in layer("reward"))
        out["reward.calls"] = sum(calls(n) for n in layer("reward"))
    if has(*layer("lifecycle")):
        out["lifecycle.s"] = sum(dur(n) for n in layer("lifecycle"))
        for key in TRANSITIONS.values():
            out[key] = counts[key]
    return out
