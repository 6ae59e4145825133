"""Run configuration: schema, strict validation, JSON round-trip, and the
bundled scenario preset, which checks its own calibration.

Configs are plain JSON. Validation is strict: unknown keys anywhere in
the tree are rejected with their dotted path, and every numeric range is
checked before any execution starts.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domain import FEATURE_DIM, FRAUD_ROLE, MODALITY_DIM, AccessTier, ConfigError
from .lifecycle import LifecycleConfig, RoleSpec
from .moe import Expert, uniform_moe
from .pipeline import decide, redact
from .reward import RewardConfig, RewardWeights
from .simulator import (
    DEFAULT_SCENARIO,
    DriftSchedule,
    PatternSpec,
    SampleBatch,
    ScenarioSpec,
    Segment,
    StreamConfig,
    candidate_experts,
    generate_cycle,
    incumbent_experts,
    scenario_patterns,
)

CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AgentSpec:
    """Construction recipe for one agent; ids are assigned by the engine."""

    role: str
    skills: frozenset[str]
    experts: tuple[Expert, ...]
    learning_rate: float = 0.05
    cost_per_sample: float = 1.0
    handoff_reliability: float = 1.0
    misbehaving: bool = False
    service_time: int = 0

    def __post_init__(self) -> None:
        if self.cost_per_sample <= 0:
            raise ConfigError("cost_per_sample must be positive")
        if not 0.0 <= self.handoff_reliability <= 1.0:
            raise ConfigError("handoff_reliability must be in [0, 1]")
        if self.service_time < 0:
            raise ConfigError("service_time must be non-negative")
        if not self.experts:
            raise ConfigError("agent spec needs at least one expert")


@dataclass(frozen=True)
class RunConfig:
    stream: StreamConfig
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    reward_weights: RewardWeights = field(default_factory=RewardWeights)
    reward_config: RewardConfig = field(default_factory=RewardConfig)
    roles: tuple[RoleSpec, ...] = ()
    roster: tuple[AgentSpec, ...] = ()
    pool: tuple[AgentSpec, ...] = ()
    emit_detections: bool = False
    snapshot_interval: int = 0

    def __post_init__(self) -> None:
        if self.snapshot_interval < 0:
            raise ConfigError("snapshot_interval must be >= 0")
        names = [r.name for r in self.roles]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate role names")


# ---------------------------------------------------------------------------
# Strict dict parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _check_keys(node: dict, allowed: set[str], path: str) -> None:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {node!r}")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _field(node: dict, key: str, path: str, kind: type, default=_REQUIRED):
    """``node[key]``, which must have JSON type ``kind`` (a float may be
    written as an integer, a bool is never a number), or ``default`` if
    missing; errors name the dotted path."""
    if key not in node:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing required key '{key}'")
        return default
    value = node[key]
    if isinstance(value, (int, float) if kind is float else kind) and (
        kind is bool or not isinstance(value, bool)
    ):
        return float(value) if kind is float else value
    raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")


def _skills(node: dict, key: str, path: str) -> frozenset[str]:
    skills = _field(node, key, path, list)
    if all(isinstance(s, str) for s in skills):
        return frozenset(skills)
    raise ConfigError(f"{path}.{key}: expected a list of strings, got {skills!r}")


def _floats(node: dict, key: str, path: str, length: int) -> tuple[float, ...]:
    values = _field(node, key, path, list)
    try:
        if len(values) == length:
            return tuple(map(float, values))
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{path}.{key}: expected {length} numbers, got {values!r}")


def _parse_pattern(node: dict, path: str) -> PatternSpec:
    _check_keys(node, {"name", "fraud_rate", "fraud_shift", "modality_base"}, path)
    shift_node = _field(node, "fraud_shift", path, dict)
    try:
        fraud_shift = {int(k): float(v) for k, v in shift_node.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.fraud_shift: expected a coord->offset mapping ({exc})")
    return PatternSpec(
        name=_field(node, "name", path, str),
        fraud_rate=_field(node, "fraud_rate", path, float),
        fraud_shift=fraud_shift,
        modality_base=_floats(node, "modality_base", path, MODALITY_DIM),
    )


def _parse_stream(node: dict, path: str) -> StreamConfig:
    _check_keys(node, {"seed", "samples_per_cycle", "total_cycles", "patterns", "schedule"}, path)
    patterns = [
        _parse_pattern(p, f"{path}.patterns[{i}]")
        for i, p in enumerate(_field(node, "patterns", path, list))
    ]
    by_name = {p.name: p for p in patterns}
    if len(by_name) != len(patterns):
        raise ConfigError(f"{path}.patterns: duplicate pattern names")

    segments = []
    for i, seg in enumerate(_field(node, "schedule", path, list)):
        seg_path = f"{path}.schedule[{i}]"
        _check_keys(seg, {"start_cycle", "mixture"}, seg_path)
        mixture_node = _field(seg, "mixture", seg_path, dict)
        _check_keys(mixture_node, set(by_name), f"{seg_path}.mixture")
        mixture = [  # pattern list order keeps mixtures deterministic
            (pattern, _field(mixture_node, pattern.name, f"{seg_path}.mixture", float))
            for pattern in patterns
            if pattern.name in mixture_node
        ]
        segments.append(Segment(_field(seg, "start_cycle", seg_path, int), tuple(mixture)))

    return StreamConfig(
        seed=_field(node, "seed", path, int),
        samples_per_cycle=_field(node, "samples_per_cycle", path, int),
        total_cycles=_field(node, "total_cycles", path, int),
        schedule=DriftSchedule(tuple(segments)),
    )


def _require_fraud_role(name: str, path: str) -> str:
    if name != FRAUD_ROLE:
        raise ConfigError(f"{path}: unsupported role {name!r}; only {FRAUD_ROLE!r} is dispatched")
    return name


def parse_expert(node: dict, path: str) -> Expert:
    _check_keys(node, {"profile", "weights", "threshold"}, path)
    return Expert(
        profile=_floats(node, "profile", path, MODALITY_DIM),
        weights=_floats(node, "weights", path, FEATURE_DIM),
        threshold=_field(node, "threshold", path, float),
    )


def _parse_agent(node: dict, path: str) -> AgentSpec:
    allowed = {
        "role", "skills", "experts", "learning_rate", "cost_per_sample",
        "handoff_reliability", "misbehaving", "service_time",
    }
    _check_keys(node, allowed, path)
    return AgentSpec(
        role=_require_fraud_role(_field(node, "role", path, str), f"{path}.role"),
        skills=_skills(node, "skills", path),
        experts=tuple(
            parse_expert(e, f"{path}.experts[{i}]")
            for i, e in enumerate(_field(node, "experts", path, list))
        ),
        learning_rate=_field(node, "learning_rate", path, float, 0.05),
        cost_per_sample=_field(node, "cost_per_sample", path, float, 1.0),
        handoff_reliability=_field(node, "handoff_reliability", path, float, 1.0),
        misbehaving=_field(node, "misbehaving", path, bool, False),
        service_time=_field(node, "service_time", path, int, 0),
    )


def parse_config(root: dict, source: str = "<config>") -> RunConfig:
    allowed = {"schema_version", "stream", "lifecycle", "reward", "roles", "roster", "pool", "output"}
    _check_keys(root, allowed, source)
    version = _field(root, "schema_version", source, int, CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{source}: unsupported schema_version {version}")

    stream = _parse_stream(_field(root, "stream", source, dict), f"{source}.stream")

    lc_node, lc_path = root.get("lifecycle", {}), f"{source}.lifecycle"
    _check_keys(
        lc_node,
        {"release_threshold", "reward_threshold", "sustain_window",
         "max_service_time", "keep_service_time_on_resign"},
        lc_path,
    )
    lifecycle = LifecycleConfig(
        release_threshold=_field(lc_node, "release_threshold", lc_path, float, 0.80),
        reward_threshold=(
            None if lc_node.get("reward_threshold") is None
            else _field(lc_node, "reward_threshold", lc_path, float)
        ),
        sustain_window=_field(lc_node, "sustain_window", lc_path, int, 3),
        max_service_time=_field(lc_node, "max_service_time", lc_path, int, 50),
        keep_service_time_on_resign=_field(
            lc_node, "keep_service_time_on_resign", lc_path, bool, True
        ),
    )

    rw_node, rw_path = root.get("reward", {}), f"{source}.reward"
    _check_keys(
        rw_node,
        {"alpha", "beta", "gamma", "delta", "baseline_cost_per_sample", "fp_budget"},
        rw_path,
    )
    weights = RewardWeights(
        alpha=_field(rw_node, "alpha", rw_path, float, 1.0),
        beta=_field(rw_node, "beta", rw_path, float, 0.25),
        gamma=_field(rw_node, "gamma", rw_path, float, 0.25),
        delta=_field(rw_node, "delta", rw_path, float, 0.5),
    )
    reward_config = RewardConfig(
        baseline_cost_per_sample=_field(rw_node, "baseline_cost_per_sample", rw_path, float, 1.0),
        fp_budget=_field(rw_node, "fp_budget", rw_path, float, 0.10),
    )

    roles = []
    for i, role_node in enumerate(_field(root, "roles", source, list, [])):
        role_path = f"{source}.roles[{i}]"
        _check_keys(role_node, {"name", "required_skills"}, role_path)
        roles.append(
            RoleSpec(
                name=_require_fraud_role(
                    _field(role_node, "name", role_path, str), f"{role_path}.name"
                ),
                required_skills=_skills(role_node, "required_skills", role_path),
            )
        )

    roster, pool = (
        tuple(
            _parse_agent(a, f"{source}.{key}[{i}]")
            for i, a in enumerate(_field(root, key, source, list, []))
        )
        for key in ("roster", "pool")
    )

    out_node, out_path = root.get("output", {}), f"{source}.output"
    _check_keys(out_node, {"emit_detections", "snapshot_interval"}, out_path)

    return RunConfig(
        stream=stream,
        lifecycle=lifecycle,
        reward_weights=weights,
        reward_config=reward_config,
        roles=tuple(roles),
        roster=roster,
        pool=pool,
        emit_detections=_field(out_node, "emit_detections", out_path, bool, False),
        snapshot_interval=_field(out_node, "snapshot_interval", out_path, int, 0),
    )


def load_config(path: str | Path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    return parse_config(root, source=str(path))


# ---------------------------------------------------------------------------
# Serialization (snapshots embed the full config)
# ---------------------------------------------------------------------------

def expert_to_dict(expert: Expert) -> dict:
    return {
        "profile": list(expert.profile),
        "weights": list(expert.weights),
        "threshold": expert.threshold,
    }


def config_to_dict(cfg: RunConfig) -> dict:
    def pattern_dict(p: PatternSpec) -> dict:
        return {
            "name": p.name,
            "fraud_rate": p.fraud_rate,
            "fraud_shift": {str(k): v for k, v in sorted(p.fraud_shift.items())},
            "modality_base": list(p.modality_base),
        }

    def agent_dict(a: AgentSpec) -> dict:
        return {
            "role": a.role,
            "skills": sorted(a.skills),
            "experts": [expert_to_dict(e) for e in a.experts],
            "learning_rate": a.learning_rate,
            "cost_per_sample": a.cost_per_sample,
            "handoff_reliability": a.handoff_reliability,
            "misbehaving": a.misbehaving,
            "service_time": a.service_time,
        }

    patterns: list[PatternSpec] = []
    seen = set()
    for seg in cfg.stream.schedule.segments:
        for pattern, _ in seg.mixture:
            if pattern.name not in seen:
                seen.add(pattern.name)
                patterns.append(pattern)

    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "stream": {
            "seed": cfg.stream.seed,
            "samples_per_cycle": cfg.stream.samples_per_cycle,
            "total_cycles": cfg.stream.total_cycles,
            "patterns": [pattern_dict(p) for p in patterns],
            "schedule": [
                {
                    "start_cycle": seg.start_cycle,
                    "mixture": {p.name: w for p, w in seg.mixture},
                }
                for seg in cfg.stream.schedule.segments
            ],
        },
        "lifecycle": {
            "release_threshold": cfg.lifecycle.release_threshold,
            "reward_threshold": cfg.lifecycle.reward_threshold,
            "sustain_window": cfg.lifecycle.sustain_window,
            "max_service_time": cfg.lifecycle.max_service_time,
            "keep_service_time_on_resign": cfg.lifecycle.keep_service_time_on_resign,
        },
        "reward": {
            "alpha": cfg.reward_weights.alpha,
            "beta": cfg.reward_weights.beta,
            "gamma": cfg.reward_weights.gamma,
            "delta": cfg.reward_weights.delta,
            "baseline_cost_per_sample": cfg.reward_config.baseline_cost_per_sample,
            "fp_budget": cfg.reward_config.fp_budget,
        },
        "roles": [
            {"name": r.name, "required_skills": sorted(r.required_skills)} for r in cfg.roles
        ],
        "roster": [agent_dict(a) for a in cfg.roster],
        "pool": [agent_dict(a) for a in cfg.pool],
        "output": {
            "emit_detections": cfg.emit_detections,
            "snapshot_interval": cfg.snapshot_interval,
        },
    }


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# The drift arrives at this cycle: pattern A before it, the A/B mixture after.
DRIFT_CYCLE = 10

# Calibration stream: independent of the run's seed and sizes, so the
# self-check measures the same samples whatever the caller asks for.
_CALIBRATION_SEED = 0xCA11B
_CALIBRATION_SAMPLES = 10_000


def _scenario(scenario: ScenarioSpec) -> tuple[DriftSchedule, AgentSpec, AgentSpec]:
    """The drift schedule, the incumbent tuned for pattern A and the
    pattern-B candidate; accuracies are constructed, not learned."""
    pattern_a, pattern_b = scenario_patterns(scenario)
    b_weight = scenario.post_drift_b_weight
    schedule = DriftSchedule(
        (
            Segment(0, ((pattern_a, 1.0),)),
            Segment(DRIFT_CYCLE, ((pattern_a, 1.0 - b_weight), (pattern_b, b_weight))),
        )
    )
    skills = frozenset({"fraud", "text", "numeric", "behavior"})
    incumbent = AgentSpec(
        FRAUD_ROLE, skills, incumbent_experts(scenario), handoff_reliability=0.98
    )
    candidate = AgentSpec(
        FRAUD_ROLE, skills | {"pattern-B"}, candidate_experts(scenario), handoff_reliability=0.98
    )
    return schedule, incumbent, candidate


@functools.cache
def _check_calibration(scenario: ScenarioSpec) -> None:
    """Measure the designed accuracies with a uniform gate, each batch
    redacted to the tier it is scored at, and refuse a scenario outside
    its bands."""
    schedule, incumbent, candidate = _scenario(scenario)
    stream = StreamConfig(_CALIBRATION_SEED, _CALIBRATION_SAMPLES, DRIFT_CYCLE + 1, schedule)
    pure_a, mixture = generate_cycle(stream, 0), generate_cycle(stream, DRIFT_CYCLE)

    def accuracy(spec: AgentSpec, batch: SampleBatch, tier: AccessTier) -> float:
        moe = uniform_moe(spec.experts)
        _, _, verdict = decide(moe, redact(batch.features, tier), batch.modality)
        return np.count_nonzero(verdict == batch.label) / len(batch)

    checks = (
        ("incumbent on pattern A", accuracy(incumbent, pure_a, AccessTier.FULL),
         scenario.incumbent_a_band),
        ("incumbent on mixture", accuracy(incumbent, mixture, AccessTier.FULL),
         scenario.incumbent_mixture_band),
        ("candidate shadow on mixture", accuracy(candidate, mixture, AccessTier.RESTRICTED),
         scenario.candidate_shadow_band),
        ("candidate full on mixture", accuracy(candidate, mixture, AccessTier.FULL),
         (scenario.candidate_full_min, 1.0)),
    )
    for label, measured, (lo, hi) in checks:
        if not lo <= measured <= hi:
            raise ConfigError(f"calibration failed: {label} = {measured:.4f} outside [{lo}, {hi}]")


def section_4_4_preset(
    seed: int = 42,
    scenario: ScenarioSpec = DEFAULT_SCENARIO,
    total_cycles: int = 30,
    samples_per_cycle: int = 1000,
) -> RunConfig:
    """Drift scenario: an incumbent tuned for pattern A degrades when
    pattern B arrives at ``DRIFT_CYCLE``, and a pattern-B candidate waits
    in the pool. Raises ``ConfigError`` if the scenario's designed
    accuracies miss their bands (measured once per scenario and process).
    """
    _check_calibration(scenario)
    schedule, incumbent, candidate = _scenario(scenario)
    return RunConfig(
        stream=StreamConfig(
            seed=seed,
            samples_per_cycle=samples_per_cycle,
            total_cycles=total_cycles,
            schedule=schedule,
        ),
        lifecycle=LifecycleConfig(),
        roles=(RoleSpec(name=FRAUD_ROLE, required_skills=frozenset({"fraud", "pattern-B"})),),
        roster=(incumbent,),
        pool=(candidate,),
    )


PRESETS = {
    "section-4.4": section_4_4_preset,
}


def preset_config(name: str, seed: int | None = None) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}'; available: {sorted(PRESETS)}")
    return PRESETS[name]() if seed is None else PRESETS[name](seed=seed)
