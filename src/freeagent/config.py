"""Run configuration: schema, strict validation, JSON round-trip, and the
bundled scenario preset, which checks its own calibration.

Configs are plain JSON, and the config dataclasses are the schema: each
field is a key (see ``SCHEMA``), and a field holding a config dataclass, or
a tuple of them, is a nested object or a list of objects. Only the
``output`` section, which holds two of ``RunConfig``'s own fields, has
code of its own. Errors name the dotted path, and all of them come before
any execution starts.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .domain import FRAUD_ROLE, AccessTier, ConfigError, DispatchedRole
from .lifecycle import LifecycleConfig, RoleSpec
from .moe import Expert, check_learning_rate, uniform_gate
from .pipeline import decide, redact
from .reward import RewardConfig
from .simulator import (
    DEFAULT_SCENARIO,
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

    role: DispatchedRole
    skills: frozenset[str]
    experts: tuple[Expert, ...]
    learning_rate: float = 0.05
    cost_per_sample: float = 1.0
    handoff_reliability: float = 1.0
    misbehaving: bool = False
    service_time: int = 0

    def __post_init__(self) -> None:
        check_learning_rate(self.learning_rate)
        if not self.cost_per_sample > 0:
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
    reward: RewardConfig = field(default_factory=RewardConfig)
    roles: tuple[RoleSpec, ...] = ()
    roster: tuple[AgentSpec, ...] = ()
    pool: tuple[AgentSpec, ...] = ()
    emit_detections: bool = False
    snapshot_interval: int = 0

    def __post_init__(self) -> None:
        if self.snapshot_interval < 0:  # read from the output section
            raise ConfigError("snapshot_interval must be >= 0", at="output")
        names = [r.name for r in self.roles]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate role names", at="roles")


# ---------------------------------------------------------------------------
# JSON kinds: each parser takes (value, path, key) and its errors name path.key
# ---------------------------------------------------------------------------

def _check_keys(node: dict, allowed: set[str], path: str) -> None:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {node!r}")
    if not allowed.issuperset(node):
        raise ConfigError(f"{path}: unknown keys {sorted(set(node) - allowed)}")


def _exact(kind: type) -> Callable:
    """The parser of one JSON type; a bool is never an integer."""

    def parse(value, path: str, key: str):
        if type(value) is kind:
            return value
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")

    return parse


_INT, _BOOL, _STR, _LIST, _DICT = map(_exact, (int, bool, str, list, dict))
_NUMBER_TYPES, _STRING_TYPES, _FLOATS = {int, float}, {str}, {float}


def _number(value, path: str, key: str) -> float:
    """Any JSON number but a bool, as a finite float."""
    try:
        if type(value) in _NUMBER_TYPES and math.isfinite(number := float(value)):
            return number
    except OverflowError:
        pass
    raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")


def _numbers(value, path: str, key: str) -> tuple[float, ...]:
    """A list of finite numbers, checked as a whole rather than per element."""
    if type(value) is list:
        types = set(map(type, value))
        if types <= _NUMBER_TYPES:
            try:
                numbers = tuple(value) if types == _FLOATS else tuple(map(float, value))
            except OverflowError:
                numbers = (math.inf,)
            # a sum of finite numbers may overflow: then check each one
            if math.isfinite(sum(numbers)) or all(map(math.isfinite, numbers)):
                return numbers
    raise ConfigError(f"{path}.{key}: expected a list of finite numbers, got {value!r}")


def _strings(value, path: str, key: str) -> frozenset[str]:
    if type(value) is list and _STRING_TYPES.issuperset(map(type, value)):
        return frozenset(value)
    raise ConfigError(f"{path}.{key}: expected a list of strings, got {value!r}")


def _weights(value, path: str, key: str) -> dict[str, float]:
    """Name -> finite number."""
    return {name: _number(w, f"{path}.{key}", name) for name, w in _DICT(value, path, key).items()}


def _shift(value, path: str, key: str) -> dict[int, float]:
    """Coordinate -> offset; coordinates are canonical integers ("3", not
    "03" or " 3"), so no two keys name the same one."""
    shift = {}
    for name, offset in _DICT(value, path, key).items():
        try:
            canonical = str(coord := int(name)) == name
        except ValueError:
            canonical = False
        if not canonical:
            raise ConfigError(f"{path}.{key}: coordinate {name!r} is not a canonical integer")
        shift[coord] = _number(offset, f"{path}.{key}", name)
    return shift


def _fraud_role(value, path: str, key: str) -> str:
    if _STR(value, path, key) != FRAUD_ROLE:
        raise ConfigError(
            f"{path}.{key}: unsupported role {value!r}; only {FRAUD_ROLE!r} is dispatched"
        )
    return value


def _object_of(cls: type) -> Callable:
    """The parser of a JSON ``cls`` object."""
    return lambda value, path, key: from_dict(cls, value, f"{path}.{key}")


def _list_of(cls: type) -> Callable:
    """The parser of a JSON list of ``cls`` objects."""

    def parse(value, path: str, key: str) -> tuple:
        items = _LIST(value, path, key)
        return tuple(from_dict(cls, node, f"{path}.{key}[{i}]") for i, node in enumerate(items))

    return parse


# ---------------------------------------------------------------------------
# The schema: one table per config dataclass, built from its fields
# ---------------------------------------------------------------------------

class Key(NamedTuple):
    name: str
    kind: object  # the field's type
    parse: Callable  # (value, path, key) -> field value
    dump: Callable | None  # field value -> JSON value; None: the value itself
    required: bool


# The parser and dump of each field type but a config dataclass or a tuple of them.
_KINDS = {
    float: (_number, None),
    float | None: (lambda value, *at: None if value is None else _number(value, *at), None),
    int: (_INT, None),
    bool: (_BOOL, None),
    str: (_STR, None),
    tuple[float, ...]: (_numbers, list),
    frozenset[str]: (_strings, sorted),
    dict[int, float]: (_shift, lambda shift: {str(k): v for k, v in sorted(shift.items())}),
    dict[str, float]: (_weights, dict),
    DispatchedRole: (_fraud_role, None),
}


def _read(cls: type, node: dict, path: str) -> dict:
    """The table fields of ``cls`` that ``node`` holds, parsed; a missing
    optional key is left to the dataclass default."""
    values = {}
    for name, parse, required in _PARSE[cls]:
        if name in node:
            values[name] = parse(node[name], path, name)
        elif required:
            raise ConfigError(f"{path}: missing required key '{name}'")
    return values


def _build(cls: type, path: str, values: dict):
    """``cls(**values)``; its range checks' errors name ``path`` and the key they are at."""
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.at}: {exc}" if exc.at else f"{path}: {exc}") from None


def from_dict(cls: type, node: dict, path: str):
    """``cls`` from a JSON object holding only its table keys."""
    _check_keys(node, _KEYS[cls], path)
    return _build(cls, path, _read(cls, node, path))


def to_dict(obj) -> dict:
    """The JSON object of a config dataclass: its table fields, in order."""
    node = {}
    for name, dump in _DUMP[type(obj)]:
        value = getattr(obj, name)
        node[name] = value if dump is None else dump(value)
    return node


def _kind(kind: object) -> tuple[Callable, Callable | None] | None:
    """The parser and dump of a field type: a config dataclass is a nested
    object, ``tuple[cls, ...]`` a list of them."""
    if kind in _KINDS:
        return _KINDS[kind]
    if is_dataclass(kind):
        return _object_of(kind), to_dict
    args = get_args(kind)
    if get_origin(kind) is tuple and len(args) == 2 and args[1] is ... and is_dataclass(args[0]):
        return _list_of(args[0]), lambda items: [to_dict(item) for item in items]
    return None


def _table(cls: type) -> tuple[Key, ...]:
    """One key per field; a field with no JSON kind fails at import."""
    table, kinds = [], get_type_hints(cls)
    for f in fields(cls):
        if (kind := _kind(kinds[f.name])) is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no JSON kind for {kinds[f.name]}")
        required = f.default is MISSING and f.default_factory is MISSING
        table.append(Key(f.name, kinds[f.name], *kind, required))
    return tuple(table)


SCHEMA = {
    cls: _table(cls)
    for cls in (Expert, PatternSpec, Segment, StreamConfig, AgentSpec, RoleSpec,
                LifecycleConfig, RewardConfig, RunConfig)
}
# Views of SCHEMA for the parse and the dump, which run once per object.
_KEYS = {cls: frozenset(key.name for key in t) for cls, t in SCHEMA.items()}
_PARSE = {cls: [(key.name, key.parse, key.required) for key in t] for cls, t in SCHEMA.items()}
_DUMP = {cls: [(key.name, key.dump) for key in t] for cls, t in SCHEMA.items()}


def read_object(node: dict, path: str, parsers: dict[str, Callable]) -> dict:
    """Each key of ``parsers``, required and parsed, from an object with no other key."""
    _check_keys(node, set(parsers), path)
    if missing := [key for key in parsers if key not in node]:
        raise ConfigError(f"{path}: missing required key '{missing[0]}'")
    return {key: parse(node[key], path, key) for key, parse in parsers.items()}


# RunConfig's keys read from the output section; the others are top-level sections.
_OUTPUT = ("emit_detections", "snapshot_interval")
_SECTIONS = _KEYS[RunConfig] - set(_OUTPUT) | {"schema_version", "output"}


def parse_config(root: dict, source: str = "<config>") -> RunConfig:
    _check_keys(root, _SECTIONS, source)
    version = _INT(root.get("schema_version", CONFIG_SCHEMA_VERSION), source, "schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{source}: unsupported schema_version {version}")
    output, output_path = root.get("output", {}), f"{source}.output"
    _check_keys(output, set(_OUTPUT), output_path)
    values = _read(RunConfig, root, source)
    for name, parse, _ in _PARSE[RunConfig]:
        if name in output:
            values[name] = parse(output[name], output_path, name)
    return _build(RunConfig, source, values)


def load_config(path: str | Path) -> RunConfig:
    try:
        root = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError as exc:  # not UTF-8, or an integer too long to convert
        raise ConfigError(f"{path}: {exc}")
    return parse_config(root, source=str(path))


def config_to_dict(cfg: RunConfig) -> dict:
    """The JSON form of ``cfg``; snapshots embed it, and ``parse_config``
    reads it back to an equal config."""
    node = to_dict(cfg)
    output = {key: node.pop(key) for key in _OUTPUT}
    return {"schema_version": CONFIG_SCHEMA_VERSION, **node, "output": output}


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# The drift arrives at this cycle: pattern A before it, the A/B mixture after.
DRIFT_CYCLE = 10

# Calibration stream: independent of the run's seed and sizes, so the
# self-check measures the same samples whatever the caller asks for.
_CALIBRATION_SEED = 0xCA11B
_CALIBRATION_SAMPLES = 10_000


def _scenario(
    scenario: ScenarioSpec, seed: int, samples_per_cycle: int, total_cycles: int
) -> tuple[StreamConfig, AgentSpec, AgentSpec]:
    """The drifting stream, the incumbent tuned for pattern A and the
    pattern-B candidate; accuracies are constructed, not learned."""
    b_weight = scenario.post_drift_b_weight
    stream = StreamConfig(
        seed=seed,
        samples_per_cycle=samples_per_cycle,
        total_cycles=total_cycles,
        patterns=scenario_patterns(scenario),
        schedule=(
            Segment(0, {"A": 1.0}),
            Segment(DRIFT_CYCLE, {"A": 1.0 - b_weight, "B": b_weight}),
        ),
    )
    skills = frozenset({"fraud", "text", "numeric", "behavior"})
    incumbent = AgentSpec(
        FRAUD_ROLE, skills, incumbent_experts(scenario), handoff_reliability=0.98
    )
    candidate = AgentSpec(
        FRAUD_ROLE, skills | {"pattern-B"}, candidate_experts(scenario), handoff_reliability=0.98
    )
    return stream, incumbent, candidate


@functools.cache
def _check_calibration(scenario: ScenarioSpec) -> None:
    """Measure the designed accuracies with a uniform gate, each batch
    redacted to the tier it is scored at, and refuse a scenario outside
    its bands."""
    stream, incumbent, candidate = _scenario(
        scenario, _CALIBRATION_SEED, _CALIBRATION_SAMPLES, DRIFT_CYCLE + 1
    )
    pure_a, mixture = generate_cycle(stream, 0), generate_cycle(stream, DRIFT_CYCLE)

    def accuracy(spec: AgentSpec, batch: SampleBatch, tier: AccessTier) -> float:
        gate = uniform_gate(len(spec.experts))
        _, _, verdict = decide(spec.experts, gate, redact(batch.features, tier), batch.modality)
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
    stream, incumbent, candidate = _scenario(scenario, seed, samples_per_cycle, total_cycles)
    return RunConfig(
        stream=stream,
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
