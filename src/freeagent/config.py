"""Run configuration: schema, strict validation, JSON round-trip, and the
bundled scenario: its closed-form design and the preset that runs it,
which checks its own calibration.

Configs are plain JSON, and the config dataclasses are the schema: each
field is a key (see ``SCHEMA``) whose type hint gives its JSON kind, so a
nested dataclass is an object and a tuple of them a list. Only the
``output`` section, which holds two of ``RunConfig``'s own fields, has
code of its own; the engine's snapshots and output rows use the same
kinds. Errors name the dotted path, all before any execution starts.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from statistics import NormalDist
from types import UnionType
from typing import Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .domain import FRAUD_ROLE, SENSITIVE_START, ConfigError, DispatchedRole
from .lifecycle import LifecycleConfig, RoleSpec
from .moe import Expert, check_learning_rate, uniform_gate
from .pipeline import ExpertMatrices, decide, expert_matrices
from .reward import RewardConfig
from .simulator import PatternSpec, SampleBatch, Segment, StreamConfig, generate_cycle

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
        if self.role != FRAUD_ROLE:
            raise ConfigError(f"expected one of {[FRAUD_ROLE]}, got {self.role!r}", at="role")
        check_learning_rate(self.learning_rate)
        if not self.cost_per_sample > 0:
            raise ConfigError("cost_per_sample must be positive")
        if not 0.0 <= self.handoff_reliability <= 1.0:
            raise ConfigError("handoff_reliability must be in [0, 1]")
        if self.service_time < 0:
            raise ConfigError("service_time must be non-negative")
        if not self.experts:
            raise ConfigError("agent spec needs at least one expert")

    @functools.cached_property
    def matrices(self) -> ExpertMatrices:
        """The experts as ``decide`` reads them, built on first use, not at load."""
        return expert_matrices(self.experts)

    @functools.cached_property
    def expert_key(self) -> bytes:
        """The bytes of ``matrices``: agents whose specs share them decide
        alike, so a batch groups them on it. Bytes, not float equality,
        under which 0.0 and -0.0 would be one key."""
        return b"".join(array.tobytes() for array in self.matrices)


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


def _among(values: dict) -> Callable:
    """The parser of a string among the keys of ``values``, read as its value."""

    def parse(value, path: str, key: str):
        if type(value) is str and value in values:
            return values[value]
        raise ConfigError(f"{path}.{key}: expected one of {sorted(values)}, got {value!r}")

    return parse


def _sequence(make: type, item: tuple) -> tuple:
    """A JSON list of ``item``s, read as ``make``; item i's errors name ``key[i]``."""
    parse, dump = item

    def parse_items(value, path: str, key: str):
        return make(parse(v, path, f"{key}[{i}]") for i, v in enumerate(_LIST(value, path, key)))

    return parse_items, list if dump is None else lambda items: [dump(v) for v in items]


def _mapping(item: tuple) -> tuple:
    """A JSON object of names -> ``item``s; the errors of name's value name ``key.name``."""
    parse, dump = item

    def parse_items(value, path: str, key: str) -> dict:
        node, at = _DICT(value, path, key), f"{path}.{key}"
        return {name: parse(v, at, name) for name, v in node.items()}

    return parse_items, dict if dump is None else lambda node: {k: dump(v) for k, v in node.items()}


def _nullable(item: tuple) -> tuple:
    """null or ``item``."""
    parse, dump = item
    return (lambda value, path, key: None if value is None else parse(value, path, key),
            dump and (lambda value: None if value is None else dump(value)))


# ---------------------------------------------------------------------------
# The schema: one table per dataclass, built from its fields' type hints
# ---------------------------------------------------------------------------

class Key(NamedTuple):
    name: str
    kind: object  # the field's type
    parse: Callable  # (value, path, key) -> field value
    dump: Callable | None  # field value -> JSON value; None: the value itself
    required: bool


# The parser and dump of each leaf type and of those read as a whole: a list of numbers
# (checked at once), a skill set (dumped sorted), a fraud shift and a config file.
_KINDS = {
    float: (_number, None),
    int: (_INT, None),
    bool: (_BOOL, None),
    str: (_STR, None),
    tuple[float, ...]: (_numbers, list),
    frozenset[str]: (_strings, sorted),
    dict[int, float]: (_shift, lambda shift: {str(k): v for k, v in sorted(shift.items())}),
    RunConfig: (lambda value, path, key: parse_config(value, f"{path}.{key}"),
                lambda cfg: config_to_dict(cfg)),
}

# Views of every table for the parse and the dump, which run once per object.
_KEYS: dict[type, frozenset[str]] = {}
_PARSE: dict[type, list] = {}
_DUMP: dict[type, list] = {}
_SKIPPED: dict[type, dict] = {}  # the fields built as None, of the tables that skip any


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
    return _build(cls, path, {**_SKIPPED.get(cls, {}), **_read(cls, node, path)})


def to_dict(obj) -> dict:
    """The JSON object of a dataclass with a table: its table fields, in order."""
    node = {}
    for name, dump in _DUMP[type(obj)]:
        value = getattr(obj, name)
        node[name] = value if dump is None else dump(value)
    return node


def _kind(kind: object) -> tuple[Callable, Callable | None] | None:
    """The parser and dump of a type hint, built from its parts: a dataclass
    is an object, ``list[x]`` and ``tuple[x, ...]`` are lists, ``dict[str, x]`` an object,
    ``x | None`` null or x, and a ``Literal`` or an ``Enum`` a string among
    its values (an Enum dumps ``.value``). None: the hint has no JSON kind."""
    if kind in _KINDS:
        return _KINDS[kind]
    if is_dataclass(kind):
        return (lambda value, path, key: from_dict(kind, value, f"{path}.{key}")), to_dict
    if isinstance(kind, type) and issubclass(kind, Enum):
        return _among({member.value: member for member in kind}), attrgetter("value")
    origin, args = get_origin(kind), get_args(kind)
    if origin is Literal:
        return _among({arg: arg for arg in args}), None
    if origin is list or origin is tuple and args[1:] == (...,):
        form, parts = functools.partial(_sequence, origin), args[:1]
    elif origin is dict and args[0] is str:
        form, parts = _mapping, args[1:]
    elif origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        form, parts = _nullable, [arg for arg in args if arg is not type(None)]
    else:
        return None
    kinds = [_kind(part) for part in parts]
    return None if None in kinds else form(*kinds)


def _table(cls: type, skip: tuple[str, ...] = (), required: bool = False) -> tuple[Key, ...]:
    """One key per field of ``cls`` but those in ``skip``, which are built
    as None; with ``required``, every key is, default or not. From then on
    ``from_dict`` and ``to_dict`` read and write ``cls`` through the table.
    A field with no JSON kind fails at import."""
    table, kinds = [], get_type_hints(cls, localns=globals())  # globals: Agent.spec's type
    for f in fields(cls):
        if f.name in skip:
            continue
        if (kind := _kind(kinds[f.name])) is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no JSON kind for {kinds[f.name]}")
        default = f.default is not MISSING or f.default_factory is not MISSING
        table.append(Key(f.name, kinds[f.name], *kind, required or not default))
    _KEYS[cls] = frozenset(key.name for key in table)
    _PARSE[cls] = [(key.name, key.parse, key.required) for key in table]
    _DUMP[cls] = [(key.name, key.dump) for key in table]
    if skip:
        _SKIPPED[cls] = dict.fromkeys(skip)
    return tuple(table)


SCHEMA = {
    cls: _table(cls)
    for cls in (Expert, PatternSpec, Segment, StreamConfig, AgentSpec, RoleSpec,
                LifecycleConfig, RewardConfig, RunConfig)
}


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
# Presets. The bundled scenario: an incumbent tuned for pattern A, and a
# candidate tuned for the post-drift A/B mixture with extra headroom on the
# sensitive suffix.
# ---------------------------------------------------------------------------

# The scenario's accuracy numbers are produced BY DESIGN, not learned:
# fraud samples shift designated feature coordinates by offsets computed in
# closed form from the Gaussian error function, so a linear expert with a
# known threshold hits a designed accuracy. The scenario exists to exercise
# the roster machinery, not to make a learning claim. The preset measures
# the designed accuracies and refuses to build outside CALIBRATION_BANDS.
#
# Derivation sketch (all via the normal quantile z):
#   * a single-coordinate expert with threshold z(p) on a fraud shift of
#     2*z(p) is correct on each class with probability p;
#   * the incumbent's behavior expert keeps its pattern-A threshold, so the
#     visible pattern-B shift is set for the incumbent's designed mixture
#     accuracy;
#   * the candidate's strongest expert also weights the first sensitive
#     coordinate; its threshold is placed for the full-view class
#     accuracies and the visible shift for the Restricted-view target.
INCUMBENT_A_ACCURACY = 0.95
INCUMBENT_MIXTURE_ACCURACY = 0.75
CANDIDATE_SHADOW_MIXTURE_ACCURACY = 0.88
CANDIDATE_FULL_LEGIT_ACCURACY = 0.95
CANDIDATE_FULL_FRAUD_ACCURACY = 0.91
FRAUD_RATE = 0.5
POST_DRIFT_B_WEIGHT = 0.5
SENSITIVE_WEIGHT = 0.5

# Each calibration check and the accuracy band it must land in.
CALIBRATION_BANDS = {
    "incumbent on pattern A": (0.93, 0.97),
    "incumbent on mixture": (0.72, 0.78),
    "candidate shadow on mixture": (0.85, 0.91),
    "candidate full on mixture": (0.90, 1.0),
}


@functools.cache
def _offsets() -> dict[str, float]:
    """Solve the feature shifts and thresholds in closed form."""
    normal = NormalDist()
    z = normal.inv_cdf
    phi = normal.cdf
    theta = z(INCUMBENT_A_ACCURACY)
    shift_a = 2.0 * theta

    mix_b = POST_DRIFT_B_WEIGHT
    acc_b_incumbent = (INCUMBENT_MIXTURE_ACCURACY - (1.0 - mix_b) * INCUMBENT_A_ACCURACY) / mix_b
    fraud_hit = 2.0 * acc_b_incumbent - INCUMBENT_A_ACCURACY
    shift_b_visible = theta + z(fraud_hit)

    sigma_full = (2.0 + SENSITIVE_WEIGHT**2) ** 0.5
    threshold_candidate = sigma_full * z(CANDIDATE_FULL_LEGIT_ACCURACY)
    mean_full = threshold_candidate + sigma_full * z(CANDIDATE_FULL_FRAUD_ACCURACY)

    acc_b_shadow = (
        CANDIDATE_SHADOW_MIXTURE_ACCURACY - (1.0 - mix_b) * INCUMBENT_A_ACCURACY
    ) / mix_b
    legit_restricted = phi(threshold_candidate / 2.0**0.5)
    fraud_restricted = 2.0 * acc_b_shadow - legit_restricted
    mean_restricted = threshold_candidate + 2.0**0.5 * z(fraud_restricted)

    return {
        "theta": theta,
        "shift_a": shift_a,
        "shift_b_visible": shift_b_visible,
        "shift_b_numeric": mean_restricted - shift_b_visible,
        "shift_b_sensitive": (mean_full - mean_restricted) / SENSITIVE_WEIGHT,
        "threshold_candidate": threshold_candidate,
    }


# The drift arrives at this cycle: pattern A before it, the A/B mixture after.
DRIFT_CYCLE = 10

# Calibration stream: independent of the run's seed and sizes, so the
# self-check measures the same samples whatever the caller asks for.
_CALIBRATION_SEED = 0xCA11B
_CALIBRATION_SAMPLES = 10_000


def _scenario(seed: int, samples_per_cycle: int,
              total_cycles: int) -> tuple[StreamConfig, AgentSpec, AgentSpec]:
    """The drifting stream, the incumbent tuned for pattern A and the
    pattern-B candidate, all from the scenario's offsets; accuracies are
    constructed, not learned."""
    ofs = _offsets()
    pattern_a = PatternSpec(
        name="A",
        fraud_rate=FRAUD_RATE,
        fraud_shift={0: ofs["shift_a"]},
        modality_base=(0.7, 0.3, 0.0),
    )
    pattern_b = PatternSpec(
        name="B",
        fraud_rate=FRAUD_RATE,
        fraud_shift={
            1: ofs["shift_b_numeric"],
            2: ofs["shift_b_visible"],
            3: ofs["shift_b_sensitive"],
        },
        modality_base=(0.0, 0.3, 0.7),
    )
    stream = StreamConfig(
        seed=seed,
        samples_per_cycle=samples_per_cycle,
        total_cycles=total_cycles,
        patterns=(pattern_a, pattern_b),
        schedule=(
            Segment(0, {"A": 1.0}),
            Segment(DRIFT_CYCLE, {"A": 1.0 - POST_DRIFT_B_WEIGHT, "B": POST_DRIFT_B_WEIGHT}),
        ),
    )

    # Expert k reads modality k. Both agents share the first two, each
    # scoring feature k at the pattern-A threshold; the incumbent's third
    # does the same on feature 2, and the candidate's also weighs the
    # pattern-B shifts at its own threshold.
    theta = ofs["theta"]
    shared = (
        Expert(profile=(1.0, 0.0, 0.0), weights=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), threshold=theta),
        Expert(profile=(0.0, 1.0, 0.0), weights=(0.0, 1.0, 0.0, 0.0, 0.0, 0.0), threshold=theta),
    )
    incumbent_third = Expert(
        profile=(0.0, 0.0, 1.0), weights=(0.0, 0.0, 1.0, 0.0, 0.0, 0.0), threshold=theta
    )
    candidate_third = Expert(
        profile=(0.0, 0.0, 1.0),
        weights=(0.0, 1.0, 1.0, SENSITIVE_WEIGHT, 0.0, 0.0),
        threshold=ofs["threshold_candidate"],
    )
    skills = frozenset({"fraud", "text", "numeric", "behavior"})
    incumbent = AgentSpec(FRAUD_ROLE, skills, (*shared, incumbent_third), handoff_reliability=0.98)
    candidate = AgentSpec(
        FRAUD_ROLE, skills | {"pattern-B"}, (*shared, candidate_third), handoff_reliability=0.98
    )
    return stream, incumbent, candidate


@functools.cache
def _check_calibration() -> None:
    """Measure the designed accuracies with a uniform gate, each on the full
    features or on their Restricted view, the first ``SENSITIVE_START``
    rows, and refuse one outside its band in ``CALIBRATION_BANDS``."""
    stream, incumbent, candidate = _scenario(_CALIBRATION_SEED, _CALIBRATION_SAMPLES,
                                             DRIFT_CYCLE + 1)
    pure_a, mixture = generate_cycle(stream, 0), generate_cycle(stream, DRIFT_CYCLE)

    def accuracy(spec: AgentSpec, batch: SampleBatch, features: np.ndarray) -> float:
        gate = uniform_gate(len(spec.experts))
        _, _, verdict = decide(spec.matrices, gate, features, batch.modality)
        return np.count_nonzero(verdict == batch.label) / len(batch)

    measured = {
        "incumbent on pattern A": accuracy(incumbent, pure_a, pure_a.features),
        "incumbent on mixture": accuracy(incumbent, mixture, mixture.features),
        "candidate shadow on mixture": accuracy(candidate, mixture,
                                                mixture.features[:SENSITIVE_START]),
        "candidate full on mixture": accuracy(candidate, mixture, mixture.features),
    }
    for label, (lo, hi) in CALIBRATION_BANDS.items():
        if not lo <= measured[label] <= hi:
            raise ConfigError(
                f"calibration failed: {label} = {measured[label]:.4f} outside [{lo}, {hi}]"
            )


def section_4_4_preset(
    seed: int = 42, total_cycles: int = 30, samples_per_cycle: int = 1000
) -> RunConfig:
    """Drift scenario: an incumbent tuned for pattern A degrades when
    pattern B arrives at ``DRIFT_CYCLE``, and a pattern-B candidate waits
    in the pool. Raises ``ConfigError`` if the scenario's designed
    accuracies miss their bands (measured once per process).
    """
    _check_calibration()
    stream, incumbent, candidate = _scenario(seed, samples_per_cycle, total_cycles)
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


def preset_config(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}'; available: {sorted(PRESETS)}")
    return PRESETS[name]()
