"""Property tests over JSON configs generated from the config schema tables.

The strategy walks ``freeagent.config.SCHEMA``: every key of every section
comes from a dataclass field, its values from the field's type (and, for
an expert's profile and weights, the length of their space), a field
holding a config dataclass is a nested object, and a key with a dataclass
default is sometimes left out. A few keys get values chosen here: the
patterns and the schedule, which depend on each other, and the run sizes
and list lengths, kept small so each example runs in milliseconds.
``configs(bad=...)`` swaps in a wrong value (wrong JSON type, non-finite,
overflowing, out of range, malformed coordinate) with about that
probability per value.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import is_dataclass
from pathlib import Path

from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from freeagent.cli import main
from freeagent.config import SCHEMA, AgentSpec, RunConfig, config_to_dict, parse_config
from freeagent.domain import FEATURE_DIM, FRAUD_ROLE, MODALITY_DIM, ConfigError, DispatchedRole
from freeagent.engine import Engine, restore_engine
from freeagent.lifecycle import RoleSpec
from freeagent.moe import Expert
from freeagent.simulator import PatternSpec, StreamConfig

BAD_NUMBERS = [math.nan, math.inf, -math.inf, 10**400, 1e300, -1e300, -1.0, 1.5, "1", True, None]
BAD_INTS = [-1, 0, 2**64, 2.5, "1", True, None]
SKILLS = ["fraud", "pattern-B"]
# The lists of numbers with a fixed length; any other list has 3 entries.
LENGTHS = {(Expert, "profile"): MODALITY_DIM, (Expert, "weights"): FEATURE_DIM}
# RunConfig's keys that a config file holds in its output section.
OUTPUT = ("emit_detections", "snapshot_interval")


def maybe_bad(good, bad, rate):
    """``good``, or one of ``bad`` with probability about ``rate``; the bad
    draw sits mid-range, away from the bounds that hypothesis favours."""
    if rate == 0:
        return good
    n = round(1 / rate)
    return st.integers(0, n - 1).flatmap(lambda u: st.sampled_from(bad) if u == n // 2 else good)


def value(key, length, rate):
    """Values of one schema key, from its field's type."""
    number = st.floats(0.01, 0.99)
    size = length or 3
    if key.kind is float:
        return maybe_bad(number, BAD_NUMBERS, rate)
    if key.kind == float | None:
        return st.one_of(st.none(), maybe_bad(number, BAD_NUMBERS, rate))
    if key.kind is int:
        return maybe_bad(st.integers(1, 3), BAD_INTS, rate)
    if key.kind is bool:
        return maybe_bad(st.booleans(), [0, "true", None], rate)
    if key.kind is str:
        return maybe_bad(st.sampled_from("ABC"), [1, None], rate)
    if key.kind == DispatchedRole:
        return maybe_bad(st.just(FRAUD_ROLE), ["Triage", None], rate)
    if key.kind == tuple[float, ...]:
        bad = [[], [0.5] * (size + 1), ["1"] * size, [True] * size, [math.nan] * size]
        return maybe_bad(st.lists(number, min_size=size, max_size=size), bad, rate)
    if key.kind == frozenset[str]:
        return maybe_bad(st.lists(st.sampled_from(SKILLS), max_size=2), ["fraud", [1]], rate)
    if key.kind == dict[int, float]:
        bad = [{"01": 1.0}, {" 1": 1.0}, {"x": 1.0}, {"9": 1.0}, {"0": "1"}, {"0": math.inf}]
        shift = st.dictionaries(st.integers(0, 5).map(str), number, max_size=2)
        return maybe_bad(shift, bad, rate)
    if is_dataclass(key.kind):
        return maybe_bad(record(key.kind, rate), [[], None], rate)
    if key.kind == tuple[Expert, ...]:
        return maybe_bad(st.lists(record(Expert, rate), min_size=1, max_size=2), [[], {}], rate)
    raise AssertionError(f"no strategy for {key.name}: {key.kind}")


def record(cls, rate, **chosen):
    """JSON objects holding the table keys of ``cls``; optional keys may be left out."""
    required, optional = {}, {}
    for key in SCHEMA[cls]:
        if key.name in chosen:
            required[key.name] = chosen[key.name]
        else:
            length = LENGTHS.get((cls, key.name))
            (required if key.required else optional)[key.name] = value(key, length, rate)
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def configs(draw, bad=0.0, snapshot_interval=None):
    names = draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=2, unique=True))
    patterns = [draw(record(PatternSpec, bad, name=st.just(name))) for name in names]
    starts = [0] + sorted(draw(st.sets(st.integers(1, 3), max_size=2)))
    schedule = []
    for start in starts:
        used = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        weights = [draw(maybe_bad(st.just(w), BAD_NUMBERS, bad)) for w in (0.25, 0.75)]
        mixture = dict(zip(used, weights)) if len(used) == 2 else {used[0]: 1.0}
        schedule.append({"start_cycle": start, "mixture": mixture})
    stream = record(
        StreamConfig, bad,
        samples_per_cycle=maybe_bad(st.integers(1, 20), [0, 2.5, True], bad),
        total_cycles=maybe_bad(st.integers(1, 4), [0, "1", None], bad),
        patterns=st.just(patterns), schedule=st.just(schedule),
    )
    chosen = {"snapshot_interval": st.just(snapshot_interval)} if snapshot_interval else {}
    # a roster agent in every config, so most runs exercise the lifecycle;
    # TestDegenerate covers the agentless run
    roster = st.lists(record(AgentSpec, bad), min_size=1, max_size=2)
    pool = st.lists(record(AgentSpec, bad), max_size=2)
    node = draw(record(
        RunConfig, bad, stream=stream, roles=st.lists(record(RoleSpec, bad), max_size=1),
        roster=roster, pool=pool, **chosen,
    ))
    node["output"] = {key: node.pop(key) for key in OUTPUT if key in node}
    return node


def _valid(node) -> RunConfig:
    try:
        return parse_config(node)
    except ConfigError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(node=configs())
def test_parse_dump_parse_gives_an_equal_config(node):
    cfg = _valid(node)
    dumped = config_to_dict(cfg)
    assert parse_config(json.loads(json.dumps(dumped))) == cfg
    assert config_to_dict(parse_config(dumped)) == dumped


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(node=configs(bad=0.03))
def test_every_config_runs_or_is_rejected_before_any_output(node):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(node))
        verdict = main(["validate", "--config", str(path)])
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == verdict
        event("runs" if code == 0 else "rejected")
        if code == 0:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["completed_through_cycle"] == summary["total_cycles"] - 1
        else:
            assert code == 2 and not out.exists()


def count_agents() -> list[int | None]:
    """Per config drawn by 100 derandomized examples of the ``configs``
    strategy the properties use: its agent count, None if rejected."""
    agents = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(node=configs(bad=0.03))
    def parse(node):
        try:
            cfg = parse_config(json.loads(json.dumps(node)))
        except ConfigError:
            agents.append(None)
        else:
            agents.append(len(cfg.roster) + len(cfg.pool))

    parse()
    return agents


def ignore_loaded_modules() -> None:
    """Mark every module loaded so far as already scanned by hypothesis's
    local-constant pass, so that no literal of ``src/`` or of this module
    joins the values the strategies draw. The names are hypothesis
    internals (6.155): an upgrade that drops them fails here, loudly."""
    from hypothesis.internal.conjecture import providers

    for name in ("_seen_modules", "_sys_modules_len"):
        assert hasattr(providers, name), f"hypothesis has no providers.{name}"
    providers._seen_modules.update(id(module) for module in list(sys.modules.values()))
    providers._sys_modules_len = len(sys.modules)


def test_at_least_a_quarter_of_the_generated_configs_run():
    # The property above holds whatever share of configs is rejected, so a
    # strategy that stopped making valid ones, or valid agents, would leave
    # the runs untested. A config runs iff it parses, as that property
    # checks, and every config that runs has a roster agent. Hypothesis
    # also draws literals from every local module loaded, so the count runs
    # in a fresh interpreter that imports this module and then hides every
    # loaded module from that scan: derandomized, the count is then the
    # same whatever literals src/ holds or is imported alongside it.
    root = Path(__file__).resolve().parent.parent
    code = ("import json, tests.test_config_properties as t; t.ignore_loaded_modules(); "
            "print(json.dumps(t.count_agents()))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=root, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    agents = json.loads(proc.stdout)
    runs = [n for n in agents if n is not None]
    assert len(runs) >= len(agents) / 4, f"{len(runs)} of {len(agents)} configs run"
    with_agents = sum(n > 0 for n in runs)
    assert with_agents >= len(agents) / 2, f"{with_agents} of {len(agents)} run an agent"


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(node=configs(snapshot_interval=1), data=st.data())
def test_resumed_run_writes_identical_bytes(node, data):
    cfg = _valid(node)
    total = cfg.stream.total_cycles
    with tempfile.TemporaryDirectory() as tmp:
        full, resumed = Path(tmp) / "full", Path(tmp) / "resumed"
        Engine(cfg).run(full)
        at = data.draw(st.integers(1, total), label="resume at")
        restore_engine(full / "snapshots" / f"state_cycle_{at:04d}.json").run(resumed)

        assert (resumed / "summary.json").read_bytes() == (full / "summary.json").read_bytes()
        events = (full / "events.jsonl").read_text().splitlines()
        assert (resumed / "events.jsonl").read_text().splitlines() == [
            line for line in events if json.loads(line)["cycle"] >= at
        ]
        header, *rows = (full / "metrics.csv").read_text().splitlines()
        assert (resumed / "metrics.csv").read_text().splitlines() == [header] + [
            row for row in rows if int(row.split(",")[0]) >= at
        ]
        if cfg.emit_detections:  # sample seq numbers run on across cycles
            first_seq = at * cfg.stream.samples_per_cycle
            detections = (full / "detections.jsonl").read_text().splitlines()
            assert (resumed / "detections.jsonl").read_text().splitlines() == [
                line for line in detections if json.loads(line)["seq"] >= first_seq
            ]
        for cycle in range(at + 1, total + 1):
            name = f"snapshots/state_cycle_{cycle:04d}.json"
            assert (resumed / name).read_bytes() == (full / name).read_bytes(), name
