"""Each output renderer against the generic path it replaces.

``metrics.csv`` rows and ``events.jsonl`` lines are rendered from fixed
templates. The oracles here are the generic expressions they replaced:
``str``/``.6f`` per field for a row and the compact ``json.dumps`` of an
event's fields. ``summary.json`` is json's own compact, key-sorted dump
of the summary, which its oracle writes through ``json.dumps``.
"""

import json
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from freeagent.config import AgentSpec
from freeagent.domain import EventKind, RosterEvent
from freeagent.engine import _COMPACT_SORTED, Engine, event_line
from freeagent.metrics import METRICS_LINE, MetricsRow
from freeagent.moe import Expert
from freeagent.simulator import PatternSpec, Segment
from tests.test_engine import small_config
from tests.test_golden import workload


def csv_oracle(row: MetricsRow) -> str:
    return ",".join(f"{v:.6f}" if type(v) is float else str(v) for v in row) + "\n"


def event_oracle(event: RosterEvent) -> str:
    node = {f.name: getattr(event, f.name) for f in fields(event)}
    node["kind"] = event.kind.value
    return json.dumps(node, separators=(",", ":")) + "\n"


def summary_oracle(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n"


# -- metrics.csv ---------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 1.0, 1e-07, 0.1 + 0.2, 5e-07, 0.9999995, 1e300,
               math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("x", EDGE_FLOATS)
def test_a_metrics_line_formats_each_float_as_the_oracle(x):
    row = MetricsRow(7, 3, "Probationary", 1, 0, 2, 10**20, x, x, x, x, x, x, x, x, 12)
    assert METRICS_LINE % row == csv_oracle(row)


@settings(max_examples=200, deadline=None)
@given(ints=st.lists(st.integers(0, 2**70), min_size=7, max_size=7),
       ratios=st.lists(st.floats(), min_size=8, max_size=8),
       status=st.sampled_from(["Active", "Probationary"]))
def test_metrics_lines_match_the_oracle(ints, ratios, status):
    row = MetricsRow(*ints[:2], status, *ints[2:6], *ratios, ints[6])
    assert METRICS_LINE % row == csv_oracle(row)


def test_every_metrics_line_of_a_run_matches_the_oracle():
    engine = Engine(workload("churn", 20))
    for _ in range(20):
        for row in engine.run_cycle().rows:
            assert METRICS_LINE % row == csv_oracle(row)


# -- events.jsonl --------------------------------------------------------

DETAILS = ['', 'plain', 'a "quoted" word', 'back\\slash', 'bell\x07 and tab\t',
           'line\nbreak', 'café', '日本', 'emoji \U0001f600', '\x00']


@pytest.mark.parametrize("kind", list(EventKind))
@pytest.mark.parametrize("detail", DETAILS)
def test_an_event_line_is_the_compact_dump_of_its_fields(kind, detail):
    for snapshot in (0.0, 1.0, 1e-07, 0.1 + 0.2):
        event = RosterEvent(12, kind, 4, detail, snapshot)
        assert event_line(event) == event_oracle(event)


@settings(max_examples=200, deadline=None)
@given(cycle=st.integers(0, 10**6), kind=st.sampled_from(list(EventKind)),
       agent=st.integers(0, 10**6), detail=st.text(),
       snapshot=st.floats(0.0, 1.0))
def test_event_lines_match_the_oracle(cycle, kind, agent, detail, snapshot):
    event = RosterEvent(cycle, kind, agent, detail, snapshot)
    assert event_line(event) == event_oracle(event)


def test_every_event_line_of_a_run_matches_the_oracle():
    engine = Engine(workload("churn", 60))
    kinds = set()
    while engine.cycle < 60:
        for event in engine.run_cycle().events:
            kinds.add(event.kind)
            assert event_line(event) == event_oracle(event)
    assert kinds == set(EventKind)


# -- summary.json ---------------------------------------------------------

@pytest.mark.parametrize("name,cycles", [("preset", 30), ("dispatch", 3), ("churn", 60)])
def test_the_summary_file_is_json_dumps_of_the_summary(tmp_path, name, cycles):
    summary = Engine(workload(name, cycles)).run(tmp_path)
    assert (tmp_path / "summary.json").read_text(encoding="utf-8") == summary_oracle(summary)


def test_equal_numbers_are_rendered_as_written(tmp_path):
    # Two agents whose experts differ only in the sign of zeros, a skill
    # spelling a key of the summary, and patterns named after its keys.
    def expert(zero):
        return Expert(profile=(1.0, zero, zero), weights=(1.0, zero, 0.0, zero, 0.0, zero),
                      threshold=3.0)

    cfg = small_config(roster_experts=(expert(0.0), expert(-0.0)), cycles=3)
    backup = AgentSpec(role="FraudDetection", skills=frozenset({"fraud", '"experts": []'}),
                       experts=(expert(-0.0), expert(0.0)))
    patterns = tuple(PatternSpec(name, 0.5, {0: 6.0}, (0.7, 0.3, 0.0))
                     for name in ("experts", "cycles"))
    cfg = replace(cfg, pool=(backup,), stream=replace(
        cfg.stream, patterns=patterns, schedule=(Segment(0, {"experts": 0.5, "cycles": 0.5}),)))
    summary = Engine(cfg).run(tmp_path)
    text = (tmp_path / "summary.json").read_text(encoding="utf-8")
    assert text == summary_oracle(summary)
    assert '"\\"experts\\": []"' in text and text.count("-0.0") == 10


def test_an_empty_run_summary_matches_the_oracle():
    # no cycle run: empty cycles and counts, and no key cycle yet
    summary = Engine(small_config()).build_summary()
    assert summary["cycles"] == [] and set(summary["key_cycles"].values()) == {None}
    assert _COMPACT_SORTED.encode(summary) + "\n" == summary_oracle(summary)
